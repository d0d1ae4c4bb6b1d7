// serve_read: dashboard reads over TCP loopback against one epoch of about
// 1M rows. Closed-loop clients draw specs with Zipf popularity from a
// catalog larger than the result cache, so most requests hit and a steady
// share misses into single-flight, batch folding and the engine.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>

#include "data/snapshot.hpp"
#include "obs/metrics.hpp"
#include "query/engine.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "survey.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace data = rcr::data;
namespace serve = rcr::serve;

void gen_serve(const std::string& dir, std::uint64_t seed, bool with_blocks) {
  {
    Rng rng(mix_seed(seed, 100));
    Tally tally;
    const data::Table base = make_table(rng, kBaseRows, tally);
    data::write_snapshot(base, dir + "/serve_base.snap");
    write_doubles(dir + "/serve_base.tally", tally.save());
  }
  if (!with_blocks) return;
  Rng rng(mix_seed(seed, 200));
  data::Table blocks = wave_schema();
  std::vector<double> flat;
  for (std::size_t b = 0; b < kBlocks; ++b) {
    Tally tally;
    blocks.append_rows(make_table(rng, kBlockRows, tally));
    const auto saved = tally.save();
    flat.insert(flat.end(), saved.begin(), saved.end());
  }
  data::write_snapshot(blocks, dir + "/serve_blocks.snap");
  write_doubles(dir + "/serve_blocks.tally", flat);
}

namespace {

constexpr std::size_t kCatalog = 2048;
constexpr std::size_t kCacheEntries = 1024;
// Zipf 2.0 over 2,048 specs against 1,024 cached bodies: about 0.06% of
// requests miss. A serial miss scans the 1M-row base for ~1.7 ms, and in
// this host's busy spells misses slowed by 60-80% while hits slowed ~10%;
// with Zipf 1.5 (1.2% misses, over half the clients' time) throughput
// spread 28% and p99.9 35% over ten runs (README).
constexpr double kZipfExponent = 2.0;
constexpr std::size_t kClients = 2;
constexpr std::size_t kWorkers = 2;
constexpr std::uint64_t kEpoch = 1;
// Latency samples a client keeps without reallocating: ~35,000 requests a
// second per client leaves room for 55 s runs.
constexpr std::size_t kSampleCapacity = std::size_t{1} << 21;
// Traced runs: every kHitProbeEvery-th request of client 0 is followed by
// a hit probe, every kMissProbeEvery-th by a cold-spec miss probe.
constexpr std::uint64_t kHitProbeEvery = 64;
constexpr std::uint64_t kMissProbeEvery = 1024;

class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double acc = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
      cdf_[i] = acc;
    }
    for (double& c : cdf_) c /= acc;
  }
  std::size_t operator()(Rng& rng) const {
    const double u = rng.unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min<std::size_t>(static_cast<std::size_t>(it - cdf_.begin()),
                                 cdf_.size() - 1);
  }

 private:
  std::vector<double> cdf_;
};

struct ClientResult {
  oracle::Ledger ledger;
  std::vector<double> rtt_ms, end_s;
  std::vector<double> hit_rtt_us, hit_handle_us, miss_handle_us, run_ms;
};

std::uint64_t counter(const char* name) {
  return rcr::obs::registry().counter(name).total();
}

}  // namespace

Outcome run_serve_read(const RunArgs& args) {
  Outcome out;
  out.tail_quantile = 0.99;
  out.window_s = 1.0;
  out.pool_threads = 0;
  out.transport_threads = kWorkers;
  out.load_threads = kClients;

  // Popularity order: a seeded shuffle of the catalog.
  std::vector<serve::QuerySpec> catalog = spec_catalog(kCatalog);
  {
    Rng rng(mix_seed(args.seed, 300));
    for (std::size_t i = catalog.size() - 1; i > 0; --i)
      std::swap(catalog[i], catalog[rng.below(i + 1)]);
  }
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint64_t> fps;
  for (const auto& spec : catalog) {
    frames.push_back(request_frame(kEpoch, spec));
    fps.push_back(serve::fingerprint(kEpoch, spec));
  }
  const Zipf zipf(kCatalog, kZipfExponent);

  // No engine pool: a miss scans serially on the transport worker that
  // took it. A pooled scan wakes idle pool threads on other vCPUs for every
  // miss, and on this host those wake-ups stall for milliseconds in busy
  // stretches: with a 2-thread pool, throughput spread 30% and p99.9 76%
  // over four runs (quartile spread), against 5% and 6% serially (README).
  serve::ServerConfig config;
  config.cache_capacity = kCacheEntries;
  // Admission never sheds here: the budget floor exceeds any miss queue
  // two closed-loop clients can build.
  config.max_admitted = config.min_admitted = 1024;
  config.slo_p99_ms = 1e9;
  serve::Server server(config);
  const Tally tally = Tally::load(read_doubles(args.dir + "/serve_base.tally"));
  const data::Table table = data::read_snapshot(args.dir + "/serve_base.snap");
  server.register_snapshot(kEpoch, table);  // shares the mapped pages
  // Fill the cache with the most popular specs before timing.
  for (std::size_t i = 0; i < kCacheEntries; ++i) {
    const auto resp = server.handle({kEpoch, catalog[i]});
    if (resp.type != serve::MsgType::kResult)
      throw std::runtime_error("warm-up request failed");
  }
  serve::TcpServer tcp(server, 0, kWorkers);
  tcp.start();
  std::vector<std::unique_ptr<TcpClient>> conns;
  for (std::size_t c = 0; c < kClients; ++c) {
    conns.push_back(std::make_unique<TcpClient>());
    if (!conns.back()->connect(tcp.port(), 5000))
      throw std::runtime_error("cannot connect to the TCP server");
  }
  // Sample buffers are touched in set-up, so their pages weigh the same
  // in peak_rss_mib whatever the request rate.
  std::vector<ClientResult> results(kClients);
  for (ClientResult& r : results) {
    r.rtt_ms.resize(kSampleCapacity);
    r.rtt_ms.clear();
    r.end_s.resize(kSampleCapacity);
    r.end_s.clear();
  }
  mark_setup_done();

  const std::uint64_t req0 = counter("serve.requests");
  const std::uint64_t hit0 = counter("serve.hits");
  const std::uint64_t coal0 = counter("serve.coalesced");
  const std::uint64_t bat0 = counter("serve.batches");
  const std::uint64_t bq0 = counter("serve.batch.queries");
  std::atomic<std::uint64_t> miss_probe_seq{0};
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(args.seconds));

  auto client = [&](std::size_t c) {
    ClientResult& r = results[c];
    TcpClient& conn = *conns[c];
    Rng rng(mix_seed(args.seed, 400 + c));
    std::vector<std::vector<std::uint8_t>> first(kCatalog);
    serve::Response resp;
    for (std::uint64_t n = 1; Clock::now() < deadline; ++n) {
      const std::size_t k = zipf(rng);
      const auto t0 = Clock::now();
      if (!conn.roundtrip(frames[k], resp)) {
        r.ledger.record("request timed out or the connection failed");
        return;
      }
      const auto t1 = Clock::now();
      r.rtt_ms.push_back(ms_between(t0, t1));
      r.end_s.push_back(seconds_between(start, t1));
      std::string why;
      if (resp.type != serve::MsgType::kResult) {
        why = resp.type == serve::MsgType::kShed ? "request shed"
                                                 : "error response";
      } else if (first[k].empty()) {
        why = oracle::check_response(tally.expect(catalog[k]), fps[k],
                                     resp.fingerprint, resp.body);
        first[k] = resp.body;
      } else if (resp.body != first[k] || resp.fingerprint != fps[k]) {
        why = "body differs from the spec's first body";
      }
      r.ledger.record(why);

      if (!args.trace || c != 0) continue;
      if (n % kHitProbeEvery == 0) {
        // The spec was just served, so both repeats hit.
        const auto h0 = Clock::now();
        if (!conn.roundtrip(frames[k], resp)) {
          r.ledger.record("hit probe timed out or the connection failed");
          return;
        }
        const auto h1 = Clock::now();
        const auto payload = server.handle_payload(std::span<const std::uint8_t>(
            frames[k].data() + 4, frames[k].size() - 4));
        const auto h2 = Clock::now();
        r.hit_rtt_us.push_back(ms_between(h0, h1) * 1e3);
        r.hit_handle_us.push_back(ms_between(h1, h2) * 1e3);
        if (serve::decode_response(payload).body != first[k])
          r.ledger.record("hit probe body differs");
      }
      if (n % kMissProbeEvery == 0) {
        // A confidence level no request uses: a guaranteed cold spec.
        serve::QuerySpec spec;
        spec.kind = serve::QueryKind::kCategoryShares;
        spec.a = "field";
        spec.confidence = 0.5 + 1e-6 * static_cast<double>(++miss_probe_seq);
        const auto frame = request_frame(kEpoch, spec);
        const auto m0 = Clock::now();
        const auto payload = server.handle_payload(
            std::span<const std::uint8_t>(frame.data() + 4, frame.size() - 4));
        const auto m1 = Clock::now();
        r.miss_handle_us.push_back(ms_between(m0, m1) * 1e3);
        const auto probe = serve::decode_response(payload);
        r.ledger.record(oracle::check_response(
            tally.expect(spec), serve::fingerprint(kEpoch, spec),
            probe.fingerprint, probe.body));
        // The same scan, called directly: the engine's share of a miss.
        rcr::query::QueryEngine engine(table);
        serve::register_spec(engine, spec);
        const auto q0 = Clock::now();
        engine.run(nullptr);
        r.run_ms.push_back(ms_between(q0, Clock::now()));
      }
    }
  };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < kClients; ++c)
    threads.emplace_back([&, c] {
      try {
        client(c);
      } catch (const std::exception& e) {
        results[c].ledger.record(std::string("client: ") + e.what());
      }
    });
  for (auto& t : threads) t.join();
  out.timed_s = seconds_between(start, Clock::now());
  out.peak_rss_mib = peak_rss_mib();
  tcp.stop();

  ClientResult all;
  for (auto& r : results) {
    out.ledger.merge(r.ledger);
    out.op_ms.insert(out.op_ms.end(), r.rtt_ms.begin(), r.rtt_ms.end());
    out.op_end_s.insert(out.op_end_s.end(), r.end_s.begin(), r.end_s.end());
    all.hit_rtt_us.insert(all.hit_rtt_us.end(), r.hit_rtt_us.begin(),
                          r.hit_rtt_us.end());
    all.hit_handle_us.insert(all.hit_handle_us.end(), r.hit_handle_us.begin(),
                             r.hit_handle_us.end());
    all.miss_handle_us.insert(all.miss_handle_us.end(),
                              r.miss_handle_us.begin(),
                              r.miss_handle_us.end());
    all.run_ms.insert(all.run_ms.end(), r.run_ms.begin(), r.run_ms.end());
  }
  if (!args.trace) return out;

  const double requests = static_cast<double>(counter("serve.requests") - req0);
  const double hits = static_cast<double>(counter("serve.hits") - hit0);
  const double batches = static_cast<double>(counter("serve.batches") - bat0);
  const double hit_ratio = requests > 0 ? hits / requests : 0.0;
  const double hit_us = quantile(all.hit_handle_us, 0.5);
  const double miss_us = quantile(all.miss_handle_us, 0.5);
  const double transport_us = quantile(all.hit_rtt_us, 0.5) - hit_us;
  out.layers["serve.handle_hit_us"] = hit_us;
  out.layers["serve.handle_miss_us"] = miss_us;
  out.layers["serve.transport_us"] = transport_us;
  out.layers["serve.cache.hit_ratio"] = hit_ratio;
  out.layers["serve.batch.fold"] =
      batches > 0 ? static_cast<double>(counter("serve.batch.queries") - bq0) /
                        batches
                  : 0.0;
  out.layers["serve.coalesced_per_1k"] =
      requests > 0
          ? 1e3 * static_cast<double>(counter("serve.coalesced") - coal0) /
                requests
          : 0.0;
  const double run_ms = quantile(all.run_ms, 0.5);
  out.layers["query.run_ms"] = run_ms;
  out.layers["query.rows_per_s"] =
      run_ms > 0 ? static_cast<double>(table.row_count()) / (run_ms / 1e3) : 0.0;
  // A client's mean wall per request against what the layers account for.
  const double wall_ms =
      out.timed_s * static_cast<double>(kClients) * 1e3 /
      static_cast<double>(std::max<std::size_t>(out.op_ms.size(), 1));
  const double layer_ms =
      (hit_ratio * hit_us + (1.0 - hit_ratio) * miss_us + transport_us) / 1e3;
  out.layers["unattributed_ms"] = wall_ms - layer_ms;
  return out;
}

}  // namespace perfbench
