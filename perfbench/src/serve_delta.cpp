// serve_delta: writes beside reads. A writer mints delta epochs back to
// back with Server::append_delta — each adds one fixed-size block to a base
// of about 1M rows, kBlocks deltas per round — while a paced reader queries
// the head epoch's served specs over TCP. An operation is one delta, made
// visible and checked against the benchmark's running tallies.
#include <algorithm>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>

#include "data/snapshot.hpp"
#include "incr/engine.hpp"
#include "obs/metrics.hpp"
#include "serve/server.hpp"
#include "serve/transport.hpp"
#include "survey.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace data = rcr::data;
namespace serve = rcr::serve;

constexpr std::size_t kServedSpecs = 30;
constexpr std::size_t kChecksPerDelta = 4;
constexpr auto kReadInterval = std::chrono::microseconds(1000);

// The specs a dashboard keeps on screen: the study batch plus catalog
// entries up to kServedSpecs. Category shares of "country", which is never
// missing, carry the epoch's row count.
std::vector<serve::QuerySpec> served_specs() {
  std::vector<serve::QuerySpec> specs = study_batch();
  for (const auto& s : spec_catalog(kServedSpecs * 4)) {
    if (specs.size() >= kServedSpecs) break;
    if (std::find(specs.begin(), specs.end(), s) == specs.end())
      specs.push_back(s);
  }
  serve::QuerySpec rows;
  rows.kind = serve::QueryKind::kCategoryShares;
  rows.a = "country";
  if (std::find(specs.begin(), specs.end(), rows) == specs.end())
    specs.back() = rows;
  return specs;
}

std::size_t row_spec_index(const std::vector<serve::QuerySpec>& specs) {
  for (std::size_t i = 0; i < specs.size(); ++i)
    if (specs[i].kind == serve::QueryKind::kCategoryShares &&
        specs[i].a == "country")
      return i;
  throw std::runtime_error("no row-count spec");
}

// The lineage's work, replayed by the benchmark in traced runs: the same
// public calls append_delta makes, each under the benchmark's own clock.
class Shadow {
 public:
  Shadow(const data::Table& base, const std::vector<serve::QuerySpec>& specs)
      : head_(base), engine_(base), specs_(specs) {
    for (const auto& s : specs) ids_.push_back(add(s));
    engine_.append_block(base, nullptr);
  }

  struct Times {
    double copy_ms = 0, incr_ms = 0, encode_ms = 0;
  };

  Times apply(const data::Table& block) {
    Times t;
    const auto t0 = Clock::now();
    data::Table merged = head_;
    merged.append_rows(block);
    head_ = std::move(merged);
    const auto t1 = Clock::now();
    engine_.append_block(block, nullptr);
    const auto t2 = Clock::now();
    bodies_.clear();
    for (std::size_t i = 0; i < specs_.size(); ++i)
      bodies_.push_back(
          serve::encode_result_body(engine_.result(ids_[i]), specs_[i]));
    const auto t3 = Clock::now();
    t.copy_ms = ms_between(t0, t1);
    t.incr_ms = ms_between(t1, t2);
    t.encode_ms = ms_between(t2, t3);
    return t;
  }

  const std::vector<std::uint8_t>& body(std::size_t i) const {
    return bodies_[i];
  }

 private:
  rcr::query::QueryId add(const serve::QuerySpec& s) {
    const std::optional<std::string> w =
        s.weight.empty() ? std::nullopt : std::optional<std::string>(s.weight);
    switch (s.kind) {
      case serve::QueryKind::kCrosstab:
        return engine_.add_crosstab(s.a, s.b, w);
      case serve::QueryKind::kCrosstabMultiselect:
        return engine_.add_crosstab_multiselect(s.a, s.b, w);
      case serve::QueryKind::kCategoryShares:
        return engine_.add_category_shares(s.a, s.confidence);
      case serve::QueryKind::kOptionShares:
        return engine_.add_option_shares(s.a, s.confidence);
      case serve::QueryKind::kNumericSummary:
        return engine_.add_numeric_summary(s.a);
      case serve::QueryKind::kGroupAnswered:
        return engine_.add_group_answered(s.a, s.b);
    }
    throw std::runtime_error("unknown kind");
  }

  data::Table head_;
  rcr::incr::IncrementalEngine engine_;
  const std::vector<serve::QuerySpec>& specs_;
  std::vector<rcr::query::QueryId> ids_;
  std::vector<std::vector<std::uint8_t>> bodies_;
};

}  // namespace

Outcome run_serve_delta(const RunArgs& args) {
  Outcome out;
  out.tail_quantile = 0.95;
  out.window_s = 5.0;
  out.pool_threads = 0;
  out.transport_threads = 1;
  out.load_threads = 2;  // the writer and the reader

  const std::vector<serve::QuerySpec> specs = served_specs();
  const std::size_t rows_spec = row_spec_index(specs);

  // No engine pool: the lineage's scans run serially on the writer, as in
  // serve_read. With a 1-thread pool and two busy neighbour processes the
  // delta rate spread 12.5% over four runs, serially 4.8% (README).
  serve::ServerConfig config;
  config.max_admitted = config.min_admitted = 1024;
  config.slo_p99_ms = 1e9;
  serve::Server server(config);

  const data::Table base = data::read_snapshot(args.dir + "/serve_base.snap");
  std::vector<data::Table> blocks;
  {
    const data::Table all = data::read_snapshot(args.dir + "/serve_blocks.snap");
    for (std::size_t b = 0; b < kBlocks; ++b)
      blocks.push_back(all.slice(b * kBlockRows, (b + 1) * kBlockRows));
  }
  // expected[d]: tallies of the base plus blocks 0..d-1.
  std::vector<Tally> expected;
  expected.push_back(Tally::load(read_doubles(args.dir + "/serve_base.tally")));
  {
    const auto flat = read_doubles(args.dir + "/serve_blocks.tally");
    const std::size_t per = flat.size() / kBlocks;
    for (std::size_t b = 0; b < kBlocks; ++b) {
      Tally t = expected.back();
      t.merge(Tally::load(std::vector<double>(
          flat.begin() + static_cast<std::ptrdiff_t>(b * per),
          flat.begin() + static_cast<std::ptrdiff_t>((b + 1) * per))));
      expected.push_back(std::move(t));
    }
  }

  // Epoch bookkeeping. The reader announces the epoch it is about to use
  // (hazard slot) and re-checks the head; the writer retires an old epoch
  // only when it is not announced, so no read can address a retired epoch.
  std::atomic<std::uint64_t> head{0};
  std::atomic<std::uint64_t> in_use{0};
  std::vector<std::uint64_t> live;
  std::uint64_t next_epoch = 1;
  auto retire_old = [&] {
    std::vector<std::uint64_t> keep;
    for (std::uint64_t e : live) {
      if (e == head.load() || e == in_use.load()) {
        keep.push_back(e);
        continue;
      }
      server.retire_snapshot(e);
    }
    live = std::move(keep);
  };
  auto start_round = [&] {
    const std::uint64_t e = next_epoch++;
    server.register_snapshot(e, base);  // shares the mapped pages
    for (const auto& s : specs)
      if (server.handle({e, s}).type != serve::MsgType::kResult)
        throw std::runtime_error("warm-up request failed");
    live.push_back(e);
    head.store(e);
  };

  start_round();
  serve::TcpServer tcp(server, 0, 1);
  tcp.start();
  TcpClient conn;
  if (!conn.connect(tcp.port(), 5000))
    throw std::runtime_error("cannot connect to the TCP server");
  mark_setup_done();

  const std::uint64_t refreshed0 =
      rcr::obs::registry().counter("serve.delta.refreshed").total();
  std::atomic<bool> stop{false};
  oracle::Ledger reads;
  std::vector<double> read_us;
  auto read_loop = [&] {
    serve::Response resp;
    auto next = Clock::now();
    for (std::size_t i = 0; !stop.load(); ++i) {
      next += kReadInterval;
      std::this_thread::sleep_until(next);
      std::uint64_t e = head.load();
      for (;;) {
        in_use.store(e);
        const std::uint64_t again = head.load();
        if (again == e) break;
        e = again;
      }
      const serve::QuerySpec& spec = specs[i % specs.size()];
      const auto t0 = Clock::now();
      const bool ok = conn.roundtrip(request_frame(e, spec), resp);
      read_us.push_back(ms_between(t0, Clock::now()) * 1e3);
      in_use.store(0);
      if (!ok) {
        reads.record("read timed out or the connection failed");
        return;
      }
      reads.record(resp.type == serve::MsgType::kError
                       ? "read error: " + serve::decode_error_body(resp.body)
                   : resp.type != serve::MsgType::kResult ? "read shed"
                   : resp.fingerprint != serve::fingerprint(e, spec)
                       ? "read answered for another epoch"
                       : "");
    }
  };
  std::thread reader([&] {
    try {
      read_loop();
    } catch (const std::exception& e) {
      in_use.store(0);
      reads.record(std::string("reader: ") + e.what());
    }
  });

  std::unique_ptr<Shadow> shadow;
  std::vector<double> copy_ms, incr_ms, encode_us, rest_ms;
  const auto start = Clock::now();
  std::size_t check = 0;
  try {
    // Whole rounds, so every run has the same mix of base sizes.
    while (seconds_between(start, Clock::now()) < args.seconds) {
      if (args.trace) shadow = std::make_unique<Shadow>(base, specs);
      for (std::size_t d = 0; d < kBlocks; ++d) {
        const std::uint64_t from = head.load();
        const std::uint64_t to = next_epoch++;
        const auto t0 = Clock::now();
        std::string why;
        try {
          server.append_delta(from, to, blocks[d]);
        } catch (const std::exception& e) {
          why = e.what();
        }
        const auto t1 = Clock::now();
        const double op = ms_between(t0, t1);
        out.op_ms.push_back(op);
        out.op_end_s.push_back(seconds_between(start, t1));
        live.push_back(to);
        head.store(to);
        retire_old();

        const Tally& want = expected[d + 1];
        for (std::size_t j = 0; j < kChecksPerDelta && why.empty(); ++j) {
          const std::size_t k = j == 0 ? rows_spec : check++ % specs.size();
          const auto resp = server.handle({to, specs[k]});
          why = oracle::check_response(want.expect(specs[k]),
                                       serve::fingerprint(to, specs[k]),
                                       resp.fingerprint, resp.body);
        }
        if (why.empty() &&
            want.rows() != static_cast<double>(kBaseRows + (d + 1) * kBlockRows))
          why = "tallied row count differs from base plus blocks";
        if (shadow) {
          const Shadow::Times t = shadow->apply(blocks[d]);
          copy_ms.push_back(t.copy_ms);
          incr_ms.push_back(t.incr_ms);
          encode_us.push_back(t.encode_ms * 1e3 / static_cast<double>(specs.size()));
          rest_ms.push_back(op - t.copy_ms - t.incr_ms - t.encode_ms);
          const std::size_t k = check % specs.size();
          if (why.empty() && server.handle({to, specs[k]}).body != shadow->body(k))
            why = "served body differs from the replayed refresh";
        }
        out.ledger.record(why);
      }
      // Round over: drop the lineage and start again from the base.
      shadow.reset();
      start_round();
      retire_old();
    }
  } catch (...) {
    stop.store(true);
    reader.join();
    throw;
  }
  out.timed_s = seconds_between(start, Clock::now());
  out.peak_rss_mib = peak_rss_mib();
  stop.store(true);
  reader.join();
  tcp.stop();
  out.ledger.merge(reads);
  if (!args.trace) return out;

  const double deltas = static_cast<double>(out.op_ms.size());
  out.layers["incr.append_block_ms"] = quantile(incr_ms, 0.5);
  out.layers["data.table.copy_append_ms"] = quantile(copy_ms, 0.5);
  out.layers["serve.protocol.encode_us"] = quantile(encode_us, 0.5);
  out.layers["serve.refresh.bodies"] =
      static_cast<double>(
          rcr::obs::registry().counter("serve.delta.refreshed").total() -
          refreshed0) /
      deltas;
  out.layers["serve.read_under_write_p99_us"] = quantile(read_us, 0.99);
  out.layers["unattributed_ms"] = quantile(rest_ms, 0.5);
  return out;
}

}  // namespace perfbench
