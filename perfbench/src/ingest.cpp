// ingest: the "new wave arrives" path. Each operation takes one of a few
// pre-generated wave CSV files through parse -> snapshot write -> verified
// snapshot read -> one fused study batch -> result encoding, and checks
// every answer against the tallies the generator kept while it wrote the
// CSV text.
#include <sys/stat.h>

#include <cstring>
#include <stdexcept>

#include "data/csv.hpp"
#include "data/snapshot.hpp"
#include "obs/metrics.hpp"
#include "parallel/thread_pool.hpp"
#include "query/engine.hpp"
#include "serve/protocol.hpp"
#include "survey.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace data = rcr::data;
namespace serve = rcr::serve;

constexpr int kFiles = 4;
// Rows per wave file: ~5 MiB of CSV, above the 4 MiB serial-fallback
// threshold, so the sharded parser runs.
constexpr std::size_t kRowsPerFile = 64000;
// The parser walks its shard partition serially (no pool); the engine
// batch runs on a 1-thread pool plus the caller. A pooled parse waits on
// every shard, so one preempted thread stalls the operation: with a
// 2-thread pool and two busy neighbour processes the p50 spread 20% and
// the p95 16% over four runs, against 3% and 6% for the serial parse
// (README).
constexpr std::size_t kPoolThreads = 1;

std::string csv_path(const std::string& dir, int k) {
  return dir + "/ingest_" + std::to_string(k) + ".csv";
}
std::string tally_path(const std::string& dir, int k) {
  return dir + "/ingest_" + std::to_string(k) + ".tally";
}

std::size_t file_bytes(const std::string& path) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0)
    throw std::runtime_error("cannot stat " + path);
  return static_cast<std::size_t>(st.st_size);
}

template <typename T>
bool same_bytes(const data::PageVec<T>& a, const data::PageVec<T>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

// "" when `b` is bitwise the table `a` (values, codes, masks, flags,
// dictionaries and frozen state).
std::string compare_tables(const data::Table& a, const data::Table& b) {
  if (a.column_names() != b.column_names()) return "column order differs";
  for (const auto& name : a.column_names()) {
    switch (a.kind(name)) {
      case data::ColumnKind::kNumeric:
        if (!same_bytes(a.numeric(name).values(), b.numeric(name).values()))
          return "numeric column '" + name + "' differs";
        break;
      case data::ColumnKind::kCategorical: {
        const auto& x = a.categorical(name);
        const auto& y = b.categorical(name);
        if (!same_bytes(x.codes(), y.codes()) ||
            x.categories() != y.categories() || x.frozen() != y.frozen())
          return "categorical column '" + name + "' differs";
        break;
      }
      case data::ColumnKind::kMultiSelect: {
        const auto& x = a.multiselect(name);
        const auto& y = b.multiselect(name);
        if (!same_bytes(x.masks(), y.masks()) ||
            !same_bytes(x.missing_flags(), y.missing_flags()) ||
            x.options() != y.options())
          return "multi-select column '" + name + "' differs";
        break;
      }
    }
  }
  return "";
}

bool same_double(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// "" when the decoded body carries the engine's values bit for bit.
std::string decodes_to(const serve::ResultView& v,
                       const rcr::query::QueryResult& r) {
  const auto& ct = r.crosstab;
  switch (v.kind) {
    case serve::QueryKind::kCrosstab:
    case serve::QueryKind::kCrosstabMultiselect:
      if (v.crosstab.row_labels != ct.row_labels ||
          v.crosstab.col_labels != ct.col_labels)
        return "decoded crosstab labels differ";
      for (std::size_t i = 0; i < ct.counts.rows(); ++i)
        for (std::size_t j = 0; j < ct.counts.cols(); ++j)
          if (!same_double(v.crosstab.counts.at(i, j), ct.counts.at(i, j)))
            return "decoded crosstab cell differs";
      return "";
    case serve::QueryKind::kCategoryShares:
    case serve::QueryKind::kOptionShares:
      if (v.shares.size() != r.shares.size()) return "decoded share count";
      for (std::size_t i = 0; i < r.shares.size(); ++i) {
        const auto& x = v.shares[i];
        const auto& y = r.shares[i];
        if (x.label != y.label || !same_double(x.count, y.count) ||
            !same_double(x.total, y.total) ||
            !same_double(x.share.estimate, y.share.estimate) ||
            !same_double(x.share.lo, y.share.lo) ||
            !same_double(x.share.hi, y.share.hi))
          return "decoded share differs";
      }
      return "";
    case serve::QueryKind::kNumericSummary:
      if (!same_double(v.numeric.count, r.numeric.count) ||
          !same_double(v.numeric.sum, r.numeric.sum) ||
          !same_double(v.numeric.min, r.numeric.min) ||
          !same_double(v.numeric.max, r.numeric.max))
        return "decoded numeric summary differs";
      return "";
    case serve::QueryKind::kGroupAnswered:
      if (v.group_counts.size() != r.group_counts.size())
        return "decoded group count";
      for (std::size_t i = 0; i < r.group_counts.size(); ++i)
        if (!same_double(v.group_counts[i], r.group_counts[i]))
          return "decoded group count differs";
      return "";
  }
  return "unknown kind";
}

// Stage timestamps of one operation.
struct Stages {
  double parse_ms = 0, write_ms = 0, read_ms = 0, run_ms = 0, encode_ms = 0;
  double total_ms = 0;
};

struct Wave {
  std::string path;
  std::size_t bytes = 0;
  Tally tally;
};

// One operation; returns the failure reason ("" when every check holds).
std::string ingest_once(const Wave& wave, const data::Table& schema,
                        const std::string& snap_path,
                        const std::vector<serve::QuerySpec>& batch,
                        rcr::parallel::ThreadPool& pool, Stages& st) {
  const auto t0 = Clock::now();
  data::Table parsed = data::read_csv_parallel_file(wave.path, schema, nullptr);
  const auto t1 = Clock::now();
  data::write_snapshot(parsed, snap_path);
  const auto t2 = Clock::now();
  data::Table table = data::read_snapshot(snap_path);
  const auto t3 = Clock::now();
  rcr::query::QueryEngine engine(table);
  std::vector<rcr::query::QueryId> ids;
  for (const auto& spec : batch) ids.push_back(serve::register_spec(engine, spec));
  engine.run(&pool);
  const auto t4 = Clock::now();
  std::vector<std::vector<std::uint8_t>> bodies;
  bodies.reserve(batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i)
    bodies.push_back(serve::encode_result_body(engine, ids[i], batch[i]));
  const auto t5 = Clock::now();
  st.parse_ms = ms_between(t0, t1);
  st.write_ms = ms_between(t1, t2);
  st.read_ms = ms_between(t2, t3);
  st.run_ms = ms_between(t3, t4);
  st.encode_ms = ms_between(t4, t5);
  st.total_ms = ms_between(t0, t5);

  // Checks, outside the operation's latency.
  if (static_cast<double>(parsed.row_count()) != wave.tally.rows())
    return "parsed " + std::to_string(parsed.row_count()) + " rows";
  if (auto why = compare_tables(parsed, table); !why.empty())
    return "snapshot round trip: " + why;
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (auto why = oracle::check_body(wave.tally.expect(batch[i]), bodies[i]);
        !why.empty())
      return "query " + std::to_string(i) + ": " + why;
    if (auto why = decodes_to(serve::decode_result_body(bodies[i]),
                              engine.raw_result(ids[i]));
        !why.empty())
      return "query " + std::to_string(i) + ": " + why;
  }
  return "";
}

std::uint64_t pool_tasks(bool caller) {
  auto& reg = rcr::obs::registry();
  if (caller)
    return reg.counter("threadpool.tasks.caller").total() +
           reg.counter("threadpool.tasks.caller_foreign").total();
  return reg.counter("threadpool.tasks.worker").total();
}

}  // namespace

void gen_ingest(const std::string& dir, std::uint64_t seed) {
  for (int k = 0; k < kFiles; ++k) {
    Rng rng(mix_seed(seed, 10 + static_cast<std::uint64_t>(k)));
    Tally tally;
    const std::string text = make_csv(rng, kRowsPerFile, tally);
    if (text.size() <= data::kParallelSerialFallbackBytes)
      throw std::runtime_error("wave CSV below the serial-fallback size");
    std::FILE* f = std::fopen(csv_path(dir, k).c_str(), "wb");
    if (!f || std::fwrite(text.data(), 1, text.size(), f) != text.size())
      throw std::runtime_error("cannot write " + csv_path(dir, k));
    std::fclose(f);
    write_doubles(tally_path(dir, k), tally.save());
  }
}

Outcome run_ingest(const RunArgs& args) {
  Outcome out;
  out.tail_quantile = 0.95;
  out.window_s = 5.0;
  out.pool_threads = kPoolThreads;
  out.load_threads = 1;

  rcr::parallel::ThreadPool pool(kPoolThreads);
  const data::Table schema = wave_schema();
  const auto batch = study_batch();
  const std::string snap_path = args.dir + "/ingest.snap";
  std::vector<Wave> waves(kFiles);
  for (int k = 0; k < kFiles; ++k) {
    waves[k].path = csv_path(args.dir, k);
    waves[k].bytes = file_bytes(waves[k].path);
    waves[k].tally = Tally::load(read_doubles(tally_path(args.dir, k)));
  }
  // Cold pass over every file: page cache, allocator, pool and dispatch
  // warm-up are set-up, not operations.
  for (const Wave& w : waves) {
    Stages st;
    if (auto why = ingest_once(w, schema, snap_path, batch, pool, st);
        !why.empty())
      throw std::runtime_error("warm-up: " + why);
  }
  mark_setup_done();

  std::vector<Stages> stages;
  const std::uint64_t caller0 = pool_tasks(true), worker0 = pool_tasks(false);
  const auto start = Clock::now();
  // Whole rounds over the files, so every run does the same mix.
  while (seconds_between(start, Clock::now()) < args.seconds) {
    for (const Wave& w : waves) {
      Stages st;
      std::string why;
      try {
        why = ingest_once(w, schema, snap_path, batch, pool, st);
      } catch (const std::exception& e) {
        why = e.what();
      }
      out.ledger.record(why);
      out.op_ms.push_back(st.total_ms);
      out.op_end_s.push_back(seconds_between(start, Clock::now()));
      if (args.trace) stages.push_back(st);
    }
  }
  out.timed_s = seconds_between(start, Clock::now());
  out.peak_rss_mib = peak_rss_mib();
  if (!args.trace) return out;

  auto med = [&](double Stages::*field) {
    std::vector<double> v;
    for (const auto& s : stages) v.push_back(s.*field);
    return quantile(v, 0.5);
  };
  std::vector<double> mibps, rowsps, rest;
  for (std::size_t i = 0; i < stages.size(); ++i) {
    const Stages& s = stages[i];
    const Wave& w = waves[i % kFiles];
    mibps.push_back(static_cast<double>(w.bytes) / (1 << 20) /
                    (s.parse_ms / 1e3));
    rowsps.push_back(w.tally.rows() / (s.run_ms / 1e3));
    rest.push_back(s.total_ms - s.parse_ms - s.write_ms - s.read_ms -
                   s.run_ms - s.encode_ms);
  }
  const double caller = static_cast<double>(pool_tasks(true) - caller0);
  const double worker = static_cast<double>(pool_tasks(false) - worker0);
  out.layers["data.csv.parse_ms"] = med(&Stages::parse_ms);
  out.layers["data.csv.mib_per_s"] = quantile(mibps, 0.5);
  out.layers["data.snapshot.write_ms"] = med(&Stages::write_ms);
  out.layers["data.snapshot.read_ms"] = med(&Stages::read_ms);
  out.layers["data.snapshot.bytes_per_row"] =
      static_cast<double>(file_bytes(snap_path)) / waves.back().tally.rows();
  out.layers["query.run_ms"] = med(&Stages::run_ms);
  out.layers["query.rows_per_s"] = quantile(rowsps, 0.5);
  out.layers["serve.protocol.encode_us"] =
      med(&Stages::encode_ms) * 1e3 / static_cast<double>(batch.size());
  out.layers["parallel.pool.caller_share"] =
      caller + worker > 0 ? caller / (caller + worker) : 0.0;
  out.layers["unattributed_ms"] = quantile(rest, 0.5);
  return out;
}

}  // namespace perfbench
