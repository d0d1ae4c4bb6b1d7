// perfbench — the repository's end-to-end benchmark.
//
//   perfbench gen --workload W --seed N --dir D
//       writes workload W's inputs for seed N into D;
//   perfbench run --workload W --seed N --seconds S --trace 0|1 --dir D
//                 [--rev R]
//       measures W on those inputs and prints an environment line, then
//       one JSON result line: {"correct", "attempted", "failed", "metrics"}.
//       --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
//       ones. perfbench/run.py builds this binary and runs both steps.
#include <malloc.h>

#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "simd/dispatch.hpp"
#include "workloads.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Outcome;

struct MetricDef {
  const char* name;
  const char* unit;
};

// Every per-layer metric, printed by every traced run; a layer the
// workload does not exercise reads 0.
const MetricDef kLayers[] = {
    {"data.csv.parse_ms", "ms"},
    {"data.csv.mib_per_s", "MiB/s"},
    {"data.snapshot.write_ms", "ms"},
    {"data.snapshot.read_ms", "ms"},
    {"data.snapshot.bytes_per_row", "B/row"},
    {"query.run_ms", "ms"},
    {"query.rows_per_s", "rows/s"},
    {"serve.protocol.encode_us", "us"},
    {"serve.handle_hit_us", "us"},
    {"serve.handle_miss_us", "us"},
    {"serve.transport_us", "us"},
    {"serve.cache.hit_ratio", "ratio"},
    {"serve.batch.fold", "queries/batch"},
    {"serve.coalesced_per_1k", "count/1k"},
    {"incr.append_block_ms", "ms"},
    {"data.table.copy_append_ms", "ms"},
    {"serve.refresh.bodies", "count"},
    {"serve.read_under_write_p99_us", "us"},
    {"parallel.pool.caller_share", "ratio"},
    {"unattributed_ms", "ms"},
    {"traced.op_p50_ms", "ms"},
};

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_result(const Outcome& o, bool trace) {
  std::vector<std::pair<const char*, std::pair<double, const char*>>> metrics;
  if (!trace) {
    const perfbench::EndToEnd e = perfbench::end_to_end(o);
    metrics = {
        {"setup_s", {perfbench::setup_seconds(), "s"}},
        {"ops_per_s", {e.ops_per_s, "op/s"}},
        {"op_p50_ms", {e.p50_ms, "ms"}},
        {"op_tail_ms", {e.tail_ms, "ms"}},
        {"peak_rss_mib", {o.peak_rss_mib, "MiB"}},
    };
  } else {
    for (const MetricDef& m : kLayers) {
      const auto it = o.layers.find(m.name);
      double v = it == o.layers.end() ? 0.0 : it->second;
      if (std::strcmp(m.name, "traced.op_p50_ms") == 0)
        v = perfbench::end_to_end(o).p50_ms;
      metrics.push_back({m.name, {v, m.unit}});
    }
  }
  std::ostringstream out;
  const bool correct = o.ledger.failed == 0 && o.ledger.attempted > 0;
  out << "{\"correct\": " << (correct ? "true" : "false")
      << ", \"attempted\": " << o.ledger.attempted
      << ", \"failed\": " << o.ledger.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) out << ", ";
    out << '"' << metrics[i].first << "\": {\"value\": "
        << num(metrics[i].second.first) << ", \"unit\": \""
        << metrics[i].second.second << "\"}";
  }
  out << "}}";
  std::cout << out.str() << std::endl;
}

void print_env(const Outcome& o, const std::string& workload,
               std::uint64_t seed, double seconds, bool trace,
               const std::string& rev) {
  std::cout << "{\"env\": {\"workload\": \"" << workload << "\", \"seed\": "
            << seed << ", \"seconds\": " << num(seconds)
            << ", \"trace\": " << (trace ? 1 : 0)
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"pool_threads\": " << o.pool_threads
            << ", \"transport_threads\": " << o.transport_threads
            << ", \"load_threads\": " << o.load_threads
            << ", \"compiler\": \"" << json_escape(compiler())
            << "\", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"simd\": \"" << json_escape(rcr::simd::describe())
            << "\", \"rev\": \"" << json_escape(rev)
            << "\", \"tail_quantile\": " << num(o.tail_quantile)
            << ", \"window_s\": " << num(o.window_s)
            << ", \"windows\": " << perfbench::end_to_end(o).windows
            << ", \"samples\": " << o.op_ms.size()
            << ", \"timed_s\": " << num(o.timed_s);
  if (o.ledger.failed > 0)
    std::cout << ", \"first_failure\": \""
              << json_escape(o.ledger.first_failure) << '"';
  std::cout << "}}" << std::endl;
}

int usage() {
  std::cerr << "usage: perfbench gen --workload W --seed N --dir D\n"
               "       perfbench run --workload W --seed N --seconds S "
               "--trace 0|1 --dir D [--rev R]\n"
               "workloads: ingest serve_read serve_delta\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed blocks up to 32 MiB in the heap for reuse instead of
  // unmapping them. This host prices page faults on fresh memory per
  // process (a 60 MiB malloc+memcpy+free loop: 41 ms median in one process,
  // 49 ms in the next), which moved serve_delta's p50 by ~30% between runs;
  // the copies themselves are still measured in full.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload, dir, rev = "unknown";
  perfbench::RunArgs args;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") workload = val;
    else if (key == "--seed") args.seed = std::strtoull(val.c_str(), nullptr, 10);
    else if (key == "--seconds") args.seconds = std::strtod(val.c_str(), nullptr);
    else if (key == "--trace") args.trace = val == "1";
    else if (key == "--dir") dir = val;
    else if (key == "--rev") rev = val;
    else return usage();
  }
  if (dir.empty() || !(args.seconds > 0)) return usage();
  args.dir = dir;
  try {
    if (mode == "gen") {
      if (workload == "ingest") perfbench::gen_ingest(dir, args.seed);
      else if (workload == "serve_read") perfbench::gen_serve(dir, args.seed, false);
      else if (workload == "serve_delta") perfbench::gen_serve(dir, args.seed, true);
      else return usage();
      return 0;
    }
    if (mode != "run") return usage();
    Outcome o;
    if (workload == "ingest") o = perfbench::run_ingest(args);
    else if (workload == "serve_read") o = perfbench::run_serve_read(args);
    else if (workload == "serve_delta") o = perfbench::run_serve_delta(args);
    else return usage();
    print_env(o, workload, args.seed, args.seconds, args.trace, rev);
    print_result(o, args.trace);
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << workload << ": " << e.what() << "\n";
    return 1;
  }
}
