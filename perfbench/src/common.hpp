// Shared plumbing for the workloads: clocks, order statistics, what a run
// hands back to main(), and a small blocking TCP client.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return seconds_between(a, b) * 1e3;
}

// Options every workload receives.
struct RunArgs {
  std::string dir;  // inputs written by the generating process
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// What a workload hands back to main().
struct Outcome {
  oracle::Ledger ledger;
  // End-to-end inputs: per-operation latencies (ms), when each operation
  // completed (s into the timed phase, same order) and the timed wall.
  std::vector<double> op_ms;
  std::vector<double> op_end_s;
  double timed_s = 0.0;
  double tail_quantile = 0.99;
  // Length of the windows the end-to-end figures are taken over.
  double window_s = 1.0;
  // Peak resident memory at the end of the timed phase, before the run's
  // samples are merged and summarised.
  double peak_rss_mib = 0.0;
  // Per-layer values by name (traced runs); names missing here are
  // layers the workload does not exercise and report 0.
  std::map<std::string, double> layers;
  // Environment stamp extras.
  std::size_t pool_threads = 0;
  std::size_t transport_threads = 0;
  std::size_t load_threads = 0;
};

// Marks the end of the program's set-up; setup_s is measured from static
// initialisation, just before main(), to the first call.
void mark_setup_done();
double setup_seconds();

// Linear-interpolated quantile (q in [0, 1]) of `v`; 0 for an empty set.
double quantile(std::vector<double> v, double q);

// A run's end-to-end figures. The timed phase is cut into whole windows of
// `window_s` seconds; each figure is the median over the windows of that
// window's own figure, so a slow stretch of the host that covers fewer
// than half the windows does not move it. A window's rate is its
// completions less one over the time from its first to its last.
struct EndToEnd {
  double ops_per_s = 0.0;
  double p50_ms = 0.0;
  double tail_ms = 0.0;
  std::size_t windows = 0;
};
EndToEnd end_to_end(const Outcome& o);

// Peak resident set of this process, MiB.
double peak_rss_mib();

// Distinct 64-bit stream for (seed, stream) pairs.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream);

// Blocking TCP client on 127.0.0.1 with a receive timeout. Every call
// returns false on an error, a closed peer or a timeout.
class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  bool connect(std::uint16_t port, int timeout_ms);
  // Sends one framed request payload and reads back one response.
  bool roundtrip(const std::vector<std::uint8_t>& frame,
                 rcr::serve::Response& out);

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> buf_;
};

// Length-prefixed request frame for (epoch, spec).
std::vector<std::uint8_t> request_frame(std::uint64_t epoch,
                                        const rcr::serve::QuerySpec& spec);

}  // namespace perfbench
