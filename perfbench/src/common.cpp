#include "common.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstring>

namespace perfbench {
namespace {

const Clock::time_point g_start = Clock::now();
double g_setup_s = -1.0;

}  // namespace

void mark_setup_done() {
  if (g_setup_s < 0.0) g_setup_s = seconds_between(g_start, Clock::now());
}

double setup_seconds() { return g_setup_s; }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

EndToEnd end_to_end(const Outcome& o) {
  // A run shorter than one window is taken whole.
  const std::size_t n = std::max<std::size_t>(
      1, static_cast<std::size_t>(o.timed_s / o.window_s));
  std::vector<std::vector<double>> lat(n);
  std::vector<double> first(n, 0.0), last(n, 0.0);
  for (std::size_t i = 0; i < o.op_ms.size(); ++i) {
    const double t = o.op_end_s[i];
    const std::size_t k = static_cast<std::size_t>(t / o.window_s);
    if (k >= n) continue;
    if (lat[k].empty() || t < first[k]) first[k] = t;
    if (lat[k].empty() || t > last[k]) last[k] = t;
    lat[k].push_back(o.op_ms[i]);
  }
  std::vector<double> rate, p50, tail;
  for (std::size_t k = 0; k < n; ++k) {
    if (lat[k].size() < 2 || last[k] <= first[k]) continue;
    rate.push_back(static_cast<double>(lat[k].size() - 1) /
                   (last[k] - first[k]));
    p50.push_back(quantile(lat[k], 0.5));
    tail.push_back(quantile(lat[k], o.tail_quantile));
  }
  EndToEnd e;
  e.ops_per_s = quantile(rate, 0.5);
  e.p50_ms = quantile(p50, 0.5);
  e.tail_ms = quantile(tail, 0.5);
  e.windows = rate.size();
  return e;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + stream * 0xD1B54A32D192ED03ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool TcpClient::connect(std::uint16_t port, int timeout_ms) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0)
    return false;
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof tv);
  return true;
}

bool TcpClient::roundtrip(const std::vector<std::uint8_t>& frame,
                          rcr::serve::Response& out) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                             MSG_NOSIGNAL);
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  // One response frame: u32 LE length, then the payload.
  buf_.clear();
  std::size_t need = 4;
  std::uint8_t chunk[4096];
  while (buf_.size() < need) {
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n <= 0) return false;
    buf_.insert(buf_.end(), chunk, chunk + n);
    if (need == 4 && buf_.size() >= 4) {
      std::uint32_t len = 0;
      std::memcpy(&len, buf_.data(), 4);
      if (len > rcr::serve::kMaxFrameBytes) return false;
      need = 4 + len;
    }
  }
  if (buf_.size() != need) return false;  // one request, one reply
  out = rcr::serve::decode_response(
      std::span<const std::uint8_t>(buf_.data() + 4, need - 4));
  return true;
}

std::vector<std::uint8_t> request_frame(std::uint64_t epoch,
                                        const rcr::serve::QuerySpec& spec) {
  rcr::serve::Request req;
  req.epoch = epoch;
  req.spec = spec;
  std::vector<std::uint8_t> frame;
  rcr::serve::append_frame(frame, rcr::serve::encode_request(req));
  return frame;
}

}  // namespace perfbench
