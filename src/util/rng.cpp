#include "util/rng.hpp"

#include <cmath>
#include <cstddef>
#include <limits>

#include "obs/metrics.hpp"
#include "util/stopwatch.hpp"

namespace rcr {

namespace {

inline std::uint64_t rotl64(std::uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

inline std::uint64_t splitmix64(std::uint64_t& state) {
  std::uint64_t z = (state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// SplitMix64 expansion of a seed into xoshiro256** state.
void expand_seed(std::uint64_t seed, std::uint64_t out[4]) {
  std::uint64_t sm = seed;
  for (int i = 0; i < 4; ++i) out[i] = splitmix64(sm);
  // All-zero state would be absorbing; splitmix64 cannot produce four zero
  // outputs from any seed, but guard anyway.
  if (out[0] == 0 && out[1] == 0 && out[2] == 0 && out[3] == 0) out[0] = 1;
}

inline double u64_to_unit_double(std::uint64_t x) {
  return static_cast<double>(x >> 11) * 0x1.0p-53;
}

// --- obs wiring --------------------------------------------------------------
// Handles are resolved once (registration takes a mutex) and kept for the
// process lifetime. Batch sizes feed a histogram; the meter reports
// draws/sec over the time actually spent filling. Under RCR_OBS_DISABLED
// all of this compiles to no-ops.

obs::Histogram& fill_size_histogram() {
  static obs::Histogram& h = obs::registry().histogram("rng.fill.batch_size");
  return h;
}

obs::Meter& fill_draws_meter() {
  static obs::Meter& m = obs::registry().meter("rng.fill.draws");
  return m;
}

obs::Meter& alias_samples_meter() {
  static obs::Meter& m = obs::registry().meter("rng.alias.samples");
  return m;
}

#ifndef RCR_OBS_DISABLED

// Sampled 1 in 16 per calling thread (the repo's obs cost discipline):
// fills can be as small as a handful of draws, and two clock reads plus a
// histogram record on every one would cost more than the fill. Rates stay
// unbiased — sampled calls contribute both their events and their wall
// time, so events/busy-second is the true throughput of the sampled
// subset; absolute counts read ~1/16 of the real draw volume.
class FillScope {
 public:
  explicit FillScope(std::size_t n, obs::Meter& meter = fill_draws_meter())
      : active_(tick()), n_(n), meter_(meter) {
    if (active_) fill_size_histogram().record(static_cast<double>(n));
  }
  FillScope(const FillScope&) = delete;
  FillScope& operator=(const FillScope&) = delete;
  ~FillScope() {
    if (active_) meter_.add(n_, watch_.elapsed_seconds());
  }

 private:
  static bool tick() {
    thread_local std::uint32_t count = 0;
    return (count++ & 0xF) == 0;
  }

  bool active_;
  std::size_t n_;
  obs::Meter& meter_;
  Stopwatch watch_;
};

#else  // RCR_OBS_DISABLED

class FillScope {
 public:
  explicit FillScope(std::size_t) {}
  FillScope(std::size_t, obs::Meter&) {}
  FillScope(const FillScope&) = delete;
  FillScope& operator=(const FillScope&) = delete;
};

#endif  // RCR_OBS_DISABLED

}  // namespace

void Rng::reseed(std::uint64_t seed) {
  expand_seed(seed, s_.data());
  has_spare_ = false;
}

// --- Rng batched draws -------------------------------------------------------
// A single xoshiro stream is a serial dependency chain, so these loops do
// not vectorize; the win over call sites' own loops is the state hoisted
// into registers for the whole batch (the span's pointer may alias the
// member array, so the member-state form reloads state every iteration)
// plus one instrumented call per batch.

void Rng::fill_u64(std::span<std::uint64_t> out) {
  FillScope scope(out.size());
  std::uint64_t a = s_[0], b = s_[1], c = s_[2], d = s_[3];
  std::uint64_t* __restrict dst = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = rotl64(b * 5, 7) * 9;
    const std::uint64_t t = b << 17;
    c ^= a;
    d ^= b;
    b ^= c;
    a ^= d;
    c ^= t;
    d = rotl64(d, 45);
  }
  s_[0] = a;
  s_[1] = b;
  s_[2] = c;
  s_[3] = d;
}

void Rng::fill_double(std::span<double> out) {
  FillScope scope(out.size());
  std::uint64_t a = s_[0], b = s_[1], c = s_[2], d = s_[3];
  double* __restrict dst = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = u64_to_unit_double(rotl64(b * 5, 7) * 9);
    const std::uint64_t t = b << 17;
    c ^= a;
    d ^= b;
    b ^= c;
    a ^= d;
    c ^= t;
    d = rotl64(d, 45);
  }
  s_[0] = a;
  s_[1] = b;
  s_[2] = c;
  s_[3] = d;
}

void Rng::fill_below(std::uint64_t bound, std::span<std::uint64_t> out) {
  RCR_CHECK_MSG(bound > 0, "fill_below needs a positive bound");
  FillScope scope(out.size());
  // Hoisted Lemire threshold: one division per batch instead of the scalar
  // path's lazy per-draw check. threshold < bound, so "l < threshold" makes
  // exactly the accept/reject decisions of next_below's lazy form and the
  // output sequence is unchanged.
  const std::uint64_t threshold = (0 - bound) % bound;
  std::uint64_t a = s_[0], b = s_[1], c = s_[2], d = s_[3];
  const auto step = [&] {
    const std::uint64_t x = rotl64(b * 5, 7) * 9;
    const std::uint64_t t = b << 17;
    c ^= a;
    d ^= b;
    b ^= c;
    a ^= d;
    c ^= t;
    d = rotl64(d, 45);
    return x;
  };
  std::uint64_t* __restrict dst = out.data();
  const std::size_t n = out.size();
  for (std::size_t i = 0; i < n; ++i) {
    __uint128_t m = static_cast<__uint128_t>(step()) * bound;
    while (static_cast<std::uint64_t>(m) < threshold) [[unlikely]]
      m = static_cast<__uint128_t>(step()) * bound;
    dst[i] = static_cast<std::uint64_t>(m >> 64);
  }
  s_[0] = a;
  s_[1] = b;
  s_[2] = c;
  s_[3] = d;
}


double Rng::normal() {
  if (has_spare_) {
    has_spare_ = false;
    return spare_normal_;
  }
  // Box–Muller, polar rejection form (no trig, numerically friendly).
  double u, v, s;
  do {
    u = uniform(-1.0, 1.0);
    v = uniform(-1.0, 1.0);
    s = u * u + v * v;
  } while (s >= 1.0 || s == 0.0);
  const double factor = std::sqrt(-2.0 * std::log(s) / s);
  spare_normal_ = v * factor;
  has_spare_ = true;
  return u * factor;
}

double Rng::lognormal(double mu, double sigma) {
  return std::exp(normal(mu, sigma));
}

double Rng::exponential(double lambda) {
  RCR_CHECK_MSG(lambda > 0.0, "exponential rate must be positive");
  // -log(1-U) avoids log(0) since next_double() < 1.
  return -std::log1p(-next_double()) / lambda;
}

double Rng::gamma(double shape, double scale) {
  RCR_CHECK_MSG(shape > 0.0 && scale > 0.0, "gamma parameters must be > 0");
  if (shape < 1.0) {
    // Boost to shape+1 then scale back (Marsaglia–Tsang boosting trick).
    const double u = next_double();
    return gamma(shape + 1.0, scale) * std::pow(u, 1.0 / shape);
  }
  const double d = shape - 1.0 / 3.0;
  const double c = 1.0 / std::sqrt(9.0 * d);
  for (;;) {
    double x;
    double v;
    do {
      x = normal();
      v = 1.0 + c * x;
    } while (v <= 0.0);
    v = v * v * v;
    const double u = next_double();
    if (u < 1.0 - 0.0331 * x * x * x * x) return d * v * scale;
    if (u > 0.0 && std::log(u) < 0.5 * x * x + d * (1.0 - v + std::log(v)))
      return d * v * scale;
  }
}

double Rng::beta(double a, double b) {
  const double x = gamma(a, 1.0);
  const double y = gamma(b, 1.0);
  return x / (x + y);
}

std::uint64_t Rng::poisson(double lambda) {
  RCR_CHECK_MSG(lambda >= 0.0, "poisson rate must be non-negative");
  if (lambda == 0.0) return 0;
  if (lambda < 30.0) {
    // Knuth inversion, numerically stabilized in log space.
    const double limit = -lambda;
    double sum = 0.0;
    std::uint64_t k = 0;
    for (;;) {
      sum += std::log1p(-next_double());  // log of uniform product term
      if (sum < limit) return k;
      ++k;
    }
  }
  // Normal approximation with continuity correction; adequate for the
  // simulator's arrival batching at large lambda.
  for (;;) {
    const double draw = normal(lambda, std::sqrt(lambda));
    if (draw > -0.5) return static_cast<std::uint64_t>(draw + 0.5);
  }
}

std::size_t Rng::categorical(std::span<const double> weights) {
  RCR_CHECK_MSG(!weights.empty(), "categorical needs at least one weight");
  double total = 0.0;
  for (double w : weights) {
    RCR_CHECK_MSG(w >= 0.0, "categorical weights must be non-negative");
    total += w;
  }
  RCR_CHECK_MSG(total > 0.0, "categorical weights must not all be zero");
  double r = next_double() * total;
  for (std::size_t i = 0; i + 1 < weights.size(); ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return weights.size() - 1;
}

std::vector<std::size_t> Rng::sample_without_replacement(std::size_t n,
                                                         std::size_t k) {
  RCR_CHECK_MSG(k <= n, "cannot sample more items than the population");
  // Partial Fisher–Yates over an index vector; O(n) space, O(n + k) time.
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  // No BufferedDraws here: the caller keeps using this Rng afterwards, and
  // prefetching would advance the state past what was actually consumed.
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t j = i + static_cast<std::size_t>(next_below(n - i));
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

Rng Rng::split() {
  // A fresh seed derived from two outputs keeps child streams decorrelated.
  const std::uint64_t a = next_u64();
  const std::uint64_t b = next_u64();
  return Rng(a ^ rotl64(b, 31));
}

// --- AliasTable --------------------------------------------------------------

AliasTable::AliasTable(std::span<const double> weights) {
  RCR_CHECK_MSG(!weights.empty(), "AliasTable needs at least one weight");
  const std::size_t n = weights.size();
  double total = 0.0;
  for (double w : weights) {
    RCR_CHECK_MSG(w >= 0.0, "AliasTable weights must be non-negative");
    total += w;
  }
  RCR_CHECK_MSG(total > 0.0, "AliasTable weights must not all be zero");

  norm_.resize(n);
  prob_.assign(n, 0.0);
  alias_.assign(n, 0);

  std::vector<double> scaled(n);
  std::vector<std::uint32_t> small, large;
  small.reserve(n);
  large.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    norm_[i] = weights[i] / total;
    scaled[i] = norm_[i] * static_cast<double>(n);
    (scaled[i] < 1.0 ? small : large).push_back(static_cast<std::uint32_t>(i));
  }
  while (!small.empty() && !large.empty()) {
    const std::uint32_t s = small.back();
    small.pop_back();
    const std::uint32_t l = large.back();
    prob_[s] = scaled[s];
    alias_[s] = l;
    scaled[l] = (scaled[l] + scaled[s]) - 1.0;
    if (scaled[l] < 1.0) {
      large.pop_back();
      small.push_back(l);
    }
  }
  for (std::uint32_t l : large) prob_[l] = 1.0;
  for (std::uint32_t s : small) prob_[s] = 1.0;  // numerical leftovers
}

std::size_t AliasTable::sample(Rng& rng) const {
  const std::size_t i = static_cast<std::size_t>(rng.next_below(prob_.size()));
  return rng.next_double() < prob_[i] ? i : alias_[i];
}

void AliasTable::sample_batch(Rng& rng, std::span<std::size_t> out) const {
  FillScope scope(out.size(), alias_samples_meter());
  const std::uint64_t n = prob_.size();
  const std::uint64_t threshold = (0 - n) % n;
  const double* const prob = prob_.data();
  const std::uint32_t* const alias = alias_.data();
  for (auto& slot : out) {
    // Inline sample(): next_below(n) with the threshold hoisted (identical
    // accept/reject decisions, so the stream matches scalar sample calls),
    // then the acceptance uniform.
    __uint128_t m = static_cast<__uint128_t>(rng.next_u64()) * n;
    while (static_cast<std::uint64_t>(m) < threshold) [[unlikely]]
      m = static_cast<__uint128_t>(rng.next_u64()) * n;
    const auto i = static_cast<std::size_t>(m >> 64);
    slot = rng.next_double() < prob[i] ? i : alias[i];
  }
}

}  // namespace rcr
