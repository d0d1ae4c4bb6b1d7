#include "oracle.hpp"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <stdexcept>

namespace perfbench::oracle {
namespace {

// Little-endian reader over a body; throws on truncation.
class Cursor {
 public:
  explicit Cursor(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  double f64() {
    const std::uint64_t bits = le(8);
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
  }
  std::string str() {
    const std::uint32_t n = u32();
    const std::uint8_t* p = take(n);
    return std::string(reinterpret_cast<const char*>(p), n);
  }
  bool exhausted() const { return pos_ == bytes_.size(); }

 private:
  const std::uint8_t* take(std::size_t n) {
    if (bytes_.size() - pos_ < n) throw std::runtime_error("body truncated");
    const std::uint8_t* p = bytes_.data() + pos_;
    pos_ += n;
    return p;
  }
  std::uint64_t le(std::size_t n) {
    const std::uint8_t* p = take(n);
    std::uint64_t v = 0;
    for (std::size_t i = n; i-- > 0;) v = (v << 8) | p[i];
    return v;
  }

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// Exact comparison that treats two NaNs as equal (an empty summary's
// min/max).
bool same(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

std::string check_labels(const char* what, const std::vector<std::string>& want,
                         Cursor& c, std::size_t n) {
  if (n != want.size())
    return std::string(what) + " count " + std::to_string(n) + " != " +
           std::to_string(want.size());
  for (std::size_t i = 0; i < n; ++i) {
    const std::string got = c.str();
    if (got != want[i])
      return std::string(what) + " label '" + got + "' != '" + want[i] + "'";
  }
  return "";
}

std::string check_crosstab(const Expected& e, Cursor& c) {
  const std::uint32_t rows = c.u32();
  const std::uint32_t cols = c.u32();
  if (auto r = check_labels("row", e.row_labels, c, rows); !r.empty()) return r;
  if (auto r = check_labels("column", e.col_labels, c, cols); !r.empty())
    return r;
  for (std::size_t i = 0; i < e.values.size(); ++i) {
    const double got = c.f64();
    if (!same(got, e.values[i]))
      return "cell " + std::to_string(i) + " = " + num(got) + ", expected " +
             num(e.values[i]);
  }
  return "";
}

std::string check_shares(const Expected& e, Cursor& c) {
  const std::uint32_t n = c.u32();
  if (n != e.row_labels.size())
    return "share count " + std::to_string(n) + " != " +
           std::to_string(e.row_labels.size());
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::string label = c.str();
    const double count = c.f64();
    const double total = c.f64();
    const double est = c.f64();
    const double lo = c.f64();
    const double hi = c.f64();
    if (label != e.row_labels[i])
      return "share label '" + label + "' != '" + e.row_labels[i] + "'";
    if (count != e.values[i])
      return "'" + label + "' count " + num(count) + ", expected " +
             num(e.values[i]);
    if (total != e.total)
      return "'" + label + "' total " + num(total) + ", expected " +
             num(e.total);
    if (!(lo >= 0.0 && lo <= est && est <= hi && hi <= 1.0))
      return "'" + label + "' share " + num(est) + " outside [" + num(lo) +
             ", " + num(hi) + "] or [0, 1]";
    if (std::fabs(est - count / total) > 1e-12)
      return "'" + label + "' share " + num(est) + " != count/total";
    sum += count;
  }
  if (e.kind == Kind::kCategoryShares && sum != e.total)
    return "category counts sum to " + num(sum) + ", answered rows " +
           num(e.total);
  return "";
}

std::string check_values(const Expected& e, Cursor& c, std::size_t n) {
  if (n != e.values.size())
    return "value count " + std::to_string(n) + " != " +
           std::to_string(e.values.size());
  for (std::size_t i = 0; i < n; ++i) {
    const double got = c.f64();
    if (!same(got, e.values[i]))
      return "value " + std::to_string(i) + " = " + num(got) + ", expected " +
             num(e.values[i]);
  }
  return "";
}

}  // namespace

std::string check_body(const Expected& expected,
                       std::span<const std::uint8_t> body) {
  try {
    Cursor c(body);
    const std::uint8_t kind = c.u8();
    if (kind != static_cast<std::uint8_t>(expected.kind))
      return "kind " + std::to_string(kind) + ", expected " +
             std::to_string(static_cast<int>(expected.kind));
    std::string why;
    switch (expected.kind) {
      case Kind::kCrosstab:
      case Kind::kCrosstabMultiselect:
        why = check_crosstab(expected, c);
        break;
      case Kind::kCategoryShares:
      case Kind::kOptionShares:
        why = check_shares(expected, c);
        break;
      case Kind::kNumericSummary:
        why = check_values(expected, c, 4);
        break;
      case Kind::kGroupAnswered:
        why = check_values(expected, c, c.u32());
        break;
    }
    if (why.empty() && !c.exhausted()) why = "trailing bytes after body";
    return why;
  } catch (const std::exception& e) {
    return e.what();
  }
}

std::string check_response(const Expected& expected,
                           std::uint64_t expected_fingerprint,
                           std::uint64_t fingerprint,
                           std::span<const std::uint8_t> body) {
  if (fingerprint != expected_fingerprint)
    return "fingerprint " + std::to_string(fingerprint) + ", expected " +
           std::to_string(expected_fingerprint);
  return check_body(expected, body);
}

void Ledger::record(const std::string& reason) {
  ++attempted;
  if (reason.empty()) return;
  ++failed;
  if (first_failure.empty()) first_failure = reason;
}

void Ledger::merge(const Ledger& other) {
  attempted += other.attempted;
  failed += other.failed;
  if (first_failure.empty()) first_failure = other.first_failure;
}

}  // namespace perfbench::oracle
