// Correctness oracles for the benchmark, built apart from the program.
//
// The oracle reads a served result body with its own parser of the wire
// layout (serve/protocol.hpp documents it) and compares every count with an
// Expected answer the benchmark tallied itself while it generated the inputs.
// It links nothing from src/, so a fault shared by the program's encoder
// and decoder cannot hide from it.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace perfbench::oracle {

// Wire values of serve::QueryKind.
enum class Kind : std::uint8_t {
  kCrosstab = 1,
  kCrosstabMultiselect = 2,
  kCategoryShares = 3,
  kOptionShares = 4,
  kNumericSummary = 5,
  kGroupAnswered = 6,
};

// The answer a body must carry.
//   crosstab kinds : row_labels x col_labels, values = cell counts row-major
//   share kinds    : row_labels = option/category labels, values = counts,
//                    total = answered rows
//   numeric summary: values = {count, sum, min, max}
//   group answered : values = per-group counts
struct Expected {
  Kind kind = Kind::kCategoryShares;
  std::vector<std::string> row_labels;
  std::vector<std::string> col_labels;
  std::vector<double> values;
  double total = 0.0;
};

// "" when `body` encodes exactly `expected` (and every share lies in
// [0, 1] inside its interval, with category counts summing to the answered
// rows); otherwise the first difference found.
std::string check_body(const Expected& expected,
                       std::span<const std::uint8_t> body);

// check_body plus the provenance tag: the response must echo the
// fingerprint of the (epoch, spec) the benchmark asked for, so a body served
// from another epoch fails even where its counts happen to agree.
std::string check_response(const Expected& expected,
                           std::uint64_t expected_fingerprint,
                           std::uint64_t fingerprint,
                           std::span<const std::uint8_t> body);

// Attempted/failed bookkeeping for one run. A failure is a wrong answer,
// an error, a shed or a timeout; the first reason is kept for the log.
struct Ledger {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::string first_failure;

  // Records one operation; `reason` empty means it succeeded.
  void record(const std::string& reason);
  void merge(const Ledger& other);
};

}  // namespace perfbench::oracle
