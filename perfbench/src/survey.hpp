// The benchmark's survey-shaped inputs and its own tallies of them.
//
// Rows come from a seeded generator that knows nothing of the program. The
// benchmark writes them either as CSV text (its own writer: quoted labels,
// embedded commas, doubled quotes, `|` multi-selects) or straight into a
// data::Table, and folds every row into a Tally as it goes. A Tally answers
// any servable query spec over the rows it has seen, so the expected
// answers never come from the code under test.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "data/table.hpp"
#include "oracle.hpp"
#include "serve/protocol.hpp"

namespace perfbench {

// splitmix64: the generator behind every input the benchmark makes.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  // Uniform in [0, n).
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  // True with probability per_mille / 1000.
  bool chance(std::uint64_t per_mille) { return below(1000) < per_mille; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t state_;
};

// Column layout of one survey wave.
inline constexpr int kCategoricals = 4;  // field, career, country, org
inline constexpr int kMultiselects = 2;  // languages, tools
inline constexpr int kNumerics = 3;      // cores, hours, weight

// One respondent. -1 codes and missing flags mark unanswered questions;
// numeric values are dyadic (integers, quarters, eighths), so every sum the
// engine forms is exact in double and independent of association.
struct Row {
  int cat[kCategoricals] = {};
  std::uint64_t mask[kMultiselects] = {};
  bool ms_missing[kMultiselects] = {};
  double num[kNumerics] = {};
};

// The wave schema (frozen dictionaries in label order, no rows).
rcr::data::Table wave_schema();

class Tally;

// A wave of `rows` rows drawn from `rng`, built straight into a table with
// wave_schema(). Folds each row into `tally`.
rcr::data::Table make_table(Rng& rng, std::size_t rows, Tally& tally);

// The CSV text for `rows` rows drawn from `rng`, header first, with the
// columns in a seed-dependent order. Folds each row into `tally`.
std::string make_csv(Rng& rng, std::size_t rows, Tally& tally);

// Mergeable tallies over every row seen: per-column counts, every
// categorical pair and categorical x multi-select cross count (plain and
// weighted by the weight column), numeric count/sum/min/max, and per-group
// answered counts.
class Tally {
 public:
  Tally();
  void add(const Row& row);
  void merge(const Tally& other);

  // The answer a served body for `spec` must carry.
  oracle::Expected expect(const rcr::serve::QuerySpec& spec) const;

  double rows() const { return rows_; }

  // Flat double encoding, for handing tallies from the generating process
  // to the measuring one.
  std::vector<double> save() const;
  static Tally load(const std::vector<double>& flat);

 private:
  double rows_ = 0.0;
  std::vector<double> cells_;
};

// Study-shaped batch: the thirteen queries one wave's tables need.
std::vector<rcr::serve::QuerySpec> study_batch();

// Every servable spec over the wave schema without confidence variants,
// followed by share specs at distinct confidence levels until `size`
// specs exist. Distinct specs fingerprint distinctly.
std::vector<rcr::serve::QuerySpec> spec_catalog(std::size_t size);

// Small binary files of doubles (tallies, sizes) passed between processes.
void write_doubles(const std::string& path, const std::vector<double>& v);
std::vector<double> read_doubles(const std::string& path);

}  // namespace perfbench
