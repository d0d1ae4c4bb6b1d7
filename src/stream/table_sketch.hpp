// TableSketch — every sketch in this subsystem wired to a data::Table
// schema, so a stream of table blocks is analyzed column-by-column in one
// pass with bounded memory:
//
//   numeric columns      -> Moments + GKQuantile
//   categorical columns  -> exact per-label counts (+ answered total)
//   multi-select columns -> exact per-option counts (+ answered total)
//   all labels           -> one CountMinSketch + one SpaceSaving over
//                           "column\x1Flabel" keys (cross-validates the
//                           exact counts and demonstrates the approximate
//                           path the exact one would take at larger
//                           domains)
//   whole rows           -> HyperLogLog distinct count of the composite
//                           key over `distinct_columns`
//   one numeric column   -> WeightedReservoir sample (optional)
//   configured pairs     -> query::BatchPlan crosstab cells (exact
//                           data::crosstab / crosstab_multiselect)
//
// ingest() takes the block plus the global index of its first row (the
// reservoir's shard-invariant priorities need it); merge() folds a shard's
// sketch in. Blocks and merged sketches must carry the schema's exact
// column layout and label sets (data::Table::check_same_schema). The
// crosstab pairs are unweighted, so every cell is an integer count and any
// shard split merges to the materialized builders' bits. ingest() and
// merge() are instrumented through rcr::obs: counters stream.rows /
// stream.blocks / stream.merges, histogram stream.merge.ms, and
// publish_metrics() exports sketch-size gauges.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"
#include "query/partials.hpp"
#include "stream/sketch.hpp"

namespace rcr::stream {

struct TableSketchOptions {
  double quantile_eps = 0.005;
  std::size_t cms_depth = 4;
  std::size_t cms_width = 2048;
  std::uint8_t hll_precision = 12;
  // Default sized above the survey's full (column, label) domain (~72
  // cells), so SpaceSaving stays exact on the standard instrument.
  std::size_t heavy_hitter_capacity = 128;
  std::size_t reservoir_capacity = 64;
  std::uint64_t seed = 0x5EED5EEDULL;
  // (row_column, col_column) pairs; col may be categorical or multi-select.
  std::vector<std::pair<std::string, std::string>> crosstabs;
  // Columns forming the distinct-count key; empty = all schema columns.
  std::vector<std::string> distinct_columns;
  // Numeric column to reservoir-sample; empty disables the reservoir.
  std::string reservoir_column;
};

class TableSketch {
 public:
  explicit TableSketch(const data::Table& schema,
                       TableSketchOptions options = {});

  // Folds `block` in; `first_row` is the global stream index of its first
  // row. Blocks must arrive with disjoint index ranges (any order — the
  // sketches are mergeable — though in-order ingest keeps floating-point
  // accumulations identical to the single-stream build).
  void ingest(const data::Table& block, std::size_t first_row);

  // Tail-append convenience: ingest `block` as the rows immediately after
  // everything seen so far (first_row = rows()). This is the form the
  // incremental query engine uses, so one append advances the exact
  // partials and the sketches in lockstep.
  void ingest(const data::Table& block) {
    ingest(block, static_cast<std::size_t>(rows_));
  }

  // Folds a shard's sketch into this one. Options must match.
  void merge(const TableSketch& other);

  std::uint64_t rows() const { return rows_; }
  std::uint64_t blocks() const { return blocks_; }
  const TableSketchOptions& options() const { return options_; }
  const data::Table& schema() const { return schema_; }

  const Moments& moments(const std::string& column) const;
  const GKQuantile& quantile_sketch(const std::string& column) const;
  // Per-category / per-option exact counts in schema label order, plus the
  // number of rows answering the question at all.
  const std::vector<double>& category_counts(const std::string& column) const;
  const std::vector<double>& option_counts(const std::string& column) const;
  double answered(const std::string& column) const;

  // A configured pair's crosstab, labelled from the schema — equal to
  // data::crosstab (or crosstab_multiselect) over every row ingested.
  data::LabeledCrosstab crosstab(const std::string& row_column,
                                 const std::string& col_column) const;
  const CountMinSketch& label_cms() const { return label_cms_; }
  const SpaceSaving& heavy_hitters() const { return heavy_hitters_; }
  const HyperLogLog& distinct() const { return distinct_; }
  const WeightedReservoir& reservoir() const;

  // The CMS key for a (column, label) cell — what label_cms()/heavy_hitters()
  // were fed, exposed so callers can query estimates for exact comparison.
  static std::string label_key(const std::string& column,
                               const std::string& label);

  // The composite distinct-count key of one row (what distinct() is fed).
  // Public so exact-reference validation can count true distincts the same
  // way the HLL saw them.
  std::uint64_t row_key(const data::Table& block, std::size_t row) const;

  std::size_t approx_bytes() const;
  // Exports stream.sketch.bytes / stream.quantile.tuples gauges.
  void publish_metrics() const;

 private:
  struct NumericState {
    Moments moments;
    GKQuantile quantile;
    NumericState() : quantile(0.01) {}
    explicit NumericState(double eps) : quantile(eps) {}
  };
  struct CountState {
    std::vector<double> counts;
    double answered = 0.0;
  };

  TableSketchOptions options_;
  data::Table schema_;
  std::uint64_t rows_ = 0;
  std::uint64_t blocks_ = 0;
  // std::map: deterministic iteration order for merges and reports.
  std::map<std::string, NumericState> numeric_;
  std::map<std::string, CountState> categorical_;
  std::map<std::string, CountState> multiselect_;
  // One query spec per configured pair, in options order, and their flat
  // BatchPlan accumulator (every cell a sum).
  std::vector<query::QuerySpec> crosstab_specs_;
  std::vector<double> crosstab_cells_;
  CountMinSketch label_cms_;
  SpaceSaving heavy_hitters_;
  HyperLogLog distinct_;
  WeightedReservoir reservoir_;
};

}  // namespace rcr::stream
