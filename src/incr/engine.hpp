// Incremental delta-merge query engine: O(delta) updates to a registered
// query batch, bitwise-equal to a cold full recompute at every cut.
//
//   incr::IncrementalEngine engine(schema);      // rows ignored, schema kept
//   const auto ct = engine.add_crosstab("field", "career");
//   const auto ls = engine.add_option_shares("langs");
//   engine.append_block(block0, pool);           // scans ONLY block0's rows
//   engine.append_block(block1, pool);
//   engine.result(ct).crosstab;                  // == cold QueryEngine on
//                                                //    block0 + block1, bitwise
//
// How the bits stay equal. A cold QueryEngine shards rows at the fixed
// query::kShardRows stride and left-folds the shard partials in index
// order. That stride is append-invariant: new rows only ever extend the
// ragged tail shard. So this engine keeps exactly two accumulators per
// batch —
//
//   prefix : the in-order fold of every COMPLETED shard's partial
//   tail   : the open (ragged) shard's partial, scanned so far
//
// and appending a block is a segment walk: rows that complete the open
// shard continue `tail` (BatchPlan::scan resumes mid-shard with the exact
// per-row instruction sequence of one whole-shard scan — the resumability
// contract in query/partials.hpp) and fold it into `prefix`; interior
// whole shards scan from identity (in parallel — each is independent) and
// fold into `prefix` in index order; the remainder starts the new `tail`.
// A cut is then copy(prefix) merged with tail and built into typed
// results — the same association, in the same order, as the cold run, so
// every double matches bit for bit (pinned by tests/determinism_test.cpp
// and enforced at the byte level by bench_incr).
//
// Cost per append: O(block rows) scan work + O(cells) merges — independent
// of how many rows were ingested before. Results rebuild lazily on access
// (O(cells), no row work).
//
// Blocks must carry the schema the engine was built with: same columns in
// order, same kinds, same category/option label vectors (so per-shard cell
// layouts line up). synth::generate_blocks and data::for_each_snapshot_block
// both satisfy this; CSV tail-follow does once recoded against the schema.
//
// Registration seals on the first append — a spec added later would need
// the already-consumed rows rescanned, which is the cold engine's job.
// Weighted option shares (caller-owned per-row weight spans) are rejected:
// an external span over all rows is precisely the thing a streaming
// consumer cannot extend.
//
// Optionally owns a stream::TableSketch fed the same blocks, so the exact
// partials and the sketch summaries (quantiles, heavy hitters, distinct
// counts) advance in lockstep from one append call.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "query/partials.hpp"
#include "stream/table_sketch.hpp"

namespace rcr::incr {

class IncrementalEngine {
 public:
  // Keeps `schema`'s column layout (names, kinds, category/option labels);
  // any rows it carries are ignored — append them as a block instead.
  explicit IncrementalEngine(const data::Table& schema);

  // --- Registration (before the first append; validates against the
  // --- schema with the cold engine's errors). Returns the result id.
  query::QueryId add_crosstab(
      const std::string& row_column, const std::string& col_column,
      const std::optional<std::string>& weight_column = {});
  query::QueryId add_crosstab_multiselect(
      const std::string& row_column, const std::string& option_column,
      const std::optional<std::string>& weight_column = {});
  query::QueryId add_category_shares(const std::string& column,
                                     double confidence = 0.95);
  query::QueryId add_option_shares(const std::string& option_column,
                                   double confidence = 0.95);
  query::QueryId add_numeric_summary(const std::string& column);
  query::QueryId add_group_answered(const std::string& group_column,
                                    const std::string& answered_column);
  // Always throws: external per-row weight spans cannot be extended
  // incrementally. Use a cold QueryEngine for this kind.
  query::QueryId add_weighted_option_share(const std::string& option_column,
                                           const std::string& option_label,
                                           std::span<const double> weights,
                                           double confidence = 0.95);

  // Attach a TableSketch fed every appended block (before the first
  // append, so it sees the full stream).
  void attach_sketch(stream::TableSketchOptions options = {});

  // Folds `block`'s rows into every registered query in O(block rows).
  // The block's schema must match the engine's. pool == nullptr walks the
  // same segments serially (bitwise-identical).
  void append_block(const data::Table& block,
                    parallel::ThreadPool* pool = nullptr);

  std::size_t row_count() const { return rows_; }
  std::size_t query_count() const { return specs_.size(); }
  const data::Table& schema() const { return schema_; }
  const query::QuerySpec& spec(query::QueryId id) const;

  // --- Results at the current cut (lazily rebuilt after appends).
  // Bitwise-equal to QueryEngine results over all appended rows.
  const query::QueryResult& result(query::QueryId id);
  const std::vector<query::QueryResult>& results();

  // The attached sketch (attach_sketch must have been called).
  const stream::TableSketch& sketch() const;

 private:
  void ensure_plan();

  data::Table schema_;
  std::vector<query::QuerySpec> specs_;
  std::unique_ptr<query::BatchPlan> plan_;  // on schema_; labels + merge/build
  std::vector<double> prefix_;  // fold of completed shards, index order
  std::vector<double> tail_;    // open shard's partial
  std::vector<query::QueryResult> results_;
  std::unique_ptr<stream::TableSketch> sketch_;
  std::size_t rows_ = 0;
  bool sealed_ = false;  // first append seals registration
  bool dirty_ = true;    // results_ stale relative to prefix_/tail_
};

}  // namespace rcr::incr
