// Fused aggregation engine: one sharded scan answers a whole batch of
// table queries.
//
// Every reproduced table/figure asks the same shapes of question — crosstab
// two columns, share of each multi-select option, weighted share of one
// option, summarize a numeric column — and the direct data:: builders each
// answer with their own serial full-table scan. QueryEngine instead lets a
// caller register the whole batch up front and executes it in ONE pass:
//
//   query::QueryEngine engine(table);
//   const auto ct = engine.add_crosstab("field", "career_stage");
//   const auto ls = engine.add_option_shares("languages");
//   engine.run(pool);                     // one sharded scan, all queries
//   engine.crosstab(ct); engine.shares(ls);
//
// Execution model. Rows shard at the fixed kShardRows stride (shard k is
// [k·kShardRows, min(n, (k+1)·kShardRows)) — a pure function of the row
// index, never of the row count or the pool), and each shard accumulates
// every query's cells into one flat partial vector while the shard's rows
// are cache-resident. Partials merge cell-wise in shard index order, so
// results are bitwise identical run-to-run and across thread counts — the
// serial (pool == nullptr) path walks the exact same layout. Because the
// stride is append-invariant (new rows only ever extend the ragged tail
// shard), the incremental engine (rcr::incr) reproduces these exact bits
// by extending partials block by block. Tables at or below kShardRows run
// as a single shard, which makes every query — including arbitrarily-
// weighted sums — carry exactly the serial builders' left-to-right
// association; above that, count-style accumulators stay exact (integer
// counts are associative in double below 2^53) while fractional weighted
// sums reassociate at shard boundaries, deterministically.
//
// The plan/scan/merge/build machinery itself lives in query/partials.hpp
// (BatchPlan) so other schedulers — the incremental engine, the snapshot
// page walker — can drive the same kernels; this class owns registration,
// validation, the shard schedule, and result storage.
//
// Instrumented through rcr::obs: query.runs / query.queries / query.rows,
// query.run.ms / query.merge.ms, and the fused-vs-naive scan counters
// query.scan.fused (sharded passes actually executed) vs
// query.scan.naive_equivalent (full-table scans the per-query builders
// would have made for the same batch).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "data/crosstab.hpp"
#include "data/table.hpp"
#include "parallel/thread_pool.hpp"
#include "query/partials.hpp"

namespace rcr::query {

// Historical name for the single-shard threshold; the stride now lives in
// partials.hpp as kShardRows (the two are one constant).
inline constexpr std::size_t kMinShardRows = kShardRows;

class QueryEngine {
 public:
  explicit QueryEngine(const data::Table& table);

  // --- Registration (validates columns; same errors, same messages, as the
  // --- direct data:: builders). Returns the id to fetch the result with.
  QueryId add_crosstab(const std::string& row_column,
                       const std::string& col_column,
                       const std::optional<std::string>& weight_column = {});
  QueryId add_crosstab_multiselect(
      const std::string& row_column, const std::string& option_column,
      const std::optional<std::string>& weight_column = {});
  QueryId add_category_shares(const std::string& column,
                              double confidence = 0.95);
  QueryId add_option_shares(const std::string& option_column,
                            double confidence = 0.95);
  // `weights` must outlive run(); one entry per table row.
  QueryId add_weighted_option_share(const std::string& option_column,
                                    const std::string& option_label,
                                    std::span<const double> weights,
                                    double confidence = 0.95);
  QueryId add_numeric_summary(const std::string& column);
  // Rows per category of `group_column` that answered `answered_column`
  // (any column kind) — the denominator the per-field share tables need.
  QueryId add_group_answered(const std::string& group_column,
                             const std::string& answered_column);

  // Executes every registered query in one sharded pass. pool == nullptr
  // walks the same shard layout serially (bitwise-identical results).
  // May be called again after registering more queries; recomputes all.
  void run(parallel::ThreadPool* pool = nullptr);

  bool ran() const { return ran_; }
  std::size_t query_count() const { return specs_.size(); }

  // --- Results (valid after run(); checked against the query's kind).
  const data::LabeledCrosstab& crosstab(QueryId id) const;
  const std::vector<data::OptionShare>& shares(QueryId id) const;
  const data::OptionShare& weighted_share(QueryId id) const;
  const NumericSummary& numeric(QueryId id) const;
  const std::vector<double>& group_answered(QueryId id) const;
  // The untyped result record (all kinds) — what serve's encoders and the
  // incremental engine's equivalence tests compare against.
  const QueryResult& raw_result(QueryId id) const;
  SpecKind kind_of(QueryId id) const;

 private:
  QueryId push_spec(QuerySpec spec);
  const QueryResult& result_of(QueryId id, SpecKind kind) const;

  const data::Table& table_;
  std::vector<QuerySpec> specs_;
  std::vector<QueryResult> results_;
  bool ran_ = false;
};

}  // namespace rcr::query
