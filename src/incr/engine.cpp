#include "incr/engine.hpp"

#include <algorithm>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/timer.hpp"
#include "parallel/algorithms.hpp"
#include "util/error.hpp"

namespace rcr::incr {

namespace {

struct IncrMetrics {
  obs::Counter& appends = obs::registry().counter("incr.appends");
  obs::Counter& rows = obs::registry().counter("incr.rows");
  obs::Counter& shards_completed =
      obs::registry().counter("incr.shards.completed");
  obs::Histogram& append_ms = obs::registry().histogram("incr.append.ms");
};

IncrMetrics& metrics() {
  static IncrMetrics m;
  return m;
}

}  // namespace

IncrementalEngine::IncrementalEngine(const data::Table& schema)
    : schema_(schema.clone_empty()) {}

query::QueryId IncrementalEngine::add_crosstab(
    const std::string& row_column, const std::string& col_column,
    const std::optional<std::string>& weight_column) {
  RCR_CHECK_MSG(!sealed_, "cannot register queries after the first append");
  const auto& rows = schema_.categorical(row_column);
  const auto& cols = schema_.categorical(col_column);
  RCR_CHECK_MSG(rows.category_count() > 0 && cols.category_count() > 0,
                "crosstab needs non-empty category sets");
  if (weight_column) schema_.numeric(*weight_column);
  specs_.push_back({query::SpecKind::kCrosstab, row_column, col_column,
                    weight_column, {}, {}, 0.95});
  return specs_.size() - 1;
}

query::QueryId IncrementalEngine::add_crosstab_multiselect(
    const std::string& row_column, const std::string& option_column,
    const std::optional<std::string>& weight_column) {
  RCR_CHECK_MSG(!sealed_, "cannot register queries after the first append");
  const auto& rows = schema_.categorical(row_column);
  const auto& opts = schema_.multiselect(option_column);
  RCR_CHECK_MSG(rows.category_count() > 0 && opts.option_count() > 0,
                "crosstab needs non-empty category/option sets");
  if (weight_column) schema_.numeric(*weight_column);
  specs_.push_back({query::SpecKind::kCrosstabMultiselect, row_column,
                    option_column, weight_column, {}, {}, 0.95});
  return specs_.size() - 1;
}

query::QueryId IncrementalEngine::add_category_shares(const std::string& column,
                                                      double confidence) {
  RCR_CHECK_MSG(!sealed_, "cannot register queries after the first append");
  schema_.categorical(column);
  specs_.push_back(
      {query::SpecKind::kCategoryShares, column, {}, {}, {}, {}, confidence});
  return specs_.size() - 1;
}

query::QueryId IncrementalEngine::add_option_shares(
    const std::string& option_column, double confidence) {
  RCR_CHECK_MSG(!sealed_, "cannot register queries after the first append");
  schema_.multiselect(option_column);
  specs_.push_back({query::SpecKind::kOptionShares, option_column, {}, {}, {},
                    {}, confidence});
  return specs_.size() - 1;
}

query::QueryId IncrementalEngine::add_numeric_summary(
    const std::string& column) {
  RCR_CHECK_MSG(!sealed_, "cannot register queries after the first append");
  schema_.numeric(column);
  specs_.push_back(
      {query::SpecKind::kNumericSummary, column, {}, {}, {}, {}, 0.95});
  return specs_.size() - 1;
}

query::QueryId IncrementalEngine::add_group_answered(
    const std::string& group_column, const std::string& answered_column) {
  RCR_CHECK_MSG(!sealed_, "cannot register queries after the first append");
  const auto& groups = schema_.categorical(group_column);
  RCR_CHECK_MSG(groups.category_count() > 0,
                "group_answered needs a non-empty category set");
  schema_.kind(answered_column);
  specs_.push_back({query::SpecKind::kGroupAnswered, group_column,
                    answered_column, {}, {}, {}, 0.95});
  return specs_.size() - 1;
}

query::QueryId IncrementalEngine::add_weighted_option_share(
    const std::string&, const std::string&, std::span<const double>, double) {
  RCR_CHECK_MSG(false,
                "weighted option shares take an external per-row weight span "
                "and cannot be maintained incrementally; use QueryEngine");
  return 0;  // unreachable
}

void IncrementalEngine::attach_sketch(stream::TableSketchOptions options) {
  RCR_CHECK_MSG(!sealed_, "attach the sketch before the first append");
  sketch_ = std::make_unique<stream::TableSketch>(schema_, std::move(options));
}

void IncrementalEngine::ensure_plan() {
  if (plan_) return;
  plan_ = std::make_unique<query::BatchPlan>(schema_, specs_);
  prefix_.resize(plan_->cell_count());
  tail_.resize(plan_->cell_count());
  plan_->init_cells(prefix_);
  plan_->init_cells(tail_);
}

void IncrementalEngine::append_block(const data::Table& block,
                                     parallel::ThreadPool* pool) {
  obs::ScopedTimer append_timer(metrics().append_ms);
  sealed_ = true;
  ensure_plan();
  schema_.check_same_schema(block);

  // The block gets its own plan (its spans point at the block's storage);
  // the schema match above guarantees its cell layout is identical, so its
  // partials merge straight into ours.
  const query::BatchPlan bplan(block, specs_);
  RCR_CHECK_MSG(bplan.cell_count() == plan_->cell_count(),
                "block plan layout diverged from the schema plan");
  const std::size_t cells = plan_->cell_count();
  const std::size_t m = block.row_count();

  // Invariant: whenever rows_ lands on a shard boundary, tail_ holds the
  // identity. The walk below preserves it.
  std::size_t lo = 0;
  std::size_t completed = 0;

  // 1) Head segment: rows that continue (and maybe complete) the open
  //    shard. scan() resumes the fold mid-shard — see the resumability
  //    contract in query/partials.hpp.
  const std::size_t pos = rows_ % query::kShardRows;
  if (pos != 0) {
    const std::size_t take = std::min(query::kShardRows - pos, m);
    bplan.scan(0, take, tail_);
    if (pos + take == query::kShardRows) {
      plan_->merge(prefix_, tail_);
      plan_->init_cells(tail_);
      ++completed;
    }
    lo = take;
  }

  // 2) Interior whole shards: each scans from identity independently (the
  //    parallel part), then folds into the prefix in strict index order —
  //    the same association the cold engine's ordered merge uses.
  const std::size_t full = (m - lo) / query::kShardRows;
  if (full > 0) {
    std::vector<std::vector<double>> parts(full);
    const auto scan_full = [&](std::size_t k) {
      std::vector<double> part(cells);
      plan_->init_cells(part);
      bplan.scan(lo + k * query::kShardRows, lo + (k + 1) * query::kShardRows,
                 part);
      parts[k] = std::move(part);
    };
    if (pool != nullptr && full > 1) {
      parallel::parallel_for(*pool, 0, full,
                             [&](std::size_t k) { scan_full(k); });
    } else {
      for (std::size_t k = 0; k < full; ++k) scan_full(k);
    }
    for (const std::vector<double>& part : parts) plan_->merge(prefix_, part);
    completed += full;
    lo += full * query::kShardRows;
  }

  // 3) Remainder opens the new tail shard.
  if (lo < m) bplan.scan(lo, m, tail_);

  if (sketch_) sketch_->ingest(block, rows_);
  rows_ += m;
  dirty_ = true;

  metrics().appends.add(1);
  metrics().rows.add(m);
  metrics().shards_completed.add(completed);
}

const query::QuerySpec& IncrementalEngine::spec(query::QueryId id) const {
  RCR_CHECK_MSG(id < specs_.size(), "unknown query id");
  return specs_[id];
}

const std::vector<query::QueryResult>& IncrementalEngine::results() {
  ensure_plan();
  if (dirty_) {
    // The cut: the prefix fold continued by the open tail — bitwise the
    // cold engine's ordered merge over the same shards.
    std::vector<double> cut(prefix_);
    plan_->merge(cut, tail_);
    results_ = plan_->build(cut);
    dirty_ = false;
  }
  return results_;
}

const query::QueryResult& IncrementalEngine::result(query::QueryId id) {
  RCR_CHECK_MSG(id < specs_.size(), "unknown query id");
  return results()[id];
}

const stream::TableSketch& IncrementalEngine::sketch() const {
  RCR_CHECK_MSG(sketch_ != nullptr, "no sketch attached");
  return *sketch_;
}

}  // namespace rcr::incr
