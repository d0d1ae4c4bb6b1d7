#include "core/stream_study.hpp"

#include <cmath>
#include <cstdio>
#include <memory>

#include "data/csv.hpp"
#include "data/snapshot.hpp"
#include "parallel/algorithms.hpp"
#include "parallel/thread_pool.hpp"
#include "report/table.hpp"
#include "stats/ci.hpp"
#include "synth/domain.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rcr::core {

stream::TableSketchOptions StreamStudyConfig::default_stream_options() {
  stream::TableSketchOptions opts;
  opts.crosstabs = {{synth::col::kField, synth::col::kLanguages},
                    {synth::col::kField, synth::col::kSePractices}};
  opts.reservoir_column = synth::col::kDatasetGb;
  return opts;
}

stream::TableSketch run_stream_study(const StreamStudyConfig& config) {
  synth::GeneratorConfig gen;
  gen.wave = config.wave;
  gen.respondents = config.respondents;
  gen.seed = config.seed;
  gen.nonresponse_strength = config.nonresponse_strength;
  gen.pool = nullptr;  // parallelism lives at the shard level, not inside it

  const data::Table schema = synth::instrument().make_table();

  if (!config.snapshot_path.empty()) {
    // Snapshot-backed wave: the table is memory-mapped (zero-copy columns)
    // and sliced into the same block structure the CSV reader would
    // deliver, so the sketch — and therefore the report — is identical to
    // a CSV-backed run over the same rows.
    stream::TableSketch sketch(schema, config.sketch);
    const data::Table table = data::read_snapshot(config.snapshot_path);
    const std::size_t block = std::max<std::size_t>(1, config.block_rows);
    const std::size_t n = table.row_count();
    for (std::size_t lo = 0; lo < n; lo += block)
      sketch.ingest(table.slice(lo, std::min(lo + block, n)), lo);
    sketch.publish_metrics();
    return sketch;
  }

  if (!config.csv_path.empty()) {
    // File-backed wave: the streaming block reader delivers rows in file
    // order with O(block_rows) memory, so a wave export larger than RAM
    // flows through the same sketch pipeline as the generated population.
    stream::TableSketch sketch(schema, config.sketch);
    const std::size_t block = std::max<std::size_t>(1, config.block_rows);
    data::for_each_csv_block_file(
        config.csv_path, schema, block,
        [&](const data::Table& blk, std::size_t first_row) {
          sketch.ingest(blk, first_row);
        });
    sketch.publish_metrics();
    return sketch;
  }

  if (config.nonresponse_strength > 0.0) {
    // Rejection-sampled sequence: inherently serial, one sketch, in-order
    // blocks. Deterministic for a fixed config regardless of pool.
    stream::TableSketch sketch(schema, config.sketch);
    synth::generate_blocks(
        gen, config.block_rows,
        [&](data::Table block, std::size_t first_row) {
          sketch.ingest(block, first_row);
        });
    sketch.publish_metrics();
    return sketch;
  }

  // Unbiased sequence: shard on the pure-function chunk layout and merge
  // shard sketches in index order. The pooled and serial paths build the
  // exact same shards and merge them in the exact same order, so the result
  // is bitwise identical for any thread count.
  const std::size_t block =
      std::max<std::size_t>(1, std::min(config.block_rows, config.respondents));
  auto build_shard = [&](std::size_t lo, std::size_t hi) {
    auto shard = std::make_unique<stream::TableSketch>(schema, config.sketch);
    shard->ingest(synth::generate_range(gen, lo, hi - lo), lo);
    return shard;
  };
  auto combine = [](std::unique_ptr<stream::TableSketch> acc,
                    std::unique_ptr<stream::TableSketch> next) {
    if (!acc) return next;
    acc->merge(*next);
    return acc;
  };

  std::unique_ptr<stream::TableSketch> result;
  if (config.pool != nullptr) {
    parallel::ForOptions opts;
    opts.grain = block;
    result = parallel::parallel_reduce<std::unique_ptr<stream::TableSketch>>(
        *config.pool, 0, config.respondents, nullptr, build_shard, combine,
        opts);
  } else {
    const auto layout =
        parallel::chunk_layout(0, config.respondents, block);
    for (std::size_t k = 0; k < layout.chunks; ++k) {
      const auto [lo, hi] = layout.bounds(k);
      result = combine(std::move(result), build_shard(lo, hi));
    }
  }
  RCR_CHECK_MSG(result != nullptr, "stream study produced no shards");
  result->publish_metrics();
  return std::move(*result);
}

std::string render_stream_report(const stream::TableSketch& sketch) {
  std::string out;
  out += "Streaming study: " + std::to_string(sketch.rows()) + " respondents in " +
         std::to_string(sketch.blocks()) + " blocks, sketch state ~" +
         format_double(static_cast<double>(sketch.approx_bytes()) / 1024.0, 1) +
         " KiB\n";
  out += "distinct respondents (HLL): " +
         format_double(sketch.distinct().estimate(), 0) + "\n";

  // T2-style: language adoption by field, row-conditional shares.
  {
    const auto labeled =
        sketch.crosstab(synth::col::kField, synth::col::kLanguages);
    out += "\nLanguage use by field (share of field, streaming T2)\n";
    std::vector<std::string> headers = {"Field"};
    for (const auto& l : labeled.col_labels) headers.push_back(l);
    report::TextTable t(std::move(headers));
    for (std::size_t f = 0; f < labeled.row_labels.size(); ++f) {
      const double denom = sketch.category_counts(synth::col::kField)[f];
      std::vector<std::string> row = {labeled.row_labels[f]};
      for (std::size_t c = 0; c < labeled.col_labels.size(); ++c) {
        row.push_back(denom > 0.0
                          ? format_percent(labeled.counts.at(f, c) / denom, 0)
                          : "-");
      }
      t.add_row(std::move(row));
    }
    out += t.render();
  }

  // T4-style: SE-practice adoption shares with Wilson intervals.
  {
    const auto& counts = sketch.option_counts(synth::col::kSePractices);
    const double total = sketch.answered(synth::col::kSePractices);
    const auto& options =
        sketch.schema().multiselect(synth::col::kSePractices).options();
    out += "\nSoftware-engineering practice adoption (streaming T4)\n";
    report::TextTable t({"Practice", "Share [95% CI]", "n"});
    for (std::size_t o = 0; o < options.size(); ++o) {
      const auto ci = stats::wilson_ci(counts[o], total);
      t.add_row({options[o], report::share_cell(ci.estimate, ci.lo, ci.hi),
                 format_double(counts[o], 0)});
    }
    out += t.render();
  }

  // Numeric summaries straight from the sketches.
  {
    out += "\nNumeric columns (Welford moments + GK quantiles)\n";
    report::TextTable t(
        {"Column", "n", "mean", "sd", "p50", "p90", "p99", "max"});
    for (const char* name :
         {synth::col::kYearsProgramming, synth::col::kCoresTypical,
          synth::col::kDatasetGb}) {
      const auto& m = sketch.moments(name);
      const auto& q = sketch.quantile_sketch(name);
      t.add_row({name, std::to_string(m.count()), format_double(m.mean(), 2),
                 format_double(m.stddev(), 2), format_double(q.quantile(0.5), 1),
                 format_double(q.quantile(0.9), 1),
                 format_double(q.quantile(0.99), 1),
                 format_double(m.max(), 1)});
    }
    out += t.render();
  }

  // Heavy hitters across every (column, label) cell.
  {
    out += "\nHeaviest answer cells (SpaceSaving" +
           std::string(sketch.heavy_hitters().exact() ? ", exact" : "") + ")\n";
    report::TextTable t({"Answer cell", "count", "max err"});
    for (const auto& e : sketch.heavy_hitters().top(10)) {
      std::string cell = e.key;
      // The CMS/SpaceSaving key joins column and label with \x1F; render
      // it readably.
      if (const auto sep = cell.find('\x1F'); sep != std::string::npos) {
        cell.replace(sep, 1, " / ");
      }
      t.add_row({cell, format_double(e.count, 0), format_double(e.error, 0)});
    }
    out += t.render();
  }

  // Reservoir sample of dataset sizes.
  if (!sketch.options().reservoir_column.empty()) {
    const auto& res = sketch.reservoir();
    double mean = 0.0;
    for (const auto& item : res.items()) mean += item.value;
    if (!res.items().empty()) mean /= static_cast<double>(res.items().size());
    out += "\nReservoir sample (" + sketch.options().reservoir_column +
           "): " + std::to_string(res.items().size()) + " of " +
           std::to_string(res.offered()) +
           " offered, sample mean = " + format_double(mean, 2) + "\n";
  }
  return out;
}

}  // namespace rcr::core
