// Streaming study mode: the sketch built from generated blocks must agree
// with the materialized wave's exact analyses, and must be bitwise
// thread-count-invariant (serial == 1 thread == 4 threads).
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/stream_study.hpp"
#include "data/crosstab.hpp"
#include "data/csv.hpp"
#include "parallel/thread_pool.hpp"
#include "stats/descriptive.hpp"
#include "synth/domain.hpp"
#include "synth/generator.hpp"

namespace {

using rcr::core::StreamStudyConfig;
namespace col = rcr::synth::col;

StreamStudyConfig small_config() {
  StreamStudyConfig config;
  config.respondents = 3000;
  config.seed = 19;
  config.block_rows = 256;
  return config;
}

TEST(StreamStudy, SketchMatchesMaterializedWave) {
  const auto config = small_config();
  const auto sketch = rcr::core::run_stream_study(config);
  const auto full = rcr::synth::generate_wave(
      {config.wave, config.respondents, config.seed, nullptr});

  EXPECT_EQ(sketch.rows(), full.row_count());

  // Exact categorical counts.
  EXPECT_EQ(sketch.category_counts(col::kField),
            full.categorical(col::kField).counts());
  EXPECT_EQ(sketch.option_counts(col::kLanguages),
            full.multiselect(col::kLanguages).option_counts());

  // Moments vs descriptive stats over present values.
  const auto years = full.numeric(col::kYearsProgramming).present_values();
  const auto& m = sketch.moments(col::kYearsProgramming);
  EXPECT_EQ(m.count(), years.size());
  EXPECT_NEAR(m.mean(), rcr::stats::mean(years), 1e-9);
  EXPECT_NEAR(m.stddev(), rcr::stats::stddev(years), 1e-7);

  // GK quantiles within the documented merged bound (2 * eps * n rank).
  auto sorted = years;
  std::sort(sorted.begin(), sorted.end());
  const double eps = config.sketch.quantile_eps;
  for (double p : {0.1, 0.5, 0.9}) {
    const double est = sketch.quantile_sketch(col::kYearsProgramming)
                           .quantile(p);
    const auto lo = std::lower_bound(sorted.begin(), sorted.end(), est);
    const auto hi = std::upper_bound(sorted.begin(), sorted.end(), est);
    const double n = static_cast<double>(sorted.size());
    const double target = std::ceil(p * n);
    const double rank_lo = static_cast<double>(lo - sorted.begin()) + 1.0;
    const double rank_hi = static_cast<double>(hi - sorted.begin());
    const double err = target < rank_lo ? rank_lo - target
                       : target > rank_hi ? target - rank_hi
                                          : 0.0;
    EXPECT_LE(err, 2.0 * eps * n) << "quantile " << p;
  }

  // Streaming crosstab equals the exact multiselect crosstab.
  const auto exact = rcr::data::crosstab_multiselect(full, col::kField,
                                                     col::kLanguages);
  const auto got = sketch.crosstab(col::kField, col::kLanguages);
  ASSERT_EQ(got.row_labels, exact.row_labels);
  ASSERT_EQ(got.col_labels, exact.col_labels);
  for (std::size_t r = 0; r < got.row_labels.size(); ++r)
    for (std::size_t c = 0; c < got.col_labels.size(); ++c)
      EXPECT_EQ(got.counts.at(r, c), exact.counts.at(r, c));

  // Every respondent row is distinct; the HLL should land near n.
  EXPECT_NEAR(sketch.distinct().estimate(),
              static_cast<double>(config.respondents),
              0.1 * static_cast<double>(config.respondents));

  // Reservoir filled to capacity.
  EXPECT_EQ(sketch.reservoir().items().size(),
            config.sketch.reservoir_capacity);
}

// The acceptance criterion: identical sketch state for any --threads value.
TEST(StreamStudy, ThreadCountInvariant) {
  auto config = small_config();
  const auto serial = rcr::core::run_stream_study(config);

  rcr::parallel::ThreadPool pool1(1), pool4(4);
  for (rcr::parallel::ThreadPool* pool : {&pool1, &pool4}) {
    config.pool = pool;
    const auto pooled = rcr::core::run_stream_study(config);

    EXPECT_EQ(pooled.rows(), serial.rows());
    EXPECT_EQ(pooled.blocks(), serial.blocks());
    // Bitwise equality of floating-point accumulations, not approximate.
    for (const char* column :
         {col::kYearsProgramming, col::kCoresTypical, col::kDatasetGb}) {
      EXPECT_EQ(pooled.moments(column).mean(), serial.moments(column).mean());
      EXPECT_EQ(pooled.moments(column).variance(),
                serial.moments(column).variance());
      for (double p : {0.01, 0.5, 0.99})
        EXPECT_EQ(pooled.quantile_sketch(column).quantile(p),
                  serial.quantile_sketch(column).quantile(p));
    }
    EXPECT_EQ(pooled.category_counts(col::kField),
              serial.category_counts(col::kField));
    EXPECT_EQ(pooled.distinct().estimate(), serial.distinct().estimate());
    const auto& pr = pooled.reservoir().items();
    const auto& sr = serial.reservoir().items();
    ASSERT_EQ(pr.size(), sr.size());
    for (std::size_t i = 0; i < pr.size(); ++i) {
      EXPECT_EQ(pr[i].index, sr[i].index);
      EXPECT_EQ(pr[i].value, sr[i].value);
    }
    const auto ph = pooled.heavy_hitters().top(10);
    const auto sh = serial.heavy_hitters().top(10);
    ASSERT_EQ(ph.size(), sh.size());
    for (std::size_t i = 0; i < ph.size(); ++i) {
      EXPECT_EQ(ph[i].key, sh[i].key);
      EXPECT_EQ(ph[i].count, sh[i].count);
    }
  }
}

// Block size must not change results either (different shard partition is
// allowed to change FP accumulation order, so exact counts only).
TEST(StreamStudy, BlockSizeChangesOnlyFloatingPointDetail) {
  auto config = small_config();
  const auto a = rcr::core::run_stream_study(config);
  config.block_rows = 997;
  const auto b = rcr::core::run_stream_study(config);
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.category_counts(col::kField), b.category_counts(col::kField));
  EXPECT_EQ(a.option_counts(col::kSePractices),
            b.option_counts(col::kSePractices));
  EXPECT_EQ(a.distinct().estimate(), b.distinct().estimate());
  // Reservoir priorities are pure functions of (seed, global index): the
  // sample is partition-invariant, not just thread-invariant.
  const auto& ra = a.reservoir().items();
  const auto& rb = b.reservoir().items();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i)
    EXPECT_EQ(ra[i].index, rb[i].index);
  EXPECT_NEAR(a.moments(col::kDatasetGb).mean(),
              b.moments(col::kDatasetGb).mean(), 1e-9);
}

TEST(StreamStudy, CsvIngestMatchesGeneratedPopulation) {
  // Write a generated wave to CSV and stream it back through the sketch:
  // the file-backed path must agree with the direct-ingest path on every
  // exact statistic, and bitwise on partition-invariant state.
  auto config = small_config();
  config.respondents = 1500;
  const auto direct = rcr::core::run_stream_study(config);
  const auto full = rcr::synth::generate_wave(
      {config.wave, config.respondents, config.seed, nullptr});
  const std::string path = ::testing::TempDir() + "rcr_stream_wave.csv";
  rcr::data::write_csv_file(path, full);

  auto csv_config = config;
  csv_config.csv_path = path;
  const auto from_csv = rcr::core::run_stream_study(csv_config);

  EXPECT_EQ(from_csv.rows(), direct.rows());
  EXPECT_EQ(from_csv.category_counts(col::kField),
            direct.category_counts(col::kField));
  EXPECT_EQ(from_csv.option_counts(col::kLanguages),
            direct.option_counts(col::kLanguages));
  EXPECT_EQ(from_csv.option_counts(col::kSePractices),
            direct.option_counts(col::kSePractices));
  const auto exact = from_csv.crosstab(col::kField, col::kLanguages);
  const auto want = direct.crosstab(col::kField, col::kLanguages);
  ASSERT_EQ(exact.row_labels, want.row_labels);
  for (std::size_t r = 0; r < exact.row_labels.size(); ++r)
    for (std::size_t c = 0; c < exact.col_labels.size(); ++c)
      EXPECT_EQ(exact.counts.at(r, c), want.counts.at(r, c));
  // Moments: shortest-round-trip decimal literals re-parse to the exact
  // same doubles, but the CSV path accumulates sequentially while the
  // direct path Chan-merges per-shard sketches, so means agree only to
  // accumulation-order tolerance.
  for (const char* column :
       {col::kYearsProgramming, col::kCoresTypical, col::kDatasetGb}) {
    EXPECT_EQ(from_csv.moments(column).count(), direct.moments(column).count());
    EXPECT_NEAR(from_csv.moments(column).mean(), direct.moments(column).mean(),
                1e-9);
  }
  EXPECT_EQ(from_csv.distinct().estimate(), direct.distinct().estimate());
  const auto& ra = from_csv.reservoir().items();
  const auto& rb = direct.reservoir().items();
  ASSERT_EQ(ra.size(), rb.size());
  for (std::size_t i = 0; i < ra.size(); ++i) {
    EXPECT_EQ(ra[i].index, rb[i].index);
    EXPECT_EQ(ra[i].value, rb[i].value);
  }
}

TEST(StreamStudy, NonresponsePathStreamsSequentially) {
  auto config = small_config();
  config.respondents = 800;
  config.nonresponse_strength = 0.3;
  const auto sketch = rcr::core::run_stream_study(config);
  const auto full = rcr::synth::generate_wave(
      {config.wave, config.respondents, config.seed, nullptr,
       config.nonresponse_strength});
  EXPECT_EQ(sketch.rows(), full.row_count());
  EXPECT_EQ(sketch.category_counts(col::kField),
            full.categorical(col::kField).counts());
}

TEST(StreamStudy, RenderReportSmoke) {
  auto config = small_config();
  config.respondents = 1200;
  const auto sketch = rcr::core::run_stream_study(config);
  const std::string report = rcr::core::render_stream_report(sketch);
  EXPECT_NE(report.find("respondents"), std::string::npos);
  EXPECT_NE(report.find("Python"), std::string::npos);
  EXPECT_NE(report.find("Version control"), std::string::npos);
  // The heavy-hitter key separator must be humanized, never raw \x1F.
  EXPECT_EQ(report.find('\x1F'), std::string::npos);
}

}  // namespace
