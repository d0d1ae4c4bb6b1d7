// Tests for Table::append_rows, the shared column storage under it
// (data::PageVec), and trend::per_group_trend (the wave-pooling and
// drill-down extensions).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "data/table.hpp"
#include "trend/trend.hpp"
#include "util/error.hpp"

namespace rcr {
namespace {

data::Table make_wave(std::size_t a_hits, std::size_t a_n,
                      std::size_t b_hits, std::size_t b_n) {
  data::Table t;
  auto& field = t.add_categorical("field", {"a", "b"});
  auto& m = t.add_multiselect("m", {"x"});
  auto& v = t.add_numeric("v");
  const auto fill = [&](const char* label, std::size_t hits, std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      field.push(label);
      m.push_mask(i < hits ? 1 : 0);
      v.push(static_cast<double>(i));
    }
  };
  fill("a", a_hits, a_n);
  fill("b", b_hits, b_n);
  return t;
}

TEST(AppendRowsTest, ConcatenatesMatchingSchemas) {
  auto t1 = make_wave(2, 4, 1, 3);
  const auto t2 = make_wave(1, 2, 2, 2);
  t1.append_rows(t2);
  EXPECT_EQ(t1.row_count(), 11u);
  EXPECT_NO_THROW(t1.validate_rectangular());
  // First appended row lands at index 7 with field "a", mask 1, v 0.
  EXPECT_EQ(t1.categorical("field").label_at(7), "a");
  EXPECT_EQ(t1.multiselect("m").mask_at(7), 1u);
  EXPECT_DOUBLE_EQ(t1.numeric("v").at(7), 0.0);
}

TEST(AppendRowsTest, PreservesMissingCells) {
  data::Table a;
  a.add_numeric("v").push(1.0);
  a.add_multiselect("m", {"x"}).push_mask(1);
  data::Table b;
  b.add_numeric("v").push_missing();
  b.add_multiselect("m", {"x"}).push_missing();
  a.append_rows(b);
  EXPECT_TRUE(data::NumericColumn::is_missing(a.numeric("v").at(1)));
  EXPECT_TRUE(a.multiselect("m").is_missing(1));
}

TEST(AppendRowsTest, RejectsSchemaMismatch) {
  auto t1 = make_wave(1, 2, 1, 2);
  data::Table other;
  other.add_numeric("v");
  EXPECT_THROW(t1.append_rows(other), rcr::Error);

  data::Table wrong_categories;
  wrong_categories.add_categorical("field", {"a", "c"});
  wrong_categories.add_multiselect("m", {"x"});
  wrong_categories.add_numeric("v");
  EXPECT_THROW(t1.append_rows(wrong_categories), rcr::Error);
}

// --- shared column storage ---------------------------------------------------
//
// Copying a table shares every column's row buffer; an append at the
// buffer's tip extends it in place, so a copy-then-append (a delta epoch)
// costs O(appended rows). These tests pin that contract by pointer
// identity, with no timing.

// Rows pushed one at a time grow capacity by doubling, so 33 rows sit in a
// 64-row buffer: the 8-row blocks below fit at its tip.
data::Table tip_base() { return make_wave(9, 17, 7, 16); }
data::Table tip_block() { return make_wave(1, 4, 3, 4); }

struct ColumnPointers {
  const double* v;
  const std::int32_t* field;
  const std::uint64_t* masks;
  const std::uint8_t* missing;
};

ColumnPointers pointers(const data::Table& t) {
  return {t.numeric("v").values().data(), t.categorical("field").codes().data(),
          t.multiselect("m").masks().data(),
          t.multiselect("m").missing_flags().data()};
}

void expect_same_storage(const data::Table& a, const data::Table& b) {
  const ColumnPointers pa = pointers(a), pb = pointers(b);
  EXPECT_EQ(pa.v, pb.v);
  EXPECT_EQ(pa.field, pb.field);
  EXPECT_EQ(pa.masks, pb.masks);
  EXPECT_EQ(pa.missing, pb.missing);
}

// Every cell of `t` equals the concatenation of `parts`' cells.
void expect_rows(const data::Table& t, const std::vector<data::Table>& parts) {
  std::size_t at = 0;
  for (const data::Table& part : parts) {
    for (std::size_t i = 0; i < part.row_count(); ++i, ++at) {
      ASSERT_LT(at, t.row_count());
      EXPECT_EQ(t.categorical("field").code_at(at),
                part.categorical("field").code_at(i));
      EXPECT_EQ(t.multiselect("m").mask_at(at),
                part.multiselect("m").mask_at(i));
      EXPECT_EQ(t.multiselect("m").is_missing(at),
                part.multiselect("m").is_missing(i));
      EXPECT_EQ(t.numeric("v").at(at), part.numeric("v").at(i));
    }
  }
  EXPECT_EQ(at, t.row_count());
}

TEST(SharedStorageTest, CopiedTableSharesColumnData) {
  const data::Table t = make_wave(2, 4, 1, 3);
  const data::Table copy = t;
  expect_same_storage(copy, t);
  expect_rows(copy, {t});
}

TEST(SharedStorageTest, TipAppendToACopyKeepsThePrefixInPlace) {
  const data::Table base = tip_base();
  const data::Table reference = tip_base();  // independent storage
  data::Table next = base;
  next.append_rows(tip_block());
  expect_same_storage(next, base);
  expect_rows(next, {reference, tip_block()});
  // The original still reads exactly its own rows.
  EXPECT_EQ(base.row_count(), reference.row_count());
  expect_rows(base, {reference});

  // And again from the new tip: a chain of deltas shares one buffer.
  data::Table third = next;
  third.append_rows(tip_block());
  expect_same_storage(third, base);
  expect_rows(third, {reference, tip_block(), tip_block()});
}

TEST(SharedStorageTest, BranchReallocatesAndLeavesBothCutsCorrect) {
  const data::Table base = tip_base();
  const data::Table reference = tip_base();
  const data::Table other = make_wave(4, 4, 0, 4);

  data::Table first = base;
  first.append_rows(tip_block());  // takes the tip
  data::Table branch = base;
  branch.append_rows(other);       // tip already taken: its own buffer
  expect_same_storage(first, base);
  EXPECT_NE(pointers(branch).v, pointers(base).v);
  EXPECT_NE(pointers(branch).field, pointers(base).field);
  EXPECT_NE(pointers(branch).masks, pointers(base).masks);
  EXPECT_NE(pointers(branch).missing, pointers(base).missing);

  expect_rows(base, {reference});
  expect_rows(first, {reference, tip_block()});
  expect_rows(branch, {reference, other});
}

TEST(SharedStorageTest, MutatingASharedCopyNeverChangesTheOriginal) {
  const data::Table base = tip_base();
  const data::Table reference = tip_base();

  data::Table edited = base;
  edited.numeric("v").set(0, 99.0);
  edited.categorical("field").set_code(1, 1);
  edited.multiselect("m").set_mask(2, 1);
  expect_rows(base, {reference});
  EXPECT_EQ(edited.numeric("v").at(0), 99.0);
  EXPECT_EQ(edited.categorical("field").code_at(1), 1);
  EXPECT_EQ(edited.multiselect("m").mask_at(2), 1u);
  EXPECT_NE(pointers(edited).v, pointers(base).v);

  data::Table cleared = base;
  cleared.clear_rows();
  cleared.numeric("v").push(-1.0);
  cleared.categorical("field").push("b");
  cleared.multiselect("m").push_missing();
  EXPECT_EQ(cleared.row_count(), 1u);
  EXPECT_EQ(cleared.numeric("v").at(0), -1.0);
  expect_rows(base, {reference});
}

TEST(SharedStorageTest, SoleOwnerMutatesInPlace) {
  data::Table t = tip_base();
  const ColumnPointers before = pointers(t);
  {
    const data::Table copy = t;  // shared while it lives
  }
  t.numeric("v").set(0, 5.0);
  t.clear_rows();
  t.numeric("v").push(6.0);
  EXPECT_EQ(t.numeric("v").values().data(), before.v);
  EXPECT_EQ(t.numeric("v").at(0), 6.0);
}

TEST(SharedStorageTest, BorrowedColumnMaterializesOnceOnFirstAppend) {
  // A read-only page pinned by a shared_ptr, as a mapped snapshot is.
  auto page = std::make_shared<const std::vector<double>>(
      std::vector<double>{1, 2, 3, 4, 5, 6, 7, 8});
  auto col = data::PageVec<double>::borrowed(page->data(), page->size(), page);
  const data::PageVec<double> view = col;
  ASSERT_TRUE(col.is_borrowed());

  const data::PageVec<double> block =
      data::PageVec<double>::for_overwrite(2, [](double* out) {
        out[0] = 4.0;
        out[1] = 5.0;
      });
  col.append(block);
  EXPECT_FALSE(col.is_borrowed());
  const double* materialized = col.data();
  EXPECT_NE(materialized, page->data());
  col.append(block);
  EXPECT_EQ(col.data(), materialized);  // in place from here on
  const std::vector<double> want = {1, 2, 3, 4, 5, 6, 7, 8, 4, 5, 4, 5};
  ASSERT_EQ(col.size(), want.size());
  EXPECT_TRUE(std::equal(col.begin(), col.end(), want.begin()));
  // The borrowed view still aliases the page.
  EXPECT_TRUE(view.is_borrowed());
  EXPECT_EQ(view.data(), page->data());
  EXPECT_EQ((*page)[0], 1.0);
}

TEST(SharedStorageTest, SelfAppendStillWorks) {
  const data::Table reference = tip_base();
  data::Table t = tip_base();
  t.append_rows(t);  // 66 rows outgrow the 64-row buffer: reallocates
  expect_rows(t, {reference, reference});

  data::Table shared = tip_base();
  const data::Table keep = shared;
  shared.append_rows(shared);
  shared.append_rows(shared);
  expect_rows(shared, {reference, reference, reference, reference});
  expect_rows(keep, {reference});

  // A self-append that fits at the tip extends in place.
  data::PageVec<double> v;
  for (int i = 0; i < 33; ++i) v.push_back(i);
  const double* before = v.data();
  v.append(v, 1, 32);
  EXPECT_EQ(v.data(), before);
  ASSERT_EQ(v.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i)
    EXPECT_EQ(v[i], static_cast<double>(i < 33 ? i : i - 32));
}

// One writer appends at the tip again and again, publishing each new cut;
// readers check the cuts published so far while the writer keeps
// extending their buffer, and a brancher appends its own rows to published
// cuts, racing the writer for the tip. Run under TSan in CI.
TEST(SharedStorageTest, ConcurrentTipAppendsReadersAndBranch) {
  constexpr std::size_t kAppends = 400, kBlock = 5;
  constexpr std::uint64_t kBranchValue = 1'000'000;
  using Bytes = data::PageVec<std::uint8_t>;
  using Words = data::PageVec<std::uint64_t>;
  struct Cut {
    Words words;
    Bytes bytes;
  };
  const auto block_at = [](std::uint64_t first) {
    return Cut{Words::for_overwrite(kBlock,
                                    [&](std::uint64_t* out) {
                                      for (std::size_t i = 0; i < kBlock; ++i)
                                        out[i] = first + i;
                                    }),
               Bytes::for_overwrite(kBlock, [&](std::uint8_t* out) {
                 for (std::size_t i = 0; i < kBlock; ++i)
                   out[i] = static_cast<std::uint8_t>(first + i);
               })};
  };
  // Row i of every writer cut holds i; a branch's own rows hold
  // kBranchValue + their offset past the branch point.
  const auto valid = [&](const Cut& c, std::size_t writer_rows) {
    if (c.words.size() != c.bytes.size()) return false;
    for (std::size_t i = 0; i < c.words.size(); ++i) {
      const std::uint64_t want =
          i < writer_rows ? i : kBranchValue + (i - writer_rows);
      if (c.words[i] != want || c.bytes[i] != static_cast<std::uint8_t>(want))
        return false;
    }
    return true;
  };

  std::mutex m;
  std::vector<Cut> published{Cut{}};
  std::atomic<bool> done{false};
  std::atomic<std::size_t> bad{0};
  const auto pick = [&](std::size_t salt, bool newest) {
    std::lock_guard<std::mutex> lock(m);
    return newest ? published.back() : published[salt % published.size()];
  };

  std::vector<std::thread> threads;
  for (std::size_t r = 0; r < 3; ++r)
    threads.emplace_back([&, r] {
      for (std::size_t i = r; !done.load(); i += 7) {
        const Cut c = pick(i, false);
        if (!valid(c, c.words.size())) bad.fetch_add(1);
      }
    });
  threads.emplace_back([&] {
    for (std::size_t i = 0; !done.load(); ++i) {
      Cut c = pick(i, i % 2 == 0);  // the newest races the writer
      const std::size_t at = c.words.size();
      const Cut extra = block_at(kBranchValue);
      c.words.append(extra.words);
      c.bytes.append(extra.bytes);
      if (!valid(c, at)) bad.fetch_add(1);
    }
  });

  Cut head;
  for (std::size_t a = 0; a < kAppends; ++a) {
    Cut next = head;
    const Cut block = block_at(a * kBlock);
    next.words.append(block.words);
    next.bytes.append(block.bytes);
    {
      std::lock_guard<std::mutex> lock(m);
      published.push_back(next);
    }
    head = std::move(next);
  }
  done.store(true);
  for (auto& t : threads) t.join();

  EXPECT_EQ(bad.load(), 0u);
  for (const Cut& c : published) EXPECT_TRUE(valid(c, c.words.size()));
  EXPECT_EQ(head.words.size(), kAppends * kBlock);
}

TEST(PerGroupTrendTest, SplitsByGroupAndAdjusts) {
  // Group a: 10% -> 60% (strong shift); group b: flat 50%.
  const auto w1 = make_wave(10, 100, 50, 100);
  const auto w2 = make_wave(240, 400, 200, 400);
  const auto trends = trend::per_group_trend(w1, w2, "field", "m", "x");
  ASSERT_EQ(trends.size(), 2u);
  EXPECT_EQ(trends[0].indicator, "a");
  EXPECT_EQ(trends[0].direction, trend::Direction::kIncrease);
  EXPECT_EQ(trends[1].indicator, "b");
  EXPECT_EQ(trends[1].direction, trend::Direction::kStable);
  // Holm within the family: adjusted >= raw.
  for (const auto& t : trends) EXPECT_GE(t.p_adjusted, t.test.p_value);
}

TEST(PerGroupTrendTest, SkipsSmallGroups) {
  const auto w1 = make_wave(1, 3, 50, 100);  // group a too small
  const auto w2 = make_wave(2, 3, 60, 100);
  const auto trends =
      trend::per_group_trend(w1, w2, "field", "m", "x", /*min_group_n=*/5);
  ASSERT_EQ(trends.size(), 1u);
  EXPECT_EQ(trends[0].indicator, "b");
}

TEST(PerGroupTrendTest, RejectsMismatchedCategorySets) {
  const auto w1 = make_wave(1, 5, 1, 5);
  data::Table w2;
  w2.add_categorical("field", {"a", "z"});
  w2.add_multiselect("m", {"x"});
  w2.add_numeric("v");
  EXPECT_THROW(trend::per_group_trend(w1, w2, "field", "m", "x"),
               rcr::Error);
}

}  // namespace
}  // namespace rcr
