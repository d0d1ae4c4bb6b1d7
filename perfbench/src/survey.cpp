#include "survey.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <stdexcept>

namespace perfbench {

using rcr::serve::QueryKind;
using rcr::serve::QuerySpec;

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

namespace {

// Upper bounds on dictionary sizes, fixing the tally layout.
constexpr int kMaxCategories = 8;
constexpr int kMaxOptions = 10;
constexpr int kColumns = kCategoricals + kMultiselects + kNumerics;

const std::vector<std::vector<std::string>>& category_labels() {
  static const std::vector<std::vector<std::string>> labels = {
      {"Physics", "Biology, wet lab", "Computer \"systems\"", "Earth science",
       "Chemistry", "Mathematics, applied", "Social science", "Engineering"},
      {"Student", "Postdoc", "Faculty", "Staff scientist", "Industry, R&D"},
      {"United States", "Germany", "Japan", "Brazil", "India",
       "Korea, Republic of"},
      {"University", "National lab", "Company", "Other"},
  };
  return labels;
}

const std::vector<std::vector<std::string>>& option_labels() {
  static const std::vector<std::vector<std::string>> labels = {
      {"Python", "C++", "Fortran", "R", "Julia", "MATLAB", "Java", "Rust", "C",
       "Shell, \"bash\""},
      {"Git", "CI", "Unit tests", "Containers", "Debugger", "Profiler", "MPI",
       "OpenMP"},
  };
  return labels;
}

// Relative popularity of each category / per-mille selection rate of each
// option, and per-mille missing rates per column.
const int kCategoryWeights[kCategoricals][kMaxCategories] = {
    {30, 22, 15, 10, 9, 6, 5, 3},
    {35, 20, 25, 12, 8},
    {40, 18, 12, 10, 12, 8},
    {55, 25, 15, 5},
};
const int kCategoryMissing[kCategoricals] = {30, 20, 0, 50};
const int kOptionRates[kMultiselects][kMaxOptions] = {
    {800, 420, 180, 260, 90, 220, 110, 60, 300, 500},
    {850, 400, 450, 300, 350, 200, 250, 220},
};
const int kMultiselectMissing[kMultiselects] = {40, 60};
const int kNumericMissing[kNumerics] = {50, 70, 0};

const std::vector<std::string>& categorical_names() {
  static const std::vector<std::string> n = {"field", "career", "country",
                                             "org"};
  return n;
}
const std::vector<std::string>& multiselect_names() {
  static const std::vector<std::string> n = {"languages", "tools"};
  return n;
}
const std::vector<std::string>& numeric_names() {
  static const std::vector<std::string> n = {"cores", "hours", "weight"};
  return n;
}

enum class ColKind { kCategorical, kMultiselect, kNumeric };
struct ColRef {
  ColKind kind;
  int index;
};

ColRef col_ref(const std::string& name) {
  for (int i = 0; i < kCategoricals; ++i)
    if (categorical_names()[i] == name) return {ColKind::kCategorical, i};
  for (int i = 0; i < kMultiselects; ++i)
    if (multiselect_names()[i] == name) return {ColKind::kMultiselect, i};
  for (int i = 0; i < kNumerics; ++i)
    if (numeric_names()[i] == name) return {ColKind::kNumeric, i};
  throw std::runtime_error("unknown column " + name);
}

const std::vector<std::string>& labels_of(const std::string& column) {
  const ColRef c = col_ref(column);
  if (c.kind == ColKind::kCategorical) return category_labels()[c.index];
  if (c.kind == ColKind::kMultiselect) return option_labels()[c.index];
  throw std::runtime_error("numeric column has no labels: " + column);
}

// Position of a column among all kColumns (group-answered layout).
int flat_index(const ColRef& c) {
  switch (c.kind) {
    case ColKind::kCategorical: return c.index;
    case ColKind::kMultiselect: return kCategoricals + c.index;
    case ColKind::kNumeric: return kCategoricals + kMultiselects + c.index;
  }
  return 0;
}

bool answered(const Row& row, int flat) {
  if (flat < kCategoricals) return row.cat[flat] >= 0;
  if (flat < kCategoricals + kMultiselects)
    return !row.ms_missing[flat - kCategoricals];
  return !std::isnan(row.num[flat - kCategoricals - kMultiselects]);
}

// Tally layout: offsets into one flat vector of doubles.
constexpr std::size_t kPairCells = kMaxCategories * kMaxCategories;
constexpr std::size_t kOffPair = 0;  // [a][b][w] -> kPairCells
constexpr std::size_t kOffCms =
    kOffPair + kCategoricals * kCategoricals * 2 * kPairCells;
constexpr std::size_t kCmsCells = kMaxCategories * kMaxOptions;
constexpr std::size_t kOffCatCount =
    kOffCms + kCategoricals * kMultiselects * 2 * kCmsCells;
constexpr std::size_t kOffMsAnswered =
    kOffCatCount + kCategoricals * kMaxCategories;
constexpr std::size_t kOffMsOption = kOffMsAnswered + kMultiselects;
constexpr std::size_t kOffNumeric = kOffMsOption + kMultiselects * kMaxOptions;
constexpr std::size_t kOffGroup = kOffNumeric + kNumerics * 4;
constexpr std::size_t kTallyCells =
    kOffGroup + kCategoricals * kColumns * kMaxCategories;

std::size_t pair_at(int a, int b, int weighted) {
  return kOffPair + ((a * kCategoricals + b) * 2 + weighted) * kPairCells;
}
std::size_t cms_at(int a, int m, int weighted) {
  return kOffCms + ((a * kMultiselects + m) * 2 + weighted) * kCmsCells;
}
std::size_t group_at(int c, int flat) {
  return kOffGroup + (c * kColumns + flat) * kMaxCategories;
}

int pick(Rng& rng, const int* weights, int n) {
  int total = 0;
  for (int i = 0; i < n; ++i) total += weights[i];
  int r = static_cast<int>(rng.below(static_cast<std::uint64_t>(total)));
  for (int i = 0; i < n; ++i) {
    if (r < weights[i]) return i;
    r -= weights[i];
  }
  return n - 1;
}

Row make_row(Rng& rng) {
  Row row;
  for (int c = 0; c < kCategoricals; ++c) {
    const int n = static_cast<int>(category_labels()[c].size());
    row.cat[c] = rng.chance(kCategoryMissing[c])
                     ? -1
                     : pick(rng, kCategoryWeights[c], n);
  }
  for (int m = 0; m < kMultiselects; ++m) {
    row.ms_missing[m] = rng.chance(kMultiselectMissing[m]);
    if (row.ms_missing[m]) continue;
    // A few answered-nothing rows (the '-' cell) besides the selections.
    if (rng.chance(30)) continue;
    const int n = static_cast<int>(option_labels()[m].size());
    for (int o = 0; o < n; ++o)
      if (rng.chance(kOptionRates[m][o])) row.mask[m] |= 1ULL << o;
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  row.num[0] = nan;
  if (!rng.chance(kNumericMissing[0])) {
    const std::uint64_t octave = rng.below(13);  // draws in a fixed order
    row.num[0] = static_cast<double>((1u << octave) + rng.below(8));
  }
  row.num[1] = rng.chance(kNumericMissing[1])
                   ? nan
                   : static_cast<double>(rng.below(321)) / 4.0;
  row.num[2] = static_cast<double>(2 + rng.below(31)) / 8.0;
  return row;
}

bool needs_quotes(const std::string& s) {
  return s.find_first_of(",\"\r\n") != std::string::npos ||
         (!s.empty() && (s.front() == ' ' || s.back() == ' '));
}

void put_cell(std::string& out, const std::string& text, bool force_quotes) {
  if (!force_quotes && !needs_quotes(text)) {
    out += text;
    return;
  }
  out += '"';
  for (char ch : text) {
    if (ch == '"') out += '"';
    out += ch;
  }
  out += '"';
}

void put_number(std::string& out, double v, bool pad) {
  char buf[32];
  std::snprintf(buf, sizeof buf, pad ? " %.17g " : "%.17g", v);
  out += buf;
}

}  // namespace

rcr::data::Table wave_schema() {
  rcr::data::Table t;
  for (int c = 0; c < kCategoricals; ++c)
    t.add_categorical(categorical_names()[c], category_labels()[c]).freeze();
  for (int m = 0; m < kMultiselects; ++m)
    t.add_multiselect(multiselect_names()[m], option_labels()[m]);
  for (int n = 0; n < kNumerics; ++n) t.add_numeric(numeric_names()[n]);
  return t;
}

rcr::data::Table make_table(Rng& rng, std::size_t rows, Tally& tally) {
  rcr::data::Table t = wave_schema();
  rcr::data::CategoricalColumn* cats[kCategoricals];
  rcr::data::MultiSelectColumn* mss[kMultiselects];
  rcr::data::NumericColumn* nums[kNumerics];
  for (int c = 0; c < kCategoricals; ++c)
    cats[c] = &t.categorical(categorical_names()[c]);
  for (int m = 0; m < kMultiselects; ++m)
    mss[m] = &t.multiselect(multiselect_names()[m]);
  for (int n = 0; n < kNumerics; ++n) nums[n] = &t.numeric(numeric_names()[n]);
  for (std::size_t i = 0; i < rows; ++i) {
    const Row row = make_row(rng);
    tally.add(row);
    for (int c = 0; c < kCategoricals; ++c) {
      if (row.cat[c] < 0)
        cats[c]->push_missing();
      else
        cats[c]->push_code(row.cat[c]);
    }
    for (int m = 0; m < kMultiselects; ++m) {
      if (row.ms_missing[m])
        mss[m]->push_missing();
      else
        mss[m]->push_mask(row.mask[m]);
    }
    for (int n = 0; n < kNumerics; ++n) nums[n]->push(row.num[n]);
  }
  return t;
}

std::string make_csv(Rng& rng, std::size_t rows, Tally& tally) {
  // Columns in a seed-dependent order; the reader maps them by header name.
  std::vector<int> order(kColumns);
  for (int i = 0; i < kColumns; ++i) order[i] = i;
  for (int i = kColumns - 1; i > 0; --i)
    std::swap(order[i], order[rng.below(static_cast<std::uint64_t>(i) + 1)]);

  std::string out;
  out.reserve(rows * 96);
  for (int i = 0; i < kColumns; ++i) {
    if (i) out += ',';
    const int f = order[i];
    out += f < kCategoricals ? categorical_names()[f]
           : f < kCategoricals + kMultiselects
               ? multiselect_names()[f - kCategoricals]
               : numeric_names()[f - kCategoricals - kMultiselects];
  }
  out += '\n';

  std::string cell;
  for (std::size_t r = 0; r < rows; ++r) {
    const Row row = make_row(rng);
    tally.add(row);
    for (int i = 0; i < kColumns; ++i) {
      if (i) out += ',';
      const int f = order[i];
      if (f < kCategoricals) {
        if (row.cat[f] >= 0)
          put_cell(out, category_labels()[f][row.cat[f]], rng.chance(100));
      } else if (f < kCategoricals + kMultiselects) {
        const int m = f - kCategoricals;
        if (row.ms_missing[m]) continue;
        if (row.mask[m] == 0) {
          out += '-';
          continue;
        }
        cell.clear();
        for (int o = 0; o < kMaxOptions; ++o) {
          if (!(row.mask[m] >> o & 1)) continue;
          if (!cell.empty()) cell += '|';
          cell += option_labels()[m][o];
        }
        put_cell(out, cell, false);
      } else {
        const double v = row.num[f - kCategoricals - kMultiselects];
        if (!std::isnan(v)) put_number(out, v, rng.chance(50));
      }
    }
    out += '\n';
  }
  return out;
}

Tally::Tally() : cells_(kTallyCells, 0.0) {
  for (int n = 0; n < kNumerics; ++n) {
    cells_[kOffNumeric + n * 4 + 2] = std::numeric_limits<double>::infinity();
    cells_[kOffNumeric + n * 4 + 3] = -std::numeric_limits<double>::infinity();
  }
}

void Tally::add(const Row& row) {
  rows_ += 1.0;
  const double w = row.num[2];
  for (int a = 0; a < kCategoricals; ++a) {
    const int ka = row.cat[a];
    for (int flat = 0; flat < kColumns; ++flat)
      if (ka >= 0 && answered(row, flat)) cells_[group_at(a, flat) + ka] += 1.0;
    if (ka < 0) continue;
    cells_[kOffCatCount + a * kMaxCategories + ka] += 1.0;
    for (int b = 0; b < kCategoricals; ++b) {
      const int kb = row.cat[b];
      if (b == a || kb < 0) continue;
      cells_[pair_at(a, b, 0) + ka * kMaxCategories + kb] += 1.0;
      cells_[pair_at(a, b, 1) + ka * kMaxCategories + kb] += w;
    }
    for (int m = 0; m < kMultiselects; ++m) {
      if (row.ms_missing[m]) continue;
      for (std::uint64_t bits = row.mask[m]; bits; bits &= bits - 1) {
        const int o = std::countr_zero(bits);
        cells_[cms_at(a, m, 0) + ka * kMaxOptions + o] += 1.0;
        cells_[cms_at(a, m, 1) + ka * kMaxOptions + o] += w;
      }
    }
  }
  for (int m = 0; m < kMultiselects; ++m) {
    if (row.ms_missing[m]) continue;
    cells_[kOffMsAnswered + m] += 1.0;
    for (std::uint64_t bits = row.mask[m]; bits; bits &= bits - 1)
      cells_[kOffMsOption + m * kMaxOptions + std::countr_zero(bits)] += 1.0;
  }
  for (int n = 0; n < kNumerics; ++n) {
    const double v = row.num[n];
    if (std::isnan(v)) continue;
    double* s = &cells_[kOffNumeric + n * 4];
    s[0] += 1.0;
    s[1] += v;
    s[2] = std::min(s[2], v);
    s[3] = std::max(s[3], v);
  }
}

void Tally::merge(const Tally& other) {
  rows_ += other.rows_;
  for (std::size_t i = 0; i < kTallyCells; ++i) {
    const bool numeric = i >= kOffNumeric && i < kOffGroup;
    const std::size_t slot = (i - kOffNumeric) % 4;
    if (numeric && slot == 2)
      cells_[i] = std::min(cells_[i], other.cells_[i]);
    else if (numeric && slot == 3)
      cells_[i] = std::max(cells_[i], other.cells_[i]);
    else
      cells_[i] += other.cells_[i];
  }
}

oracle::Expected Tally::expect(const QuerySpec& spec) const {
  oracle::Expected e;
  e.kind = static_cast<oracle::Kind>(spec.kind);
  const ColRef a = col_ref(spec.a);
  const int weighted = spec.weight.empty() ? 0 : 1;
  switch (spec.kind) {
    case QueryKind::kCrosstab: {
      const ColRef b = col_ref(spec.b);
      e.row_labels = labels_of(spec.a);
      e.col_labels = labels_of(spec.b);
      for (std::size_t i = 0; i < e.row_labels.size(); ++i)
        for (std::size_t j = 0; j < e.col_labels.size(); ++j)
          e.values.push_back(cells_[pair_at(a.index, b.index, weighted) +
                                    i * kMaxCategories + j]);
      break;
    }
    case QueryKind::kCrosstabMultiselect: {
      const ColRef m = col_ref(spec.b);
      e.row_labels = labels_of(spec.a);
      e.col_labels = labels_of(spec.b);
      for (std::size_t i = 0; i < e.row_labels.size(); ++i)
        for (std::size_t j = 0; j < e.col_labels.size(); ++j)
          e.values.push_back(
              cells_[cms_at(a.index, m.index, weighted) + i * kMaxOptions + j]);
      break;
    }
    case QueryKind::kCategoryShares: {
      e.row_labels = labels_of(spec.a);
      for (std::size_t i = 0; i < e.row_labels.size(); ++i) {
        e.values.push_back(cells_[kOffCatCount + a.index * kMaxCategories + i]);
        e.total += e.values.back();
      }
      break;
    }
    case QueryKind::kOptionShares: {
      e.row_labels = labels_of(spec.a);
      for (std::size_t i = 0; i < e.row_labels.size(); ++i)
        e.values.push_back(cells_[kOffMsOption + a.index * kMaxOptions + i]);
      e.total = cells_[kOffMsAnswered + a.index];
      break;
    }
    case QueryKind::kNumericSummary: {
      const double* s = &cells_[kOffNumeric + a.index * 4];
      const double nan = std::numeric_limits<double>::quiet_NaN();
      e.values = {s[0], s[1], s[0] > 0 ? s[2] : nan, s[0] > 0 ? s[3] : nan};
      break;
    }
    case QueryKind::kGroupAnswered: {
      const int flat = flat_index(col_ref(spec.b));
      for (std::size_t i = 0; i < labels_of(spec.a).size(); ++i)
        e.values.push_back(cells_[group_at(a.index, flat) + i]);
      break;
    }
  }
  return e;
}

std::vector<double> Tally::save() const {
  std::vector<double> flat;
  flat.reserve(kTallyCells + 1);
  flat.push_back(rows_);
  flat.insert(flat.end(), cells_.begin(), cells_.end());
  return flat;
}

Tally Tally::load(const std::vector<double>& flat) {
  if (flat.size() != kTallyCells + 1)
    throw std::runtime_error("tally file has the wrong size");
  Tally t;
  t.rows_ = flat[0];
  std::copy(flat.begin() + 1, flat.end(), t.cells_.begin());
  return t;
}

std::vector<QuerySpec> study_batch() {
  auto spec = [](QueryKind k, std::string a, std::string b = "",
                 std::string w = "") {
    QuerySpec s;
    s.kind = k;
    s.a = std::move(a);
    s.b = std::move(b);
    s.weight = std::move(w);
    return rcr::serve::canonicalize(s);
  };
  return {
      spec(QueryKind::kCrosstab, "field", "career"),
      spec(QueryKind::kCrosstab, "field", "career", "weight"),
      spec(QueryKind::kCrosstab, "country", "org"),
      spec(QueryKind::kCrosstabMultiselect, "career", "languages"),
      spec(QueryKind::kCrosstabMultiselect, "field", "tools", "weight"),
      spec(QueryKind::kCategoryShares, "field"),
      spec(QueryKind::kCategoryShares, "org"),
      spec(QueryKind::kOptionShares, "languages"),
      spec(QueryKind::kOptionShares, "tools"),
      spec(QueryKind::kNumericSummary, "cores"),
      spec(QueryKind::kNumericSummary, "hours"),
      spec(QueryKind::kGroupAnswered, "field", "languages"),
      spec(QueryKind::kGroupAnswered, "country", "hours"),
  };
}

std::vector<QuerySpec> spec_catalog(std::size_t size) {
  std::vector<QuerySpec> out;
  std::vector<QuerySpec> shares;
  auto add = [&](QueryKind k, const std::string& a, const std::string& b,
                 const std::string& w) {
    QuerySpec s;
    s.kind = k;
    s.a = a;
    s.b = b;
    s.weight = w;
    out.push_back(rcr::serve::canonicalize(s));
    if (k == QueryKind::kCategoryShares || k == QueryKind::kOptionShares)
      shares.push_back(out.back());
  };
  std::vector<std::string> all = categorical_names();
  all.insert(all.end(), multiselect_names().begin(), multiselect_names().end());
  all.insert(all.end(), numeric_names().begin(), numeric_names().end());
  for (const auto& a : categorical_names()) {
    for (const auto& b : categorical_names()) {
      if (a == b) continue;
      add(QueryKind::kCrosstab, a, b, "");
      add(QueryKind::kCrosstab, a, b, "weight");
    }
    for (const auto& m : multiselect_names()) {
      add(QueryKind::kCrosstabMultiselect, a, m, "");
      add(QueryKind::kCrosstabMultiselect, a, m, "weight");
    }
    add(QueryKind::kCategoryShares, a, "", "");
    for (const auto& b : all)
      if (b != a) add(QueryKind::kGroupAnswered, a, b, "");
  }
  for (const auto& m : multiselect_names())
    add(QueryKind::kOptionShares, m, "", "");
  for (const auto& n : numeric_names())
    add(QueryKind::kNumericSummary, n, "", "");
  for (std::size_t i = 1; out.size() < size; ++i) {
    for (const auto& s : shares) {
      if (out.size() >= size) break;
      QuerySpec v = s;
      v.confidence = 0.95 - 1e-4 * static_cast<double>(i);
      out.push_back(v);
    }
  }
  out.resize(std::min(out.size(), size));
  return out;
}

void write_doubles(const std::string& path, const std::vector<double>& v) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  const std::uint64_t n = v.size();
  f.write(reinterpret_cast<const char*>(&n), sizeof n);
  f.write(reinterpret_cast<const char*>(v.data()),
          static_cast<std::streamsize>(n * sizeof(double)));
  if (!f) throw std::runtime_error("cannot write " + path);
}

std::vector<double> read_doubles(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  std::uint64_t n = 0;
  f.read(reinterpret_cast<char*>(&n), sizeof n);
  if (!f || n > (1u << 26)) throw std::runtime_error("cannot read " + path);
  std::vector<double> v(n);
  f.read(reinterpret_cast<char*>(v.data()),
         static_cast<std::streamsize>(n * sizeof(double)));
  if (!f) throw std::runtime_error("truncated " + path);
  return v;
}

}  // namespace perfbench
