// Self-test of the benchmark's oracles: real bodies from the program must
// pass, and planted wrong answers — another spec's body, an off-by-one
// count, a stale epoch's body — must each count as a failed operation.
//
//   .bench_build/oracle_test    (exit 0 = every case behaved)
#include <cstdio>
#include <string>
#include <vector>

#include "oracle.hpp"
#include "query/engine.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "survey.hpp"

namespace {

using namespace perfbench;
namespace serve = rcr::serve;

int g_errors = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "oracle_test: FAILED: %s\n", what.c_str());
  ++g_errors;
}

}  // namespace

int main() {
  Rng rng(42);
  Tally tally;
  const rcr::data::Table table = make_table(rng, 20000, tally);
  const auto specs = study_batch();

  rcr::query::QueryEngine engine(table);
  std::vector<rcr::query::QueryId> ids;
  for (const auto& s : specs) ids.push_back(serve::register_spec(engine, s));
  engine.run();

  // 1. Every true body passes.
  oracle::Ledger ledger;
  for (std::size_t i = 0; i < specs.size(); ++i)
    ledger.record(oracle::check_body(
        tally.expect(specs[i]),
        serve::encode_result_body(engine, ids[i], specs[i])));
  expect(ledger.failed == 0, "true bodies pass: " + ledger.first_failure);

  // 2. Another spec's body fails, for every neighbouring pair.
  oracle::Ledger swapped;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const std::size_t j = (i + 1) % specs.size();
    swapped.record(oracle::check_body(
        tally.expect(specs[i]),
        serve::encode_result_body(engine, ids[j], specs[j])));
  }
  expect(swapped.failed == specs.size(), "another spec's body fails");

  // 3. An off-by-one count fails, in every result shape.
  oracle::Ledger off;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    rcr::query::QueryResult r = engine.raw_result(ids[i]);
    switch (specs[i].kind) {
      case serve::QueryKind::kCrosstab:
      case serve::QueryKind::kCrosstabMultiselect:
        r.crosstab.counts.at(0, 0) += 1.0;
        break;
      case serve::QueryKind::kCategoryShares:
      case serve::QueryKind::kOptionShares:
        r.shares[0].count += 1.0;
        break;
      case serve::QueryKind::kNumericSummary:
        r.numeric.count += 1.0;
        break;
      case serve::QueryKind::kGroupAnswered:
        r.group_counts[0] += 1.0;
        break;
    }
    off.record(oracle::check_body(tally.expect(specs[i]),
                                  serve::encode_result_body(r, specs[i])));
  }
  expect(off.failed == specs.size(), "off-by-one counts fail");

  // 4. A stale epoch's body fails against the head epoch's tallies, with
  //    either epoch's fingerprint; the head's own response passes.
  serve::Server server;
  server.register_snapshot(1, table);
  for (const auto& s : specs) server.handle({1, s});
  Tally block_tally;
  const rcr::data::Table block = make_table(rng, 5000, block_tally);
  server.append_delta(1, 2, block);
  Tally head = tally;
  head.merge(block_tally);
  oracle::Ledger stale, fresh;
  for (const auto& s : specs) {
    const serve::Response old_resp = server.handle({1, s});
    const serve::Response new_resp = server.handle({2, s});
    const std::uint64_t fp = serve::fingerprint(2, s);
    stale.record(oracle::check_response(head.expect(s), fp,
                                        old_resp.fingerprint, old_resp.body));
    stale.record(oracle::check_response(head.expect(s), fp, fp, old_resp.body));
    fresh.record(oracle::check_response(head.expect(s), fp,
                                        new_resp.fingerprint, new_resp.body));
  }
  expect(stale.failed == 2 * specs.size(), "stale epoch bodies fail");
  expect(fresh.failed == 0, "head epoch bodies pass: " + fresh.first_failure);

  // 5. The ledger counts what it is given.
  oracle::Ledger all;
  all.merge(ledger);
  all.merge(swapped);
  all.merge(off);
  all.merge(stale);
  all.merge(fresh);
  expect(all.attempted == 6 * specs.size() && all.failed == 4 * specs.size(),
         "ledger totals");

  if (g_errors == 0) std::printf("oracle_test: all oracle cases passed\n");
  return g_errors == 0 ? 0 : 1;
}
