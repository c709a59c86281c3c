// Query planner tests (src/db/plan.{h,cc} + Database::MatchRows planned
// path): index probe selection (equality, IN, range/BETWEEN, IS NULL, OR
// union, conjunct intersection), plan cache behavior and invalidation, the
// DbStats counter contract, ordered-index maintenance under transaction
// rollback, and the chunked residual executor against the interpreter
// reference (tests/reference_match.h).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/db/database.h"
#include "src/sql/compile.h"
#include "src/sql/parser.h"
#include "src/sql/verify.h"
#include "tests/reference_match.h"

namespace edna::db {
namespace {

using sql::Value;
using testing::MatchesReference;

sql::ExprPtr Pred(const std::string& text) {
  auto e = sql::ParseExpression(text);
  EXPECT_TRUE(e.ok()) << e.status();
  return std::move(*e);
}

// events: id (PK), user_id (FK-style declared index), score (declared
// index, ordered), kind (declared index), note (unindexed).
class PlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema events("events");
    events
        .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "user_id", .type = ColumnType::kInt, .nullable = true})
        .AddColumn({.name = "score", .type = ColumnType::kInt, .nullable = false})
        .AddColumn({.name = "kind", .type = ColumnType::kString, .nullable = false})
        .AddColumn({.name = "note", .type = ColumnType::kString, .nullable = true})
        .SetPrimaryKey({"id"})
        .AddIndex("user_id")
        .AddIndex("score")
        .AddIndex("kind");
    ASSERT_TRUE(db_.CreateTable(std::move(events)).ok());

    // 30 rows: user_id cycles 1..5 with every 6th NULL; score = i;
    // kind alternates click/view; note unindexed.
    for (int i = 0; i < 30; ++i) {
      Value uid = (i % 6 == 5) ? Value::Null() : Value::Int(1 + (i % 5));
      auto id = db_.InsertValues(
          "events", {{"user_id", uid},
                     {"score", Value::Int(i)},
                     {"kind", Value::String(i % 2 == 0 ? "click" : "view")},
                     {"note", Value::String("n" + std::to_string(i))}});
      ASSERT_TRUE(id.ok()) << id.status();
    }
    db_.ResetStats();
  }

  std::vector<int64_t> SelectScores(const std::string& pred_text,
                                    const sql::ParamMap& params = {}) {
    auto pred = Pred(pred_text);
    auto rows = db_.Select("events", pred.get(), params);
    EXPECT_TRUE(rows.ok()) << rows.status();
    std::vector<int64_t> scores;
    for (const RowRef& ref : *rows) {
      scores.push_back((*ref.row)[2].AsInt());
    }
    return scores;
  }

  Database db_;
};

TEST_F(PlannerTest, RangeProbeAvoidsFullScan) {
  auto scores = SelectScores("\"score\" >= 10 AND \"score\" < 15");
  EXPECT_EQ(scores, (std::vector<int64_t>{10, 11, 12, 13, 14}));
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().range_probes, 1u);
  // The residual only examined the 5 in-range candidates, not all 30 rows.
  EXPECT_EQ(db_.stats().rows_examined, 5u);
}

TEST_F(PlannerTest, BetweenProbesOrderedIndex) {
  auto scores = SelectScores("\"score\" BETWEEN 7 AND 9");
  EXPECT_EQ(scores, (std::vector<int64_t>{7, 8, 9}));
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().range_probes, 1u);
}

TEST_F(PlannerTest, PkRangeUsesPrimaryKeyOrder) {
  auto pred = Pred("\"id\" <= 3");
  auto rows = db_.Select("events", pred.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().range_probes, 1u);
}

TEST_F(PlannerTest, InListIsMultiProbe) {
  auto scores = SelectScores("\"score\" IN (3, 17, 99)");
  EXPECT_EQ(scores, (std::vector<int64_t>{3, 17}));
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().index_lookups, 3u);  // one per IN item
  // The lone IN conjunct IS the plan (exact): no residual row work at all.
  EXPECT_EQ(db_.stats().rows_examined, 0u);
}

TEST_F(PlannerTest, EqualityConjunctsIntersect) {
  // Both conjuncts indexed: candidates = intersection, so the residual
  // examines at most min(|user_id=2|, |kind=click|) rows.
  auto scores = SelectScores("\"user_id\" = 2 AND \"kind\" = 'click'");
  for (int64_t s : scores) {
    EXPECT_EQ(s % 2, 0);  // click rows have even scores
  }
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().index_lookups, 2u);
  EXPECT_LE(db_.stats().rows_examined, 5u);  // |user_id=2| = 5
}

TEST_F(PlannerTest, OrOfIndexableArmsIsUnionProbe) {
  auto scores = SelectScores("\"score\" = 4 OR \"user_id\" = 3");
  EXPECT_FALSE(scores.empty());
  EXPECT_EQ(db_.stats().full_scans, 0u);
  // Every row in the union satisfies one arm; no duplicates.
  std::vector<int64_t> dedup = scores;
  std::sort(dedup.begin(), dedup.end());
  dedup.erase(std::unique(dedup.begin(), dedup.end()), dedup.end());
  EXPECT_EQ(dedup.size(), scores.size());
}

TEST_F(PlannerTest, OrWithUnindexableArmFallsBackToScan) {
  auto scores = SelectScores("\"score\" = 4 OR \"note\" = 'n8'");
  EXPECT_EQ(scores, (std::vector<int64_t>{4, 8}));
  EXPECT_EQ(db_.stats().full_scans, 1u);
}

TEST_F(PlannerTest, IsNullProbesTheNullSet) {
  auto scores = SelectScores("\"user_id\" IS NULL");
  EXPECT_EQ(scores, (std::vector<int64_t>{5, 11, 17, 23, 29}));
  EXPECT_EQ(db_.stats().full_scans, 0u);
  // Exact plan: the null set answers outright, no residual evaluation.
  EXPECT_EQ(db_.stats().rows_examined, 0u);
}

TEST_F(PlannerTest, IsNotNullStaysResidualOnly) {
  auto scores = SelectScores("\"user_id\" IS NOT NULL");
  EXPECT_EQ(scores.size(), 25u);
  EXPECT_EQ(db_.stats().full_scans, 1u);  // IS NOT NULL cannot narrow
}

TEST_F(PlannerTest, UnindexedPredicateStillScans) {
  auto scores = SelectScores("\"note\" = 'n8'");
  EXPECT_EQ(scores, (std::vector<int64_t>{8}));
  EXPECT_EQ(db_.stats().full_scans, 1u);
  EXPECT_EQ(db_.stats().rows_examined, 30u);
}

TEST_F(PlannerTest, NoPredicateIsNotAFullScan) {
  // A read with no WHERE clause is a deliberate whole-table read, not a
  // planner fallback.
  auto rows = db_.Select("events", nullptr, {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 30u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_EQ(db_.stats().rows_examined, 0u);
}

TEST_F(PlannerTest, ConstantPredicateSkipsPerRowEvaluation) {
  auto pred_true = Pred("TRUE");
  auto rows = db_.Select("events", pred_true.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 30u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_EQ(db_.stats().rows_examined, 0u);  // one constant fold, no row work

  auto pred_false = Pred("1 = 2");
  rows = db_.Select("events", pred_false.get(), {});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(PlannerTest, ParamsProbeThroughTheIndex) {
  auto pred = Pred("\"user_id\" = $UID");
  auto rows = db_.Select("events", pred.get(), {{"UID", Value::Int(4)}});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 5u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  // Different binding, same fast path — parameterized equality probes the
  // index without any plan-cache traffic.
  rows = db_.Select("events", pred.get(), {{"UID", Value::Int(99)}});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
  EXPECT_EQ(db_.stats().plan_cache_hits + db_.stats().plan_cache_misses, 0u);
  EXPECT_GE(db_.stats().index_lookups, 2u);
}

TEST_F(PlannerTest, PlanCacheHitsOnRepeatAndInvalidatesOnDdl) {
  // An OR shape so the statement stays on the cached-plan path (single
  // `col = literal` takes the cache-bypassing fast path instead).
  auto pred = Pred("\"note\" = 'n3' OR \"note\" = 'n4'");
  ASSERT_TRUE(db_.Select("events", pred.get(), {}).ok());
  EXPECT_EQ(db_.stats().plan_cache_misses, 1u);
  ASSERT_TRUE(db_.Select("events", pred.get(), {}).ok());
  EXPECT_EQ(db_.stats().plan_cache_hits, 1u);
  EXPECT_EQ(db_.stats().full_scans, 2u);  // note is unindexed so far

  // DDL invalidates: after CreateIndex the same predicate replans to a
  // union probe.
  ASSERT_TRUE(db_.CreateIndex("events", "note").ok());
  ASSERT_TRUE(db_.Select("events", pred.get(), {}).ok());
  EXPECT_EQ(db_.stats().plan_cache_misses, 2u);
  EXPECT_EQ(db_.stats().full_scans, 2u);  // no longer scanning
}

TEST_F(PlannerTest, LiteralEqualityBypassesThePlanCache) {
  // The engine's per-placeholder-row statements are one-shot `col = 42`
  // predicates; they must not churn the plan cache.
  for (int i = 0; i < 3; ++i) {
    auto pred = Pred("\"user_id\" = 2");
    auto rows = db_.Select("events", pred.get(), {});
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows->size(), 5u);
  }
  EXPECT_EQ(db_.stats().plan_cache_hits, 0u);
  EXPECT_EQ(db_.stats().plan_cache_misses, 0u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  EXPECT_GE(db_.stats().index_lookups, 3u);
}

TEST_F(PlannerTest, DescribePlanNamesTheAccessPath) {
  auto eq = Pred("\"user_id\" = $UID");
  auto described = db_.DescribePlan("events", *eq);
  ASSERT_TRUE(described.ok());
  EXPECT_NE(described->find("eq(user_id"), std::string::npos) << *described;

  auto range = Pred("\"score\" BETWEEN 1 AND 2");
  described = db_.DescribePlan("events", *range);
  ASSERT_TRUE(described.ok());
  EXPECT_NE(described->find("range("), std::string::npos) << *described;

  auto scan = Pred("\"note\" LIKE 'n%'");
  described = db_.DescribePlan("events", *scan);
  ASSERT_TRUE(described.ok());
  EXPECT_NE(described->find("scan("), std::string::npos) << *described;
}

// The AST interpreter (tests/reference_match.h) is the reference the planned
// path must reproduce.
TEST_F(PlannerTest, InterpretedModeMatchesPlannedRows) {
  const char* preds[] = {
      "\"score\" >= 10 AND \"score\" < 15",
      "\"user_id\" = 2 AND \"kind\" = 'click'",
      "\"score\" IN (3, 17, 99)",
      "\"user_id\" IS NULL",
      "\"score\" = 4 OR \"user_id\" = 3",
      "\"note\" = 'n8'",
      "TRUE",
      "\"kind\" = 'view' AND \"note\" LIKE 'n1%'",
  };
  for (const char* text : preds) {
    EXPECT_TRUE(MatchesReference(db_, "events", *Pred(text), {}));
  }
}

TEST_F(PlannerTest, UpdateAndDeleteGoThroughThePlanner) {
  auto pred = Pred("\"score\" BETWEEN 20 AND 24");
  std::vector<Assignment> assigns;
  assigns.push_back({.column = "kind", .expr = std::move(*sql::ParseExpression("'seen'"))});
  auto updated = db_.Update("events", pred.get(), {}, assigns);
  ASSERT_TRUE(updated.ok());
  EXPECT_EQ(*updated, 5u);

  auto deleted = db_.Delete("events", pred.get(), {});
  ASSERT_TRUE(deleted.ok());
  EXPECT_EQ(*deleted, 5u);
  EXPECT_EQ(db_.stats().full_scans, 0u);
  ASSERT_TRUE(db_.CheckIntegrity().ok());
}

// --- Index maintenance under transactions ------------------------------------

TEST_F(PlannerTest, RollbackRestoresOrderedIndexes) {
  auto before = SelectScores("\"score\" BETWEEN 0 AND 29");
  ASSERT_EQ(before.size(), 30u);

  ASSERT_TRUE(db_.Begin().ok());
  auto pred = Pred("\"score\" BETWEEN 5 AND 14");
  ASSERT_TRUE(db_.Delete("events", pred.get(), {}).ok());
  std::vector<Assignment> assigns;
  assigns.push_back(
      {.column = "score", .expr = std::move(*sql::ParseExpression("\"score\" + 100"))});
  auto bump = Pred("\"score\" BETWEEN 20 AND 24");
  ASSERT_TRUE(db_.Update("events", bump.get(), {}, assigns).ok());
  ASSERT_TRUE(db_.Rollback().ok());

  // Hash, ordered, and null structures must all be back to the pre-txn
  // state; CheckIntegrity audits them entry-for-entry.
  ASSERT_TRUE(db_.CheckIntegrity().ok());
  auto after = SelectScores("\"score\" BETWEEN 0 AND 29");
  EXPECT_EQ(after, before);
  EXPECT_TRUE(SelectScores("\"score\" BETWEEN 100 AND 200").empty());
}

TEST_F(PlannerTest, RollbackRestoresNullSet) {
  ASSERT_TRUE(db_.Begin().ok());
  std::vector<Assignment> assigns;
  assigns.push_back({.column = "user_id", .expr = std::move(*sql::ParseExpression("NULL"))});
  auto pred = Pred("\"user_id\" = 1");
  ASSERT_TRUE(db_.Update("events", pred.get(), {}, assigns).ok());
  EXPECT_EQ(SelectScores("\"user_id\" IS NULL").size(), 10u);  // 5 old + 5 new
  ASSERT_TRUE(db_.Rollback().ok());

  ASSERT_TRUE(db_.CheckIntegrity().ok());
  EXPECT_EQ(SelectScores("\"user_id\" IS NULL").size(), 5u);
  EXPECT_EQ(SelectScores("\"user_id\" = 1").size(), 5u);
}

// --- DbStats contract --------------------------------------------------------

TEST(DbPlannerTest, StatsCopyRoundTripsEveryCounter) {
  // DbStats::operator= lists fields by hand (atomics are not copyable).
  // This test sets every counter to a distinct value and round-trips it;
  // the sizeof tripwire below fails compilation-independent if a new field
  // is added without extending BOTH the assignment and this list.
  DbStats stats;
  stats.queries = 1;
  stats.rows_read = 2;
  stats.rows_inserted = 3;
  stats.rows_updated = 4;
  stats.rows_deleted = 5;
  stats.index_lookups = 6;
  stats.full_scans = 7;
  stats.rows_examined = 8;
  stats.plan_cache_hits = 9;
  stats.plan_cache_misses = 10;
  stats.range_probes = 11;
  stats.page_hits = 12;
  stats.page_misses = 13;
  stats.page_evictions = 14;
  stats.page_writebacks = 15;
  stats.resident_bytes = 16;
  stats.chunks_scanned = 17;
  stats.vector_ops = 18;
  stats.vector_lanes = 19;
  stats.selection_density_bp = 20;

  DbStats copy = stats;
  EXPECT_EQ(copy.queries, 1u);
  EXPECT_EQ(copy.rows_read, 2u);
  EXPECT_EQ(copy.rows_inserted, 3u);
  EXPECT_EQ(copy.rows_updated, 4u);
  EXPECT_EQ(copy.rows_deleted, 5u);
  EXPECT_EQ(copy.index_lookups, 6u);
  EXPECT_EQ(copy.full_scans, 7u);
  EXPECT_EQ(copy.rows_examined, 8u);
  EXPECT_EQ(copy.plan_cache_hits, 9u);
  EXPECT_EQ(copy.plan_cache_misses, 10u);
  EXPECT_EQ(copy.range_probes, 11u);
  EXPECT_EQ(copy.page_hits, 12u);
  EXPECT_EQ(copy.page_misses, 13u);
  EXPECT_EQ(copy.page_evictions, 14u);
  EXPECT_EQ(copy.page_writebacks, 15u);
  EXPECT_EQ(copy.resident_bytes, 16u);
  EXPECT_EQ(copy.chunks_scanned, 17u);
  EXPECT_EQ(copy.vector_ops, 18u);
  EXPECT_EQ(copy.vector_lanes, 19u);
  EXPECT_EQ(copy.selection_density_bp, 20u);

  // 20 counters. If this assert fires you added a DbStats field: extend
  // operator=, the block above, and this count.
  EXPECT_EQ(sizeof(DbStats), 20 * sizeof(std::atomic<uint64_t>));

  copy.Reset();
  EXPECT_EQ(copy.queries, 0u);
  EXPECT_EQ(copy.range_probes, 0u);
  EXPECT_EQ(stats.queries, 1u);  // Reset touches only the copy
}

// --- Static program checker over the planner corpus --------------------------

TEST(DbPlannerTest, PlannerCorpusProgramsPassTheStaticChecker) {
  // Every predicate shape this suite plans also compiles to a register
  // program the engine may run as a residual. Each one must pass the static
  // checker (Database::GetPlan asserts this at cache-insert in debug builds)
  // and decompile back to exactly the expression it was compiled from.
  const std::vector<std::string> kLayout = {"id", "user_id", "score", "kind", "note"};
  sql::ColumnBinder binder = [&kLayout](const std::string& table,
                                        const std::string& column) ->
      StatusOr<size_t> {
    if (!table.empty() && table != "events") {
      return NotFound("unknown table \"" + table + "\"");
    }
    for (size_t i = 0; i < kLayout.size(); ++i) {
      if (kLayout[i] == column) {
        return i;
      }
    }
    return NotFound("unknown column \"" + column + "\"");
  };
  sql::ColumnNamer namer = [&kLayout](size_t ordinal) -> StatusOr<std::string> {
    if (ordinal >= kLayout.size()) {
      return NotFound("ordinal out of range");
    }
    return kLayout[ordinal];
  };

  const char* kCorpus[] = {
      "\"score\" >= 10 AND \"score\" < 15",
      "\"score\" BETWEEN 7 AND 9",
      "\"id\" <= 3",
      "\"score\" IN (3, 17, 99)",
      "\"user_id\" = 2 AND \"kind\" = 'click'",
      "\"user_id\" = 1 OR \"kind\" = 'view'",
      "\"user_id\" = 1 OR \"note\" = 'n3'",
      "\"user_id\" IS NULL",
      "\"user_id\" IS NOT NULL",
      "\"note\" = 'n7'",
      "TRUE",
      "\"user_id\" = $UID",
      "\"user_id\" = $UID AND \"score\" > $MIN",
      "NOT (\"kind\" = 'click' AND \"score\" < 10)",
      "\"kind\" LIKE 'cl%'",
  };
  for (const char* text : kCorpus) {
    sql::ExprPtr expr = Pred(text);
    auto program = sql::CompiledPredicate::Compile(*expr, binder);
    ASSERT_TRUE(program.ok()) << text << ": " << program.status();
    sql::ProgramCheckOptions check;
    check.row_width = static_cast<int>(kLayout.size());
    Status verified = sql::VerifyProgram(*program, check);
    EXPECT_TRUE(verified.ok()) << text << ": " << verified;
    auto back = sql::DecompileProgram(*program, namer);
    ASSERT_TRUE(back.ok()) << text << ": " << back.status();
    EXPECT_EQ((*back)->ToString(), expr->ToString()) << text;
  }
}

// --- Vectorized execution ----------------------------------------------------
//
// The chunked (vectorized) evaluator is the only residual executor: full
// scans read the column sidecar's slabs, probe candidates are gathered into
// row-pointer chunks. It must agree with the row-at-a-time interpreter
// reference row for row and on the first error. The rest pins the sidecar's
// coherence contract (lazy rebuild, invalidate on mutation and rollback) via
// Table::ColumnSlabRebuilds().

using VectorizedTest = PlannerTest;

TEST_F(VectorizedTest, AgreesWithRowAtATimeAcrossPredicateShapes) {
  // Probe + residual, full scans, unions, NULL handling — every access path
  // MatchRows can take.
  const char* kPreds[] = {
      "\"score\" >= 10 AND \"score\" < 15",
      "\"user_id\" = 2 AND \"kind\" = 'click'",
      "\"note\" = 'n7'",
      "\"user_id\" IS NULL",
      "\"user_id\" IS NOT NULL AND \"score\" > 20",
      "\"user_id\" = 1 OR \"kind\" = 'view'",
      "\"score\" IN (3, 17, 99) AND \"note\" <> 'n3'",
      "\"score\" * 2 >= 40",
      "NOT (\"kind\" = 'click') AND \"score\" < 9",
      "\"kind\" LIKE 'cl%' AND \"user_id\" > 1",
  };
  for (const char* text : kPreds) {
    EXPECT_TRUE(MatchesReference(db_, "events", *Pred(text), {}));
  }
}

TEST_F(VectorizedTest, ReportsTheSameFirstErrorAsTheRowLoop) {
  // Division by zero fires on the score == 5 row, both on a scan and on a
  // probe's candidates; the chunked path reports the lowest errored lane,
  // which is the reference's first error since chunks run in RowId order.
  const char* kPreds[] = {
      "(100 / (\"score\" - 5)) > 0",
      "\"score\" < 10 AND (100 / (\"score\" - 5)) > 0",
  };
  for (const char* text : kPreds) {
    auto pred = Pred(text);
    ASSERT_FALSE(db_.Select("events", pred.get(), {}).ok()) << text;
    EXPECT_TRUE(MatchesReference(db_, "events", *pred, {}));
  }
}

TEST_F(VectorizedTest, CountersMoveOnAResidualScanAndStayZeroOnExactProbes) {
  // Exact probes (equality on an index, ranges) decide without a residual.
  SelectScores("\"user_id\" = 2");
  SelectScores("\"score\" BETWEEN 3 AND 9");
  EXPECT_EQ(db_.stats().chunks_scanned, 0u);
  EXPECT_EQ(db_.stats().vector_ops, 0u);
  EXPECT_EQ(db_.stats().vector_lanes, 0u);
  EXPECT_EQ(db_.stats().rows_examined, 0u);

  SelectScores("\"note\" <> ''");
  EXPECT_GE(db_.stats().chunks_scanned, 1u);
  EXPECT_GT(db_.stats().vector_ops, 0u);
  EXPECT_EQ(db_.stats().vector_lanes, 30u);  // one lane per live row
  // Every row matches the predicate: density gauge pegs at 10000 bp.
  EXPECT_EQ(db_.stats().selection_density_bp, 10000u);

  // A selective scan resets the gauge to its own density (3/30 = 1000 bp).
  SelectScores("\"score\" * 2 >= 54");
  EXPECT_EQ(db_.stats().selection_density_bp, 1000u);
}

TEST_F(VectorizedTest, ColumnSlabsRebuildOnlyAfterMutation) {
  const Table* events = db_.FindTable("events");
  ASSERT_NE(events, nullptr);

  SelectScores("\"note\" <> ''");  // full scan builds the slab
  const uint64_t first = events->ColumnSlabRebuilds();
  EXPECT_GE(first, 1u);
  SelectScores("\"note\" <> ''");
  SelectScores("\"score\" * 2 >= 40");
  EXPECT_EQ(events->ColumnSlabRebuilds(), first);  // cached across scans

  ASSERT_TRUE(db_.SetColumn("events", 1, "note", Value::String("edited")).ok());
  SelectScores("\"note\" <> ''");
  EXPECT_EQ(events->ColumnSlabRebuilds(), first + 1);  // invalidated, rebuilt once
}

TEST_F(VectorizedTest, SeesMutationsDeletesAndRollbacks) {
  // Update: the row with score 7 carries note "n7" (RowId 8).
  EXPECT_EQ(SelectScores("\"note\" = 'n7'"), (std::vector<int64_t>{7}));
  ASSERT_TRUE(db_.SetColumn("events", 8, "note", Value::String("redone")).ok());
  EXPECT_TRUE(SelectScores("\"note\" = 'n7'").empty());
  EXPECT_EQ(SelectScores("\"note\" = 'redone'"), (std::vector<int64_t>{7}));

  // Delete: the row disappears from the scan.
  ASSERT_TRUE(db_.DeleteRow("events", 8).ok());
  EXPECT_TRUE(SelectScores("\"note\" = 'redone'").empty());
  EXPECT_EQ(SelectScores("\"note\" <> ''").size(), 29u);

  // Rollback: undo restores the old value and the sidecar must not serve a
  // slab built from the in-transaction state.
  ASSERT_TRUE(db_.Begin().ok());
  ASSERT_TRUE(db_.SetColumn("events", 1, "note", Value::String("in-txn")).ok());
  EXPECT_EQ(SelectScores("\"note\" = 'in-txn'").size(), 1u);
  ASSERT_TRUE(db_.Rollback().ok());
  EXPECT_TRUE(SelectScores("\"note\" = 'in-txn'").empty());
  EXPECT_EQ(SelectScores("\"note\" = 'n0'").size(), 1u);
}

}  // namespace
}  // namespace edna::db
