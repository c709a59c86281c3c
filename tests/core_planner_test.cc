// End-to-end planner regression battery: the disguise hot path must not fall
// back to a full table scan, and the planner must be a pure optimization.
// Two kinds of oracle check that:
//  * a spec-predicate differential: every rule and assertion predicate of
//    the registered specs (and its negation, which has no index probe and so
//    runs the chunked residual executor over a scan), bound for a sample of
//    uids, matches the row-at-a-time interpreter reference
//    (tests/reference_match.h) at every state of the workload;
//  * pinned end-state digests of the workloads' databases.
//
// Workloads mirror the paper's evaluation:
//  * "tab1": HotCRP ConfAnon (global) composed with per-user GDPR+, with a
//    TableVault so the vault's own FetchForUser / FetchGlobal queries run
//    through the planner too.
//  * "ablG": mass per-user deletion over a worker pool (BatchExecutor).
//  * Lobsters-GDPR applies and a reveal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/generator.h"
#include "src/apps/lobsters/disguises.h"
#include "src/apps/lobsters/generator.h"
#include "src/common/clock.h"
#include "src/core/batch.h"
#include "src/core/engine.h"
#include "src/db/database.h"
#include "src/disguise/spec.h"
#include "src/disguise/spec_parser.h"
#include "src/sql/parser.h"
#include "src/vault/offline_vault.h"
#include "src/vault/table_vault.h"
#include "tests/reference_match.h"

namespace edna::core {
namespace {

using sql::Value;

// table name -> sorted stringified rows (engine-reserved tables excluded, as
// in core_batch_test.cc: disguise ids depend on completion order).
std::map<std::string, std::vector<std::string>> Fingerprint(db::Database* db) {
  std::map<std::string, std::vector<std::string>> out;
  for (const db::TableSchema& ts : db->schema().tables()) {
    if (ts.name().rfind("__edna", 0) == 0) {
      continue;
    }
    auto rows = db->SelectRows(ts.name(), nullptr, {});
    EXPECT_TRUE(rows.ok()) << ts.name() << ": " << rows.status();
    std::vector<std::string> reps;
    if (rows.ok()) {
      for (const db::Row& row : *rows) {
        std::string rep;
        for (const Value& v : row) {
          rep += v.ToSqlString();
          rep += "|";
        }
        reps.push_back(std::move(rep));
      }
    }
    std::sort(reps.begin(), reps.end());
    out[ts.name()] = std::move(reps);
  }
  return out;
}

// FNV-1a 64 over Fingerprint(): a compact end-state digest to pin across
// changes to the matcher (a changed digest means a changed database).
std::string Digest(db::Database* db) {
  uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const std::string& s) {
    for (unsigned char c : s) {
      h = (h ^ c) * 0x100000001b3ull;
    }
    h = (h ^ 0xffu) * 0x100000001b3ull;  // separator: "ab","c" != "a","bc"
  };
  for (const auto& [table, rows] : Fingerprint(db)) {
    mix(table);
    for (const std::string& row : rows) {
      mix(row);
    }
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

// The spec-predicate differential: every rule and assertion predicate P of
// every spec registered on `engine`, bound for each uid in `uids`, must
// match the reference on `db` as it stands — in three forms, so that all
// residual paths run on real spec predicates and data, not just the exact
// probes the specs compile to: P itself; NOT (P), which has no probe and so
// is filtered chunk by chunk over a scan; and (P) AND <first column> IS NOT
// NULL, whose IS NOT NULL conjunct stays residual, so P's probe candidates
// are gathered into chunks. Returns how many rows the residual executor
// examined, so callers can check it really ran.
uint64_t ExpectSpecPredicatesMatchReference(const DisguiseEngine& engine, db::Database* db,
                                            const std::vector<Value>& uids,
                                            const std::string& state) {
  const uint64_t examined_before = db->stats().rows_examined;
  for (const disguise::DisguiseSpec* spec : engine.Specs()) {
    std::vector<std::pair<std::string, const sql::Expr*>> preds;
    for (const disguise::TableDisguise& td : spec->tables()) {
      for (const disguise::Transformation& t : td.transformations) {
        preds.emplace_back(td.table, t.predicate());
      }
    }
    for (const disguise::Assertion& a : spec->assertions()) {
      preds.emplace_back(a.table, a.predicate.get());
    }
    for (const auto& [table, pred] : preds) {
      const std::string first_column = db->FindTable(table)->schema().columns()[0].name;
      auto negated = sql::ParseExpression("NOT (" + pred->ToString() + ")");
      auto gathered = sql::ParseExpression("(" + pred->ToString() + ") AND \"" +
                                           first_column + "\" IS NOT NULL");
      if (!negated.ok() || !gathered.ok()) {
        ADD_FAILURE() << spec->name() << ": cannot rewrite " << pred->ToString();
        continue;
      }
      for (const Value& uid : uids) {
        const sql::ParamMap params{{disguise::kUidParam, uid}};
        const sql::Expr* forms[] = {pred, negated->get(), gathered->get()};
        for (const sql::Expr* e : forms) {
          EXPECT_TRUE(db::testing::MatchesReference(*db, table, *e, params))
              << spec->name() << ", uid " << uid.ToSqlString() << ", " << state;
        }
      }
    }
  }
  return db->stats().rows_examined - examined_before;
}

// End-state digests (Digest) of the pinned workloads below.
constexpr char kCompositionDigest[] = "d50bd5a9a783e2e4";
constexpr char kMassDeletionDigest[] = "49153fc4da37e0bb";

// ---------------------------------------------------------------------------
// tab1: HotCRP composition workload.
// ---------------------------------------------------------------------------

class HotCrpPlannerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hotcrp::Config config;
    config.num_users = 60;
    config.num_pc = 8;
    config.num_papers = 40;
    config.num_reviews = 120;
    auto generated = hotcrp::Populate(&db_, config);
    ASSERT_TRUE(generated.ok()) << generated.status();
    gen_ = *generated;
    auto vault = vault::TableVault::Create(&db_);
    ASSERT_TRUE(vault.ok()) << vault.status();
    vault_ = *std::move(vault);
    engine_ = std::make_unique<DisguiseEngine>(&db_, vault_.get(), &clock_);
    ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::GdprPlusSpec()).ok());
    ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::ConfAnonSpec()).ok());
  }

  db::Database db_;
  hotcrp::Generated gen_;
  std::unique_ptr<vault::TableVault> vault_;
  SimulatedClock clock_{0};
  std::unique_ptr<DisguiseEngine> engine_;
};

// The headline acceptance criterion: ConfAnon followed by composed GDPR+
// applications and a reveal — every predicate-bearing statement, including
// the vault's FetchForUser / FetchGlobal ("userId" IS NULL), must be served
// by an index probe or a constant plan. Zero full scans.
TEST_F(HotCrpPlannerTest, CompositionWorkloadNeverFullScans) {
  db_.ResetStats();

  ASSERT_TRUE(engine_->Apply(hotcrp::kConfAnonName, {}).ok());
  uint64_t reveal_target = 0;
  for (size_t i = 0; i < 4 && i < gen_.pc_contact_ids.size(); ++i) {
    auto applied = engine_->ApplyForUser(hotcrp::kGdprPlusName,
                                         Value::Int(gen_.pc_contact_ids[i]));
    ASSERT_TRUE(applied.ok()) << applied.status();
    // ConfAnon is active, so every GDPR+ apply goes down the composition
    // path (vault fetches + recorrelation) — the expensive case we planned.
    EXPECT_TRUE(applied->composed);
    reveal_target = applied->disguise_id;
  }
  ASSERT_TRUE(engine_->Reveal(reveal_target).ok());

  EXPECT_EQ(db_.stats().full_scans, 0u)
      << "a disguise hot-path statement fell back to a full table scan";
  // Sanity: the workload really exercised the planner.
  EXPECT_GT(db_.stats().index_lookups, 0u);
  EXPECT_GT(db_.stats().plan_cache_hits, 0u);
  ASSERT_TRUE(db_.CheckIntegrity().ok());
}

// The planner is invisible to results: at every state of the composition
// workload (fresh, after ConfAnon, after each composed GDPR+, after a reveal)
// every shipped HotCRP spec predicate matches the interpreter reference.
TEST_F(HotCrpPlannerTest, PlannedAndInterpretedAgreeOnComposition) {
  ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::GdprSpec()).ok());
  std::vector<Value> uids = {Value::Null(), Value::Int(gen_.all_contact_ids.back()),
                             Value::Int(1'000'000)};
  for (size_t i = 0; i < 4 && i < gen_.pc_contact_ids.size(); ++i) {
    uids.push_back(Value::Int(gen_.pc_contact_ids[i]));
  }

  uint64_t examined = ExpectSpecPredicatesMatchReference(*engine_, &db_, uids, "fresh");
  ASSERT_TRUE(engine_->Apply(hotcrp::kConfAnonName, {}).ok());
  examined += ExpectSpecPredicatesMatchReference(*engine_, &db_, uids, "after ConfAnon");
  uint64_t reveal_target = 0;
  for (size_t i = 0; i < 4 && i < gen_.pc_contact_ids.size(); ++i) {
    auto applied = engine_->ApplyForUser(hotcrp::kGdprPlusName,
                                         Value::Int(gen_.pc_contact_ids[i]));
    ASSERT_TRUE(applied.ok()) << applied.status();
    reveal_target = applied->disguise_id;
    examined += ExpectSpecPredicatesMatchReference(*engine_, &db_, uids,
                                                   "after GDPR+ #" + std::to_string(i));
  }
  ASSERT_TRUE(engine_->Reveal(reveal_target).ok());
  examined += ExpectSpecPredicatesMatchReference(*engine_, &db_, uids, "after reveal");
  EXPECT_GT(examined, 0u) << "the differential never entered the residual executor";
  ASSERT_TRUE(db_.CheckIntegrity().ok());
}

// The composition workload's end state, pinned: ConfAnon then four composed
// GDPR+ applies under a deterministic rng. The digest was recorded when the
// row-at-a-time executor was still the default and the vectorized one agreed
// with it bit for bit; the one remaining executor must land on it too.
TEST_F(HotCrpPlannerTest, VectorizedAgreesOnComposition) {
  EngineOptions options;
  options.deterministic_rng = true;
  options.rng_seed = 0xab1e;
  engine_ = std::make_unique<DisguiseEngine>(&db_, vault_.get(), &clock_, options);
  ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::GdprPlusSpec()).ok());
  ASSERT_TRUE(engine_->RegisterSpec(*hotcrp::ConfAnonSpec()).ok());

  ASSERT_TRUE(engine_->Apply(hotcrp::kConfAnonName, {}).ok());
  for (size_t i = 0; i < 4 && i < gen_.pc_contact_ids.size(); ++i) {
    auto applied =
        engine_->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(gen_.pc_contact_ids[i]));
    ASSERT_TRUE(applied.ok()) << applied.status();
  }

  EXPECT_EQ(Digest(&db_), kCompositionDigest);
  ASSERT_TRUE(db_.CheckIntegrity().ok());
}

// ---------------------------------------------------------------------------
// ablG: mass deletion through the batch executor.
// ---------------------------------------------------------------------------

constexpr char kScrubSpec[] = R"(
disguise_name: "Scrub"
user_to_disguise: $UID
reversible: true
table users:
  generate_placeholder:
    "name" <- Random
    "email" <- Const(NULL)
    "disabled" <- Const(TRUE)
  transformations:
    Remove(pred: "id" = $UID)
table notes:
  transformations:
    Decorrelate(pred: "user_id" = $UID, foreign_key: ("user_id", users))
)";

struct MassWorld {
  db::Database db;
  vault::OfflineVault vault;
  SimulatedClock clock{1000};
  std::unique_ptr<DisguiseEngine> engine;

  explicit MassWorld(int num_users, uint64_t seed = 0x5eed) {
    BuildSchema();
    EngineOptions options;
    options.deterministic_rng = true;
    options.rng_seed = seed;
    engine = std::make_unique<DisguiseEngine>(&db, &vault, &clock, options);
    auto spec = disguise::ParseDisguiseSpec(kScrubSpec);
    if (!spec.ok() || !engine->RegisterSpec(*std::move(spec)).ok()) {
      std::abort();
    }
    for (int i = 0; i < num_users; ++i) {
      std::string n = std::to_string(i);
      if (!db.InsertValues("users", {{"name", Value::String("user" + n)},
                                     {"email", Value::String("u" + n + "@x.org")}})
               .ok()) {
        std::abort();
      }
    }
    for (int i = 0; i < num_users; ++i) {
      for (int j = 0; j < 2; ++j) {
        if (!db.InsertValues("notes", {{"user_id", Value::Int(i + 1)},
                                       {"text", Value::String("note " + std::to_string(j))}})
                 .ok()) {
          std::abort();
        }
      }
    }
  }

  void BuildSchema() {
    db::TableSchema users("users");
    users
        .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "name", .type = db::ColumnType::kString, .nullable = false})
        .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = true})
        .AddColumn({.name = "disabled", .type = db::ColumnType::kBool, .nullable = false,
                    .default_value = Value::Bool(false)})
        .SetPrimaryKey({"id"});
    if (!db.CreateTable(std::move(users)).ok()) std::abort();

    db::TableSchema notes("notes");
    notes
        .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "user_id", .type = db::ColumnType::kInt, .nullable = false})
        .AddColumn({.name = "text", .type = db::ColumnType::kString})
        .SetPrimaryKey({"id"})
        .AddForeignKey({.column = "user_id", .parent_table = "users",
                        .parent_column = "id", .on_delete = db::FkAction::kRestrict});
    if (!db.CreateTable(std::move(notes)).ok()) std::abort();
  }
};

// Ablation G's workload: scrub every user through the worker pool. The PK
// probe ("id" = $UID) and the FK hash probe ("user_id" = $UID) must cover
// every statement — no scans, even with workers planning concurrently.
TEST(PlannerBatchTest, MassDeletionNeverFullScans) {
  constexpr int kUsers = 120;
  MassWorld world(kUsers);
  world.db.ResetStats();

  BatchOptions options;
  options.num_threads = 4;
  BatchExecutor executor(world.engine.get(), options);
  for (int u = 1; u <= kUsers; ++u) {
    executor.Submit(BatchTask::Apply("Scrub", Value::Int(u)));
  }
  BatchReport report = executor.Drain();
  EXPECT_EQ(report.failed, 0u) << report.ToString();
  EXPECT_EQ(report.succeeded, static_cast<size_t>(kUsers));

  EXPECT_EQ(world.db.stats().full_scans, 0u)
      << "mass deletion fell back to a full table scan";
  // This workload is all indexed equality, which the fast path serves
  // without plan-cache traffic at all.
  EXPECT_GT(world.db.stats().index_lookups, 0u);
  ASSERT_TRUE(world.db.CheckIntegrity().ok());
}

// The mass-deletion workload (applies plus every third user revealed) run
// through the worker pool.
void RunMassDeletion(MassWorld* w, int num_users) {
  BatchOptions options;
  options.num_threads = 4;
  BatchExecutor executor(w->engine.get(), options);
  for (int u = 1; u <= num_users; ++u) {
    executor.Submit(BatchTask::Apply("Scrub", Value::Int(u)));
    if (u % 3 == 0) {
      executor.Submit(BatchTask::Reveal("Scrub", Value::Int(u)));
    }
  }
  BatchReport report = executor.Drain();
  ASSERT_EQ(report.failed, 0u) << report.ToString();
}

// After the batch workload, the Scrub spec's predicates match the
// interpreter oracle for scrubbed, revealed and untouched users alike.
TEST(PlannerBatchTest, BatchMatchesInterpretedOracle) {
  constexpr int kUsers = 60;
  MassWorld world(kUsers);
  const std::vector<Value> uids = {Value::Int(1), Value::Int(3), Value::Int(kUsers),
                                   Value::Int(kUsers + 1), Value::Null()};
  const uint64_t before_examined =
      ExpectSpecPredicatesMatchReference(*world.engine, &world.db, uids, "fresh");
  RunMassDeletion(&world, kUsers);
  const uint64_t after_examined =
      ExpectSpecPredicatesMatchReference(*world.engine, &world.db, uids, "after the batch");
  EXPECT_GT(before_examined + after_examined, 0u);
  ASSERT_TRUE(world.db.CheckIntegrity().ok());
}

// The mass-deletion end state, pinned. Workers scan and mutate concurrently
// (the column sidecar's invalidate-on-mutation path under real contention);
// the digest was recorded when the row-at-a-time executor was still the
// default and the vectorized one agreed with it bit for bit.
TEST(PlannerBatchTest, VectorizedMassDeletionMatchesRowAtATime) {
  constexpr int kUsers = 60;
  MassWorld world(kUsers);
  RunMassDeletion(&world, kUsers);
  EXPECT_EQ(Digest(&world.db), kMassDeletionDigest);
  ASSERT_TRUE(world.db.CheckIntegrity().ok());
}

// ---------------------------------------------------------------------------
// Lobsters-GDPR.
// ---------------------------------------------------------------------------

TEST(LobstersPlannerTest, SpecPredicatesMatchTheReferenceThroughGdprAndReveal) {
  db::Database db;
  lobsters::Config config;
  config.num_users = 40;
  config.num_stories = 60;
  config.num_comments = 160;
  config.num_votes = 300;
  config.num_tags = 8;
  config.num_messages = 40;
  auto generated = lobsters::Populate(&db, config);
  ASSERT_TRUE(generated.ok()) << generated.status();
  auto vault = vault::TableVault::Create(&db);
  ASSERT_TRUE(vault.ok()) << vault.status();
  SimulatedClock clock{0};
  DisguiseEngine engine(&db, vault->get(), &clock);
  ASSERT_TRUE(engine.RegisterSpec(*lobsters::GdprSpec()).ok());

  const std::vector<int64_t>& users = generated->user_ids;
  ASSERT_GE(users.size(), 4u);
  const std::vector<Value> uids = {Value::Int(users[0]), Value::Int(users[1]),
                                   Value::Int(users[2]), Value::Int(users.back()),
                                   Value::Int(1'000'000), Value::Null()};

  uint64_t examined = ExpectSpecPredicatesMatchReference(engine, &db, uids, "fresh");
  uint64_t reveal_target = 0;
  for (size_t i = 0; i < 3; ++i) {
    auto applied = engine.ApplyForUser(lobsters::kGdprName, Value::Int(users[i]));
    ASSERT_TRUE(applied.ok()) << applied.status();
    reveal_target = applied->disguise_id;
    examined += ExpectSpecPredicatesMatchReference(engine, &db, uids,
                                                   "after GDPR #" + std::to_string(i));
  }
  ASSERT_TRUE(engine.Reveal(reveal_target).ok());
  examined += ExpectSpecPredicatesMatchReference(engine, &db, uids, "after reveal");
  EXPECT_GT(examined, 0u) << "the differential never entered the residual executor";
  ASSERT_TRUE(db.CheckIntegrity().ok());
}

}  // namespace
}  // namespace edna::core
