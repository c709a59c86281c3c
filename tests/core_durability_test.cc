// End-to-end crash-recovery battery for the durable engine.
//
// A fixed schedule of disguise operations (applies, a reveal, a checkpoint,
// a flush) runs against a DurableEngine with ONE fail point armed in
// simulated-crash mode at the n-th hit. When the crash fires, the frozen
// engine is dropped — a process death — and the data directory is reopened
// through DurableEngine::Open, which replays snapshot + WAL + journal deltas
// and runs Recover(). The suite asserts that the reopened state is
// bit-identical to one of the two legal outcomes (the never-crashed
// reference just before, or just after, the interrupted operation), that
// AuditConsistency() is clean, and that the engine stays usable.
//
// The sweep covers every durability site (wal.append/sync/truncate,
// snapshot.write/rename, journal.persist) and every engine protocol site,
// at every hit index each site reaches; a randomized battery repeats the
// experiment over generated schedules and crash points. The reveal's
// unsynced bookkeeping commit is swept with both injected errors and
// crashes. A corruption battery bit-flips the WAL on disk and asserts
// reopen lands on a reference prefix or fails loudly — never garbage. A
// contract battery pins the fsync and WAL-record count of one apply, one
// reveal and a clean close.
#include "src/core/durable_engine.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdint>
#include <fstream>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/apps/hotcrp/disguises.h"
#include "src/apps/hotcrp/generator.h"
#include "src/common/clock.h"
#include "src/common/failpoint.h"
#include "src/common/rng.h"
#include "src/core/disguise_log.h"
#include "src/core/engine.h"
#include "src/db/database.h"
#include "src/disguise/spec_parser.h"
#include "src/sql/value.h"

namespace edna::core {
namespace {

using sql::Value;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/edna_core_durability_XXXXXX";
    dir_ = mkdtemp(tmpl);
    data_ = dir_ + "/data";
  }
  ~TempDir() {
    if (!dir_.empty()) {
      std::string cmd = "rm -rf " + dir_;
      [[maybe_unused]] int rc = system(cmd.c_str());
    }
  }
  const std::string& data() const { return data_; }
  std::string File(const std::string& name) const { return data_ + "/" + name; }

 private:
  std::string dir_;
  std::string data_;
};

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

// Canonical text dump of every table's rows in RowId order. Covers the user
// tables AND the vault / disguise-log mirror tables, so equal dumps mean the
// whole cross-store state is identical. (Deliberately not SerializeDatabase:
// auto-increment counters legitimately run ahead after a rolled-back draw.)
std::string Dump(db::Database* db) {
  std::string out;
  for (const db::TableSchema& ts : db->schema().tables()) {
    out += "== " + ts.name() + "\n";
    const db::Table* t = db->FindTable(ts.name());
    t->Scan([&](db::RowId id, const db::Row& row) {
      out += std::to_string(id);
      for (const Value& v : row) {
        out += "|" + v.ToSqlString();
      }
      out += "\n";
    });
  }
  return out;
}

// One durable engine bound to one data directory. Reopen() is the process
// death + restart: the frozen engine is destroyed and Open() re-runs the
// whole recovery pipeline from disk.
struct Rig {
  TempDir tmp;
  SimulatedClock clock{1000};
  DurableEngineReport report;
  std::unique_ptr<DurableEngine> eng;
  // Page-cache budget for every (re)open; 0 = fully resident (the default).
  // Reopen() keeps the budget, so recovery itself runs bounded too.
  uint64_t cache_budget_bytes = 0;

  Status Open() {
    DurableEngineOptions options;
    options.clock = &clock;
    options.engine.deterministic_rng = true;
    options.durable.cache.max_resident_bytes = cache_budget_bytes;
    auto opened = DurableEngine::Open(tmp.data(), options, &report);
    if (!opened.ok()) {
      return opened.status();
    }
    eng = *std::move(opened);
    // Specs live only in memory, so every open re-registers — but spec
    // validation needs the schema, which a virgin directory doesn't have yet
    // (Seed() registers after creating the tables).
    if (eng->db()->FindTable("users") == nullptr) {
      return OkStatus();
    }
    return RegisterScrub();
  }

  Status RegisterScrub() {
    auto spec = disguise::ParseDisguiseSpec(kScrubSpec);
    if (!spec.ok()) {
      return spec.status();
    }
    return eng->engine()->RegisterSpec(*std::move(spec));
  }

  Status Reopen() {
    eng.reset();
    return Open();
  }

  std::string Fingerprint() { return Dump(eng->db()); }
};

// users (id, name, email, disabled) <- notes (id, user_id, text), plus four
// users and a handful of notes. Runs once per directory; the schema and rows
// replay from the WAL on every reopen.
Status Seed(Rig& rig) {
  db::Database* db = rig.eng->db();
  db::TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "name", .type = db::ColumnType::kString, .nullable = false})
      .AddColumn({.name = "email", .type = db::ColumnType::kString, .nullable = true})
      .AddColumn({.name = "disabled", .type = db::ColumnType::kBool, .nullable = false,
                  .default_value = Value::Bool(false)})
      .SetPrimaryKey({"id"});
  RETURN_IF_ERROR(db->CreateTable(std::move(users)));

  db::TableSchema notes("notes");
  notes
      .AddColumn({.name = "id", .type = db::ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "user_id", .type = db::ColumnType::kInt, .nullable = false})
      .AddColumn({.name = "text", .type = db::ColumnType::kString})
      .SetPrimaryKey({"id"})
      .AddForeignKey({.column = "user_id", .parent_table = "users", .parent_column = "id",
                      .on_delete = db::FkAction::kRestrict});
  RETURN_IF_ERROR(db->CreateTable(std::move(notes)));

  const char* names[] = {"Bea", "Axl", "Cyd", "Dot"};
  for (const char* name : names) {
    RETURN_IF_ERROR(
        db->InsertValues("users",
                         {{"name", Value::String(name)},
                          {"email", Value::String(std::string(name) + "@uni.edu")}})
            .status());
  }
  for (int64_t uid : {1, 1, 2, 3, 4}) {
    RETURN_IF_ERROR(db->InsertValues("notes", {{"user_id", Value::Int(uid)},
                                               {"text", Value::String("note")}})
                        .status());
  }
  return rig.RegisterScrub();
}

struct Step {
  std::string name;
  std::function<Status(Rig&)> run;
};

Step ApplyStep(int64_t uid, TimePoint t) {
  return {"apply u" + std::to_string(uid), [uid, t](Rig& r) -> Status {
            r.clock.Set(t);
            return r.eng->engine()->ApplyForUser("Scrub", Value::Int(uid)).status();
          }};
}

// Reveal the latest active Scrub of `uid`; when none is active (possible in
// generated schedules), apply instead — the branch depends only on engine
// state, so the reference and crash runs take it identically.
Step RevealStep(int64_t uid, TimePoint t) {
  return {"reveal u" + std::to_string(uid), [uid, t](Rig& r) -> Status {
            r.clock.Set(t);
            auto entry = r.eng->engine()->log().LatestActiveFor("Scrub", Value::Int(uid));
            if (!entry.has_value()) {
              return r.eng->engine()->ApplyForUser("Scrub", Value::Int(uid)).status();
            }
            return r.eng->engine()->Reveal(entry->id).status();
          }};
}

Step CheckpointStep(TimePoint t) {
  return {"checkpoint", [t](Rig& r) -> Status {
            r.clock.Set(t);
            return r.eng->Checkpoint();
          }};
}

Step FlushStep(TimePoint t) {
  return {"flush", [t](Rig& r) -> Status {
            r.clock.Set(t);
            return r.eng->Flush();
          }};
}

std::vector<Step> CanonicalSchedule(bool with_checkpoint) {
  std::vector<Step> steps;
  steps.push_back(ApplyStep(1, 1010));
  steps.push_back(ApplyStep(2, 1020));
  if (with_checkpoint) {
    steps.push_back(CheckpointStep(1030));
  }
  steps.push_back(RevealStep(1, 1040));
  steps.push_back(ApplyStep(3, 1050));
  steps.push_back(FlushStep(1060));
  return steps;
}

// dumps[0] = post-seed; dumps[i + 1] = after steps[i]. Every step of the
// reference run must succeed.
std::vector<std::string> RunReference(const std::vector<Step>& steps,
                                      uint64_t cache_budget_bytes = 0) {
  std::vector<std::string> dumps;
  Rig rig;
  rig.cache_budget_bytes = cache_budget_bytes;
  Status opened = rig.Open();
  EXPECT_TRUE(opened.ok()) << opened;
  if (!opened.ok()) {
    return dumps;
  }
  Status seeded = Seed(rig);
  EXPECT_TRUE(seeded.ok()) << seeded;
  dumps.push_back(rig.Fingerprint());
  for (const Step& step : steps) {
    Status s = step.run(rig);
    EXPECT_TRUE(s.ok()) << "reference " << step.name << ": " << s;
    dumps.push_back(rig.Fingerprint());
  }
  return dumps;
}

// Every durability-layer and engine-protocol site the schedule exercises.
const char* const kCrashSites[] = {
    failpoints::kWalAppend,          failpoints::kWalSync,
    failpoints::kWalTruncate,        failpoints::kSnapshotWrite,
    failpoints::kSnapshotRename,     failpoints::kJournalPersist,
    failpoints::kDbBegin,            failpoints::kDbCommit,
    failpoints::kVaultStore,         failpoints::kLogAppend,
    failpoints::kLogMarkRevealed,    failpoints::kVaultRemove,
    failpoints::kApplyBeforeCommit,  failpoints::kApplyAfterCommit,
    failpoints::kRevealBeforeCommit, failpoints::kRevealAfterCommit,
};

// True iff every in-memory log entry's active flag equals its mirror row's.
bool LogAgreesWithMirror(Rig& rig) {
  auto rows = rig.eng->db()->SelectRows(kDisguiseLogTableName, nullptr, {});
  if (!rows.ok()) {
    return false;
  }
  const std::vector<LogEntry>& entries = rig.eng->engine()->log().entries();
  if (rows->size() != entries.size()) {
    return false;
  }
  for (const db::Row& row : *rows) {
    const LogEntry* e = rig.eng->engine()->log().Find(static_cast<uint64_t>(row[0].AsInt()));
    if (e == nullptr || e->active != row[5].AsBool()) {
      return false;
    }
  }
  return true;
}

// True iff a reveal is pending at kCommitted: the fault landed after the
// restore commit, in the reveal's bookkeeping.
bool RevealPendingAtCommitted(Rig& rig) {
  for (const JournalEntry& e : rig.eng->engine()->journal().PendingCopy()) {
    if (e.op == JournalOp::kReveal && e.phase == JournalPhase::kCommitted) {
      return true;
    }
  }
  return false;
}

// Runs `steps` on a fresh rig with `site` armed to fail with `action` at its
// `hit`-th evaluation. Returns the index of the failed step, or -1 when the
// site had fewer hits than that (in which case the schedule completed and
// the final state was checked against the reference). On a failure, reopens
// and asserts atomicity + consistency + usability against the reference
// dumps; an injected error must first leave the in-memory log agreeing with
// its mirror rows. `*in_bookkeeping` reports whether the failure left a
// reveal pending at kCommitted.
int RunCrashTrial(const std::vector<Step>& steps, const std::vector<std::string>& dumps,
                  const char* site, uint64_t hit, uint64_t cache_budget_bytes = 0,
                  FailPointAction action = FailPointAction::kCrash,
                  bool* in_bookkeeping = nullptr) {
  Rig rig;
  rig.cache_budget_bytes = cache_budget_bytes;
  Status opened = rig.Open();
  EXPECT_TRUE(opened.ok()) << opened;
  Status seeded = Seed(rig);
  EXPECT_TRUE(seeded.ok()) << seeded;

  const bool crash = action == FailPointAction::kCrash;
  FailPoints::Instance().Enable(
      site, {.action = action, .trigger = FailPointTrigger::kOneShot, .n = hit});
  int crashed_at = -1;
  for (size_t i = 0; i < steps.size(); ++i) {
    Status s = steps[i].run(rig);
    if (s.ok()) {
      continue;
    }
    EXPECT_EQ(FailPoints::IsSimulatedCrash(s), crash)
        << site << " hit " << hit << " step " << steps[i].name
        << " failed with the wrong kind of status: " << s;
    crashed_at = static_cast<int>(i);
    break;
  }
  FailPoints::Instance().DisableAll();

  if (crashed_at < 0) {
    EXPECT_EQ(rig.Fingerprint(), dumps.back())
        << site << " hit " << hit << ": untouched schedule diverged";
    return -1;
  }
  if (in_bookkeeping != nullptr) {
    *in_bookkeeping = RevealPendingAtCommitted(rig);
  }
  if (!crash) {
    EXPECT_TRUE(LogAgreesWithMirror(rig))
        << site << " hit " << hit << ": the failed step left the in-memory log "
        << "disagreeing with its mirror rows";
  }

  // Process death: discard the frozen engine, reopen from disk, recover.
  Status reopened = rig.Reopen();
  EXPECT_TRUE(reopened.ok()) << site << " hit " << hit << " step "
                             << steps[static_cast<size_t>(crashed_at)].name << ": "
                             << reopened;
  if (!reopened.ok()) {
    return crashed_at;
  }

  auto audit = rig.eng->engine()->AuditConsistency();
  EXPECT_TRUE(audit.ok()) << audit.status();
  if (audit.ok()) {
    EXPECT_TRUE(audit->ok()) << site << " hit " << hit << " left violations:\n"
                             << audit->ToString();
  }

  // Atomicity: the interrupted operation either fully happened or fully
  // didn't — the reopened state matches the reference just before or just
  // after it, bit for bit.
  std::string fp = rig.Fingerprint();
  size_t k = static_cast<size_t>(crashed_at);
  EXPECT_TRUE(fp == dumps[k] || fp == dumps[k + 1])
      << site << " hit " << hit << " crashed " << steps[k].name
      << ": reopened state matches neither neighbor dump";

  // Usability: the recovered engine keeps working and stays consistent.
  rig.clock.Set(5000);
  auto applied = rig.eng->engine()->ApplyForUser("Scrub", Value::Int(4));
  if (!applied.ok()) {
    // uid 4 may already be disguised (generated schedules): reveal instead.
    auto entry = rig.eng->engine()->log().LatestActiveFor("Scrub", Value::Int(4));
    EXPECT_TRUE(entry.has_value()) << applied.status();
    if (entry.has_value()) {
      EXPECT_TRUE(rig.eng->engine()->Reveal(entry->id).ok());
    }
  }
  auto audit2 = rig.eng->engine()->AuditConsistency();
  EXPECT_TRUE(audit2.ok() && audit2->ok()) << "post-recovery apply broke consistency";
  return crashed_at;
}

class DurabilityCrash : public ::testing::Test {
 protected:
  void SetUp() override { FailPoints::Instance().DisableAll(); }
  void TearDown() override { FailPoints::Instance().DisableAll(); }
};

TEST_F(DurabilityCrash, EverySiteAtEveryHitRecoversBitIdentical) {
  std::vector<Step> steps = CanonicalSchedule(/*with_checkpoint=*/true);
  std::vector<std::string> dumps = RunReference(steps);
  ASSERT_EQ(dumps.size(), steps.size() + 1);

  for (const char* site : kCrashSites) {
    bool fired = false;
    for (uint64_t hit = 1; hit <= 24; ++hit) {
      int crashed_at = RunCrashTrial(steps, dumps, site, hit);
      if (::testing::Test::HasFailure()) {
        FAIL() << "stopping sweep at " << site << " hit " << hit;
      }
      if (crashed_at < 0) {
        break;  // the site has no hit this deep in the schedule
      }
      fired = true;
    }
    EXPECT_TRUE(fired) << site << " never fired — schedule lost coverage";
  }
}

// The whole battery again, starved: a 1-byte page-cache budget keeps every
// statement over budget, so every step spills at its boundary and faults
// pages back on the next access. Two cache-only sites join the sweep:
// pagecache.writeback (crash inside the eviction frame write, after the
// statement committed) and extent.read (crash while faulting a spilled page
// back in). Extents are a spill, not a durability source, so the reference
// dumps are the UNBOUNDED run's — recovery must land on the same states bit
// for bit regardless of what was resident at the crash.
TEST_F(DurabilityCrash, TinyCacheBudgetEverySiteRecoversBitIdentical) {
  constexpr uint64_t kTinyBudget = 1;  // always over budget: maximal churn
  std::vector<Step> steps = CanonicalSchedule(/*with_checkpoint=*/true);
  std::vector<std::string> dumps = RunReference(steps);
  ASSERT_EQ(dumps.size(), steps.size() + 1);

  // A crash-free bounded run must be fingerprint-identical to the unbounded
  // reference at EVERY step boundary (the dump faults spilled pages back in,
  // so equal dumps mean spill + refault lost nothing).
  std::vector<std::string> bounded = RunReference(steps, kTinyBudget);
  ASSERT_EQ(bounded.size(), dumps.size());
  for (size_t i = 0; i < dumps.size(); ++i) {
    ASSERT_EQ(bounded[i], dumps[i]) << "bounded reference diverged at dump " << i;
  }

  std::vector<const char*> sites(std::begin(kCrashSites), std::end(kCrashSites));
  sites.push_back(failpoints::kPagecacheWriteback);
  sites.push_back(failpoints::kExtentRead);
  for (const char* site : sites) {
    bool fired = false;
    for (uint64_t hit = 1; hit <= 24; ++hit) {
      int crashed_at = RunCrashTrial(steps, dumps, site, hit, kTinyBudget);
      if (::testing::Test::HasFailure()) {
        FAIL() << "stopping bounded sweep at " << site << " hit " << hit;
      }
      if (crashed_at < 0) {
        break;
      }
      fired = true;
    }
    EXPECT_TRUE(fired) << site << " never fired under the tiny budget";
  }
}

TEST_F(DurabilityCrash, CacheErrorInjectionIsSurvivableWithoutReopen) {
  // Non-crash failures at the two cache sites must degrade, not corrupt.
  // extent.read: the statement that faulted fails loudly; the page stays
  // spilled and the next access retries the fault and succeeds.
  // pagecache.writeback: the statement already committed, so the eviction
  // error is swallowed (the cache just stays over budget) and the statement
  // reports success.
  Rig rig;
  rig.cache_budget_bytes = 1;
  Status opened = rig.Open();
  ASSERT_TRUE(opened.ok()) << opened;
  Status seeded = Seed(rig);
  ASSERT_TRUE(seeded.ok()) << seeded;

  FailPoints::Instance().Enable(failpoints::kExtentRead,
                                {.action = FailPointAction::kReturnError,
                                 .trigger = FailPointTrigger::kOneShot,
                                 .n = 1});
  rig.clock.Set(1010);
  auto failed = rig.eng->engine()->ApplyForUser("Scrub", Value::Int(1));
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(FailPoints::IsSimulatedCrash(failed.status()));
  FailPoints::Instance().DisableAll();

  auto audit = rig.eng->engine()->AuditConsistency();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->ok()) << audit->ToString();
  rig.clock.Set(1020);
  EXPECT_TRUE(rig.eng->engine()->ApplyForUser("Scrub", Value::Int(1)).ok())
      << "fault retry after an injected read error must succeed";

  FailPoints::Instance().Enable(failpoints::kPagecacheWriteback,
                                {.action = FailPointAction::kReturnError,
                                 .trigger = FailPointTrigger::kOneShot,
                                 .n = 1});
  rig.clock.Set(1030);
  EXPECT_TRUE(rig.eng->engine()->ApplyForUser("Scrub", Value::Int(2)).ok())
      << "a failed eviction writeback must not fail the committed statement";
  FailPoints::Instance().DisableAll();

  auto audit2 = rig.eng->engine()->AuditConsistency();
  ASSERT_TRUE(audit2.ok());
  EXPECT_TRUE(audit2->ok()) << audit2->ToString();

  // Everything above is on disk; a bounded reopen reproduces it exactly.
  std::string before = rig.Fingerprint();
  ASSERT_TRUE(rig.Reopen().ok());
  EXPECT_EQ(rig.Fingerprint(), before);
}

TEST_F(DurabilityCrash, RandomizedSchedulesAndCrashPoints) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    Rng rng(seed);
    std::vector<Step> steps;
    TimePoint t = 1010;
    size_t ops = 6 + rng.NextBounded(5);
    for (size_t i = 0; i < ops; ++i, t += 10) {
      switch (rng.NextBounded(4)) {
        case 0:
          steps.push_back(CheckpointStep(t));
          break;
        case 1:
          steps.push_back(RevealStep(1 + static_cast<int64_t>(rng.NextBounded(3)), t));
          break;
        default:
          steps.push_back(ApplyStep(1 + static_cast<int64_t>(rng.NextBounded(3)), t));
          break;
      }
    }
    steps.push_back(FlushStep(t));

    std::vector<std::string> dumps = RunReference(steps);
    ASSERT_EQ(dumps.size(), steps.size() + 1) << "seed " << seed;

    const char* site = kCrashSites[rng.NextBounded(std::size(kCrashSites))];
    uint64_t hit = 1 + rng.NextBounded(8);
    RunCrashTrial(steps, dumps, site, hit);
    if (::testing::Test::HasFailure()) {
      FAIL() << "stopping at seed " << seed << " site " << site << " hit " << hit;
    }
  }
}

TEST_F(DurabilityCrash, ErrorInjectionCompensatesWithoutReopen) {
  // kReturnError (a real failure, not a process death) must be compensated
  // in place: the apply fails, the journal entry is retired durably, and the
  // very next apply succeeds with no reopen or Recover() in between.
  Rig rig;
  Status opened = rig.Open();
  ASSERT_TRUE(opened.ok()) << opened;
  Status seeded = Seed(rig);
  ASSERT_TRUE(seeded.ok()) << seeded;
  FailPoints::Instance().Enable(failpoints::kJournalPersist,
                                {.action = FailPointAction::kReturnError,
                                 .trigger = FailPointTrigger::kOneShot,
                                 .n = 1});
  rig.clock.Set(1010);
  auto failed = rig.eng->engine()->ApplyForUser("Scrub", Value::Int(1));
  EXPECT_FALSE(failed.ok());
  EXPECT_FALSE(FailPoints::IsSimulatedCrash(failed.status()));
  FailPoints::Instance().DisableAll();

  auto audit = rig.eng->engine()->AuditConsistency();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->ok()) << audit->ToString();

  rig.clock.Set(1020);
  EXPECT_TRUE(rig.eng->engine()->ApplyForUser("Scrub", Value::Int(1)).ok());

  // And the whole thing is on disk: reopen reproduces it exactly.
  std::string before = rig.Fingerprint();
  ASSERT_TRUE(rig.Reopen().ok());
  EXPECT_EQ(rig.Fingerprint(), before);
}

// The reveal's bookkeeping (log mirror row, vault records, journal
// completion) commits as one transaction appended without an fsync. Every
// site inside it — the commit itself, log.mark_revealed and vault.remove —
// must, for an injected error as well as a crash, leave the log agreeing
// with its mirror and reopen audit-clean, bit-identical to the state just
// before or just after the reveal.
TEST_F(DurabilityCrash, RevealBookkeepingFaultsRollForwardOnReopen) {
  std::vector<Step> steps = CanonicalSchedule(/*with_checkpoint=*/true);
  std::vector<std::string> dumps = RunReference(steps);
  ASSERT_EQ(dumps.size(), steps.size() + 1);

  for (const char* site :
       {failpoints::kDbCommit, failpoints::kLogMarkRevealed, failpoints::kVaultRemove}) {
    for (FailPointAction action : {FailPointAction::kReturnError, FailPointAction::kCrash}) {
      const char* mode = action == FailPointAction::kCrash ? "crash" : "error";
      bool hit_bookkeeping = false;
      for (uint64_t hit = 1; hit <= 24; ++hit) {
        bool in_bookkeeping = false;
        int failed_at = RunCrashTrial(steps, dumps, site, hit, /*cache_budget_bytes=*/0,
                                      action, &in_bookkeeping);
        if (::testing::Test::HasFailure()) {
          FAIL() << "stopping sweep at " << site << " " << mode << " hit " << hit;
        }
        if (failed_at < 0) {
          break;
        }
        hit_bookkeeping = hit_bookkeeping || in_bookkeeping;
      }
      EXPECT_TRUE(hit_bookkeeping)
          << site << " (" << mode << ") never failed inside a reveal's bookkeeping";
    }
  }
}

// A reveal whose restore changes nothing writes no restore commit record,
// so no durable kCommitted marker covers its bookkeeping: that commit must
// fsync itself, or a returned reveal could be lost by a crash.
TEST_F(DurabilityCrash, EmptyRestoreRevealSyncsItsBookkeeping) {
  Rig rig;
  ASSERT_TRUE(rig.Open().ok());
  ASSERT_TRUE(Seed(rig).ok());
  // The second Scrub of a user finds nothing left to disguise, so revealing
  // it restores nothing.
  ASSERT_TRUE(ApplyStep(3, 1010).run(rig).ok());
  ASSERT_TRUE(ApplyStep(3, 1020).run(rig).ok());
  auto entry = rig.eng->engine()->log().LatestActiveFor("Scrub", Value::Int(3));
  ASSERT_TRUE(entry.has_value());
  db::WriteAheadLog* wal = rig.eng->durable()->wal();
  const uint64_t syncs = FailPoints::Instance().Hits(failpoints::kWalSync);
  const uint64_t lsn = wal->appended_lsn();
  auto revealed = rig.eng->engine()->Reveal(entry->id);
  ASSERT_TRUE(revealed.ok()) << revealed.status();
  EXPECT_EQ(revealed->columns_restored + revealed->rows_restored, 0u);
  EXPECT_EQ(wal->appended_lsn() - lsn, 2u) << "journal begin + bookkeeping commit";
  EXPECT_EQ(FailPoints::Instance().Hits(failpoints::kWalSync) - syncs, 1u);
  EXPECT_EQ(wal->durable_lsn(), wal->appended_lsn());
}

TEST_F(DurabilityCrash, CleanReopenMatchesAndStaysUsable) {
  Rig rig;
  Status opened = rig.Open();
  ASSERT_TRUE(opened.ok()) << opened;
  Status seeded = Seed(rig);
  ASSERT_TRUE(seeded.ok()) << seeded;
  for (const Step& step : CanonicalSchedule(/*with_checkpoint=*/true)) {
    Status s = step.run(rig);
    ASSERT_TRUE(s.ok()) << step.name << ": " << s;
  }
  std::string before = rig.Fingerprint();

  ASSERT_TRUE(rig.Reopen().ok());
  EXPECT_EQ(rig.Fingerprint(), before);
  EXPECT_EQ(rig.report.recovery.TotalRepairs(), 0u)
      << "clean shutdown must not need repairs";

  // Keep operating across another reopen: apply, reveal, checkpoint.
  rig.clock.Set(2000);
  auto applied = rig.eng->engine()->ApplyForUser("Scrub", Value::Int(4));
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_TRUE(rig.eng->Checkpoint().ok());
  rig.clock.Set(2010);
  ASSERT_TRUE(rig.eng->engine()->Reveal(applied->disguise_id).ok());
  std::string after = rig.Fingerprint();

  ASSERT_TRUE(rig.Reopen().ok());
  EXPECT_EQ(rig.Fingerprint(), after);
  auto audit = rig.eng->engine()->AuditConsistency();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->ok()) << audit->ToString();
}

TEST_F(DurabilityCrash, WalBitFlipsReopenOnAPrefixOrFailLoudly) {
  // No checkpoint: every operation's records stay in the WAL, so a flip can
  // land anywhere in the post-base history.
  Rig rig;
  Status opened = rig.Open();
  ASSERT_TRUE(opened.ok()) << opened;
  Status seeded = Seed(rig);
  ASSERT_TRUE(seeded.ok()) << seeded;

  // Base prefix: the seed plus one apply (whose first commit also creates
  // the disguise-log mirror table). Flips stay past this point, so every
  // legal truncation lands on a state we fingerprinted — dropping seed DDL
  // would reopen on a mid-seed state the dump list never saw.
  ASSERT_TRUE(ApplyStep(1, 1010).run(rig).ok());
  ASSERT_TRUE(rig.eng->Flush().ok());
  size_t base_size = 0;
  {
    std::ifstream in(rig.tmp.File("wal.edw"), std::ios::binary | std::ios::ate);
    ASSERT_TRUE(in.good());
    base_size = static_cast<size_t>(in.tellg());
  }

  std::set<std::string> legal;
  legal.insert(rig.Fingerprint());
  std::vector<Step> steps;
  steps.push_back(ApplyStep(2, 1020));
  steps.push_back(RevealStep(1, 1030));
  steps.push_back(ApplyStep(3, 1040));
  steps.push_back(FlushStep(1050));
  for (const Step& step : steps) {
    Status s = step.run(rig);
    ASSERT_TRUE(s.ok()) << step.name << ": " << s;
    legal.insert(rig.Fingerprint());
  }
  rig.eng.reset();

  std::string wal_path = rig.tmp.File("wal.edw");
  std::string pristine;
  {
    std::ifstream in(wal_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    pristine.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(pristine.size(), base_size);

  size_t flips = 0, recovered = 0, rejected = 0;
  for (size_t offset = base_size; offset < pristine.size(); offset += 7) {
    // Recovery itself may append repair deltas; restore the whole file so
    // each flip starts from the same image.
    std::string flipped = pristine;
    flipped[offset] = static_cast<char>(flipped[offset] ^ 0x40);
    {
      std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
      out.write(flipped.data(), static_cast<std::streamoff>(flipped.size()));
    }
    ++flips;
    Status opened = rig.Reopen();
    if (!opened.ok()) {
      ++rejected;  // loud failure is a legal outcome; garbage is not
      continue;
    }
    ++recovered;
    auto audit = rig.eng->engine()->AuditConsistency();
    ASSERT_TRUE(audit.ok());
    EXPECT_TRUE(audit->ok()) << "flip at " << offset << ":\n" << audit->ToString();
    EXPECT_TRUE(legal.count(rig.Fingerprint()) == 1)
        << "flip at " << offset
        << " reopened to a state that never existed in the clean history";
    rig.eng.reset();
  }
  // The torn-tail rule means most mid-file flips still reopen on a prefix.
  EXPECT_GT(recovered, 0u);
  EXPECT_GT(flips, rejected);
}

// --- The durable commit contract ----------------------------------------------
//
// Observable cost of the durable hot path, counted at the WAL: fail-point
// evaluations of wal.sync (one per Sync call) and appended LSNs (one per
// record). A per-user GDPR apply appends five records — journal begin,
// disguise id, vault-stored advance, the data commit carrying kCommitted,
// the completion sidecar — and syncs once, at the data commit. A reveal
// appends three — journal begin, the restore commit carrying kCommitted,
// and the bookkeeping commit carrying the completion — and syncs once, at
// the restore commit.
class DurableContract : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoints::Instance().DisableAll();
    DurableEngineOptions options;
    options.clock = &clock_;
    options.engine.deterministic_rng = true;
    auto opened = DurableEngine::Open(tmp_.data(), options);
    ASSERT_TRUE(opened.ok()) << opened.status();
    eng_ = *std::move(opened);
    hotcrp::Config config;
    auto generated = hotcrp::Populate(eng_->db(), config.Scaled(0.05));
    ASSERT_TRUE(generated.ok()) << generated.status();
    uids_ = generated->all_contact_ids;
    auto spec = hotcrp::GdprSpec();
    ASSERT_TRUE(spec.ok()) << spec.status();
    ASSERT_TRUE(eng_->engine()->RegisterSpec(*std::move(spec)).ok());
    ASSERT_TRUE(eng_->Flush().ok());
  }
  void TearDown() override { FailPoints::Instance().DisableAll(); }

  uint64_t Syncs() const { return FailPoints::Instance().Hits(failpoints::kWalSync); }
  uint64_t Lsn() { return eng_->durable()->wal()->appended_lsn(); }

  TempDir tmp_;
  SimulatedClock clock_{1000};
  std::unique_ptr<DurableEngine> eng_;
  std::vector<int64_t> uids_;
};

TEST_F(DurableContract, OneFsyncPerApplyAndPerReveal) {
  ASSERT_GE(uids_.size(), 2u);
  for (int64_t uid : {uids_[0], uids_[1]}) {
    const uint64_t syncs = Syncs();
    const uint64_t lsn = Lsn();
    auto applied = eng_->engine()->ApplyForUser(hotcrp::kGdprName, Value::Int(uid));
    ASSERT_TRUE(applied.ok()) << applied.status();
    EXPECT_EQ(Syncs() - syncs, 1u) << "apply of uid " << uid;
    EXPECT_EQ(Lsn() - lsn, 5u) << "apply of uid " << uid;
  }
  for (int64_t uid : {uids_[0], uids_[1]}) {
    auto entry = eng_->engine()->log().LatestActiveFor(hotcrp::kGdprName, Value::Int(uid));
    ASSERT_TRUE(entry.has_value());
    const uint64_t syncs = Syncs();
    const uint64_t lsn = Lsn();
    auto revealed = eng_->engine()->Reveal(entry->id);
    ASSERT_TRUE(revealed.ok()) << revealed.status();
    EXPECT_EQ(Syncs() - syncs, 1u) << "reveal of uid " << uid;
    EXPECT_EQ(Lsn() - lsn, 3u) << "reveal of uid " << uid;
    EXPECT_LT(eng_->durable()->wal()->durable_lsn(), Lsn())
        << "the bookkeeping commit should be appended without an fsync";
  }
  auto audit = eng_->engine()->AuditConsistency();
  ASSERT_TRUE(audit.ok());
  EXPECT_TRUE(audit->ok()) << audit->ToString();
}

// A clean close fsyncs the unsynced tail (the reveal's bookkeeping commit)
// exactly once, and a close with nothing unsynced does not sync at all.
TEST_F(DurableContract, CleanCloseFlushesTheUnsyncedTail) {
  auto applied = eng_->engine()->ApplyForUser(hotcrp::kGdprName, Value::Int(uids_[0]));
  ASSERT_TRUE(applied.ok()) << applied.status();
  ASSERT_TRUE(eng_->engine()->Reveal(applied->disguise_id).ok());
  const uint64_t tail = Lsn();
  ASSERT_LT(eng_->durable()->wal()->durable_lsn(), tail);

  uint64_t syncs = Syncs();
  eng_.reset();
  EXPECT_EQ(Syncs() - syncs, 1u) << "close must flush the unsynced WAL tail";

  DurableEngineOptions options;
  options.clock = &clock_;
  options.engine.deterministic_rng = true;
  DurableEngineReport report;
  auto reopened = DurableEngine::Open(tmp_.data(), options, &report);
  ASSERT_TRUE(reopened.ok()) << reopened.status();
  eng_ = *std::move(reopened);
  EXPECT_EQ(report.recovery.TotalRepairs(), 0u);
  EXPECT_EQ(Lsn(), tail) << "reopen found a different WAL tail";
  const LogEntry* entry = eng_->engine()->log().Find(applied->disguise_id);
  ASSERT_NE(entry, nullptr);
  EXPECT_FALSE(entry->active);

  ASSERT_TRUE(eng_->Flush().ok());
  syncs = Syncs();
  eng_.reset();
  EXPECT_EQ(Syncs() - syncs, 0u) << "a fully synced log needs no close-time fsync";
}

}  // namespace
}  // namespace edna::core
