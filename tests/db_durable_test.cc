// DurableDatabase battery: open/replay/checkpoint/reopen round-trips,
// snapshot corruption handling (skip with WAL coverage, loud failure
// without), explicit-transaction durability, concurrent writers, sidecar /
// attachment recovery, and crash-interruptible checkpoints.
#include "src/db/durable.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/db/storage.h"
#include "src/sql/value.h"

namespace edna::db {
namespace {

using sql::Value;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/edna_durable_test_XXXXXX";
    dir_ = mkdtemp(tmpl);
    // DurableDatabase::Open creates the data dir itself; hand it a child so
    // the creation path is exercised too.
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

void BuildSchema(Database* db) {
  TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                  .auto_increment = true})
      .AddColumn({.name = "name", .type = ColumnType::kString, .nullable = false})
      .AddColumn({.name = "email", .type = ColumnType::kString, .nullable = true})
      .SetPrimaryKey({"id"});
  ASSERT_TRUE(db->CreateTable(std::move(users)).ok());
}

// Canonical text dump of every table's rows in RowId order; two databases
// with equal dumps hold identical logical state.
std::string Dump(Database* db) {
  std::string out;
  for (const TableSchema& ts : db->schema().tables()) {
    out += "== " + ts.name() + "\n";
    const Table* t = db->FindTable(ts.name());
    t->Scan([&](RowId id, const Row& row) {
      out += std::to_string(id);
      for (const sql::Value& v : row) {
        out += "|" + v.ToSqlString();
      }
      out += "\n";
    });
  }
  return out;
}

StatusOr<RowId> AddUser(Database* db, const std::string& name) {
  return db->InsertValues("users", {{"name", Value::String(name)}});
}

void Corrupt(const std::string& path, size_t offset, uint8_t xor_mask) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  ASSERT_TRUE(f.good()) << path;
  f.seekg(static_cast<std::streamoff>(offset));
  char byte = 0;
  f.read(&byte, 1);
  f.seekp(static_cast<std::streamoff>(offset));
  byte = static_cast<char>(byte ^ xor_mask);
  f.write(&byte, 1);
}

bool Exists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

TEST(Durable, OpenEmptyWriteReopen) {
  TempDir tmp;
  std::string before;
  {
    DurableOpenReport report;
    auto dd = DurableDatabase::Open(tmp.data(), {}, &report);
    ASSERT_TRUE(dd.ok()) << dd.status();
    EXPECT_EQ(report.snapshot_lsn, 0u);
    EXPECT_EQ(report.records_replayed, 0u);
    BuildSchema((*dd)->db());
    ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());
    ASSERT_TRUE(AddUser((*dd)->db(), "grace").ok());
    before = Dump((*dd)->db());
  }
  DurableOpenReport report;
  auto dd = DurableDatabase::Open(tmp.data(), {}, &report);
  ASSERT_TRUE(dd.ok()) << dd.status();
  EXPECT_EQ(report.snapshot_lsn, 0u);
  EXPECT_GE(report.records_replayed, 3u);  // create-table + 2 commits
  EXPECT_EQ(Dump((*dd)->db()), before);
  // Auto-increment continuity: the next id does not collide with replayed rows.
  auto id = AddUser((*dd)->db(), "katherine");
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(*id, 3);
}

TEST(Durable, CheckpointCompactsAndReopensFromSnapshot) {
  TempDir tmp;
  std::string before;
  {
    auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
    ASSERT_TRUE(dd.ok()) << dd.status();
    BuildSchema((*dd)->db());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(AddUser((*dd)->db(), "u" + std::to_string(i)).ok());
    }
    uint64_t wal_before = (*dd)->wal()->SizeBytes();
    ASSERT_TRUE((*dd)->Checkpoint().ok());
    EXPECT_LT((*dd)->wal()->SizeBytes(), wal_before);
    EXPECT_EQ((*dd)->wal()->SizeBytes(), 16u);  // bare header
    before = Dump((*dd)->db());
  }
  DurableOpenReport report;
  auto dd = DurableDatabase::Open(tmp.data(), {}, &report);
  ASSERT_TRUE(dd.ok()) << dd.status();
  EXPECT_EQ(report.snapshot_lsn, 11u);  // create-table + 10 commits
  EXPECT_EQ(report.records_replayed, 0u);
  EXPECT_EQ(Dump((*dd)->db()), before);
}

TEST(Durable, WritesAndDdlAfterCheckpointReplayOnTop) {
  TempDir tmp;
  std::string before;
  {
    auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
    ASSERT_TRUE(dd.ok());
    BuildSchema((*dd)->db());
    ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());
    ASSERT_TRUE((*dd)->Checkpoint().ok());
    // Post-checkpoint mutations of every WAL record kind.
    ASSERT_TRUE(AddUser((*dd)->db(), "grace").ok());
    ASSERT_TRUE((*dd)
                    ->db()
                    ->AddColumnToTable("users",
                                       {.name = "score", .type = ColumnType::kInt,
                                        .nullable = true},
                                       Value::Int(7))
                    .ok());
    ASSERT_TRUE((*dd)->db()->CreateIndex("users", "name").ok());
    TableSchema notes("notes");
    notes
        .AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                    .auto_increment = true})
        .AddColumn({.name = "body", .type = ColumnType::kString})
        .SetPrimaryKey({"id"});
    ASSERT_TRUE((*dd)->db()->CreateTable(std::move(notes)).ok());
    ASSERT_TRUE(
        (*dd)->db()->InsertValues("notes", {{"body", Value::String("hi")}}).ok());
    before = Dump((*dd)->db());
  }
  DurableOpenReport report;
  auto dd = DurableDatabase::Open(tmp.data(), {}, &report);
  ASSERT_TRUE(dd.ok()) << dd.status();
  EXPECT_GT(report.snapshot_lsn, 0u);
  EXPECT_GE(report.records_replayed, 5u);
  EXPECT_EQ(Dump((*dd)->db()), before);
  EXPECT_TRUE((*dd)->db()->FindTable("users")->HasIndexOn("name"));
}

TEST(Durable, CheckpointRequiresQuiescence) {
  TempDir tmp;
  auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
  ASSERT_TRUE(dd.ok());
  BuildSchema((*dd)->db());
  ASSERT_TRUE((*dd)->db()->Begin().ok());
  ASSERT_TRUE(AddUser((*dd)->db(), "uncommitted").ok());
  Status refused = (*dd)->Checkpoint();
  EXPECT_EQ(refused.code(), StatusCode::kFailedPrecondition) << refused;
  ASSERT_TRUE((*dd)->db()->Rollback().ok());
  EXPECT_TRUE((*dd)->Checkpoint().ok());
}

TEST(Durable, ExplicitTransactionsAreDurable) {
  TempDir tmp;
  std::string before;
  {
    auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
    ASSERT_TRUE(dd.ok());
    BuildSchema((*dd)->db());
    // Committed transaction: both rows survive reopen.
    ASSERT_TRUE((*dd)->db()->Begin().ok());
    ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());
    ASSERT_TRUE(AddUser((*dd)->db(), "grace").ok());
    ASSERT_TRUE((*dd)->db()->Commit().ok());
    // Rolled-back transaction: invisible after reopen.
    ASSERT_TRUE((*dd)->db()->Begin().ok());
    ASSERT_TRUE(AddUser((*dd)->db(), "ghost").ok());
    ASSERT_TRUE((*dd)->db()->Rollback().ok());
    // Insert-then-delete inside one transaction nets out to nothing.
    ASSERT_TRUE((*dd)->db()->Begin().ok());
    auto temp_id = AddUser((*dd)->db(), "fleeting");
    ASSERT_TRUE(temp_id.ok());
    ASSERT_TRUE((*dd)->db()->DeleteRow("users", *temp_id).ok());
    ASSERT_TRUE((*dd)->db()->Commit().ok());
    before = Dump((*dd)->db());
    EXPECT_EQ(before.find("ghost"), std::string::npos);
  }
  auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
  ASSERT_TRUE(dd.ok()) << dd.status();
  std::string after = Dump((*dd)->db());
  EXPECT_EQ(after, before);
  EXPECT_EQ(after.find("ghost"), std::string::npos);
  EXPECT_EQ(after.find("fleeting"), std::string::npos);
}

TEST(Durable, CorruptStraySnapshotSkippedWhileWalCovers) {
  TempDir tmp;
  std::string before;
  {
    auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
    ASSERT_TRUE(dd.ok());
    BuildSchema((*dd)->db());
    ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());
    before = Dump((*dd)->db());
  }
  // A garbage snapshot appears (e.g. torn write of a tool); the WAL still
  // holds full history from LSN 1, so recovery skips it with a note.
  {
    std::ofstream bad(tmp.File("snapshot-999.edb"), std::ios::binary);
    bad << "not a database image";
  }
  DurableOpenReport report;
  auto dd = DurableDatabase::Open(tmp.data(), {}, &report);
  ASSERT_TRUE(dd.ok()) << dd.status();
  EXPECT_EQ(report.snapshot_lsn, 0u);
  ASSERT_FALSE(report.notes.empty());
  EXPECT_NE(report.notes[0].find("snapshot-999"), std::string::npos);
  EXPECT_EQ(Dump((*dd)->db()), before);
}

TEST(Durable, CorruptSnapshotAfterTruncationFailsLoudly) {
  TempDir tmp;
  uint64_t snap_lsn = 0;
  {
    auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
    ASSERT_TRUE(dd.ok());
    BuildSchema((*dd)->db());
    ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());
    ASSERT_TRUE((*dd)->Checkpoint().ok());  // WAL truncated against snapshot-2
    ASSERT_TRUE(AddUser((*dd)->db(), "grace").ok());  // newer WAL on top
    snap_lsn = 2;
  }
  Corrupt(tmp.File("snapshot-" + std::to_string(snap_lsn) + ".edb"), 24, 0xff);
  auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
  ASSERT_FALSE(dd.ok());
  EXPECT_EQ(dd.status().code(), StatusCode::kInternal) << dd.status();
  EXPECT_NE(dd.status().message().find("recovery gap"), std::string::npos)
      << dd.status();
}

TEST(Durable, MissingSnapshotWithTruncatedWalFailsLoudly) {
  TempDir tmp;
  {
    auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
    ASSERT_TRUE(dd.ok());
    BuildSchema((*dd)->db());
    ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());
    ASSERT_TRUE((*dd)->Checkpoint().ok());
  }
  ASSERT_EQ(::unlink(tmp.File("snapshot-2.edb").c_str()), 0);
  auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
  ASSERT_FALSE(dd.ok());
  EXPECT_EQ(dd.status().code(), StatusCode::kInternal) << dd.status();
}

TEST(Durable, ConcurrentWritersAllDurable) {
  TempDir tmp;
  DurableOptions options;
  options.wal.sync_mode = WalOptions::SyncMode::kGroup;
  std::string before;
  {
    auto dd = DurableDatabase::Open(tmp.data(), options, nullptr);
    ASSERT_TRUE(dd.ok());
    BuildSchema((*dd)->db());
    constexpr int kThreads = 8;
    constexpr int kPerThread = 20;
    std::vector<std::thread> threads;
    std::atomic<int> failures{0};
    for (int t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        for (int i = 0; i < kPerThread; ++i) {
          if (!AddUser((*dd)->db(), "w" + std::to_string(t) + "-" + std::to_string(i))
                   .ok()) {
            ++failures;
          }
        }
      });
    }
    for (auto& th : threads) {
      th.join();
    }
    ASSERT_EQ(failures.load(), 0);
    before = Dump((*dd)->db());
  }
  auto dd = DurableDatabase::Open(tmp.data(), options, nullptr);
  ASSERT_TRUE(dd.ok()) << dd.status();
  EXPECT_EQ(Dump((*dd)->db()), before);
  EXPECT_EQ((*dd)->db()->FindTable("users")->num_rows(), 160u);
}

TEST(Durable, SidecarsAndStagedAttachmentsRecoverInLsnOrder) {
  TempDir tmp;
  {
    auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
    ASSERT_TRUE(dd.ok());
    BuildSchema((*dd)->db());
    ASSERT_TRUE((*dd)->AppendSidecar({10}).ok());
    (*dd)->StageAttachment({20});
    ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());  // consumes the staged blob
    ASSERT_TRUE((*dd)->AppendSidecar({30}).ok());
    // A staged blob replaced before any commit: only the replacement rides.
    (*dd)->StageAttachment({40});
    (*dd)->StageAttachment({41});
    ASSERT_TRUE(AddUser((*dd)->db(), "grace").ok());
    // A staged blob dropped by rollback never surfaces.
    (*dd)->StageAttachment({50});
    ASSERT_TRUE((*dd)->db()->Begin().ok());
    ASSERT_TRUE(AddUser((*dd)->db(), "ghost").ok());
    ASSERT_TRUE((*dd)->db()->Rollback().ok());
  }
  DurableOpenReport report;
  auto dd = DurableDatabase::Open(tmp.data(), {}, &report);
  ASSERT_TRUE(dd.ok()) << dd.status();
  std::vector<std::vector<uint8_t>> blobs;
  for (const auto& [lsn, blob] : report.journal_deltas) {
    blobs.push_back(blob);
  }
  EXPECT_EQ(blobs, (std::vector<std::vector<uint8_t>>{{10}, {20}, {30}, {41}}));
  for (size_t i = 1; i < report.journal_deltas.size(); ++i) {
    EXPECT_LT(report.journal_deltas[i - 1].first, report.journal_deltas[i].first);
  }
}

TEST(Durable, MaybeCheckpointHonorsThreshold) {
  TempDir tmp;
  DurableOptions options;
  options.checkpoint_threshold_bytes = 1;  // any appended byte triggers
  auto dd = DurableDatabase::Open(tmp.data(), options, nullptr);
  ASSERT_TRUE(dd.ok());
  BuildSchema((*dd)->db());
  ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());
  ASSERT_GT((*dd)->wal()->SizeBytes(), 16u);
  ASSERT_TRUE((*dd)->MaybeCheckpoint().ok());
  EXPECT_EQ((*dd)->wal()->SizeBytes(), 16u);

  // Threshold 0 disables automatic compaction.
  TempDir tmp2;
  auto dd2 = DurableDatabase::Open(tmp2.data(), {}, nullptr);
  ASSERT_TRUE(dd2.ok());
  BuildSchema((*dd2)->db());
  ASSERT_TRUE(AddUser((*dd2)->db(), "ada").ok());
  uint64_t size = (*dd2)->wal()->SizeBytes();
  ASSERT_TRUE((*dd2)->MaybeCheckpoint().ok());
  EXPECT_EQ((*dd2)->wal()->SizeBytes(), size);
}

// A crash during checkpoint must leave the previous recovery source intact:
// the snapshot is either fully installed or invisible.
TEST(Durable, CrashedCheckpointLeavesRecoverableState) {
  for (const char* site : {failpoints::kSnapshotWrite, failpoints::kSnapshotRename}) {
    TempDir tmp;
    std::string before;
    {
      auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
      ASSERT_TRUE(dd.ok());
      BuildSchema((*dd)->db());
      ASSERT_TRUE(AddUser((*dd)->db(), "ada").ok());
      before = Dump((*dd)->db());
      FailPoints::Instance().Enable(
          site, {.action = FailPointAction::kCrash, .trigger = FailPointTrigger::kOneShot});
      Status crashed = (*dd)->Checkpoint();
      FailPoints::Instance().DisableAll();
      ASSERT_TRUE(FailPoints::IsSimulatedCrash(crashed)) << site << ": " << crashed;
    }
    EXPECT_FALSE(Exists(tmp.File("snapshot-2.edb"))) << site;
    auto dd = DurableDatabase::Open(tmp.data(), {}, nullptr);
    ASSERT_TRUE(dd.ok()) << site << ": " << dd.status();
    EXPECT_EQ(Dump((*dd)->db()), before) << site;
    // And the next checkpoint succeeds.
    EXPECT_TRUE((*dd)->Checkpoint().ok()) << site;
  }
}

}  // namespace
}  // namespace edna::db
