// Write-ahead log unit battery: payload codec round-trips, torn-tail repair
// at every truncation point, bit-flip corruption (CRC framing), LSN
// continuity across truncation, group-commit concurrency, and the WAL fail
// points. See src/db/wal.h for the format.
#include "src/db/wal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "src/common/failpoint.h"
#include "src/db/schema.h"
#include "src/sql/value.h"

namespace edna::db {
namespace {

using sql::Value;

class TempDir {
 public:
  TempDir() {
    char tmpl[] = "/tmp/edna_wal_test_XXXXXX";
    dir_ = mkdtemp(tmpl);
  }
  ~TempDir() {
    if (!dir_.empty()) {
      std::string cmd = "rm -rf " + dir_;
      [[maybe_unused]] int rc = system(cmd.c_str());
    }
  }
  std::string Path(const std::string& name) const { return dir_ + "/" + name; }

 private:
  std::string dir_;
};

std::vector<uint8_t> ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

WalRecord MakeCommitRecord(int seq) {
  WalRecord rec;
  rec.kind = WalRecord::Kind::kCommit;
  WalChange put;
  put.table = "users";
  put.id = 100 + seq;
  put.row = {Value::Int(100 + seq), Value::String("user-" + std::to_string(seq)),
             Value::Null()};
  rec.commit.changes.push_back(std::move(put));
  WalChange del;
  del.erase = true;
  del.table = "notes";
  del.id = 7;
  rec.commit.changes.push_back(std::move(del));
  rec.commit.counters.emplace_back("users", 100 + seq);
  rec.commit.attachments.push_back({1, 2, 3, uint8_t(seq)});
  return rec;
}

// --- Payload codec -----------------------------------------------------------

TEST(WalCodec, CommitRoundTrip) {
  WalRecord rec = MakeCommitRecord(1);
  rec.lsn = 42;
  auto decoded = DecodeWalPayload(EncodeWalPayload(rec));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->lsn, 42u);
  EXPECT_EQ(decoded->kind, WalRecord::Kind::kCommit);
  ASSERT_EQ(decoded->commit.changes.size(), 2u);
  EXPECT_FALSE(decoded->commit.changes[0].erase);
  EXPECT_EQ(decoded->commit.changes[0].table, "users");
  EXPECT_EQ(decoded->commit.changes[0].id, 101);
  ASSERT_EQ(decoded->commit.changes[0].row.size(), 3u);
  EXPECT_EQ(decoded->commit.changes[0].row[1], Value::String("user-1"));
  EXPECT_TRUE(decoded->commit.changes[1].erase);
  ASSERT_EQ(decoded->commit.counters.size(), 1u);
  EXPECT_EQ(decoded->commit.counters[0].second, 101);
  ASSERT_EQ(decoded->commit.attachments.size(), 1u);
  EXPECT_EQ(decoded->commit.attachments[0], (std::vector<uint8_t>{1, 2, 3, 1}));
}

TEST(WalCodec, DdlAndSidecarRoundTrip) {
  WalRecord ct;
  ct.kind = WalRecord::Kind::kCreateTable;
  ct.lsn = 1;
  TableSchema ts("things");
  ts.AddColumn({.name = "id", .type = ColumnType::kInt, .nullable = false,
                .auto_increment = true})
      .SetPrimaryKey({"id"});
  ct.schema = ts;
  auto ct2 = DecodeWalPayload(EncodeWalPayload(ct));
  ASSERT_TRUE(ct2.ok()) << ct2.status();
  ASSERT_TRUE(ct2->schema.has_value());
  EXPECT_EQ(ct2->schema->name(), "things");

  WalRecord ac;
  ac.kind = WalRecord::Kind::kAddColumn;
  ac.lsn = 2;
  ac.table = "things";
  ac.column = {.name = "label", .type = ColumnType::kString, .nullable = true};
  ac.fill = Value::String("x");
  auto ac2 = DecodeWalPayload(EncodeWalPayload(ac));
  ASSERT_TRUE(ac2.ok()) << ac2.status();
  EXPECT_EQ(ac2->table, "things");
  EXPECT_EQ(ac2->column.name, "label");
  EXPECT_EQ(ac2->fill, Value::String("x"));

  WalRecord ci;
  ci.kind = WalRecord::Kind::kCreateIndex;
  ci.lsn = 3;
  ci.table = "things";
  ci.index_column = "label";
  auto ci2 = DecodeWalPayload(EncodeWalPayload(ci));
  ASSERT_TRUE(ci2.ok()) << ci2.status();
  EXPECT_EQ(ci2->index_column, "label");

  WalRecord sc;
  sc.kind = WalRecord::Kind::kSidecar;
  sc.lsn = 4;
  sc.sidecar = {9, 8, 7};
  auto sc2 = DecodeWalPayload(EncodeWalPayload(sc));
  ASSERT_TRUE(sc2.ok()) << sc2.status();
  EXPECT_EQ(sc2->sidecar, (std::vector<uint8_t>{9, 8, 7}));
}

TEST(WalCodec, GarbageNeverDecodes) {
  auto bad = DecodeWalPayload({0xde, 0xad, 0xbe, 0xef});
  EXPECT_FALSE(bad.ok());
}

// --- Append / reopen ---------------------------------------------------------

TEST(Wal, AppendReopenReplaysEverything) {
  TempDir tmp;
  const std::string path = tmp.Path("wal.edw");
  {
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(path, {}, &replay, &stats);
    ASSERT_TRUE(wal.ok()) << wal.status();
    EXPECT_TRUE(replay.empty());
    for (int i = 0; i < 5; ++i) {
      auto lsn = (*wal)->Append(MakeCommitRecord(i));
      ASSERT_TRUE(lsn.ok()) << lsn.status();
      EXPECT_EQ(*lsn, static_cast<uint64_t>(i + 1));
    }
    ASSERT_TRUE((*wal)->Flush().ok());
    EXPECT_EQ((*wal)->durable_lsn(), 5u);
  }
  std::vector<WalRecord> replay;
  WalScanStats stats;
  auto wal = WriteAheadLog::Open(path, {}, &replay, &stats);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_EQ(replay.size(), 5u);
  EXPECT_EQ(stats.records_recovered, 5u);
  EXPECT_EQ(stats.torn_bytes_dropped, 0u);
  for (size_t i = 0; i < replay.size(); ++i) {
    EXPECT_EQ(replay[i].lsn, i + 1);
    ASSERT_EQ(replay[i].commit.changes.size(), 2u);
    EXPECT_EQ(replay[i].commit.changes[0].id, static_cast<RowId>(100 + i));
  }
  EXPECT_EQ((*wal)->appended_lsn(), 5u);
}

TEST(Wal, TruncatePreservesLsnContinuity) {
  TempDir tmp;
  const std::string path = tmp.Path("wal.edw");
  {
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(path, {}, &replay, &stats);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeCommitRecord(i)).ok());
    }
    auto truncated = (*wal)->TruncateIfCovered(3);
    ASSERT_TRUE(truncated.ok()) << truncated.status();
    EXPECT_TRUE(*truncated);
    // LSNs keep counting from where they were.
    auto lsn = (*wal)->Append(MakeCommitRecord(3));
    ASSERT_TRUE(lsn.ok());
    EXPECT_EQ(*lsn, 4u);
    // A stale mark is refused without touching the file.
    auto stale = (*wal)->TruncateIfCovered(3);
    ASSERT_TRUE(stale.ok());
    EXPECT_FALSE(*stale);
    ASSERT_TRUE((*wal)->Flush().ok());
  }
  std::vector<WalRecord> replay;
  WalScanStats stats;
  auto wal = WriteAheadLog::Open(path, {}, &replay, &stats);
  ASSERT_TRUE(wal.ok()) << wal.status();
  ASSERT_EQ(replay.size(), 1u);
  EXPECT_EQ(replay[0].lsn, 4u);
  EXPECT_EQ((*wal)->appended_lsn(), 4u);
}

// --- Torn tails and corruption ----------------------------------------------

// A WAL truncated at EVERY possible byte length recovers the longest intact
// record prefix and repairs the file — no crash, no partial record, ever.
TEST(Wal, TornTailAtEveryTruncationPoint) {
  TempDir tmp;
  const std::string path = tmp.Path("wal.edw");
  std::vector<size_t> frame_ends;  // cumulative file size after each record
  {
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(path, {}, &replay, &stats);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeCommitRecord(i)).ok());
      frame_ends.push_back((*wal)->SizeBytes());
    }
    ASSERT_TRUE((*wal)->Flush().ok());
  }
  const std::vector<uint8_t> full = ReadAll(path);
  ASSERT_EQ(full.size(), frame_ends.back());
  const size_t header = 16;  // magic + version + base_lsn
  for (size_t len = header; len <= full.size(); ++len) {
    const std::string cut = tmp.Path("cut.edw");
    WriteAll(cut, std::vector<uint8_t>(full.begin(), full.begin() + len));
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(cut, {}, &replay, &stats);
    ASSERT_TRUE(wal.ok()) << "len=" << len << ": " << wal.status();
    size_t expect = 0;
    while (expect < frame_ends.size() && frame_ends[expect] <= len) {
      ++expect;
    }
    EXPECT_EQ(replay.size(), expect) << "len=" << len;
    EXPECT_EQ(stats.torn_bytes_dropped, len - (expect == 0 ? header : frame_ends[expect - 1]))
        << "len=" << len;
    // The repair truncated the torn tail: a second open is clean.
    wal->reset();
    std::vector<WalRecord> replay2;
    WalScanStats stats2;
    auto wal2 = WriteAheadLog::Open(cut, {}, &replay2, &stats2);
    ASSERT_TRUE(wal2.ok()) << "len=" << len;
    EXPECT_EQ(replay2.size(), expect);
    EXPECT_EQ(stats2.torn_bytes_dropped, 0u) << "len=" << len;
  }
}

// Truncating inside the 16-byte header fails loudly instead of silently
// starting an empty log over lost history.
TEST(Wal, TruncatedHeaderFailsLoudly) {
  TempDir tmp;
  const std::string path = tmp.Path("wal.edw");
  {
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(path, {}, &replay, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(MakeCommitRecord(0)).ok());
    ASSERT_TRUE((*wal)->Flush().ok());
  }
  const std::vector<uint8_t> full = ReadAll(path);
  for (size_t len = 1; len < 16; ++len) {
    const std::string cut = tmp.Path("hdr.edw");
    WriteAll(cut, std::vector<uint8_t>(full.begin(), full.begin() + len));
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(cut, {}, &replay, &stats);
    EXPECT_FALSE(wal.ok()) << "len=" << len;
  }
}

// Every single-bit flip in the body is caught by the CRC (or the length /
// LSN sanity checks): the open either recovers a strict record prefix or
// fails loudly; flipped bytes never decode into a bogus record.
TEST(Wal, BitFlipAtEveryByteNeverYieldsGarbage) {
  TempDir tmp;
  const std::string path = tmp.Path("wal.edw");
  std::vector<size_t> frame_ends;
  {
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(path, {}, &replay, &stats);
    ASSERT_TRUE(wal.ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE((*wal)->Append(MakeCommitRecord(i)).ok());
      frame_ends.push_back((*wal)->SizeBytes());
    }
    ASSERT_TRUE((*wal)->Flush().ok());
  }
  const std::vector<uint8_t> full = ReadAll(path);
  const std::vector<WalRecord> originals = [&] {
    std::vector<WalRecord> out;
    for (int i = 0; i < 3; ++i) {
      WalRecord r = MakeCommitRecord(i);
      r.lsn = static_cast<uint64_t>(i + 1);
      out.push_back(std::move(r));
    }
    return out;
  }();
  const size_t header = 16;
  for (size_t off = header; off < full.size(); ++off) {
    std::vector<uint8_t> flipped = full;
    flipped[off] ^= 0x01;
    const std::string bad = tmp.Path("flip.edw");
    WriteAll(bad, flipped);
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(bad, {}, &replay, &stats);
    ASSERT_TRUE(wal.ok()) << "off=" << off << ": " << wal.status();
    // Find the record the flipped byte belongs to: everything before it must
    // replay intact, everything from it on must be dropped.
    size_t victim = 0;
    while (victim < frame_ends.size() && frame_ends[victim] <= off) {
      ++victim;
    }
    ASSERT_EQ(replay.size(), victim) << "off=" << off;
    for (size_t i = 0; i < replay.size(); ++i) {
      EXPECT_EQ(replay[i].lsn, originals[i].lsn);
      EXPECT_EQ(EncodeWalPayload(replay[i]), EncodeWalPayload(originals[i]))
          << "off=" << off << " record=" << i;
    }
    EXPECT_FALSE(stats.torn_reason.empty()) << "off=" << off;
  }
}

// Flipping header bytes must fail loudly (magic / version) or drop all
// records (base_lsn breaks the dense-LSN check) — never misattribute LSNs.
TEST(Wal, BitFlipInHeaderFailsLoudlyOrDropsAll) {
  TempDir tmp;
  const std::string path = tmp.Path("wal.edw");
  {
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(path, {}, &replay, &stats);
    ASSERT_TRUE(wal.ok());
    ASSERT_TRUE((*wal)->Append(MakeCommitRecord(0)).ok());
    ASSERT_TRUE((*wal)->Flush().ok());
  }
  const std::vector<uint8_t> full = ReadAll(path);
  for (size_t off = 0; off < 16; ++off) {
    std::vector<uint8_t> flipped = full;
    flipped[off] ^= 0x01;
    const std::string bad = tmp.Path("hdrflip.edw");
    WriteAll(bad, flipped);
    std::vector<WalRecord> replay;
    WalScanStats stats;
    auto wal = WriteAheadLog::Open(bad, {}, &replay, &stats);
    if (wal.ok()) {
      EXPECT_TRUE(replay.empty()) << "off=" << off;
    }
  }
}

// --- Group commit ------------------------------------------------------------

// A serial committer is never a follower: each Sync elects it leader and
// fsyncs at once, so N commits cost exactly N fsyncs (there is no linger
// waiting for followers that never come), and re-syncing a covered LSN
// costs none.
TEST(Wal, SerialGroupCommitFsyncsOncePerCommit) {
  TempDir tmp;
  WalOptions options;
  options.sync_mode = WalOptions::SyncMode::kGroup;
  std::vector<WalRecord> replay;
  WalScanStats stats;
  auto wal = WriteAheadLog::Open(tmp.Path("wal.edw"), options, &replay, &stats);
  ASSERT_TRUE(wal.ok());
  constexpr int kCommits = 20;
  const uint64_t before = (*wal)->fsync_count();
  for (int i = 0; i < kCommits; ++i) {
    auto lsn = (*wal)->Append(MakeCommitRecord(i));
    ASSERT_TRUE(lsn.ok()) << lsn.status();
    ASSERT_TRUE((*wal)->Sync(*lsn).ok());
    EXPECT_EQ((*wal)->durable_lsn(), *lsn);
    ASSERT_TRUE((*wal)->Sync(*lsn).ok());  // already covered: no fsync
  }
  EXPECT_EQ((*wal)->fsync_count() - before, static_cast<uint64_t>(kCommits));
  ASSERT_TRUE((*wal)->Flush().ok());
  EXPECT_EQ((*wal)->fsync_count() - before, static_cast<uint64_t>(kCommits));
}

TEST(Wal, GroupCommitConcurrentAppenders) {
  TempDir tmp;
  WalOptions options;
  options.sync_mode = WalOptions::SyncMode::kGroup;
  std::vector<WalRecord> replay;
  WalScanStats stats;
  auto wal = WriteAheadLog::Open(tmp.Path("wal.edw"), options, &replay, &stats);
  ASSERT_TRUE(wal.ok());
  const uint64_t fsyncs_before = (*wal)->fsync_count();
  constexpr int kThreads = 8;
  constexpr int kPerThread = 25;
  std::vector<std::thread> threads;
  std::atomic<int> failures{0};
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        auto lsn = (*wal)->Append(MakeCommitRecord(t * kPerThread + i));
        if (!lsn.ok() || !(*wal)->Sync(*lsn).ok()) {
          ++failures;
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ((*wal)->appended_lsn(), static_cast<uint64_t>(kThreads * kPerThread));
  EXPECT_EQ((*wal)->durable_lsn(), (*wal)->appended_lsn());
  // Committers that append while a leader fsyncs share the next fsync.
  EXPECT_LT((*wal)->fsync_count() - fsyncs_before,
            static_cast<uint64_t>(kThreads * kPerThread));
  wal->reset();

  std::vector<WalRecord> replay2;
  WalScanStats stats2;
  auto wal2 = WriteAheadLog::Open(tmp.Path("wal.edw"), options, &replay2, &stats2);
  ASSERT_TRUE(wal2.ok());
  ASSERT_EQ(replay2.size(), static_cast<size_t>(kThreads * kPerThread));
  for (size_t i = 0; i < replay2.size(); ++i) {
    EXPECT_EQ(replay2[i].lsn, i + 1);  // dense, no gaps, no duplicates
  }
}

// --- Fail points -------------------------------------------------------------

TEST(Wal, FailPointsInjectWithoutPoisoning) {
  TempDir tmp;
  std::vector<WalRecord> replay;
  WalScanStats stats;
  auto wal = WriteAheadLog::Open(tmp.Path("wal.edw"), {}, &replay, &stats);
  ASSERT_TRUE(wal.ok());

  auto& fp = FailPoints::Instance();
  fp.Enable(failpoints::kWalAppend,
            {.action = FailPointAction::kCrash, .trigger = FailPointTrigger::kOneShot});
  auto crashed = (*wal)->Append(MakeCommitRecord(0));
  ASSERT_FALSE(crashed.ok());
  EXPECT_TRUE(FailPoints::IsSimulatedCrash(crashed.status()));
  fp.DisableAll();
  // Injected failures are not sticky — the log still works.
  auto ok = (*wal)->Append(MakeCommitRecord(1));
  ASSERT_TRUE(ok.ok()) << ok.status();
  EXPECT_EQ(*ok, 1u);

  fp.Enable(failpoints::kWalSync,
            {.action = FailPointAction::kReturnError, .trigger = FailPointTrigger::kOneShot});
  EXPECT_FALSE((*wal)->Sync(*ok).ok());
  fp.DisableAll();
  EXPECT_TRUE((*wal)->Sync(*ok).ok());

  fp.Enable(failpoints::kWalTruncate,
            {.action = FailPointAction::kCrash, .trigger = FailPointTrigger::kOneShot});
  auto trunc = (*wal)->TruncateIfCovered(1);
  ASSERT_FALSE(trunc.ok());
  EXPECT_TRUE(FailPoints::IsSimulatedCrash(trunc.status()));
  fp.DisableAll();
  auto trunc2 = (*wal)->TruncateIfCovered(1);
  ASSERT_TRUE(trunc2.ok()) << trunc2.status();
  EXPECT_TRUE(*trunc2);
}

}  // namespace
}  // namespace edna::db
