// Durable database: a Database bound to an on-disk data directory through a
// write-ahead log and periodic compacted snapshots.
//
// Data-directory layout (docs/FORMATS.md, "Durable data directory"):
//
//   wal.edw              the write-ahead log (src/db/wal.h)
//   snapshot-<L>.edb     compacted database image covering LSNs <= L
//                        (db/storage.cc v3 format; L in decimal)
//   journal-<L>.ednj     the engine's commit-journal image matching
//                        snapshot-<L> (written by the checkpoint's sidecar
//                        provider; absent when no engine is attached)
//
// Open() = recovery: load the newest readable snapshot (falling back past
// corrupt ones only when the WAL still covers the gap — otherwise it fails
// loudly rather than load a state with silent holes), replay WAL records
// with lsn > snapshot LSN, truncate any torn tail, audit integrity, and only
// then attach the durability sink so replay itself never re-logs.
//
// Checkpoint() = compaction: deep-copy the database under shared locks (the
// copy's WAL high-water mark L names the snapshot), serialize and install
// the image via write-temp + fsync + rename + directory fsync, then truncate
// the WAL iff nothing newer than L was appended meanwhile. Every step is
// crash-interruptible: a snapshot is either fully installed or invisible,
// and the WAL is only emptied after the covering snapshot is on disk.
//
// The upper layer (src/core/durable_engine.h) persists its commit journal
// THROUGH the same WAL: standalone deltas ride kSidecar records, and the
// phase advance that must be atomic with a database commit is staged as a
// commit-record attachment (StageAttachment) on the committing thread.
#ifndef SRC_DB_DURABLE_H_
#define SRC_DB_DURABLE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/db/database.h"
#include "src/db/wal.h"

namespace edna::db {

struct DurableOptions {
  WalOptions wal;
  // MaybeCheckpoint() compacts once the WAL grows past this many bytes;
  // 0 disables automatic compaction (explicit Checkpoint() only).
  uint64_t checkpoint_threshold_bytes = 0;
  // Page cache budget (src/db/pagecache.h). max_resident_bytes == 0 leaves
  // the database fully resident unless the EDNA_CACHE_MB environment
  // variable supplies a budget (test/CI hook).
  CacheOptions cache;
};

// What recovery found, for callers that must compose further recovery on
// top (the engine replays journal_image + journal_deltas into its commit
// journal before running its own Recover()).
struct DurableOpenReport {
  uint64_t snapshot_lsn = 0;    // 0 = started from an empty database
  WalScanStats wal;             // torn-tail diagnosis from the WAL scan
  size_t records_replayed = 0;  // WAL records applied (lsn > snapshot_lsn)
  // journal-<snapshot_lsn>.ednj contents; empty when absent.
  std::vector<uint8_t> journal_image;
  // Journal deltas recovered from the WAL in LSN order (kSidecar records
  // plus commit-record attachments), all with lsn > snapshot_lsn.
  std::vector<std::pair<uint64_t, std::vector<uint8_t>>> journal_deltas;
  std::vector<std::string> notes;  // e.g. corrupt snapshots skipped over
};

class DurableDatabase : public WalSink {
 public:
  // Opens (creating if needed) the data directory and recovers the database
  // from snapshot + WAL. On success the returned instance is attached as the
  // database's durability sink.
  static StatusOr<std::unique_ptr<DurableDatabase>> Open(
      const std::string& dir, const DurableOptions& options,
      DurableOpenReport* report);

  // Flushes any unsynced WAL tail before closing (errors are logged).
  ~DurableDatabase() override;

  DurableDatabase(const DurableDatabase&) = delete;
  DurableDatabase& operator=(const DurableDatabase&) = delete;

  Database* db() { return db_.get(); }
  const std::string& dir() const { return dir_; }
  WriteAheadLog* wal() { return wal_.get(); }

  // Compacts: snapshot at the current WAL high-water mark, then truncates
  // the log if still covered, then garbage-collects superseded snapshots.
  // Requires transaction quiescence (kFailedPrecondition otherwise).
  Status Checkpoint();

  // Checkpoint() iff the WAL has outgrown checkpoint_threshold_bytes.
  Status MaybeCheckpoint();

  // Blocks until everything appended so far is fsync-covered.
  Status Flush();

  // --- Upper-layer durability surface ---------------------------------------

  // Appends an opaque sidecar record (engine journal delta). Durability
  // follows from WAL prefix ordering: the delta is fsync-covered by the next
  // synced commit, which is exactly when it starts to matter.
  StatusOr<uint64_t> AppendSidecar(std::vector<uint8_t> blob);

  // Stages a payload that the CALLING THREAD's next committed transaction
  // carries atomically inside its commit record (consumed by that commit,
  // whether the append succeeds or simulates a crash; replaced by a later
  // StageAttachment; dropped on rollback).
  void StageAttachment(std::vector<uint8_t> blob);

  // Registers the provider whose serialized state checkpoints store beside
  // the snapshot (the engine's commit-journal image). Called during
  // Checkpoint() after the database copy is taken.
  void SetSidecarSnapshotProvider(std::function<std::vector<uint8_t>()> provider);

  // --- WalSink (called by the Database) --------------------------------------

  StatusOr<uint64_t> AppendCommit(WalCommit commit) override;
  StatusOr<uint64_t> AppendDdl(const WalRecord& record) override;
  Status SyncCommit(uint64_t lsn) override;
  uint64_t AppendedLsn() const override;
  void OnRollback() override;

 private:
  DurableDatabase(std::string dir, DurableOptions options,
                  std::unique_ptr<Database> db,
                  std::unique_ptr<WriteAheadLog> wal);

  std::string SnapshotPath(uint64_t lsn) const;
  std::string JournalPath(uint64_t lsn) const;

  // Deletes snapshot-*/journal-* files whose LSN differs from `keep_lsn`.
  void GarbageCollect(uint64_t keep_lsn);

  const std::string dir_;
  const DurableOptions options_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<WriteAheadLog> wal_;

  std::mutex checkpoint_mu_;  // one checkpoint at a time
  std::function<std::vector<uint8_t>()> sidecar_provider_;
};

}  // namespace edna::db

#endif  // SRC_DB_DURABLE_H_
