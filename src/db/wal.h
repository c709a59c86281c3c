// Write-ahead log: the append-only redo stream under the durable database
// (src/db/durable.h).
//
// File layout (little-endian, docs/FORMATS.md "Write-ahead log"):
//
//   header:  u32 magic "EDNW", u32 version, u64 base_lsn
//   frames:  u32 payload_len | u32 crc32(payload) | payload
//   payload: u64 lsn | u8 kind | body
//
// LSNs are assigned densely at append time, starting at the header's
// base_lsn; truncation (after a checkpoint) rewrites the header with the
// next LSN, so LSNs stay monotonic across the log's whole lifetime and a
// snapshot named by LSN L dominates exactly the records with lsn <= L.
//
// Records carry *physical redo*: a commit record holds the net row images
// the transaction left behind (full-row put / erase), not the statements
// that produced them. Replay is therefore idempotent — a record may be
// re-applied after a crash mid-checkpoint without changing the outcome.
//
// Torn-tail semantics: Open() scans the file, keeps the longest valid
// prefix (length sane, CRC matches, LSN in sequence), and truncates the
// rest. A crash can only lose a suffix of un-fsynced records, never corrupt
// the recovered prefix, and never produces a half-applied record.
//
// Group commit: Sync(lsn) in kGroup mode elects the first waiter as leader,
// which fsyncs at once; the fsync covers every record appended before it,
// so committers that arrive while it runs wait for it and then share the
// next one. A serial caller therefore pays exactly one fsync per Sync and
// never sleeps. Real fsync failures are sticky (the log refuses further
// syncs), because the kernel may have dropped dirty pages — retrying would
// report durability that never happened.
#ifndef SRC_DB_WAL_H_
#define SRC_DB_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/common/status.h"
#include "src/db/row.h"
#include "src/db/schema.h"
#include "src/sql/value.h"

namespace edna::db {

// One net row change of a committed transaction. `erase` drops the row if
// present; otherwise `row` is the full post-commit image (insert-or-replace
// on replay).
struct WalChange {
  bool erase = false;
  std::string table;
  RowId id = kInvalidRowId;
  Row row;
};

// Body of a commit record.
struct WalCommit {
  std::vector<WalChange> changes;
  // Post-commit auto-increment values of touched tables (last assigned id),
  // so replayed databases hand out the same ids the original would have.
  std::vector<std::pair<std::string, int64_t>> counters;
  // Opaque upper-layer payloads that ride the commit atomically (the engine
  // stages commit-journal phase advances here; see src/core/durable_engine.h).
  std::vector<std::vector<uint8_t>> attachments;
};

struct WalRecord {
  enum class Kind : uint8_t {
    kCommit = 1,       // WalCommit
    kCreateTable = 2,  // schema
    kAddColumn = 3,    // table, column def, fill value
    kCreateIndex = 4,  // table, column name
    kSidecar = 5,      // opaque upper-layer record (journal deltas)
  };

  Kind kind = Kind::kCommit;
  uint64_t lsn = 0;  // assigned by Append

  WalCommit commit;                  // kCommit
  std::optional<TableSchema> schema; // kCreateTable
  std::string table;                 // kAddColumn / kCreateIndex
  ColumnDef column;                  // kAddColumn
  sql::Value fill;                   // kAddColumn
  std::string index_column;          // kCreateIndex
  std::vector<uint8_t> sidecar;      // kSidecar
};

// Outcome of the Open() scan, for recovery reporting.
struct WalScanStats {
  size_t records_recovered = 0;
  size_t torn_bytes_dropped = 0;  // invalid tail truncated from the file
  std::string torn_reason;        // empty if the file ended cleanly
};

struct WalOptions {
  enum class SyncMode : uint8_t {
    kNone,   // never fsync (bench baseline; durability = page cache)
    kGroup,  // leader-follower batched fsync (default)
  };
  SyncMode sync_mode = SyncMode::kGroup;
};

class WriteAheadLog {
 public:
  // Opens (creating if absent) the log at `path`, scans it, truncates any
  // torn tail, and returns the decoded records in LSN order via `replay`.
  // A file whose *header* is unreadable or corrupt fails loudly with
  // kInvalidArgument — silently starting an empty log would discard
  // committed history.
  static StatusOr<std::unique_ptr<WriteAheadLog>> Open(
      const std::string& path, const WalOptions& options,
      std::vector<WalRecord>* replay, WalScanStats* stats);

  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  // Appends one record (assigning its LSN) to the OS file; durability
  // requires a subsequent Sync covering the returned LSN. Serialized
  // internally; callers may append concurrently. Write errors are sticky.
  StatusOr<uint64_t> Append(const WalRecord& record);

  // Blocks until every record with lsn' <= lsn is durable (per sync_mode).
  Status Sync(uint64_t lsn);

  // Syncs everything appended so far.
  Status Flush();

  // Checkpoint hook: if no record newer than `lsn` has been appended,
  // atomically resets the log to empty with base_lsn = lsn + 1 (flushing
  // first) and returns true. Returns false — without touching the file —
  // if concurrent appends moved past `lsn`; the snapshot that covers `lsn`
  // stays valid either way, replay just skips the prefix.
  StatusOr<bool> TruncateIfCovered(uint64_t lsn);

  uint64_t appended_lsn() const;  // last LSN handed out (0 = none yet)
  uint64_t durable_lsn() const;   // last LSN known fsync-covered
  uint64_t SizeBytes() const;     // current file size
  uint64_t fsync_count() const;   // fsyncs issued to cover appends since Open

  const WalOptions& options() const { return options_; }

 private:
  WriteAheadLog(std::string path, int fd, const WalOptions& options,
                uint64_t next_lsn, uint64_t size_bytes);

  // fsyncs the fd; wraps the result in the sticky error state.
  Status FsyncLocked();

  const std::string path_;
  const WalOptions options_;

  mutable std::mutex append_mu_;  // serializes writes + header rewrites
  int fd_ = -1;
  uint64_t next_lsn_ = 1;
  uint64_t size_bytes_ = 0;
  Status write_error_;  // sticky: first failed append poisons the log

  mutable std::mutex sync_mu_;  // leaf; never held with append_mu_ held
  std::condition_variable sync_cv_;
  bool sync_in_progress_ = false;
  uint64_t durable_lsn_ = 0;
  Status sync_error_;  // sticky: a real failed fsync poisons durability

  std::atomic<uint64_t> appended_lsn_{0};
  std::atomic<uint64_t> fsyncs_{0};
};

// Record body codec, exposed for tests and the durable layer.
std::vector<uint8_t> EncodeWalPayload(const WalRecord& record);
StatusOr<WalRecord> DecodeWalPayload(const std::vector<uint8_t>& payload);

}  // namespace edna::db

#endif  // SRC_DB_WAL_H_
