// Shared pieces of the disguise benchmark: run options and results, the
// in-memory span tracer, the layer decorators that time calls into the vault
// and the write-ahead log from outside, and small statistics helpers.
//
// Every workload links the production libraries unchanged. Layer numbers come
// from three sources only: spans recorded around the calls the benchmark (or a
// decorator it installs) makes into a layer's public interface, counter deltas
// the layers already export (DbStats, VaultStats, ApplyResult/RevealResult,
// WriteAheadLog::SizeBytes, DurableEngineReport, the daemon's Stats verb), and
// timestamps taken around client calls.
#ifndef PERFBENCH_SRC_BENCH_H_
#define PERFBENCH_SRC_BENCH_H_

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/apps/hotcrp/generator.h"
#include "src/common/status.h"
#include "src/core/engine.h"
#include "src/db/database.h"
#include "src/disguise/spec.h"
#include "src/sql/value.h"
#include "src/vault/vault.h"

namespace perfbench {

// --- Time --------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             SteadyClock::now().time_since_epoch())
      .count();
}

inline double MsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e6; }

// CPU time the calling thread has used, in ns.
inline int64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

// Wall-clock time and the part of it the calling thread spent on a CPU.
struct Elapsed {
  double wall_ms = 0;
  double cpu_ms = 0;
};

class Stopwatch {
 public:
  Stopwatch() : wall0_(NowNs()), cpu0_(ThreadCpuNs()) {}
  Elapsed Read() const {
    const double wall = MsSince(wall0_);
    return Elapsed{wall, std::min(wall, (ThreadCpuNs() - cpu0_) / 1e6)};
  }

 private:
  int64_t wall0_;
  int64_t cpu0_;
};

// --- Host speed ----------------------------------------------------------------
//
// The benchmark runs on shared virtual machines whose CPU and disk speed drift
// by tens of percent between runs minutes apart (other tenants on the same
// cores and disks), while CPU steal stays near zero. SpeedProbe measures that
// drift from inside the run, on the thread that runs the operations, between
// operations: it times a fixed piece of CPU work shaped like the engine's
// (string keys in hash and ordered maps, string sorting, small allocations)
// by the thread's CPU time, and, for a workload that writes to disk, one
// 4 KiB append to a file of its own followed by fdatasync. Timed results are
// reported at the reference speed: the time the thread spent on a CPU is
// scaled by the CPU probe, the rest of the wall time (waiting for the disk or
// the scheduler) by the disk probe, or kept as measured without one:
//
//   normalized = (wall - cpu) * kReferenceSyncMs / (median recent sync probe)
//              + cpu * kReferenceCpuMs / (median recent CPU probe)
//
// The probes are the benchmark's own code, so a change to the program under
// test moves the normalized figures exactly as much as the measured ones.
class SpeedProbe {
 public:
  // The probes' durations on the host the bounds were set on, so normalized
  // figures read close to measured ones there.
  static constexpr double kReferenceCpuMs = 0.65;
  static constexpr double kReferenceSyncMs = 0.25;

  // Reference over current speed, for the CPU time and for the rest.
  struct Factors {
    double cpu = 1;
    double wait = 1;
  };

  // `sync_path` empty: CPU probe only. Otherwise the disk probe appends to
  // that file, which the probe creates and removes.
  explicit SpeedProbe(std::string sync_path = "");
  ~SpeedProbe();
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  // Runs the probes once, unless fewer than `every` operations went by since
  // the last run; Sample(0) always runs them.
  void Sample(int every);
  // From the medians of the last kWindow probe runs; 1 before the first.
  Factors Current() const;
  // From the medians of the probe runs from index `first` on (every probe
  // run of a span of work).
  Factors Since(size_t first) const;
  // `e` at the reference speed, in ms.
  static double AtReference(Elapsed e, Factors f) {
    return (e.wall_ms - e.cpu_ms) * f.wait + e.cpu_ms * f.cpu;
  }
  double Normalize(Elapsed e) const { return AtReference(e, Current()); }
  // Operations since the last probe run, for Sample's `every`.
  void CountOp() { ++ops_since_; }
  // Number of probe runs so far.
  size_t Runs() const { return cpu_ms_.size(); }
  // One line: how often the probes ran and their medians against the
  // references.
  void PrintSummary() const;

 private:
  static constexpr size_t kWindow = 9;
  std::vector<double> cpu_ms_;
  std::vector<double> sync_ms_;  // empty without a disk probe
  int ops_since_ = 0;
  std::string sync_path_;
  int sync_fd_ = -1;
};

// --- Spans ---------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;  // index into the tracer's span list; -1 = root
  uint64_t op = 0;      // id of the benchmark operation; 0 = none
};

// Keeps every span in memory; WriteJsonLines dumps them when the run ends.
// Thread-safe: daemon shard workers record write-ahead-log spans concurrently
// with the load generator's client spans. A span opened on a thread with no
// open span of its own has no parent (the daemon's worker-thread WAL spans).
class Tracer {
 public:
  int64_t Open(const char* name, uint64_t op_if_root);
  void Close(int64_t index);

  std::vector<Span> Spans() const;
  edna::Status WriteJsonLines(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// RAII span. A null tracer makes it a no-op, so untraced runs pay one branch.
// `op` names the benchmark operation when the span is a root (op.* spans);
// nested spans inherit the enclosing span's operation.
class SpanScope {
 public:
  SpanScope(Tracer* tracer, const char* name, uint64_t op = 0);
  ~SpanScope();

  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  Tracer* tracer_;
  int64_t index_ = -1;
  int64_t saved_parent_ = -1;
  uint64_t saved_op_ = 0;
};

// --- Layer decorators ------------------------------------------------------------

// Times every vault call. StoreBatch forwards to the inner StoreBatch, so the
// encrypted vault keeps its batched sealing; counters stay on the inner vault.
class TimingVault : public edna::vault::Vault {
 public:
  TimingVault(edna::vault::Vault* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  std::string ModelName() const override { return inner_->ModelName(); }
  edna::Status Store(const edna::vault::RevealRecord& record) override;
  edna::Status StoreBatch(const std::vector<edna::vault::RevealRecord>& records) override;
  edna::StatusOr<std::vector<edna::vault::RevealRecord>> FetchForUser(
      const edna::sql::Value& uid) override;
  edna::StatusOr<std::vector<edna::vault::RevealRecord>> FetchForDisguise(
      uint64_t disguise_id) override;
  edna::StatusOr<std::vector<edna::vault::RevealRecord>> FetchGlobal() override;
  edna::Status Remove(uint64_t disguise_id) override;
  edna::StatusOr<std::vector<uint64_t>> ListDisguiseIds() const override;
  edna::StatusOr<size_t> ExpireBefore(edna::TimePoint cutoff) override;
  size_t NumRecords() const override { return inner_->NumRecords(); }
  edna::vault::VaultStats CombinedStats() const override { return inner_->CombinedStats(); }

 private:
  edna::vault::Vault* inner_;
  Tracer* tracer_;
};

// Times every write-ahead-log call the database makes and forwards it
// unchanged to the durable database it was installed over.
class TimingWalSink : public edna::db::WalSink {
 public:
  TimingWalSink(edna::db::WalSink* inner, Tracer* tracer) : inner_(inner), tracer_(tracer) {}

  edna::StatusOr<uint64_t> AppendCommit(edna::db::WalCommit commit) override;
  edna::StatusOr<uint64_t> AppendDdl(const edna::db::WalRecord& record) override;
  edna::Status SyncCommit(uint64_t lsn) override;
  uint64_t AppendedLsn() const override { return inner_->AppendedLsn(); }
  void OnRollback() override { inner_->OnRollback(); }

 private:
  edna::db::WalSink* inner_;
  Tracer* tracer_;
};

// --- Runs ------------------------------------------------------------------------

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  std::string work_dir;      // scratch space for data directories
  Tracer* tracer = nullptr;  // non-null: record spans and layer metrics
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct RunResult {
  // All thirteen end-to-end metrics; a NaN value means "not defined on this
  // workload" (printed as n/a, never emitted in the JSON line). Times and
  // rates are at the reference host speed where the workload runs a
  // SpeedProbe.
  std::map<std::string, Metric> e2e;
  // The same times and rates as measured, before normalization (printed in
  // the report only).
  std::map<std::string, Metric> measured;
  std::map<std::string, Metric> layer;  // filled by traced runs
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> check_failures;  // empty = every output check held

  void Check(bool ok, const std::string& what) {
    if (!ok) check_failures.push_back(what);
  }
  void CheckOk(const edna::Status& s, const std::string& what) {
    if (!s.ok()) check_failures.push_back(what + ": " + s.ToString());
  }
};

// Per-operation latencies of a single-threaded workload and the time its
// operations took, kept once at the reference host speed and once as measured.
struct Timings {
  std::vector<double> apply_ms, reveal_ms, global_apply_ms, global_reveal_ms;
  double timed_s = 0;  // time the operations took, without checks and probes
};

struct TimedSamples {
  Timings normalized, measured;

  // Records one operation, as measured and at the probe's current factor.
  void Add(std::vector<double> Timings::*series, Elapsed e, SpeedProbe* probe);
  // Time spent outside the operations that still counts toward ops_per_s.
  void AddOverhead(Elapsed e, const SpeedProbe& probe);
};

// Sets apply/reveal p50/p99, global_apply/reveal_ms and ops_per_s in r->e2e
// (normalized) and r->measured, and setup_s from one set-up time per
// repetition.
void SetTimingMetrics(RunResult* r, const TimedSamples& s, uint64_t ops,
                      const std::vector<double>& setup_s_normalized,
                      const std::vector<double>& setup_s_measured);

RunResult RunComposeSealed(const RunOptions& options);
RunResult RunDurableSerial(const RunOptions& options);
RunResult RunDaemonClosed(const RunOptions& options);

// --- Inputs ------------------------------------------------------------------------

// The production engine configuration: every option at its default except
// deterministic per-operation randomness, seeded from the command line.
edna::core::EngineOptions ProductionEngineOptions(uint64_t seed);

// HotCRP at scale 1.0 (430 users, 30 PC, 450 papers, 1400 reviews) generated
// from `seed`.
edna::StatusOr<edna::hotcrp::Generated> PopulateHotCrp(edna::db::Database* db, uint64_t seed);

// The three shipped HotCRP disguises (GDPR, GDPR+, ConfAnon).
std::vector<edna::disguise::DisguiseSpec> ShippedSpecs();
edna::Status RegisterShippedSpecs(edna::core::DisguiseEngine* engine);

// --- Helpers ----------------------------------------------------------------------

// Linear-interpolated percentile (p in [0,100]) of an unsorted sample; NaN
// for an empty sample.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

// Application-table fingerprint: every non-reserved table's rows in RowId
// order, read through the locked row API so evicted pages fault back in.
std::string Fingerprint(const edna::db::Database& db);

// Removes `dir` and everything under it, if present; errors are ignored (a
// leftover directory shows up as a failed set-up).
void RemoveTree(const std::string& dir);

// Peak resident set of this process, in MiB.
double PeakRssMb();

// Layer counters shared by every workload: DbStats fields under the names the
// daemon's Stats verb uses ("db_queries"), VaultStats fields as "vault_<field>".
// Workloads take snapshots before and after and emit the difference.
using Counters = std::map<std::string, double>;

Counters CountersOf(const edna::db::DbStats& db);
Counters CountersOf(const edna::vault::VaultStats& vault);
// `after - before`, name by name, plus every name only `after` has.
Counters Delta(const Counters& after, const Counters& before);
// Adds `more` into `*into`, name by name.
void Accumulate(Counters* into, const Counters& more);

// ApplyResult / RevealResult counters summed over a run. Queries count every
// operation; the rest count per-user operations only, so a ConfAnon's
// thousands of placeholders do not swamp the per-user averages.
struct CoreCounters {
  double ops = 0, applies = 0, reveals = 0, queries = 0, placeholders = 0, recorrelated = 0,
         reused = 0, records_scanned = 0, suppressed = 0, redisguised = 0;

  void AddApply(const edna::core::ApplyResult& a, bool per_user);
  void AddReveal(const edna::core::RevealResult& v, bool per_user);
  void Emit(RunResult* r) const;
};

// Emits the per-layer metrics that every workload reports the same way. `ops`
// is the number of engine operations (applies + reveals, globals included).
void AddCounterMetrics(RunResult* r, double ops, const Counters& counters,
                       double resident_bytes);

// Emits the span-derived metrics (self times, vault and WAL time per op).
// Self time of an op.* root is its duration minus the union of its child
// spans, minus its share of the unparented WAL spans (recorded on daemon
// shard workers and spread evenly over the operations), minus
// `wire_ms_per_call` when the op went over the wire (a client.call child).
void AddSpanMetrics(RunResult* r, const std::vector<Span>& spans, double ops,
                    double wire_ms_per_call);

// Fills every per-layer metric a workload did not set with 0, so each traced
// run prints the full, fixed list BENCHMARK.json names. The daemon workload
// adds its own server.*, shard.* and loadgen.* metrics.
void FillLayerDefaults(RunResult* r);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_BENCH_H_
