// durable-serial: one closed-loop client against a DurableEngine with the
// production write-ahead log (group commit) and a page cache smaller than the
// working set. Each round applies and reveals ConfAnon with no other disguise
// active, then applies HotCRP-GDPR to a seeded permutation of all contacts and
// reveals them in application order (so each reveal is filtered through the
// disguises applied after it, §4.2). MaybeCheckpoint() runs after every
// operation and counts toward its latency; ending on per-user operations
// leaves a write-ahead-log tail for the reopen to replay. After the last round the engine
// closes and the directory is reopened: the reopened application tables must
// equal the state before close, and the audit must be clean.
//
// Latencies come from every round the run completes. The per-layer counters
// come from the first kCountedRounds rounds only, so for a given seed they
// repeat exactly whatever the host's speed.
#include <dirent.h>
#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <memory>

#include "perfbench/src/bench.h"
#include "src/apps/hotcrp/disguises.h"
#include "src/common/rng.h"
#include "src/core/durable_engine.h"

namespace perfbench {

namespace {

using edna::sql::Value;

// About half the resident bytes this workload reaches unbounded (~3.2 MB).
constexpr uint64_t kCacheBudgetBytes = 1536 * 1024;
constexpr uint64_t kCheckpointThresholdBytes = 1024 * 1024;
constexpr int kCountedRounds = 3;
// Operations between two runs of the speed probe (about 20 ms of work).
constexpr int kProbeEvery = 4;

edna::core::DurableEngineOptions Options(uint64_t seed) {
  edna::core::DurableEngineOptions options;
  options.durable.checkpoint_threshold_bytes = kCheckpointThresholdBytes;
  options.durable.cache.max_resident_bytes = kCacheBudgetBytes;
  options.engine = ProductionEngineOptions(seed);
  return options;
}

// Size of the newest snapshot-<L>.edb in `dir` (what the last checkpoint wrote).
uint64_t NewestSnapshotBytes(const std::string& dir) {
  uint64_t best_lsn = 0, bytes = 0;
  DIR* d = opendir(dir.c_str());
  if (d == nullptr) {
    return 0;
  }
  while (struct dirent* e = readdir(d)) {
    unsigned long long lsn = 0;
    if (std::sscanf(e->d_name, "snapshot-%llu.edb", &lsn) == 1 && lsn >= best_lsn) {
      struct stat st {};
      if (stat((dir + "/" + e->d_name).c_str(), &st) == 0) {
        best_lsn = lsn;
        bytes = static_cast<uint64_t>(st.st_size);
      }
    }
  }
  closedir(d);
  return bytes;
}

struct Setup {
  std::string dir;
  std::unique_ptr<edna::core::DurableEngine> engine;
  edna::hotcrp::Generated gen;
};

// Empty data directory `dir`: open, generate HotCRP, first checkpoint,
// register the shipped specs, then one apply/reveal warm-up (creates the
// disguise-log mirror and fills the plan cache).
edna::StatusOr<Setup> MakeSetup(const std::string& dir, uint64_t seed) {
  Setup s;
  s.dir = dir;
  ASSIGN_OR_RETURN(s.engine, edna::core::DurableEngine::Open(dir, Options(seed)));
  // One transaction, so generation costs one WAL sync instead of one per row.
  RETURN_IF_ERROR(s.engine->db()->Begin());
  ASSIGN_OR_RETURN(s.gen, PopulateHotCrp(s.engine->db(), seed));
  RETURN_IF_ERROR(s.engine->db()->Commit());
  RETURN_IF_ERROR(s.engine->Checkpoint());
  RETURN_IF_ERROR(RegisterShippedSpecs(s.engine->engine()));
  const Value warm_uid = Value::Int(s.gen.all_contact_ids.front());
  ASSIGN_OR_RETURN(auto applied,
                   s.engine->engine()->ApplyForUser(edna::hotcrp::kGdprName, warm_uid));
  RETURN_IF_ERROR(s.engine->engine()->Reveal(applied.disguise_id).status());
  RETURN_IF_ERROR(s.engine->Checkpoint());
  return s;
}

// Running totals; a copy taken after kCountedRounds rounds feeds the
// per-layer metrics.
struct Totals {
  uint64_t ops = 0, failed = 0;
  uint64_t last_op = 0;  // id of the latest operation (span op ids)
  double wal_bytes = 0, wal_records = 0;
  double checkpoints = 0, checkpoint_ms = 0, checkpoint_bytes = 0;
  CoreCounters core;
  Counters counters;  // DbStats / VaultStats deltas, filled when the copy is taken
  double resident_bytes = 0;
};


}  // namespace

RunResult RunDurableSerial(const RunOptions& options) {
  RunResult r;
  Tracer* tracer = options.tracer;

  // Set-up, repeated; its median is setup_s. The probe runs between the
  // repetitions, outside their time, and all of its runs normalize each one.
  constexpr int kSetups = 9;
  constexpr int kSetupProbes = 5;
  std::vector<Elapsed> setups;
  std::vector<double> setup_s_measured;
  SpeedProbe probe(options.work_dir + "/sync-probe");
  Setup setup;
  const std::string dir = options.work_dir + "/durable-serial";
  for (int p = 0; p < kSetupProbes; ++p) probe.Sample(0);
  for (int i = 0; i < kSetups; ++i) {
    setup = Setup{};  // closes the previous repetition's engine first
    RemoveTree(dir);
    const Stopwatch watch;
    auto made = MakeSetup(dir, options.seed);
    setups.push_back(watch.Read());
    setup_s_measured.push_back(setups.back().wall_ms / 1e3);
    for (int p = 0; p < kSetupProbes; ++p) probe.Sample(0);
    if (!made.ok()) {
      r.CheckOk(made.status(), "setup");
      return r;
    }
    setup = *std::move(made);
  }
  std::vector<double> setup_s;
  for (const Elapsed& e : setups) {
    setup_s.push_back(SpeedProbe::AtReference(e, probe.Since(0)) / 1e3);
  }
  edna::core::DurableEngine* de = setup.engine.get();
  edna::core::DisguiseEngine* engine = de->engine();
  edna::db::WriteAheadLog* wal = de->durable()->wal();
  TimingWalSink timed_wal(de->durable(), tracer);
  if (tracer != nullptr) {
    de->db()->SetWalSink(&timed_wal);
  }

  TimedSamples timed;
  Totals t;
  // One engine call plus the checkpoint that may follow it. The probe runs
  // before the operation, outside its span.
  auto run_op = [&](const char* span_name, std::vector<double> Timings::*series,
                    auto&& call) -> bool {
    probe.Sample(kProbeEvery);
    SpanScope span(tracer, span_name, ++t.last_op);
    const uint64_t lsn0 = wal->appended_lsn();
    const uint64_t size0 = wal->SizeBytes();
    const Stopwatch watch;
    bool ok = call();
    const uint64_t size1 = wal->SizeBytes();
    const int64_t c0 = NowNs();
    edna::Status cp;
    {
      SpanScope cspan(tracer, "checkpoint");
      cp = de->MaybeCheckpoint();
    }
    const int64_t t1 = NowNs();
    const Elapsed elapsed = watch.Read();
    ++t.ops;
    t.wal_bytes += static_cast<double>(size1 - size0);
    t.wal_records += static_cast<double>(wal->appended_lsn() - lsn0);
    if (!cp.ok()) {
      r.CheckOk(cp, "checkpoint");
      ok = false;
    } else if (wal->SizeBytes() < size1) {
      t.checkpoints += 1;
      t.checkpoint_ms += (t1 - c0) / 1e6;
      t.checkpoint_bytes += static_cast<double>(NewestSnapshotBytes(setup.dir));
    }
    if (ok) {
      timed.Add(series, elapsed, &probe);
    } else {
      ++t.failed;
    }
    return ok;
  };

  edna::Rng schedule(edna::Rng(options.seed).Fork(1).NextU64());
  Counters before = CountersOf(de->db()->stats());
  Accumulate(&before, CountersOf(de->vault()->stats()));
  Totals counted;
  const int64_t start = NowNs();
  int rounds = 0;
  bool ok = true;
  while (ok && (rounds < 3 || (NowNs() - start) / 1e9 < options.seconds)) {
    uint64_t anon_id = 0;
    ok = ok && run_op("op.global_apply", &Timings::global_apply_ms, [&] {
      auto a = engine->Apply(edna::hotcrp::kConfAnonName, {});
      if (!a.ok()) {
        r.CheckOk(a.status(), "ConfAnon apply");
        return false;
      }
      anon_id = a->disguise_id;
      t.core.AddApply(*a, false);
      return true;
    });
    ok = ok && run_op("op.global_reveal", &Timings::global_reveal_ms, [&] {
      auto v = engine->Reveal(anon_id);
      if (!v.ok()) {
        r.CheckOk(v.status(), "ConfAnon reveal");
        return false;
      }
      t.core.AddReveal(*v, false);
      return true;
    });
    std::vector<int64_t> order = setup.gen.all_contact_ids;
    schedule.Shuffle(&order);
    std::vector<uint64_t> ids;
    for (int64_t uid : order) {
      ok = ok && run_op("op.apply", &Timings::apply_ms, [&] {
        auto a = engine->ApplyForUser(edna::hotcrp::kGdprName, Value::Int(uid));
        if (!a.ok()) {
          r.CheckOk(a.status(), "GDPR apply uid " + std::to_string(uid));
          return false;
        }
        ids.push_back(a->disguise_id);
        t.core.AddApply(*a, true);
        return true;
      });
    }
    for (uint64_t id : ids) {
      ok = ok && run_op("op.reveal", &Timings::reveal_ms, [&] {
        auto v = engine->Reveal(id);
        if (!v.ok()) {
          r.CheckOk(v.status(), "GDPR reveal");
          return false;
        }
        t.core.AddReveal(*v, true);
        return true;
      });
    }
    if (++rounds == kCountedRounds) {
      counted = t;
      Counters after = CountersOf(de->db()->stats());
      Accumulate(&after, CountersOf(de->vault()->stats()));
      counted.counters = Delta(after, before);
      counted.resident_bytes = static_cast<double>(de->db()->stats().resident_bytes.load());
    }
  }
  r.attempted = t.ops;
  r.failed = t.failed;

  // Close, then reopen the directory the run left behind. The first reopen is
  // checked; recover_s is the median of three.
  const std::string before_close = Fingerprint(*de->db());
  de->db()->SetWalSink(de->durable());
  setup.engine.reset();
  std::vector<double> recover_s;
  double replayed = 0;
  for (int i = 0; i < 3; ++i) {
    edna::core::DurableEngineReport report;
    const int64_t t0 = NowNs();
    auto reopened = edna::core::DurableEngine::Open(setup.dir, Options(options.seed), &report);
    recover_s.push_back((NowNs() - t0) / 1e9);
    if (!reopened.ok()) {
      r.CheckOk(reopened.status(), "reopen");
      break;
    }
    replayed = static_cast<double>(report.db.records_replayed);
    if (i == 0) {
      r.Check(Fingerprint(*(*reopened)->db()) == before_close,
              "reopened application tables differ from the state before close");
      r.CheckOk((*reopened)->db()->CheckIntegrity(), "integrity after reopen");
      auto audit = (*reopened)->engine()->AuditConsistency();
      if (!audit.ok()) {
        r.CheckOk(audit.status(), "audit after reopen");
      } else {
        r.Check(audit->ok(), "audit after reopen: " + audit->ToString());
      }
    }
  }
  RemoveTree(setup.dir);

  const double ops = static_cast<double>(t.ops);
  auto e2e = [&](const char* name, double v, const char* unit) { r.e2e[name] = {v, unit}; };
  SetTimingMetrics(&r, timed, t.ops, setup_s, setup_s_measured);
  e2e("max_rate_ops_s", std::nan(""), "1/s");
  e2e("wal_bytes_per_op", t.wal_bytes / ops, "bytes");
  e2e("recover_s", Median(recover_s), "s");
  e2e("peak_rss_mb", PeakRssMb(), "MiB");
  e2e("error_rate", ops > 0 ? static_cast<double>(t.failed) / ops : 0, "ratio");
  std::printf("durable-serial: %d rounds, %zu applies, %zu reveals, %.0f checkpoints\n",
              rounds, timed.measured.apply_ms.size(), timed.measured.reveal_ms.size(),
              t.checkpoints);
  probe.PrintSummary();

  if (tracer != nullptr) {
    auto layer = [&](const char* name, double v, const char* unit) {
      r.layer[name] = {v, unit};
    };
    // Counters and spans of the first kCountedRounds rounds; recover.* and
    // error_rate cover the whole run.
    const double n = static_cast<double>(counted.ops);
    counted.core.Emit(&r);
    layer("wal.records_per_op", counted.wal_records / n, "count");
    layer("wal.bytes_per_op", counted.wal_bytes / n, "bytes");
    layer("checkpoint.count", counted.checkpoints, "count");
    layer("checkpoint.ms",
          counted.checkpoints > 0 ? counted.checkpoint_ms / counted.checkpoints : 0, "ms");
    layer("checkpoint.bytes_written", counted.checkpoint_bytes, "bytes");
    layer("recover.records_replayed", replayed, "count");
    layer("recover.s", Median(recover_s), "s");
    layer("error_rate", r.e2e["error_rate"].value, "ratio");
    AddCounterMetrics(&r, n, counted.counters, counted.resident_bytes);
    std::vector<Span> spans = tracer->Spans();
    std::erase_if(spans, [&](const Span& sp) { return sp.op > counted.last_op; });
    AddSpanMetrics(&r, spans, n, 0);
  }
  return r;
}

}  // namespace perfbench
