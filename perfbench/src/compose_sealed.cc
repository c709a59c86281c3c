// compose-sealed: the paper's Table-1 composition, in memory, over the
// encrypted (sealed) vault. Single-threaded closed loop; every cycle starts
// from a fresh Snapshot() of the base database and runs
//   ConfAnon apply -> GDPR+ for every contact (seeded order, composed over
//   ConfAnon) -> GDPR+ reveals in LIFO order -> ConfAnon reveal,
// then checks integrity, the consistency audit and that the application
// tables are back to the base fingerprint. LIFO is the order the lifecycle
// verifier names as safe; FIFO leaves PaperReviewRefused references NULL.
#include <cmath>
#include <memory>

#include "perfbench/src/bench.h"
#include "src/apps/hotcrp/disguises.h"
#include "src/common/clock.h"
#include "src/common/rng.h"
#include "src/vault/encrypted_vault.h"

namespace perfbench {

namespace {

using edna::sql::Value;

// Per-user vault keys derived from the seed; the application key seals
// ConfAnon's global records.
edna::vault::KeyProvider SeededKeys(uint64_t seed) {
  return [seed](const Value& uid) -> edna::StatusOr<std::vector<uint8_t>> {
    edna::Rng rng(seed ^ (0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(
                              uid.is_int() ? uid.AsInt() : 0)));
    return rng.NextBytes(32);
  };
}

struct Base {
  std::unique_ptr<edna::db::Database> db;
  edna::hotcrp::Generated gen;
  std::string fingerprint;
};

// Operations between two runs of the speed probe (about 15 ms of work).
constexpr int kProbeEvery = 32;

struct Samples {
  TimedSamples timed;  // cycle time without the output checks and the probes
  uint64_t ops = 0;
  uint64_t failed = 0;
  Counters counters;
  CoreCounters core;
};

// One composition cycle over a fresh snapshot. Returns false (with the
// failure recorded) if any operation failed; the checks run either way.
bool RunCycle(const Base& base, const std::vector<int64_t>& order, uint64_t seed,
              Tracer* tracer, SpeedProbe* probe, uint64_t* next_op, Samples* s, RunResult* r) {
  probe->Sample(0);
  const Stopwatch prepare;
  std::unique_ptr<edna::db::Database> db = base.db->Snapshot();
  edna::vault::EncryptedVault sealed(edna::Rng(seed).NextBytes(32), SeededKeys(seed),
                                     edna::Rng(seed + 1));
  TimingVault timed(&sealed, tracer);
  edna::vault::Vault* vault = tracer != nullptr ? static_cast<edna::vault::Vault*>(&timed)
                                                : static_cast<edna::vault::Vault*>(&sealed);
  edna::SystemClock clock;
  edna::core::DisguiseEngine engine(db.get(), vault, &clock, ProductionEngineOptions(seed));
  r->CheckOk(RegisterShippedSpecs(&engine), "register specs");

  const Counters db_before = CountersOf(db->stats());
  s->timed.AddOverhead(prepare.Read(), *probe);
  bool ok = true;
  auto fail = [&](const edna::Status& st, const std::string& what) {
    ++s->failed;
    ok = false;
    r->CheckOk(st, what);
  };

  uint64_t anon_id = 0;
  {
    SpanScope span(tracer, "op.global_apply", ++*next_op);
    const Stopwatch watch;
    auto applied = engine.Apply(edna::hotcrp::kConfAnonName, {});
    const Elapsed elapsed = watch.Read();
    ++s->ops;
    if (!applied.ok()) {
      fail(applied.status(), "ConfAnon apply");
      return false;
    }
    s->timed.Add(&Timings::global_apply_ms, elapsed, probe);
    anon_id = applied->disguise_id;
    s->core.AddApply(*applied, false);
  }

  std::vector<uint64_t> ids;
  ids.reserve(order.size());
  // The probe runs between operations, outside their spans.
  for (int64_t uid : order) {
    probe->Sample(kProbeEvery);
    SpanScope span(tracer, "op.apply", ++*next_op);
    const Stopwatch watch;
    auto applied = engine.ApplyForUser(edna::hotcrp::kGdprPlusName, Value::Int(uid));
    const Elapsed elapsed = watch.Read();
    ++s->ops;
    if (!applied.ok()) {
      fail(applied.status(), "GDPR+ apply uid " + std::to_string(uid));
      return false;
    }
    s->timed.Add(&Timings::apply_ms, elapsed, probe);
    ids.push_back(applied->disguise_id);
    s->core.AddApply(*applied, true);
  }

  for (auto it = ids.rbegin(); it != ids.rend(); ++it) {
    probe->Sample(kProbeEvery);
    SpanScope span(tracer, "op.reveal", ++*next_op);
    const Stopwatch watch;
    auto revealed = engine.Reveal(*it);
    const Elapsed elapsed = watch.Read();
    ++s->ops;
    if (!revealed.ok()) {
      fail(revealed.status(), "GDPR+ reveal");
      return false;
    }
    s->timed.Add(&Timings::reveal_ms, elapsed, probe);
    s->core.AddReveal(*revealed, true);
  }

  {
    probe->Sample(kProbeEvery);
    SpanScope span(tracer, "op.global_reveal", ++*next_op);
    const Stopwatch watch;
    auto revealed = engine.Reveal(anon_id);
    const Elapsed elapsed = watch.Read();
    ++s->ops;
    if (!revealed.ok()) {
      fail(revealed.status(), "ConfAnon reveal");
      return false;
    }
    s->timed.Add(&Timings::global_reveal_ms, elapsed, probe);
    s->core.AddReveal(*revealed, false);
  }
  Accumulate(&s->counters, Delta(CountersOf(db->stats()), db_before));
  Accumulate(&s->counters, CountersOf(sealed.stats()));

  // Output checks (not timed).
  r->CheckOk(db->CheckIntegrity(), "integrity after cycle");
  auto audit = engine.AuditConsistency();
  if (!audit.ok()) {
    r->CheckOk(audit.status(), "audit after cycle");
  } else {
    r->Check(audit->ok(), "audit after cycle: " + audit->ToString());
  }
  r->Check(Fingerprint(*db) == base.fingerprint,
           "application tables differ from the base snapshot after LIFO reveal");
  return ok;
}

}  // namespace

RunResult RunComposeSealed(const RunOptions& options) {
  RunResult r;
  Tracer* tracer = options.tracer;
  edna::Rng schedule(edna::Rng(options.seed).Fork(1).NextU64());

  // Set-up, repeated; its median is setup_s. Each repetition generates the
  // base database, fingerprints it, and runs one checked warm-up cycle
  // (untraced), so allocator and code paths are warm before timing.
  constexpr int kSetups = 9;
  std::vector<double> setup_s, setup_s_measured;
  SpeedProbe probe;
  Base base;
  for (int i = 0; i < kSetups; ++i) {
    const size_t first_probe = probe.Runs();
    probe.Sample(0);
    const Stopwatch watch;
    base = Base{};
    base.db = std::make_unique<edna::db::Database>();
    auto gen = PopulateHotCrp(base.db.get(), options.seed);
    if (!gen.ok()) {
      r.CheckOk(gen.status(), "populate");
      return r;
    }
    base.gen = *gen;
    base.fingerprint = Fingerprint(*base.db);
    Samples warm;
    uint64_t warm_ops = 0;
    std::vector<int64_t> order = base.gen.all_contact_ids;
    edna::Rng(options.seed).Fork(2).Shuffle(&order);
    RunCycle(base, order, options.seed, nullptr, &probe, &warm_ops, &warm, &r);
    const Elapsed elapsed = watch.Read();
    setup_s_measured.push_back(elapsed.wall_ms / 1e3);
    setup_s.push_back(SpeedProbe::AtReference(elapsed, probe.Since(first_probe)) / 1e3);
    if (!r.check_failures.empty()) {
      return r;
    }
  }

  Samples s;
  uint64_t next_op = 0;
  const int64_t start = NowNs();
  int cycles = 0;
  while (cycles < 2 || (NowNs() - start) / 1e9 < options.seconds) {
    std::vector<int64_t> order = base.gen.all_contact_ids;
    schedule.Shuffle(&order);
    bool ok = RunCycle(base, order, options.seed, tracer, &probe, &next_op, &s, &r);
    ++cycles;
    if (!ok || !r.check_failures.empty()) {
      break;
    }
  }
  r.attempted = s.ops;
  r.failed = s.failed;

  const double nan = std::nan("");
  auto e2e = [&](const char* name, double v, const char* unit) { r.e2e[name] = {v, unit}; };
  SetTimingMetrics(&r, s.timed, s.ops, setup_s, setup_s_measured);
  e2e("max_rate_ops_s", nan, "1/s");
  e2e("wal_bytes_per_op", nan, "bytes");
  e2e("recover_s", nan, "s");
  e2e("peak_rss_mb", PeakRssMb(), "MiB");
  e2e("error_rate", s.ops > 0 ? static_cast<double>(s.failed) / s.ops : 0, "ratio");
  std::printf("compose-sealed: %d cycles, %zu applies, %zu reveals, %zu globals each way\n",
              cycles, s.timed.measured.apply_ms.size(), s.timed.measured.reveal_ms.size(),
              s.timed.measured.global_apply_ms.size());
  probe.PrintSummary();

  if (tracer != nullptr) {
    const double ops = static_cast<double>(s.ops);
    s.core.Emit(&r);
    AddCounterMetrics(&r, ops, s.counters, 0);
    AddSpanMetrics(&r, tracer->Spans(), ops, 0);
    r.layer["error_rate"] = {r.e2e["error_rate"].value, "ratio"};
  }
  return r;
}

}  // namespace perfbench
