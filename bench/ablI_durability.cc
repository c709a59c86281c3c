// Ablation I: what durability costs on the disguise hot path. The same
// apply/reveal workload runs against three storage configurations:
//   mode=0  in-memory Database (the paper's configuration; no durability)
//   mode=1  DurableEngine, WAL sync kNone (append to page cache, no fsync)
//   mode=2  DurableEngine, WAL sync kGroup (the default: one fsync per
//           apply or reveal, shared by concurrent committers)
// Each iteration opens a fresh data directory, populates HotCRP through the
// WAL, checkpoints so the timed region measures only disguise traffic, then
// times: GDPR apply for a slice of contacts, reveal for half of them, and a
// final Flush. Counters report the WAL bytes the timed region appended —
// the logging overhead that modes 1-2 pay and mode 0 does not.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench/bench_common.h"
#include "src/core/durable_engine.h"
#include "src/db/durable.h"
#include "src/db/wal.h"

namespace {

using benchutil::CheckOk;
using benchutil::FreshDb;
using benchutil::MakeEngine;
using edna::SimulatedClock;
using edna::sql::Value;
namespace hotcrp = edna::hotcrp;

constexpr double kScale = 0.5;
constexpr int kApplyUsers = 10;

struct TempDataDir {
  TempDataDir() {
    char tmpl[] = "/tmp/edna_ablI_XXXXXX";
    dir = mkdtemp(tmpl);
  }
  ~TempDataDir() { std::system(("rm -rf " + dir).c_str()); }
  std::string dir;
};

edna::db::WalOptions::SyncMode Mode(const benchmark::State& state) {
  switch (state.range(0)) {
    case 1: return edna::db::WalOptions::SyncMode::kNone;
    default: return edna::db::WalOptions::SyncMode::kGroup;
  }
}

// The timed workload, identical across all modes. `flush` is a no-op for
// the in-memory baseline and DurableEngine::Flush() otherwise.
template <typename FlushFn>
void RunWorkload(edna::core::DisguiseEngine* engine,
                 const std::vector<int64_t>& contact_ids, FlushFn flush) {
  for (int i = 0; i < kApplyUsers; ++i) {
    int64_t uid = contact_ids[static_cast<size_t>(i)];
    CheckOk(engine->ApplyForUser(hotcrp::kGdprName, Value::Int(uid)).status(),
            "apply");
  }
  for (int i = 0; i < kApplyUsers / 2; ++i) {
    int64_t uid = contact_ids[static_cast<size_t>(i)];
    auto entry = engine->log().LatestActiveFor(hotcrp::kGdprName, Value::Int(uid));
    if (!entry) {
      std::fprintf(stderr, "no active disguise for uid %lld\n",
                   static_cast<long long>(uid));
      std::abort();
    }
    CheckOk(engine->Reveal(entry->id).status(), "reveal");
  }
  CheckOk(flush(), "flush");
}

void BM_DisguiseDurability(benchmark::State& state) {
  const bool durable = state.range(0) != 0;
  static SimulatedClock clock(0);
  uint64_t wal_bytes = 0;
  // Hoisted so previous-iteration teardown happens while timing is paused.
  std::unique_ptr<edna::db::Database> db;
  std::unique_ptr<edna::vault::Vault> vault;
  std::unique_ptr<edna::core::DisguiseEngine> engine;
  std::unique_ptr<TempDataDir> tmp;
  std::unique_ptr<edna::core::DurableEngine> deng;
  for (auto _ : state) {
    state.PauseTiming();
    if (!durable) {
      engine.reset();
      db = FreshDb(kScale);
      auto table_vault = edna::vault::TableVault::Create(db.get());
      CheckOk(table_vault.status(), "vault");
      vault = *std::move(table_vault);
      engine = MakeEngine(db.get(), vault.get(), &clock);
      const std::vector<int64_t>& ids = benchutil::BaseWorld(kScale).gen.all_contact_ids;
      state.ResumeTiming();
      RunWorkload(engine.get(), ids, [] { return edna::Status::Ok(); });
      state.PauseTiming();
      CheckOk(db->CheckIntegrity(), "integrity");
      state.ResumeTiming();
      continue;
    }
    deng.reset();
    tmp = std::make_unique<TempDataDir>();
    edna::core::DurableEngineOptions options;
    options.durable.wal.sync_mode = Mode(state);
    options.clock = &clock;
    auto opened = edna::core::DurableEngine::Open(tmp->dir, options);
    CheckOk(opened.status(), "open");
    deng = *std::move(opened);
    // Populate through the WAL, then checkpoint + flush so the timed region
    // below measures only the disguise traffic itself.
    edna::hotcrp::Config config;
    auto generated = edna::hotcrp::Populate(deng->db(), config.Scaled(kScale));
    CheckOk(generated.status(), "populate");
    for (auto spec_fn : {hotcrp::GdprSpec, hotcrp::GdprPlusSpec, hotcrp::ConfAnonSpec}) {
      auto spec = spec_fn();
      CheckOk(spec.status(), "spec");
      CheckOk(deng->engine()->RegisterSpec(*std::move(spec)), "register");
    }
    CheckOk(deng->Checkpoint(), "checkpoint");
    uint64_t base = deng->durable()->wal()->SizeBytes();
    edna::core::DurableEngine* raw = deng.get();
    state.ResumeTiming();
    RunWorkload(deng->engine(), generated->all_contact_ids,
                [raw] { return raw->Flush(); });
    state.PauseTiming();
    wal_bytes += deng->durable()->wal()->SizeBytes() - base;
    CheckOk(deng->db()->CheckIntegrity(), "integrity");
    state.ResumeTiming();
  }
  if (durable && state.iterations() > 0) {
    state.counters["wal_bytes_per_iter"] =
        static_cast<double>(wal_bytes) / static_cast<double>(state.iterations());
  }
  state.counters["users"] = kApplyUsers;
}
BENCHMARK(BM_DisguiseDurability)
    ->Arg(0)
    ->Arg(1)
    ->Arg(2)
    ->ArgNames({"mode"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(5);

// Cache-pressure mode: the same apply/reveal workload under a shrinking
// page-cache budget (arg = KiB; 0 = effectively unbounded). The timed region
// pays eviction writebacks at every statement boundary and extent refaults
// on every touch of a spilled page; the counters report exactly how much of
// each a given budget costs, plus where the resident gauge settled.
void BM_DisguiseCachePressure(benchmark::State& state) {
  static SimulatedClock clock(0);
  uint64_t hits = 0, misses = 0, evictions = 0, writebacks = 0, resident = 0;
  std::unique_ptr<TempDataDir> tmp;
  std::unique_ptr<edna::core::DurableEngine> deng;
  for (auto _ : state) {
    state.PauseTiming();
    deng.reset();
    tmp = std::make_unique<TempDataDir>();
    edna::core::DurableEngineOptions options;
    options.durable.wal.sync_mode = edna::db::WalOptions::SyncMode::kGroup;
    options.durable.cache.max_resident_bytes =
        state.range(0) == 0 ? (uint64_t{1} << 32)
                            : static_cast<uint64_t>(state.range(0)) << 10;
    options.clock = &clock;
    auto opened = edna::core::DurableEngine::Open(tmp->dir, options);
    CheckOk(opened.status(), "open");
    deng = *std::move(opened);
    edna::hotcrp::Config config;
    auto generated = edna::hotcrp::Populate(deng->db(), config.Scaled(kScale));
    CheckOk(generated.status(), "populate");
    for (auto spec_fn : {hotcrp::GdprSpec, hotcrp::GdprPlusSpec, hotcrp::ConfAnonSpec}) {
      auto spec = spec_fn();
      CheckOk(spec.status(), "spec");
      CheckOk(deng->engine()->RegisterSpec(*std::move(spec)), "register");
    }
    CheckOk(deng->Checkpoint(), "checkpoint");
    deng->db()->ResetStats();
    edna::core::DurableEngine* raw = deng.get();
    state.ResumeTiming();
    RunWorkload(deng->engine(), generated->all_contact_ids,
                [raw] { return raw->Flush(); });
    state.PauseTiming();
    const edna::db::DbStats& stats = deng->db()->stats();
    hits += stats.page_hits.load();
    misses += stats.page_misses.load();
    evictions += stats.page_evictions.load();
    writebacks += stats.page_writebacks.load();
    resident = stats.resident_bytes.load();
    CheckOk(deng->db()->CheckIntegrity(), "integrity");
    state.ResumeTiming();
  }
  if (state.iterations() > 0) {
    auto iters = static_cast<double>(state.iterations());
    state.counters["page_hits"] = static_cast<double>(hits) / iters;
    state.counters["page_misses"] = static_cast<double>(misses) / iters;
    state.counters["evictions"] = static_cast<double>(evictions) / iters;
    state.counters["writebacks"] = static_cast<double>(writebacks) / iters;
    state.counters["resident_bytes"] = static_cast<double>(resident);
  }
  state.counters["users"] = kApplyUsers;
}
BENCHMARK(BM_DisguiseCachePressure)
    ->Arg(0)
    ->Arg(4096)
    ->Arg(1024)
    ->Arg(256)
    ->ArgNames({"cache_kb"})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Ablation I: durability cost on the disguise hot path. expected shape:\n"
      "wal=kNone tracks the in-memory baseline closely (append-only logging is\n"
      "cheap; fsync is the real cost), and kGroup adds one fsync per apply or\n"
      "reveal — the gap between them is what durability costs.\n\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchutil::BaseWorld(kScale);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
