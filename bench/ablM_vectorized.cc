// Ablation M: vectorized scan-and-transform + the multi-block crypto
// substrate. Four workloads on one core:
//   * scan-filter: unindexed analytic predicates over the HotCRP tables —
//     the planner has no probe, so every statement is a full scan that
//     reads the column sidecar slab-by-slab and runs each instruction
//     across 1024 lanes.
//   * vault-seal: StoreBatch then FetchForUser over an EncryptedVault, one
//     subkey derivation per owner key.
//   * composition / mass deletion: the tab1 and ablG disguise workloads over
//     an EncryptedVault, so every apply seals its reveal records (AEAD on
//     the measured path) and residual filtering rides the chunked
//     evaluator.
// No axes: the row-at-a-time executor and per-record sealing baselines are
// retired; EXPERIMENTS.md Ablation M keeps their numbers as history.
#include <benchmark/benchmark.h>

#include "bench/bench_common.h"
#include "src/sql/parser.h"
#include "src/vault/encrypted_vault.h"

namespace {

using benchutil::BaseWorld;
using benchutil::CheckOk;
using benchutil::FreshDb;
using benchutil::MakeEngine;
using edna::Rng;
using edna::SimulatedClock;
using edna::sql::Value;
namespace hotcrp = edna::hotcrp;

edna::vault::KeyProvider TestKeyProvider() {
  return [](const Value& uid) -> edna::StatusOr<std::vector<uint8_t>> {
    return std::vector<uint8_t>(32, static_cast<uint8_t>(uid.is_int() ? uid.AsInt() : 1));
  };
}

void ExportVectorCounters(benchmark::State& state, const edna::db::Database& db) {
  state.counters["chunks"] = static_cast<double>(db.stats().chunks_scanned.load());
  state.counters["vector_ops"] = static_cast<double>(db.stats().vector_ops.load());
  state.counters["vector_lanes"] = static_cast<double>(db.stats().vector_lanes.load());
  state.counters["density_bp"] =
      static_cast<double>(db.stats().selection_density_bp.load());
  state.counters["rows_examined"] = static_cast<double>(db.stats().rows_examined.load());
  state.counters["full_scans"] = static_cast<double>(db.stats().full_scans.load());
}

// Unindexed predicates: the planner finds no probe, so each Select is a
// full scan whose residual runs over every live row.
const char* const kScanPreds[][2] = {
    {"ContactInfo", "\"roles\" >= 0 AND \"creationTime\" >= 0"},
    {"ContactInfo", "\"email\" LIKE '%@%' AND \"roles\" < 8"},
    {"Paper", "\"timeSubmitted\" > 0 AND \"outcome\" >= 0"},
    {"Paper", "\"title\" LIKE '%a%' AND \"timeWithdrawn\" = 0"},
    {"PaperReview", "(\"reviewId\" * 2) >= 0"},
};

void BM_ScanFilter(benchmark::State& state) {
  constexpr double kScale = 2.33;
  constexpr int kRepeats = 20;
  std::vector<edna::sql::ExprPtr> preds;
  std::vector<std::string> tables;
  for (const auto& [table, text] : kScanPreds) {
    auto e = edna::sql::ParseExpression(text);
    CheckOk(e.status(), "parse");
    preds.push_back(std::move(*e));
    tables.emplace_back(table);
  }
  std::unique_ptr<edna::db::Database> db = FreshDb(kScale);
  db->ResetStats();
  size_t matched = 0;
  for (auto _ : state) {
    for (int r = 0; r < kRepeats; ++r) {
      for (size_t i = 0; i < preds.size(); ++i) {
        auto rows = db->Select(tables[i], preds[i].get(), {});
        CheckOk(rows.status(), "select");
        matched += rows->size();
      }
    }
    // A write between rounds invalidates the touched slab, so steady state
    // includes the sidecar's rebuild cost, not just cached re-reads.
    CheckOk(db->SetColumn("ContactInfo", 1, "defaultWatch", Value::String("w")),
            "touch");
  }
  benchmark::DoNotOptimize(matched);
  ExportVectorCounters(state, *db);
}
BENCHMARK(BM_ScanFilter)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

// The crypto substrate in isolation: StoreBatch sealing N reveal records
// across K owner keys, then fetching (opening) them all back. Each owner's
// enc/MAC subkey pair is derived once and reused across that owner's
// records.
void BM_VaultSeal(benchmark::State& state) {
  constexpr int kOwners = 40;
  constexpr int kRecordsPerOwner = 50;
  std::vector<edna::vault::RevealRecord> records;
  for (int u = 1; u <= kOwners; ++u) {
    for (int r = 0; r < kRecordsPerOwner; ++r) {
      edna::vault::RevealRecord rec;
      rec.disguise_id = static_cast<uint64_t>(u * 1000 + r);
      rec.disguise_name = "Scrub";
      rec.user_id = Value::Int(u);
      rec.created = 1000;
      edna::vault::RevealOp op;
      op.kind = edna::vault::RevealOp::Kind::kRestoreColumn;
      op.table = "ContactInfo";
      op.row_id = static_cast<edna::db::RowId>(r + 1);
      op.column = "email";
      op.old_value = Value::String("user" + std::to_string(u) + "@example.org");
      op.new_value = Value::Null();
      op.owner = rec.user_id;
      rec.ops.push_back(std::move(op));
      records.push_back(std::move(rec));
    }
  }
  std::unique_ptr<edna::vault::EncryptedVault> vault;
  for (auto _ : state) {
    state.PauseTiming();
    vault = std::make_unique<edna::vault::EncryptedVault>(
        std::vector<uint8_t>(32, 0x42), TestKeyProvider(), Rng(7));
    state.ResumeTiming();

    CheckOk(vault->StoreBatch(records), "store batch");
    for (int u = 1; u <= kOwners; ++u) {
      auto fetched = vault->FetchForUser(Value::Int(u));
      CheckOk(fetched.status(), "fetch");
      if (fetched->size() != kRecordsPerOwner) {
        std::fprintf(stderr, "fetch returned %zu records\n", fetched->size());
        std::abort();
      }
    }
  }
  state.counters["records"] = kOwners * kRecordsPerOwner;
}
BENCHMARK(BM_VaultSeal)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

// tab1's composition row over an EncryptedVault: ConfAnon seals the global
// reveal records, then each composed GDPR+ fetches (opens) and re-seals.
void BM_CompositionSealed(benchmark::State& state) {
  std::unique_ptr<edna::db::Database> db;
  std::unique_ptr<edna::vault::EncryptedVault> vault;
  std::unique_ptr<edna::core::DisguiseEngine> engine;
  for (auto _ : state) {
    state.PauseTiming();
    engine.reset();
    db = FreshDb();
    vault = std::make_unique<edna::vault::EncryptedVault>(
        std::vector<uint8_t>(32, 0x42), TestKeyProvider(), Rng(7));
    static SimulatedClock clock(0);
    engine = MakeEngine(db.get(), vault.get(), &clock);
    db->ResetStats();
    state.ResumeTiming();

    CheckOk(engine->Apply(hotcrp::kConfAnonName, {}).status(), "ConfAnon");
    for (int i = 0; i < 6; ++i) {
      int64_t uid = BaseWorld().gen.pc_contact_ids[static_cast<size_t>(i)];
      auto composed = engine->ApplyForUser(hotcrp::kGdprPlusName, Value::Int(uid));
      CheckOk(composed.status(), "composed GDPR+");
    }

    state.PauseTiming();
    CheckOk(db->CheckIntegrity(), "integrity");
    state.ResumeTiming();
  }
  ExportVectorCounters(state, *db);
}
BENCHMARK(BM_CompositionSealed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(10);

// Ablation G's serial mass deletion over an EncryptedVault: every contact
// files a GDPR removal, and each apply seals its reveal records.
void BM_MassDeletionSealed(benchmark::State& state) {
  constexpr double kScale = 2.33;
  std::unique_ptr<edna::db::Database> db;
  std::unique_ptr<edna::vault::EncryptedVault> vault;
  std::unique_ptr<edna::core::DisguiseEngine> engine;
  const std::vector<int64_t>& uids = BaseWorld(kScale).gen.all_contact_ids;
  for (auto _ : state) {
    state.PauseTiming();
    engine.reset();
    db = FreshDb(kScale);
    vault = std::make_unique<edna::vault::EncryptedVault>(
        std::vector<uint8_t>(32, 0x42), TestKeyProvider(), Rng(7));
    static SimulatedClock clock(0);
    engine = MakeEngine(db.get(), vault.get(), &clock);
    db->ResetStats();
    state.ResumeTiming();

    for (int64_t uid : uids) {
      auto r = engine->ApplyForUser(hotcrp::kGdprName, Value::Int(uid));
      CheckOk(r.status(), "GDPR removal");
    }

    state.PauseTiming();
    CheckOk(db->CheckIntegrity(), "integrity");
    state.ResumeTiming();
  }
  ExportVectorCounters(state, *db);
}
BENCHMARK(BM_MassDeletionSealed)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(3);

}  // namespace

int main(int argc, char** argv) {
  std::printf(
      "Ablation M: vectorized execution + batched sealing, single core.\n"
      "The row-at-a-time and per-record-sealing baselines are retired; see\n"
      "EXPERIMENTS.md Ablation M for their numbers.\n\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchutil::BaseWorld();
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
