// Ablation L: the disguise-as-a-service daemon under sustained mixed load.
// §7's service deployment question — what does putting the engine behind a
// wire protocol cost? — measured end to end: N shards of DurableEngine
// behind the TCP daemon, 8 concurrent clients driving a mixed apply/reveal
// workload over a population of 100k simulated users, reporting sustained
// throughput and p50/p95/p99 per-request latency (client-observed, so the
// numbers include framing, the socket round trip, shard routing, the
// per-shard executor, and the WAL group commit).
//
// Population is routed: user u's rows live only on shard ShardFor(u), as a
// real deployment would place them. EDNA_ABLL_USERS / EDNA_ABLL_OPS
// override the population / measured-op count (CI smoke runs use small
// values; EXPERIMENTS.md records the full-size numbers).
//
// NOTE: client threads and shard workers share the host; single-core runs
// measure protocol overhead, not parallel speedup. EXPERIMENTS.md records
// the host used for the reported numbers.
#include <benchmark/benchmark.h>
#include <stdlib.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "src/common/clock.h"
#include "src/common/strings.h"
#include "src/db/database.h"
#include "src/disguise/spec_parser.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"
#include "src/sql/value.h"

namespace {

using edna::SimulatedClock;
using edna::sql::Value;
namespace server = edna::server;

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

constexpr char kRedactNotesSpec[] = R"(
disguise_name: "RedactNotes"
user_to_disguise: $UID
reversible: true
table notes:
  transformations:
    Modify(pred: "user_id" = $UID, column: "text", value: Redact)
)";

uint64_t EnvOr(const char* name, uint64_t dflt) {
  const char* env = ::getenv(name);
  uint64_t v = 0;
  if (env != nullptr && edna::ParseUint64(env, &v) && v > 0) {
    return v;
  }
  return dflt;
}

void BuildSchema(edna::db::Database* db) {
  edna::db::TableSchema users("users");
  users
      .AddColumn({.name = "id", .type = edna::db::ColumnType::kInt,
                  .nullable = false, .auto_increment = true})
      .AddColumn({.name = "name", .type = edna::db::ColumnType::kString,
                  .nullable = false})
      .AddColumn({.name = "email", .type = edna::db::ColumnType::kString,
                  .nullable = true})
      .AddColumn({.name = "disabled", .type = edna::db::ColumnType::kBool,
                  .nullable = false, .default_value = Value::Bool(false)})
      .SetPrimaryKey({"id"});
  if (!db->CreateTable(std::move(users)).ok()) std::abort();

  edna::db::TableSchema notes("notes");
  notes
      .AddColumn({.name = "id", .type = edna::db::ColumnType::kInt,
                  .nullable = false, .auto_increment = true})
      .AddColumn({.name = "user_id", .type = edna::db::ColumnType::kInt,
                  .nullable = false})
      .AddColumn({.name = "text", .type = edna::db::ColumnType::kString})
      .SetPrimaryKey({"id"})
      .AddForeignKey({.column = "user_id", .parent_table = "users",
                      .parent_column = "id",
                      .on_delete = edna::db::FkAction::kRestrict});
  if (!db->CreateTable(std::move(notes)).ok()) std::abort();
}

// The daemon plus its shard set over a self-deleting temp directory.
struct Daemon {
  std::string dir;
  SimulatedClock clock{1000};
  std::unique_ptr<server::ShardSet> shards;
  std::unique_ptr<server::DisguisedServer> srv;

  Daemon(int num_shards, int threads_per_shard, uint64_t num_users) {
    char tmpl[] = "/tmp/edna_ablL_XXXXXX";
    dir = ::mkdtemp(tmpl);

    server::ShardSetOptions sopts;
    sopts.num_shards = num_shards;
    sopts.threads_per_shard = threads_per_shard;
    sopts.engine.deterministic_rng = true;
    sopts.engine.rng_seed = 0x5eed;
    sopts.clock = &clock;
    auto set = server::ShardSet::Open(dir + "/data", sopts);
    if (!set.ok()) {
      std::fprintf(stderr, "open: %s\n", set.status().ToString().c_str());
      std::abort();
    }
    shards = *std::move(set);

    for (size_t i = 0; i < shards->num_shards(); ++i) {
      BuildSchema(shards->engine(i)->db());
    }
    // Routed population: user u's rows exist only on shard ShardFor(u).
    for (uint64_t u = 1; u <= num_users; ++u) {
      edna::db::Database* db = shards->engine(shards->ShardFor(Value::Int(u)))->db();
      std::string n = std::to_string(u);
      if (!db->InsertValues("users",
                            {{"id", Value::Int(static_cast<int64_t>(u))},
                             {"name", Value::String("user" + n)},
                             {"email", Value::String("u" + n + "@x.org")}})
               .ok() ||
          !db->InsertValues("notes",
                            {{"user_id", Value::Int(static_cast<int64_t>(u))},
                             {"text", Value::String("note of user " + n)}})
               .ok()) {
        std::abort();
      }
    }
    for (size_t i = 0; i < shards->num_shards(); ++i) {
      if (!shards->engine(i)->Checkpoint().ok()) std::abort();
      for (const char* text : {kScrubSpec, kRedactNotesSpec}) {
        auto spec = edna::disguise::ParseDisguiseSpec(text);
        if (!spec.ok() ||
            !shards->engine(i)->engine()->RegisterSpec(*std::move(spec)).ok()) {
          std::abort();
        }
      }
    }

    srv = std::make_unique<server::DisguisedServer>(shards.get(),
                                                    server::ServerOptions{});
    if (!srv->Start().ok()) std::abort();
  }

  ~Daemon() {
    srv->Stop();
    srv.reset();
    shards.reset();
    std::system(("rm -rf " + dir).c_str());
  }
};

// Mixed workload: client c owns users u % clients == c; each op cycles
// apply Scrub -> (every 3rd user) reveal Scrub -> (every 5th) RedactNotes.
// Latency is measured around each blocking request/reply round trip.
void BM_ServerMixedThroughput(benchmark::State& state) {
  const int num_clients = static_cast<int>(state.range(0));
  const int num_shards = static_cast<int>(state.range(1));
  const uint64_t num_users = EnvOr("EDNA_ABLL_USERS", 100000);
  const uint64_t total_ops = std::min<uint64_t>(
      EnvOr("EDNA_ABLL_OPS", 16000), num_users);  // never re-disguise a user

  for (auto _ : state) {
    state.PauseTiming();
    Daemon daemon(num_shards, /*threads_per_shard=*/2, num_users);
    std::vector<std::vector<double>> latencies(num_clients);
    std::mutex errors_mu;
    std::vector<std::string> errors;
    state.ResumeTiming();

    auto wall_start = std::chrono::steady_clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < num_clients; ++c) {
      clients.emplace_back([&, c] {
        auto client = server::Client::Connect("127.0.0.1", daemon.srv->port());
        if (!client.ok()) {
          std::lock_guard<std::mutex> lock(errors_mu);
          errors.push_back(client.status().ToString());
          return;
        }
        std::vector<double>& lat = latencies[c];
        uint64_t done = 0;
        for (uint64_t u = static_cast<uint64_t>(c) + 1;
             u <= num_users && done < total_ops / num_clients; u += num_clients) {
          Value uid = Value::Int(static_cast<int64_t>(u));
          auto timed = [&](auto&& op) {
            auto t0 = std::chrono::steady_clock::now();
            auto r = op();
            auto t1 = std::chrono::steady_clock::now();
            if (!r.ok()) {
              std::lock_guard<std::mutex> lock(errors_mu);
              errors.push_back(r.status().ToString());
              return;
            }
            lat.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
            ++done;
          };
          timed([&] { return (*client)->Apply("Scrub", uid); });
          if (u % 3 == 0) {
            timed([&] { return (*client)->Reveal("Scrub", uid); });
          } else if (u % 5 == 0) {
            timed([&] { return (*client)->Apply("RedactNotes", uid); });
          }
        }
      });
    }
    for (std::thread& t : clients) {
      t.join();
    }
    double wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - wall_start)
            .count();

    state.PauseTiming();
    if (!errors.empty()) {
      state.SkipWithError(("op failed: " + errors.front()).c_str());
      return;
    }
    std::vector<double> all;
    for (const auto& v : latencies) {
      all.insert(all.end(), v.begin(), v.end());
    }
    std::sort(all.begin(), all.end());
    auto pct = [&](double p) {
      return all.empty()
                 ? 0.0
                 : all[std::min(all.size() - 1,
                                static_cast<size_t>(p * (all.size() - 1)))];
    };
    state.counters["ops"] = static_cast<double>(all.size());
    state.counters["ops_per_s"] = all.empty() ? 0.0 : all.size() / wall_s;
    state.counters["p50_us"] = pct(0.50);
    state.counters["p95_us"] = pct(0.95);
    state.counters["p99_us"] = pct(0.99);
    state.SetItemsProcessed(static_cast<int64_t>(all.size()));
    state.ResumeTiming();
  }
}

// clients x shards. The headline configuration is 8 clients over 4 shards;
// the 1-shard row isolates the barrier-free routing cost.
BENCHMARK(BM_ServerMixedThroughput)
    ->Args({8, 4})
    ->Args({8, 1})
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->UseRealTime();

}  // namespace

int main(int argc, char** argv) {
  std::printf("Ablation L: daemon under mixed load.\n\n");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
