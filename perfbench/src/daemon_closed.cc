// daemon-closed: the in-process disguise daemon, set up the way
// `disguisectl serve hotcrp` sets it up: 2 shards x 2 worker threads, HotCRP
// demo data on every shard, the shipped specs, an unbounded page cache.
//
// Four connections each own the users whose index modulo 4 names them, so
// one user's requests stay in order while the shards see concurrent
// committers. A request toggles GDPR for a seeded user of the connection
// (apply if not disguised, else reveal); about 5% of requests are Ping.
// Phases:
//   1. a closed loop for most of the run: each connection sends its next
//      request as soon as the previous reply arrives, and the latency is the
//      call's round trip. The gated latencies and ops_per_s come from here;
//   2. ConfAnon applied and revealed through the global barrier;
//   3. an open-loop rate ladder (uniformly spaced requests, latency timed
//      from each request's due time), climbed until a rung misses the limit
//      (per-user op p99 <= 50 ms, no growing backlog). max_rate_ops_s
//      interpolates the p99 crossing between the last rung that met the
//      limit and the first that missed it. It is reported, not gated: where
//      the crossing falls moves with the CPU time a shared host steals.
// Checks: every reply is OK or counted as failed, and the Audit verb reports
// zero violations; after the daemon stops, every shard directory reopens
// audit-clean (recover_s).
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <memory>
#include <thread>

#include "perfbench/src/bench.h"
#include "src/apps/hotcrp/disguises.h"
#include "src/common/rng.h"
#include "src/core/durable_engine.h"
#include "src/server/client.h"
#include "src/server/server.h"
#include "src/server/shard.h"

namespace perfbench {

namespace {

using edna::sql::Value;

constexpr int kShards = 2;
constexpr int kThreadsPerShard = 2;
constexpr int kConnections = 4;
constexpr double kPingShare = 0.05;
constexpr double kLimitP99Ms = 50;
// The limit fell between 700 and 1600 ops/s on a 4-vCPU host, depending on
// how much CPU the host stole.
const std::vector<double> kLadder = {700, 850, 1000, 1150, 1300, 1450, 1600};
constexpr int kGlobalRepeats = 5;
// Shares of --seconds: the closed loop, and each rung of the ladder.
constexpr double kClosedShare = 0.7;
constexpr double kRungShare = 0.06;

struct Daemon {
  std::unique_ptr<edna::server::ShardSet> shards;
  std::vector<std::unique_ptr<TimingWalSink>> sinks;
  std::unique_ptr<edna::server::DisguisedServer> server;
  std::vector<std::unique_ptr<edna::server::Client>> clients;
  std::vector<int64_t> users;

  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  ~Daemon() { Close(); }

  // Stops serving and closes the shards; the sinks outlive their last use.
  void Close() {
    clients.clear();
    if (server != nullptr) server->Stop();
    server.reset();
    if (shards != nullptr) {
      for (size_t i = 0; i < shards->num_shards(); ++i) {
        shards->engine(i)->db()->SetWalSink(shards->engine(i)->durable());
      }
    }
    shards.reset();
    sinks.clear();
  }
};

// Starts a daemon over the empty directory `dir`.
edna::Status StartDaemon(const std::string& dir, uint64_t seed, Tracer* tracer, Daemon* d) {
  edna::server::ShardSetOptions sopts;
  sopts.num_shards = kShards;
  sopts.threads_per_shard = kThreadsPerShard;
  sopts.engine = ProductionEngineOptions(seed);
  ASSIGN_OR_RETURN(d->shards, edna::server::ShardSet::Open(dir, sopts));
  for (size_t i = 0; i < d->shards->num_shards(); ++i) {
    edna::core::DurableEngine* engine = d->shards->engine(i);
    // One transaction: the rows `disguisectl serve` inserts one by one, at
    // one WAL sync instead of one per row.
    RETURN_IF_ERROR(engine->db()->Begin());
    ASSIGN_OR_RETURN(auto gen, PopulateHotCrp(engine->db(), seed));
    RETURN_IF_ERROR(engine->db()->Commit());
    RETURN_IF_ERROR(engine->Checkpoint());
    RETURN_IF_ERROR(RegisterShippedSpecs(engine->engine()));
    d->users = gen.all_contact_ids;
    if (tracer != nullptr) {
      d->sinks.push_back(std::make_unique<TimingWalSink>(engine->durable(), tracer));
      engine->db()->SetWalSink(d->sinks.back().get());
    }
  }
  d->server = std::make_unique<edna::server::DisguisedServer>(d->shards.get(),
                                                              edna::server::ServerOptions{});
  RETURN_IF_ERROR(d->server->Start());
  for (int c = 0; c < kConnections; ++c) {
    ASSIGN_OR_RETURN(auto client,
                     edna::server::Client::Connect("127.0.0.1", d->server->port()));
    RETURN_IF_ERROR(client->Ping("warm").status());
    d->clients.push_back(std::move(client));
  }
  // Warm-up: a few apply/reveal pairs fill both shards' plan caches and
  // create their disguise-log mirrors before timing.
  for (size_t i = 0; i < d->users.size() && i < 8; ++i) {
    const Value uid = Value::Int(d->users[i]);
    RETURN_IF_ERROR(d->clients[0]->Apply(edna::hotcrp::kGdprName, uid).status());
    RETURN_IF_ERROR(d->clients[0]->Reveal(edna::hotcrp::kGdprName, uid).status());
  }
  return edna::OkStatus();
}

struct PhaseStats {
  std::vector<double> apply_ms, reveal_ms, ping_ms, late_ms;
  uint64_t attempted = 0, failed = 0, skipped = 0;
  uint64_t max_backlog = 0;
  double wall_s = 0;
  std::vector<std::string> errors;

  std::vector<double> OpLatencies() const {
    std::vector<double> all = apply_ms;
    all.insert(all.end(), reveal_ms.begin(), reveal_ms.end());
    return all;
  }
  uint64_t ops() const { return apply_ms.size() + reveal_ms.size(); }

  void Merge(const PhaseStats& st) {
    for (auto [dst, src] : {std::pair{&apply_ms, &st.apply_ms},
                            std::pair{&reveal_ms, &st.reveal_ms},
                            std::pair{&ping_ms, &st.ping_ms},
                            std::pair{&late_ms, &st.late_ms}}) {
      dst->insert(dst->end(), src->begin(), src->end());
    }
    attempted += st.attempted;
    failed += st.failed;
    skipped += st.skipped;
    max_backlog = std::max(max_backlog, st.max_backlog);
    errors.insert(errors.end(), st.errors.begin(), st.errors.end());
  }
};

// Sends one request for `user` (an index into d->users; -1 = Ping) and
// records its latency, measured from `from_ns`, in `st`. `disguised` is the
// per-user toggle state; each entry is touched only by the user's connection.
void Issue(Daemon* d, edna::server::Client* client, int user, uint64_t op, int64_t from_ns,
           std::vector<char>* disguised, Tracer* tracer, PhaseStats* st) {
  ++st->attempted;
  const bool ping = user < 0;
  const bool reveal = !ping && (*disguised)[static_cast<size_t>(user)] != 0;
  edna::Status status;
  {
    SpanScope root(tracer, ping ? "op.ping" : reveal ? "op.reveal" : "op.apply", op);
    SpanScope call(tracer, "client.call");
    if (ping) {
      status = client->Ping("p").status();
    } else {
      const Value uid = Value::Int(d->users[static_cast<size_t>(user)]);
      status = reveal ? client->Reveal(edna::hotcrp::kGdprName, uid).status()
                      : client->Apply(edna::hotcrp::kGdprName, uid).status();
    }
  }
  if (!status.ok()) {
    ++st->failed;
    if (st->errors.size() < 3) st->errors.push_back(status.ToString());
    return;
  }
  const double ms = (NowNs() - from_ns) / 1e6;
  if (ping) {
    st->ping_ms.push_back(ms);
  } else {
    (*disguised)[static_cast<size_t>(user)] = reveal ? 0 : 1;
    (reveal ? st->reveal_ms : st->apply_ms).push_back(ms);
  }
}

// Closed loop for `seconds`: every connection draws its requests from its own
// seeded stream and sends the next one as soon as the previous reply arrives.
PhaseStats RunClosed(Daemon* d, double seconds, uint64_t seed, std::vector<char>* disguised,
                     Tracer* tracer, uint64_t* next_op) {
  std::vector<PhaseStats> local(kConnections);
  std::atomic<uint64_t> op_ids{*next_op};
  const int64_t t0 = NowNs();
  const int64_t deadline = t0 + static_cast<int64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      edna::Rng rng(edna::Rng(seed).Fork(100 + static_cast<uint64_t>(c)).NextU64());
      std::vector<int> mine;
      for (size_t u = static_cast<size_t>(c); u < d->users.size(); u += kConnections) {
        mine.push_back(static_cast<int>(u));
      }
      edna::server::Client* client = d->clients[static_cast<size_t>(c)].get();
      PhaseStats& st = local[static_cast<size_t>(c)];
      for (int64_t now = NowNs(); now < deadline; now = NowNs()) {
        const int user = rng.NextBool(kPingShare) ? -1 : mine[rng.NextBounded(mine.size())];
        Issue(d, client, user, ++op_ids, now, disguised, tracer, &st);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  *next_op = op_ids.load();

  PhaseStats out;
  out.wall_s = (NowNs() - t0) / 1e9;
  for (const PhaseStats& st : local) out.Merge(st);
  return out;
}

// Open loop: `seconds` of schedule at `rate` ops/s, spaced uniformly; each
// request's latency is timed from its due time.
PhaseStats RunPhase(Daemon* d, double rate, double seconds, edna::Rng* rng,
                    std::vector<char>* disguised, Tracer* tracer, uint64_t* next_op) {
  struct Req {
    int64_t due_ns;  // offset from the phase start
    int user;        // index into d->users; -1 = ping
    uint64_t op;
  };
  const size_t n = static_cast<size_t>(rate * seconds);
  std::vector<std::vector<Req>> per_conn(kConnections);
  for (size_t i = 0; i < n; ++i) {
    Req req{static_cast<int64_t>(static_cast<double>(i) * 1e9 / rate), -1, ++*next_op};
    int conn = static_cast<int>(i % kConnections);
    if (!rng->NextBool(kPingShare)) {
      req.user = static_cast<int>(rng->NextBounded(d->users.size()));
      conn = req.user % kConnections;
    }
    per_conn[static_cast<size_t>(conn)].push_back(req);
  }

  std::vector<PhaseStats> local(kConnections);
  // Stop feeding a connection this far behind: the phase has missed the
  // limit, and an unbounded backlog would outlast the run.
  constexpr int64_t kGiveUpLateNs = 2'000'000'000;
  const int64_t t0 = NowNs() + 5'000'000;
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      PhaseStats& st = local[static_cast<size_t>(c)];
      edna::server::Client* client = d->clients[static_cast<size_t>(c)].get();
      const std::vector<Req>& reqs = per_conn[static_cast<size_t>(c)];
      for (size_t k = 0; k < reqs.size(); ++k) {
        const Req& req = reqs[k];
        const int64_t due = t0 + req.due_ns;
        int64_t now = NowNs();
        if (now < due) {
          std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
          now = NowNs();
        }
        if (now - due > kGiveUpLateNs) {
          st.skipped += reqs.size() - k;
          break;
        }
        // Requests already due on this connection but not yet sent.
        const auto due_end =
            std::upper_bound(reqs.begin() + static_cast<long>(k), reqs.end(), now - t0,
                             [](int64_t t, const Req& r) { return t < r.due_ns; });
        st.max_backlog = std::max<uint64_t>(
            st.max_backlog, static_cast<uint64_t>(due_end - reqs.begin()) - k - 1);
        st.late_ms.push_back((now - due) / 1e6);
        Issue(d, client, req.user, req.op, due, disguised, tracer, &st);
      }
    });
  }
  for (std::thread& t : threads) t.join();

  PhaseStats out;
  out.wall_s = (NowNs() - t0) / 1e9;
  for (const PhaseStats& st : local) out.Merge(st);
  return out;
}

// A rung meets the limit when nothing failed or was skipped, the per-user p99
// is within the limit, and the last request finished within the limit of the
// rung's end (no backlog left growing).
bool MeetsLimit(const PhaseStats& p, double seconds) {
  return p.failed == 0 && p.skipped == 0 && Percentile(p.OpLatencies(), 99) <= kLimitP99Ms &&
         p.wall_s <= seconds + kLimitP99Ms / 1e3;
}

template <typename F>
double SumShards(edna::server::ShardSet* shards, F f) {
  double total = 0;
  for (size_t i = 0; i < shards->num_shards(); ++i) total += f(shards->engine(i));
  return total;
}

double WalBytes(edna::server::ShardSet* shards) {
  return SumShards(shards, [](edna::core::DurableEngine* e) {
    return static_cast<double>(e->durable()->wal()->SizeBytes());
  });
}

double WalRecords(edna::server::ShardSet* shards) {
  return SumShards(shards, [](edna::core::DurableEngine* e) {
    return static_cast<double>(e->durable()->wal()->appended_lsn());
  });
}

Counters VaultTotals(edna::server::ShardSet* shards) {
  Counters v;
  for (size_t i = 0; i < shards->num_shards(); ++i) {
    Accumulate(&v, CountersOf(shards->engine(i)->vault()->stats()));
  }
  return v;
}

// The DbStats counters, summed over the shards by the Stats verb.
Counters DbCountersOf(const edna::server::StatsReply& s) {
  Counters c = CountersOf(edna::db::DbStats{});
  for (auto& [name, v] : c) v = static_cast<double>(s.Get(name));
  return c;
}

}  // namespace

RunResult RunDaemonClosed(const RunOptions& options) {
  RunResult r;
  Tracer* tracer = options.tracer;
  const std::string dir = options.work_dir + "/daemon-closed";

  constexpr int kSetups = 9;
  std::vector<double> setup_s;
  std::unique_ptr<Daemon> daemon;
  for (int i = 0; i < kSetups; ++i) {
    daemon.reset();  // stops the previous repetition first
    RemoveTree(dir);
    daemon = std::make_unique<Daemon>();
    const int64_t t0 = NowNs();
    edna::Status started = StartDaemon(dir, options.seed, tracer, daemon.get());
    setup_s.push_back((NowNs() - t0) / 1e9);
    if (!started.ok()) {
      r.CheckOk(started, "setup");
      return r;
    }
  }
  Daemon* d = daemon.get();
  edna::server::Client* admin = d->clients[0].get();

  edna::Rng schedule(edna::Rng(options.seed).Fork(1).NextU64());
  std::vector<char> disguised(d->users.size(), 0);
  uint64_t next_op = 0;
  auto stats0 = admin->Stats();
  const double wal0 = WalBytes(d->shards.get());
  const double records0 = WalRecords(d->shards.get());
  const Counters vault0 = VaultTotals(d->shards.get());

  PhaseStats closed = RunClosed(d, options.seconds * kClosedShare, options.seed, &disguised,
                                tracer, &next_op);
  // Read before the ladder: how far it climbs varies with the host, and the
  // memory the shards hold grows with the operations executed.
  const double peak_rss_mb = PeakRssMb();
  r.attempted += closed.attempted;
  r.failed += closed.failed;
  for (const std::string& e : closed.errors) {
    std::printf("  request failed: %s\n", e.c_str());
  }

  std::vector<double> global_apply, global_reveal;
  uint64_t global_ops = 0;
  for (int i = 0; i < kGlobalRepeats; ++i) {
    for (bool apply : {true, false}) {
      SpanScope root(tracer, apply ? "op.global_apply" : "op.global_reveal", ++next_op);
      SpanScope call(tracer, "client.call");
      const int64_t t0 = NowNs();
      edna::Status status =
          apply ? admin->Apply(edna::hotcrp::kConfAnonName, Value::Null()).status()
                : admin->Reveal(edna::hotcrp::kConfAnonName, Value::Null()).status();
      ++global_ops;
      ++r.attempted;
      if (!status.ok()) {
        ++r.failed;
        r.CheckOk(status, apply ? "ConfAnon apply" : "ConfAnon reveal");
        break;
      }
      (apply ? global_apply : global_reveal).push_back(MsSince(t0));
    }
  }

  const double rung_s = options.seconds * kRungShare;
  double max_rate = std::nan("");
  double prev_rate = 0, prev_p99 = 0;
  uint64_t ladder_ops = 0;
  PhaseStats kept;  // the rungs that met the limit: did the open loop keep its schedule?
  for (double rate : kLadder) {
    PhaseStats rung = RunPhase(d, rate, rung_s, &schedule, &disguised, tracer, &next_op);
    ladder_ops += rung.ops();
    r.attempted += rung.attempted;
    r.failed += rung.failed;
    const double p99 = Percentile(rung.OpLatencies(), 99);
    const bool meets = MeetsLimit(rung, rung_s);
    std::printf("  open loop %5.0f ops/s: achieved %.0f ops/s, p50 %.2f ms, p99 %.2f ms, "
                "backlog %llu, %s\n",
                rate, static_cast<double>(rung.attempted) / rung.wall_s,
                Percentile(rung.OpLatencies(), 50), p99,
                static_cast<unsigned long long>(rung.max_backlog),
                meets ? "meets the limit" : "misses the limit");
    if (!meets) {
      if (prev_rate > 0) {
        const double miss_p99 = rung.skipped == 0 && std::isfinite(p99) ? p99 : 1e9;
        const double frac =
            std::clamp((kLimitP99Ms - prev_p99) / (miss_p99 - prev_p99), 0.0, 1.0);
        max_rate = prev_rate + (rate - prev_rate) * frac;
      }
      break;
    }
    kept.Merge(rung);
    prev_rate = rate;
    prev_p99 = p99;
    max_rate = rate;
  }

  const double ops = static_cast<double>(closed.ops() + ladder_ops + global_ops);
  const double wal_bytes = WalBytes(d->shards.get()) - wal0;
  const double wal_records = WalRecords(d->shards.get()) - records0;
  const Counters vault_delta = Delta(VaultTotals(d->shards.get()), vault0);
  auto stats1 = admin->Stats();
  auto audit = admin->Audit();
  if (!audit.ok()) {
    r.CheckOk(audit.status(), "Audit verb");
  } else {
    r.Check(audit->violations == 0, "Audit verb reported violations: " + audit->summary);
  }

  // Stop the daemon and reopen every shard directory, as a restart would.
  d->Close();
  double recover_s = 0, replayed = 0;
  for (int i = 0; i < kShards; ++i) {
    edna::core::DurableEngineOptions dopts;
    dopts.engine = ProductionEngineOptions(options.seed);
    edna::core::DurableEngineReport report;
    const int64_t t0 = NowNs();
    auto reopened = edna::core::DurableEngine::Open(dir + "/shard-" + std::to_string(i),
                                                    dopts, &report);
    recover_s += (NowNs() - t0) / 1e9;
    if (!reopened.ok()) {
      r.CheckOk(reopened.status(), "reopen shard " + std::to_string(i));
      continue;
    }
    replayed += static_cast<double>(report.db.records_replayed);
    auto shard_audit = (*reopened)->engine()->AuditConsistency();
    r.Check(shard_audit.ok() && shard_audit->ok(),
            "audit after reopening shard " + std::to_string(i));
  }
  daemon.reset();
  RemoveTree(dir);

  auto e2e = [&](const char* name, double v, const char* unit) { r.e2e[name] = {v, unit}; };
  e2e("apply_p50_ms", Percentile(closed.apply_ms, 50), "ms");
  e2e("apply_p99_ms", Percentile(closed.apply_ms, 99), "ms");
  e2e("reveal_p50_ms", Percentile(closed.reveal_ms, 50), "ms");
  e2e("reveal_p99_ms", Percentile(closed.reveal_ms, 99), "ms");
  e2e("global_apply_ms", Median(global_apply), "ms");
  e2e("global_reveal_ms", Median(global_reveal), "ms");
  e2e("ops_per_s", static_cast<double>(closed.ops()) / closed.wall_s, "1/s");
  e2e("max_rate_ops_s", max_rate, "1/s");
  e2e("wal_bytes_per_op", wal_bytes / ops, "bytes");
  e2e("recover_s", recover_s, "s");
  e2e("setup_s", Median(setup_s), "s");
  e2e("peak_rss_mb", peak_rss_mb, "MiB");
  e2e("error_rate", static_cast<double>(r.failed) / static_cast<double>(r.attempted), "ratio");
  std::printf("daemon-closed: closed loop for %.1f s over %d connections: %zu applies, "
              "%zu reveals, %zu pings\n",
              closed.wall_s, kConnections, closed.apply_ms.size(), closed.reveal_ms.size(),
              closed.ping_ms.size());

  if (tracer != nullptr) {
    auto layer = [&](const char* name, double v, const char* unit) {
      r.layer[name] = {v, unit};
    };
    const double ping_p50 = Percentile(closed.ping_ms, 50);
    layer("server.ping_p50_ms", ping_p50, "ms");
    layer("server.ping_p99_ms", Percentile(closed.ping_ms, 99), "ms");
    layer("loadgen.max_rate_ops_s", std::isfinite(max_rate) ? max_rate : 0, "1/s");
    layer("loadgen.late_p99_ms", kept.late_ms.empty() ? 0 : Percentile(kept.late_ms, 99), "ms");
    layer("loadgen.max_backlog", static_cast<double>(kept.max_backlog), "count");
    layer("wal.records_per_op", wal_records / ops, "count");
    layer("wal.bytes_per_op", wal_bytes / ops, "bytes");
    layer("recover.records_replayed", replayed, "count");
    layer("recover.s", recover_s, "s");
    layer("error_rate", r.e2e["error_rate"].value, "ratio");
    if (stats0.ok() && stats1.ok()) {
      layer("shard.conflict_retries",
            static_cast<double>(stats1->Get("conflict_retries") -
                                stats0->Get("conflict_retries")),
            "count");
      layer("shard.dispatch_errors",
            static_cast<double>(stats1->Get("dispatch_errors") -
                                stats0->Get("dispatch_errors")),
            "count");
      Counters counters = Delta(DbCountersOf(*stats1), DbCountersOf(*stats0));
      layer("core.queries_per_op", counters["db_queries"] / ops, "count");
      Accumulate(&counters, vault_delta);
      AddCounterMetrics(&r, ops, counters,
                        static_cast<double>(stats1->Get("db_resident_bytes")));
    }
    AddSpanMetrics(&r, tracer->Spans(), ops, ping_p50);
  }
  return r;
}

}  // namespace perfbench
