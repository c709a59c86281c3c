#include "perfbench/src/bench.h"

#include <fcntl.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <unordered_map>

#include "src/apps/hotcrp/disguises.h"
#include "src/db/row.h"

namespace perfbench {

namespace {

// Innermost open span and its operation on the calling thread.
thread_local int64_t t_open_span = -1;
thread_local uint64_t t_op = 0;

}  // namespace

// --- SpeedProbe ------------------------------------------------------------------

namespace {

uint64_t g_probe_sink = 0;

// Four parts, in the engine's own mix of work: hashing short string keys,
// walking an ordered map of row keys, sorting strings and churning small
// allocations. On the shared hosts the benchmark was built on, the per-cycle
// median latency of compose-sealed followed this mix with correlation 0.85,
// and dividing by it halved the cycle-to-cycle variation; timing only
// arithmetic or only memory loads followed it half as well.
double RunProbeKernel() {
  const int64_t cpu0 = ThreadCpuNs();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto next = [&x] {
    x ^= x << 13, x ^= x >> 7, x ^= x << 17;
    return x;
  };
  std::unordered_map<std::string, uint64_t> hashed;
  for (int i = 0; i < 600; ++i) hashed["key-" + std::to_string(next() % 300)] += x;
  std::map<std::string, int> ordered;
  for (int i = 0; i < 300; ++i) ordered["row/" + std::to_string(next() % 1000)] = i;
  size_t found = 0;
  for (int i = 0; i < 600; ++i) found += ordered.count("row/" + std::to_string(next() % 1000));
  std::vector<std::string> values;
  for (int i = 0; i < 500; ++i) values.push_back("value-" + std::to_string(next()));
  std::sort(values.begin(), values.end());
  std::vector<void*> live;
  for (int i = 0; i < 2000; ++i) {
    live.push_back(::operator new(16 + next() % 240));
    if (live.size() > 64) {
      const size_t victim = next() % live.size();
      ::operator delete(live[victim]);
      live[victim] = live.back();
      live.pop_back();
    }
  }
  for (void* p : live) ::operator delete(p);
  g_probe_sink += hashed.size() + found + values[found % values.size()].size();
  return (ThreadCpuNs() - cpu0) / 1e6;
}

// One 4 KiB append and fdatasync, in wall-clock ms; the file is emptied
// (untimed) every 256 appends, so every timed append grows it.
double RunSyncKernel(int fd, size_t run) {
  constexpr size_t kPage = 4096;
  constexpr size_t kPagesPerFile = 256;
  if (run % kPagesPerFile == 0 && ftruncate(fd, 0) != 0) {
    return std::nan("");
  }
  static const std::string page(kPage, 'p');
  const int64_t t0 = NowNs();
  const off_t at = static_cast<off_t>(run % kPagesPerFile * kPage);
  if (pwrite(fd, page.data(), kPage, at) != static_cast<ssize_t>(kPage) || fdatasync(fd) != 0) {
    return std::nan("");
  }
  return MsSince(t0);
}

double MedianFrom(const std::vector<double>& v, size_t first) {
  return Median(std::vector<double>(v.begin() + static_cast<ptrdiff_t>(first), v.end()));
}

}  // namespace

SpeedProbe::SpeedProbe(std::string sync_path) : sync_path_(std::move(sync_path)) {
  if (!sync_path_.empty()) {
    sync_fd_ = open(sync_path_.c_str(), O_CREAT | O_WRONLY | O_TRUNC | O_CLOEXEC, 0644);
  }
}

SpeedProbe::~SpeedProbe() {
  if (sync_fd_ >= 0) {
    close(sync_fd_);
    unlink(sync_path_.c_str());
  }
}

void SpeedProbe::Sample(int every) {
  if (every > 0 && ops_since_ < every) {
    return;
  }
  ops_since_ = 0;
  if (sync_fd_ >= 0) {
    // A failed append counts as the reference time, so it leaves the disk
    // factor where the other runs put it.
    const double ms = RunSyncKernel(sync_fd_, sync_ms_.size());
    sync_ms_.push_back(std::isnan(ms) ? kReferenceSyncMs : ms);
  }
  cpu_ms_.push_back(RunProbeKernel());
}

SpeedProbe::Factors SpeedProbe::Current() const {
  return Since(cpu_ms_.size() - std::min(cpu_ms_.size(), kWindow));
}

SpeedProbe::Factors SpeedProbe::Since(size_t first) const {
  Factors f;
  if (first < cpu_ms_.size()) {
    f.cpu = kReferenceCpuMs / MedianFrom(cpu_ms_, first);
  }
  if (first < sync_ms_.size()) {
    f.wait = kReferenceSyncMs / MedianFrom(sync_ms_, first);
  }
  return f;
}

void SpeedProbe::PrintSummary() const {
  std::printf("speed probe: %zu runs, CPU median %.4g ms (reference %.4g ms)", cpu_ms_.size(),
              cpu_ms_.empty() ? 0.0 : Median(cpu_ms_), kReferenceCpuMs);
  if (!sync_ms_.empty()) {
    std::printf(", disk median %.4g ms (reference %.4g ms)", Median(sync_ms_), kReferenceSyncMs);
  }
  std::printf("\n");
}

// --- TimedSamples ------------------------------------------------------------------

void TimedSamples::Add(std::vector<double> Timings::*series, Elapsed e, SpeedProbe* probe) {
  (measured.*series).push_back(e.wall_ms);
  (normalized.*series).push_back(probe->Normalize(e));
  AddOverhead(e, *probe);
  probe->CountOp();
}

void TimedSamples::AddOverhead(Elapsed e, const SpeedProbe& probe) {
  measured.timed_s += e.wall_ms / 1e3;
  normalized.timed_s += probe.Normalize(e) / 1e3;
}

void SetTimingMetrics(RunResult* r, const TimedSamples& s, uint64_t ops,
                      const std::vector<double>& setup_s_normalized,
                      const std::vector<double>& setup_s_measured) {
  auto set = [&](std::map<std::string, Metric>* out, const Timings& t,
                 const std::vector<double>& setup_s) {
    (*out)["apply_p50_ms"] = {Percentile(t.apply_ms, 50), "ms"};
    (*out)["apply_p99_ms"] = {Percentile(t.apply_ms, 99), "ms"};
    (*out)["reveal_p50_ms"] = {Percentile(t.reveal_ms, 50), "ms"};
    (*out)["reveal_p99_ms"] = {Percentile(t.reveal_ms, 99), "ms"};
    (*out)["global_apply_ms"] = {Median(t.global_apply_ms), "ms"};
    (*out)["global_reveal_ms"] = {Median(t.global_reveal_ms), "ms"};
    (*out)["ops_per_s"] = {static_cast<double>(ops) / t.timed_s, "1/s"};
    (*out)["setup_s"] = {Median(setup_s), "s"};
  };
  set(&r->e2e, s.normalized, setup_s_normalized);
  set(&r->measured, s.measured, setup_s_measured);
}

// --- Tracer --------------------------------------------------------------------

int64_t Tracer::Open(const char* name, uint64_t op_if_root) {
  Span span;
  span.name = name;
  span.parent = t_open_span;
  span.op = t_open_span >= 0 ? t_op : op_if_root;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int64_t>(spans_.size()) - 1;
}

void Tracer::Close(int64_t index) {
  const int64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = end;
}

std::vector<Span> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

edna::Status Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  std::lock_guard<std::mutex> lock(mu_);
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"op\":" << s.op
        << "}\n";
  }
  out.flush();
  return out ? edna::OkStatus() : edna::Internal("cannot write trace file " + path);
}

SpanScope::SpanScope(Tracer* tracer, const char* name, uint64_t op) : tracer_(tracer) {
  if (tracer_ == nullptr) {
    return;
  }
  index_ = tracer_->Open(name, op);
  saved_parent_ = t_open_span;
  saved_op_ = t_op;
  if (t_open_span < 0) {
    t_op = op;
  }
  t_open_span = index_;
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) {
    return;
  }
  tracer_->Close(index_);
  t_open_span = saved_parent_;
  t_op = saved_op_;
}

// --- TimingVault -----------------------------------------------------------------

edna::Status TimingVault::Store(const edna::vault::RevealRecord& record) {
  SpanScope span(tracer_, "vault.store");
  return inner_->Store(record);
}

edna::Status TimingVault::StoreBatch(const std::vector<edna::vault::RevealRecord>& records) {
  SpanScope span(tracer_, "vault.store_batch");
  return inner_->StoreBatch(records);
}

edna::StatusOr<std::vector<edna::vault::RevealRecord>> TimingVault::FetchForUser(
    const edna::sql::Value& uid) {
  SpanScope span(tracer_, "vault.fetch_user");
  return inner_->FetchForUser(uid);
}

edna::StatusOr<std::vector<edna::vault::RevealRecord>> TimingVault::FetchForDisguise(
    uint64_t disguise_id) {
  SpanScope span(tracer_, "vault.fetch_disguise");
  return inner_->FetchForDisguise(disguise_id);
}

edna::StatusOr<std::vector<edna::vault::RevealRecord>> TimingVault::FetchGlobal() {
  SpanScope span(tracer_, "vault.fetch_global");
  return inner_->FetchGlobal();
}

edna::Status TimingVault::Remove(uint64_t disguise_id) {
  SpanScope span(tracer_, "vault.remove");
  return inner_->Remove(disguise_id);
}

edna::StatusOr<std::vector<uint64_t>> TimingVault::ListDisguiseIds() const {
  SpanScope span(tracer_, "vault.list");
  return inner_->ListDisguiseIds();
}

edna::StatusOr<size_t> TimingVault::ExpireBefore(edna::TimePoint cutoff) {
  SpanScope span(tracer_, "vault.expire");
  return inner_->ExpireBefore(cutoff);
}

// --- TimingWalSink -----------------------------------------------------------------

edna::StatusOr<uint64_t> TimingWalSink::AppendCommit(edna::db::WalCommit commit) {
  SpanScope span(tracer_, "wal.append_commit");
  return inner_->AppendCommit(std::move(commit));
}

edna::StatusOr<uint64_t> TimingWalSink::AppendDdl(const edna::db::WalRecord& record) {
  SpanScope span(tracer_, "wal.append_ddl");
  return inner_->AppendDdl(record);
}

edna::Status TimingWalSink::SyncCommit(uint64_t lsn) {
  SpanScope span(tracer_, "wal.sync");
  return inner_->SyncCommit(lsn);
}

// --- Inputs ----------------------------------------------------------------------------

edna::core::EngineOptions ProductionEngineOptions(uint64_t seed) {
  edna::core::EngineOptions options;
  options.deterministic_rng = true;
  options.rng_seed = seed;
  return options;
}

edna::StatusOr<edna::hotcrp::Generated> PopulateHotCrp(edna::db::Database* db, uint64_t seed) {
  edna::hotcrp::Config config;
  config.seed = seed;
  return edna::hotcrp::Populate(db, config);
}

std::vector<edna::disguise::DisguiseSpec> ShippedSpecs() {
  std::vector<edna::disguise::DisguiseSpec> specs;
  for (auto spec_fn : {edna::hotcrp::GdprSpec, edna::hotcrp::GdprPlusSpec,
                       edna::hotcrp::ConfAnonSpec}) {
    auto spec = spec_fn();
    if (spec.ok()) {
      specs.push_back(*std::move(spec));
    }
  }
  return specs;
}

edna::Status RegisterShippedSpecs(edna::core::DisguiseEngine* engine) {
  std::vector<edna::disguise::DisguiseSpec> specs = ShippedSpecs();
  if (specs.size() != 3) {
    return edna::Internal("a shipped HotCRP spec failed to parse");
  }
  for (edna::disguise::DisguiseSpec& spec : specs) {
    RETURN_IF_ERROR(engine->RegisterSpec(std::move(spec)));
  }
  return edna::OkStatus();
}

// --- Helpers ---------------------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return std::nan("");
  }
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - static_cast<double>(lo));
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 50); }

std::string Fingerprint(const edna::db::Database& db) {
  std::string out;
  for (const edna::db::TableSchema& ts : db.schema().tables()) {
    if (ts.name().rfind("__edna", 0) == 0) {
      continue;
    }
    auto rows = db.SelectRowsWithIds(ts.name(), nullptr, {});
    if (!rows.ok()) {
      return "error: " + rows.status().ToString();
    }
    out += "#" + ts.name() + "\n";
    for (const auto& [id, row] : *rows) {
      out += std::to_string(id) + ":" + edna::db::RowToString(row) + "\n";
    }
  }
  return out;
}

void RemoveTree(const std::string& dir) {
  std::error_code ignored;
  std::filesystem::remove_all(dir, ignored);
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

// One table per stats struct: the counter's Stats-verb name and its field.
const std::pair<const char*, std::atomic<uint64_t> edna::db::DbStats::*> kDbFields[] = {
    {"db_queries", &edna::db::DbStats::queries},
    {"db_rows_read", &edna::db::DbStats::rows_read},
    {"db_rows_inserted", &edna::db::DbStats::rows_inserted},
    {"db_rows_updated", &edna::db::DbStats::rows_updated},
    {"db_rows_deleted", &edna::db::DbStats::rows_deleted},
    {"db_index_lookups", &edna::db::DbStats::index_lookups},
    {"db_full_scans", &edna::db::DbStats::full_scans},
    {"db_rows_examined", &edna::db::DbStats::rows_examined},
    {"db_plan_cache_hits", &edna::db::DbStats::plan_cache_hits},
    {"db_plan_cache_misses", &edna::db::DbStats::plan_cache_misses},
    {"db_page_hits", &edna::db::DbStats::page_hits},
    {"db_page_misses", &edna::db::DbStats::page_misses},
    {"db_page_evictions", &edna::db::DbStats::page_evictions},
    {"db_page_writebacks", &edna::db::DbStats::page_writebacks},
};

const std::pair<const char*, std::atomic<uint64_t> edna::vault::VaultStats::*> kVaultFields[] = {
    {"vault_stores", &edna::vault::VaultStats::stores},
    {"vault_records_fetched", &edna::vault::VaultStats::records_fetched},
    {"vault_bytes_stored", &edna::vault::VaultStats::bytes_stored},
    {"vault_crypto_ops", &edna::vault::VaultStats::crypto_ops},
};

template <typename Stats, typename Table>
Counters Load(const Stats& stats, const Table& table) {
  Counters out;
  for (const auto& [name, field] : table) {
    out[name] = static_cast<double>((stats.*field).load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace

Counters CountersOf(const edna::db::DbStats& db) { return Load(db, kDbFields); }

Counters CountersOf(const edna::vault::VaultStats& vault) { return Load(vault, kVaultFields); }

Counters Delta(const Counters& after, const Counters& before) {
  Counters out = after;
  for (const auto& [name, v] : before) out[name] -= v;
  return out;
}

void Accumulate(Counters* into, const Counters& more) {
  for (const auto& [name, v] : more) (*into)[name] += v;
}

namespace {

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

void Set(RunResult* r, const std::string& name, double value, const char* unit) {
  r->layer[name] = Metric{value, unit};
}

}  // namespace

void CoreCounters::AddApply(const edna::core::ApplyResult& a, bool per_user) {
  ++ops;
  queries += static_cast<double>(a.queries);
  if (!per_user) return;
  ++applies;
  placeholders += static_cast<double>(a.placeholders_created);
  recorrelated += static_cast<double>(a.rows_recorrelated);
  reused += static_cast<double>(a.decorrelations_reused);
  records_scanned += static_cast<double>(a.vault_records_scanned);
}

void CoreCounters::AddReveal(const edna::core::RevealResult& v, bool per_user) {
  ++ops;
  queries += static_cast<double>(v.queries);
  if (!per_user) return;
  ++reveals;
  suppressed += static_cast<double>(v.rows_suppressed);
  redisguised += static_cast<double>(v.values_redisguised);
}

void CoreCounters::Emit(RunResult* r) const {
  Set(r, "core.queries_per_op", Ratio(queries, ops), "count");
  Set(r, "core.placeholders_per_apply", Ratio(placeholders, applies), "count");
  Set(r, "core.rows_recorrelated_per_apply", Ratio(recorrelated, applies), "count");
  Set(r, "core.decorrelations_reused_per_apply", Ratio(reused, applies), "count");
  Set(r, "core.vault_records_scanned_per_apply", Ratio(records_scanned, applies), "count");
  Set(r, "core.rows_suppressed_per_reveal", Ratio(suppressed, reveals), "count");
  Set(r, "core.values_redisguised_per_reveal", Ratio(redisguised, reveals), "count");
}

void AddCounterMetrics(RunResult* r, double ops, const Counters& counters,
                       double resident_bytes) {
  auto get = [&](const char* name) {
    auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  };
  const double rows_written =
      get("db_rows_inserted") + get("db_rows_updated") + get("db_rows_deleted");
  const double plan_lookups = get("db_plan_cache_hits") + get("db_plan_cache_misses");
  const double page_lookups = get("db_page_hits") + get("db_page_misses");
  Set(r, "db.rows_examined_per_row_read", Ratio(get("db_rows_examined"), get("db_rows_read")),
      "ratio");
  Set(r, "db.full_scans", get("db_full_scans"), "count");
  Set(r, "db.index_lookups_per_op", Ratio(get("db_index_lookups"), ops), "count");
  Set(r, "db.plan_cache_hit_rate", Ratio(get("db_plan_cache_hits"), plan_lookups), "ratio");
  Set(r, "db.rows_written_per_op", Ratio(rows_written, ops), "count");
  Set(r, "cache.hit_rate", Ratio(get("db_page_hits"), page_lookups), "ratio");
  Set(r, "cache.misses_per_op", Ratio(get("db_page_misses"), ops), "count");
  Set(r, "cache.evictions_per_op", Ratio(get("db_page_evictions"), ops), "count");
  Set(r, "cache.writebacks_per_op", Ratio(get("db_page_writebacks"), ops), "count");
  Set(r, "cache.resident_bytes", resident_bytes, "bytes");
  Set(r, "vault.records_stored_per_op", Ratio(get("vault_stores"), ops), "count");
  Set(r, "vault.bytes_stored_per_op", Ratio(get("vault_bytes_stored"), ops), "bytes");
  Set(r, "vault.records_fetched_per_op", Ratio(get("vault_records_fetched"), ops), "count");
  Set(r, "vault.crypto_ops_per_op", Ratio(get("vault_crypto_ops"), ops), "count");
}

namespace {

// Per span name: count and summed duration. Per op.* root name: summed self
// time (duration minus the union of its children's intervals). Spans with no
// parent that are not roots (daemon worker WAL spans) are summed separately.
struct SpanSummary {
  std::map<std::string, uint64_t> count;
  std::map<std::string, double> total_ms;
  std::map<std::string, double> self_ms;
  std::map<std::string, double> orphan_ms;
};

SpanSummary Summarize(const std::vector<Span>& spans) {
  SpanSummary out;
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(spans.size());
  for (const Span& s : spans) {
    const std::string name = s.name;
    const double ms = (s.end_ns - s.start_ns) / 1e6;
    ++out.count[name];
    out.total_ms[name] += ms;
    if (s.parent >= 0) {
      // client.call covers the whole remote operation; only its wire share is
      // subtracted from the root (see AddSpanMetrics), so it is not a child here.
      if (name != "client.call") {
        children[static_cast<size_t>(s.parent)].push_back({s.start_ns, s.end_ns});
      }
    } else if (name.rfind("op.", 0) != 0) {
      out.orphan_ms[name] += ms;
    }
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    if (s.parent >= 0 || std::string(s.name).rfind("op.", 0) != 0) {
      continue;
    }
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t cur_start = 0, cur_end = -1;
    for (const auto& [a, b] : kids) {
      if (a > cur_end) {
        covered += cur_end >= cur_start ? cur_end - cur_start : 0;
        cur_start = a;
        cur_end = b;
      } else {
        cur_end = std::max(cur_end, b);
      }
    }
    covered += cur_end >= cur_start ? cur_end - cur_start : 0;
    out.self_ms[s.name] += (s.end_ns - s.start_ns - covered) / 1e6;
  }
  return out;
}

}  // namespace

void AddSpanMetrics(RunResult* r, const std::vector<Span>& spans, double ops,
                    double wire_ms_per_call) {
  SpanSummary sum = Summarize(spans);
  auto total = [&](const std::string& prefix) {
    double ms = 0;
    for (const auto& [name, t] : sum.total_ms) {
      if (name.rfind(prefix, 0) == 0) ms += t;
    }
    return ms;
  };
  const double orphan_wal_ms = [&] {
    double ms = 0;
    for (const auto& [name, t] : sum.orphan_ms) {
      if (name.rfind("wal.", 0) == 0) ms += t;
    }
    return ms;
  }();
  const double orphan_wal_per_op = Ratio(orphan_wal_ms, ops);
  for (const char* kind : {"apply", "reveal"}) {
    const std::string root = std::string("op.") + kind;
    const double n = static_cast<double>(sum.count[root]);
    // Remote operations: the client.call span contains the engine; only its
    // wire share (a ping round trip) is attributed away from the core.
    const double self = Ratio(sum.self_ms[root], n) - orphan_wal_per_op -
                        (sum.count["client.call"] > 0 ? wire_ms_per_call : 0);
    Set(r, std::string("core.") + kind + "_self_ms", std::max(0.0, self), "ms");
  }
  Set(r, "vault.store_us_per_op", Ratio(total("vault.store") * 1e3, ops), "us");
  Set(r, "vault.fetch_us_per_op", Ratio(total("vault.fetch") * 1e3, ops), "us");
  Set(r, "wal.append_us_per_op", Ratio(total("wal.append") * 1e3, ops), "us");
  Set(r, "wal.sync_us_per_op", Ratio(total("wal.sync") * 1e3, ops), "us");
  Set(r, "wal.syncs_per_op", Ratio(static_cast<double>(sum.count["wal.sync"]), ops), "count");
}

void FillLayerDefaults(RunResult* r) {
  static const std::vector<std::pair<const char*, const char*>> kAll = {
      {"core.apply_self_ms", "ms"},
      {"core.reveal_self_ms", "ms"},
      {"core.queries_per_op", "count"},
      {"core.placeholders_per_apply", "count"},
      {"core.rows_recorrelated_per_apply", "count"},
      {"core.decorrelations_reused_per_apply", "count"},
      {"core.vault_records_scanned_per_apply", "count"},
      {"core.rows_suppressed_per_reveal", "count"},
      {"core.values_redisguised_per_reveal", "count"},
      {"db.rows_examined_per_row_read", "ratio"},
      {"db.full_scans", "count"},
      {"db.index_lookups_per_op", "count"},
      {"db.plan_cache_hit_rate", "ratio"},
      {"db.rows_written_per_op", "count"},
      {"cache.hit_rate", "ratio"},
      {"cache.misses_per_op", "count"},
      {"cache.evictions_per_op", "count"},
      {"cache.writebacks_per_op", "count"},
      {"cache.resident_bytes", "bytes"},
      {"wal.append_us_per_op", "us"},
      {"wal.sync_us_per_op", "us"},
      {"wal.syncs_per_op", "count"},
      {"wal.records_per_op", "count"},
      {"wal.bytes_per_op", "bytes"},
      {"checkpoint.count", "count"},
      {"checkpoint.ms", "ms"},
      {"checkpoint.bytes_written", "bytes"},
      {"recover.records_replayed", "count"},
      {"recover.s", "s"},
      {"vault.store_us_per_op", "us"},
      {"vault.fetch_us_per_op", "us"},
      {"vault.records_stored_per_op", "count"},
      {"vault.bytes_stored_per_op", "bytes"},
      {"vault.records_fetched_per_op", "count"},
      {"vault.crypto_ops_per_op", "count"},
      {"error_rate", "ratio"},
      {"overhead.apply_p50_ms", "%"},
      {"overhead.apply_p99_ms", "%"},
      {"overhead.reveal_p50_ms", "%"},
      {"overhead.reveal_p99_ms", "%"},
      {"overhead.global_apply_ms", "%"},
      {"overhead.global_reveal_ms", "%"},
      {"overhead.ops_per_s", "%"},
      {"overhead.wal_bytes_per_op", "%"},
      {"overhead.recover_s", "%"},
      {"overhead.setup_s", "%"},
  };
  for (const auto& [name, unit] : kAll) {
    if (r->layer.find(name) == r->layer.end()) {
      r->layer[name] = Metric{0, unit};
    }
  }
}

}  // namespace perfbench
