// perfbench: the disguise benchmark.
//
//   perfbench --workload <compose-sealed|durable-serial|daemon-closed>
//             --seed N --seconds S --trace 0|1 --work-dir DIR
//
// Untraced runs (--trace 0) measure the end-to-end metrics. Traced runs
// (--trace 1) spend half the time untraced and half traced over the same
// inputs, print the per-layer metrics, the tracing overhead on every
// end-to-end metric, and write the spans to DIR as JSON lines. The last line
// of standard output is one JSON object: correct, attempted, failed, metrics.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "perfbench/src/bench.h"
#include "src/common/strings.h"

namespace {

using perfbench::Metric;
using perfbench::RunOptions;
using perfbench::RunResult;

// The end-to-end metrics BENCHMARK.json gates on: defined, never zero and
// steady on every gated workload. The report also prints max_rate_ops_s (only
// the daemon runs an open loop, and its p99 crossing moves with host CPU steal),
// wal_bytes_per_op and recover_s (the in-memory workload has neither a log
// nor recovery) and error_rate (zero on a healthy run).
const std::vector<std::string> kGatedMetrics = {
    "apply_p50_ms",    "apply_p99_ms",     "reveal_p50_ms", "reveal_p99_ms",
    "global_apply_ms", "global_reveal_ms", "ops_per_s",     "setup_s",
    "peak_rss_mb",
};

const std::vector<std::string> kReportOrder = {
    "apply_p50_ms",     "apply_p99_ms", "reveal_p50_ms", "reveal_p99_ms",
    "global_apply_ms",  "global_reveal_ms", "ops_per_s", "max_rate_ops_s",
    "wal_bytes_per_op", "recover_s",    "setup_s",       "peak_rss_mb",
    "error_rate",
};

// Environment hooks that silently change the program under test: an exec-mode
// override, a page-cache budget (it would bound the daemon's unbounded
// cache) and armed fail points. The benchmark measures the defaults, so it
// clears them before any database exists.
void ClearOverrides() {
  for (const char* name : {"EDNA_EXEC_MODE", "EDNA_CACHE_MB", "EDNA_FAILPOINTS"}) {
    if (const char* v = std::getenv(name); v != nullptr) {
      std::printf("cleared %s=%s (the benchmark measures the defaults)\n", name, v);
      unsetenv(name);
    }
  }
}

// One line per end-to-end metric; where the workload normalizes to the
// reference host speed, the measured figure follows in brackets.
void PrintReport(const char* title, const RunResult& r) {
  std::printf("%s\n", title);
  for (const std::string& name : kReportOrder) {
    auto it = r.e2e.find(name);
    if (it == r.e2e.end() || std::isnan(it->second.value)) {
      std::printf("  %-18s n/a\n", name.c_str());
      continue;
    }
    std::printf("  %-18s %.6g %s", name.c_str(), it->second.value, it->second.unit.c_str());
    if (auto m = r.measured.find(name); m != r.measured.end()) {
      std::printf("  (measured %.6g)", m->second.value);
    }
    std::printf("\n");
  }
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) {
    return "0";
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintJson(const RunResult& r, const std::map<std::string, Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += r.check_failures.empty() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics) {
    out += first ? "" : ", ";
    first = false;
    out += "\"" + name + "\": {\"value\": " + JsonNumber(m.value) + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "compose-sealed") return perfbench::RunComposeSealed(options);
  if (options.workload == "durable-serial") return perfbench::RunDurableSerial(options);
  return perfbench::RunDaemonClosed(options);
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <compose-sealed|durable-serial|daemon-closed> "
               "--seed N --seconds S --trace 0|1 --work-dir DIR\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    uint64_t n = 0;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed" && edna::ParseUint64(value, &n)) {
      options.seed = n;
    } else if (flag == "--seconds" && edna::ParseUint64(value, &n) && n > 0) {
      options.seconds = static_cast<double>(n);
    } else if (flag == "--trace" && (value == "0" || value == "1")) {
      trace = value == "1" ? 1 : 0;
    } else if (flag == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage();
    }
  }
  if ((argc - 1) % 2 != 0 || trace < 0 || options.work_dir.empty() ||
      (options.workload != "compose-sealed" && options.workload != "durable-serial" &&
       options.workload != "daemon-closed")) {
    return Usage();
  }

  ClearOverrides();
  std::printf("workload %s, seed %llu, %g s, trace %d\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds, trace);
  const bool vectorized = edna::db::Database().exec_mode() == edna::db::ExecMode::kVectorized;
  std::printf("exec mode: %s; page cache: %s\n", vectorized ? "vectorized" : "row-at-a-time",
              options.workload == "durable-serial" ? "1.5 MiB budget"
                                                   : "unbounded (fully resident)");

  if (trace == 0) {
    RunResult r = RunWorkload(options);
    PrintReport("end-to-end metrics:", r);
    for (const std::string& failure : r.check_failures) {
      std::printf("CHECK FAILED: %s\n", failure.c_str());
    }
    if (r.attempted == 0) {
      std::fprintf(stderr, "no operation was attempted\n");
      return 1;
    }
    std::map<std::string, Metric> gated;
    for (const std::string& name : kGatedMetrics) {
      gated[name] = r.e2e[name];
    }
    PrintJson(r, gated);
    return 0;
  }

  // Traced: the same inputs run untraced, then traced, each for half the time.
  RunOptions half = options;
  half.seconds = options.seconds / 2;
  RunResult plain = RunWorkload(half);
  perfbench::Tracer tracer;
  half.tracer = &tracer;
  RunResult traced = RunWorkload(half);
  PrintReport("end-to-end metrics, untraced half:", plain);
  PrintReport("end-to-end metrics, traced half:", traced);
  // The traced half's change against the untraced half, in percent, for each
  // metric defined on the workload. peak_rss_mb is left out: both halves run
  // in one process, so the traced half's peak includes the untraced half's.
  for (const std::string& name : kReportOrder) {
    if (name == "error_rate" || name == "peak_rss_mb") continue;
    const double a = plain.e2e[name].value;
    const double b = traced.e2e[name].value;
    if (std::isfinite(a) && std::isfinite(b) && a != 0) {
      traced.layer["overhead." + name] = Metric{(b - a) / a * 100.0, "%"};
    }
  }
  perfbench::FillLayerDefaults(&traced);
  std::printf("per-layer metrics:\n");
  for (const auto& [name, m] : traced.layer) {
    std::printf("  %-40s %.6g %s\n", name.c_str(), m.value, m.unit.c_str());
  }
  const std::string trace_path = options.work_dir + "/trace-" + options.workload + "-" +
                                 std::to_string(options.seed) + ".jsonl";
  edna::Status written = tracer.WriteJsonLines(trace_path);
  std::printf("spans: %zu written to %s%s\n", tracer.Spans().size(), trace_path.c_str(),
              written.ok() ? "" : (" (FAILED: " + written.ToString() + ")").c_str());
  // Both halves' checks and failures count.
  traced.attempted += plain.attempted;
  traced.failed += plain.failed;
  traced.check_failures.insert(traced.check_failures.end(), plain.check_failures.begin(),
                               plain.check_failures.end());
  for (const std::string& failure : traced.check_failures) {
    std::printf("CHECK FAILED: %s\n", failure.c_str());
  }
  if (traced.attempted == 0) {
    std::fprintf(stderr, "no operation was attempted\n");
    return 1;
  }
  PrintJson(traced, traced.layer);
  return 0;
}
