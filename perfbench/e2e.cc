// The end-to-end benchmark binary: one workload per run, every end-to-end
// metric (or, with --trace=1, every per-layer metric) on the last line of
// stdout as one JSON object, and a context line before it.
//
//   perfbench_e2e --workload=serve-lastfm --seed=1 --seconds=30 --trace=0
//                 --scratch-dir=DIR --trace-out=FILE [--source-digest=HEX]
//   perfbench_e2e --self-test --scratch-dir=DIR
//
// perfbench/run.py builds this binary and is the documented entry point.
// Exit status: 0 when every output check held, 1 otherwise.

#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>

#include "common/flags.h"
#include "common/parallel.h"
#include "common/version.h"
#include "kernels/dispatch.h"
#include "load.h"
#include "obs/export.h"
#include "report.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;
namespace obs = privrec::obs;

// Taken during static initialization: set-up time is measured from here.
const Clock::time_point kProcessStart = Clock::now();

ServeConfig ServeLastFm() {
  ServeConfig c;
  c.nominal_rps = 800.0;
  c.limit_ms = 50.0;
  c.ladder_base = 200.0;
  c.ladder_top = 12000.0;
  c.releases = 15;
  return c;
}

StreamConfig StreamServe() {
  StreamConfig c;
  c.nominal_rps = 250.0;
  c.limit_ms = 50.0;
  c.ladder_base = 100.0;
  c.ladder_top = 4000.0;
  return c;
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (const Metric& m : metrics) {
    if (out.size() > 1) out += ", ";
    char value[64];
    std::snprintf(value, sizeof(value), "%.10g", m.value);
    out += "\"" + obs::JsonEscape(m.name) + "\": {\"value\": " + value +
           ", \"unit\": \"" + obs::JsonEscape(m.unit) + "\"}";
  }
  return out + "}";
}

}  // namespace

int main(int argc, char** argv) {
  privrec::FlagParser flags(argc, argv);
  RunOptions options;
  options.workload = flags.GetString("workload", "");
  options.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  options.seconds = flags.GetDouble("seconds", 30.0);
  options.trace = flags.GetInt("trace", 0) != 0;
  options.scratch_dir = flags.GetString("scratch-dir", "");
  options.trace_path = flags.GetString("trace-out", "");
  options.process_start = kProcessStart;
  const std::string digest = flags.GetString("source-digest", "");
  const bool self_test = flags.GetBool("self-test", false);
  if (!flags.Validate()) return 1;
  if (options.scratch_dir.empty()) {
    std::fprintf(stderr, "--scratch-dir is required\n");
    return 1;
  }
  namespace fs = std::filesystem;
  fs::remove_all(options.scratch_dir);
  fs::create_directories(options.scratch_dir);
  if (self_test) {
    const int code = RunSelfTest(options.scratch_dir);
    fs::remove_all(options.scratch_dir);
    return code;
  }

  const double steal_start = StealSeconds();
  Report report;
  if (options.workload == "serve-lastfm") {
    RunServeWorkload(ServeLastFm(), options, &report);
  } else if (options.workload == "stream-serve") {
    RunStreamWorkload(StreamServe(), options, &report);
  } else {
    std::fprintf(stderr,
                 "unknown --workload '%s' (serve-lastfm, stream-serve)\n",
                 options.workload.c_str());
    return 1;
  }
  fs::remove_all(options.scratch_dir);
  const double steal_end = StealSeconds();
  report.Context("cpu_steal_s",
                 obs::JsonNumber(steal_start < 0 || steal_end < 0
                                     ? -1.0
                                     : steal_end - steal_start));

  std::string context = "{\"workload\": \"" + options.workload +
                        "\", \"seed\": " + std::to_string(options.seed) +
                        ", \"seconds\": " + obs::JsonNumber(options.seconds) +
                        ", \"trace\": " + (options.trace ? "1" : "0") +
                        ", \"git_rev\": \"" + privrec::kGitRevision +
                        "\", \"source_digest\": \"" + digest +
                        "\", \"nproc\": " +
                        std::to_string(std::thread::hardware_concurrency()) +
                        ", \"kernel_dispatch\": \"" +
                        privrec::kernels::DispatchLevelName(
                            privrec::kernels::ActiveDispatchLevel()) +
                        "\", \"build_type\": \"" PERFBENCH_BUILD_TYPE "\"";
  for (const auto& [key, value] : report.context) {
    context += ", \"" + key + "\": " + value;
  }
  context += "}";
  for (const std::string& error : report.errors) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  std::printf("{\"context\": %s}\n", context.c_str());
  std::printf(
      "{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
      "\"metrics\": %s}\n",
      report.correct ? "true" : "false",
      static_cast<long long>(report.attempted),
      static_cast<long long>(report.failed),
      MetricsJson(options.trace ? report.per_layer : report.end_to_end)
          .c_str());
  return report.correct ? 0 : 1;
}
