// The workloads of the end-to-end benchmark and the per-layer probes they
// share. See README.md for what each one stresses.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "artifact/serving.h"
#include "check.h"
#include "load.h"
#include "report.h"
#include "serve/runtime.h"

namespace perfbench {

// The ε every release pays.
inline constexpr double kEpsilon = 1.0;

// Each workload's dataset, its clustering and (stream-serve) its delta
// schedule are the same in every run; --seed picks the request traffic
// and the noise of each release.
inline constexpr uint64_t kDatasetSeed = 1;

struct ServeConfig {
  double nominal_rps = 0.0;
  double limit_ms = 0.0;  // p99 limit of the rate ladder
  double ladder_base = 0.0;
  double ladder_top = 0.0;
  double ladder_ratio = 1.04;
  int request_threads = 4;
  int windows = 3;                 // nominal windows per round
  double window_samples = 1100.0;  // requests per nominal window
  int releases = 4;  // quiet releases timed for release_s
  double swap_period_s = 2.0;
  int64_t shards = 4;
  int setups = 3;
};

struct StreamConfig {
  double nominal_rps = 0.0;
  double limit_ms = 0.0;
  double ladder_base = 0.0;
  double ladder_top = 0.0;
  double ladder_ratio = 1.04;
  int request_threads = 3;
  double delta_rps = 20.0;  // scheduled deltas per second
  int windows = 4;               // nominal windows per round
  double window_samples = 500.0;  // requests per nominal window
  // Each nominal window starts one release this far in; it is served
  // well before the window ends.
  double release_offset_s = 0.2;
  int setups = 3;
};

void RunServeWorkload(const ServeConfig& config, const RunOptions& options,
                      Report* report);
void RunStreamWorkload(const StreamConfig& config, const RunOptions& options,
                       Report* report);

// The checks' own test (selftest.cc): 0 when every check caught the error
// it was shown and passed its control.
int RunSelfTest(const std::string& scratch_dir);

// ---- Per-layer probes (layers.cc) ----

// Replays requests' users through the reconstruction kernels on `engine`:
// the gather of similarity weights by cluster, kernels::AccumulateRows and
// core::TopNFromDense, each timed per user. The replay's lists and those
// of serving::ReconstructTopN on the same users must both equal
// ReferenceTopN (check.h).
struct KernelReplay {
  double gather_us = 0.0;      // median per user
  double accumulate_us = 0.0;  // median per user
  double select_us = 0.0;      // median per user
  double rows_per_user = 0.0;  // mean touched clusters
  int64_t users = 0;
  bool identical = true;
};
KernelReplay ReplayKernels(const privrec::serving::ServingEngine& engine,
                           const std::vector<privrec::serve::ServeRequest>&
                               requests,
                           int64_t max_users);

// Median wall time of `reps` ServingEngine::Load calls on one file.
double MedianOpenMs(const std::string& path, int reps);

// Logical section sizes of a release: the noisy (cluster, item) table and
// the similarity-workload records.
void ReleaseBytes(const privrec::serving::ServingEngine& engine,
                  double* table_bytes, double* workload_bytes);

// Closes the checker: attempted, failed and success_rate, and a failed
// run when any response failed.
void ReportChecks(ResponseChecker* checker, Report* report);

// What both workloads measure the same way: the latency and knee of the
// measurement, the serving, kernel, pool and load-generator layers (idle
// and kernels are empty outside traced runs), and the measurement's
// context. `pooled_runs` and `serial_runs` count the program's parallel
// regions over the measurement.
void ReportServing(const Measurement& m, const MeasurePlan& plan,
                   const PhaseResult& idle, const KernelReplay& kernels,
                   int64_t pooled_runs, int64_t serial_runs,
                   const privrec::serve::ServeRuntime& runtime, bool trace,
                   Report* report);

// Writes the program tracer's spans and `spans` as one Chrome trace.
void WriteTrace(SpanLog* spans, const std::string& path, Report* report);

// Current value of a program counter from the obs registry.
int64_t CounterValue(const char* name);

// Mean admission wait over the wide events the telemetry sink kept.
double MeanAdmitWaitMs(const privrec::serve::ServeRuntime& runtime);

// The request that marks a set-up or a release as served: the first four
// users at depth 50.
privrec::serve::ServeRequest FirstRequest(int64_t num_users,
                                          uint64_t request_id);

// Peak resident set of this process, MiB.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
