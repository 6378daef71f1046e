// Open-loop load on real threads against a live serve::ServeRuntime, and
// the rate ladder that finds the highest rate the runtime sustains.
//
// Request shapes (users, depth, deadline) come from loadgen::BuildSchedule
// with the workload's seed; send times are a Poisson process drawn here in
// microseconds, because the loadgen schedule rounds sends to whole
// milliseconds, which at these rates would clump several requests onto
// one instant. Worker threads take the next request in schedule order,
// sleep until it is due, and call Handle(); latency is measured from the
// scheduled send, so a stall is charged to every request it delays.

#ifndef PERFBENCH_LOAD_H_
#define PERFBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "check.h"
#include "report.h"
#include "serve/runtime.h"

namespace perfbench {

struct LoadShape {
  int64_t num_users = 0;
  int64_t users_per_request = 4;
  double zipf_s = 1.1;
  // Served depths; the schedule's uniform top-N draw in [1, 50] is folded
  // onto these so that the oracle precomputes only a few depths.
  std::vector<int64_t> depths = {10, 50};
};

struct PhaseOptions {
  double rps = 100.0;
  double seconds = 1.0;
  int threads = 4;
  uint64_t seed = 1;
  // Wide-event ids are first_request_id + schedule index.
  uint64_t first_request_id = 1;
  // > 0: once a request starts this many ms late the phase stops sending
  // (an overloaded ladder rung has already failed).
  double abort_late_ms = 0.0;
  // Non-null: record a loadgen.request / serve.handle span pair per
  // request into it.
  SpanLog* spans = nullptr;
};

struct PhaseResult {
  int64_t scheduled = 0;
  int64_t sent = 0;
  int64_t ok = 0;      // OK status and not an oracle mismatch
  int64_t failed = 0;  // sent - ok
  bool aborted = false;
  // Per sent request, in schedule order. Latency is +inf for a failure.
  std::vector<double> latency_ms;
  std::vector<double> late_ms;    // start of Handle minus scheduled send
  std::vector<double> handle_ms;  // time inside Handle
  std::vector<int64_t> epoch;
  std::vector<double> done_s;  // completion, seconds on the steady clock
  double span_s = 0.0;         // first scheduled send to last completion
  double throughput_rps = 0.0;  // ok / span_s
  // Mean lateness of the last fifth of sent requests minus the first.
  double backlog_growth_ms = 0.0;
};

// The request mix of a phase: loadgen schedule shapes with the depths
// folded onto shape.depths and ids first_request_id, first_request_id+1...
std::vector<privrec::serve::ServeRequest> ScheduleRequests(
    const LoadShape& shape, double rps, double seconds, uint64_t seed,
    uint64_t first_request_id);

PhaseResult RunPhase(privrec::serve::ServeRuntime* runtime,
                     ResponseChecker* checker, const LoadShape& shape,
                     const PhaseOptions& options);

// Closed loop from one thread: the same request mix with no queueing.
PhaseResult RunIdle(privrec::serve::ServeRuntime* runtime,
                    ResponseChecker* checker, const LoadShape& shape,
                    int64_t requests, uint64_t seed,
                    uint64_t first_request_id);

struct RungResult {
  double rps = 0.0;
  bool pass = false;
  double p99_ms = 0.0;
  double throughput_rps = 0.0;
  double late_p99_ms = 0.0;
  double backlog_growth_ms = 0.0;
  double steal_share = 0.0;  // of the machine's CPU time, during the probe
  int attempts = 1;
};

struct KneeResult {
  // False when the top rung passes (the ladder does not reach the knee)
  // or when the bottom rung fails (the knee is below the ladder).
  bool found = false;
  RungResult knee;
  std::vector<RungResult> probes;
};

// base, base*ratio, ... up to and including the first rung >= top.
std::vector<double> LadderRungs(double base, double top, double ratio);

// Bisection over a fixed ladder, assuming a rung passes iff every lower
// one does: the top rung is probed first, and a passing top is reported
// as "knee not found", never as a rate.
KneeResult FindKnee(const std::vector<double>& rungs,
                    const std::function<RungResult(double)>& probe);

// One ladder probe: an open-loop phase at `rps`, judged against the p99
// limit (failures count as missing it), zero failures, and no growing
// backlog. The phase stops sending once a request starts 4x the limit
// late: the rung has failed by then.
RungResult ProbeRung(privrec::serve::ServeRuntime* runtime,
                     ResponseChecker* checker, const LoadShape& shape,
                     PhaseOptions options, double limit_ms);

// The measured part of a run, spread over its length: `rounds` rounds,
// each `windows` open-loop windows at the nominal rate followed by one
// bisection of the rate ladder. A few noisy seconds of the machine then
// move one window or one knee, and the reported figures are medians
// across them.
//
// On a virtual machine on a busy host, waking a halted vCPU can take
// milliseconds, which shows as steal, and a request that fans out over
// every CPU slows down several times over. The steal column of /proc/stat
// is read around every window and probe. A window or probe is quiet when
// at most quiet_steal_share of the machine's CPU time was stolen during it.
//   - The latency figures come from the quiet windows, or from the
//     quietest ones up to half the planned windows when fewer were quiet.
//   - While fewer than half the planned windows were quiet, more windows
//     run, for up to extra_window_s.
//   - A ladder probe that fails and was not quiet runs once more.
struct MeasurePlan {
  double nominal_rps = 0.0;
  int threads = 4;
  int rounds = 3;
  int windows = 3;  // nominal windows per round
  double window_s = 1.0;
  double quiet_steal_share = 0.01;
  double extra_window_s = 0.0;
  std::vector<double> rungs;
  double limit_ms = 50.0;
  double probe_s = 0.8;
  uint64_t seed = 1;
  // When enabled (a traced run), every second window runs with the
  // program tracer on and per-request spans recorded here; the ladder
  // never does.
  SpanLog* spans = nullptr;
};

struct Measurement {
  PhaseResult nominal;  // the reported windows, pooled
  // p50 of every traced and every untraced window of a traced run.
  std::vector<double> traced_p50;
  std::vector<double> untraced_p50;
  // Per reported window.
  std::vector<double> window_p50;
  std::vector<double> window_p90;
  std::vector<double> window_p99;
  int64_t min_window_sent = 0;  // fewest requests in a reported window
  std::vector<KneeResult> knees;  // one per round
  std::vector<double> ladder_steal_shares;  // per round
  // The round whose knee is the median; valid when every round found one.
  bool knee_found = false;
  RungResult knee;
  // Every window run, reported or not.
  PhaseResult all_windows;
  // Per window run: [round, p50, p90, p99, steal share, reported].
  std::vector<std::vector<double>> windows_run;
};

// Probe length that fits the ladder searches into what `seconds` leaves
// after the plan's nominal windows (about eight probes per search), and
// never under half a second.
double LadderProbeSeconds(const MeasurePlan& plan, double seconds);

// CPU time the hypervisor has taken from the machine's CPUs (the steal
// column of /proc/stat), or -1 where that is not available.
double StealSeconds();

// The share of the machine's CPU time stolen since `steal0` (a
// StealSeconds() reading taken at `t0`); 0 where steal is not available.
double StealShareSince(double steal0, Clock::time_point t0);

// Where in a round Measure() calls its hook. Rounds past the planned ones
// run one window each and no bisection.
enum class Stage {
  kRoundBegin,   // before the round's first window
  kWindowBegin,  // just before each window sends its first request
  kWindowsEnd,   // after the round's windows, before its bisection
};

Measurement Measure(privrec::serve::ServeRuntime* runtime,
                    ResponseChecker* checker, const LoadShape& shape,
                    const MeasurePlan& plan,
                    const std::function<void(int round, Stage stage)>& hook);

// Every round's search, for the context block: the knee and each probe as
// [rps, pass, p99_ms, throughput_rps, steal_share, attempts].
std::string KneesJson(const std::vector<KneeResult>& knees);

}  // namespace perfbench

#endif  // PERFBENCH_LOAD_H_
