// Shared command-line conventions for every bench and example driver:
// the --threads flag (deterministic parallel layer) and the observability
// flags (--metrics-json, --trace-out, --metrics-stderr). One helper so the
// parsing is not copy-pasted per binary and unknown-flag typo suggestions
// (common/flags.h) automatically cover all of them.

#ifndef PRIVREC_COMMON_DRIVER_FLAGS_H_
#define PRIVREC_COMMON_DRIVER_FLAGS_H_

#include <cstdint>
#include <string>

#include "common/flags.h"

namespace privrec {

// Consumes the --threads flag (default: hardware concurrency, or the
// PRIVREC_THREADS environment variable if set) and installs it as the
// process-wide thread count for the deterministic parallel layer. Results
// are bit-identical for every value — the flag trades wall-clock only.
int64_t ApplyThreadsFlag(FlagParser& flags);

// RAII export session for the observability flags:
//   --metrics-json=PATH   write a MetricsToJson snapshot on exit
//   --trace-out=PATH      enable the span tracer, write a Chrome
//                         trace_event file on exit (chrome://tracing,
//                         Perfetto)
//   --metrics-stderr=BOOL print the metrics table to stderr on exit
// FromFlags() consumes the flags (so Validate() knows them) and enables
// tracing immediately when --trace-out is set; Finish() — called by the
// destructor at the latest — takes the snapshots and writes the requested
// exports. Export failures print to stderr and never fail the driver.
class ObsSession {
 public:
  static ObsSession FromFlags(FlagParser& flags);

  ObsSession() = default;
  ~ObsSession() { Finish(); }

  ObsSession(ObsSession&& other) noexcept { *this = std::move(other); }
  ObsSession& operator=(ObsSession&& other) noexcept;
  ObsSession(const ObsSession&) = delete;
  ObsSession& operator=(const ObsSession&) = delete;

  // Idempotent: exports once, then becomes a no-op.
  void Finish();

 private:
  std::string metrics_json_path_;
  std::string trace_path_;
  bool metrics_stderr_ = false;
  bool finished_ = true;  // armed by FromFlags
};

// The standard driver prologue: --threads plus the obs flags.
inline ObsSession ApplyDriverFlags(FlagParser& flags) {
  ApplyThreadsFlag(flags);
  return ObsSession::FromFlags(flags);
}

// Serving-runtime knobs, shared by every driver that embeds a
// serve::ServeRuntime. Plain integers here (common must not depend on
// serve); drivers copy them into ServeRuntimeOptions. Consuming them
// through the parser also teaches Validate()'s typo suggestions the
// --serve-* vocabulary.
struct ServeFlagSettings {
  int64_t deadline_ms = 1000;       // --serve-deadline-ms
  int64_t queue_depth = 8;          // --serve-queue-depth
  int64_t max_concurrency = 4;      // --serve-max-concurrency
  int64_t breaker_failures = 3;     // --serve-breaker-failures
  int64_t breaker_cooldown_ms = 1000;  // --serve-breaker-cooldown-ms
  int64_t reload_period = 0;        // --serve-reload-period (0 = off)
};

ServeFlagSettings ApplyServeFlags(FlagParser& flags);

// Open-loop load-harness knobs (bench_serve_load and any driver that
// embeds the loadgen harness). Plain scalars for the same layering reason
// as ServeFlagSettings: common must not depend on loadgen, so drivers
// copy these into loadgen::LoadSpec / SwapStormSpec / SloBudget.
// Negative SLO budgets mean "not enforced".
struct LoadFlagSettings {
  double rps = 2000.0;              // --load-rps
  int64_t duration_ms = 2000;       // --load-duration-ms
  int64_t seed = 1;                 // --load-seed
  double zipf_s = 1.1;              // --load-zipf-s
  int64_t users_per_request = 4;    // --load-users-per-request
  double burst_factor = 4.0;        // --load-burst-factor
  int64_t burst_period_ms = 500;    // --load-burst-period-ms
  int64_t burst_duration_ms = 50;   // --load-burst-duration-ms
  int64_t swap_period_ms = 0;       // --load-swap-period-ms (0 = no storm)
  bool swap_storm = false;          // --load-swap-storm (corrupt + faults)
  int64_t threads = 4;              // --load-threads (wall mode)
  bool wall = false;                // --load-wall (real threads + clock)
  double slo_p50_ms = -1.0;         // --load-slo-p50-ms
  double slo_p99_ms = -1.0;         // --load-slo-p99-ms
  double slo_p999_ms = -1.0;        // --load-slo-p999-ms
  double slo_shed_rate = -1.0;      // --load-slo-shed-rate
  double slo_rollback_rate = -1.0;  // --load-slo-rollback-rate
  std::string report = "BENCH_serve.json";  // --load-report ("" = none)
};

LoadFlagSettings ApplyLoadFlags(FlagParser& flags);

// Serving-telemetry knobs (wide-event sampling, rolling SLO windows,
// burn-rate alerting, statusz dumps) for drivers that attach a
// serve::ServeTelemetry sink. Plain scalars for the usual layering
// reason (common must not depend on serve); drivers copy them into
// serve::ServeTelemetryOptions / obs::WindowBudget. Negative window
// budgets mean "not enforced".
struct TelemetryFlagSettings {
  int64_t sample_every = 16;        // --telemetry-sample-every
  double slow_ms = 100.0;           // --telemetry-slow-ms
  int64_t window_ms = 250;          // --telemetry-window-ms
  int64_t burn_lookback = 8;        // --telemetry-burn-lookback
  double burn_threshold = 0.25;     // --telemetry-burn-threshold
  double window_p99_ms = -1.0;      // --telemetry-window-p99-ms
  double window_shed_rate = -1.0;   // --telemetry-window-shed-rate
  std::string jsonl;                // --telemetry-jsonl ("" = none)
  int64_t statusz_every = 0;        // --statusz-every (0 = off)
  std::string statusz_out;          // --statusz-out ("" = stderr)
};

TelemetryFlagSettings ApplyTelemetryFlags(FlagParser& flags);

// Streaming-pipeline knobs (WAL-journaled ingestion + re-publication
// scheduling) for drivers that embed a stream::StreamPipeline. Plain
// scalars for the usual layering reason (common must not depend on
// stream); drivers copy these into StreamPipelineOptions.
struct StreamFlagSettings {
  std::string wal;                  // --stream-wal ("" = unjournaled)
  int64_t fsync_every = 1;          // --stream-fsync-every (0 = never)
  double drift_threshold = 0.05;    // --stream-drift-threshold (restart)
  double republish_drift = 0.05;    // --stream-republish-drift
  double republish_growth = 0.25;   // --stream-republish-growth
  int64_t republish_every = 0;      // --stream-republish-every (0 = off)
  int64_t min_deltas = 8;           // --stream-min-deltas
};

StreamFlagSettings ApplyStreamFlags(FlagParser& flags);

}  // namespace privrec

#endif  // PRIVREC_COMMON_DRIVER_FLAGS_H_
