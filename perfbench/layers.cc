#include <sys/resource.h>

#include <algorithm>
#include <chrono>

#include "artifact/reconstruct.h"
#include "check.h"
#include "common/parallel.h"
#include "core/recommendation.h"
#include "kernels/accumulate.h"
#include "obs/export.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/telemetry.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

using privrec::graph::NodeId;

KernelReplay ReplayKernels(const privrec::serving::ServingEngine& engine,
                           const std::vector<privrec::serve::ServeRequest>&
                               requests,
                           int64_t max_users) {
  const privrec::serving::ReleaseView release = engine.release_view();
  const auto num_clusters = static_cast<size_t>(release.num_clusters);
  const auto num_items = static_cast<size_t>(release.num_items);
  std::vector<double> sim_sum(num_clusters, 0.0);
  std::vector<int64_t> touched;
  std::vector<double> utilities(num_items);
  std::vector<double> scales;
  std::vector<const double*> rows;
  std::vector<const float*> rows_f32;
  std::vector<double> gather, accumulate, select;
  double rows_total = 0.0;

  KernelReplay replay;
  std::vector<NodeId> users;
  std::vector<int64_t> depths;
  std::vector<privrec::core::RecommendationList> lists;
  for (const auto& request : requests) {
    for (NodeId u : request.users) {
      if (replay.users >= max_users) break;
      Clock::time_point t0 = Clock::now();
      touched.clear();
      for (const auto& entry : engine.WorkloadRow(u)) {
        const int64_t c = release.cluster_of[entry.user];
        if (sim_sum[static_cast<size_t>(c)] == 0.0) touched.push_back(c);
        sim_sum[static_cast<size_t>(c)] += entry.score;
      }
      scales.clear();
      rows.clear();
      rows_f32.clear();
      for (int64_t c : touched) {
        scales.push_back(sim_sum[static_cast<size_t>(c)]);
        if (release.HasF32()) {
          rows_f32.push_back(release.RowF32(c));
        } else {
          rows.push_back(release.Row(c));
        }
        sim_sum[static_cast<size_t>(c)] = 0.0;
      }
      Clock::time_point t1 = Clock::now();
      if (touched.empty()) continue;  // isolated: served the fallback row
      std::fill(utilities.begin(), utilities.end(), 0.0);
      const auto n = static_cast<int64_t>(scales.size());
      if (release.HasF32()) {
        privrec::kernels::AccumulateRowsF32(rows_f32.data(), scales.data(), n,
                                            release.num_items,
                                            utilities.data());
      } else {
        privrec::kernels::AccumulateRows(rows.data(), scales.data(), n,
                                         release.num_items, utilities.data());
      }
      Clock::time_point t2 = Clock::now();
      privrec::core::RecommendationList list =
          privrec::core::TopNFromDense(utilities, request.top_n);
      Clock::time_point t3 = Clock::now();
      gather.push_back(1000.0 * MsBetween(t0, t1));
      accumulate.push_back(1000.0 * MsBetween(t1, t2));
      select.push_back(1000.0 * MsBetween(t2, t3));
      rows_total += static_cast<double>(touched.size());
      ++replay.users;
      users.push_back(u);
      depths.push_back(request.top_n);
      lists.push_back(std::move(list));
    }
  }
  replay.gather_us = Median(gather);
  replay.accumulate_us = Median(accumulate);
  replay.select_us = Median(select);
  replay.rows_per_user =
      replay.users > 0 ? rows_total / static_cast<double>(replay.users) : 0;

  // The replay and the serving path must both give the reference answer,
  // which shares neither their kernels nor their top-N selection.
  const std::vector<double> global = ReferenceGlobalAverage(engine);
  for (size_t k = 0; k < users.size() && replay.identical; ++k) {
    const privrec::core::RecommendationList reference =
        ReferenceTopN(engine, global, users[k], depths[k]);
    std::vector<privrec::core::RecommendationList> served;
    std::vector<privrec::core::DegradationInfo> degradation;
    auto reconstructed = privrec::serving::ReconstructTopN(
        release, [&](NodeId u) { return engine.WorkloadRow(u); },
        [&]() -> const std::vector<double>& {
          return engine.global_average();
        },
        {users[k]}, depths[k], &served, &degradation);
    replay.identical = lists[k] == reference && reconstructed.ok() &&
                       served.size() == 1 && served[0] == reference;
  }
  return replay;
}

double MedianOpenMs(const std::string& path, int reps) {
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    Clock::time_point start = Clock::now();
    auto engine = privrec::serving::ServingEngine::Load(path);
    if (!engine.ok()) return std::nan("");
    samples.push_back(MsBetween(start, Clock::now()));
  }
  return Median(samples);
}

void ReleaseBytes(const privrec::serving::ServingEngine& engine,
                  double* table_bytes, double* workload_bytes) {
  *table_bytes = static_cast<double>(engine.num_clusters()) *
                 static_cast<double>(engine.num_items()) * sizeof(double);
  double entries = 0.0;
  for (NodeId u = 0; u < engine.num_users(); ++u) {
    entries += static_cast<double>(engine.WorkloadRow(u).size());
  }
  *workload_bytes = entries * sizeof(privrec::serving::WorkloadEntry);
}

void ReportChecks(ResponseChecker* checker, Report* report) {
  checker->Finish();
  report->attempted = checker->checked();
  report->failed = checker->failures();
  if (report->failed > 0) {
    report->Fail(std::to_string(report->failed) +
                 " responses failed the oracle check; first: " +
                 checker->first_failure());
  }
  report->E2e("success_rate",
              report->attempted > 0
                  ? static_cast<double>(report->attempted - report->failed) /
                        static_cast<double>(report->attempted)
                  : 0.0,
              "ratio");
}

void ReportServing(const Measurement& m, const MeasurePlan& plan,
                   const PhaseResult& idle, const KernelReplay& kernels,
                   int64_t pooled_runs, int64_t serial_runs,
                   const privrec::serve::ServeRuntime& runtime, bool trace,
                   Report* report) {
  using privrec::obs::JsonNumber;
  if (!m.knee_found) {
    report->Fail("knee not found in every round: the top rung passes or "
                 "the bottom rung fails");
  }
  report->E2e("latency_p50_ms", Median(m.window_p50), "ms");
  report->E2e("latency_p90_ms", Median(m.window_p90), "ms");
  if (m.knee_found) {
    report->E2e("max_rate_rps", m.knee.throughput_rps, "1/s");
  }

  report->Layer("kernels.gather_us", kernels.gather_us, "us");
  report->Layer("kernels.accumulate_us", kernels.accumulate_us, "us");
  report->Layer("kernels.select_us", kernels.select_us, "us");
  report->Layer("kernels.rows_per_user", kernels.rows_per_user, "count");
  report->Layer("common.pool_runs_pooled", static_cast<double>(pooled_runs),
                "count");
  report->Layer("common.pool_runs_serial", static_cast<double>(serial_runs),
                "count");
  report->Layer("serve.contention_ratio",
                trace ? Quantile(m.nominal.handle_ms, 0.5) /
                            Quantile(idle.handle_ms, 0.5)
                      : 0.0,
                "ratio");
  report->Layer("serve.latency_p99_ms", Median(m.window_p99), "ms");
  report->Layer("serve.handle_p50_ms", Quantile(m.nominal.handle_ms, 0.5),
                "ms");
  report->Layer("serve.handle_p99_ms", Quantile(m.nominal.handle_ms, 0.99),
                "ms");
  report->Layer("serve.admit_wait_ms", MeanAdmitWaitMs(runtime), "ms");
  report->Layer("serve.shed",
                static_cast<double>(CounterValue("privrec.serve.shed_total")),
                "count");
  report->Layer("serve.expired",
                static_cast<double>(
                    CounterValue("privrec.serve.deadline_exceeded_total")),
                "count");
  report->Layer("loadgen.late_p99_ms", m.knee.late_p99_ms, "ms");
  report->Layer("loadgen.backlog_growth_ms", m.knee.backlog_growth_ms, "ms");
  // Medians over every window, so that both sides include their share of
  // disturbed ones.
  const bool compared = !m.traced_p50.empty() && !m.untraced_p50.empty();
  report->Layer("obs.trace_overhead_pct",
                compared ? 100.0 *
                               (Median(m.traced_p50) - Median(m.untraced_p50)) /
                               Median(m.untraced_p50)
                         : 0.0,
                "%");

  auto json_list = [](const std::vector<double>& values) {
    std::string out = "[";
    for (double v : values) out += (out.size() > 1 ? ", " : "") + JsonNumber(v);
    return out + "]";
  };
  report->Context("pool_threads", std::to_string(privrec::GlobalThreadCount()));
  report->Context("request_threads", std::to_string(plan.threads));
  report->Context("nominal_rps", JsonNumber(plan.nominal_rps));
  report->Context("p99_limit_ms", JsonNumber(plan.limit_ms));
  report->Context("latency_samples", std::to_string(m.nominal.sent));
  report->Context("latency_windows", std::to_string(m.window_p99.size()));
  report->Context(
      "latency_beyond_per_window",
      "{\"p50\": " + std::to_string(SamplesBeyond(m.min_window_sent, 0.5)) +
          ", \"p90\": " +
          std::to_string(SamplesBeyond(m.min_window_sent, 0.9)) +
          ", \"p99\": " +
          std::to_string(SamplesBeyond(m.min_window_sent, 0.99)) + "}");
  report->Context("latency_p99_pooled_ms",
                  JsonNumber(Quantile(m.nominal.latency_ms, 0.99)));
  report->Context("ladder_steal_share", json_list(m.ladder_steal_shares));
  std::string windows = "[";
  for (const auto& w : m.windows_run) {
    windows += (windows.size() > 1 ? ", " : "") + json_list(w);
  }
  // [round, p50, p90, p99, steal share, reported] per window run.
  report->Context("windows_run", windows + "]");
  report->Context("ladder_top_rps", JsonNumber(plan.rungs.back()));
  report->Context("ladder", KneesJson(m.knees));
}

void WriteTrace(SpanLog* spans, const std::string& path, Report* report) {
  std::vector<privrec::obs::SpanRecord> all =
      privrec::obs::Tracer::Instance().Snapshot();
  for (auto& span : spans->Take()) all.push_back(std::move(span));
  std::string error;
  if (!privrec::obs::WriteTextFile(
          path, privrec::obs::SpansToChromeTrace(all), &error)) {
    report->Fail("trace write: " + error);
  }
}

int64_t CounterValue(const char* name) {
  return privrec::obs::GetCounter(name).value();
}

double MeanAdmitWaitMs(const privrec::serve::ServeRuntime& runtime) {
  if (runtime.telemetry() == nullptr) return 0.0;
  std::vector<double> waits;
  for (const auto& event : runtime.telemetry()->sampled_events()) {
    waits.push_back(static_cast<double>(event.queue_wait_ms));
  }
  return waits.empty() ? 0.0 : Mean(waits);
}

privrec::serve::ServeRequest FirstRequest(int64_t num_users,
                                          uint64_t request_id) {
  privrec::serve::ServeRequest request;
  for (NodeId u = 0; u < std::min<int64_t>(4, num_users); ++u) {
    request.users.push_back(u);
  }
  request.top_n = 50;
  request.request_id = request_id;
  return request;
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
