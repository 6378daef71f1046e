#include "load.h"

#include <sys/prctl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <fstream>
#include <limits>
#include <string>
#include <thread>

#include "common/random.h"
#include "loadgen/schedule.h"
#include "obs/export.h"
#include "obs/trace.h"
#include "stats.h"

namespace perfbench {

namespace {

using privrec::serve::ServeRequest;
using privrec::serve::ServeResponse;

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

std::vector<ServeRequest> ScheduleRequests(const LoadShape& shape,
                                           double rps, double seconds,
                                           uint64_t seed,
                                           uint64_t first_request_id) {
  privrec::loadgen::LoadSpec spec;
  spec.rps = rps;
  spec.duration_ms = std::max<int64_t>(1, std::llround(seconds * 1000.0));
  spec.seed = seed;
  spec.num_users = shape.num_users;
  spec.zipf_s = shape.zipf_s;
  spec.users_per_request = shape.users_per_request;
  spec.top_n = 50;
  spec.burst_factor = 1.0;
  spec.burst_period_ms = 0;
  std::vector<ServeRequest> requests;
  for (auto& scheduled : privrec::loadgen::BuildSchedule(spec)) {
    ServeRequest request = std::move(scheduled.request);
    const auto bucket = static_cast<size_t>(
        (request.top_n - 1) * static_cast<int64_t>(shape.depths.size()) /
        50);
    request.top_n =
        shape.depths[std::min(bucket, shape.depths.size() - 1)];
    request.request_id = first_request_id + requests.size();
    requests.push_back(std::move(request));
  }
  return requests;
}

namespace {

// Poisson send offsets (seconds from phase start) for n requests.
std::vector<double> PoissonSends(size_t n, double rps, uint64_t seed) {
  privrec::Rng rng(privrec::SplitMix64(seed ^ 0x5e9d5e9dull));
  std::vector<double> sends(n);
  double t = 0.0;
  for (size_t i = 0; i < n; ++i) {
    sends[i] = t;
    t += -std::log1p(-rng.UniformDouble()) / rps;
  }
  return sends;
}

void Summarize(PhaseResult& r, double first_send_s) {
  r.sent = static_cast<int64_t>(r.latency_ms.size());
  r.failed = r.sent - r.ok;
  double last_done = first_send_s;
  for (double d : r.done_s) last_done = std::max(last_done, d);
  r.span_s = last_done - first_send_s;
  r.throughput_rps =
      r.span_s > 0 ? static_cast<double>(r.ok) / r.span_s : 0.0;
  const size_t fifth = r.late_ms.size() / 5;
  if (fifth > 0) {
    double head = 0.0, tail = 0.0;
    for (size_t i = 0; i < fifth; ++i) {
      head += r.late_ms[i];
      tail += r.late_ms[r.late_ms.size() - 1 - i];
    }
    r.backlog_growth_ms = (tail - head) / static_cast<double>(fifth);
  }
}

}  // namespace

PhaseResult RunPhase(privrec::serve::ServeRuntime* runtime,
                     ResponseChecker* checker, const LoadShape& shape,
                     const PhaseOptions& options) {
  const std::vector<ServeRequest> requests =
      ScheduleRequests(shape, options.rps, options.seconds, options.seed,
                       options.first_request_id);
  const std::vector<double> sends =
      PoissonSends(requests.size(), options.rps, options.seed);
  const size_t n = requests.size();

  PhaseResult r;
  r.scheduled = static_cast<int64_t>(n);
  std::vector<double> latency(n), late(n), handle(n), done(n);
  std::vector<int64_t> epoch(n);
  std::vector<char> ok(n, 0), sent(n, 0);
  std::atomic<size_t> next{0};
  std::atomic<bool> stop{false};
  std::vector<std::vector<privrec::obs::SpanRecord>> spans(
      static_cast<size_t>(options.threads));

  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  auto worker = [&](int w) {
    // Wake-ups default to 50 us of slack; sends are scheduled tighter.
    prctl(PR_SET_TIMERSLACK, 5000UL, 0, 0, 0);
    for (;;) {
      const size_t i = next.fetch_add(1);
      if (i >= n || stop.load(std::memory_order_relaxed)) break;
      const Clock::time_point due =
          start + std::chrono::duration_cast<Clock::duration>(
                      std::chrono::duration<double>(sends[i]));
      // Sleep to just short of the send, then spin: waking from a sleep
      // can take hundreds of microseconds on a virtual machine, and that
      // delay is the generator's, not the program's.
      std::this_thread::sleep_until(due - std::chrono::microseconds(200));
      while (Clock::now() < due) {
      }
      const Clock::time_point begin = Clock::now();
      ServeResponse response = runtime->Handle(requests[i]);
      const Clock::time_point end = Clock::now();
      const bool good = checker->Record(requests[i], response) !=
                        ResponseChecker::Verdict::kFailure;
      sent[i] = 1;
      ok[i] = good ? 1 : 0;
      late[i] = MsBetween(due, begin);
      handle[i] = MsBetween(begin, end);
      latency[i] = good ? MsBetween(due, end) : kInf;
      done[i] = SecondsOf(end);
      epoch[i] = response.epoch;
      if (options.spans != nullptr) {
        const std::string id = std::to_string(requests[i].request_id);
        auto& local = spans[static_cast<size_t>(w)];
        local.push_back(options.spans->Make(
            "loadgen.request", due, end, 100 + w, 0,
            {{"request_id", id}, {"epoch", std::to_string(response.epoch)}}));
        local.push_back(options.spans->Make("serve.handle", begin, end,
                                            100 + w, 1, {{"request_id", id}}));
      }
      if (options.abort_late_ms > 0 && late[i] > options.abort_late_ms) {
        stop.store(true, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> threads;
  for (int w = 0; w < options.threads; ++w) threads.emplace_back(worker, w);
  for (std::thread& t : threads) t.join();

  r.aborted = stop.load();
  for (size_t i = 0; i < n; ++i) {
    if (!sent[i]) continue;
    r.ok += ok[i];
    r.latency_ms.push_back(latency[i]);
    r.late_ms.push_back(late[i]);
    r.handle_ms.push_back(handle[i]);
    r.epoch.push_back(epoch[i]);
    r.done_s.push_back(done[i]);
  }
  if (options.spans != nullptr) {
    for (auto& local : spans) options.spans->Append(std::move(local));
  }
  Summarize(r, SecondsOf(start));
  return r;
}

PhaseResult RunIdle(privrec::serve::ServeRuntime* runtime,
                    ResponseChecker* checker, const LoadShape& shape,
                    int64_t requests, uint64_t seed,
                    uint64_t first_request_id) {
  // Schedule shapes for `requests` requests at a nominal 1000 rps; the
  // loop ignores the send times and sends back to back.
  const std::vector<ServeRequest> mix =
      ScheduleRequests(shape, 1000.0, static_cast<double>(requests) / 1000.0,
                   seed, first_request_id);
  PhaseResult r;
  r.scheduled = static_cast<int64_t>(mix.size());
  const Clock::time_point start = Clock::now();
  for (const ServeRequest& request : mix) {
    const Clock::time_point begin = Clock::now();
    ServeResponse response = runtime->Handle(request);
    const Clock::time_point end = Clock::now();
    const bool good = checker->Record(request, response) !=
                      ResponseChecker::Verdict::kFailure;
    r.ok += good ? 1 : 0;
    r.latency_ms.push_back(good ? MsBetween(begin, end) : kInf);
    r.late_ms.push_back(0.0);
    r.handle_ms.push_back(MsBetween(begin, end));
    r.epoch.push_back(response.epoch);
    r.done_s.push_back(SecondsOf(end));
  }
  Summarize(r, SecondsOf(start));
  return r;
}

std::vector<double> LadderRungs(double base, double top, double ratio) {
  std::vector<double> rungs;
  for (double rate = base;; rate *= ratio) {
    rungs.push_back(rate);
    if (rate >= top) break;
  }
  return rungs;
}

KneeResult FindKnee(const std::vector<double>& rungs,
                    const std::function<RungResult(double)>& probe) {
  KneeResult result;
  if (rungs.empty()) return result;
  RungResult top = probe(rungs.back());
  result.probes.push_back(top);
  if (top.pass) return result;  // knee not found: the ladder is too short
  int64_t lo = -1;              // highest rung known to pass
  int64_t hi = static_cast<int64_t>(rungs.size()) - 1;  // lowest failing
  while (hi - lo > 1) {
    const int64_t mid = lo + (hi - lo + 1) / 2;
    RungResult rung = probe(rungs[static_cast<size_t>(mid)]);
    result.probes.push_back(rung);
    if (rung.pass) {
      lo = mid;
      result.knee = rung;
    } else {
      hi = mid;
    }
  }
  result.found = lo >= 0;
  return result;
}

RungResult ProbeRung(privrec::serve::ServeRuntime* runtime,
                     ResponseChecker* checker, const LoadShape& shape,
                     PhaseOptions options, double limit_ms) {
  options.abort_late_ms = 4.0 * limit_ms;
  PhaseResult phase = RunPhase(runtime, checker, shape, options);
  RungResult rung;
  rung.rps = options.rps;
  rung.p99_ms = Quantile(phase.latency_ms, 0.99);
  rung.late_p99_ms = Quantile(phase.late_ms, 0.99);
  rung.throughput_rps = phase.throughput_rps;
  rung.backlog_growth_ms = phase.backlog_growth_ms;
  rung.pass = !phase.aborted && phase.failed == 0 && phase.sent > 0 &&
              rung.p99_ms <= limit_ms &&
              rung.backlog_growth_ms <= 0.25 * limit_ms;
  // Let an overloaded probe's queue drain before the next one.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  return rung;
}

namespace {

void AppendPhase(PhaseResult& into, const PhaseResult& from) {
  auto cat = [](auto& a, const auto& b) {
    a.insert(a.end(), b.begin(), b.end());
  };
  into.scheduled += from.scheduled;
  into.sent += from.sent;
  into.ok += from.ok;
  into.failed += from.failed;
  cat(into.latency_ms, from.latency_ms);
  cat(into.late_ms, from.late_ms);
  cat(into.handle_ms, from.handle_ms);
  cat(into.epoch, from.epoch);
  cat(into.done_s, from.done_s);
}

}  // namespace

double LadderProbeSeconds(const MeasurePlan& plan, double seconds) {
  const double nominal = plan.rounds * plan.windows * plan.window_s;
  return std::max(0.5, (seconds - nominal) / (plan.rounds * 8));
}

double StealSeconds() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  long long ticks[8] = {};
  if (!(in >> cpu) || cpu != "cpu") return -1.0;
  for (long long& t : ticks) {
    if (!(in >> t)) return -1.0;
  }
  return static_cast<double>(ticks[7]) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double StealShareSince(double steal0, Clock::time_point t0) {
  const double steal = StealSeconds();
  const double seconds = MsBetween(t0, Clock::now()) / 1000.0;
  if (steal0 < 0 || steal < 0 || seconds <= 0) return 0.0;
  const double cpus =
      static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  return (steal - steal0) / (cpus * seconds);
}

Measurement Measure(privrec::serve::ServeRuntime* runtime,
                    ResponseChecker* checker, const LoadShape& shape,
                    const MeasurePlan& plan,
                    const std::function<void(int round, Stage stage)>& hook) {
  struct Window {
    PhaseResult phase;
    bool traced = false;
    int round = 0;
    double steal_share = 0.0;
  };
  privrec::obs::Tracer& tracer = privrec::obs::Tracer::Instance();
  Measurement m;
  std::vector<Window> windows;
  uint64_t phase_index = 0;
  auto run_windows = [&](int round, int count) {
    hook(round, Stage::kRoundBegin);
    for (int w = 0; w < count; ++w) {
      Window window;
      window.round = round;
      window.traced = plan.spans != nullptr && plan.spans->enabled() &&
                      windows.size() % 2 == 1;
      PhaseOptions phase;
      phase.rps = plan.nominal_rps;
      phase.seconds = plan.window_s;
      phase.threads = plan.threads;
      phase.seed = privrec::SplitMix64(plan.seed + ++phase_index);
      phase.first_request_id = 10000000 * phase_index;
      phase.spans = window.traced ? plan.spans : nullptr;
      hook(round, Stage::kWindowBegin);
      tracer.SetEnabled(window.traced);
      const double steal0 = StealSeconds();
      const Clock::time_point t0 = Clock::now();
      window.phase = RunPhase(runtime, checker, shape, phase);
      window.steal_share = StealShareSince(steal0, t0);
      tracer.SetEnabled(false);
      windows.push_back(std::move(window));
    }
    hook(round, Stage::kWindowsEnd);
  };
  // A probe that fails while the hypervisor steals is run once more.
  auto probe = [&](double rps) {
    RungResult rung;
    for (int attempt = 0; attempt < 2; ++attempt) {
      PhaseOptions phase;
      phase.rps = rps;
      phase.seconds = plan.probe_s;
      phase.threads = plan.threads;
      phase.seed = privrec::SplitMix64(plan.seed + ++phase_index);
      phase.first_request_id = 10000000 * phase_index;
      const double steal0 = StealSeconds();
      const Clock::time_point t0 = Clock::now();
      rung = ProbeRung(runtime, checker, shape, phase, plan.limit_ms);
      rung.steal_share = StealShareSince(steal0, t0);
      rung.attempts = attempt + 1;
      if (rung.pass || rung.steal_share <= plan.quiet_steal_share) break;
    }
    return rung;
  };

  for (int round = 0; round < plan.rounds; ++round) {
    run_windows(round, plan.windows);
    const double steal0 = StealSeconds();
    const Clock::time_point t0 = Clock::now();
    m.knees.push_back(FindKnee(plan.rungs, probe));
    m.ladder_steal_shares.push_back(StealShareSince(steal0, t0));
  }
  const auto half = static_cast<size_t>(plan.rounds * plan.windows + 1) / 2;
  auto quiet_windows = [&] {
    return static_cast<size_t>(
        std::count_if(windows.begin(), windows.end(), [&](const Window& w) {
          return w.steal_share <= plan.quiet_steal_share;
        }));
  };
  const Clock::time_point planned_end = Clock::now();
  for (int round = plan.rounds;
       quiet_windows() < half &&
       MsBetween(planned_end, Clock::now()) < 1000.0 * plan.extra_window_s;
       ++round) {
    run_windows(round, 1);
  }

  // Every quiet window, or the quietest windows up to half the planned
  // ones when fewer were quiet: fewest stolen seconds first, ties in the
  // order they ran.
  std::vector<const Window*> quiet;
  for (const Window& w : windows) quiet.push_back(&w);
  std::stable_sort(quiet.begin(), quiet.end(), [](auto* a, auto* b) {
    return a->steal_share < b->steal_share;
  });
  quiet.resize(std::min(quiet.size(), std::max(half, quiet_windows())));
  m.min_window_sent = std::numeric_limits<int64_t>::max();
  for (const Window* w : quiet) {
    m.window_p50.push_back(Quantile(w->phase.latency_ms, 0.50));
    m.window_p90.push_back(Quantile(w->phase.latency_ms, 0.90));
    m.window_p99.push_back(Quantile(w->phase.latency_ms, 0.99));
    m.min_window_sent = std::min(m.min_window_sent, w->phase.sent);
    AppendPhase(m.nominal, w->phase);
  }
  // Every response served, reported or not, went through the checker.
  for (const Window& w : windows) {
    AppendPhase(m.all_windows, w.phase);
    if (plan.spans != nullptr && plan.spans->enabled()) {
      (w.traced ? m.traced_p50 : m.untraced_p50)
          .push_back(Quantile(w.phase.latency_ms, 0.5));
    }
    const bool reported =
        std::find(quiet.begin(), quiet.end(), &w) != quiet.end();
    m.windows_run.push_back(
        {static_cast<double>(w.round), Quantile(w.phase.latency_ms, 0.5),
         Quantile(w.phase.latency_ms, 0.9), Quantile(w.phase.latency_ms, 0.99),
         w.steal_share, reported ? 1.0 : 0.0});
  }

  std::vector<const KneeResult*> found;
  for (const KneeResult& knee : m.knees) {
    if (knee.found) found.push_back(&knee);
  }
  m.knee_found = !found.empty() && found.size() == m.knees.size();
  if (m.knee_found) {
    std::sort(found.begin(), found.end(), [](auto* a, auto* b) {
      return a->knee.throughput_rps < b->knee.throughput_rps;
    });
    m.knee = found[found.size() / 2]->knee;
  }
  return m;
}

std::string KneesJson(const std::vector<KneeResult>& knees) {
  using privrec::obs::JsonNumber;
  std::string out = "[";
  for (const KneeResult& knee : knees) {
    if (out.size() > 1) out += ", ";
    out += std::string("{\"found\": ") + (knee.found ? "true" : "false") +
           ", \"knee_rps\": " + JsonNumber(knee.knee.throughput_rps) +
           ", \"probes\": [";
    for (size_t i = 0; i < knee.probes.size(); ++i) {
      const RungResult& p = knee.probes[i];
      out += (i > 0 ? ", [" : "[") + JsonNumber(p.rps) + ", " +
             (p.pass ? "true" : "false") + ", " + JsonNumber(p.p99_ms) +
             ", " + JsonNumber(p.throughput_rps) + ", " +
             JsonNumber(p.steal_share) + ", " + std::to_string(p.attempts) +
             "]";
    }
    out += "]}";
  }
  return out + "]";
}

}  // namespace perfbench
