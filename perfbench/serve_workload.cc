// serve-lastfm: one production-shaped sharded release of the Last.fm
// shape served by mmap under open-loop load, with quiet timed releases,
// slow hot swaps between good generations, and a rate ladder.

#include <algorithm>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "artifact/builder.h"
#include "artifact/shard_layout.h"
#include "check.h"
#include "common/random.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "load.h"
#include "obs/trace.h"
#include "serve/telemetry.h"
#include "similarity/common_neighbors.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace privrec;

constexpr int64_t kMainThread = 90;
constexpr int64_t kSwapThread = 91;

uint64_t GenerationSeed(uint64_t seed, int generation) {
  return SplitMix64(seed * 0x9e3779b97f4a7c15ull +
                    static_cast<uint64_t>(generation) + 1);
}

serving::ServeSpec Spec() {
  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEpsilon;
  return spec;
}

// Everything one set-up creates, in construction order: the builder
// points into the dataset, workload and partition; the runtime into the
// telemetry sink.
struct ServeStack {
  data::Dataset dataset;
  std::optional<similarity::SimilarityWorkload> workload;
  community::LouvainResult louvain;
  std::unique_ptr<artifact::ModelArtifactBuilder> builder;
  std::unique_ptr<serve::ServeTelemetry> telemetry;
  std::unique_ptr<serve::ServeRuntime> runtime;
  std::vector<std::string> generations;  // sharded manifests, gen 0 first
  double synth_ms = 0.0;
  double workload_ms = 0.0;
  double louvain_ms = 0.0;
  double build_ms = 0.0;
  double save_ms = 0.0;
  double open_ms = 0.0;
  double setup_s = 0.0;
};

// Noise publication for one generation (its own seed) and the sharded
// save: the offline half of a release.
Status BuildGeneration(ServeStack& stack, const ServeConfig& config,
                       const std::string& path, uint64_t seed,
                       SpanLog& spans, double* build_ms, double* save_ms) {
  const Clock::time_point t0 = Clock::now();
  artifact::BuildOptions options;
  options.epsilon = kEpsilon;
  options.seed = seed;
  options.include_reference_sections = false;
  auto model = stack.builder->Build(options);
  const Clock::time_point t1 = Clock::now();
  if (!model.ok()) return model.status();
  Status saved = serving::SaveShardedArtifact(*model, path,
                                              {.shards = config.shards});
  const Clock::time_point t2 = Clock::now();
  spans.Add("artifact.build", t0, t1, kMainThread, 1);
  spans.Add("artifact.save", t1, t2, kMainThread, 1);
  *build_ms = MsBetween(t0, t1);
  *save_ms = MsBetween(t1, t2);
  return saved;
}

// Synthesis, similarity workload, Louvain, build, save, open and the
// first request served; `start` is when the set-up began.
Result<std::unique_ptr<ServeStack>> SetUp(const ServeConfig& config,
                                          uint64_t seed,
                                          const std::string& dir,
                                          Clock::time_point start,
                                          SpanLog& spans,
                                          ResponseChecker* checker) {
  auto stack = std::make_unique<ServeStack>();
  const Clock::time_point t0 = Clock::now();
  data::SyntheticLastFmOptions synth;
  synth.seed = kDatasetSeed;
  stack->dataset = data::MakeSyntheticLastFm(synth);
  const Clock::time_point t1 = Clock::now();
  stack->workload.emplace(similarity::SimilarityWorkload::Compute(
      stack->dataset.social, similarity::CommonNeighbors()));
  const Clock::time_point t2 = Clock::now();
  community::LouvainOptions louvain;
  louvain.seed = kDatasetSeed;
  stack->louvain = community::RunLouvain(stack->dataset.social, louvain);
  const Clock::time_point t3 = Clock::now();
  spans.Add("data.synth", t0, t1, kMainThread, 1);
  spans.Add("similarity.workload", t1, t2, kMainThread, 1);
  spans.Add("community.louvain", t2, t3, kMainThread, 1);
  stack->synth_ms = MsBetween(t0, t1);
  stack->workload_ms = MsBetween(t1, t2);
  stack->louvain_ms = MsBetween(t2, t3);

  stack->builder = std::make_unique<artifact::ModelArtifactBuilder>(
      &stack->dataset.social, &stack->dataset.preferences);
  stack->builder->SetPartition(&stack->louvain.partition);
  stack->builder->SetWorkload(&*stack->workload);
  const std::string path = (fs::path(dir) / "gen0.pvram").string();
  Status built = BuildGeneration(*stack, config, path,
                                 GenerationSeed(seed, 0), spans,
                                 &stack->build_ms, &stack->save_ms);
  if (!built.ok()) return built;
  stack->generations.push_back(path);

  // The program's defaults throughout: production telemetry sampling,
  // admission limits and pool size.
  stack->telemetry = std::make_unique<serve::ServeTelemetry>();
  serve::ServeRuntimeOptions runtime_options;
  runtime_options.swap.spec = Spec();
  runtime_options.telemetry = stack->telemetry.get();
  stack->runtime = std::make_unique<serve::ServeRuntime>(runtime_options);
  const Clock::time_point t4 = Clock::now();
  Status activated = stack->runtime->Activate(path);
  const Clock::time_point t5 = Clock::now();
  if (!activated.ok()) return activated;
  const serve::ServeRequest first =
      FirstRequest(stack->dataset.social.num_nodes(), 1);
  const serve::ServeResponse response = stack->runtime->Handle(first);
  const Clock::time_point t6 = Clock::now();
  checker->Record(first, response);
  spans.Add("artifact.open", t4, t5, kMainThread, 1);
  spans.Add("serve.first_request", t5, t6, kMainThread, 1);
  spans.Add("setup", start, t6, kMainThread, 0);
  stack->open_ms = MsBetween(t4, t5);
  stack->setup_s = MsBetween(start, t6) / 1000.0;
  return stack;
}

// Hot swaps at a slow cadence while the load runs: generation k of the
// rotation every `period`, each Activate timed as a swap pause.
class SwapLoop {
 public:
  SwapLoop(serve::ServeRuntime* runtime, std::vector<std::string> rotation,
           double period_s, SpanLog* spans)
      : runtime_(runtime),
        rotation_(std::move(rotation)),
        period_(std::chrono::duration_cast<Clock::duration>(
            std::chrono::duration<double>(period_s))),
        spans_(spans),
        thread_([this] { Loop(); }) {}
  ~SwapLoop() { Stop(); }
  SwapLoop(const SwapLoop&) = delete;
  SwapLoop& operator=(const SwapLoop&) = delete;

  void Stop() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  const std::vector<double>& pauses_ms() const { return pauses_ms_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    std::unique_lock<std::mutex> lock(mu_);
    for (size_t k = 0; !rotation_.empty(); ++k) {
      if (cv_.wait_for(lock, period_, [this] { return stop_; })) return;
      lock.unlock();
      const Clock::time_point t0 = Clock::now();
      Status swapped = runtime_->Activate(rotation_[k % rotation_.size()]);
      const Clock::time_point t1 = Clock::now();
      spans_->Add("serve.swap", t0, t1, kSwapThread);
      lock.lock();
      pauses_ms_.push_back(MsBetween(t0, t1));
      if (!swapped.ok() && error_.empty()) error_ = swapped.ToString();
    }
  }

  serve::ServeRuntime* runtime_;
  const std::vector<std::string> rotation_;
  const Clock::duration period_;
  SpanLog* spans_;
  std::mutex mu_;  // guards stop_, pauses_ms_, error_
  std::condition_variable cv_;
  bool stop_ = false;
  std::vector<double> pauses_ms_;
  std::string error_;
  std::thread thread_;
};

}  // namespace

void RunServeWorkload(const ServeConfig& config, const RunOptions& options,
                      Report* report) {
  SpanLog spans(options.trace);
  obs::Tracer::Instance().SetEnabled(options.trace);
  ResponseChecker checker(Spec(), LoadShape{}.depths);

  // ---- Set-up, several times; the last one serves.
  std::vector<double> setup_s, synth_ms, workload_ms, louvain_ms, build_ms,
      save_ms, open_ms;
  std::unique_ptr<ServeStack> stack;
  std::string dir;
  for (int k = 0; k < config.setups; ++k) {
    stack.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = (fs::path(options.scratch_dir) / ("setup" + std::to_string(k)))
              .string();
    fs::create_directories(dir);
    const Clock::time_point start =
        k == 0 ? options.process_start : Clock::now();
    auto built = SetUp(config, options.seed, dir, start, spans, &checker);
    if (!built.ok()) {
      report->Fail("set-up failed: " + built.status().ToString());
      return;
    }
    stack = std::move(*built);
    setup_s.push_back(stack->setup_s);
    synth_ms.push_back(stack->synth_ms);
    workload_ms.push_back(stack->workload_ms);
    louvain_ms.push_back(stack->louvain_ms);
    build_ms.push_back(stack->build_ms);
    save_ms.push_back(stack->save_ms);
    open_ms.push_back(stack->open_ms);
  }
  serve::ServeRuntime* runtime = stack->runtime.get();
  LoadShape shape;
  shape.num_users = stack->dataset.social.num_nodes();
  Status warmed = checker.Warm(stack->generations.front());

  // A quiet release: noise publication, save, activate, first request.
  // Only generation 0 and the newest release stay warm in the checker:
  // they are the hot-swap rotation of the nominal windows.
  std::vector<double> release_s;
  auto release = [&](int r) {
    const std::string path =
        (fs::path(dir) / ("gen" + std::to_string(r) + ".pvram")).string();
    const Clock::time_point t0 = Clock::now();
    double build = 0.0, save = 0.0;
    Status built = BuildGeneration(*stack, config, path,
                                   GenerationSeed(options.seed, r), spans,
                                   &build, &save);
    const Clock::time_point t1 = Clock::now();
    Status activated = built.ok() ? runtime->Activate(path) : built;
    const Clock::time_point t2 = Clock::now();
    const serve::ServeRequest first =
        FirstRequest(shape.num_users, 2 + static_cast<uint64_t>(r));
    const serve::ServeResponse response = runtime->Handle(first);
    const Clock::time_point t3 = Clock::now();
    checker.Record(first, response);
    if (!activated.ok() ||
        response.epoch != runtime->swapper().current_epoch()) {
      report->Fail("release " + std::to_string(r) +
                   " failed: " + activated.ToString());
      return;
    }
    if (warmed.ok()) warmed = checker.Warm(path);
    if (stack->generations.size() >= 2) {
      checker.Retire(stack->generations.back());
    }
    spans.Add("release", t0, t3, kMainThread, 0,
              {{"epoch", std::to_string(response.epoch)}});
    release_s.push_back(MsBetween(t0, t3) / 1000.0);
    build_ms.push_back(build);
    save_ms.push_back(save);
    open_ms.push_back(MsBetween(t1, t2));
    stack->generations.push_back(path);
  };

  // ---- Measurement: each round makes its share of the releases, then
  // runs its nominal windows under slow hot swaps, then a ladder search.
  MeasurePlan plan;
  plan.nominal_rps = config.nominal_rps;
  plan.threads = config.request_threads;
  plan.windows = config.windows;
  plan.window_s = config.window_samples / config.nominal_rps;
  plan.rungs = LadderRungs(config.ladder_base, config.ladder_top,
                           config.ladder_ratio);
  plan.limit_ms = config.limit_ms;
  plan.probe_s = LadderProbeSeconds(plan, options.seconds);
  plan.seed = options.seed;
  plan.extra_window_s = 0.15 * options.seconds;
  plan.spans = &spans;
  const int64_t pooled0 = CounterValue("privrec.parallel.runs_pooled");
  const int64_t serial0 = CounterValue("privrec.parallel.runs_serial");
  std::optional<SwapLoop> swaps;
  std::vector<double> swap_pauses;
  int next_release = 1;
  const Measurement m = Measure(
      runtime, &checker, shape, plan, [&](int round, Stage stage) {
        if (stage == Stage::kWindowBegin) return;
        if (stage == Stage::kRoundBegin) {
          const int until =
              config.releases * std::min(round + 1, plan.rounds) / plan.rounds;
          while (next_release <= until) release(next_release++);
          swaps.emplace(
              runtime,
              std::vector<std::string>{stack->generations.front(),
                                       stack->generations.back()},
              config.swap_period_s, &spans);
          return;
        }
        swaps->Stop();
        swap_pauses.insert(swap_pauses.end(), swaps->pauses_ms().begin(),
                           swaps->pauses_ms().end());
        if (!swaps->error().empty()) {
          report->Fail("hot swap: " + swaps->error());
        }
        swaps.reset();
      });
  const int64_t pooled = CounterValue("privrec.parallel.runs_pooled") - pooled0;
  const int64_t serial = CounterValue("privrec.parallel.runs_serial") - serial0;
  if (!warmed.ok()) report->Fail("oracle: " + warmed.ToString());

  // ---- Per-layer probes (traced run only).
  PhaseResult idle;
  KernelReplay kernels;
  double open_many_ms = 0.0, table_bytes = 0.0, workload_bytes = 0.0;
  std::string storage = "owned";
  {
    auto epoch = runtime->swapper().Acquire();
    if (epoch->engine.mapped()) {
      storage = epoch->engine.mmap_backed() ? "mmap" : "read";
    }
    ReleaseBytes(epoch->engine, &table_bytes, &workload_bytes);
    if (options.trace) {
      idle = RunIdle(runtime, &checker, shape, 1000,
                     SplitMix64(options.seed + 9001), 2000000000);
      kernels = ReplayKernels(
          epoch->engine,
          ScheduleRequests(shape, config.nominal_rps, plan.window_s,
                           SplitMix64(options.seed + 1), 0),
          1000);
      open_many_ms = MedianOpenMs(stack->generations.front(), 30);
      if (!kernels.identical) {
        report->Fail("kernel replay or serving::ReconstructTopN differs from "
                     "the reference reconstruction");
      }
    }
  }

  ReportChecks(&checker, report);
  if (m.all_windows.failed > 0) {
    report->Fail("failures at the nominal rate");
  }
  ReportServing(m, plan, idle, kernels, pooled, serial, *runtime,
                options.trace, report);

  report->E2e("setup_s", Median(setup_s), "s");
  report->E2e("release_s", Median(release_s), "s");
  report->E2e("artifact_mb",
              static_cast<double>(
                  ArtifactDiskBytes(stack->generations.front())) /
                  (1024.0 * 1024.0),
              "MiB");
  report->E2e("peak_rss_mb", PeakRssMb(), "MiB");

  report->Layer("data.synth_ms", Median(synth_ms), "ms");
  report->Layer("similarity.workload_ms", Median(workload_ms), "ms");
  report->Layer("similarity.entries_per_user",
                static_cast<double>(stack->workload->TotalEntries()) /
                    static_cast<double>(shape.num_users),
                "count");
  report->Layer("community.louvain_ms", Median(louvain_ms), "ms");
  report->Layer("artifact.build_ms", Median(build_ms), "ms");
  report->Layer("artifact.save_ms", Median(save_ms), "ms");
  report->Layer("artifact.open_ms", open_many_ms, "ms");
  report->Layer("artifact.bytes_table", table_bytes, "bytes");
  report->Layer("artifact.bytes_workload", workload_bytes, "bytes");
  report->Layer("serve.swap_pause_ms",
                swap_pauses.empty() ? 0.0 : Median(swap_pauses), "ms");
  // Layers this workload does not run.
  for (const auto& [name, unit] : std::vector<std::pair<const char*, const char*>>{
           {"community.apply_us_per_delta", "us"},
           {"community.local_moves", "count"},
           {"community.drift_restarts", "count"},
           {"stream.append_p50_us", "us"},
           {"stream.append_p99_us", "us"},
           {"stream.fsyncs", "count"},
           {"stream.republish_ms", "ms"},
           {"stream.publishes", "count"},
           {"stream.publish_lag_ms", "ms"},
           {"stream.ingest_deltas_per_s", "1/s"},
           {"dp.releases", "count"},
           {"dp.epsilon_spent", "epsilon"}}) {
    report->Layer(name, 0.0, unit);
  }

  report->Context("artifact_storage", "\"" + storage + "\"");
  report->Context("artifact_shards", std::to_string(config.shards));
  report->Context("ingest_threads", "0");
  report->Context("setups", std::to_string(setup_s.size()));
  report->Context("releases", std::to_string(release_s.size()));
  report->Context("swaps", std::to_string(swap_pauses.size()));

  if (options.trace) WriteTrace(&spans, options.trace_path, report);
  obs::Tracer::Instance().SetEnabled(false);
}

}  // namespace perfbench
