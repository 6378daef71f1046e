// stream-serve: a Last.fm-scale graph kept live by StreamPipeline. One
// ingest thread journals a deterministic delta schedule (library-default
// fsync cadence, incremental community maintenance) and fires one
// ledgered release in every nominal window, which is hot-swapped into the
// runtime, while request threads serve at a fixed moderate rate.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "artifact/builder.h"
#include "artifact/model_io.h"
#include "check.h"
#include "common/random.h"
#include "community/incremental.h"
#include "community/louvain.h"
#include "data/synthetic.h"
#include "dp/ledger.h"
#include "load.h"
#include "obs/export.h"
#include "serve/telemetry.h"
#include "similarity/common_neighbors.h"
#include "stats.h"
#include "stream/pipeline.h"
#include "workloads.h"

namespace perfbench {

namespace {

namespace fs = std::filesystem;
using namespace privrec;
using graph::ItemId;
using graph::NodeId;

constexpr int64_t kMainThread = 90;
constexpr int64_t kIngestThread = 92;
// Uniform allocation over far more releases than a run makes: every
// release pays exactly kEpsilon and none falls back to stale replay.
constexpr int64_t kPlannedReleases = 1000;
constexpr int64_t kReleaseTopN = 10;

// The delta at schedule position i, a pure function of (seed, i): the
// schedule of the repo's streaming example (examples/streaming_service.cpp,
// ScheduleRecord) at Last.fm scale. 55% social edge adds, 15% social edge
// removals, 22% preference adds with weights 1-5, 8% preference removals;
// a removal names a random pair, which is a journaled no-op when the edge
// is absent.
stream::WalRecord DeltaRecord(uint64_t seed, int64_t i, NodeId users,
                              ItemId items) {
  const uint64_t bits =
      SplitMix64(seed ^ (0x5bd1e995ull * static_cast<uint64_t>(i + 1)));
  const uint64_t kind = bits % 100;
  const auto u =
      static_cast<NodeId>((bits >> 8) % static_cast<uint64_t>(users));
  auto other = [&](int shift) {
    auto v = static_cast<NodeId>((bits >> shift) %
                                 static_cast<uint64_t>(users));
    return v == u ? (v + 1) % users : v;
  };
  if (kind < 55) return stream::WalRecord::AddSocial(u, other(32));
  if (kind < 70) return stream::WalRecord::RemoveSocial(u, other(24));
  const auto item =
      static_cast<ItemId>((bits >> 40) % static_cast<uint64_t>(items));
  if (kind < 92) {
    return stream::WalRecord::AddPreference(
        u, item, 1.0 + static_cast<double>((bits >> 56) % 5));
  }
  return stream::WalRecord::RemovePreference(u, item);
}

Status ApplyDelta(stream::StreamPipeline& pipeline,
                  const stream::WalRecord& r) {
  switch (r.type) {
    case stream::WalRecordType::kAddSocial:
      return pipeline.AddSocialEdge(r.a, r.b);
    case stream::WalRecordType::kRemoveSocial:
      return pipeline.RemoveSocialEdge(r.a, r.b);
    case stream::WalRecordType::kAddPreference:
      return pipeline.AddPreference(r.a, r.b, r.weight());
    case stream::WalRecordType::kRemovePreference:
      return pipeline.RemovePreference(r.a, r.b);
    default:
      return Status::InvalidArgument("not a delta record");
  }
}

std::vector<NodeId> ReleaseUsers() { return {0, 1, 2, 3, 4, 5, 6, 7}; }

// One set-up's objects; the pipeline points into the runtime, the
// runtime into the telemetry sink.
struct StreamStack {
  stream::StreamPipelineOptions options;
  std::unique_ptr<serve::ServeTelemetry> telemetry;
  std::unique_ptr<serve::ServeRuntime> runtime;
  std::optional<stream::StreamPipeline> pipeline;
  std::vector<std::pair<NodeId, NodeId>> base_social;
  std::vector<std::string> releases;  // artifacts of paid releases
  int64_t stale_releases = 0;
  double synth_ms = 0.0;
  double setup_s = 0.0;
};

// Synthesis, a bulk load of the base graph through the pipeline (journal
// written without fsync), a reopen at the default fsync cadence that
// replays the journal, the first ledgered release and the first request.
Result<std::unique_ptr<StreamStack>> SetUp(uint64_t seed,
                                           const std::string& dir,
                                           Clock::time_point start,
                                           SpanLog& spans,
                                           ResponseChecker* checker) {
  auto stack = std::make_unique<StreamStack>();
  const Clock::time_point t0 = Clock::now();
  data::SyntheticLastFmOptions synth;
  synth.seed = kDatasetSeed;
  data::Dataset dataset = data::MakeSyntheticLastFm(synth);
  const Clock::time_point t1 = Clock::now();
  spans.Add("data.synth", t0, t1, kMainThread, 1);
  stack->synth_ms = MsBetween(t0, t1);

  stream::StreamPipelineOptions& options = stack->options;
  options.ingest.num_users = dataset.social.num_nodes();
  options.ingest.num_items = dataset.preferences.num_items();
  options.ingest.wal_path = dir + "/stream.wal";
  options.ingest.fsync_every = 0;
  options.session.total_epsilon = kEpsilon * kPlannedReleases;
  options.session.planned_snapshots = kPlannedReleases;
  options.session.seed = SplitMix64(seed + 0x51ed);
  options.session.ledger_path = dir + "/budget.ledger";
  options.session.serve_stale_on_exhaustion = true;
  options.session.artifact_dir = dir + "/artifacts";

  stack->telemetry = std::make_unique<serve::ServeTelemetry>();
  serve::ServeRuntimeOptions runtime_options;
  runtime_options.swap.adopt_artifact_epsilon = true;
  runtime_options.swap.pin_graph_hash = false;
  runtime_options.telemetry = stack->telemetry.get();
  stack->runtime = std::make_unique<serve::ServeRuntime>(runtime_options);

  {
    auto bulk = stream::StreamPipeline::Open(options, stack->runtime.get());
    if (!bulk.ok()) return bulk.status();
    for (NodeId u = 0; u < dataset.social.num_nodes(); ++u) {
      for (NodeId v : dataset.social.Neighbors(u)) {
        if (u >= v) continue;
        stack->base_social.emplace_back(u, v);
        Status added = bulk->AddSocialEdge(u, v);
        if (!added.ok()) return added;
      }
    }
    for (NodeId u = 0; u < dataset.preferences.num_users(); ++u) {
      auto items = dataset.preferences.ItemsOf(u);
      auto weights = dataset.preferences.WeightsOf(u);
      for (size_t k = 0; k < items.size(); ++k) {
        Status added = bulk->AddPreference(u, items[k], weights[k]);
        if (!added.ok()) return added;
      }
    }
  }
  const Clock::time_point t2 = Clock::now();
  options.ingest.fsync_every = stream::EdgeStreamOptions{}.fsync_every;
  auto opened = stream::StreamPipeline::Open(options, stack->runtime.get());
  if (!opened.ok()) return opened.status();
  stack->pipeline.emplace(std::move(opened).value());
  const Clock::time_point t3 = Clock::now();
  auto published = stack->pipeline->Republish(ReleaseUsers(), kReleaseTopN);
  const Clock::time_point t4 = Clock::now();
  if (!published.ok()) return published.status();
  if (!published->swapped || published->release.stale) {
    return Status::Internal("first release was not served: " +
                            published->swap_status.ToString());
  }
  stack->releases.push_back(published->artifact_path);
  const serve::ServeRequest first =
      FirstRequest(options.ingest.num_users, 1);
  const serve::ServeResponse response = stack->runtime->Handle(first);
  const Clock::time_point t5 = Clock::now();
  checker->Record(first, response);
  spans.Add("stream.bulk_load", t1, t2, kMainThread, 1);
  spans.Add("stream.reopen", t2, t3, kMainThread, 1);
  spans.Add("stream.republish", t3, t4, kMainThread, 1);
  spans.Add("serve.first_request", t4, t5, kMainThread, 1);
  spans.Add("setup", start, t5, kMainThread, 0);
  stack->setup_s = MsBetween(start, t5) / 1000.0;
  return stack;
}

struct ReleaseMark {
  Clock::time_point start;
  Clock::time_point end;
  Clock::time_point newest_ack;  // ack of the last delta before the release
  int64_t epoch = 0;
};

// The single writer: applies the delta schedule at a fixed rate through
// the pipeline and starts each scheduled release when it is due.
class IngestLoop {
 public:
  IngestLoop(StreamStack* stack, uint64_t seed, double delta_rps,
             SpanLog* spans)
      : stack_(stack),
        seed_(seed),
        delta_rps_(delta_rps),
        spans_(spans),
        thread_([this] { Loop(); }) {}
  ~IngestLoop() { Stop(); }
  IngestLoop(const IngestLoop&) = delete;
  IngestLoop& operator=(const IngestLoop&) = delete;

  // Starts a release at `start`, after those scheduled before it.
  void ScheduleRelease(Clock::time_point start) {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.push_back(start);
  }

  // Drops the releases not started yet and waits for one in flight;
  // afterwards the stack's release list is stable until more are
  // scheduled.
  void PauseReleases() {
    std::lock_guard<std::mutex> release_lock(release_mu_);
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_.clear();
  }

  void Stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  // Valid after Stop().
  int64_t applied() const { return next_delta_; }
  const std::vector<double>& append_us() const { return append_us_; }
  const std::vector<double>& republish_ms() const { return republish_ms_; }
  const std::vector<ReleaseMark>& releases() const { return releases_; }
  const std::string& error() const { return error_; }

 private:
  void Loop() {
    stream::StreamPipeline& pipeline = *stack_->pipeline;
    const NodeId users = stack_->options.ingest.num_users;
    const ItemId items = stack_->options.ingest.num_items;
    const Clock::time_point t0 = Clock::now();
    Clock::time_point newest_ack = t0;
    while (!stop_.load() && error_.empty()) {
      Clock::time_point next_release = Clock::time_point::max();
      {
        std::lock_guard<std::mutex> release_lock(release_mu_);
        {
          std::lock_guard<std::mutex> lock(pending_mu_);
          if (!pending_.empty()) next_release = pending_.front();
          if (next_release <= Clock::now()) pending_.erase(pending_.begin());
        }
        if (next_release <= Clock::now()) {
          Release(pipeline, newest_ack);
          continue;
        }
      }
      const Clock::time_point due =
          t0 + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(
                       static_cast<double>(next_delta_) / delta_rps_));
      if (Clock::now() < due) {
        std::this_thread::sleep_until(std::min(due, next_release));
        continue;
      }
      const stream::WalRecord record =
          DeltaRecord(seed_, next_delta_, users, items);
      const Clock::time_point begin = Clock::now();
      Status applied = ApplyDelta(pipeline, record);
      newest_ack = Clock::now();
      if (!applied.ok()) {
        error_ = "delta " + std::to_string(next_delta_) + ": " +
                 applied.ToString();
        break;
      }
      append_us_.push_back(1000.0 * MsBetween(begin, newest_ack));
      spans_->Add("stream.append", begin, newest_ack, kIngestThread);
      ++next_delta_;
    }
  }

  // Caller holds release_mu_.
  void Release(stream::StreamPipeline& pipeline,
               Clock::time_point newest_ack) {
    ReleaseMark mark;
    mark.newest_ack = newest_ack;
    mark.start = Clock::now();
    auto outcome = pipeline.Republish(ReleaseUsers(), kReleaseTopN);
    mark.end = Clock::now();
    spans_->Add("stream.republish", mark.start, mark.end, kIngestThread);
    republish_ms_.push_back(MsBetween(mark.start, mark.end));
    if (!outcome.ok()) {
      error_ = "release: " + outcome.status().ToString();
      return;
    }
    if (outcome->release.stale) ++stack_->stale_releases;
    if (!outcome->swapped) {
      error_ = "release not swapped in: " + outcome->swap_status.ToString();
      return;
    }
    stack_->releases.push_back(outcome->artifact_path);
    mark.epoch = stack_->runtime->swapper().current_epoch();
    releases_.push_back(mark);
  }

  StreamStack* stack_;
  const uint64_t seed_;
  const double delta_rps_;
  SpanLog* spans_;
  std::atomic<bool> stop_{false};
  // Held for the whole of a release; see PauseReleases().
  std::mutex release_mu_;
  std::mutex pending_mu_;
  std::vector<Clock::time_point> pending_;  // guarded by pending_mu_
  int64_t next_delta_ = 0;
  std::vector<double> append_us_;
  std::vector<double> republish_ms_;
  std::vector<ReleaseMark> releases_;
  std::string error_;
  std::thread thread_;
};

// Time per social delta of an IncrementalCommunity fed the base graph and
// then the run's social deltas, timed outside the pipeline.
double CommunityApplyUs(const StreamStack& stack, uint64_t seed,
                        int64_t deltas) {
  const NodeId users = stack.options.ingest.num_users;
  community::IncrementalCommunity community(users, stack.options.community);
  for (const auto& [u, v] : stack.base_social) community.AddEdge(u, v);
  std::vector<double> us;
  for (int64_t i = 0; i < deltas; ++i) {
    const stream::WalRecord r =
        DeltaRecord(seed, i, users, stack.options.ingest.num_items);
    const Clock::time_point begin = Clock::now();
    if (r.type == stream::WalRecordType::kAddSocial) {
      community.AddEdge(r.a, r.b);
    } else if (r.type == stream::WalRecordType::kRemoveSocial) {
      community.RemoveEdge(r.a, r.b);
    } else {
      continue;
    }
    us.push_back(1000.0 * MsBetween(begin, Clock::now()));
  }
  return us.empty() ? 0.0 : Mean(us);
}

}  // namespace

void RunStreamWorkload(const StreamConfig& config, const RunOptions& options,
                       Report* report) {
  SpanLog spans(options.trace);
  obs::Tracer::Instance().SetEnabled(options.trace);
  serving::ServeSpec spec;
  spec.mechanism = "Cluster";
  spec.epsilon = kEpsilon;
  ResponseChecker checker(spec, LoadShape{}.depths);

  // ---- Set-up, several times; the last one serves.
  std::vector<double> setup_s, synth_ms;
  std::unique_ptr<StreamStack> stack;
  std::string dir;
  for (int k = 0; k < config.setups; ++k) {
    stack.reset();
    if (!dir.empty()) fs::remove_all(dir);
    dir = (fs::path(options.scratch_dir) / ("setup" + std::to_string(k)))
              .string();
    fs::create_directories(dir + "/artifacts");
    const Clock::time_point start =
        k == 0 ? options.process_start : Clock::now();
    auto built = SetUp(options.seed, dir, start, spans, &checker);
    if (!built.ok()) {
      report->Fail("set-up failed: " + built.status().ToString());
      return;
    }
    stack = std::move(*built);
    setup_s.push_back(stack->setup_s);
    synth_ms.push_back(stack->synth_ms);
  }
  serve::ServeRuntime* runtime = stack->runtime.get();
  stream::StreamPipeline& pipeline = *stack->pipeline;
  LoadShape shape;
  shape.num_users = stack->options.ingest.num_users;
  const uint64_t delta_seed = SplitMix64(kDatasetSeed + 0xde17a);

  // ---- Measurement: the writer ingests throughout. Each nominal window
  // starts one release at the same offset, so that every window sees the
  // same writer activity; before each ladder search the releases so far
  // are checked and all but the newest retired.
  IngestLoop ingest(stack.get(), delta_seed, config.delta_rps, &spans);
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
  const int64_t moves0 = pipeline.community().local_moves();
  const int64_t restarts0 = pipeline.community().full_restarts();
  size_t checked_releases = 0;
  const Measurement m = Measure(
      runtime, &checker, shape, plan, [&](int, Stage stage) {
        if (stage == Stage::kRoundBegin) return;
        if (stage == Stage::kWindowBegin) {
          ingest.ScheduleRelease(
              Clock::now() + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     config.release_offset_s)));
          return;
        }
        ingest.PauseReleases();
        for (; checked_releases < stack->releases.size();
             ++checked_releases) {
          const std::string& release = stack->releases[checked_releases];
          Status warmed = checker.Warm(release);
          if (!warmed.ok()) report->Fail("oracle: " + warmed.ToString());
          if (checked_releases + 1 < stack->releases.size()) {
            checker.Retire(release);
          }
        }
      });
  ingest.Stop();
  if (!ingest.error().empty()) report->Fail("ingest: " + ingest.error());
  const int64_t pooled = CounterValue("privrec.parallel.runs_pooled") - pooled0;
  const int64_t serial = CounterValue("privrec.parallel.runs_serial") - serial0;
  const std::vector<double>& append_us = ingest.append_us();
  const std::vector<double>& republish_ms = ingest.republish_ms();
  const int64_t deltas = ingest.applied();
  // Releases land in any round run, reported or not.
  const PhaseResult& live = m.all_windows;

  // Release latency: from the start of a release (and from the ack of its
  // newest delta) to the first response served from its epoch.
  std::vector<double> release_s, lag_ms;
  for (const ReleaseMark& mark : ingest.releases()) {
    double first = -1.0;
    for (size_t i = 0; i < live.epoch.size(); ++i) {
      if (live.epoch[i] == mark.epoch &&
          (first < 0 || live.done_s[i] < first)) {
        first = live.done_s[i];
      }
    }
    if (first < 0) {
      report->Fail("release epoch " + std::to_string(mark.epoch) +
                   " never served a request");
      continue;
    }
    release_s.push_back(first - SecondsOf(mark.start));
    lag_ms.push_back(1000.0 * (first - SecondsOf(mark.newest_ack)));
  }
  if (release_s.empty()) report->Fail("no release served during the load");

  // ---- Per-layer probes (traced run only).
  PhaseResult idle;
  KernelReplay kernels;
  double open_many_ms = 0.0, table_bytes = 0.0, workload_bytes = 0.0;
  double workload_ms = 0.0, louvain_ms = 0.0, build_ms = 0.0, save_ms = 0.0;
  double entries_per_user = 0.0, apply_us = 0.0;
  {
    auto epoch = runtime->swapper().Acquire();
    ReleaseBytes(epoch->engine, &table_bytes, &workload_bytes);
    if (options.trace) {
      idle = RunIdle(runtime, &checker, shape, 1000,
                     SplitMix64(options.seed + 9001), 2000000000);
      kernels = ReplayKernels(
          epoch->engine,
          ScheduleRequests(shape, config.nominal_rps, plan.window_s,
                           SplitMix64(options.seed + 1), 0),
          1000);
      if (!kernels.identical) {
        report->Fail("kernel replay or serving::ReconstructTopN differs from "
                     "the reference reconstruction");
      }
      open_many_ms = MedianOpenMs(stack->releases.back(), 30);
      // The release path's offline stages, timed outside Republish on the
      // live graph and the maintained partition.
      const graph::SocialGraph social = pipeline.ingester().BuildSocialGraph();
      const graph::PreferenceGraph preferences =
          pipeline.ingester().BuildPreferenceGraph();
      const community::Partition partition = pipeline.community().partition();
      Clock::time_point t0 = Clock::now();
      const similarity::SimilarityWorkload workload =
          similarity::SimilarityWorkload::Compute(
              social, similarity::CommonNeighbors());
      Clock::time_point t1 = Clock::now();
      community::LouvainOptions louvain;
      louvain.seed = options.seed;
      (void)community::RunLouvain(social, louvain);
      Clock::time_point t2 = Clock::now();
      artifact::ModelArtifactBuilder builder(&social, &preferences);
      builder.SetPartition(&partition);
      builder.SetWorkload(&workload);
      artifact::BuildOptions build_options;
      build_options.epsilon = kEpsilon;
      build_options.include_reference_sections = false;
      auto model = builder.Build(build_options);
      Clock::time_point t3 = Clock::now();
      Status saved = model.ok() ? serving::SaveArtifact(
                                      *model, dir + "/layer_probe.pvra")
                                : model.status();
      Clock::time_point t4 = Clock::now();
      if (!saved.ok()) report->Fail("layer probe build: " + saved.ToString());
      workload_ms = MsBetween(t0, t1);
      louvain_ms = MsBetween(t1, t2);
      build_ms = MsBetween(t2, t3);
      save_ms = MsBetween(t3, t4);
      entries_per_user = static_cast<double>(workload.TotalEntries()) /
                         static_cast<double>(shape.num_users);
      apply_us = CommunityApplyUs(*stack, delta_seed, deltas);
    }
  }
  const int64_t moves = pipeline.community().local_moves() - moves0;
  const int64_t restarts = pipeline.community().full_restarts() - restarts0;
  const int64_t publishes = pipeline.publishes();

  // ---- End-of-run checks: every response, the ledger, the journal.
  ReportChecks(&checker, report);
  if (live.failed > 0) report->Fail("failures at the nominal rate");
  if (stack->stale_releases > 0) report->Fail("a release was a stale replay");
  auto audit = dp::AuditLedgerReplay(stack->options.session.ledger_path);
  double dp_releases = 0.0, dp_epsilon = 0.0;
  if (!audit.ok()) {
    report->Fail("ledger audit: " + audit.status().ToString());
  } else {
    dp_releases = static_cast<double>(audit->commits);
    dp_epsilon = audit->epsilon_spent;
    if (!audit->ok()) report->Fail("ledger audit: " + audit->ToString());
    if (audit->commits != publishes) {
      report->Fail("ledger commits " + std::to_string(audit->commits) +
                   " != stream publishes " + std::to_string(publishes));
    }
  }
  const uint64_t live_fingerprint = pipeline.ingester().GraphFingerprint();
  const int64_t live_records = pipeline.ingester().delta_records();
  stack->pipeline.reset();
  stream::EdgeStreamOptions reopen = stack->options.ingest;
  reopen.fsync_every = 0;
  auto replayed = stream::EdgeStreamIngester::Open(reopen);
  if (!replayed.ok()) {
    report->Fail("WAL reopen: " + replayed.status().ToString());
  } else if (replayed->GraphFingerprint() != live_fingerprint ||
             replayed->delta_records() != live_records) {
    report->Fail("WAL reopen does not reproduce the live graph");
  }

  ReportServing(m, plan, idle, kernels, pooled, serial, *runtime,
                options.trace, report);
  report->E2e("setup_s", Median(setup_s), "s");
  report->E2e("release_s", release_s.empty() ? 0.0 : Median(release_s), "s");
  report->E2e("artifact_mb",
              static_cast<double>(ArtifactDiskBytes(stack->releases.back())) /
                  (1024.0 * 1024.0),
              "MiB");
  report->E2e("peak_rss_mb", PeakRssMb(), "MiB");

  double append_busy_s = 0.0;
  for (double us : append_us) append_busy_s += us / 1e6;
  const int64_t fsync_every = stack->options.ingest.fsync_every;
  report->Layer("data.synth_ms", Median(synth_ms), "ms");
  report->Layer("similarity.workload_ms", workload_ms, "ms");
  report->Layer("similarity.entries_per_user", entries_per_user, "count");
  report->Layer("community.louvain_ms", louvain_ms, "ms");
  report->Layer("community.apply_us_per_delta", apply_us, "us");
  report->Layer("community.local_moves", static_cast<double>(moves),
                "count");
  report->Layer("community.drift_restarts", static_cast<double>(restarts),
                "count");
  report->Layer("artifact.build_ms", build_ms, "ms");
  report->Layer("artifact.save_ms", save_ms, "ms");
  report->Layer("artifact.open_ms", open_many_ms, "ms");
  report->Layer("artifact.bytes_table", table_bytes, "bytes");
  report->Layer("artifact.bytes_workload", workload_bytes, "bytes");
  // The stream's hot swaps happen inside Republish; their pause is the
  // release itself, reported as stream.republish_ms.
  report->Layer("serve.swap_pause_ms",
                republish_ms.empty() ? 0.0 : Median(republish_ms), "ms");
  report->Layer("stream.append_p50_us", Quantile(append_us, 0.5), "us");
  report->Layer("stream.append_p99_us", Quantile(append_us, 0.99), "us");
  report->Layer("stream.fsyncs",
                fsync_every > 0 ? static_cast<double>(deltas / fsync_every)
                                : 0.0,
                "count");
  report->Layer("stream.republish_ms",
                republish_ms.empty() ? 0.0 : Median(republish_ms), "ms");
  report->Layer("stream.publishes", static_cast<double>(publishes), "count");
  report->Layer("stream.publish_lag_ms",
                lag_ms.empty() ? 0.0 : Median(lag_ms), "ms");
  report->Layer("stream.ingest_deltas_per_s",
                append_busy_s > 0
                    ? static_cast<double>(append_us.size()) / append_busy_s
                    : 0.0,
                "1/s");
  report->Layer("dp.releases", dp_releases, "count");
  report->Layer("dp.epsilon_spent", dp_epsilon, "epsilon");

  report->Context("artifact_storage", "\"owned\"");
  report->Context("ingest_threads", "1");
  report->Context("fsync_every", std::to_string(fsync_every));
  report->Context("delta_rps", obs::JsonNumber(config.delta_rps));
  report->Context("setups", std::to_string(setup_s.size()));
  report->Context("releases", std::to_string(release_s.size()));
  report->Context("deltas", std::to_string(deltas));

  if (options.trace) WriteTrace(&spans, options.trace_path, report);
  obs::Tracer::Instance().SetEnabled(false);
}

}  // namespace perfbench
