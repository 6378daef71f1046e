#include "core/dynamic_recommender.h"

#include <cmath>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>

#include "artifact/builder.h"
#include "artifact/model_io.h"
#include "artifact/serving.h"
#include "common/fault_injection.h"
#include "common/random.h"
#include "core/cluster_recommender.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace privrec::core {

DynamicRecommenderSession::DynamicRecommenderSession(
    const DynamicRecommenderOptions& options)
    : options_(options), budget_(options.total_epsilon) {
  PRIVREC_CHECK(options.total_epsilon > 0.0);
  PRIVREC_CHECK(options.planned_snapshots >= 1);
  PRIVREC_CHECK(options.geometric_ratio > 0.0 &&
                options.geometric_ratio < 1.0);
  PRIVREC_CHECK_MSG(options.ledger_path.empty(),
                    "use DynamicRecommenderSession::Open for a "
                    "ledger-backed session");
}

Result<DynamicRecommenderSession> DynamicRecommenderSession::Open(
    const DynamicRecommenderOptions& options) {
  DynamicRecommenderOptions in_memory = options;
  in_memory.ledger_path.clear();
  DynamicRecommenderSession session(in_memory);
  session.options_ = options;
  if (options.ledger_path.empty()) return session;

  Result<dp::BudgetLedger> ledger =
      dp::BudgetLedger::Open(options.ledger_path, options.total_epsilon);
  if (!ledger.ok()) return ledger.status();
  session.ledger_ = std::move(ledger).value();
  // Every journaled intent counts as spent ε — committed or not. A crash
  // between intent and commit already paid; re-releasing that snapshot
  // must not charge again.
  session.ledger_->ReplayInto(&session.budget_);
  // Resume after the last committed snapshot. If an uncommitted intent
  // exists it is for exactly this index (intents are sequential), and
  // ProcessSnapshot will re-derive the identical release without a fresh
  // charge.
  session.snapshots_processed_ = session.ledger_->NumCommitted();
  return session;
}

double DynamicRecommenderSession::EpsilonForSnapshot(int64_t t) const {
  PRIVREC_CHECK(t >= 0);
  switch (options_.allocation) {
    case BudgetAllocation::kUniform:
      return options_.total_epsilon /
             static_cast<double>(options_.planned_snapshots);
    case BudgetAllocation::kGeometric:
      return options_.total_epsilon * (1.0 - options_.geometric_ratio) *
             std::pow(options_.geometric_ratio, static_cast<double>(t));
  }
  return 0.0;
}

Result<SnapshotRelease> DynamicRecommenderSession::ProcessSnapshot(
    const RecommenderContext& context,
    const std::vector<graph::NodeId>& users, int64_t top_n,
    const community::Partition* partition) {
  context.CheckValid();
  const int64_t t = snapshots_processed_;
  PRIVREC_SPAN_CHUNK("core.dynamic.snapshot", t);
  static obs::Counter& snapshots =
      obs::GetCounter("privrec.dynamic.snapshots");
  static obs::Counter& stale_replays =
      obs::GetCounter("privrec.dynamic.stale_replays");
  static obs::Counter& resumed =
      obs::GetCounter("privrec.dynamic.resumed_from_intent");
  snapshots.Increment();
  const double epsilon = EpsilonForSnapshot(t);

  // Write-ahead accounting. Three cases:
  //   1. The ledger already holds an intent for t (previous run crashed
  //      between journal and release): the ε was restored by ReplayInto,
  //      charge nothing and re-derive the identical release below.
  //   2. Budget covers ε_t: journal the intent FIRST, then charge.
  //   3. Budget exhausted: stale replay or RESOURCE_EXHAUSTED.
  const bool resumed_intent = ledger_ && ledger_->HasIntent(t);
  if (!resumed_intent) {
    if (epsilon <= 0.0 || !budget_.CanCharge(kGroup, epsilon)) {
      if (options_.serve_stale_on_exhaustion && !last_lists_.empty()) {
        SnapshotRelease release;
        release.lists = last_lists_;
        release.degradation.assign(
            users.size(), {DegradationReason::kStaleReplay});
        release.report.users_degraded =
            static_cast<int64_t>(users.size());
        release.epsilon_spent = 0.0;
        release.cumulative_epsilon = epsilon_spent();
        release.snapshot_index = t;
        release.stale = true;
        stale_replays.Increment();
        return release;
      }
      return Status::ResourceExhausted(
          "privacy budget exhausted after " + std::to_string(t) +
          " snapshots (spent " + std::to_string(epsilon_spent()) + " of " +
          std::to_string(options_.total_epsilon) + ")");
    }
    if (ledger_) {
      Status journaled = ledger_->AppendIntent(t, kGroup, epsilon);
      if (!journaled.ok()) return journaled;
    }
    PRIVREC_CHECK(budget_.Charge(kGroup, epsilon));
  }

  // The crash window the ledger protects against: ε journaled, release
  // not yet out.
  if (fault::Hit("dynamic.after_journal") == fault::FaultKind::kIoError) {
    return Status::IoError(
        "session aborted after journaling snapshot " + std::to_string(t) +
        " (injected fault)");
  }

  // Cluster the public social graph for this snapshot: the caller's
  // partition when one was injected (streaming keeps an incrementally
  // maintained clustering), otherwise a fresh Louvain run. Both the
  // clustering seed and the noise seed are pure functions of (seed, t),
  // which is what makes re-deriving a crashed release bit-identical.
  community::Partition clustering;
  if (partition != nullptr) {
    PRIVREC_CHECK_MSG(partition->num_nodes() == context.social->num_nodes(),
                      "injected partition does not cover the snapshot's "
                      "social graph");
    clustering = *partition;
  } else {
    community::LouvainOptions louvain_options = options_.louvain;
    louvain_options.seed =
        SplitMix64(options_.seed ^ static_cast<uint64_t>(t));
    clustering =
        community::RunLouvain(*context.social, louvain_options).partition;
  }

  const uint64_t noise_seed =
      SplitMix64(options_.seed + 0x9e37 + static_cast<uint64_t>(t));
  RecommendedBatch batch;
  std::string artifact_path;
  if (!options_.artifact_dir.empty()) {
    // Two-phase route: build → save → load → serve. The artifact's
    // publication uses the same (partition, workload, ε_t, seed) as the
    // in-process route and serving runs the same reconstruction template,
    // so the released lists are bit-identical either way.
    std::error_code ec;
    std::filesystem::create_directories(options_.artifact_dir, ec);
    if (ec) {
      return Status::IoError("cannot create artifact dir '" +
                             options_.artifact_dir + "': " + ec.message());
    }
    // Debris of a crash mid-save (temp files, orphan shards) is never a
    // resumable artifact; the next successful save sweeps it.
    const std::string path = options_.artifact_dir + "/snapshot_" +
                             std::to_string(t) + ".pvram";

    artifact::ModelArtifactBuilder builder(context.social,
                                           context.preferences);
    builder.SetPartition(&clustering);
    builder.SetWorkload(context.workload);

    // Crash recovery may find snapshot t's artifact already on disk (the
    // previous run died after the rename committed but before the ledger
    // commit landed). If it loads cleanly and its provenance matches the
    // (ε_t, seed) this call would rebuild with, serve straight from it —
    // the noise inside is exactly the deterministic draw a rebuild would
    // reproduce. Any mismatch or load failure (torn file, wrong epoch)
    // falls through to skip-and-rebuild, overwriting the bad file.
    std::optional<serving::ServingEngine> engine;
    if (resumed_intent && std::filesystem::exists(path)) {
      Result<serving::ServingEngine> reloaded =
          serving::ServingEngine::Load(path);
      if (reloaded.ok() &&
          reloaded->model().provenance.epsilon == epsilon &&
          reloaded->model().provenance.seed == noise_seed) {
        static obs::Counter& reused =
            obs::GetCounter("privrec.dynamic.artifact_reused");
        reused.Increment();
        engine.emplace(std::move(reloaded).value());
      }
    }
    if (!engine) {
      artifact::BuildOptions build_options;
      build_options.epsilon = epsilon;
      build_options.seed = noise_seed;
      build_options.ledger_id =
          options_.ledger_path.empty()
              ? "snapshot_" + std::to_string(t)
              : options_.ledger_path + "#" + std::to_string(t);
      Result<serving::ArtifactModel> model = builder.Build(build_options);
      if (!model.ok()) return model.status();
      Status saved = serving::SaveArtifact(*model, path);
      if (!saved.ok()) return saved;
      Result<serving::ServingEngine> loaded =
          serving::ServingEngine::Load(path);
      if (!loaded.ok()) return loaded.status();
      engine.emplace(std::move(loaded).value());
    }
    serving::ServeSpec spec;
    spec.epsilon = epsilon;
    spec.expected_graph_hash = builder.graph_hash();
    Result<serving::ServeRecommender> server =
        serving::MakeServeRecommender(&*engine, spec);
    if (!server.ok()) return server.status();
    batch = server->Recommend(users, top_n);
    artifact_path = path;
  } else {
    ClusterRecommender recommender(context, clustering,
                                   {.epsilon = epsilon, .seed = noise_seed});
    batch = recommender.RecommendWithReport(users, top_n);
  }

  SnapshotRelease release;
  release.lists = std::move(batch.lists);
  release.degradation = std::move(batch.degradation);
  release.report = batch.report;
  release.epsilon_spent = resumed_intent ? 0.0 : epsilon;
  release.cumulative_epsilon = epsilon_spent();
  release.snapshot_index = t;
  release.num_clusters = clustering.num_clusters();
  release.resumed_from_intent = resumed_intent;
  release.artifact_path = std::move(artifact_path);
  if (resumed_intent) resumed.Increment();

  if (ledger_ && !ledger_->IsCommitted(t)) {
    Status committed = ledger_->AppendCommit(t);
    if (!committed.ok()) return committed;
  }
  ++snapshots_processed_;
  last_lists_ = release.lists;
  return release;
}

}  // namespace privrec::core
