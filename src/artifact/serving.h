// ServingEngine: the online half of the build/serve split.
//
// An engine wraps one immutable artifact — either an owned ArtifactModel
// handed over in memory or a zero-copy MappedArtifact view of a .pvram
// manifest and its shards — and serves the paper's mechanism from it:
// Algorithm 1's per-user reconstruction over the released noisy
// per-(cluster, item) table, reading ONLY artifact sections.
// The private PreferenceGraph type is not merely unused here — it is
// unlinkable: the privrec_serving library must not depend on
// privrec_graph, which CMake asserts and artifact_test verifies at the
// include level. The paper's point (and Machanavajjhala et al.'s): after
// the ε-DP publication, serving is post-processing and must depend only
// on the sanitized release.
//
// Both storage modes expose identical accessors through per-row pointer
// tables built once at construction, so serving is storage-oblivious: the
// served lists are bit-identical to the in-memory ClusterRecommender's at
// any thread count, whether the bytes live in owned vectors, an mmap, or
// the read-into-buffer fallback. sharded_artifact_test pins the matrix.

#ifndef PRIVREC_ARTIFACT_SERVING_H_
#define PRIVREC_ARTIFACT_SERVING_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "artifact/mapped.h"
#include "artifact/model.h"
#include "artifact/reconstruct.h"
#include "common/status.h"
#include "core/degradation.h"
#include "core/recommendation.h"
#include "graph/ids.h"

namespace privrec::serving {

class ServingEngine {
 public:
  // Map + validate a .pvram manifest and its shards (errors: kNotFound,
  // kIoError, kParseError — also for any file that is not a manifest —
  // kVersionMismatch, kDataLoss / kGraphMismatch / kProvenanceMismatch /
  // kFailedPrecondition per artifact/mapped.h). Passing a shard file
  // directly is kInvalidArgument: load the manifest.
  static Result<ServingEngine> Load(const std::string& path);

  // Adopt an in-memory model (the no-I/O serve path used by the benches).
  // Validates internal consistency exactly like Load.
  static Result<ServingEngine> FromModel(ArtifactModel model);

  // Adopt a validated mapped artifact and serve its arrays in place. The
  // engine shares ownership, so the mapping outlives every reader that
  // reached it through this engine (epoch pinning — see artifact/mapped.h).
  static Result<ServingEngine> FromMapped(
      std::shared_ptr<const MappedArtifact> mapped);

  // Default-constructed engines are empty placeholders (epoch snapshots
  // fill them by move). Move-only otherwise: accessors hand out pointers
  // into the engine's storage, and vector/mmap storage is stable under
  // move but not under copy.
  ServingEngine() = default;
  ServingEngine(ServingEngine&&) = default;
  ServingEngine& operator=(ServingEngine&&) = default;
  ServingEngine(const ServingEngine&) = delete;
  ServingEngine& operator=(const ServingEngine&) = delete;

  // Scalars (meta, provenance, noisy-table counters) are always
  // populated; in mapped mode the bulk arrays inside stay empty — go
  // through the accessors below instead.
  const ArtifactModel& model() const { return model_; }

  bool mapped() const { return mapped_ != nullptr; }
  bool mmap_backed() const { return mapped_ && mapped_->mmap_backed(); }

  // ---- Compatibility gates (distinct codes per gate) ----
  // kGraphMismatch: the model was built from a different (G_s, G_p).
  Status CheckGraph(uint64_t expected_hash) const;
  // kProvenanceMismatch: the request's ε is not the ε this release paid.
  Status CheckEpsilon(double expected_epsilon) const;

  // ---- Read API for serve paths ----
  int64_t num_users() const { return model_.meta.num_users; }
  int64_t num_items() const { return model_.meta.num_items; }
  int64_t num_clusters() const { return num_clusters_; }

  // Sharding topology: the release's shard count (1 for an engine built
  // FromModel) and the shard owning each user's cluster, as reported by
  // statusz and the wide events.
  uint32_t shard_count() const { return shard_count_; }
  int32_t ShardOfUser(graph::NodeId u) const {
    return shard_of_cluster_[static_cast<size_t>(
        cluster_of_[static_cast<size_t>(u)])];
  }

  std::span<const WorkloadEntry> WorkloadRow(graph::NodeId u) const {
    const auto i = static_cast<size_t>(u);
    return {workload_row_[i],
            static_cast<size_t>(workload_offsets_[i + 1] -
                                workload_offsets_[i])};
  }

  // The A_w release as a reconstruction view. The view carries the f32
  // mirror when the artifact has one, so reconstruction runs half-width.
  ReleaseView release_view() const;

  // The global-average fallback row, computed lazily on first use (it is
  // an O(C·I) pass over the release, and the personalized path never needs
  // it — swap storms should not pay for it per epoch). Safe to call from
  // concurrent serve chunks; the first caller computes under a once_flag.
  const std::vector<double>& global_average() const;

 private:
  // View construction. Owned mode points the tables into model_'s
  // vectors; mapped mode points them into the mapped files and runs the
  // semantic validation ValidateModel would have run on an owned model
  // (same error messages for the same defects).
  void BuildOwnedViews();
  Status InitFromMapped();

  ArtifactModel model_;
  std::shared_ptr<const MappedArtifact> mapped_;

  // Unified storage views (owned- or mapped-backed).
  const uint64_t* workload_offsets_ = nullptr;  // num_users + 1
  std::vector<const WorkloadEntry*> workload_row_;  // per user
  std::vector<const double*> cluster_rows_;         // per cluster
  std::vector<const float*> cluster_rows_f32_;      // per cluster (optional)
  const uint8_t* sanitized_ = nullptr;
  const int64_t* cluster_of_ = nullptr;
  const int64_t* cluster_sizes_ = nullptr;
  int64_t num_clusters_ = 0;
  uint32_t shard_count_ = 1;
  std::vector<int32_t> shard_of_cluster_;  // per cluster

  // Derived (not persisted): the lazy global fallback row. It lives behind
  // a shared_ptr because the engine is move-only while std::once_flag is
  // not movable at all.
  struct LazyGlobal {
    std::once_flag once;
    std::vector<double> row;
  };
  std::shared_ptr<LazyGlobal> global_ = std::make_shared<LazyGlobal>();
};

// What to serve from an engine.
struct ServeSpec {
  // The serve path serves only the paper's mechanism: any value other
  // than "Cluster" is kInvalidArgument. The field remains because the
  // perfbench workloads still assign it.
  std::string mechanism = "Cluster";
  // The ε the caller expects this release to have paid — a gate, not a
  // budget: the noise is already frozen in the artifact.
  double epsilon = 1.0;
  // When nonzero, the engine must match this dataset fingerprint
  // (kGraphMismatch otherwise).
  uint64_t expected_graph_hash = 0;
};

// The paper's mechanism over a loaded artifact: each user's utilities are
// rebuilt from the released per-(cluster, item) averages, weighted by the
// user's similarity to each cluster. Pure post-processing of the frozen
// release, so Recommend keeps no per-call state and concurrent calls on
// one instance are safe. Unlike core::Recommender it is constructed
// fallibly (MakeServeRecommender runs the compatibility gates) and
// reports degradation with every batch. The engine must outlive it.
class ServeRecommender {
 public:
  std::string Name() const { return "Cluster"; }
  core::RecommendedBatch Recommend(const std::vector<graph::NodeId>& users,
                                   int64_t top_n) const;

 private:
  friend Result<ServeRecommender> MakeServeRecommender(
      const ServingEngine* engine, const ServeSpec& spec);
  explicit ServeRecommender(const ServingEngine* engine) : engine_(engine) {}

  const ServingEngine* engine_;
};

// The gated constructor. Errors: kInvalidArgument for any mechanism other
// than "Cluster" (the baselines are in-memory evaluators —
// core::MakeRecommender), kGraphMismatch / kProvenanceMismatch per the
// gates above.
Result<ServeRecommender> MakeServeRecommender(const ServingEngine* engine,
                                              const ServeSpec& spec);

}  // namespace privrec::serving

#endif  // PRIVREC_ARTIFACT_SERVING_H_
