// ModelArtifactBuilder: the offline half of the build/serve split.
//
// Runs the Fit() phase of the paper's mechanism — createClusters on the
// public social graph, similarity-workload materialization and the ε-DP
// A_w publication — and assembles the result into a serving::ArtifactModel
// ready for SaveArtifact.
//
// This is the ONLY place in the two-phase pipeline that touches the
// private PreferenceGraph; everything downstream of the returned model is
// post-processing. Repeated Build() calls with the same (epsilon, seed)
// reuse one internal publisher whose invocation counter advances per call,
// so the k-th build releases exactly the noise the k-th in-memory
// Recommend would have drawn — the property the round-trip bit-identity
// tests (and repeated-trial benches) rely on.

#ifndef PRIVREC_ARTIFACT_BUILDER_H_
#define PRIVREC_ARTIFACT_BUILDER_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>

#include "artifact/model.h"
#include "common/status.h"
#include "community/louvain.h"
#include "community/partition.h"
#include "core/cluster_recommender.h"
#include "graph/preference_graph.h"
#include "graph/social_graph.h"
#include "similarity/similarity_measure.h"
#include "similarity/workload.h"

namespace privrec::artifact {

struct BuildOptions {
  // Privacy parameter of the A_w publication (dp::kEpsilonInfinity for the
  // paper's noiseless reference runs) and its RNG seed.
  double epsilon = 1.0;
  uint64_t seed = 100;
  // Similarity measure for the workload when none was injected via
  // SetWorkload (defaults to common neighbors, the paper's CN).
  const similarity::SimilarityMeasure* measure = nullptr;
  // createClusters configuration when no partition was injected.
  community::LouvainOptions louvain;
  // Must stay false: Build returns kInvalidArgument for true. Artifacts
  // no longer carry the raw preference CSR the baselines needed (a
  // release holds only sanitized data). The field remains because the
  // perfbench workloads still assign it.
  bool include_reference_sections = false;
  // Also emit the f32-quantized kNoisyTableF32 mirror of the release.
  // Pure post-processing of the sanitized table (no extra privacy cost);
  // the serve path prefers it for row accumulation when present.
  bool table_f32 = false;
  // BudgetLedger entry id recorded in the provenance section ("" when the
  // release is not ledgered).
  std::string ledger_id;
};

class ModelArtifactBuilder {
 public:
  // Both graphs must outlive the builder.
  ModelArtifactBuilder(const graph::SocialGraph* social,
                       const graph::PreferenceGraph* preferences);

  // Inject a precomputed partition / workload (must outlive the builder);
  // otherwise Build computes and caches its own.
  void SetPartition(const community::Partition* partition);
  void SetWorkload(const similarity::SimilarityWorkload* workload);

  // Runs the build phase and returns the assembled model. Fresh noise per
  // call (see the class comment); everything else is cached across calls.
  Result<serving::ArtifactModel> Build(const BuildOptions& options);

  // The dataset fingerprint stamped into every model this builder emits —
  // what a caller passes as ServeSpec::expected_graph_hash.
  uint64_t graph_hash();

 private:
  const community::Partition& EnsurePartition(const BuildOptions& options);
  const similarity::SimilarityWorkload& EnsureWorkload(
      const BuildOptions& options);

  const graph::SocialGraph* social_;
  const graph::PreferenceGraph* preferences_;
  const community::Partition* partition_ = nullptr;
  const similarity::SimilarityWorkload* workload_ = nullptr;
  std::optional<community::Partition> owned_partition_;
  std::optional<similarity::SimilarityWorkload> owned_workload_;
  std::optional<uint64_t> graph_hash_;
  // Cached A_w publisher, keyed on the options that shape its noise.
  std::unique_ptr<core::ClusterRecommender> publisher_;
  double publisher_epsilon_ = 0.0;
  uint64_t publisher_seed_ = 0;
};

}  // namespace privrec::artifact

#endif  // PRIVREC_ARTIFACT_BUILDER_H_
