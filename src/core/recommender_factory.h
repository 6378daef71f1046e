// Name-based recommender construction: one entry point that maps the
// mechanism names used throughout the paper ("Exact", "Cluster", "NOU",
// "NOE", "GS", "LRM") to configured instances. Keeps bench/example/CLI
// code free of per-mechanism wiring.
//
// Two construction paths behind the same Recommender interface:
//   - in-memory (MakeRecommender over a RecommenderContext), every
//     mechanism, and
//   - artifact-backed (MakeArtifactRecommender), the Cluster mechanism
//     only: it adapts a serving::ServeRecommender over a loaded model so
//     callers cannot tell the two apart.

#ifndef PRIVREC_CORE_RECOMMENDER_FACTORY_H_
#define PRIVREC_CORE_RECOMMENDER_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "artifact/serving.h"
#include "common/status.h"
#include "community/partition.h"
#include "core/recommender.h"

namespace privrec::core {

struct RecommenderSpec {
  // One of MechanismNames(). Case-sensitive.
  std::string mechanism = "Cluster";
  // Ignored by "Exact".
  double epsilon = 1.0;
  uint64_t seed = 1;
  // Required by "Cluster" (must cover the social graph's users).
  const community::Partition* partition = nullptr;
  // GS group size; LRM target rank.
  int64_t gs_group_size = 128;
  int64_t lrm_target_rank = 200;
  // MakeArtifactRecommender only: when nonzero the engine's model must
  // carry this dataset fingerprint (kGraphMismatch otherwise).
  uint64_t expected_graph_hash = 0;
};

// All constructible mechanism names, paper order.
const std::vector<std::string>& MechanismNames();

// Builds the requested in-memory recommender, or InvalidArgument for
// unknown names / missing partition.
Result<std::unique_ptr<Recommender>> MakeRecommender(
    const RecommenderContext& context, const RecommenderSpec& spec);

// Artifact-backed recommender that co-owns its engine — for callers that
// load an artifact and have no natural place to keep it alive. Fails the
// serve path's gates (kInvalidArgument for any mechanism but "Cluster",
// kGraphMismatch / kProvenanceMismatch — see
// serving::MakeServeRecommender).
Result<std::unique_ptr<Recommender>> MakeArtifactRecommender(
    std::shared_ptr<const serving::ServingEngine> engine,
    const RecommenderSpec& spec);

}  // namespace privrec::core

#endif  // PRIVREC_CORE_RECOMMENDER_FACTORY_H_
