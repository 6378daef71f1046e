#include "core/recommender_factory.h"

#include <utility>

#include "core/cluster_recommender.h"
#include "core/exact_recommender.h"
#include "core/group_smooth_recommender.h"
#include "core/low_rank_recommender.h"
#include "core/noe_recommender.h"
#include "core/nou_recommender.h"

namespace privrec::core {

namespace {

// Adapts a serving::ServeRecommender to the core::Recommender interface,
// co-owning the engine so the serve path needs no external lifetime
// management.
class ArtifactBackedRecommender : public Recommender {
 public:
  ArtifactBackedRecommender(
      std::shared_ptr<const serving::ServingEngine> engine,
      serving::ServeRecommender server)
      : engine_(std::move(engine)), server_(std::move(server)) {}

  std::string Name() const override { return server_.Name(); }

  std::vector<RecommendationList> Recommend(
      const std::vector<graph::NodeId>& users, int64_t top_n) override {
    return std::move(server_.Recommend(users, top_n).lists);
  }

 private:
  std::shared_ptr<const serving::ServingEngine> engine_;
  serving::ServeRecommender server_;
};

}  // namespace

const std::vector<std::string>& MechanismNames() {
  static const std::vector<std::string>& kNames =
      *new std::vector<std::string>{"Exact", "Cluster", "NOU",
                                    "NOE",   "GS",      "LRM"};
  return kNames;
}

Result<std::unique_ptr<Recommender>> MakeRecommender(
    const RecommenderContext& context, const RecommenderSpec& spec) {
  if (spec.mechanism == "Exact") {
    return std::unique_ptr<Recommender>(new ExactRecommender(context));
  }
  if (spec.mechanism == "Cluster") {
    if (spec.partition == nullptr) {
      return Status::InvalidArgument(
          "Cluster requires a partition (createClusters output)");
    }
    return std::unique_ptr<Recommender>(new ClusterRecommender(
        context, *spec.partition,
        {.epsilon = spec.epsilon, .seed = spec.seed}));
  }
  if (spec.mechanism == "NOU") {
    return std::unique_ptr<Recommender>(new NouRecommender(
        context, {.epsilon = spec.epsilon, .seed = spec.seed}));
  }
  if (spec.mechanism == "NOE") {
    return std::unique_ptr<Recommender>(new NoeRecommender(
        context, {.epsilon = spec.epsilon, .seed = spec.seed}));
  }
  if (spec.mechanism == "GS") {
    return std::unique_ptr<Recommender>(new GroupSmoothRecommender(
        context, {.epsilon = spec.epsilon,
                  .group_size = spec.gs_group_size,
                  .seed = spec.seed}));
  }
  if (spec.mechanism == "LRM") {
    return std::unique_ptr<Recommender>(new LowRankRecommender(
        context, {.epsilon = spec.epsilon,
                  .target_rank = spec.lrm_target_rank,
                  .seed = spec.seed}));
  }
  return Status::InvalidArgument("unknown mechanism: " + spec.mechanism);
}

Result<std::unique_ptr<Recommender>> MakeArtifactRecommender(
    std::shared_ptr<const serving::ServingEngine> engine,
    const RecommenderSpec& spec) {
  PRIVREC_CHECK(engine != nullptr);
  Result<serving::ServeRecommender> server = serving::MakeServeRecommender(
      engine.get(), {.mechanism = spec.mechanism,
                     .epsilon = spec.epsilon,
                     .expected_graph_hash = spec.expected_graph_hash});
  if (!server.ok()) return server.status();
  return std::unique_ptr<Recommender>(new ArtifactBackedRecommender(
      std::move(engine), std::move(server).value()));
}

}  // namespace privrec::core
