#include "loadgen/oracle.h"

#include <utility>

#include "core/recommendation.h"

namespace privrec::loadgen {

Result<std::unique_ptr<LoadOracle>> LoadOracle::Build(
    const std::vector<std::string>& artifact_paths,
    const serving::ServeSpec& spec) {
  std::unique_ptr<LoadOracle> oracle(new LoadOracle());
  for (const std::string& path : artifact_paths) {
    auto engine = serving::ServingEngine::Load(path);
    if (!engine.ok()) return engine.status();
    auto holder =
        std::make_unique<serving::ServingEngine>(std::move(*engine));
    auto recommender = serving::MakeServeRecommender(holder.get(), spec);
    if (!recommender.ok()) return recommender.status();
    const uint64_t seed = holder->model().provenance.seed;
    Generation& gen = oracle->generations_[seed];
    if (gen.engine != nullptr) {
      return Status::InvalidArgument(
          "two oracle artifacts share provenance seed " +
          std::to_string(seed) +
          "; generations would be indistinguishable");
    }
    gen.engine = std::move(holder);
    gen.recommender = std::move(*recommender);
    if (oracle->all_users_.empty()) {
      for (graph::NodeId u = 0; u < gen.engine->num_users(); ++u) {
        oracle->all_users_.push_back(u);
      }
    } else if (static_cast<int64_t>(oracle->all_users_.size()) !=
               gen.engine->num_users()) {
      return Status::InvalidArgument(
          "oracle artifacts disagree on user universe size");
    }
  }
  if (oracle->generations_.empty()) {
    return Status::InvalidArgument("load oracle needs >= 1 artifact");
  }
  return oracle;
}

const std::vector<core::RecommendationList>& LoadOracle::ListsFor(
    Generation& gen, int64_t top_n) {
  auto it = gen.lists.find(top_n);
  if (it == gen.lists.end()) {
    it = gen.lists
             .emplace(top_n,
                      gen.recommender->Recommend(all_users_, top_n).lists)
             .first;
  }
  return it->second;
}

const core::RecommendationList& LoadOracle::FallbackFor(Generation& gen,
                                                        int64_t top_n) {
  auto it = gen.fallback.find(top_n);
  if (it == gen.fallback.end()) {
    it = gen.fallback
             .emplace(top_n, core::TopNFromDense(
                                 gen.engine->global_average(), top_n))
             .first;
  }
  return it->second;
}

std::string LoadOracle::Check(const serve::ServeRequest& request,
                              const serve::ServeResponse& response) {
  // Statuses that never carry a ranked answer are out of scope here.
  if (response.status.code() != StatusCode::kOk &&
      response.status.code() != StatusCode::kResourceExhausted &&
      response.status.code() != StatusCode::kDeadlineExceeded) {
    return "";
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = generations_.find(response.artifact_seed);
  if (it == generations_.end()) {
    return "response from unknown artifact generation (seed " +
           std::to_string(response.artifact_seed) +
           "): a corrupt artifact became visible";
  }
  Generation& gen = it->second;

  if (response.status.ok()) {
    if (response.epoch <= 0) return "ok response without an epoch id";
    if (response.batch.lists.size() != request.users.size()) {
      return "ok batch has " + std::to_string(response.batch.lists.size()) +
             " lists for " + std::to_string(request.users.size()) +
             " users";
    }
    const auto& expected = ListsFor(gen, request.top_n);
    for (size_t i = 0; i < request.users.size(); ++i) {
      const auto u = static_cast<size_t>(request.users[i]);
      if (u >= expected.size()) {
        return "response user id out of the oracle universe";
      }
      if (response.batch.lists[i] != expected[u]) {
        return "torn or stale read: user " +
               std::to_string(request.users[i]) +
               " got bits that do not match generation seed " +
               std::to_string(response.artifact_seed);
      }
    }
    return "";
  }

  // Shed / expired: with the degraded fallback on, the answer must be the
  // serving epoch's exact global-average row at the requested depth.
  if (!response.degraded_fallback) return "";
  if (response.batch.lists.size() != request.users.size()) {
    return "fallback batch has wrong shape";
  }
  const core::RecommendationList& fallback =
      FallbackFor(gen, request.top_n);
  for (const core::RecommendationList& list : response.batch.lists) {
    if (list != fallback) {
      return "fallback ranking does not match the serving epoch's "
             "global-average row";
    }
  }
  for (const core::DegradationInfo& info : response.batch.degradation) {
    if (info.reason != core::DegradationReason::kLoadShed) {
      return "shed response missing the kLoadShed degradation tag";
    }
  }
  return "";
}

}  // namespace privrec::loadgen
