#include "check.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "kernels/accumulate.h"

namespace perfbench {

using privrec::Status;
using privrec::graph::NodeId;
using privrec::serve::ServeRequest;
using privrec::serve::ServeResponse;

std::vector<double> ReferenceGlobalAverage(
    const privrec::serving::ServingEngine& engine) {
  const privrec::serving::ReleaseView release = engine.release_view();
  const double num_users = static_cast<double>(release.num_users);
  std::vector<double> global(static_cast<size_t>(release.num_items), 0.0);
  for (int64_t c = 0; c < release.num_clusters; ++c) {
    const double size = static_cast<double>(release.cluster_sizes[c]);
    if (size == 0.0) continue;
    const double* row = release.Row(c);
    for (size_t i = 0; i < global.size(); ++i) {
      global[i] += size * row[i] / num_users;
    }
  }
  return global;
}

privrec::core::RecommendationList ReferenceTopN(
    const privrec::serving::ServingEngine& engine,
    const std::vector<double>& global_average, NodeId user, int64_t top_n) {
  const privrec::serving::ReleaseView release = engine.release_view();
  std::vector<int64_t> touched;
  std::vector<double> sim_sum(static_cast<size_t>(release.num_clusters), 0.0);
  for (const auto& entry : engine.WorkloadRow(user)) {
    const int64_t c = release.cluster_of[entry.user];
    if (sim_sum[static_cast<size_t>(c)] == 0.0) touched.push_back(c);
    sim_sum[static_cast<size_t>(c)] += entry.score;
  }
  std::vector<double> utilities;
  if (touched.empty()) {
    utilities = global_average;
  } else {
    utilities.assign(static_cast<size_t>(release.num_items), 0.0);
    std::vector<double> scales;
    std::vector<const double*> rows;
    std::vector<const float*> rows_f32;
    for (int64_t c : touched) {
      scales.push_back(sim_sum[static_cast<size_t>(c)]);
      if (release.HasF32()) {
        rows_f32.push_back(release.RowF32(c));
      } else {
        rows.push_back(release.Row(c));
      }
    }
    const auto n = static_cast<int64_t>(scales.size());
    if (release.HasF32()) {
      privrec::kernels::AccumulateRowsF32Scalar(rows_f32.data(), scales.data(),
                                                n, release.num_items,
                                                utilities.data());
    } else {
      privrec::kernels::AccumulateRowsScalar(rows.data(), scales.data(), n,
                                             release.num_items,
                                             utilities.data());
    }
  }
  std::vector<int64_t> order(utilities.size());
  std::iota(order.begin(), order.end(), int64_t{0});
  const auto keep = static_cast<size_t>(
      std::clamp<int64_t>(top_n, 0, static_cast<int64_t>(order.size())));
  std::partial_sort(order.begin(), order.begin() + keep, order.end(),
                    [&](int64_t a, int64_t b) {
                      const double ua = utilities[static_cast<size_t>(a)];
                      const double ub = utilities[static_cast<size_t>(b)];
                      return ua > ub || (ua == ub && a < b);
                    });
  privrec::core::RecommendationList list;
  for (size_t k = 0; k < keep; ++k) {
    list.push_back({static_cast<privrec::graph::ItemId>(order[k]),
                    utilities[static_cast<size_t>(order[k])]});
  }
  return list;
}

std::vector<NodeId> ReferenceUsers(int64_t num_users) {
  std::vector<NodeId> users;
  const int64_t hot = std::min<int64_t>(64, num_users);
  for (NodeId u = 0; u < hot; ++u) users.push_back(u);
  const int64_t rest = num_users - hot;
  const int64_t spread = std::min<int64_t>(192, rest);
  for (int64_t k = 0; k < spread; ++k) {
    users.push_back(static_cast<NodeId>(hot + k * rest / spread));
  }
  return users;
}

ResponseChecker::ResponseChecker(privrec::serving::ServeSpec spec,
                                 std::vector<int64_t> depths)
    : spec_(std::move(spec)), depths_(std::move(depths)) {}

Status ResponseChecker::Warm(const std::string& path) {
  auto engine = privrec::serving::ServingEngine::Load(path);
  if (!engine.ok()) return engine.status();
  const uint64_t seed = engine->model().provenance.seed;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (by_seed_.count(seed) != 0) return Status::Ok();
  }
  auto built = privrec::loadgen::LoadOracle::Build({path}, spec_);
  if (!built.ok()) return built.status();
  std::shared_ptr<privrec::loadgen::LoadOracle> oracle = std::move(*built);
  // The oracle memoizes a depth's lists on the first response it checks
  // at that depth, so this also moves that computation off the request
  // threads. The reference ranking is a strict total order, so a
  // shallower list is a prefix of the deepest one.
  const std::vector<double> global = ReferenceGlobalAverage(*engine);
  const int64_t deepest = *std::max_element(depths_.begin(), depths_.end());
  for (NodeId u : ReferenceUsers(engine->num_users())) {
    const privrec::core::RecommendationList full =
        ReferenceTopN(*engine, global, u, deepest);
    for (int64_t depth : depths_) {
      ServeRequest request;
      request.users = {u};
      request.top_n = depth;
      ServeResponse reference;
      reference.epoch = 1;
      reference.artifact_seed = seed;
      reference.batch.lists = {privrec::core::RecommendationList(
          full.begin(),
          full.begin() + std::min<int64_t>(
                             depth, static_cast<int64_t>(full.size())))};
      const std::string why = oracle->Check(request, reference);
      if (!why.empty()) {
        return Status::Internal("the serving path disagrees with the "
                                "reference reconstruction for user " +
                                std::to_string(u) + " at depth " +
                                std::to_string(depth) + ": " + why);
      }
    }
  }
  std::vector<std::pair<ServeRequest, ServeResponse>> recheck;
  {
    std::lock_guard<std::mutex> lock(mu_);
    by_seed_[seed] = std::move(oracle);
    seed_of_path_[path] = seed;
    std::vector<std::pair<ServeRequest, ServeResponse>> still;
    for (auto& entry : kept_) {
      (entry.second.artifact_seed == seed ? recheck : still)
          .push_back(std::move(entry));
    }
    kept_ = std::move(still);
  }
  for (const auto& [request, response] : recheck) Record(request, response);
  return Status::Ok();
}

void ResponseChecker::Retire(const std::string& path) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = seed_of_path_.find(path);
  if (it == seed_of_path_.end()) return;
  by_seed_.erase(it->second);
  seed_of_path_.erase(it);
}

ResponseChecker::Verdict ResponseChecker::Record(
    const ServeRequest& request, const ServeResponse& response) {
  std::shared_ptr<privrec::loadgen::LoadOracle> oracle;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = by_seed_.find(response.artifact_seed);
    if (it == by_seed_.end()) {
      kept_.emplace_back(request, response);
      return Verdict::kDeferred;
    }
    oracle = it->second;
  }
  checked_.fetch_add(1);
  if (!response.status.ok()) {
    CountFailure("request failed: " + response.status.ToString());
    return Verdict::kFailure;
  }
  const std::string why = oracle->Check(request, response);
  if (!why.empty()) {
    CountFailure(why);
    return Verdict::kFailure;
  }
  return Verdict::kMatch;
}

void ResponseChecker::Finish() {
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& entry : kept_) {
    checked_.fetch_add(1);
    failures_.fetch_add(1);
    if (first_failure_.empty()) {
      first_failure_ = "response from unreleased generation seed " +
                       std::to_string(entry.second.artifact_seed);
    }
  }
  kept_.clear();
}

std::string ResponseChecker::first_failure() const {
  std::lock_guard<std::mutex> lock(mu_);
  return first_failure_;
}

void ResponseChecker::CountFailure(const std::string& why) {
  failures_.fetch_add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (first_failure_.empty()) first_failure_ = why;
}

}  // namespace perfbench
