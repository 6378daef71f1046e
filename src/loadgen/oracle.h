// Correctness oracle for the load harness: the zero-tolerance check that
// every response the runtime produced under load is exactly the response
// the offline serving engine produces at rest.
//
// Each artifact generation that may become visible during the run is
// loaded once and keyed by its provenance seed (the same generation
// identity ServeResponse carries). Expected rankings are computed lazily
// per (generation, top_n) and memoized, so the oracle never assumes
// anything about prefix stability across top_n values — it compares
// against a ranking computed at exactly the requested depth.
//
// The serve path's one mechanism ("Cluster") is a pure function of
// (artifact, users, top_n), so the oracle can check it this way.

#ifndef PRIVREC_LOADGEN_ORACLE_H_
#define PRIVREC_LOADGEN_ORACLE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "artifact/serving.h"
#include "common/status.h"
#include "serve/runtime.h"

namespace privrec::loadgen {

class LoadOracle {
 public:
  // Loads every artifact and indexes it by provenance seed. Fails with
  // MakeServeRecommender's error (kInvalidArgument for any mechanism but
  // "Cluster"), or with the load error of the first unreadable artifact.
  static Result<std::unique_ptr<LoadOracle>> Build(
      const std::vector<std::string>& artifact_paths,
      const serving::ServeSpec& spec);

  // Returns "" when `response` is consistent with the generation that
  // served it, else a diagnostic. Checks:
  //   - the serving generation is one of the known-good artifacts;
  //   - kOk responses are bit-identical to the offline answer;
  //   - degraded (shed/expired) responses carry the generation's exact
  //     global-average fallback ranking, tagged kLoadShed.
  // Thread-safe (the memo table is mutex-guarded).
  std::string Check(const serve::ServeRequest& request,
                    const serve::ServeResponse& response);

  int64_t generations() const {
    return static_cast<int64_t>(generations_.size());
  }

 private:
  struct Generation {
    std::unique_ptr<serving::ServingEngine> engine;
    std::optional<serving::ServeRecommender> recommender;
    // top_n -> expected list per user id (index = NodeId).
    std::map<int64_t, std::vector<core::RecommendationList>> lists;
    // top_n -> expected global-average fallback list.
    std::map<int64_t, core::RecommendationList> fallback;
  };

  LoadOracle() = default;
  const std::vector<core::RecommendationList>& ListsFor(Generation& gen,
                                                        int64_t top_n);
  const core::RecommendationList& FallbackFor(Generation& gen,
                                              int64_t top_n);

  std::mutex mu_;
  std::map<uint64_t, Generation> generations_;
  std::vector<graph::NodeId> all_users_;
};

}  // namespace privrec::loadgen

#endif  // PRIVREC_LOADGEN_ORACLE_H_
