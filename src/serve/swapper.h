// Hot artifact swap: an epoch-based, RCU-style holder for the serving
// engine.
//
// The paper's framework makes a whole model generation a single immutable
// release (the published (cluster, item) table plus its public sections),
// so swapping generations is pointer publication, not state migration:
//
//   1. ServingEngine::Load + validation run OFF the request path,
//      on the caller's (reload) thread;
//   2. the PR-4 compatibility gates run against the swap policy — graph
//      fingerprint pinned to the current epoch by default, ε/provenance
//      per the ServeSpec;
//   3. a self-check probe serves a deterministic set of users from the
//      candidate and rejects non-finite or malformed output — a release
//      that decodes cleanly but would serve garbage never goes live;
//   4. only then is the new epoch published: readers that acquired the old
//      epoch keep serving from it (shared_ptr keeps it alive until the
//      last in-flight request drains), new readers see the new epoch.
//
// Any failure in 1-3 is a rollback: the current epoch stays published,
// the failure is recorded (privrec.serve.swap_rollback_total, last_error)
// and the typed status is returned. Every attempt emits a "serve.swap"
// span.

#ifndef PRIVREC_SERVE_SWAPPER_H_
#define PRIVREC_SERVE_SWAPPER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "artifact/serving.h"
#include "common/status.h"

namespace privrec::serve {

// One published model generation. Immutable after publication; requests
// hold it by shared_ptr so a swap never invalidates an in-flight batch.
struct EpochSnapshot {
  int64_t epoch = 0;
  serving::ServingEngine engine;
  // Set before publication; reads `engine` only.
  std::optional<serving::ServeRecommender> recommender;
  // Provenance identity of the artifact this epoch serves — lets callers
  // (and the chaos soak) attribute a response to its generation.
  uint64_t artifact_seed = 0;
  double epsilon = 0.0;
};

struct SwapPolicy {
  // Gates for MakeServeRecommender. expected_graph_hash == 0
  // defers to pin_graph_hash below.
  serving::ServeSpec spec;
  // With spec.expected_graph_hash == 0: once a first artifact is live,
  // require every subsequent artifact to carry the same dataset
  // fingerprint (a swap can upgrade the model, never silently change what
  // dataset is being served).
  bool pin_graph_hash = true;
  // Adopt each artifact's provenance ε as the Cluster gate value instead
  // of requiring spec.epsilon. For release streams whose per-snapshot ε
  // legitimately varies (the dynamic session's composition schedule).
  bool adopt_artifact_epsilon = false;
  // Self-check probe: the first min(probe_users, num_users) user ids are
  // served at probe_top_n; non-finite utilities or malformed lists reject
  // the candidate. 0 disables the probe.
  int64_t probe_users = 4;
  int64_t probe_top_n = 10;
};

class ArtifactSwapper {
 public:
  explicit ArtifactSwapper(SwapPolicy policy);

  // Loads, gates, probes, and publishes the artifact at `path`. The first
  // successful call creates epoch 1; later calls are hot swaps. On ANY
  // failure the previous epoch (if one exists) remains published and this
  // returns the typed error (kNotFound / kIoError / kParseError /
  // kVersionMismatch / kGraphMismatch / kProvenanceMismatch /
  // kFailedPrecondition from the probe).
  Status Activate(const std::string& path);

  // The current epoch, or null before the first successful Activate.
  // The returned snapshot stays valid for the life of the shared_ptr even
  // across concurrent swaps.
  std::shared_ptr<const EpochSnapshot> Acquire() const;

  int64_t current_epoch() const;
  int64_t swaps() const { return swaps_.load(std::memory_order_relaxed); }
  int64_t rollbacks() const {
    return rollbacks_.load(std::memory_order_relaxed);
  }
  // Message of the most recent rollback ("" when none yet).
  std::string last_error() const;

  const SwapPolicy& policy() const { return policy_; }

 private:
  Status ProbeCandidate(const EpochSnapshot& candidate) const;
  Status RecordRollback(Status status);

  SwapPolicy policy_;

  mutable std::mutex mu_;  // guards current_ and last_error_
  std::shared_ptr<const EpochSnapshot> current_;
  std::string last_error_;
  std::atomic<int64_t> swaps_{0};
  std::atomic<int64_t> rollbacks_{0};
  std::atomic<int64_t> epoch_{0};
};

}  // namespace privrec::serve

#endif  // PRIVREC_SERVE_SWAPPER_H_
