// Output check for every served response: each one is compared with the
// loadgen::LoadOracle of the artifact generation that served it.
//
// An oracle computes a generation's expected lists for every user at a
// requested depth the first time that depth is checked, which is far too
// slow to happen on a request thread. So a generation is "warmed" before
// the traffic that reads it: Warm() loads it into its own oracle and
// precomputes every depth the load uses, after which Record() checks
// inline in microseconds. Responses from a generation that is not warmed
// (a release published while the load runs) are kept and checked when it
// is. Retire() drops an oracle the run no longer needs, so that the
// checker holds a few generations at a time, not every release of the
// run. At Finish() every kept response counts as a failure: a response
// from a generation nobody released is exactly the error this check
// exists to catch.
//
// The oracle answers through the program's own serving path, so on its
// own it would check the program against itself. Warm() therefore first
// holds the oracle to ReferenceTopN(), a reconstruction written here
// without the program's reconstruction, dispatched kernels or top-N
// selection, on a fixed sample of users at every depth; a generation whose
// oracle disagrees is not warmed and the run fails.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "artifact/serving.h"
#include "common/status.h"
#include "core/recommendation.h"
#include "loadgen/oracle.h"
#include "serve/runtime.h"

namespace perfbench {

// The global-average row of a release (the fallback for a user with no
// similarity support): sum over clusters of |c| * row_c / |U|, in cluster
// order.
std::vector<double> ReferenceGlobalAverage(
    const privrec::serving::ServingEngine& engine);

// What the paper's reconstruction answers for `user` at depth `top_n` on
// one release: similarity weights summed per cluster in first-touch order,
// the touched rows added by the scalar reference kernels
// (kernels::AccumulateRowsScalar / AccumulateRowsF32Scalar, bit-identical
// to the dispatched ones by contract), the global average for an isolated
// user, and a plain std::partial_sort on (utility desc, item asc).
privrec::core::RecommendationList ReferenceTopN(
    const privrec::serving::ServingEngine& engine,
    const std::vector<double>& global_average, privrec::graph::NodeId user,
    int64_t top_n);

// The users every warmed oracle is held to: the first 64 (the hottest
// under the load's Zipf draw) and 192 more spread over the rest.
std::vector<privrec::graph::NodeId> ReferenceUsers(int64_t num_users);

class ResponseChecker {
 public:
  enum class Verdict { kMatch, kFailure, kDeferred };

  ResponseChecker(privrec::serving::ServeSpec spec,
                  std::vector<int64_t> depths);
  ResponseChecker(const ResponseChecker&) = delete;
  ResponseChecker& operator=(const ResponseChecker&) = delete;

  // Loads the generation at `path` into its own oracle, holds the oracle
  // to ReferenceTopN() on ReferenceUsers() at every depth (which also
  // precomputes its lists there), then checks the kept responses it
  // served.
  privrec::Status Warm(const std::string& path);

  // Drops the oracle of a warmed generation. Responses it serves later
  // are kept, and fail at Finish() unless it is warmed again.
  void Retire(const std::string& path);

  // Thread-safe. A non-OK status counts as a failure as well; only an OK
  // response that matches its generation is a success.
  Verdict Record(const privrec::serve::ServeRequest& request,
                 const privrec::serve::ServeResponse& response);

  // Counts every response still kept as a failure.
  void Finish();

  int64_t checked() const { return checked_.load(); }
  int64_t failures() const { return failures_.load(); }
  std::string first_failure() const;

 private:
  void CountFailure(const std::string& why);

  privrec::serving::ServeSpec spec_;
  std::vector<int64_t> depths_;

  mutable std::mutex mu_;  // guards the members below
  // Shared so that a Record() in flight outlives a concurrent Retire().
  std::map<uint64_t, std::shared_ptr<privrec::loadgen::LoadOracle>>
      by_seed_;
  std::map<std::string, uint64_t> seed_of_path_;
  std::vector<std::pair<privrec::serve::ServeRequest,
                        privrec::serve::ServeResponse>>
      kept_;
  std::string first_failure_;

  std::atomic<int64_t> checked_{0};
  std::atomic<int64_t> failures_{0};
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
