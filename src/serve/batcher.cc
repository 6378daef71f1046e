#include "serve/batcher.h"

#include <chrono>
#include <condition_variable>
#include <utility>

#include "common/macros.h"

namespace privrec::serve {

struct RequestBatcher::Batch {
  std::shared_ptr<EpochSnapshot> epoch;
  int64_t top_n = 0;
  int64_t open_clock_ms = 0;  // injected clock at open
  std::chrono::steady_clock::time_point open_real;
  // One entry per member, in arrival order. Every member blocks inside
  // Submit until `done`, so the pointed-to vectors are valid for the
  // leader's merge — but not after it: a member that has taken its slice
  // returns, and its vector may be gone while others still slice.
  std::vector<const std::vector<graph::NodeId>*> member_users;
  int64_t total_users = 0;
  bool closed = false;  // no longer accepting members
  bool done = false;    // merged result is ready
  core::RecommendedBatch merged;
  std::condition_variable cv;
};

RequestBatcher::RequestBatcher(const BatchOptions& options,
                               const Clock* clock)
    : options_(options), clock_(clock) {
  PRIVREC_CHECK(clock != nullptr);
  PRIVREC_CHECK_MSG(options.window_ms > 0,
                    "RequestBatcher requires a positive batch window");
  PRIVREC_CHECK(options.max_requests >= 1 && options.max_users >= 1);
}

RequestBatcher::Slice RequestBatcher::Submit(
    const std::shared_ptr<EpochSnapshot>& epoch,
    const std::vector<graph::NodeId>& users, int64_t top_n,
    const Executor& executor) {
  const auto my_users = static_cast<int64_t>(users.size());
  auto full = [&](const Batch& b) {
    return static_cast<int64_t>(b.member_users.size()) >=
               options_.max_requests ||
           b.total_users >= options_.max_users;
  };

  std::unique_lock<std::mutex> lock(mu_);
  std::shared_ptr<Batch> b = open_;
  // Where this member's users start in the merged batch, fixed at join
  // time (other members' vectors may be freed before this one slices).
  size_t my_offset = 0;
  const bool joinable =
      b != nullptr && !b->closed && b->epoch.get() == epoch.get() &&
      b->top_n == top_n &&
      static_cast<int64_t>(b->member_users.size()) < options_.max_requests &&
      b->total_users + my_users <= options_.max_users;

  if (joinable) {
    // Follower: append and wait for the leader to execute. Waking the
    // leader early when this arrival fills the batch keeps the window a
    // bound, not a floor.
    my_offset = static_cast<size_t>(b->total_users);
    b->member_users.push_back(&users);
    b->total_users += my_users;
    if (full(*b)) b->cv.notify_all();
    b->cv.wait(lock, [&] { return b->done; });
  } else {
    // Leader: open a batch and wait out the window for followers.
    b = std::make_shared<Batch>();
    b->epoch = epoch;
    b->top_n = top_n;
    b->open_clock_ms = clock_->NowMs();
    b->open_real = std::chrono::steady_clock::now();
    b->member_users.push_back(&users);
    b->total_users = my_users;
    open_ = b;

    const auto real_deadline =
        b->open_real + std::chrono::milliseconds(options_.window_ms);
    while (!full(*b)) {
      if (clock_->NowMs() - b->open_clock_ms >= options_.window_ms) break;
      if (b->cv.wait_until(lock, real_deadline) ==
          std::cv_status::timeout) {
        break;
      }
    }
    b->closed = true;
    if (open_ == b) open_ = nullptr;

    // Merge in arrival order, execute unlocked, publish the result.
    std::vector<graph::NodeId> all;
    all.reserve(static_cast<size_t>(b->total_users));
    for (const std::vector<graph::NodeId>* m : b->member_users) {
      all.insert(all.end(), m->begin(), m->end());
    }
    lock.unlock();
    core::RecommendedBatch merged = executor(*b->epoch, all, top_n);
    lock.lock();
    PRIVREC_CHECK_MSG(
        merged.lists.size() == all.size() &&
            merged.degradation.size() == all.size(),
        "batch executor returned a malformed merged batch");
    b->merged = std::move(merged);
    b->done = true;
    batches_formed_.fetch_add(1, std::memory_order_relaxed);
    requests_batched_.fetch_add(
        static_cast<int64_t>(b->member_users.size()),
        std::memory_order_relaxed);
    b->cv.notify_all();
  }

  // Slice this member's lists back out (still under the lock; each member
  // moves only its own disjoint range).
  Slice out;
  out.batch_requests = static_cast<int64_t>(b->member_users.size());
  out.batch_users = b->total_users;
  out.batch.report = b->merged.report;
  out.batch.report.users_degraded = 0;
  out.batch.lists.resize(users.size());
  out.batch.degradation.resize(users.size());
  for (size_t i = 0; i < users.size(); ++i) {
    out.batch.lists[i] = std::move(b->merged.lists[my_offset + i]);
    out.batch.degradation[i] = b->merged.degradation[my_offset + i];
    if (out.batch.degradation[i].degraded()) {
      ++out.batch.report.users_degraded;
    }
  }
  return out;
}

}  // namespace privrec::serve
