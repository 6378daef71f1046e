#include "serve/runtime.h"

#include <memory>
#include <utility>

#include "common/macros.h"
#include "core/recommendation.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/telemetry.h"

namespace privrec::serve {

namespace {

obs::Counter& RequestCounter() {
  static obs::Counter& c = obs::GetCounter("privrec.serve.requests_total");
  return c;
}

obs::Counter& FallbackCounter() {
  static obs::Counter& c = obs::GetCounter("privrec.serve.fallback_total");
  return c;
}

obs::Histogram& RequestLatency() {
  static obs::Histogram& h = obs::GetHistogram(
      "privrec.serve.request_ms", obs::LatencyBucketsMs());
  return h;
}

}  // namespace

ServeRuntime::ServeRuntime(ServeRuntimeOptions options)
    : options_(options),
      clock_(options.clock != nullptr ? options.clock
                                      : SteadyClock::Instance()),
      swapper_(options.swap),
      admission_(options.admission, clock_),
      reload_breaker_("artifact_reload", options.breaker, clock_) {}

Status ServeRuntime::Activate(const std::string& path) {
  return reload_breaker_.Run([&] { return swapper_.Activate(path); });
}

ServeResponse ServeRuntime::Fallback(
    Status status, const std::shared_ptr<const EpochSnapshot>& epoch,
    const ServeRequest& request, int64_t retry_after_ms) {
  ServeResponse response;
  response.status = std::move(status);
  response.retry_after_ms = retry_after_ms;
  response.epoch = epoch->epoch;
  response.artifact_seed = epoch->artifact_seed;
  if (!options_.degraded_fallback) return response;

  // The global-average row is a pure function of the frozen release, so
  // the fallback tier needs no admission.
  const std::vector<double>& row = epoch->engine.global_average();
  core::RecommendationList list = core::TopNFromDense(row, request.top_n);
  response.batch.lists.assign(request.users.size(), list);
  response.batch.degradation.assign(
      request.users.size(),
      core::DegradationInfo{core::DegradationReason::kLoadShed});
  response.batch.report.users_degraded =
      static_cast<int64_t>(request.users.size());
  response.degraded_fallback = true;
  FallbackCounter().Increment();
  return response;
}

void ServeRuntime::EmitTelemetry(obs::RequestTelemetry& event,
                                 const ServeResponse& response) {
  if (options_.telemetry == nullptr) return;
  FinalizeRequestTelemetry(event, response, clock_->NowMs());
  options_.telemetry->Record(event);
}

void ServeRuntime::EmitAsyncTelemetry(AsyncServe& op) {
  if (options_.telemetry == nullptr || op.telemetry_emitted) return;
  op.telemetry_emitted = true;
  FinalizeRequestTelemetry(op.telemetry, op.response, clock_->NowMs());
  options_.telemetry->Record(op.telemetry);
}

ServeResponse ServeRuntime::Handle(const ServeRequest& request) {
  obs::SpanScope span("serve.request");
  RequestCounter().Increment();
  const int64_t start_ms = clock_->NowMs();
  const uint64_t request_id = ResolveRequestId(request);
  span.Arg("request_id", std::to_string(request_id));

  obs::RequestTelemetry event;
  event.request_id = request_id;
  event.arrival_ms = start_ms;
  event.users = static_cast<int64_t>(request.users.size());
  event.top_n = request.top_n;
  event.deadline_ms = request.deadline_ms;

  // Pin the epoch for the whole request: a concurrent swap cannot change
  // what this batch is served from, and the snapshot outlives the swap.
  std::shared_ptr<const EpochSnapshot> epoch = swapper_.Acquire();
  if (epoch == nullptr) {
    ServeResponse response;
    response.status =
        Status::FailedPrecondition("no artifact activated yet");
    response.request_id = request_id;
    EmitTelemetry(event, response);
    return response;
  }

  ServeResponse response;
  response.request_id = request_id;
  response.epoch = epoch->epoch;
  response.artifact_seed = epoch->artifact_seed;
  span.Arg("epoch", std::to_string(epoch->epoch));
  event.shard_count = epoch->engine.shard_count();

  if (request.top_n <= 0) {
    response.status =
        Status::InvalidArgument("top_n must be positive, got " +
                                std::to_string(request.top_n));
    EmitTelemetry(event, response);
    return response;
  }
  if (request.users.empty()) {
    // Nothing to rank; answer OK without consuming a serving slot.
    EmitTelemetry(event, response);
    return response;
  }

  const int64_t deadline = start_ms + request.deadline_ms;
  Result<AdmissionTicket> ticket = admission_.Admit(deadline);
  const int64_t admitted_ms = clock_->NowMs();
  event.queue_wait_ms = admitted_ms - start_ms;
  if (!ticket.ok()) {
    const int64_t retry_after =
        ticket.status().code() == StatusCode::kResourceExhausted
            ? admission_.RetryAfterHintMs()
            : 0;
    ServeResponse fallback =
        Fallback(ticket.status(), epoch, request, retry_after);
    fallback.request_id = request_id;
    EmitTelemetry(event, fallback);
    return fallback;
  }

  response.batch = epoch->recommender->Recommend(request.users, request.top_n);
  ticket->Release();

  const int64_t end_ms = clock_->NowMs();
  event.reconstruct_ms = static_cast<double>(end_ms - admitted_ms);
  RequestLatency().Observe(static_cast<double>(end_ms - start_ms));
  EmitTelemetry(event, response);
  return response;
}

AsyncServe ServeRuntime::BeginAsync(const ServeRequest& request,
                                    int64_t arrival_ms) {
  RequestCounter().Increment();
  AsyncServe op;
  op.request = request;
  op.arrival_ms = arrival_ms;

  const uint64_t request_id = ResolveRequestId(request);
  op.response.request_id = request_id;
  op.telemetry.request_id = request_id;
  op.telemetry.arrival_ms = arrival_ms;
  op.telemetry.users = static_cast<int64_t>(request.users.size());
  op.telemetry.top_n = request.top_n;
  op.telemetry.deadline_ms = request.deadline_ms;

  op.epoch = swapper_.Acquire();
  if (op.epoch == nullptr) {
    op.response.status =
        Status::FailedPrecondition("no artifact activated yet");
    op.done = true;
    EmitAsyncTelemetry(op);
    return op;
  }
  op.response.epoch = op.epoch->epoch;
  op.response.artifact_seed = op.epoch->artifact_seed;
  op.telemetry.shard_count = op.epoch->engine.shard_count();

  if (request.top_n <= 0) {
    op.response.status =
        Status::InvalidArgument("top_n must be positive, got " +
                                std::to_string(request.top_n));
    op.done = true;
    EmitAsyncTelemetry(op);
    return op;
  }
  if (request.users.empty()) {
    op.done = true;  // OK, empty batch
    EmitAsyncTelemetry(op);
    return op;
  }

  op.pending =
      admission_.AdmitAsync(arrival_ms + request.deadline_ms);
  PollAsync(op);
  return op;
}

bool ServeRuntime::PollAsync(AsyncServe& op) {
  if (op.done || op.admitted) return true;
  PendingAdmit::State state = op.pending->state();
  if (state == PendingAdmit::State::kQueued) {
    // A clock advance may have expired this (or an earlier) waiter
    // without any release to notice it.
    if (admission_.PurgeExpired() == 0) return false;
    state = op.pending->state();
    if (state == PendingAdmit::State::kQueued) return false;
  }
  switch (state) {
    case PendingAdmit::State::kAdmitted:
      op.ticket = op.pending->TakeTicket();
      op.admitted = true;
      op.telemetry.queue_wait_ms = clock_->NowMs() - op.arrival_ms;
      return true;
    case PendingAdmit::State::kShed:
      op.response = Fallback(op.pending->status(), op.epoch, op.request,
                             op.pending->retry_after_ms());
      op.response.request_id = op.telemetry.request_id;
      op.telemetry.queue_wait_ms = clock_->NowMs() - op.arrival_ms;
      op.done = true;
      EmitAsyncTelemetry(op);
      return true;
    case PendingAdmit::State::kExpired:
      op.response =
          Fallback(op.pending->status(), op.epoch, op.request, 0);
      op.response.request_id = op.telemetry.request_id;
      op.telemetry.queue_wait_ms = clock_->NowMs() - op.arrival_ms;
      op.done = true;
      EmitAsyncTelemetry(op);
      return true;
    case PendingAdmit::State::kQueued:
      break;
  }
  return false;
}

ServeResponse ServeRuntime::FinishAsync(AsyncServe& op) {
  if (op.done) return op.response;
  PRIVREC_CHECK_MSG(op.admitted,
                    "FinishAsync on an operation that is still queued");
  const int64_t serve_start_ms = clock_->NowMs();
  op.response.batch =
      op.epoch->recommender->Recommend(op.request.users, op.request.top_n);
  op.ticket.Release();
  const int64_t end_ms = clock_->NowMs();
  op.telemetry.reconstruct_ms =
      static_cast<double>(end_ms - serve_start_ms);
  RequestLatency().Observe(static_cast<double>(end_ms - op.arrival_ms));
  op.done = true;
  EmitAsyncTelemetry(op);
  return op.response;
}

}  // namespace privrec::serve
