#include "src/rpc/rpc_client.h"

namespace globaldb::rpc {

const RpcClient::MethodHistograms& RpcClient::HistogramsFor(
    std::string_view method) {
  auto it = method_histograms_.find(method);
  if (it == method_histograms_.end()) {
    const std::string prefix = "rpc." + std::string(method);
    MethodHistograms hists{&metrics_.Hist(prefix + ".latency"),
                           &metrics_.Hist(prefix + ".retries")};
    it = method_histograms_.emplace(method, hists).first;
  }
  return it->second;
}

sim::Task<StatusOr<std::string>> RpcClient::RawCall(NodeId to,
                                                    const char* method,
                                                    std::string payload,
                                                    CallOptions options) {
  const SimDuration attempt_timeout = options.attempt_timeout >= 0
                                          ? options.attempt_timeout
                                          : policy_.attempt_timeout;
  const SimDuration deadline =
      options.deadline >= 0 ? options.deadline : policy_.deadline;
  const int max_attempts = std::max(
      1, options.max_attempts > 0 ? options.max_attempts
                                  : policy_.max_attempts);

  const SimTime start = sim_->now();
  const size_t request_bytes = payload.size();
  StatusOr<std::string> result = Status::Unavailable("rpc: not attempted");
  int attempt = 0;

  while (true) {
    // Clamp this attempt's transport timeout to the remaining deadline.
    SimDuration timeout = attempt_timeout;
    if (deadline > 0) {
      const SimDuration remaining = deadline - (sim_->now() - start);
      if (remaining <= 0) {
        result = Status::TimedOut(std::string("rpc deadline: ") + method);
        break;
      }
      if (timeout == 0 || timeout > remaining) timeout = remaining;
    }

    ++attempt;
    // The last permitted attempt hands the payload over; earlier ones keep
    // it for a retry. (A named local: GCC mis-destroys a conditional's
    // temporary inside a co_await operand.)
    std::string sent = attempt >= max_attempts ? std::move(payload) : payload;
    result = co_await network_->Call(self_, to, method, std::move(sent),
                                     timeout);
    if (result.ok() || !IsTransportError(result.status())) break;

    // Deadline exceeded surfaces TimedOut with no further attempts, even
    // when the last transport error was Unavailable.
    if (deadline > 0 && sim_->now() - start >= deadline) {
      result = Status::TimedOut(std::string("rpc deadline: ") + method);
      break;
    }
    if (attempt >= max_attempts) break;
    if (retry_tokens_ < 1.0) {
      metrics_.Add("rpc.budget_exhausted");
      break;
    }
    retry_tokens_ -= 1.0;
    metrics_.Add("rpc.retries");

    SimDuration backoff = policy_.initial_backoff;
    for (int i = 1; i < attempt && backoff < policy_.max_backoff; ++i) {
      backoff *= 2;
    }
    backoff = std::min(backoff, policy_.max_backoff);
    if (deadline > 0) {
      backoff = std::min(backoff, deadline - (sim_->now() - start));
    }
    if (backoff > 0) co_await sim_->Sleep(backoff);
  }

  if (result.ok()) {
    retry_tokens_ =
        std::min(policy_.retry_budget, retry_tokens_ + policy_.retry_refill);
  }

  const SimDuration elapsed = sim_->now() - start;
  metrics_.Add("rpc.calls");
  if (!result.ok()) metrics_.Add("rpc.errors");
  const MethodHistograms& hists = HistogramsFor(method);
  hists.latency->Record(elapsed);
  hists.retries->Record(attempt - 1);

  TraceEvent event;
  event.start = start;
  event.elapsed = elapsed;
  event.peer = to;
  event.method = method;
  event.attempts = attempt;
  event.request_bytes = request_bytes;
  event.reply_bytes = result.ok() ? result->size() : 0;
  event.outcome = result.ok() ? StatusCode::kOk : result.status().code();
  trace_.Record(event);

  co_return result;
}

}  // namespace globaldb::rpc
