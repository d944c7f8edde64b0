#include "sim/retry.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace vbr::sim {

void RetryPolicy::validate() const {
  if (max_attempts == 0) {
    throw std::invalid_argument("RetryPolicy: max_attempts must be >= 1");
  }
  if (backoff_base_s < 0.0 || backoff_max_s < 0.0 ||
      backoff_factor < 1.0) {
    throw std::invalid_argument("RetryPolicy: bad backoff parameters");
  }
  if (backoff_jitter < 0.0 || backoff_jitter >= 1.0) {
    throw std::invalid_argument("RetryPolicy: jitter must lie in [0, 1)");
  }
  if (request_timeout_s < 0.0) {
    throw std::invalid_argument("RetryPolicy: negative request timeout");
  }
}

double failed_attempt_delay_s(const net::FaultOutcome& outcome,
                              const net::FaultConfig& fault,
                              const RetryPolicy& policy,
                              double request_rtt_s) {
  switch (outcome.kind) {
    case net::FaultKind::kConnectFail:
      return fault.connect_fail_delay_s;
    case net::FaultKind::kTimeout:
      // The server stalls; the player aborts after its own timeout when it
      // has one, otherwise it sits out the full server stall.
      return request_rtt_s + (policy.request_timeout_s > 0.0
                                  ? policy.request_timeout_s
                                  : fault.timeout_s);
    case net::FaultKind::kMidDrop:
    case net::FaultKind::kNone:
      break;
  }
  throw std::logic_error("failed_attempt_delay_s: attempt moved bytes");
}

double backoff_delay_s(const RetryPolicy& policy, const net::FaultModel& model,
                       std::size_t chunk_index, std::size_t retry_index) {
  const double nominal = std::min(
      policy.backoff_base_s *
          std::pow(policy.backoff_factor, static_cast<double>(retry_index)),
      policy.backoff_max_s);
  return nominal * model.jitter_multiplier(chunk_index, retry_index,
                                           policy.backoff_jitter);
}

}  // namespace vbr::sim
