// MPC and RobustMPC (Yin et al., SIGCOMM 2015).
//
// Model-predictive control: enumerate track sequences over a short horizon,
// simulate the buffer forward using the *actual* per-chunk sizes (the VBR
// recommendation the paper follows for all baselines) and the bandwidth
// estimate, and maximize a QoE objective
//
//   QoE = sum_k q(l_k) - lambda * sum_k |q(l_k) - q(l_{k-1})| - mu * rebuffer
//
// with q(l) the track's average bitrate in Mbps. Only the first decision of
// the optimizing sequence is executed (receding horizon).
//
// RobustMPC divides the bandwidth estimate by (1 + max relative prediction
// error observed over the last 5 chunks), which markedly reduces rebuffering
// under dynamic bandwidth at some cost in quality.
//
// Two search engines produce bit-identical decisions (DESIGN.md §10):
//   - the pruned engine (default): per-decision size/quality tables filled
//     by one batched provider query per track, an arena-backed depth-first
//     search whose scratch is reused across decisions, greedy child
//     ordering at every level (an incumbent kept in the reference's
//     (QoE, smallest first track) order makes visit order free), and
//     admissible upper-bound pruning (per-depth step bounds from a buffer
//     upper bound, a rebuffer lower bound and the known previous track,
//     accumulated with the same rounding as the real accumulation);
//   - the reference engine: the original recursive enumerator over all
//     tracks^horizon sequences, kept as the differential-testing oracle.
// The differential suite (tests/test_mpc_differential.cpp) pins that both
// engines return the same track and the same searched QoE on randomized
// ladders, horizons, and size-knowledge modes.
#pragma once

#include <cstddef>
#include <deque>
#include <vector>

#include "abr/scheme.h"

namespace vbr::abr {

struct MpcConfig {
  std::size_t horizon = 5;      ///< Chunks to look ahead (paper: 5).
  double lambda = 1.0;          ///< Smoothness penalty weight.
  double mu_rebuffer = 8.0;     ///< Rebuffer penalty (QoE per second).
  bool robust = false;          ///< RobustMPC bandwidth discounting.
  std::size_t error_window = 5; ///< Prediction-error memory (robust mode).
  /// Use the exhaustive reference enumerator instead of the pruned search.
  /// Decisions and QoE are bit-identical either way; the flag exists so
  /// tests and benches can cross-check the optimized hot path against the
  /// original implementation.
  bool reference_search = false;
};

class Mpc : public AbrScheme {
 public:
  explicit Mpc(MpcConfig config = {});

  [[nodiscard]] Decision decide(const StreamContext& ctx) override;
  void on_chunk_downloaded(const StreamContext& ctx, std::size_t track,
                           double download_s) override;
  void reset() override;
  [[nodiscard]] std::string name() const override {
    return config_.robust ? "RobustMPC" : "MPC";
  }

  /// QoE of the optimizing sequence found by the most recent decide() —
  /// diagnostics and the differential suite's same-QoE assertion. 0 before
  /// any decision.
  [[nodiscard]] double last_best_qoe() const { return last_best_qoe_; }

  /// Interior search nodes the pruned engine expanded in the most recent
  /// decide() — a measure of pruning power for tests and benches. 0 for
  /// the reference engine and before any decision.
  [[nodiscard]] std::size_t last_nodes_expanded() const {
    return last_nodes_expanded_;
  }

  [[nodiscard]] const MpcConfig& config() const { return config_; }

 private:
  [[nodiscard]] Decision decide_reference(const StreamContext& ctx,
                                          double bandwidth_bps);
  [[nodiscard]] Decision decide_pruned(const StreamContext& ctx,
                                       double bandwidth_bps);

  MpcConfig config_;
  double last_prediction_bps_ = 0.0;  ///< Estimate used for the last decision.
  double last_best_qoe_ = 0.0;
  std::size_t last_nodes_expanded_ = 0;
  std::deque<double> relative_errors_;

  // Arena-backed per-decision scratch for the pruned engine, reused across
  // decisions and sessions (capacity persists; every cell read by a search
  // is written first by the same decide() call, so no decision state leaks
  // — the scratch-reuse regression tests pin this).
  std::vector<double> quality_scratch_;  ///< Per-track quality (Mbps).
  std::vector<double> dl_scratch_;       ///< K x L download seconds.
  std::vector<double> size_scratch_;     ///< Batched per-track size rows.
  std::vector<double> bound_next_;       ///< K x L step bounds after track.
  std::vector<double> bound_deep_;       ///< K step bounds, any track.
  std::vector<double> child_qoe_;        ///< K x L candidate partial QoE.
  std::vector<double> child_buf_;        ///< K x L candidate buffers.
  std::vector<std::size_t> order_;       ///< K x L child visit order.
};

/// Differential-testing oracle: an Mpc pinned to the original recursive
/// enumerator. Same config semantics, same name(), same decisions — only
/// the search implementation differs.
class ReferenceMpc final : public Mpc {
 public:
  explicit ReferenceMpc(MpcConfig config = {})
      : Mpc(with_reference_search(config)) {}

 private:
  static MpcConfig with_reference_search(MpcConfig config) {
    config.reference_search = true;
    return config;
  }
};

/// Convenience factories matching the paper's two variants.
[[nodiscard]] MpcConfig mpc_config();
[[nodiscard]] MpcConfig robust_mpc_config();

}  // namespace vbr::abr
