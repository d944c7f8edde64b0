#include "abr/mpc.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

namespace vbr::abr {

namespace {

/// Reference engine: recursively enumerates every track sequence, tracking
/// buffer evolution and the partial QoE, and records the best first-step
/// decision. Kept verbatim as the differential-testing oracle for the
/// pruned engine below.
struct HorizonSearch {
  const video::Video* video = nullptr;
  const StreamContext* ctx = nullptr;  ///< Size-knowledge view of the chunks.
  std::size_t first_chunk = 0;
  std::size_t horizon = 0;
  std::size_t visible_limit = 0;  ///< Chunks beyond this are unannounced.
  double bandwidth_bps = 0.0;
  double max_buffer_s = 0.0;
  double lambda = 0.0;
  double mu = 0.0;

  double best_qoe = -1e300;
  std::size_t best_first = 0;

  [[nodiscard]] double quality_mbps(std::size_t track) const {
    return video->track(track).average_bitrate_bps() / 1e6;
  }

  void search(std::size_t depth, std::size_t chunk, double buffer_s,
              double prev_quality, double qoe, std::size_t first_track) {
    if (depth == horizon || chunk >= visible_limit) {
      if (qoe > best_qoe) {
        best_qoe = qoe;
        best_first = first_track;
      }
      return;
    }
    for (std::size_t l = 0; l < video->num_tracks(); ++l) {
      const double dl_s = ctx->chunk_size_bits(l, chunk) / bandwidth_bps;
      const double rebuffer = std::max(dl_s - buffer_s, 0.0);
      double buf = std::max(buffer_s - dl_s, 0.0) +
                   video->chunk_duration_s();
      buf = std::min(buf, max_buffer_s);
      const double q = quality_mbps(l);
      const double smooth =
          prev_quality >= 0.0 ? std::abs(q - prev_quality) : 0.0;
      const double step_qoe = q - lambda * smooth - mu * rebuffer;
      search(depth + 1, chunk + 1, buf, q, qoe + step_qoe,
             depth == 0 ? l : first_track);
    }
  }
};

/// One step's QoE contribution — the reference's expression, shared by the
/// pruned search and its bounds so both round identically.
inline double step_value(double q, double smooth, double rebuffer,
                         double lambda, double mu) {
  return q - lambda * smooth - mu * rebuffer;
}

/// Pruned engine: depth-first search over the same tree, on per-decision
/// memoized size/quality tables, with greedy child ordering at every level
/// and admissible upper-bound pruning. Produces bit-identical
/// (best_qoe, best_first) to HorizonSearch:
///   - every step value and accumulation uses the exact expressions (and
///     hence rounding) of the reference, over identical inputs (providers
///     are deterministic per (track, chunk), so batched reads agree with
///     per-node reads);
///   - the bound adds one per-depth step bound per remaining level using
///     the same float additions a real path would take; each step bound
///     dominates every real step at its depth (DESIGN.md §10), so by
///     monotonicity of rounding the bound dominates every leaf below — a
///     subtree is only skipped when no leaf in it can beat the incumbent;
///   - the reference returns the lexicographic maximum of
///     (QoE, -first track); the incumbent is compared in that same total
///     order (`beats`), so any visit order reaches the same winner.
struct PrunedSearch {
  const double* quality = nullptr;     ///< L per-track qualities (Mbps).
  const double* dl = nullptr;          ///< K x L download seconds.
  const double* next_bound = nullptr;  ///< K x L: depth k, previous track.
  const double* deep_bound = nullptr;  ///< K: depth k, any previous track.
  double* child_qoe = nullptr;         ///< K x L arena row per depth.
  double* child_buf = nullptr;
  std::size_t* order = nullptr;
  std::size_t levels = 0;  ///< K: effective search depth.
  std::size_t tracks = 0;  ///< L.
  double chunk_duration_s = 0.0;
  double max_buffer_s = 0.0;
  double lambda = 0.0;
  double mu = 0.0;

  double best_qoe = -1e300;
  std::size_t best_first = 0;
  std::size_t expanded = 0;

  /// True if a plan scoring `qoe` with first track `first` comes before
  /// the incumbent in the reference's order: higher QoE, or equal QoE and
  /// a smaller first track.
  [[nodiscard]] bool beats(double qoe, std::size_t first) const {
    return qoe > best_qoe || (qoe == best_qoe && first < best_first);
  }

  /// True if a leaf below the depth-`depth` node on `track` with partial
  /// QoE `qoe` and first track `first` could still beat the incumbent. The
  /// bound is the real accumulation chain with every step replaced by its
  /// bound, so it rounds like a real path; no early exit, since step bounds
  /// may be negative.
  [[nodiscard]] bool can_improve(double qoe, std::size_t depth,
                                 std::size_t track, std::size_t first) const {
    double bound = qoe + next_bound[(depth + 1) * tracks + track];
    for (std::size_t k = depth + 2; k < levels; ++k) {
      bound += deep_bound[k];
    }
    return beats(bound, first);
  }

  void search(std::size_t depth, double buffer_s, double prev_quality,
              double qoe, std::size_t first_track) {
    ++expanded;
    const double* dl_row = dl + depth * tracks;
    double* cq = child_qoe + depth * tracks;
    double* cb = child_buf + depth * tracks;
    std::size_t* ord = order + depth * tracks;
    for (std::size_t l = 0; l < tracks; ++l) {
      const double dl_s = dl_row[l];
      const double rebuffer = std::max(dl_s - buffer_s, 0.0);
      double buf = std::max(buffer_s - dl_s, 0.0) + chunk_duration_s;
      buf = std::min(buf, max_buffer_s);
      const double q = quality[l];
      const double smooth =
          prev_quality >= 0.0 ? std::abs(q - prev_quality) : 0.0;
      cq[l] = qoe + step_value(q, smooth, rebuffer, lambda, mu);
      cb[l] = buf;
      ord[l] = l;
    }
    if (depth + 1 == levels) {
      // Leaves. The incumbent's order is total, so they need no ordering.
      for (std::size_t l = 0; l < tracks; ++l) {
        const std::size_t first = depth == 0 ? l : first_track;
        if (beats(cq[l], first)) {
          best_qoe = cq[l];
          best_first = first;
        }
      }
      return;
    }
    // Greedy ordering: the most promising subtree first, so the incumbent
    // tightens early and the bound prunes the rest. Insertion sort on
    // (partial QoE descending, track ascending) — ladders are a handful of
    // tracks.
    for (std::size_t j = 1; j < tracks; ++j) {
      const std::size_t l = ord[j];
      std::size_t i = j;
      for (; i > 0 && cq[l] > cq[ord[i - 1]]; --i) {
        ord[i] = ord[i - 1];
      }
      ord[i] = l;
    }
    for (std::size_t j = 0; j < tracks; ++j) {
      const std::size_t l = ord[j];
      const std::size_t first = depth == 0 ? l : first_track;
      if (can_improve(cq[l], depth, l, first)) {
        search(depth + 1, cb[l], quality[l], cq[l], first);
      }
    }
  }
};

}  // namespace

Mpc::Mpc(MpcConfig config) : config_(config) {
  if (config_.horizon == 0 || config_.lambda < 0.0 ||
      config_.mu_rebuffer < 0.0 || config_.error_window == 0) {
    throw std::invalid_argument("Mpc: bad config");
  }
}

Decision Mpc::decide(const StreamContext& ctx) {
  validate_context(ctx);
  double bw = ctx.est_bandwidth_bps;
  if (bw <= 0.0) {
    throw std::invalid_argument("Mpc: non-positive bandwidth estimate");
  }
  // The error history is measured against the *raw* estimate; discounting
  // the prediction itself would feed back into ever-larger errors.
  last_prediction_bps_ = bw;
  if (config_.robust && !relative_errors_.empty()) {
    const double max_err =
        *std::max_element(relative_errors_.begin(), relative_errors_.end());
    bw /= (1.0 + max_err);
  }
  return config_.reference_search ? decide_reference(ctx, bw)
                                  : decide_pruned(ctx, bw);
}

Decision Mpc::decide_reference(const StreamContext& ctx,
                               double bandwidth_bps) {
  HorizonSearch s;
  s.video = ctx.video;
  s.ctx = &ctx;
  s.first_chunk = ctx.next_chunk;
  s.horizon = config_.horizon;
  s.visible_limit = ctx.lookahead_limit();
  s.bandwidth_bps = bandwidth_bps;
  s.max_buffer_s = ctx.max_buffer_s;
  s.lambda = config_.lambda;
  s.mu = config_.mu_rebuffer;
  const double prev_q =
      ctx.prev_track >= 0
          ? ctx.video->track(static_cast<std::size_t>(ctx.prev_track))
                    .average_bitrate_bps() /
                1e6
          : -1.0;
  s.search(0, ctx.next_chunk, ctx.buffer_s, prev_q, 0.0, 0);
  last_best_qoe_ = s.best_qoe;
  last_nodes_expanded_ = 0;
  return Decision{.track = s.best_first};
}

Decision Mpc::decide_pruned(const StreamContext& ctx, double bandwidth_bps) {
  const video::Video& video = *ctx.video;
  const std::size_t tracks = video.num_tracks();
  const std::size_t first = ctx.next_chunk;
  const std::size_t visible = ctx.lookahead_limit();
  // The reference leaf condition (depth == horizon || chunk >= visible)
  // truncates every path at the same depth.
  const std::size_t levels =
      visible > first ? std::min(config_.horizon, visible - first) : 0;
  if (levels == 0) {
    // Zero-step window: the enumerator scores the empty sequence (QoE 0)
    // and keeps the initial first track of 0.
    last_best_qoe_ = 0.0;
    last_nodes_expanded_ = 0;
    return Decision{.track = 0};
  }

  quality_scratch_.resize(tracks);
  for (std::size_t l = 0; l < tracks; ++l) {
    quality_scratch_[l] = video.track(l).average_bitrate_bps() / 1e6;
  }

  // One batched size query per track for the whole window, then the same
  // size / bandwidth division the reference performs per node.
  size_scratch_.resize(levels);
  dl_scratch_.resize(levels * tracks);
  for (std::size_t l = 0; l < tracks; ++l) {
    ctx.fill_chunk_sizes(l, first, first + levels, size_scratch_.data());
    for (std::size_t k = 0; k < levels; ++k) {
      dl_scratch_[k * tracks + l] = size_scratch_[k] / bandwidth_bps;
    }
  }

  // Per-depth step bounds (DESIGN.md §10). buffer_ub follows the buffer
  // chain with zero download time, which no real path's buffer exceeds, so
  // max(dl - buffer_ub, 0) is a lower bound on the rebuffer at that depth.
  // The step after a known track keeps its smoothness term; deeper steps
  // drop it. Depth 0 is searched exactly and needs no bound.
  const double chunk_duration_s = video.chunk_duration_s();
  const double lambda = config_.lambda;
  const double mu = config_.mu_rebuffer;
  bound_next_.resize(levels * tracks);
  bound_deep_.resize(levels);
  double buffer_ub = ctx.buffer_s;
  for (std::size_t k = 1; k < levels; ++k) {
    buffer_ub = std::min(buffer_ub + chunk_duration_s, ctx.max_buffer_s);
    double* next_row = bound_next_.data() + k * tracks;
    std::fill(next_row, next_row + tracks,
              -std::numeric_limits<double>::infinity());
    double deep = -std::numeric_limits<double>::infinity();
    for (std::size_t l = 0; l < tracks; ++l) {
      const double rebuffer_lb =
          std::max(dl_scratch_[k * tracks + l] - buffer_ub, 0.0);
      const double q = quality_scratch_[l];
      deep = std::max(deep, step_value(q, 0.0, rebuffer_lb, lambda, mu));
      for (std::size_t p = 0; p < tracks; ++p) {
        const double smooth = std::abs(q - quality_scratch_[p]);
        next_row[p] = std::max(
            next_row[p], step_value(q, smooth, rebuffer_lb, lambda, mu));
      }
    }
    bound_deep_[k] = deep;
  }
  child_qoe_.resize(levels * tracks);
  child_buf_.resize(levels * tracks);
  order_.resize(levels * tracks);

  PrunedSearch s;
  s.quality = quality_scratch_.data();
  s.dl = dl_scratch_.data();
  s.next_bound = bound_next_.data();
  s.deep_bound = bound_deep_.data();
  s.child_qoe = child_qoe_.data();
  s.child_buf = child_buf_.data();
  s.order = order_.data();
  s.levels = levels;
  s.tracks = tracks;
  s.chunk_duration_s = chunk_duration_s;
  s.max_buffer_s = ctx.max_buffer_s;
  s.lambda = lambda;
  s.mu = mu;
  const double prev_q =
      ctx.prev_track >= 0
          ? quality_scratch_[static_cast<std::size_t>(ctx.prev_track)]
          : -1.0;
  s.search(0, ctx.buffer_s, prev_q, 0.0, 0);
  last_nodes_expanded_ = s.expanded;
  last_best_qoe_ = s.best_qoe;
  return Decision{.track = s.best_first};
}

void Mpc::on_chunk_downloaded(const StreamContext& ctx, std::size_t track,
                              double download_s) {
  if (!config_.robust || last_prediction_bps_ <= 0.0) {
    return;
  }
  // The error history compares against *actual* delivered bytes — a real
  // client counts what it received, regardless of manifest size knowledge.
  const double actual_bps =
      ctx.video->chunk_size_bits(track, ctx.next_chunk) / download_s;
  const double rel_err =
      std::abs(actual_bps - last_prediction_bps_) / last_prediction_bps_;
  relative_errors_.push_back(rel_err);
  if (relative_errors_.size() > config_.error_window) {
    relative_errors_.pop_front();
  }
}

void Mpc::reset() {
  last_prediction_bps_ = 0.0;
  last_best_qoe_ = 0.0;
  last_nodes_expanded_ = 0;
  relative_errors_.clear();
}

MpcConfig mpc_config() { return MpcConfig{}; }

MpcConfig robust_mpc_config() {
  MpcConfig c;
  c.robust = true;
  return c;
}

}  // namespace vbr::abr
