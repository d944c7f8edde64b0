#include "tracer.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <mutex>

namespace perfbench {
namespace {

struct Frame {
  std::uint64_t id = 0;
  std::int64_t start_ns = 0;
  std::int64_t child_ns = 0;
  std::uint64_t session = 0;
  SpanKind kind = SpanKind::kDecide;
  SchemeTag tag = SchemeTag::kOther;
};

struct ThreadState {
  std::uint64_t index = 0;  ///< Registration order; high bits of span ids.
  std::uint64_t local_ids = 0;
  std::uint64_t session = 0;
  std::vector<Frame> stack;
  Totals totals;
  bool has_top_level = false;
  Interval top_level;
  std::vector<SpanRecord> spans;
};

std::mutex g_registry_mu;
// Never shrinks: a thread's state outlives the thread so collect() can read
// it after the join.
std::vector<std::unique_ptr<ThreadState>> g_registry;

std::atomic<std::uint64_t> g_root_id{0};
std::atomic<bool> g_keep{false};
std::atomic<std::uint64_t> g_stride{1};
std::atomic<std::uint64_t> g_ids{0};

ThreadState& state() {
  thread_local ThreadState* mine = nullptr;
  if (mine == nullptr) {
    const std::lock_guard<std::mutex> lock(g_registry_mu);
    g_registry.push_back(std::make_unique<ThreadState>());
    mine = g_registry.back().get();
    mine->index = g_registry.size();
  }
  return *mine;
}

void open(SpanKind kind, SchemeTag tag, std::uint64_t session) {
  ThreadState& ts = state();
  Frame f;
  f.id = (ts.index << 40) | ++ts.local_ids;
  f.session = session;
  f.kind = kind;
  f.tag = tag;
  ts.stack.push_back(f);
  ts.stack.back().start_ns = now_ns();
}

}  // namespace

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kMakeScheme: return "abr.make_scheme";
    case SpanKind::kDecide: return "abr.decide";
    case SpanKind::kSchemeUpdate: return "abr.on_chunk_downloaded";
    case SpanKind::kMakeEstimator: return "net.make_estimator";
    case SpanKind::kEstimate: return "net.estimate_bps";
    case SpanKind::kEstimatorUpdate: return "net.on_chunk_downloaded";
    case SpanKind::kDelivery: return "fleet.delivery";
    case SpanKind::kSink: return "obs.sink";
    case SpanKind::kStep: return "sim.step";
    case SpanKind::kAnalyzeAb: return "exp.analyze_ab";
  }
  return "unknown";
}

const char* scheme_tag_name(SchemeTag tag) {
  switch (tag) {
    case SchemeTag::kCava: return "cava";
    case SchemeTag::kRobustMpc: return "robust_mpc";
    case SchemeTag::kBola: return "bola";
    case SchemeTag::kOther: return "other";
  }
  return "other";
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

void begin_leg(std::uint64_t root_id, bool keep,
               std::uint64_t session_stride) {
  g_root_id.store(root_id);
  g_keep.store(keep);
  g_stride.store(std::max<std::uint64_t>(1, session_stride));
}

void reset() {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  for (const std::unique_ptr<ThreadState>& ts : g_registry) {
    ts->totals = Totals{};
    ts->has_top_level = false;
    ts->spans.clear();
    ts->spans.shrink_to_fit();
  }
}

Totals collect() {
  const std::lock_guard<std::mutex> lock(g_registry_mu);
  Totals sum;
  for (const std::unique_ptr<ThreadState>& ts : g_registry) {
    for (std::size_t k = 0; k < kSpanKinds; ++k) {
      sum.kinds[k].calls += ts->totals.kinds[k].calls;
      sum.kinds[k].total_ns += ts->totals.kinds[k].total_ns;
      sum.kinds[k].self_ns += ts->totals.kinds[k].self_ns;
    }
    for (std::size_t t = 0; t < kSchemeTags; ++t) {
      sum.decide_by_tag[t].calls += ts->totals.decide_by_tag[t].calls;
      sum.decide_by_tag[t].total_ns += ts->totals.decide_by_tag[t].total_ns;
      sum.decide_by_tag[t].self_ns += ts->totals.decide_by_tag[t].self_ns;
    }
    sum.top_level_ns += ts->totals.top_level_ns;
    if (ts->has_top_level) {
      sum.top_level_by_thread.push_back(ts->top_level);
    }
  }
  return sum;
}

std::vector<SpanRecord> kept_spans() {
  std::vector<SpanRecord> out;
  {
    const std::lock_guard<std::mutex> lock(g_registry_mu);
    for (const std::unique_ptr<ThreadState>& ts : g_registry) {
      out.insert(out.end(), ts->spans.begin(), ts->spans.end());
    }
  }
  std::sort(out.begin(), out.end(),
            [](const SpanRecord& a, const SpanRecord& b) {
              return a.start_ns != b.start_ns ? a.start_ns < b.start_ns
                                              : a.id < b.id;
            });
  return out;
}

std::uint64_t next_id() { return g_ids.fetch_add(1) + 1; }

void set_current_session(std::uint64_t session) { state().session = session; }

ScopedSpan::ScopedSpan(SpanKind kind, SchemeTag tag) {
  open(kind, tag, state().session);
}

ScopedSpan::ScopedSpan(SpanKind kind, std::uint64_t session) {
  open(kind, SchemeTag::kOther, session);
}

ScopedSpan::~ScopedSpan() {
  const std::int64_t end = now_ns();
  ThreadState& ts = state();
  const Frame f = ts.stack.back();
  ts.stack.pop_back();
  const std::int64_t dur = end - f.start_ns;
  KindTotals& kt = ts.totals.kinds[static_cast<std::size_t>(f.kind)];
  ++kt.calls;
  kt.total_ns += dur;
  kt.self_ns += dur - f.child_ns;
  if (f.kind == SpanKind::kDecide) {
    KindTotals& tt = ts.totals.decide_by_tag[static_cast<std::size_t>(f.tag)];
    ++tt.calls;
    tt.total_ns += dur;
    tt.self_ns += dur - f.child_ns;
  }
  std::uint64_t parent = 0;
  if (ts.stack.empty()) {
    ts.totals.top_level_ns += dur;
    if (!ts.has_top_level) {
      ts.has_top_level = true;
      ts.top_level.start_ns = f.start_ns;
    }
    ts.top_level.end_ns = end;
    parent = g_root_id.load(std::memory_order_relaxed);
  } else {
    ts.stack.back().child_ns += dur;
    parent = ts.stack.back().id;
  }
  if (g_keep.load(std::memory_order_relaxed) &&
      f.session % g_stride.load(std::memory_order_relaxed) == 0) {
    ts.spans.push_back(
        SpanRecord{f.id, parent, f.session, f.start_ns, end, f.kind, f.tag});
  }
}

}  // namespace perfbench
