// Shared-virtual-time event-driven fleet engine.
//
// The per-session stepper (fleet.cpp) runs each session to completion on
// whichever worker claimed its title, so at most `threads` sessions are
// ever in flight and per-title work is serial end to end. This engine
// inverts the loop: each session's NEXT chunk-decision is an event on one
// global virtual timeline — a binary min-heap keyed by
// (virtual_time = arrival_s + session-local clock, session_id), the id
// breaking virtual-time ties deterministically — so 100k+ sessions can be
// in flight concurrently with columnar (struct-of-arrays) per-session
// state: one lane each for the resumable SessionStepper (sim/stepper.h),
// scheme, estimator, and size provider, indexed by session id and freed at
// completion.
//
// Determinism at any thread count. Events are popped in fixed-size batches
// (kEventBatch, independent of the thread count so checkpoint cuts land on
// the same event boundaries regardless of parallelism). A batch holds
// distinct sessions, whose steppers touch disjoint state, so the step
// phase runs data-parallel across a small worker pool; everything that
// orders shared state — pushing follow-up events, completing sessions,
// folding records, checkpoint and kill barriers — happens in a serial
// post-phase in event order. No fold ever sees worker order.
//
// Coupled titles. With the edge cache on, a title's sessions share
// mutable delivery state (shard, CDN fetch windows, shed ladder) and the
// stepper semantics are "serial in arrival order per title". The engine
// preserves that byte for byte by CHAINING such titles: only the first
// unfinished session of a title is admitted; its completion schedules the
// next one at that session's own arrival time. Uncoupled workloads
// (use_cache = false) admit every arrival up front and interleave freely —
// that is the 100k-concurrency mode, where global virtual time is also
// monotone (chained admissions may legitimately rewind it, since a
// successor's arrival can precede the global clock).
//
// Crash safety. The event engine appends to the same checkpoint journal
// as the stepper (fleet/checkpoint.h), its segment headers saying "engine
// event" and carrying events_done: periodic segments fire on event-count
// barriers between batches, kills at batch boundaries. Sessions are
// encoded in the serial completion phase, and each segment is captured and
// committed inline at its barrier. Chained titles
// snapshot their shared delivery state at each session completion (a
// boundary snapshot), because the live shard mid-batch can reflect a
// half-run session; in-flight sessions are simply re-simulated on resume.
#pragma once

#include "fleet/fleet_internal.h"

namespace vbr::fleet::detail {

/// Executes every remaining session of ctx on one shared-virtual-time
/// event timeline; on return, ctx's mutable state (done counts, shard /
/// CDN folds, track rows, records or streamed folds) is exactly what the
/// stepper's worker pool would have left, so run_fleet's finalize runs
/// unchanged on top. Throws FleetKilled when the kill schedule fires,
/// std::system_error on checkpoint I/O failure, and propagates the first
/// session error in event order.
void run_fleet_event(EngineContext& ctx);

}  // namespace vbr::fleet::detail
