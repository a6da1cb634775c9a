// The BSP engine's event stream: one listener interface for every tool
// that watches a run.
//
// Three tools listen to the engine, and none of them may be a link
// dependency of sp_comm: obs::Recorder (the per-op trace behind the
// modeled-time figures, DESIGN.md §6), obs::flight::FlightRecorder (the
// always-on black box, §9) and analysis::RaceAuditor (the happens-before
// auditor, §8). Each derives from EngineEvents and overrides the events
// it needs; every method defaults to a no-op.
//
// Fan-out. The engine keeps one process-global list of listeners and
// calls each event on every listener, in install order. The scoped
// installers (obs::ScopedRecording, obs::flight::ScopedFlightRecording,
// analysis::ScopedRaceAudit) add their listener on entry and remove it on
// exit, so nested scopes stack: an event emitted inside an inner scope
// reaches the inner and the outer listener; after the inner scope closes
// it reaches only the outer one. The list is changed between runs only,
// never while ranks execute, so rank threads read it without a lock.
//
// Build flavors. Each event family is compiled in only with the flag of
// the tool that consumes it (kObsEvents / kRaceEvents below); the engine
// checks the flag inside each emit helper. Arrivals and kills feed both
// families. The installers add a listener only when its family is
// compiled in, so every listener sees the same events in every flavor.
//
// Annotated shared accesses (on_access) do not fan out: they come from
// rank bodies once per annotated access (analysis/shared.hpp), and the
// flight recorder every scalapart run installs has no use for them. They
// go to the single access listener, which only ScopedRaceAudit arms.
//
// Threading. on_run_begin and on_comm_counters come from the host thread
// before and after the ranks execute; every other event except
// on_release and on_access is emitted under the engine lock (calls are
// serialized on every backend). on_release comes from whichever rank
// drops the last reference, on_access from the accessing rank; both may
// run with no lock held, so a listener that takes them synchronizes
// internally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "analysis/signature.hpp"  // CallSite (header-only, std-only)

namespace sp::comm {

#ifdef SP_OBS
inline constexpr bool kObsEvents = true;
#else
inline constexpr bool kObsEvents = false;
#endif
#ifdef SP_ANALYSIS
inline constexpr bool kRaceEvents = true;
#else
inline constexpr bool kRaceEvents = false;
#endif

/// One completed communication operation, as the engine saw it. `t_begin`
/// is the rank's clock when it entered the call (so t_end - t_begin
/// includes time spent waiting for the slowest group member — the BSP
/// synchronization cost a per-op trace is for).
struct CommOpEvent {
  std::uint32_t world_rank = 0;
  const char* op = "";                 // "allreduce", "exchange", "shrink", ...
  const std::string* stage = nullptr;  // rank's pipeline stage at the call
  std::uint64_t group = 0;             // communicator group id
  std::uint64_t seq = 0;               // collective sequence number (superstep)
  double t_begin = 0.0;
  double t_end = 0.0;
  std::uint64_t messages = 0;          // messages this rank sent
  std::uint64_t bytes = 0;             // payload bytes this rank sent
  bool is_collective = false;          // false for exchange supersteps
};

/// One failure-detector decision: a suspicion drawn against `suspect`
/// (with its arrival lag), either absorbed as a retry or escalated to a
/// declared failure.
struct DetectorEvent {
  std::uint32_t suspect = 0;     // world rank under suspicion
  std::uint32_t suspicions = 0;  // cumulative count against this rank
  double lag_seconds = 0.0;      // arrival lag behind the earliest member
  bool escalated = false;        // true: declared failed (will be killed)
};

/// One access to rank-shared memory: an annotated access
/// (analysis::SharedSpan, shared_store/shared_load) or a read or write of
/// an object derived once for a whole collective. `label` names the
/// shared structure ("embed/owner.L2"); `stage` is the rank's pipeline
/// stage at the access, so race reports can mirror SpmdDivergenceError
/// diagnostics (both stages, both call sites).
struct RaceAccess {
  std::uint32_t world_rank = 0;
  std::uintptr_t addr = 0;
  std::size_t size = 0;
  bool is_write = false;
  const char* label = "";
  const std::string* stage = nullptr;
  analysis::CallSite site;
};

class EngineEvents {
 public:
  virtual ~EngineEvents() = default;

  /// A run is starting with `nranks` fresh ranks; emitted from the host
  /// thread before any rank executes. [race]
  virtual void on_run_begin(std::uint32_t /*nranks*/) {}

  /// `world_rank` arrived at rendezvous (`group`, `seq`) of operation
  /// `op` ("allreduce", "exchange", "shrink", ...) at modeled time
  /// `clock`, in pipeline stage `stage`. Emitted before the rendezvous
  /// completes, so the record survives a rank that never leaves it.
  /// [obs, race]
  virtual void on_arrive(std::uint32_t /*world_rank*/,
                         std::uint64_t /*group*/, std::uint64_t /*seq*/,
                         double /*clock*/, const char* /*op*/,
                         const std::string* /*stage*/) {}

  /// `world_rank` picked up the completed rendezvous (`group`, `seq`),
  /// after every member arrived. Every rendezvous — collective, exchange
  /// superstep or shrink — fully synchronizes its group, so the rank
  /// leaves with the join of every member's arrival. [race]
  virtual void on_pickup(std::uint32_t /*world_rank*/,
                         std::uint64_t /*group*/, std::uint64_t /*seq*/) {}

  /// `object.world_rank` derived `object` from the result of rendezvous
  /// (`group`, `seq`) after every member arrived and before any member
  /// picked it up (allgather_derive, broadcast_derive). Each member that
  /// picks the object up then reads it (on_access). [race]
  virtual void on_publish(std::uint64_t /*group*/, std::uint64_t /*seq*/,
                          const RaceAccess& /*object*/) {}

  /// The derived object at [addr, addr + size) is about to be freed by
  /// its last holder; a later object may reuse its address. Emitted from
  /// the releasing rank, possibly with no engine lock held. [race]
  virtual void on_release(std::uintptr_t /*addr*/, std::size_t /*size*/) {}

  /// `world_rank` was killed (fault plan or failure detector) at modeled
  /// time `clock` in stage `stage`. The engine lock orders the death
  /// before every rendezvous completed after it. [obs, race]
  virtual void on_rank_killed(std::uint32_t /*world_rank*/,
                              double /*clock*/,
                              const std::string* /*stage*/) {}

  /// One failure-detector decision, with the suspect's modeled clock.
  /// [obs]
  virtual void on_detector(const DetectorEvent& /*ev*/, double /*clock*/) {}

  /// A completed communication operation. [obs]
  virtual void on_comm_op(const CommOpEvent& /*ev*/) {}

  /// End-of-run mailbox and allocator counters of one rank: packed
  /// messages formed by exchange coalescing and the rank's arena stats.
  /// Deliberately not part of CommOpEvent, so per-op traces stay
  /// byte-identical whether coalescing is on or off. [obs]
  virtual void on_comm_counters(std::uint32_t /*world_rank*/,
                                std::uint64_t /*coalesced_batches*/,
                                std::uint64_t /*arena_acquires*/,
                                std::uint64_t /*arena_hits*/) {}

  /// An access to rank-shared memory, from the accessing rank with no
  /// engine lock held. Reaches only the access listener. [race]
  virtual void on_access(const RaceAccess& /*access*/) {}
};

/// Appends `listener` to the fan-out list. Defined in engine.cpp.
void add_listener(EngineEvents* listener);

/// Removes the most recently added occurrence of `listener`.
void remove_listener(EngineEvents* listener);

/// The listener on_access goes to (nullptr = none).
EngineEvents* access_listener();

/// Arms `listener` for on_access (nullptr disarms); returns the previous
/// one so scoped installers can nest.
EngineEvents* set_access_listener(EngineEvents* listener);

}  // namespace sp::comm
