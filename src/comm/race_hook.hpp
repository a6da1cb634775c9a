// Happens-before hook surface of the BSP engine (the race-audit analogue
// of obs_hook.hpp).
//
// sp::analysis::race wants to see every synchronization edge the engine
// creates — rendezvous arrivals and pickups, rank spawns and kills — plus
// every annotated shared-memory access, but sp_comm must not depend on
// sp_analysis. The inversion lives here: the engine (and the header-only
// instrumentation in analysis/shared.hpp) calls a process-global RaceSink
// through this tiny interface, and every call is compiled out when the
// build has SP_ANALYSIS off, so the hook costs nothing in production
// builds. sp::analysis::RaceAuditor implements the sink and turns the
// event stream into vector clocks (DESIGN.md §8).
//
// Event model. Every engine rendezvous — collective, exchange superstep,
// or shrink — is a full synchronization of its communicator group: no
// member can pick its result up before every member has arrived, on
// either backend. The hook therefore only needs two events per
// rendezvous and rank: on_rendezvous_arrive when the rank contributes
// (its clock is published to the group) and on_rendezvous_pickup when it
// leaves (it acquires the join of all members' arrival clocks). Comm
// splits are built on an allgather, so they need no event of their own;
// shrink emits the same pair keyed by the engine's failure count. An
// object derived once for a whole collective (allgather_derive) is
// published inside its rendezvous and read by every member at pickup, so
// a member that later writes to it races every other holder; its release
// clears its bytes, whose address a later object may reuse. Rank
// spawn is on_run_begin (all ranks fork from the host with fresh
// clocks); a fault-plan or detector kill emits on_rank_killed, whose
// clock orders the victim's history before everything that
// synchronizes after the death (the engine lock serializes the kill
// against every later rendezvous on both backends).
//
// Threading: the sink is installed before a run and uninstalled after
// it, so the global pointer needs no lock. The engine emits rendezvous /
// kill events under its engine lock; on_access is emitted from rank
// bodies with no lock held (instrumented accesses happen between
// rendezvous), so the sink must synchronize internally.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "analysis/signature.hpp"  // CallSite (header-only, std-only)

namespace sp::comm {

/// One annotated shared-memory access, as analysis::SharedSpan (or the
/// shared_store/shared_load annotations) saw it. `label` names the
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

class RaceSink {
 public:
  virtual ~RaceSink() = default;

  /// A BspEngine run is starting with `nranks` fresh ranks: reset all
  /// per-run state (vector clocks, shadow memory). Emitted from the host
  /// thread before any rank executes.
  virtual void on_run_begin(std::uint32_t nranks) = 0;

  /// `world_rank` arrived at rendezvous (`group`, `seq`): its current
  /// clock joins the rendezvous. Emitted under the engine lock.
  virtual void on_rendezvous_arrive(std::uint32_t world_rank,
                                    std::uint64_t group,
                                    std::uint64_t seq) = 0;

  /// `world_rank` picked up the completed rendezvous (`group`, `seq`):
  /// it acquires the join of every member's arrival clock. Emitted under
  /// the engine lock, after all members arrived.
  virtual void on_rendezvous_pickup(std::uint32_t world_rank,
                                    std::uint64_t group,
                                    std::uint64_t seq) = 0;

  /// `object.world_rank` derived `object` from the result of rendezvous
  /// (`group`, `seq`) after every member arrived and before any member
  /// picked the object up (allgather_derive). The write belongs to the
  /// rendezvous: it is ordered after every arrival and before every
  /// pickup. Each member that picks the object up then reports a read of
  /// it through on_access. Emitted under the engine lock.
  virtual void on_rendezvous_publish(std::uint64_t group, std::uint64_t seq,
                                     const RaceAccess& object) = 0;

  /// The derived object at [addr, addr + size) is about to be freed by
  /// its last holder. Its memory may next hold an unrelated object, whose
  /// accesses must not be checked against this one's. Emitted from the
  /// releasing rank's context, possibly with no engine lock held.
  virtual void on_release(std::uintptr_t addr, std::size_t size) = 0;

  /// `world_rank` was killed (fault plan or failure detector). Its final
  /// clock orders the victim's past before every rendezvous completed
  /// after the death. Emitted under the engine lock.
  virtual void on_rank_killed(std::uint32_t world_rank) = 0;

  /// An annotated access to rank-shared memory. Emitted from the rank's
  /// own context with no engine lock held.
  virtual void on_access(const RaceAccess& access) = 0;
};

/// Currently installed sink (nullptr = none). Defined in engine.cpp.
RaceSink* race_sink();

/// Installs `sink` (nullptr uninstalls); returns the previous one so
/// scoped installers can nest.
RaceSink* set_race_sink(RaceSink* sink);

}  // namespace sp::comm
