// Happens-before race auditor for rank-shared memory (DESIGN.md §8).
//
// The third pillar of sp::analysis: the collective-matching lint proves
// ranks agree on *what* they synchronize, the determinism auditor proves
// results don't depend on *when* they ran — this auditor proves the
// shared-memory accesses between synchronization points are race-free
// under every legal schedule, not just the observed one.
//
// How: RaceAuditor is an engine event listener (comm/events.hpp). The
// engine feeds it every rendezvous arrival/pickup and every rank kill; the
// SharedSpan / shared_store / note_shared_write annotations
// (analysis/shared.hpp) feed it every access to rank-shared memory. The
// auditor maintains one vector clock per rank — every rendezvous is a
// full synchronization of its group in this engine (no member picks up
// before all arrive), so arrivals join into a per-(group, seq) clock
// that every pickup acquires — and FastTrack-style shadow cells per
// shared byte. Two conflicting accesses (same byte, at least one write,
// different ranks) that no happens-before path orders are reported with
// both stages and both call sites, mirroring SpmdDivergenceError.
//
// Event model. Comm splits are built on an allgather, so they need no
// event of their own; shrink emits the same arrive/pickup pair keyed by
// the engine's failure count. An object derived once for a whole
// collective (allgather_derive) is published inside its rendezvous and
// read by every member at pickup, so a member that later writes to it
// races every other holder; its release clears its bytes, whose address
// a later object may reuse. Rank spawn is on_run_begin (all ranks fork
// from the host with fresh clocks); a kill's clock orders the victim's
// history before everything that synchronizes after the death (the
// engine lock serializes the kill against every later rendezvous on
// every backend).
//
// Why one deterministic fiber run suffices: the happens-before relation
// is built from the program's rendezvous structure, which a correct SPMD
// program fixes independently of scheduling — the fiber backend's
// serialized schedule observes the same arrivals, pickups, and accesses
// as any thread interleaving would. A race reported here is a pair that
// *some* legal schedule can reorder, even if this run happened to
// execute it safely; a clean audit covers them all. (TSan, by contrast,
// only sees the orderings that physically occurred.)
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/signature.hpp"
#include "comm/engine.hpp"
#include "comm/events.hpp"

namespace sp::analysis {

/// One side of a racy pair, as reported to the user.
struct RaceEndpoint {
  std::uint32_t world_rank = 0;
  bool is_write = false;
  std::uintptr_t addr = 0;
  std::size_t size = 0;
  std::string label;
  std::string stage;
  CallSite site;

  /// "write by world rank 1 (stage 'embed') at lattice.cpp:640 in
  /// restore_level".
  std::string describe() const;
};

/// One unordered conflicting access pair. `prior` is the access recorded
/// first in the audited run; `occurrences` counts how many conflicting
/// byte-pairs with the same (label, call-site pair) folded into this
/// finding — a full-array race reports once, not once per element.
struct RaceFinding {
  RaceEndpoint prior;
  RaceEndpoint later;
  std::uint64_t occurrences = 0;

  std::string describe() const;
};

struct RaceReport {
  std::vector<RaceFinding> races;  // deterministic order
  std::uint64_t accesses = 0;      // annotated accesses observed
  std::uint64_t sync_joins = 0;    // rendezvous pickups folded into clocks
  std::uint32_t nranks = 0;

  bool clean() const { return races.empty(); }
  /// Multi-line report; "race audit clean (...)" when no races.
  std::string str() const;
};

/// The vector-clock listener. Install around an engine run (ScopedRaceAudit
/// below, or audit_races for the common case); thread-safe, so it works
/// identically under the threads backend. State resets at on_run_begin,
/// so one auditor can observe several runs in sequence — report() covers
/// everything since the last reset.
class RaceAuditor final : public comm::EngineEvents {
 public:
  RaceAuditor() = default;
  ~RaceAuditor() override = default;
  RaceAuditor(const RaceAuditor&) = delete;
  RaceAuditor& operator=(const RaceAuditor&) = delete;

  void on_run_begin(std::uint32_t nranks) override;
  void on_arrive(std::uint32_t world_rank, std::uint64_t group,
                 std::uint64_t seq, double clock, const char* op,
                 const std::string* stage) override;
  void on_pickup(std::uint32_t world_rank, std::uint64_t group,
                 std::uint64_t seq) override;
  void on_publish(std::uint64_t group, std::uint64_t seq,
                  const comm::RaceAccess& object) override;
  void on_release(std::uintptr_t addr, std::size_t size) override;
  void on_rank_killed(std::uint32_t world_rank, double clock,
                      const std::string* stage) override;
  void on_access(const comm::RaceAccess& access) override;

  RaceReport report() const;

 private:
  /// One recorded access: endpoint + the owner's scalar clock at the
  /// access. Interned per rank so a loop writing a whole array from one
  /// call site produces one record, not N.
  struct AccessInfo {
    RaceEndpoint ep;
    std::uint64_t clock = 0;
  };

  /// Shadow state for one shared byte: the last write, and the last read
  /// per rank since that write.
  struct Cell {
    const AccessInfo* write = nullptr;
    std::vector<const AccessInfo*> reads;  // by world rank
  };

  /// Accumulating join clock of one in-flight rendezvous.
  struct Join {
    std::vector<std::uint64_t> clock;
    std::uint32_t pickups = 0;
    std::uint32_t arrivals = 0;
  };

  const AccessInfo* intern_(const comm::RaceAccess& access);
  static bool ordered_before_(const AccessInfo& prior,
                              const std::vector<std::uint64_t>& later_clock);
  void flag_(const AccessInfo& prior, const AccessInfo& later);
  /// Checks `access` (recorded as `cur`, made by a rank whose vector
  /// clock is `clock`) against the shadow cells it covers, then records it.
  void check_and_record_(const comm::RaceAccess& access, const AccessInfo* cur,
                         const std::vector<std::uint64_t>& clock);

  mutable std::mutex mu_;
  std::uint32_t nranks_ = 0;
  std::vector<std::vector<std::uint64_t>> vc_;  // per-rank vector clocks
  std::vector<std::uint64_t> fail_join_;        // join of dead ranks' clocks
  std::map<std::pair<std::uint64_t, std::uint64_t>, Join> joins_;
  std::unordered_map<std::uintptr_t, Cell> shadow_;
  std::deque<AccessInfo> infos_;                    // stable storage
  std::vector<const AccessInfo*> last_info_;        // interning, by rank
  std::map<std::string, RaceFinding> findings_;     // keyed for determinism
  std::uint64_t accesses_ = 0;
  std::uint64_t sync_joins_ = 0;
};

/// RAII installer: adds `auditor` to the engine's event listeners and
/// arms it as the access listener for the enclosing scope; on exit it
/// stops listening and the previous access listener (usually none) is
/// re-armed. With SP_ANALYSIS off it installs nothing: no race event
/// exists to listen to.
class ScopedRaceAudit {
 public:
  explicit ScopedRaceAudit(RaceAuditor& auditor) : auditor_(auditor) {
    if constexpr (comm::kRaceEvents) {
      comm::add_listener(&auditor);
      prev_access_ = comm::set_access_listener(&auditor);
    }
  }
  ~ScopedRaceAudit() {
    if constexpr (comm::kRaceEvents) {
      comm::set_access_listener(prev_access_);
      comm::remove_listener(&auditor_);
    }
  }
  ScopedRaceAudit(const ScopedRaceAudit&) = delete;
  ScopedRaceAudit& operator=(const ScopedRaceAudit&) = delete;

 private:
  RaceAuditor& auditor_;
  comm::EngineEvents* prev_access_ = nullptr;
};

/// Convenience: runs `program` on an engine built from `options` with a
/// fresh auditor installed and returns its report. Exceptions from the
/// run propagate after the auditor is uninstalled.
RaceReport audit_races(comm::BspEngine::Options options,
                       const std::function<void(comm::Comm&)>& program);

}  // namespace sp::analysis
