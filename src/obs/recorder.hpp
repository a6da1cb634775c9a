// Recorder: collects span events, engine comm-op events, and metrics for
// one run (or one scope of runs).
//
// Installation is scoped: `obs::Recorder rec; obs::ScopedRecording on(rec);`
// makes `rec` Recorder::current() (where obs::Span and the metric helpers
// report) and adds it to the engine's event listeners (comm/events.hpp).
// With no recorder installed every instrumentation site is a cheap null
// check; with SP_OBS off the sites do not exist at all.
//
// Events land in per-rank lanes in program order, never interleaved
// across ranks — which is why the serialized output is bit-identical
// under every fiber Schedule (the scheduler permutes rank interleaving,
// not any single rank's program order). The same holds under the threads
// backend: an internal mutex serializes lane bookkeeping, but each lane
// still fills strictly in its own rank's program order, so recorded
// streams (and everything exported from them) match the fiber run's.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string_view>
#include <vector>

#include "comm/engine.hpp"
#include "comm/events.hpp"
#include "obs/events.hpp"
#include "obs/metrics.hpp"

namespace sp::obs {

class Recorder : public comm::EngineEvents {
 public:
  Recorder() = default;

  /// The recorder installed by the innermost live ScopedRecording
  /// (nullptr = observation off).
  static Recorder* current() { return current_; }

  // ---- Span interface (used by obs::Span; callable directly) ----

  void span_begin(std::uint32_t rank, std::string_view name,
                  std::string_view cat, std::int32_t level, double t,
                  const comm::CostSnapshot& at);
  /// Closes the innermost open span of `rank` (no-op if none), stamping
  /// the end event with the span's name/cat/level, its duration, and the
  /// comm/compute deltas since its begin.
  void span_end(std::uint32_t rank, double t, const comm::CostSnapshot& at);
  void instant(std::uint32_t rank, std::string_view name, std::string_view cat,
               double t);

  // ---- Engine events (comm/events.hpp) ----

  /// Records a kComplete comm event and feeds the comm metrics
  /// (comm/messages, comm/bytes, comm/ops.<op>).
  void on_comm_op(const comm::CommOpEvent& ev) override;

  /// Feeds the end-of-run mailbox/allocator counters into the metrics
  /// only (comm/coalesced_batches, comm/arena_acquires, comm/arena_hits)
  /// — no lane event, so serialized traces stay byte-identical whether
  /// exchange coalescing is on or off.
  void on_comm_counters(std::uint32_t world_rank,
                        std::uint64_t coalesced_batches,
                        std::uint64_t arena_acquires,
                        std::uint64_t arena_hits) override;

  /// Feeds failure-detector decisions into the metrics
  /// (fault/detector_suspicions, fault/detector_retries,
  /// fault/detector_escalations), keyed by the suspected rank.
  void on_detector(const comm::DetectorEvent& ev, double clock) override;

  // ---- Metrics ----

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  // ---- Introspection (exporters, report, tests) ----

  /// Number of lanes touched so far (== highest rank seen + 1).
  /// Introspection accessors are meant for after the run (exporters,
  /// report, tests) — they read without the internal lock.
  std::uint32_t num_lanes() const {
    return static_cast<std::uint32_t>(lanes_.size());
  }
  const std::vector<Event>& lane(std::uint32_t rank) const {
    return lanes_[rank];
  }
  std::size_t total_events() const;
  /// Open (unclosed) spans across all lanes — 0 once every Span
  /// destructed.
  std::size_t open_spans() const;

  void clear();

 private:
  friend class ScopedRecording;

  struct OpenSpan {
    comm::CostSnapshot at;      // snapshot at begin
    std::uint32_t begin_index;  // index of the kBegin event in the lane
    std::chrono::steady_clock::time_point wall_begin;
  };

  void ensure_lane_(std::uint32_t rank);

  static Recorder* current_;

  /// Serializes lane/stack bookkeeping when ranks are real threads (the
  /// lane vectors themselves resize, so even distinct-rank writers touch
  /// shared structure). Uncontended in fiber runs.
  std::mutex mu_;
  std::vector<std::vector<Event>> lanes_;
  std::vector<std::vector<OpenSpan>> open_;  // per-lane span stack
  MetricsRegistry metrics_;
};

/// RAII installer: `rec` becomes Recorder::current() and an engine event
/// listener for this scope. On exit the previous current() is restored
/// and `rec` stops listening; an enclosing recorder keeps listening
/// throughout (comm/events.hpp). With SP_OBS off only current() changes:
/// no obs event exists to listen to.
class ScopedRecording {
 public:
  explicit ScopedRecording(Recorder& rec);
  ~ScopedRecording();
  ScopedRecording(const ScopedRecording&) = delete;
  ScopedRecording& operator=(const ScopedRecording&) = delete;

 private:
  Recorder& rec_;
  Recorder* prev_;
};

}  // namespace sp::obs
