// The engine's event stream (comm/events.hpp): one listener interface,
// one fan-out list.
//
// The contract under test:
//  - a fixed program (barrier, allreduce, exchange, allgather_derive, a
//    detector suspicion, a fault-plan crash, shrink) emits the same
//    per-kind event counts and the same per-rank (op, group, seq) order on
//    every backend, and these values are the ones the three separate sink
//    interfaces this stream replaced emitted (recorded before the
//    change); each event family appears only in the build flavor of the
//    tool that consumes it;
//  - the trace recorder, the flight recorder and the race auditor
//    installed together each produce byte-for-byte what they produce
//    installed alone.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/race.hpp"
#include "comm/engine.hpp"
#include "comm/events.hpp"
#include "core/scalapart.hpp"
#include "exec/executor.hpp"
#include "graph/generators.hpp"
#include "obs/export.hpp"
#include "obs/flight.hpp"
#include "obs/postmortem.hpp"
#include "obs/recorder.hpp"

namespace sp::comm {
namespace {

std::vector<exec::Backend> backends() {
  std::vector<exec::Backend> out{exec::Backend::kFiber};
  if (exec::threads_backend_available()) out.push_back(exec::Backend::kThreads);
  if (exec::process_backend_available()) out.push_back(exec::Backend::kProcess);
  return out;
}

std::string key(std::uint64_t group, std::uint64_t seq) {
  return std::to_string(group) + "#" + std::to_string(seq);
}

// ---------------------------------------------------------------------------
// Pinned event stream
// ---------------------------------------------------------------------------

/// Counts every event kind and keeps each rank's arrive (A), comm-op (C),
/// pickup (P) and kill (K) records in emission order.
class Counter final : public EngineEvents {
 public:
  explicit Counter(std::uint32_t nranks) : seq(nranks) {}

  void on_run_begin(std::uint32_t) override { bump("run_begin"); }
  void on_arrive(std::uint32_t rank, std::uint64_t group, std::uint64_t s,
                 double, const char* op, const std::string*) override {
    std::lock_guard<std::mutex> hold(mu_);
    // Whether a survivor arrives at the barrier rank 3 dies entering, or
    // finds the death at entry, is a race on the threads backend.
    if (group == 0 && s == kFatalSeq) {
      ++n["arrive_poisoned"];
      return;
    }
    ++n["arrive"];
    seq[rank].push_back(std::string("A ") + op + " " + key(group, s));
  }
  void on_pickup(std::uint32_t rank, std::uint64_t group,
                 std::uint64_t s) override {
    std::lock_guard<std::mutex> hold(mu_);
    ++n["pickup"];
    seq[rank].push_back("P " + key(group, s));
  }
  void on_publish(std::uint64_t, std::uint64_t, const RaceAccess&) override {
    bump("publish");
  }
  void on_release(std::uintptr_t, std::size_t) override { bump("release"); }
  void on_rank_killed(std::uint32_t rank, double, const std::string*) override {
    std::lock_guard<std::mutex> hold(mu_);
    ++n["killed"];
    seq[rank].push_back("K");
  }
  void on_detector(const DetectorEvent&, double) override { bump("detector"); }
  void on_comm_op(const CommOpEvent& ev) override {
    std::lock_guard<std::mutex> hold(mu_);
    ++n["comm_op"];
    seq[ev.world_rank].push_back(std::string("C ") + ev.op + " " +
                                 key(ev.group, ev.seq));
  }
  void on_comm_counters(std::uint32_t, std::uint64_t, std::uint64_t,
                        std::uint64_t) override {
    bump("comm_counters");
  }
  void on_access(const RaceAccess&) override { bump("access"); }

  /// Rank 3 dies entering its fifth op: every earlier op is on the world
  /// communicator, so that op is world rendezvous seq 4.
  static constexpr std::uint64_t kFatalSeq = 4;
  std::map<std::string, int> n;
  std::vector<std::vector<std::string>> seq;

 private:
  void bump(const char* kind) {
    std::lock_guard<std::mutex> hold(mu_);
    ++n[kind];
  }
  std::mutex mu_;
};

BspEngine::Options pinned_opts(exec::Backend backend) {
  BspEngine::Options o;
  o.nranks = 4;
  o.backend = backend;
  o.threads = 4;
  o.faults.kill_at_event(3, Counter::kFatalSeq);
  o.detector.deadline_seconds = 1e-6;
  o.detector.max_retries = 3;
  o.detector.backoff_seconds = 1e-6;
  return o;
}

void pinned_program(Comm& c) {
  c.set_stage("pinned");
  c.barrier();
  if (c.rank() == 1) c.add_compute(1e6);  // lags: one detector suspicion
  (void)c.allreduce<std::uint64_t>(c.rank() + 1, ReduceOp::kSum);
  std::vector<Comm::Packet> out(1);
  out[0].peer = (c.rank() + 1) % c.nranks();
  out[0].data.resize(8, std::byte{1});
  (void)c.exchange(std::move(out));
  {
    const std::uint32_t mine = c.rank();
    auto sum = c.allgather_derive(std::span<const std::uint32_t>(&mine, 1),
                                  [](std::span<const std::uint32_t> all) {
                                    std::uint64_t s = 0;
                                    for (std::uint32_t v : all) s += v;
                                    return s;
                                  });
    (void)sum;
  }
  try {
    c.barrier();  // rank 3 is killed entering this barrier
  } catch (const RankFailedError&) {
    Comm live = c.shrink();
    (void)live.allreduce<std::uint64_t>(1, ReduceOp::kSum);
  }
}

/// Rank `rank`'s expected records: each completed rendezvous arrives,
/// completes and is picked up, as far as the build emits those families.
std::vector<std::string> expected_sequence(std::uint32_t rank) {
  struct Op {
    const char* op;
    std::uint64_t group, seq;
  };
  // Group and shrink keys recorded from the engine before the event
  // stream was unified: the world is group 0, shrink keys start at
  // 2^62 plus the failure count, and the survivors' group id is a hash
  // of (world, shrink key, color 0).
  const std::uint64_t shrink_key = (std::uint64_t{1} << 62) + 1;
  const std::uint64_t survivors = 10568671528936653317ull;
  std::vector<Op> ops = {{"barrier", 0, 0},
                         {"allreduce", 0, 1},
                         {"exchange", 0, 2},
                         {"allgather", 0, 3}};
  if (rank != 3) {
    ops.push_back({"shrink", 0, shrink_key});
    ops.push_back({"allreduce", survivors, 0});
  }
  std::vector<std::string> out;
  for (const Op& o : ops) {
    if (kObsEvents || kRaceEvents) {
      out.push_back(std::string("A ") + o.op + " " + key(o.group, o.seq));
    }
    if (kObsEvents) {
      out.push_back(std::string("C ") + o.op + " " + key(o.group, o.seq));
    }
    if (kRaceEvents) out.push_back("P " + key(o.group, o.seq));
  }
  if (rank == 3 && (kObsEvents || kRaceEvents)) out.push_back("K");
  return out;
}

TEST(EngineEvents, EventCountsPinned) {
  for (exec::Backend backend : backends()) {
    SCOPED_TRACE(exec::backend_name(backend));
    const bool process = backend == exec::Backend::kProcess;
    Counter counter(4);
    analysis::RaceAuditor auditor;
    add_listener(&counter);
    {
      analysis::ScopedRaceAudit audit(auditor);
      BspEngine engine(pinned_opts(backend));
      const RunStats stats = engine.run(pinned_program);
      EXPECT_EQ(stats.failed_ranks, std::vector<std::uint32_t>{3});
    }
    remove_listener(&counter);

    // Values recorded from the three sinks this stream replaced. Arrivals
    // and kills went to two sinks each; each pins one count here.
    const int obs = kObsEvents ? 1 : 0;
    const int race = kRaceEvents ? 1 : 0;
    const int either = obs | race;
    std::map<std::string, int> want = {
        {"run_begin", 1 * race},   {"arrive", 22 * either},
        {"pickup", 22 * race},     {"publish", 1 * race},
        {"release", 1 * race},     {"killed", 1 * either},
        {"detector", 1 * obs},     {"comm_op", 22 * obs},
        {"comm_counters", 4 * obs}};
    std::map<std::string, int> got = counter.n;
    const int poisoned = got["arrive_poisoned"];
    got.erase("arrive_poisoned");
    EXPECT_LE(poisoned, 3 * either);  // at most the three survivors
    std::erase_if(want, [](const auto& kv) { return kv.second == 0; });
    EXPECT_EQ(got, want);
    for (std::uint32_t r = 0; r < 4; ++r) {
      EXPECT_EQ(counter.seq[r], expected_sequence(r)) << "rank " << r;
    }

    // Accesses reach only the armed auditor, never the fan-out list: the
    // derived object's publish write plus one read per in-process holder
    // (child ranks read their own copy on the process backend).
    const analysis::RaceReport report = auditor.report();
    EXPECT_TRUE(report.clean()) << report.str();
    EXPECT_EQ(report.accesses, static_cast<std::uint64_t>(
                                   race * (process ? 2 : 5)));
    EXPECT_EQ(report.sync_joins, static_cast<std::uint64_t>(22 * race));
  }
  EXPECT_EQ(access_listener(), nullptr);
}

// ---------------------------------------------------------------------------
// Fan-out: listeners do not see each other
// ---------------------------------------------------------------------------

/// What each listener produced on one run, rendered to text. Flight
/// records drop their wall-clock stamp and resolve interned ids (intern
/// order follows thread interleaving); the diagnosis comes from a dump
/// read back the way tools/postmortem reads it.
struct Outputs {
  std::string jsonl;
  std::string flight;
  std::string diagnosis;
  std::string race;
};

std::string render_flight(const obs::flight::FlightRecorder& rec) {
  std::string out;
  char buf[160];
  for (std::uint32_t r = 0; r < rec.nranks(); ++r) {
    out += "lane " + std::to_string(r) + " appends " +
           std::to_string(rec.total_appends(r)) + "\n";
    for (std::size_t i = 0; i < rec.stored(r); ++i) {
      const obs::flight::Record& x = rec.record(r, i);
      std::snprintf(buf, sizeof(buf), "%d %.17g %llu %llu %llu %d ",
                    static_cast<int>(x.kind), x.t,
                    static_cast<unsigned long long>(x.a),
                    static_cast<unsigned long long>(x.b),
                    static_cast<unsigned long long>(x.c), x.level);
      out += buf + rec.string_at(x.name) + " " + rec.string_at(x.aux) + "\n";
    }
  }
  return out;
}

Outputs run_with(exec::Backend backend, bool trace, bool flight, bool race) {
  static const graph::CsrGraph g = graph::gen::delaunay(1200, 5).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 16;
  opt.backend = backend;
  opt.threads = 4;
  opt.flight_capacity = 0;  // no recorder of scalapart's own
  obs::Recorder rec;
  obs::flight::FlightRecorder frec(16);
  analysis::RaceAuditor auditor;
  {
    std::optional<obs::ScopedRecording> t;
    std::optional<obs::flight::ScopedFlightRecording> f;
    std::optional<analysis::ScopedRaceAudit> a;
    if (trace) t.emplace(rec);
    if (flight) f.emplace(frec);
    if (race) a.emplace(auditor);
    core::scalapart_partition(g, opt);
  }
  Outputs out;
  if (trace) out.jsonl = obs::jsonl_string(rec);
  if (flight) {
    out.flight = render_flight(frec);
    const std::string path = testing::TempDir() + "engine_events_" +
                             exec::backend_name(backend) + ".spfr";
    obs::flight::dump(frec, path, "test");
    out.diagnosis =
        obs::flight::diagnose(obs::flight::Postmortem::read(path)).summary();
    std::filesystem::remove(path);
  }
  if (race) out.race = auditor.report().str();
  return out;
}

TEST(EngineEvents, AllListenersTogetherMatchAlone) {
  for (exec::Backend backend : backends()) {
    SCOPED_TRACE(exec::backend_name(backend));
    const Outputs all = run_with(backend, true, true, true);
    const Outputs trace = run_with(backend, true, false, false);
    const Outputs flight = run_with(backend, false, true, false);
    const Outputs race = run_with(backend, false, false, true);
    EXPECT_EQ(all.jsonl, trace.jsonl);
    EXPECT_EQ(all.flight, flight.flight);
    EXPECT_EQ(all.diagnosis, flight.diagnosis);
    EXPECT_EQ(all.race, race.race);
    if (kObsEvents) {
      EXPECT_NE(all.jsonl.find("\"allreduce\""), std::string::npos);
      EXPECT_NE(all.flight.find("allreduce"), std::string::npos);
    }
    if (kRaceEvents) {
      EXPECT_NE(all.race.find("race audit clean"), std::string::npos);
    }
  }
}

}  // namespace
}  // namespace sp::comm
