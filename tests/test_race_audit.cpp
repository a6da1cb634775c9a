// Tests for the happens-before race auditor (analysis/race.hpp): seeded
// race mutations are each flagged with the right stage and both call
// sites from a single deterministic fiber run; correctly synchronized
// patterns audit clean; the full ScalaPart pipeline — including crash
// and shrink-and-recover runs — audits clean at P in {4, 16} on both
// backends; and auditing never perturbs results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "analysis/race.hpp"
#include "analysis/shared.hpp"
#include "comm/engine.hpp"
#include "core/scalapart.hpp"
#include "exec/backends.hpp"
#include "graph/generators.hpp"

namespace sp {
namespace {

using analysis::RaceAuditor;
using analysis::RaceFinding;
using analysis::RaceReport;
using analysis::ScopedRaceAudit;
using analysis::SharedSpan;
using comm::BspEngine;
using comm::Comm;
using comm::RankFailedError;

BspEngine::Options opts(std::uint32_t p) {
  BspEngine::Options o;
  o.nranks = p;
  return o;
}

#ifdef SP_ANALYSIS
/// Every finding's call sites must point into this file — the auditor
/// reports where the annotation sits, not engine internals.
void expect_sites_here(const RaceReport& report) {
  for (const RaceFinding& f : report.races) {
    EXPECT_NE(std::string(f.prior.site.file).find("test_race_audit"),
              std::string::npos)
        << f.describe();
    EXPECT_NE(std::string(f.later.site.file).find("test_race_audit"),
              std::string::npos)
        << f.describe();
  }
}
#endif  // SP_ANALYSIS

// ---------------------------------------------------------------------------
// Clean patterns: the discipline the library actually uses must not be
// flagged (no false positives).
// ---------------------------------------------------------------------------

// Tests that observe annotated accesses (positive counts or seeded
// races) only exist with SP_ANALYSIS on: the OFF build compiles the
// annotations away, which is itself verified by the tests outside these
// guards (programs still run, results identical, reports trivially
// clean) and by the analysis-off CI leg.
#ifdef SP_ANALYSIS
TEST(RaceAudit, DistinctIndicesThenPublishBarrierIsClean) {
  std::vector<std::uint32_t> dir(4, 0);
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    SharedSpan<std::uint32_t> owner(dir.data(), dir.size(), "test/owner");
    c.set_stage("publish");
    owner.write(c, c.rank(), c.rank());
    c.barrier();
    c.set_stage("consume");
    std::uint32_t sum = 0;
    for (std::uint32_t v = 0; v < 4; ++v) sum += owner.read(c, v);
    EXPECT_EQ(sum, 6u);
  });
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_GT(report.accesses, 0u);
  EXPECT_GT(report.sync_joins, 0u);
  EXPECT_EQ(report.nranks, 4u);
}
#endif  // SP_ANALYSIS

TEST(RaceAudit, RankZeroOwnsSlotOthersReadAfterBarrierIsClean) {
  std::uint64_t cut = 0;
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    if (c.rank() == 0) analysis::shared_store(c, cut, 41ul + 1, "test/cut");
    c.barrier();
    EXPECT_EQ(analysis::shared_load(c, cut, "test/cut"), 42u);
    // Rewriting the same slot on the next superstep is also ordered:
    // the barrier happens-before the second write.
    c.barrier();
    if (c.rank() == 0) analysis::shared_store(c, cut, 43ul, "test/cut");
  });
  EXPECT_TRUE(report.clean()) << report.str();
}

TEST(RaceAudit, KilledRankWritesOrderedByItsDeath) {
  // Rank 2 publishes its slot and dies; survivors shrink (which joins the
  // dead rank's clock) and then read the slot. fail-join ordering must
  // make that read race-free — this is the pattern recovery relies on.
  std::vector<std::uint32_t> slot(4, 0);
  BspEngine::Options o = opts(4);
  o.faults.kill_at_event(2, 2);
  auto report = analysis::audit_races(o, [&](Comm& c) {
    SharedSpan<std::uint32_t> owner(slot.data(), slot.size(), "test/slot");
    try {
      c.barrier();                        // event 0
      owner.write(c, c.rank(), c.rank() + 10);
      c.barrier();                        // event 1
      c.barrier();                        // event 2: rank 2 dies here
      FAIL() << "rank " << c.rank() << " missed the injected crash";
    } catch (const RankFailedError&) {
      Comm survivors = c.shrink();
      EXPECT_EQ(owner.read(survivors, 2), 12u);
    }
  });
  EXPECT_TRUE(report.clean()) << report.str();
}

TEST(RaceAudit, NoAuditorInstalledHasNoEffect) {
  // Annotations without an auditor are inert: the program runs and computes
  // normally (this is the production configuration even with
  // SP_ANALYSIS=ON).
  std::vector<std::uint32_t> dir(4, 0);
  BspEngine engine(opts(4));
  engine.run([&](Comm& c) {
    SharedSpan<std::uint32_t> owner(dir.data(), dir.size(), "test/owner");
    owner.write(c, c.rank(), c.rank());
    c.barrier();
    EXPECT_EQ(owner.read(c, (c.rank() + 1) % 4), (c.rank() + 1) % 4);
  });
  EXPECT_EQ(dir, (std::vector<std::uint32_t>{0, 1, 2, 3}));
}

// ---------------------------------------------------------------------------
// Seeded race mutations: each must be flagged with the right stage and
// both call sites. These resurrect real bug shapes (the pre-PR-6
// restore_level all-ranks-write among them).
// ---------------------------------------------------------------------------

#ifdef SP_ANALYSIS
TEST(RaceAudit, FlagsAllRanksWritingWholeDirectory) {
  // The resurrected pre-PR-6 restore_level bug: every rank writes the
  // *entire* owner directory (with identical values — still a race).
  std::vector<std::uint32_t> dir(64, 0);
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    SharedSpan<std::uint32_t> owner(dir.data(), dir.size(), "test/owner");
    c.set_stage("restore");
    for (std::uint32_t v = 0; v < owner.size(); ++v) {
      owner.write(c, v, v % 4);
    }
    c.barrier();
  });
  ASSERT_FALSE(report.clean());
  // One call-site pair, so the whole-array race folds into one finding.
  ASSERT_EQ(report.races.size(), 1u);
  const RaceFinding& f = report.races[0];
  EXPECT_TRUE(f.prior.is_write);
  EXPECT_TRUE(f.later.is_write);
  EXPECT_EQ(f.prior.label, "test/owner");
  EXPECT_EQ(f.prior.stage, "restore");
  EXPECT_EQ(f.later.stage, "restore");
  EXPECT_GT(f.occurrences, 1u);  // many bytes, one report
  expect_sites_here(report);
  const std::string msg = report.str();
  EXPECT_NE(msg.find("test/owner"), std::string::npos) << msg;
  EXPECT_NE(msg.find("restore"), std::string::npos) << msg;
}

TEST(RaceAudit, FlagsMissingPublishBarrier) {
  // Writers publish, readers consume — with the barrier between the two
  // phases deleted. Read/write pairs on every slot are unordered.
  std::vector<std::uint32_t> dir(4, 0);
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    SharedSpan<std::uint32_t> owner(dir.data(), dir.size(), "test/owner");
    c.set_stage("publish");
    owner.write(c, c.rank(), c.rank());
    // Missing: c.barrier();
    c.set_stage("consume");
    (void)owner.read(c, (c.rank() + 1) % 4);
    c.barrier();
  });
  ASSERT_FALSE(report.clean());
  bool saw_rw = false;
  for (const RaceFinding& f : report.races) {
    EXPECT_EQ(f.prior.label, "test/owner");
    if (f.prior.is_write != f.later.is_write) saw_rw = true;
  }
  EXPECT_TRUE(saw_rw) << report.str();
  expect_sites_here(report);
  // Both stages appear in the report: the race spans publish/consume.
  const std::string msg = report.str();
  EXPECT_NE(msg.find("publish"), std::string::npos) << msg;
  EXPECT_NE(msg.find("consume"), std::string::npos) << msg;
}

TEST(RaceAudit, FlagsReadBeforeReduceCompletes) {
  // A rank peeks at another rank's contribution slot before the barrier
  // that publishes it — a read racing the owner's write.
  std::vector<double> contrib(4, 0.0);
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    SharedSpan<double> slots(contrib.data(), contrib.size(), "test/contrib");
    c.set_stage("reduce");
    slots.write(c, c.rank(), 1.0 * c.rank());
    if (c.rank() == 0) (void)slots.read(c, 3);  // premature peek
    c.barrier();
  });
  ASSERT_FALSE(report.clean());
  ASSERT_EQ(report.races.size(), 1u);
  EXPECT_NE(report.races[0].prior.is_write, report.races[0].later.is_write);
  expect_sites_here(report);
}

TEST(RaceAudit, FlagsOverlappingBlockWrites) {
  // Block decomposition off by one: rank r writes [16r, 16r + 17), so
  // consecutive ranks both write the boundary element. Byte-granular
  // shadow cells catch the one-element overlap.
  std::vector<std::uint8_t> buf(4 * 16 + 1, 0);
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    SharedSpan<std::uint8_t> shared(buf.data(), buf.size(), "test/blocks");
    c.set_stage("scatter");
    for (std::size_t i = 0; i <= 16; ++i) {
      shared.write(c, std::size_t{c.rank()} * 16 + i, c.rank());
    }
    c.barrier();
  });
  ASSERT_FALSE(report.clean());
  ASSERT_EQ(report.races.size(), 1u);  // same site pair: folds to one
  EXPECT_TRUE(report.races[0].prior.is_write);
  EXPECT_TRUE(report.races[0].later.is_write);
  EXPECT_EQ(report.races[0].occurrences, 3u);  // three shared boundaries
  expect_sites_here(report);
}

TEST(RaceAudit, FlagsBrokenRankZeroGuard) {
  // The "only rank 0 writes the result" invariant, violated by rank 1.
  std::uint64_t result = 0;
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    c.set_stage("output");
    c.barrier();
    if (c.rank() <= 1) {  // should be == 0
      analysis::shared_store(c, result, 7ul, "test/result");
    }
    c.barrier();
  });
  ASSERT_FALSE(report.clean());
  ASSERT_EQ(report.races.size(), 1u);
  EXPECT_TRUE(report.races[0].prior.is_write);
  EXPECT_TRUE(report.races[0].later.is_write);
  EXPECT_EQ(report.races[0].prior.label, "test/result");
  expect_sites_here(report);
}

TEST(RaceAudit, FlagsUnsynchronizedReadModifyWrite) {
  // Every rank bumps a shared counter with no rendezvous between the
  // load and the store — both read/write and write/write conflicts.
  std::uint64_t counter = 0;
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    c.set_stage("count");
    const std::uint64_t seen =
        analysis::shared_load(c, counter, "test/counter");
    analysis::shared_store(c, counter, seen + 1, "test/counter");
    c.barrier();
  });
  ASSERT_FALSE(report.clean());
  bool saw_ww = false;
  bool saw_rw = false;
  for (const RaceFinding& f : report.races) {
    if (f.prior.is_write && f.later.is_write) saw_ww = true;
    if (f.prior.is_write != f.later.is_write) saw_rw = true;
  }
  EXPECT_TRUE(saw_ww) << report.str();
  EXPECT_TRUE(saw_rw) << report.str();
  expect_sites_here(report);
}

TEST(RaceAudit, ObjectGranularAnnotationsCatchCheckpointClobber) {
  // Two ranks both "own" the checkpoint struct (note_shared_write is the
  // aggregate-granular annotation the embed checkpoint uses).
  struct Ckpt {
    bool valid = false;
    std::uint64_t level = 0;
  } ckpt;
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    c.set_stage("checkpoint");
    c.barrier();
    if (c.rank() == 0 || c.rank() == 3) {
      analysis::note_shared_write(c, ckpt, "test/ckpt");
      ckpt.valid = true;
    }
    c.barrier();
  });
  ASSERT_FALSE(report.clean());
  ASSERT_EQ(report.races.size(), 1u);
  EXPECT_EQ(report.races[0].prior.label, "test/ckpt");
  expect_sites_here(report);
}

// ---------------------------------------------------------------------------
// Objects derived once per collective (Comm::allgather_derive): published
// inside the rendezvous and read by every member from its pickup on.
// ---------------------------------------------------------------------------

std::int64_t sum_all(std::span<const std::int64_t> all) {
  std::int64_t s = 0;
  for (std::int64_t v : all) s += v;
  return s;
}

TEST(RaceAudit, DerivedObjectReadByEveryMemberIsClean) {
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    c.set_stage("derive");
    for (int round = 0; round < 3; ++round) {
      const std::int64_t mine = c.rank() + round;
      auto total = c.allgather_derive(std::span<const std::int64_t>(&mine, 1),
                                      sum_all);
      analysis::note_shared_read(c, *total, "test/derived");
      EXPECT_EQ(*total, 6 + 4 * round);
    }
    c.barrier();
  });
  EXPECT_TRUE(report.clean()) << report.str();
  // One publication plus four pickup reads and four annotated reads per
  // round.
  EXPECT_EQ(report.accesses, 3u * 9u);
}

TEST(RaceAudit, FlagsWriteToDerivedObjectAfterPickup) {
  auto report = analysis::audit_races(opts(4), [&](Comm& c) {
    c.set_stage("derive");
    const std::int64_t mine = c.rank();
    auto total = c.allgather_derive(std::span<const std::int64_t>(&mine, 1),
                                    sum_all);
    if (c.rank() == 1) {
      c.set_stage("mutate");
      // Every other member holds the same object: this write races them.
      analysis::note_shared_write(c, *total, "test/derived");
    }
    c.barrier();
  });
  ASSERT_FALSE(report.clean());
  for (const RaceFinding& f : report.races) {
    const bool prior_is_write = f.prior.is_write;
    const auto& w = prior_is_write ? f.prior : f.later;
    const auto& r = prior_is_write ? f.later : f.prior;
    EXPECT_TRUE(w.is_write);
    EXPECT_EQ(w.world_rank, 1u);
    EXPECT_EQ(w.stage, "mutate");
    EXPECT_FALSE(r.is_write);
    EXPECT_NE(r.world_rank, 1u);
    EXPECT_EQ(r.label, "comm/derived");
  }
  expect_sites_here(report);
}

// ---------------------------------------------------------------------------
// Schedule independence: the happens-before relation is built from the
// program's rendezvous structure, so the same races surface under any
// fiber schedule — the whole point of single-run coverage.
// ---------------------------------------------------------------------------

TEST(RaceAudit, FindingsAreScheduleIndependent) {
  auto run = [](comm::Schedule sched) {
    std::vector<std::uint32_t> dir(4, 0);
    BspEngine::Options o = opts(4);
    o.schedule = sched;
    return analysis::audit_races(o, [&](Comm& c) {
      SharedSpan<std::uint32_t> owner(dir.data(), dir.size(), "test/owner");
      c.set_stage("publish");
      owner.write(c, c.rank(), c.rank());
      // Missing barrier: neighbour read races the owner's write.
      (void)owner.read(c, (c.rank() + 1) % 4);
      c.barrier();
    });
  };
  const RaceReport rr = run(comm::Schedule::kRoundRobin);
  const RaceReport rev = run(comm::Schedule::kReversed);
  ASSERT_FALSE(rr.clean());
  ASSERT_FALSE(rev.clean());
  // Which endpoint was *recorded* first may flip with the schedule; the
  // unordered pair {label, site, site} must not.
  auto keys = [](const RaceReport& r) {
    std::set<std::string> out;
    for (const RaceFinding& f : r.races) {
      std::string a = f.prior.site.str();
      std::string b = f.later.site.str();
      if (b < a) std::swap(a, b);
      out.insert(f.prior.label + "|" + a + "|" + b);
    }
    return out;
  };
  EXPECT_EQ(keys(rr), keys(rev));
}
#endif  // SP_ANALYSIS

// ---------------------------------------------------------------------------
// The real pipeline: ScalaPart's shared structures (owner directories,
// checkpoint, result slots) audit clean at P in {4, 16} on both
// backends, including crash + shrink-and-recover runs.
// ---------------------------------------------------------------------------

RaceReport audited_run(const graph::CsrGraph& g, core::ScalaPartOptions opt,
                       core::ScalaPartResult* out = nullptr) {
  RaceAuditor auditor;
  {
    ScopedRaceAudit guard(auditor);
    auto r = core::scalapart_partition(g, opt);
    if (out != nullptr) *out = std::move(r);
  }
  return auditor.report();
}

TEST(RaceAudit, PipelineIsCleanAtP4AndP16OnBothBackends) {
  const auto g = graph::gen::delaunay(600, 3).graph;
  for (std::uint32_t p : {4u, 16u}) {
    for (exec::Backend backend : {exec::Backend::kFiber,
                                  exec::Backend::kThreads}) {
      core::ScalaPartOptions opt;
      opt.nranks = p;
      opt.backend = backend;
      core::ScalaPartResult result;
      const RaceReport report = audited_run(g, opt, &result);
      EXPECT_TRUE(report.clean())
          << "P=" << p << " backend=" << static_cast<int>(backend) << "\n"
          << report.str();
#ifdef SP_ANALYSIS
      EXPECT_GT(report.accesses, 0u);
      EXPECT_EQ(report.nranks, p);
#endif
      EXPECT_EQ(result.part.side.size(), g.num_vertices());
    }
  }
}

TEST(RaceAudit, RecoveryPipelineIsCleanOnBothBackends) {
  const auto g = graph::gen::delaunay(600, 3).graph;
  for (exec::Backend backend : {exec::Backend::kFiber,
                                exec::Backend::kThreads}) {
    core::ScalaPartOptions opt;
    opt.nranks = 8;
    opt.backend = backend;
    opt.faults.kill_in_stage(1, "embed", 5);
    opt.recover_on_failure = true;
    core::ScalaPartResult result;
    const RaceReport report = audited_run(g, opt, &result);
    EXPECT_TRUE(report.clean())
        << "backend=" << static_cast<int>(backend) << "\n" << report.str();
    EXPECT_EQ(result.recovery.recoveries, 1u);
    EXPECT_EQ(result.part.side.size(), g.num_vertices());
  }
}

TEST(RaceAudit, MultiFaultRecoveryIsClean) {
  const auto g = graph::gen::delaunay(600, 3).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 16;
  opt.faults.kill_in_stage(3, "embed", 5);
  opt.faults.kill_in_stage(7, "partition", 0);
  opt.recover_on_failure = true;
  core::ScalaPartResult result;
  const RaceReport report = audited_run(g, opt, &result);
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_GE(result.recovery.recoveries, 2u);
}

TEST(RaceAudit, AuditingDoesNotPerturbResults) {
  // Annotations and the installed auditor are observationally pure: the
  // partition, cut, and modeled clocks are bit-identical with and
  // without the auditor.
  const auto g = graph::gen::delaunay(600, 3).graph;
  core::ScalaPartOptions opt;
  opt.nranks = 8;
  const auto bare = core::scalapart_partition(g, opt);
  core::ScalaPartResult audited;
  const RaceReport report = audited_run(g, opt, &audited);
  EXPECT_TRUE(report.clean()) << report.str();
  EXPECT_EQ(bare.part.side, audited.part.side);
  EXPECT_EQ(bare.report.cut, audited.report.cut);
  EXPECT_EQ(bare.modeled_seconds, audited.modeled_seconds);
}

}  // namespace
}  // namespace sp
