// Tests for sp::analysis: the collective-matching lint (divergent SPMD
// programs fail with reports naming both call sites instead of
// deadlocking or silently combining bytes), the determinism auditor, and
// the structural invariant validators.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "analysis/determinism.hpp"
#include "analysis/invariants.hpp"
#include "coarsen/hierarchy.hpp"
#include "comm/engine.hpp"
#include "core/scalapart.hpp"
#include "core/testsuite.hpp"
#include "embed/lattice_parallel.hpp"
#include "graph/generators.hpp"
#include "graph/partition.hpp"

namespace sp {
namespace {

using analysis::Violations;
using comm::BspEngine;
using comm::Comm;
using comm::ReduceOp;
using comm::SpmdDivergenceError;

BspEngine::Options opts(std::uint32_t p) {
  BspEngine::Options o;
  o.nranks = p;
  return o;
}

/// Runs `program` on two ranks and returns the SpmdDivergenceError message
/// (fails the test if none is raised).
std::string divergence_message(const std::function<void(Comm&)>& program) {
  BspEngine engine(opts(2));
  try {
    engine.run(program);
  } catch (const SpmdDivergenceError& e) {
    return e.what();
  }
  ADD_FAILURE() << "expected SpmdDivergenceError";
  return {};
}

// ---- Collective-matching lint ----

TEST(SignatureLint, KindMismatchNamesBothCallSitesAndStages) {
  std::string msg = divergence_message([](Comm& c) {
    if (c.rank() == 0) {
      c.set_stage("stage-alpha");
      c.allreduce<std::int64_t>(1, ReduceOp::kSum);
    } else {
      c.set_stage("stage-beta");
      c.allgather<std::int64_t>(2);
    }
  });
  EXPECT_NE(msg.find("operation kinds differ"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allreduce"), std::string::npos) << msg;
  EXPECT_NE(msg.find("allgather"), std::string::npos) << msg;
  // Both user call sites, not engine internals.
  EXPECT_NE(msg.find("test_analysis.cpp"), std::string::npos) << msg;
  // Both pipeline stages.
  EXPECT_NE(msg.find("stage-alpha"), std::string::npos) << msg;
  EXPECT_NE(msg.find("stage-beta"), std::string::npos) << msg;
  // Both ranks.
  EXPECT_NE(msg.find("world rank 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("world rank 1"), std::string::npos) << msg;
}

TEST(SignatureLint, ElementWidthMismatchSameByteCount) {
  // float[2] vs double[1]: both contribute 8 bytes, so the byte-level
  // equal-size assert can never catch this — the element-wise reduction
  // would silently combine garbage. The width recorded in the signature
  // does catch it.
  std::string msg = divergence_message([](Comm& c) {
    if (c.rank() == 0) {
      float vals[2] = {1.0f, 2.0f};
      c.allreduce_vec(std::span<const float>(vals, 2), ReduceOp::kSum);
    } else {
      double val = 3.0;
      c.allreduce_vec(std::span<const double>(&val, 1), ReduceOp::kSum);
    }
  });
  EXPECT_NE(msg.find("element widths differ"), std::string::npos) << msg;
  EXPECT_NE(msg.find("elem width 4"), std::string::npos) << msg;
  EXPECT_NE(msg.find("elem width 8"), std::string::npos) << msg;
}

TEST(SignatureLint, AllreducePayloadShapeMismatch) {
  // Equal widths, unequal vector lengths: previously a bare SP_ASSERT in
  // the byte combiner; now a catchable report naming both call sites.
  std::string msg = divergence_message([](Comm& c) {
    std::vector<std::int32_t> mine(c.rank() == 0 ? 2 : 3, 7);
    c.allreduce_vec(std::span<const std::int32_t>(mine), ReduceOp::kSum);
  });
  EXPECT_NE(msg.find("allreduce payload sizes differ"), std::string::npos)
      << msg;
  EXPECT_NE(msg.find("count 2"), std::string::npos) << msg;
  EXPECT_NE(msg.find("count 3"), std::string::npos) << msg;
}

TEST(SignatureLint, BroadcastRootMismatch) {
  std::string msg = divergence_message([](Comm& c) {
    c.broadcast<std::int32_t>(42, /*root=*/c.rank());
  });
  EXPECT_NE(msg.find("roots differ"), std::string::npos) << msg;
  EXPECT_NE(msg.find("root 0"), std::string::npos) << msg;
  EXPECT_NE(msg.find("root 1"), std::string::npos) << msg;
}

TEST(SignatureLint, ExchangeMeetingBarrierIsKindMismatch) {
  std::string msg = divergence_message([](Comm& c) {
    if (c.rank() == 0) {
      c.exchange({});
    } else {
      c.barrier();
    }
  });
  EXPECT_NE(msg.find("operation kinds differ"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exchange"), std::string::npos) << msg;
  EXPECT_NE(msg.find("barrier"), std::string::npos) << msg;
}

TEST(SignatureLint, CompatibleCallsFromDifferentSitesAreLegal) {
  // SPMD does not require textually identical call sites — only
  // compatible signatures. Different branches issuing the same collective
  // must keep working.
  BspEngine engine(opts(4));
  engine.run([](Comm& c) {
    std::int64_t sum;
    if (c.rank() % 2 == 0) {
      sum = c.allreduce<std::int64_t>(1, ReduceOp::kSum);
    } else {
      sum = c.allreduce<std::int64_t>(1, ReduceOp::kSum);
    }
    EXPECT_EQ(sum, 4);
  });
}

TEST(SignatureLint, DeadlockReportNamesIssuingCallSite) {
  // Sequence skew that never meets at a rendezvous (rank 1 exits early)
  // still deadlocks, but the report now includes where the stuck rank
  // issued its collective.
  BspEngine engine(opts(2));
  try {
    engine.run([](Comm& c) {
      c.barrier();
      if (c.rank() == 0) c.barrier();  // rank 1 already returned
    });
    FAIL() << "expected DeadlockError";
  } catch (const comm::DeadlockError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("issued at"), std::string::npos) << msg;
    EXPECT_NE(msg.find("test_analysis.cpp"), std::string::npos) << msg;
  }
}

TEST(SignatureLint, MismatchOnSplitCommunicator) {
  // The lint follows communicators created by split: divergence inside a
  // subgroup is attributed to that group, not the world.
  BspEngine engine(opts(4));
  try {
    engine.run([](Comm& c) {
      Comm half = c.split(c.rank() / 2, c.rank());
      if (c.rank() == 0) {
        half.barrier();
      } else if (c.rank() == 1) {
        half.allgather<std::uint32_t>(c.rank());
      } else {
        half.barrier();
      }
    });
    FAIL() << "expected SpmdDivergenceError";
  } catch (const SpmdDivergenceError& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("operation kinds differ"), std::string::npos) << msg;
  }
}

// ---- Determinism auditor ----

TEST(Determinism, DefaultScheduleSetHasThreePoints) {
  auto scheds = analysis::default_schedules();
  ASSERT_EQ(scheds.size(), 3u);
  EXPECT_EQ(scheds[0].schedule, comm::Schedule::kRoundRobin);
  EXPECT_EQ(scheds[1].schedule, comm::Schedule::kReversed);
  EXPECT_EQ(scheds[2].schedule, comm::Schedule::kSeededShuffle);
}

TEST(Determinism, FlagsOrderDependentProgram) {
  // The classic schedule bug: ranks communicate through shared mutable
  // state instead of the Comm API. The final value is whatever the
  // last-resumed fiber wrote, so it differs between round-robin and
  // reversed resume order.
  auto shared = std::make_shared<std::uint32_t>(0);
  analysis::ProgramFactory factory = [shared]() {
    *shared = 0;
    return [shared](Comm& c) {
      *shared = c.rank() + 1;  // side channel: not a collective
      c.barrier();
    };
  };
  auto report = analysis::audit_determinism(
      opts(4), factory, [shared]() -> std::uint64_t { return *shared; });
  EXPECT_FALSE(report.deterministic);
  ASSERT_FALSE(report.divergences.empty());
  EXPECT_NE(report.str().find("result fingerprints differ"),
            std::string::npos)
      << report.str();
  EXPECT_NE(report.str().find("reversed"), std::string::npos) << report.str();
}

TEST(Determinism, PassesScheduleCorrectProgram) {
  // A program that communicates only through collectives is bit-identical
  // under every schedule (collectives canonicalize by group rank).
  auto result = std::make_shared<std::vector<std::uint64_t>>();
  analysis::ProgramFactory factory = [result]() {
    result->clear();
    return [result](Comm& c) {
      auto all = c.allgather<std::uint64_t>(c.rank() * 17 + 3);
      auto sum = c.allreduce<std::uint64_t>(c.rank(), ReduceOp::kSum);
      auto in = c.exchange_typed<std::uint32_t>(
          {{(c.rank() + 1) % c.nranks(), {c.rank(), 99}}});
      if (c.rank() == 0) {
        *result = all;
        result->push_back(sum);
        for (auto& [src, vals] : in) result->push_back(src + vals[0]);
      }
    };
  };
  auto report = analysis::audit_determinism(
      opts(8), factory, [result]() -> std::uint64_t {
        return analysis::fingerprint_bytes(
            result->data(), result->size() * sizeof(std::uint64_t));
      });
  EXPECT_TRUE(report.deterministic) << report.str();
  EXPECT_EQ(report.schedules_run, 3u);
  ASSERT_EQ(report.trace_fingerprints.size(), 3u);
  EXPECT_EQ(report.trace_fingerprints[0], report.trace_fingerprints[1]);
  EXPECT_EQ(report.trace_fingerprints[0], report.trace_fingerprints[2]);
}

TEST(Determinism, BackendAuditPassesCorrectProgram) {
  // audit_backends extends the schedule sweep with real-thread points:
  // a collectives-only program must fingerprint identically on every
  // backend and thread count.
  auto result = std::make_shared<std::vector<std::uint64_t>>();
  analysis::ProgramFactory factory = [result]() {
    result->clear();
    return [result](Comm& c) {
      auto all = c.allgather<std::uint64_t>(c.rank() * 29 + 7);
      auto sum = c.allreduce<std::uint64_t>(c.rank() + 1, ReduceOp::kSum);
      if (c.rank() == 0) {
        *result = all;
        result->push_back(sum);
      }
    };
  };
  auto report = analysis::audit_backends(
      opts(8), factory, [result]() -> std::uint64_t {
        return analysis::fingerprint_bytes(
            result->data(), result->size() * sizeof(std::uint64_t));
      });
  EXPECT_TRUE(report.deterministic) << report.str();
  EXPECT_EQ(report.schedules_run,
            analysis::default_backend_points().size());
}

TEST(Determinism, BackendAuditFlagsOrderDependentProgram) {
  // The fiber round-robin vs reversed pair inside the backend point set
  // still catches side-channel state deterministically (the thread points
  // may or may not expose the race on a given run; the fiber pair always
  // does).
  auto shared = std::make_shared<std::uint32_t>(0);
  analysis::ProgramFactory factory = [shared]() {
    *shared = 0;
    return [shared](Comm& c) {
      *shared = c.rank() + 1;  // side channel: not a collective
      c.barrier();
    };
  };
  auto report = analysis::audit_backends(
      opts(4), factory, [shared]() -> std::uint64_t { return *shared; });
  EXPECT_FALSE(report.deterministic);
  EXPECT_FALSE(report.divergences.empty());
}

TEST(Determinism, ScalaPartBitIdenticalUnderThreeSchedules) {
  // The acceptance bar of the ISSUE: the full pipeline, on real suite
  // graphs, produces bit-identical partitions and traces under at least
  // three fiber schedules.
  for (const char* name : {"ecology1", "delaunay_n20"}) {
    auto gg = core::make_suite_graph(name, 0.002, 7);
    core::ScalaPartOptions base;
    base.nranks = 8;
    base.seed = 11;

    std::vector<std::uint8_t> ref_side;
    std::uint64_t ref_trace = 0;
    graph::Weight ref_cut = 0;
    std::size_t run = 0;
    for (auto point : analysis::default_schedules()) {
      core::ScalaPartOptions opt = base;
      opt.schedule = point.schedule;
      opt.schedule_seed = point.seed;
      auto res = core::scalapart_partition(gg.graph, opt);
      std::uint64_t trace = res.stats.fingerprint();
      if (run == 0) {
        ref_side = res.part.side;
        ref_trace = trace;
        ref_cut = res.report.cut;
      } else {
        EXPECT_EQ(res.part.side, ref_side)
            << name << " diverged under " << comm::schedule_name(point.schedule);
        EXPECT_EQ(trace, ref_trace)
            << name << " trace diverged under "
            << comm::schedule_name(point.schedule);
        EXPECT_EQ(res.report.cut, ref_cut);
      }
      ++run;
    }
    EXPECT_EQ(run, 3u);
  }
}

// ---- Structural invariant validators ----

TEST(Invariants, CleanGraphsValidate) {
  auto gg = graph::gen::grid2d(20, 25);
  EXPECT_TRUE(analysis::validate_csr(gg.graph).empty());
  auto dd = graph::gen::delaunay(400, 5);
  EXPECT_TRUE(analysis::validate_csr(dd.graph).empty());
}

TEST(Invariants, CsrDetectsDuplicateArcs) {
  // Duplicate parallel arcs pass the constructor's symmetry assert (each
  // arc finds *a* reverse) but are structurally invalid for the pipeline.
  graph::CsrGraph g({0, 2, 4}, {1, 1, 0, 0}, {1, 1}, {1, 1, 1, 1});
  Violations v = analysis::validate_csr(g);
  ASSERT_FALSE(v.empty());
  EXPECT_NE(v[0].find("duplicate neighbour"), std::string::npos) << v[0];
}

TEST(Invariants, HierarchyOfRealGraphValidates) {
  auto gg = graph::gen::grid2d(40, 40);
  coarsen::HierarchyOptions hopt;
  hopt.coarsest_size = 64;
  auto h = coarsen::Hierarchy::build(gg.graph, hopt);
  ASSERT_GE(h.num_levels(), 2u);
  EXPECT_TRUE(analysis::validate_hierarchy(h).empty());
}

TEST(Invariants, HierarchyLevelDetectsCorruptMap) {
  auto gg = graph::gen::grid2d(30, 30);
  coarsen::HierarchyOptions hopt;
  hopt.coarsest_size = 64;
  auto h = coarsen::Hierarchy::build(gg.graph, hopt);
  ASSERT_GE(h.num_levels(), 2u);
  std::vector<graph::VertexId> corrupt = h.level(1).fine_to_coarse;
  // Move one fine vertex to a different coarse vertex: vertex-weight
  // conservation and cross-edge aggregation both break.
  corrupt[0] = (corrupt[0] + 1) % h.graph_at(1).num_vertices();
  Violations v = analysis::validate_hierarchy_level(
      h.graph_at(0), h.graph_at(1), corrupt);
  EXPECT_FALSE(v.empty());
}

TEST(Invariants, DistributedGraphGhostConsistency) {
  auto gg = graph::gen::grid2d(17, 23);
  for (std::uint32_t p : {1u, 4u, 7u}) {
    Violations v = analysis::validate_distributed_graph(gg.graph, p);
    EXPECT_TRUE(v.empty()) << "p=" << p << ": " << v.front();
  }
}

TEST(Invariants, PartitionValidatorAcceptsBalancedRejectsBroken) {
  auto gg = graph::gen::grid2d(16, 16);
  const graph::VertexId n = gg.graph.num_vertices();
  graph::Bipartition part(n);
  for (graph::VertexId v = 0; v < n; ++v) part[v] = v < n / 2 ? 0 : 1;
  EXPECT_TRUE(analysis::validate_partition(gg.graph, part, 0.05).empty());

  graph::Bipartition lopsided(n);  // everything on side 0
  Violations v = analysis::validate_partition(gg.graph, lopsided, 0.05);
  ASSERT_FALSE(v.empty());

  graph::Bipartition bad = part;
  bad[0] = 2;
  EXPECT_FALSE(analysis::validate_partition(gg.graph, bad, 0.05).empty());

  graph::Bipartition short_part(n - 1);
  EXPECT_FALSE(
      analysis::validate_partition(gg.graph, short_part, 0.05).empty());
}

TEST(Invariants, RankEmbeddingArcRefNamesItsCsrNeighbour) {
  // One rank's slice of a real P=4 embedding: its arc_ref comes from the
  // halo build, so it validates; pointing one arc at another vertex, or
  // dropping the last arc, is reported.
  const graph::CsrGraph g = graph::gen::delaunay(400, 3).graph;
  coarsen::HierarchyOptions hopt;
  hopt.coarsest_size = 64;
  auto hierarchy = coarsen::Hierarchy::build(g, hopt);
  embed::EmbedWorkspace workspace(hierarchy);
  embed::RankEmbedding slice;
  comm::BspEngine::Options bopt;
  bopt.nranks = 4;
  comm::BspEngine engine(bopt);
  engine.run([&](comm::Comm& world) {
    auto emb = embed::lattice_embed(world, workspace, {});
    if (world.rank() == 1) slice = std::move(emb);
  });
  ASSERT_FALSE(slice.owned.empty());
  ASSERT_FALSE(slice.ghost_ids.empty());
  EXPECT_TRUE(analysis::validate_rank_embedding(slice, g).empty());

  // The first arc that reaches a ghost now names a different ghost (or,
  // with one ghost, an owned vertex).
  embed::RankEmbedding bad = slice;
  std::size_t a = 0;
  while ((bad.arc_ref[a] & embed::kGhostRef) == 0) ++a;
  bad.arc_ref[a] = bad.ghost_ids.size() > 1
                       ? embed::kGhostRef |
                             ((bad.arc_ref[a] + 1) % bad.ghost_ids.size())
                       : 0;
  Violations v = analysis::validate_rank_embedding(bad, g);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("arc_ref[" + std::to_string(a) + "]"), std::string::npos)
      << v[0];

  bad = slice;
  bad.arc_ref.pop_back();
  v = analysis::validate_rank_embedding(bad, g);
  ASSERT_EQ(v.size(), 1u);
  EXPECT_NE(v[0].find("shorter"), std::string::npos) << v[0];
}

TEST(Invariants, FailCheckpointThrowsWithAllViolations) {
  Violations v = {"first problem", "second problem"};
  try {
    analysis::fail_checkpoint("unit/test", v);
    FAIL() << "expected InvariantViolation";
  } catch (const analysis::InvariantViolation& e) {
    std::string msg = e.what();
    EXPECT_NE(msg.find("unit/test"), std::string::npos) << msg;
    EXPECT_NE(msg.find("first problem"), std::string::npos) << msg;
    EXPECT_NE(msg.find("second problem"), std::string::npos) << msg;
  }
}

}  // namespace
}  // namespace sp
