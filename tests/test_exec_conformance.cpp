// Executor conformance suite (DESIGN.md §11).
//
// One parameterized battery asserting the full Executor contract on
// every compiled-in backend — fiber, threads, and the multi-process
// backend — at P ∈ {4, 16}:
//
//   - rendezvous ordering: every collective kind, multi-packet exchange,
//     and split produce the fiber reference's results bit for bit;
//   - poison observation: every survivor of a crash observes a
//     structured RankFailedError (never a hang);
//   - crash-and-shrink: survivors shrink and finish with the reference
//     survivor set, results, and RunStats fingerprint;
//   - deadlock detection: a rank that skips a rendezvous turns into a
//     DeadlockError, not a hang;
//   - exception unwind: a user exception aborts the run and surfaces to
//     the engine.run caller with its type and message intact (over the
//     wire, on the process backend);
//   - bit-identity: analysis::audit_backends over the default point set
//     (which includes the process backend when compiled in) fingerprints
//     identically, including a shrink-and-recover run.
//
// The reference for every comparison is the fiber backend: its results
// are golden by construction (deterministic cooperative scheduler), so
// conformance means "indistinguishable from fiber on everything modeled".
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "analysis/determinism.hpp"
#include "comm/engine.hpp"
#include "exec/executor.hpp"

namespace sp {
namespace {

using comm::BspEngine;
using comm::Comm;
using comm::DeadlockError;
using comm::RankFailedError;
using comm::ReduceOp;
using comm::RunStats;

// gtest names each case by a byte dump of its param, so the struct
// carries its padding as a zeroed member: implicit padding after the
// backend byte held stack garbage and renamed the cases from one
// test-binary run to the next.
struct ConformanceCase {
  exec::Backend backend = exec::Backend::kFiber;
  std::uint8_t pad[3] = {};
  std::uint32_t nranks = 4;
};
static_assert(std::has_unique_object_representations_v<ConformanceCase>);

std::vector<ConformanceCase> conformance_cases() {
  std::vector<exec::Backend> backends{exec::Backend::kFiber};
  if (exec::threads_backend_available()) {
    backends.push_back(exec::Backend::kThreads);
  }
  if (exec::process_backend_available()) {
    backends.push_back(exec::Backend::kProcess);
  }
  std::vector<ConformanceCase> cases;
  for (exec::Backend b : backends) {
    for (std::uint32_t p : {4u, 16u}) cases.push_back({b, {}, p});
  }
  return cases;
}

std::string case_name(const ::testing::TestParamInfo<ConformanceCase>& info) {
  return std::string(exec::backend_name(info.param.backend)) + "_P" +
         std::to_string(info.param.nranks);
}

BspEngine::Options opts(exec::Backend b, std::uint32_t p) {
  BspEngine::Options o;
  o.nranks = p;
  o.backend = b;
  o.threads = 4;
  return o;
}

// ---- Rendezvous battery -------------------------------------------------
// Exercises every collective kind, a multi-packet exchange, and split;
// rank 0 gathers everything into host memory (rank 0 always lives in the
// host process, so the capture is backend-agnostic).

struct BatteryResult {
  // One row per rank, gathered to rank 0 in group-rank order.
  struct Row {
    std::int64_t allreduce = 0;
    std::int64_t gathered_digest = 0;
    std::int64_t exchanged = 0;
    std::int64_t subgroup = 0;
    std::int64_t broadcast = 0;
  };
  std::vector<Row> rows;

  bool operator==(const BatteryResult& other) const {
    if (rows.size() != other.rows.size()) return false;
    for (std::size_t i = 0; i < rows.size(); ++i) {
      const Row& a = rows[i];
      const Row& b = other.rows[i];
      if (a.allreduce != b.allreduce || a.gathered_digest != b.gathered_digest ||
          a.exchanged != b.exchanged || a.subgroup != b.subgroup ||
          a.broadcast != b.broadcast) {
        return false;
      }
    }
    return true;
  }
};

RunStats run_battery(exec::Backend b, std::uint32_t p, BatteryResult* out) {
  out->rows.clear();
  BspEngine engine(opts(b, p));
  return engine.run([out](Comm& c) {
    const auto r = static_cast<std::int64_t>(c.rank());
    const auto p64 = static_cast<std::int64_t>(c.nranks());
    c.set_stage("battery");
    c.add_compute(25.0 * static_cast<double>(r + 1));

    BatteryResult::Row row;
    row.allreduce = c.allreduce<std::int64_t>(r * r + 3, ReduceOp::kSum);

    // Variable-size allgather: rank r contributes r+1 values.
    std::vector<std::int64_t> mine(static_cast<std::size_t>(r + 1), r * 7 + 1);
    auto all =
        c.allgatherv<std::int64_t>(std::span<const std::int64_t>(mine));
    for (std::size_t i = 0; i < all.size(); ++i) {
      row.gathered_digest += static_cast<std::int64_t>(i + 1) * all[i];
    }

    // Two packets per rank, different peers — coalescing and inbox
    // ordering both participate.
    std::vector<std::pair<std::uint32_t, std::vector<std::int64_t>>> outbox;
    outbox.emplace_back(static_cast<std::uint32_t>((r + 1) % p64),
                        std::vector<std::int64_t>{r, r + 10});
    outbox.emplace_back(static_cast<std::uint32_t>((r + 2) % p64),
                        std::vector<std::int64_t>{r * 2});
    auto inbox = c.exchange_typed(outbox);
    for (const auto& [peer, data] : inbox) {
      row.exchanged += static_cast<std::int64_t>(peer) + 1;
      for (std::int64_t v : data) row.exchanged += v * 3;
    }

    // Split into parity subgroups; reduce within each.
    Comm sub = c.split(c.rank() % 2, c.rank());
    row.subgroup = sub.allreduce<std::int64_t>(r + 100, ReduceOp::kMax) +
                   static_cast<std::int64_t>(sub.rank());

    row.broadcast = c.broadcast<std::int64_t>(row.allreduce + r, 0);
    c.barrier();

    auto rows = c.gatherv<BatteryResult::Row>(
        std::span<const BatteryResult::Row>(&row, 1), 0);
    if (c.rank() == 0) out->rows = std::move(rows);
  });
}

class ExecConformance : public ::testing::TestWithParam<ConformanceCase> {};

TEST_P(ExecConformance, RendezvousBatteryMatchesFiberBitForBit) {
  const auto [backend, pad, p] = GetParam();
  BatteryResult ref;
  const RunStats ref_stats = run_battery(exec::Backend::kFiber, p, &ref);
  ASSERT_EQ(ref.rows.size(), p);

  BatteryResult got;
  const RunStats stats = run_battery(backend, p, &got);
  EXPECT_TRUE(got == ref) << "collective results diverged from fiber";
  EXPECT_EQ(stats.fingerprint(), ref_stats.fingerprint());
  EXPECT_EQ(stats.backend, backend);
  ASSERT_EQ(stats.clocks.size(), ref_stats.clocks.size());
  for (std::size_t i = 0; i < stats.clocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(stats.clocks[i], ref_stats.clocks[i]) << "rank " << i;
  }
}

// ---- Crash, poison, shrink ---------------------------------------------

struct CrashResult {
  std::vector<std::uint32_t> failed;     // as rank 0 observed them
  std::vector<std::uint32_t> survivors;  // world ranks after shrink
  std::int64_t observers = 0;            // survivors that saw the poison
  std::int64_t final_sum = 0;
};

RunStats run_crash_and_shrink(exec::Backend b, std::uint32_t p,
                              CrashResult* out) {
  *out = CrashResult{};
  BspEngine::Options o = opts(b, p);
  o.faults.crashes.push_back({/*rank=*/1, /*stage=*/"", /*after_events=*/3});
  BspEngine engine(o);
  return engine.run([out](Comm& world0) {
    Comm world = world0;
    bool caught = false;
    for (;;) {
      try {
        for (int step = 0; step < 6; ++step) {
          (void)world.allreduce<std::int64_t>(
              static_cast<std::int64_t>(world.rank()) + step, ReduceOp::kSum);
        }
        const std::int64_t sum = world.allreduce<std::int64_t>(
            static_cast<std::int64_t>(world.world_rank()), ReduceOp::kSum);
        const std::int64_t observers =
            world.allreduce<std::int64_t>(caught ? 1 : 0, ReduceOp::kSum);
        auto ids = world.allgather<std::uint32_t>(world.world_rank());
        if (world.rank() == 0) {
          out->survivors = ids;
          out->observers = observers;
          out->final_sum = sum;
        }
        return;
      } catch (const RankFailedError& e) {
        caught = true;
        if (world.world_rank() == 0) out->failed = e.failed_ranks();
        world = world.shrink();
      }
    }
  });
}

TEST_P(ExecConformance, CrashPoisonsSurvivorsAndShrinkRecovers) {
  const auto [backend, pad, p] = GetParam();
  CrashResult ref;
  const RunStats ref_stats =
      run_crash_and_shrink(exec::Backend::kFiber, p, &ref);

  CrashResult got;
  const RunStats stats = run_crash_and_shrink(backend, p, &got);

  // Structured failure: rank 1 died, every survivor observed it.
  EXPECT_EQ(got.failed, std::vector<std::uint32_t>{1u});
  EXPECT_EQ(got.observers, static_cast<std::int64_t>(p - 1));
  ASSERT_EQ(got.survivors.size(), p - 1);
  EXPECT_EQ(got.survivors, ref.survivors);
  EXPECT_EQ(got.final_sum, ref.final_sum);
  EXPECT_EQ(stats.failed_ranks, ref_stats.failed_ranks);
  EXPECT_EQ(stats.fingerprint(), ref_stats.fingerprint());
}

// ---- Deadlock / stall detection ----------------------------------------

TEST_P(ExecConformance, SkippedRendezvousRaisesDeadlockError) {
  const auto [backend, pad, p] = GetParam();
  BspEngine engine(opts(backend, p));
  EXPECT_THROW(engine.run([](Comm& c) {
    if (c.rank() != 0) c.barrier();  // rank 0 bails out
  }),
               DeadlockError);
}

// ---- Exception unwind ---------------------------------------------------

TEST_P(ExecConformance, UserExceptionSurfacesWithMessage) {
  const auto [backend, pad, p] = GetParam();
  BspEngine engine(opts(backend, p));
  try {
    engine.run([](Comm& c) {
      if (c.rank() == 2) throw std::runtime_error("rank 2 burst a seam");
      c.barrier();
    });
    FAIL() << "expected the user exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("rank 2 burst a seam"),
              std::string::npos)
        << "got: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, ExecConformance,
                         ::testing::ValuesIn(conformance_cases()), case_name);

// ---- Cross-backend bit-identity via the determinism auditor -------------

TEST(ExecConformanceAudit, BackendAuditBitIdenticalAtP4AndP16) {
  for (std::uint32_t p : {4u, 16u}) {
    auto result = std::make_shared<BatteryResult>();
    analysis::ProgramFactory factory = [result]() {
      result->rows.clear();
      return [result](Comm& c) {
        const auto r = static_cast<std::int64_t>(c.rank());
        BatteryResult::Row row;
        row.allreduce = c.allreduce<std::int64_t>(r * 5 + 2, ReduceOp::kSum);
        Comm sub = c.split(c.rank() % 2, c.rank());
        row.subgroup = sub.allreduce<std::int64_t>(r + 1, ReduceOp::kSum);
        auto rows = c.gatherv<BatteryResult::Row>(
            std::span<const BatteryResult::Row>(&row, 1), 0);
        if (c.rank() == 0) result->rows = std::move(rows);
      };
    };
    BspEngine::Options base;
    base.nranks = p;
    base.threads = 4;
    auto report = analysis::audit_backends(
        base, factory, [result]() -> std::uint64_t {
          return analysis::fingerprint_bytes(
              result->rows.data(),
              result->rows.size() * sizeof(BatteryResult::Row));
        });
    EXPECT_TRUE(report.deterministic) << "P=" << p << ": " << report.str();
    EXPECT_EQ(report.schedules_run,
              analysis::default_backend_points().size());
  }
}

TEST(ExecConformanceAudit, BackendAuditShrinkAndRecoverBitIdentical) {
  for (std::uint32_t p : {4u, 16u}) {
    auto result = std::make_shared<CrashResult>();
    analysis::ProgramFactory factory = [result]() {
      *result = CrashResult{};
      return [result](Comm& world0) {
        Comm world = world0;
        for (;;) {
          try {
            for (int step = 0; step < 5; ++step) {
              (void)world.allreduce<std::int64_t>(
                  static_cast<std::int64_t>(world.rank()) + step,
                  ReduceOp::kSum);
            }
            auto ids = world.allgather<std::uint32_t>(world.world_rank());
            if (world.rank() == 0) result->survivors = ids;
            return;
          } catch (const RankFailedError& e) {
            if (world.world_rank() == 0) result->failed = e.failed_ranks();
            world = world.shrink();
          }
        }
      };
    };
    BspEngine::Options base;
    base.nranks = p;
    base.threads = 4;
    base.faults.crashes.push_back(
        {/*rank=*/2, /*stage=*/"", /*after_events=*/2});
    auto report = analysis::audit_backends(
        base, factory, [result]() -> std::uint64_t {
          std::uint64_t fp = analysis::fingerprint_bytes(
              result->survivors.data(),
              result->survivors.size() * sizeof(std::uint32_t));
          return fp ^ analysis::fingerprint_bytes(
                          result->failed.data(),
                          result->failed.size() * sizeof(std::uint32_t));
        });
    EXPECT_TRUE(report.deterministic) << "P=" << p << ": " << report.str();
    EXPECT_EQ(report.schedules_run,
              analysis::default_backend_points().size());
  }
}

}  // namespace
}  // namespace sp
