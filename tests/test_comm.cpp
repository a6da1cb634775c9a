// Tests for the BSP message-passing runtime: collectives, exchange,
// splitting, cost accounting, determinism.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "comm/engine.hpp"
#include "exec/executor.hpp"

namespace sp::comm {
namespace {

BspEngine::Options opts(std::uint32_t p) {
  BspEngine::Options o;
  o.nranks = p;
  return o;
}

TEST(Comm, AllReduceSumMinMax) {
  BspEngine engine(opts(8));
  engine.run([](Comm& c) {
    auto sum = c.allreduce<std::int64_t>(c.rank() + 1, ReduceOp::kSum);
    EXPECT_EQ(sum, 36);
    auto mn = c.allreduce<std::int64_t>(c.rank() + 1, ReduceOp::kMin);
    EXPECT_EQ(mn, 1);
    auto mx = c.allreduce<std::int64_t>(c.rank() + 1, ReduceOp::kMax);
    EXPECT_EQ(mx, 8);
  });
}

TEST(Comm, AllReduceVectorElementwise) {
  BspEngine engine(opts(4));
  engine.run([](Comm& c) {
    double vals[2] = {1.0, static_cast<double>(c.rank())};
    auto out = c.allreduce_vec(std::span<const double>(vals, 2),
                               ReduceOp::kSum);
    EXPECT_DOUBLE_EQ(out[0], 4.0);
    EXPECT_DOUBLE_EQ(out[1], 6.0);
  });
}

TEST(Comm, AllGatherOrdered) {
  BspEngine engine(opts(6));
  engine.run([](Comm& c) {
    auto all = c.allgather<std::uint32_t>(c.rank() * c.rank());
    ASSERT_EQ(all.size(), 6u);
    for (std::uint32_t r = 0; r < 6; ++r) EXPECT_EQ(all[r], r * r);
  });
}

TEST(Comm, AllGathervVariableSizesWithCounts) {
  BspEngine engine(opts(4));
  engine.run([](Comm& c) {
    std::vector<std::uint32_t> mine(c.rank(), c.rank());  // rank r sends r copies
    std::vector<std::size_t> counts;
    auto all = c.allgatherv(std::span<const std::uint32_t>(mine), &counts);
    EXPECT_EQ(all.size(), 0u + 1 + 2 + 3);
    ASSERT_EQ(counts.size(), 4u);
    for (std::uint32_t r = 0; r < 4; ++r) EXPECT_EQ(counts[r], r);
    // Concatenation order: 1, 2 2, 3 3 3.
    EXPECT_EQ(all[0], 1u);
    EXPECT_EQ(all[1], 2u);
    EXPECT_EQ(all[3], 3u);
  });
}

TEST(Comm, GathervOnlyRootReceives) {
  BspEngine engine(opts(4));
  engine.run([](Comm& c) {
    std::vector<double> mine = {static_cast<double>(c.rank())};
    auto got = c.gatherv(std::span<const double>(mine), 2);
    if (c.rank() == 2) {
      ASSERT_EQ(got.size(), 4u);
      EXPECT_DOUBLE_EQ(got[3], 3.0);
    } else {
      EXPECT_TRUE(got.empty());
    }
  });
}

TEST(Comm, BroadcastFromNonzeroRoot) {
  BspEngine engine(opts(8));
  engine.run([](Comm& c) {
    std::vector<int> payload;
    if (c.rank() == 5) payload = {42, 43, 44};
    auto got = c.broadcast_vec(std::span<const int>(payload), 5);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[1], 43);
  });
}

TEST(Comm, ExchangeRoutesAndSortsBySource) {
  BspEngine engine(opts(5));
  engine.run([](Comm& c) {
    // Everyone sends its rank to every other rank.
    std::vector<std::pair<std::uint32_t, std::vector<std::uint32_t>>> out;
    for (std::uint32_t r = 0; r < c.nranks(); ++r) {
      if (r != c.rank()) out.push_back({r, {c.rank()}});
    }
    auto in = c.exchange_typed(out);
    ASSERT_EQ(in.size(), 4u);
    for (std::size_t i = 1; i < in.size(); ++i) {
      EXPECT_LT(in[i - 1].first, in[i].first);
    }
    for (const auto& [src, data] : in) {
      ASSERT_EQ(data.size(), 1u);
      EXPECT_EQ(data[0], src);
    }
  });
}

TEST(Comm, ExchangeEmptyParticipation) {
  BspEngine engine(opts(3));
  engine.run([](Comm& c) {
    std::vector<Comm::Packet> none;
    auto in = c.exchange(std::move(none));
    EXPECT_TRUE(in.empty());
  });
}

TEST(Comm, SplitFormsCorrectSubgroups) {
  BspEngine engine(opts(8));
  engine.run([](Comm& c) {
    Comm sub = c.split(c.rank() % 2, c.rank());
    EXPECT_EQ(sub.nranks(), 4u);
    EXPECT_EQ(sub.rank(), c.rank() / 2);
    auto members = sub.allgather<std::uint32_t>(sub.world_rank());
    for (std::uint32_t m : members) EXPECT_EQ(m % 2, c.rank() % 2);
    // Nested split works too.
    Comm subsub = sub.split(sub.rank() < 2 ? 0 : 1, sub.rank());
    EXPECT_EQ(subsub.nranks(), 2u);
  });
}

TEST(Comm, SplitSingletonGroups) {
  // Every rank its own color: 8 one-rank communicators, all usable.
  BspEngine engine(opts(8));
  engine.run([](Comm& c) {
    Comm solo = c.split(c.rank(), 0);
    EXPECT_EQ(solo.nranks(), 1u);
    EXPECT_EQ(solo.rank(), 0u);
    EXPECT_EQ(solo.world_rank(), c.world_rank());
    EXPECT_EQ(solo.allreduce<std::int64_t>(7, ReduceOp::kSum), 7);
    EXPECT_EQ(solo.allgather<std::uint32_t>(c.rank()),
              std::vector<std::uint32_t>{c.rank()});
    solo.barrier();
    // Self-addressed exchange round-trips.
    std::vector<Comm::Packet> out(1);
    out[0].peer = 0;
    out[0].data.assign(3, std::byte{0x11});
    auto in = solo.exchange(std::move(out));
    ASSERT_EQ(in.size(), 1u);
    EXPECT_EQ(in[0].data.size(), 3u);
  });
}

TEST(Comm, SplitOfSplitThreeLevels) {
  BspEngine engine(opts(8));
  engine.run([](Comm& c) {
    Comm half = c.split(c.rank() / 4, c.rank());       // {0..3}, {4..7}
    Comm pair = half.split(half.rank() / 2, half.rank());  // groups of 2
    ASSERT_EQ(pair.nranks(), 2u);
    EXPECT_EQ(pair.rank(), c.rank() % 2);
    // Partner in the pair is the world neighbor.
    auto members = pair.allgather<std::uint32_t>(c.world_rank());
    EXPECT_EQ(members[0] + 1, members[1]);
    // Key reverses order within the innermost group.
    Comm rev = pair.split(0, 1 - pair.rank());
    EXPECT_EQ(rev.rank(), 1 - pair.rank());
    // Collectives on all three levels interleave without cross-talk.
    EXPECT_EQ(half.allreduce<std::uint32_t>(1, ReduceOp::kSum), 4u);
    EXPECT_EQ(pair.allreduce<std::uint32_t>(1, ReduceOp::kSum), 2u);
    EXPECT_EQ(rev.allreduce<std::uint32_t>(1, ReduceOp::kSum), 2u);
    // All-empty exchange completes on a nested communicator too.
    auto in = rev.exchange({});
    EXPECT_TRUE(in.empty());
  });
}

TEST(Comm, SubgroupsOperateConcurrently) {
  BspEngine engine(opts(8));
  engine.run([](Comm& c) {
    Comm sub = c.split(c.rank() / 4, c.rank());  // two groups of 4
    auto sum = sub.allreduce<std::uint32_t>(1, ReduceOp::kSum);
    EXPECT_EQ(sum, 4u);
  });
}

TEST(Comm, VirtualClockAdvancesWithComputeAndComm) {
  BspEngine engine(opts(4));
  auto stats = engine.run([](Comm& c) {
    c.set_stage("s1");
    c.add_compute(1e6);
    c.barrier();
    c.set_stage("s2");
    c.allgather<double>(1.0);
  });
  EXPECT_GT(stats.makespan(), 0.0);
  auto s1 = stats.stage_max("s1");
  EXPECT_GT(s1.compute_seconds, 0.0);
  EXPECT_GT(s1.comm_seconds, 0.0);  // barrier charged to s1
  auto s2 = stats.stage_max("s2");
  EXPECT_GT(s2.comm_seconds, 0.0);
  EXPECT_EQ(s2.compute_seconds, 0.0);
  EXPECT_EQ(stats.stages().size(), 2u);
}

TEST(Comm, ClockSynchronizesAtCollectives) {
  BspEngine engine(opts(4));
  auto stats = engine.run([](Comm& c) {
    if (c.rank() == 0) c.add_compute(5e6);  // one slow rank
    c.barrier();
    // After the barrier every clock is at least the slow rank's time.
    EXPECT_GE(c.clock(), 5e6 / 0.35e9 * 0.99);
  });
  (void)stats;
}

TEST(Comm, FreeNetworkModelHasZeroCommTime) {
  BspEngine::Options o = opts(4);
  o.model = CostModel::free_network();
  BspEngine engine(o);
  auto stats = engine.run([](Comm& c) {
    c.allgather<int>(static_cast<int>(c.rank()));
    c.barrier();
  });
  EXPECT_DOUBLE_EQ(stats.stage_max("main").comm_seconds, 0.0);
}

TEST(Comm, DeterministicAcrossRuns) {
  auto program = [](Comm& c) {
    double x = c.rank() * 1.5;
    for (int i = 0; i < 3; ++i) {
      x = c.allreduce(x, ReduceOp::kSum) / c.nranks();
      c.add_compute(1000 * (c.rank() + 1));
    }
  };
  BspEngine e1(opts(16)), e2(opts(16));
  auto a = e1.run(program);
  auto b = e2.run(program);
  ASSERT_EQ(a.clocks.size(), b.clocks.size());
  for (std::size_t i = 0; i < a.clocks.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.clocks[i], b.clocks[i]);
  }
}

TEST(Comm, ExceptionPropagates) {
  BspEngine engine(opts(4));
  EXPECT_THROW(engine.run([](Comm& c) {
    if (c.rank() == 2) throw std::runtime_error("rank 2 failed");
    c.barrier();
  }),
               std::runtime_error);
}

TEST(Comm, EngineReusableAcrossRuns) {
  BspEngine engine(opts(4));
  auto a = engine.run([](Comm& c) { c.add_compute(100); });
  auto b = engine.run([](Comm& c) { c.add_compute(200); });
  EXPECT_GT(b.makespan(), a.makespan());
}

TEST(Comm, SingleRankWorld) {
  BspEngine engine(opts(1));
  engine.run([](Comm& c) {
    EXPECT_EQ(c.nranks(), 1u);
    auto all = c.allgather<int>(7);
    ASSERT_EQ(all.size(), 1u);
    EXPECT_EQ(c.allreduce<int>(3, ReduceOp::kSum), 3);
    auto in = c.exchange({});
    EXPECT_TRUE(in.empty());
  });
}

TEST(Comm, LargeRankCountCollectives) {
  BspEngine engine(opts(256));
  auto stats = engine.run([](Comm& c) {
    auto sum = c.allreduce<std::uint64_t>(1, ReduceOp::kSum);
    EXPECT_EQ(sum, 256u);
  });
  // log2(256) = 8 latency terms at t_s = 1.7us.
  EXPECT_NEAR(stats.makespan(), 8 * 1.7e-6, 8 * 1.7e-6 * 0.5 + 1e-6);
}

// ---- allgather_derive: fold once, share the result -------------------
//
// Run on every compiled-in backend. The derived object must carry exactly
// the allgatherv bytes, fn must run once per collective in each address
// space (once in-process, once per child on the process backend), and the
// modeled side of the run must be indistinguishable from allgatherv plus
// a local fn on every rank.

// gtest names each case by a byte dump of its param: keep the padding an
// explicit zeroed member (see test_exec_conformance.cpp).
struct DeriveCase {
  exec::Backend backend = exec::Backend::kFiber;
  std::uint8_t pad[3] = {};
  std::uint32_t nranks = 4;
};
static_assert(std::has_unique_object_representations_v<DeriveCase>);

std::vector<DeriveCase> derive_cases() {
  std::vector<exec::Backend> backends{exec::Backend::kFiber};
  if (exec::threads_backend_available()) {
    backends.push_back(exec::Backend::kThreads);
  }
  if (exec::process_backend_available()) {
    backends.push_back(exec::Backend::kProcess);
  }
  std::vector<DeriveCase> cases;
  for (exec::Backend b : backends) {
    for (std::uint32_t p : {4u, 16u}) cases.push_back({b, {}, p});
  }
  return cases;
}

std::string derive_case_name(
    const ::testing::TestParamInfo<DeriveCase>& info) {
  return std::string(exec::backend_name(info.param.backend)) + "_P" +
         std::to_string(info.param.nranks);
}

BspEngine::Options derive_opts(const DeriveCase& c) {
  BspEngine::Options o;
  o.nranks = c.nranks;
  o.backend = c.backend;
  o.threads = 4;
  return o;
}

constexpr int kDeriveRounds = 3;

/// fn calls in this address space (a forked child counts its own).
std::atomic<std::int64_t> g_derive_calls{0};

struct Gathered {
  std::vector<std::int64_t> values;
  std::int64_t digest = 0;
};

Gathered summarize(std::span<const std::int64_t> all) {
  g_derive_calls.fetch_add(1, std::memory_order_relaxed);
  Gathered g;
  g.values.assign(all.begin(), all.end());
  for (std::size_t i = 0; i < all.size(); ++i) {
    g.digest += static_cast<std::int64_t>(i + 1) * all[i];
  }
  return g;
}

/// Rank r contributes r % 3 values, so ranks 0, 3, 6, ... send nothing.
std::vector<std::int64_t> contribution(std::uint32_t r, int round) {
  return std::vector<std::int64_t>(r % 3, static_cast<std::int64_t>(r) * 10 +
                                              round);
}

struct DeriveRow {
  std::int64_t digest[kDeriveRounds] = {};
  std::int64_t bytes_ok = 1;  // every round matched the expected bytes
  std::int64_t calls = 0;     // g_derive_calls after the last round
  std::uint64_t object = 0;   // address of round 0's object
};

/// The same program twice over: with allgather_derive (`derive`), or with
/// allgatherv and fn run locally on every rank. Rank 0 (always in the
/// host process) gathers every rank's row into `rows`.
RunStats run_derive_program(const DeriveCase& dc, bool derive,
                            std::vector<DeriveRow>* rows) {
  g_derive_calls = 0;
  BspEngine engine(derive_opts(dc));
  return engine.run([derive, rows](Comm& c) {
    c.set_stage("derive");
    DeriveRow row;
    // Held to the end so no round's object reuses another's address.
    std::vector<std::shared_ptr<const Gathered>> held;
    for (int k = 0; k < kDeriveRounds; ++k) {
      const auto mine = contribution(c.rank(), k);
      const std::span<const std::int64_t> span(mine);
      std::shared_ptr<const Gathered> g =
          derive ? c.allgather_derive(span, summarize)
                 : std::make_shared<const Gathered>(
                       summarize(c.allgatherv(span)));
      c.add_compute(static_cast<double>(g->values.size()));
      std::vector<std::int64_t> expected;
      for (std::uint32_t q = 0; q < c.nranks(); ++q) {
        const auto theirs = contribution(q, k);
        expected.insert(expected.end(), theirs.begin(), theirs.end());
      }
      if (g->values != expected) row.bytes_ok = 0;
      row.digest[k] = g->digest;
      if (k == 0) row.object = reinterpret_cast<std::uintptr_t>(g.get());
      held.push_back(std::move(g));
    }
    c.barrier();  // every member's rounds are done before counting
    row.calls = g_derive_calls.load();
    auto all = c.gatherv(std::span<const DeriveRow>(&row, 1), 0);
    if (c.rank() == 0) *rows = std::move(all);
  });
}

class CollectiveDerive : public ::testing::TestWithParam<DeriveCase> {};

TEST_P(CollectiveDerive, FoldsOncePerAddressSpaceWithIdenticalBytes) {
  const DeriveCase dc = GetParam();
  std::vector<DeriveRow> rows;
  run_derive_program(dc, /*derive=*/true, &rows);
  ASSERT_EQ(rows.size(), dc.nranks);
  for (std::uint32_t r = 0; r < dc.nranks; ++r) {
    SCOPED_TRACE("rank " + std::to_string(r));
    EXPECT_EQ(rows[r].bytes_ok, 1);
    // One fn call per collective wherever this rank's copy was derived:
    // the shared fold in-process, the child's own fold on process.
    EXPECT_EQ(rows[r].calls, kDeriveRounds);
    for (int k = 0; k < kDeriveRounds; ++k) {
      EXPECT_EQ(rows[r].digest[k], rows[0].digest[k]);
    }
    if (dc.backend != exec::Backend::kProcess) {
      EXPECT_EQ(rows[r].object, rows[0].object) << "not one shared object";
    }
  }
}

TEST_P(CollectiveDerive, ModeledRunMatchesAllgathervPlusLocalFn) {
  const DeriveCase dc = GetParam();
  std::vector<DeriveRow> derived, local;
  const RunStats a = run_derive_program(dc, /*derive=*/true, &derived);
  const RunStats b = run_derive_program(dc, /*derive=*/false, &local);
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
  ASSERT_EQ(a.clocks.size(), b.clocks.size());
  for (std::size_t r = 0; r < a.clocks.size(); ++r) {
    EXPECT_EQ(a.clocks[r], b.clocks[r]) << "rank " << r;
  }
  ASSERT_EQ(derived.size(), local.size());
  for (std::size_t r = 0; r < derived.size(); ++r) {
    EXPECT_EQ(local[r].bytes_ok, 1);
    for (int k = 0; k < kDeriveRounds; ++k) {
      EXPECT_EQ(derived[r].digest[k], local[r].digest[k]);
    }
  }
}

TEST_P(CollectiveDerive, DeadMemberRaisesRankFailedError) {
  const DeriveCase dc = GetParam();
  BspEngine::Options o = derive_opts(dc);
  // Rank 1 dies entering its second communication event: the derive.
  o.faults.crashes.push_back({/*rank=*/1, /*stage=*/"", /*after_events=*/1});
  struct Outcome {
    std::int64_t observers = 0;
    std::int64_t survivors = 0;
    std::int64_t digest = 0;
  } out;
  BspEngine engine(o);
  const RunStats stats = engine.run([&out](Comm& world0) {
    Comm world = world0;
    world.barrier();
    bool caught = false;
    try {
      (void)world.allgather_derive(
          std::span<const std::int64_t>(contribution(world.rank(), 0)),
          summarize);
    } catch (const RankFailedError&) {
      caught = true;
      world = world.shrink();
    }
    // The shrunken group derives as any other group does.
    const auto mine = contribution(world.world_rank(), 1);
    auto g = world.allgather_derive(std::span<const std::int64_t>(mine),
                                    summarize);
    const auto observers =
        world.allreduce<std::int64_t>(caught ? 1 : 0, ReduceOp::kSum);
    if (world.world_rank() == 0) {
      out.observers = observers;
      out.survivors = world.nranks();
      out.digest = g->digest;
    }
  });
  EXPECT_EQ(stats.failed_ranks, std::vector<std::uint32_t>{1u});
  EXPECT_EQ(out.observers, static_cast<std::int64_t>(dc.nranks - 1));
  EXPECT_EQ(out.survivors, static_cast<std::int64_t>(dc.nranks - 1));
  std::vector<std::int64_t> expected;
  for (std::uint32_t q = 0; q < dc.nranks; ++q) {
    if (q == 1) continue;
    const auto theirs = contribution(q, 1);
    expected.insert(expected.end(), theirs.begin(), theirs.end());
  }
  EXPECT_EQ(out.digest, summarize(expected).digest);
}

TEST_P(CollectiveDerive, BroadcastDeriveSharesTheRootsValues) {
  const DeriveCase dc = GetParam();
  std::int64_t mismatches = -1;
  BspEngine engine(derive_opts(dc));
  engine.run([&mismatches](Comm& c) {
    const std::vector<std::int64_t> mine = {7, static_cast<std::int64_t>(c.rank()),
                                            11};
    auto g = c.broadcast_derive(std::span<const std::int64_t>(mine), 2,
                                summarize);
    const std::int64_t bad =
        g->values != std::vector<std::int64_t>{7, 2, 11} ? 1 : 0;
    const auto total = c.allreduce<std::int64_t>(bad, ReduceOp::kSum);
    if (c.rank() == 0) mismatches = total;
  });
  EXPECT_EQ(mismatches, 0);
}

TEST_P(CollectiveDerive, ExceptionInFnReachesEveryMember) {
  const DeriveCase dc = GetParam();
  BspEngine engine(derive_opts(dc));
  try {
    engine.run([](Comm& c) {
      const std::int64_t one = 1;
      (void)c.allgather_derive(
          std::span<const std::int64_t>(&one, 1),
          [](std::span<const std::int64_t>) -> int {
            throw std::runtime_error("derive fn failed");
          });
      c.barrier();  // unreachable: every member rethrows
    });
    FAIL() << "expected the fn's exception to surface";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("derive fn failed"),
              std::string::npos)
        << "got: " << e.what();
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CollectiveDerive,
                         ::testing::ValuesIn(derive_cases()),
                         derive_case_name);

// Comm::split derives every color's member order once per split. With
// shuffled keys (ties broken by world rank) and three colors, each rank
// must land where the filter-and-sort rule puts it: the members of its
// color, ordered by (key, world rank). A second split of the result, with
// reversed keys, checks a parent whose group ranks are not world ranks.
class CommSplit : public ::testing::TestWithParam<DeriveCase> {};

std::uint32_t shuffled_key(std::uint32_t r, std::uint32_t p) {
  return (r * 7 + 3) % p / 2;  // a permutation halved: every key twice
}

TEST_P(CommSplit, ShuffledKeysAndThreeColorsGiveTheFilterAndSortGroups) {
  const DeriveCase dc = GetParam();
  const std::uint32_t p = dc.nranks;
  std::vector<std::vector<std::uint32_t>> want(3);
  for (std::uint32_t r = 0; r < p; ++r) want[r % 3].push_back(r);
  for (auto& members : want) {
    std::sort(members.begin(), members.end(),
              [p](std::uint32_t a, std::uint32_t b) {
                return std::make_pair(shuffled_key(a, p), a) <
                       std::make_pair(shuffled_key(b, p), b);
              });
  }
  struct Row {
    std::uint32_t outer_ok = 0;
    std::uint32_t inner_ok = 0;
  };
  std::vector<Row> rows;
  BspEngine engine(derive_opts(dc));
  engine.run([&](Comm& c) {
    const std::uint32_t r = c.rank();
    Comm sub = c.split(r % 3, shuffled_key(r, p));
    const auto members = sub.allgather(r);
    const auto& mine = want[r % 3];
    Row row;
    row.outer_ok = members == mine && sub.nranks() == mine.size() &&
                   mine[sub.rank()] == r;
    Comm inner = sub.split(sub.rank() % 2, sub.nranks() - sub.rank());
    std::vector<std::uint32_t> inner_want;
    for (std::uint32_t q = sub.nranks(); q-- > 0;) {
      if (q % 2 == sub.rank() % 2) inner_want.push_back(members[q]);
    }
    row.inner_ok = inner.allgather(r) == inner_want &&
                   inner_want[inner.rank()] == r;
    auto all = c.gatherv(std::span<const Row>(&row, 1), 0);
    if (r == 0) rows = std::move(all);
  });
  ASSERT_EQ(rows.size(), p);
  for (std::uint32_t r = 0; r < p; ++r) {
    EXPECT_EQ(rows[r].outer_ok, 1u) << "rank " << r;
    EXPECT_EQ(rows[r].inner_ok, 1u) << "rank " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(Backends, CommSplit,
                         ::testing::ValuesIn(derive_cases()),
                         derive_case_name);

TEST(CostModel, P2pFormula) {
  CostModel m = CostModel::nehalem_qdr();
  EXPECT_DOUBLE_EQ(m.p2p(0), m.ts);
  EXPECT_GT(m.p2p(1 << 20), m.ts + 1e-4);  // 1 MiB at ~3.2 GB/s ~ 0.3 ms
}

}  // namespace
}  // namespace sp::comm
