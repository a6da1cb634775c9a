// Tests for the multilevel fixed-lattice parallel embedding — the paper's
// main contribution.
#include <gtest/gtest.h>

#include "coarsen/hierarchy.hpp"
#include "comm/engine.hpp"
#include "embed/lattice_parallel.hpp"
#include "graph/generators.hpp"
#include "partition/rcb.hpp"
#include "support/random.hpp"

namespace sp::embed {
namespace {

using graph::CsrGraph;
using graph::VertexId;

coarsen::Hierarchy build_hierarchy(const CsrGraph& g) {
  coarsen::HierarchyOptions opt;
  opt.coarsest_size = 256;
  opt.rounds_per_level = 2;
  opt.seed = 3;
  return coarsen::Hierarchy::build(g, opt);
}

struct EmbedRun {
  std::vector<geom::Vec2> coords;
  comm::RunStats stats;
};

EmbedRun run_embed(const CsrGraph& g, std::uint32_t p,
                   LatticeEmbedOptions opt = {}) {
  auto hierarchy = build_hierarchy(g);
  EmbedWorkspace workspace(hierarchy);
  EmbedRun out;
  comm::BspEngine::Options eopt;
  eopt.nranks = p;
  comm::BspEngine engine(eopt);
  out.stats = engine.run([&](comm::Comm& world) {
    world.set_stage("embed");
    auto emb = lattice_embed(world, workspace, opt);
    auto coords = gather_embedding(world, emb, g.num_vertices());
    if (world.rank() == 0) out.coords = *coords;
    world.barrier();
  });
  return out;
}

TEST(GridShape, PowerOfTwoFactorings) {
  EXPECT_EQ(grid_shape(1), std::make_pair(1u, 1u));
  EXPECT_EQ(grid_shape(2), std::make_pair(1u, 2u));
  EXPECT_EQ(grid_shape(4), std::make_pair(2u, 2u));
  EXPECT_EQ(grid_shape(8), std::make_pair(2u, 4u));
  EXPECT_EQ(grid_shape(64), std::make_pair(8u, 8u));
  EXPECT_EQ(grid_shape(1024), std::make_pair(32u, 32u));
}

TEST(EmbedWorkspace, ChildrenInvertFineToCoarse) {
  auto g = graph::gen::delaunay(2000, 1).graph;
  auto h = build_hierarchy(g);
  EmbedWorkspace ws(h);
  ASSERT_GT(h.num_levels(), 1u);
  for (std::size_t level = 1; level < h.num_levels(); ++level) {
    const auto& map = h.level(level).fine_to_coarse;
    std::size_t total_children = 0;
    for (VertexId c = 0; c < h.graph_at(level).num_vertices(); ++c) {
      for (VertexId child : ws.children(level, c)) {
        EXPECT_EQ(map[child], c);
        ++total_children;
      }
    }
    EXPECT_EQ(total_children, map.size());
  }
}

class LatticeEmbedTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(LatticeEmbedTest, EveryVertexGetsExactlyOneOwnerAndCoordinate) {
  auto g = graph::gen::delaunay(1200, 2).graph;
  auto hierarchy = build_hierarchy(g);
  EmbedWorkspace workspace(hierarchy);
  std::vector<int> owner_count(g.num_vertices(), 0);
  comm::BspEngine::Options eopt;
  eopt.nranks = GetParam();
  comm::BspEngine engine(eopt);
  engine.run([&](comm::Comm& world) {
    auto emb = lattice_embed(world, workspace, {});
    for (VertexId v : emb.owned) {
      ASSERT_LT(v, g.num_vertices());
      ++owner_count[v];  // distinct-index writes would race if duplicated
    }
    world.barrier();
  });
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(owner_count[v], 1) << "vertex " << v;
  }
}

TEST_P(LatticeEmbedTest, EmbeddingIsFiniteAndSpread) {
  auto g = graph::gen::grid2d(30, 30).graph;
  auto run = run_embed(g, GetParam());
  ASSERT_EQ(run.coords.size(), g.num_vertices());
  geom::Box box = geom::Box::of(run.coords);
  ASSERT_TRUE(box.valid());
  EXPECT_TRUE(std::isfinite(box.width()));
  EXPECT_GT(box.width(), 0.0);
  EXPECT_GT(box.height(), 0.0);
  // Not collapsed: the layout spreads across a nontrivial area.
  double rms = 0;
  geom::Vec2 c = box.center();
  for (const auto& p : run.coords) rms += geom::distance2(p, c);
  rms = std::sqrt(rms / static_cast<double>(run.coords.size()));
  EXPECT_GT(rms, 0.05 * std::max(box.width(), box.height()));
}

TEST_P(LatticeEmbedTest, EdgesShorterThanRandomPairs) {
  auto g = graph::gen::delaunay(1500, 4).graph;
  auto run = run_embed(g, GetParam());
  const auto& coords = run.coords;
  double edge_len = 0;
  std::size_t edges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId u : g.neighbors(v)) {
      if (u > v) {
        edge_len += geom::distance(coords[v], coords[u]);
        ++edges;
      }
    }
  }
  edge_len /= static_cast<double>(edges);
  double random_len = 0;
  for (std::uint64_t i = 0; i < 1000; ++i) {
    auto a = static_cast<VertexId>(hash64(i) % g.num_vertices());
    auto b = static_cast<VertexId>(hash64(i + 31337) % g.num_vertices());
    random_len += geom::distance(coords[a], coords[b]);
  }
  random_len /= 1000.0;
  EXPECT_LT(edge_len, random_len / 2.0);
}

INSTANTIATE_TEST_SUITE_P(RankCounts, LatticeEmbedTest,
                         ::testing::Values(1u, 4u, 16u, 64u));

TEST(LatticeEmbed, DeterministicForSeedAndP) {
  auto g = graph::gen::delaunay(800, 6).graph;
  auto a = run_embed(g, 16);
  auto b = run_embed(g, 16);
  ASSERT_EQ(a.coords.size(), b.coords.size());
  for (std::size_t i = 0; i < a.coords.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.coords[i][0], b.coords[i][0]);
    EXPECT_DOUBLE_EQ(a.coords[i][1], b.coords[i][1]);
  }
}

TEST(LatticeEmbed, StaleBlocksTradeCommForNothingMuch) {
  // Paper: blocks of 2-8 iterations show "no observable change in the
  // quality of the embeddings while global communication costs were
  // correspondingly reduced". Check communication drops; quality (via RCB
  // cut on the embedding) stays within a modest factor.
  auto g = graph::gen::delaunay(1500, 8);
  LatticeEmbedOptions every;
  every.stale_block = 1;
  LatticeEmbedOptions blocky;
  blocky.stale_block = 8;
  auto a = run_embed(g.graph, 16, every);
  auto b = run_embed(g.graph, 16, blocky);
  auto a_coll = a.stats.stage_sum("embed").collectives;
  auto b_coll = b.stats.stage_sum("embed").collectives;
  EXPECT_LT(b_coll, a_coll);
  auto cut_a = partition::rcb_partition(g.graph, a.coords).report.cut;
  auto cut_b = partition::rcb_partition(g.graph, b.coords).report.cut;
  EXPECT_LT(cut_b, 3 * cut_a + 50);
}

TEST(LatticeEmbed, GhostPositionsConsistentAfterFinalRefresh) {
  auto g = graph::gen::grid2d(20, 20).graph;
  auto hierarchy = build_hierarchy(g);
  EmbedWorkspace workspace(hierarchy);
  std::vector<geom::Vec2> owned_pos(g.num_vertices());
  std::vector<std::vector<std::pair<VertexId, geom::Vec2>>> ghost_views(16);
  comm::BspEngine::Options eopt;
  eopt.nranks = 16;
  comm::BspEngine engine(eopt);
  engine.run([&](comm::Comm& world) {
    auto emb = lattice_embed(world, workspace, {});
    for (std::size_t i = 0; i < emb.owned.size(); ++i) {
      owned_pos[emb.owned[i]] = emb.pos[i];
    }
    for (std::size_t i = 0; i < emb.ghost_ids.size(); ++i) {
      ghost_views[world.rank()].push_back(
          {emb.ghost_ids[i], emb.ghost_pos[i]});
    }
    world.barrier();
  });
  // Every rank's ghost copy must equal the owner's final position.
  for (const auto& views : ghost_views) {
    for (const auto& [id, pos] : views) {
      EXPECT_DOUBLE_EQ(pos[0], owned_pos[id][0]);
      EXPECT_DOUBLE_EQ(pos[1], owned_pos[id][1]);
    }
  }
}

TEST(LatticeEmbed, CommunicationGrowsWithP) {
  auto g = graph::gen::delaunay(2000, 9).graph;
  auto small = run_embed(g, 4);
  auto large = run_embed(g, 64);
  EXPECT_GT(large.stats.stage_sum("embed").messages,
            small.stats.stage_sum("embed").messages);
}

}  // namespace
}  // namespace sp::embed
