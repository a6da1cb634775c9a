// Tests for block distribution and per-rank local views.
#include <gtest/gtest.h>

#include "graph/distributed_graph.hpp"
#include "graph/generators.hpp"

namespace sp::graph {
namespace {

TEST(BlockDistribution, OwnerAndBeginConsistent) {
  const VertexId n = 103;
  const std::uint32_t p = 8;
  for (std::uint32_t r = 0; r < p; ++r) {
    for (VertexId v = block_begin(r, n, p); v < block_begin(r + 1, n, p); ++v) {
      EXPECT_EQ(block_owner(v, n, p), r);
    }
  }
  EXPECT_EQ(block_begin(0, n, p), 0u);
  EXPECT_EQ(block_begin(p, n, p), n);
}

TEST(BlockDistribution, NearEqualSizes) {
  const VertexId n = 1000;
  const std::uint32_t p = 7;
  VertexId min_size = n, max_size = 0;
  for (std::uint32_t r = 0; r < p; ++r) {
    VertexId size = block_begin(r + 1, n, p) - block_begin(r, n, p);
    min_size = std::min(min_size, size);
    max_size = std::max(max_size, size);
  }
  EXPECT_LE(max_size - min_size, 1u);
}

TEST(LocalView, PartitionsAllVertices) {
  auto g = gen::delaunay(300, 2).graph;
  const std::uint32_t p = 4;
  VertexId covered = 0;
  for (std::uint32_t r = 0; r < p; ++r) {
    LocalView view(g, r, p);
    covered += view.num_local();
    EXPECT_EQ(view.rank(), r);
  }
  EXPECT_EQ(covered, g.num_vertices());
}

TEST(LocalView, GhostsAreExactlyNonOwnedNeighbors) {
  auto g = gen::grid2d(10, 10).graph;
  LocalView view(g, 1, 4);
  for (VertexId i = 0; i < view.ghosts().size(); ++i) {
    EXPECT_FALSE(view.owns(view.ghosts()[i]));
    EXPECT_EQ(view.ghost_index(view.ghosts()[i]), i);
  }
  // Every non-owned neighbour of an owned vertex appears in ghosts.
  for (VertexId local = 0; local < view.num_local(); ++local) {
    for (VertexId u : view.neighbors(local)) {
      if (!view.owns(u)) {
        EXPECT_NE(view.ghost_index(u), kInvalidVertex);
      }
    }
  }
  // Neither an owned id nor a vertex no owned vertex touches is a ghost:
  // rank 1 owns rows 2..4 of the grid, so row 9 is out of reach.
  EXPECT_EQ(view.ghost_index(view.to_global(0)), kInvalidVertex);
  EXPECT_EQ(view.ghost_index(99), kInvalidVertex);
  EXPECT_EQ(view.ghost_index(view.ghosts().front() - 1), kInvalidVertex);
}

TEST(LocalView, BoundaryLocalsHaveExternalEdges) {
  auto g = gen::grid2d(8, 8).graph;
  LocalView view(g, 0, 2);
  for (VertexId local : view.boundary_locals()) {
    bool external = false;
    for (VertexId u : view.neighbors(local)) external |= !view.owns(u);
    EXPECT_TRUE(external);
  }
}

TEST(LocalView, NeighborRanksSortedAndGrouped) {
  auto g = gen::delaunay(400, 8).graph;
  LocalView view(g, 2, 8);
  const auto& ranks = view.neighbor_ranks();
  for (std::size_t i = 1; i < ranks.size(); ++i) {
    EXPECT_LT(ranks[i - 1], ranks[i]);
  }
  ASSERT_EQ(ranks.size(), view.ghosts_by_rank().size());
  std::size_t total = 0;
  for (std::size_t i = 0; i < ranks.size(); ++i) {
    for (VertexId ghost : view.ghosts_by_rank()[i]) {
      EXPECT_EQ(block_owner(ghost, g.num_vertices(), 8), ranks[i]);
      ++total;
    }
  }
  EXPECT_EQ(total, view.ghosts().size());
}

TEST(LocalView, SingleRankOwnsEverything) {
  auto g = gen::cycle(50).graph;
  LocalView view(g, 0, 1);
  EXPECT_EQ(view.num_local(), 50u);
  EXPECT_TRUE(view.ghosts().empty());
  EXPECT_TRUE(view.boundary_locals().empty());
}

}  // namespace
}  // namespace sp::graph
