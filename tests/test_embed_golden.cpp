// Golden-coordinate audit of the SoA embedding kernel: the rewritten
// structure-of-arrays force loop must reproduce the coordinates of the
// original AoS kernel to 1e-12 on three graphs of different character
// (regular grid, Delaunay mesh, Erdos-Renyi expander). The expectations
// in golden_embed_coords.hpp were captured from the pre-SoA kernel
// (hierarchy coarsest_size=64, rounds_per_level=2, seed=3; embed
// defaults with seed=17; P=4, fiber backend) — any drift here means the
// optimization changed the math, not just the layout.
//
// The P=64 cases pin bit-exact digests of the final coordinates and of
// the parallel_gmt partition at stale_block 4 and 3. At P=64 every
// projection level builds a balanced grid from a gathered sample with
// several ranks, stale beta aggregates span many cells, and the
// centerpoint and thresholds come from gathered samples, so a change to
// how any of them is derived or shared shows here as a changed digest.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <vector>

#include "analysis/determinism.hpp"
#include "coarsen/hierarchy.hpp"
#include "comm/engine.hpp"
#include "embed/lattice_parallel.hpp"
#include "golden_embed_coords.hpp"
#include "graph/generators.hpp"
#include "partition/parallel_gmt.hpp"

namespace sp::embed {
namespace {

std::vector<geom::Vec2> embed_p4(const graph::CsrGraph& g) {
  coarsen::HierarchyOptions hopt;
  hopt.coarsest_size = 64;
  hopt.rounds_per_level = 2;
  hopt.seed = 3;
  auto hierarchy = coarsen::Hierarchy::build(g, hopt);
  EmbedWorkspace workspace(hierarchy);
  LatticeEmbedOptions eopt;
  eopt.seed = 17;
  std::vector<geom::Vec2> coords;
  comm::BspEngine::Options bopt;
  bopt.nranks = 4;
  comm::BspEngine engine(bopt);
  engine.run([&](comm::Comm& world) {
    world.set_stage("embed");
    auto emb = lattice_embed(world, workspace, eopt);
    auto gathered = gather_embedding(world, emb, g.num_vertices());
    if (world.rank() == 0) coords = *gathered;
    world.barrier();
  });
  return coords;
}

template <std::size_t N>
void expect_matches_golden(const std::vector<geom::Vec2>& got,
                           const double (&want)[N][2]) {
  ASSERT_EQ(got.size(), N);
  for (std::size_t v = 0; v < N; ++v) {
    EXPECT_NEAR(got[v][0], want[v][0], 1e-12) << "vertex " << v << " x";
    EXPECT_NEAR(got[v][1], want[v][1], 1e-12) << "vertex " << v << " y";
  }
}

TEST(EmbedGolden, Grid12x9MatchesAosKernel) {
  expect_matches_golden(embed_p4(graph::gen::grid2d(12, 9).graph),
                        golden::kGrid12x9);
}

TEST(EmbedGolden, Delaunay300MatchesAosKernel) {
  expect_matches_golden(embed_p4(graph::gen::delaunay(300, 7).graph),
                        golden::kDelaunay300);
}

TEST(EmbedGolden, ErdosRenyi150MatchesAosKernel) {
  expect_matches_golden(embed_p4(graph::gen::erdos_renyi(150, 450, 11).graph),
                        golden::kErdosRenyi150);
}

struct Digests {
  std::uint64_t coords = 0;
  std::uint64_t part = 0;
  std::int64_t cut = 0;
};

/// Embeds and bisects a 4000-vertex Delaunay mesh at P=64 on the fiber
/// backend; returns digests of the exact bits of the gathered coordinates
/// and of the per-vertex sides in vertex order.
Digests embed_and_cut_p64(std::uint32_t stale_block) {
  const graph::CsrGraph g = graph::gen::delaunay(4000, 5).graph;
  coarsen::HierarchyOptions hopt;
  hopt.coarsest_size = 64;
  hopt.rounds_per_level = 2;
  hopt.seed = 3;
  auto hierarchy = coarsen::Hierarchy::build(g, hopt);
  EmbedWorkspace workspace(hierarchy);
  LatticeEmbedOptions eopt;
  eopt.seed = 17;
  eopt.stale_block = stale_block;
  Digests out;
  comm::BspEngine::Options bopt;
  bopt.nranks = 64;
  comm::BspEngine engine(bopt);
  engine.run([&](comm::Comm& world) {
    world.set_stage("embed");
    auto emb = lattice_embed(world, workspace, eopt);
    auto coords = gather_embedding(world, emb, g.num_vertices());
    world.set_stage("partition");
    auto gmt = partition::parallel_gmt(world, g, emb, {});
    struct IdSide {
      graph::VertexId id;
      std::uint32_t side;
    };
    std::vector<IdSide> mine;
    for (std::size_t i = 0; i < emb.owned.size(); ++i) {
      mine.push_back({emb.owned[i], gmt.side[i]});
    }
    auto all = world.gatherv(std::span<const IdSide>(mine), 0);
    if (world.rank() == 0) {
      std::vector<std::uint8_t> side(g.num_vertices(), 0);
      for (const IdSide& r : all) side[r.id] = static_cast<std::uint8_t>(r.side);
      out.coords = analysis::fingerprint_bytes(
          coords->data(), coords->size() * sizeof((*coords)[0]));
      out.part = analysis::fingerprint_bytes(side.data(), side.size());
      out.cut = gmt.cut;
    }
    world.barrier();
  });
  return out;
}

TEST(EmbedGolden, P64StaleBlock4DigestsPinned) {
  const Digests d = embed_and_cut_p64(4);
  EXPECT_EQ(d.coords, 0xaacf2e71efb6b969ull);
  EXPECT_EQ(d.part, 0x52917de41f192f6aull);
  EXPECT_EQ(d.cut, 139);
}

TEST(EmbedGolden, P64StaleBlock3DigestsPinned) {
  const Digests d = embed_and_cut_p64(3);
  EXPECT_EQ(d.coords, 0xcb7f55db1cac3d85ull);
  EXPECT_EQ(d.part, 0xcf6433ac00dfccdfull);
  EXPECT_EQ(d.cut, 164);
}

}  // namespace
}  // namespace sp::embed
