// Structural invariant validators: non-aborting counterparts to the
// scattered SP_ASSERTs, returning every violation found as readable text.
//
// Distributed partitioners ship heavyweight debug validators because halo
// and hierarchy corruption degrades cut quality without crashing; these
// are ScalaPart's. They are plain functions callable from tests, and the
// SP_ANALYSIS_CHECK macro (pipeline_check.hpp) runs them as pipeline
// checkpoints in core/scalapart.cpp when the SP_ANALYSIS build flag is on.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "coarsen/hierarchy.hpp"
#include "embed/lattice_parallel.hpp"
#include "geometry/vec.hpp"
#include "graph/csr_graph.hpp"
#include "graph/partition.hpp"

namespace sp::analysis {

/// Each entry is one human-readable violation; empty means the invariant
/// holds. Validators check fundamentals (sizes, ranges) first and return
/// early when deeper checks would read out of bounds.
using Violations = std::vector<std::string>;

/// CSR well-formedness: monotone xadj, in-range adjacency, no self loops,
/// no duplicate neighbours, weight arrays sized and positive, and exact
/// symmetry ({u,v} present iff {v,u} with equal weight).
Violations validate_csr(const graph::CsrGraph& g);

/// One coarsening step: `fine_to_coarse` maps every fine vertex into
/// range, onto all of the coarse graph, conserving vertex weight per
/// coarse vertex and aggregating cross-edge weight exactly.
Violations validate_hierarchy_level(const graph::CsrGraph& fine,
                                    const graph::CsrGraph& coarse,
                                    std::span<const graph::VertexId> fine_to_coarse);

/// Whole hierarchy: every level's CSR plus every adjacent-level mapping.
Violations validate_hierarchy(const coarsen::Hierarchy& h);

/// Ghost/halo consistency of the block distribution of `g` over `nranks`:
/// rank ranges tile [0, n), ghosts are exactly the non-owned neighbours,
/// boundary sets are exact, neighbour-rank lists are symmetric across
/// ranks, and per-rank ghost lists agree with block ownership.
Violations validate_distributed_graph(const graph::CsrGraph& g,
                                      std::uint32_t nranks);

/// Partition coverage and balance: one side per vertex, sides in {0,1},
/// imbalance within `max_imbalance`, and the boundary/external-degree
/// accounting consistent with the cut.
Violations validate_partition(const graph::CsrGraph& g,
                              const graph::Bipartition& part,
                              double max_imbalance);

/// Gathered embedding sanity: one finite coordinate per vertex.
Violations validate_embedding(std::span<const geom::Vec2> coords,
                              graph::VertexId n);

/// Per-rank embedding sanity: owned/pos and ghost arrays aligned, finite
/// positions, owned ids strictly ascending, no owned id duplicated into the
/// ghost set, and every arc_ref entry naming its CSR neighbour in `g`.
Violations validate_rank_embedding(const embed::RankEmbedding& emb,
                                   const graph::CsrGraph& g);

/// Raised by a failed pipeline checkpoint; the message names the
/// checkpoint and lists every violation.
class InvariantViolation : public std::runtime_error {
 public:
  explicit InvariantViolation(const std::string& msg)
      : std::runtime_error(msg) {}
};

[[noreturn]] void fail_checkpoint(const char* checkpoint, const Violations& v);

}  // namespace sp::analysis
