// Per-rank view of a block-distributed graph.
//
// The paper's algorithms start from the graph "read in by P processors in
// approximately equal sized chunks": rank r owns the contiguous global
// vertex range [block_begin(r), block_begin(r+1)). Each rank's view keeps
// its rows of the CSR with *global* neighbour ids plus the sorted list of
// ghost vertices (non-owned neighbours), which is exactly the halo the
// distributed algorithms must exchange.
//
// In this reproduction the underlying CsrGraph lives in shared memory, but
// the algorithms only touch it through LocalView, so their communication
// structure (what must be sent where) is identical to a genuinely
// distributed implementation — that is what the comm tracing measures.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr_graph.hpp"

namespace sp::graph {

/// Owner rank of a global vertex under block distribution of n vertices
/// over p ranks (first n%p ranks own one extra).
std::uint32_t block_owner(VertexId global, VertexId n, std::uint32_t p);

/// First global vertex owned by rank r.
VertexId block_begin(std::uint32_t rank, VertexId n, std::uint32_t p);

class LocalView {
 public:
  /// Builds rank `rank`'s view of `g` distributed over `nranks` ranks.
  LocalView(const CsrGraph& g, std::uint32_t rank, std::uint32_t nranks);

  std::uint32_t rank() const { return rank_; }
  std::uint32_t nranks() const { return nranks_; }
  VertexId global_begin() const { return begin_; }
  VertexId global_end() const { return end_; }
  VertexId num_local() const { return end_ - begin_; }

  bool owns(VertexId global) const { return global >= begin_ && global < end_; }
  VertexId to_local(VertexId global) const { return global - begin_; }
  VertexId to_global(VertexId local) const { return begin_ + local; }

  /// Neighbours of a local vertex, as global ids.
  std::span<const VertexId> neighbors(VertexId local) const {
    return graph_->neighbors(begin_ + local);
  }
  std::span<const Weight> edge_weights_of(VertexId local) const {
    return graph_->edge_weights_of(begin_ + local);
  }
  Weight vertex_weight(VertexId local) const {
    return graph_->vertex_weight(begin_ + local);
  }

  /// Sorted global ids of ghost vertices (non-owned neighbours of owned
  /// vertices).
  const std::vector<VertexId>& ghosts() const { return ghosts_; }

  /// Index of a global ghost id within ghosts(), or kInvalidVertex (for
  /// an owned id or a non-neighbour). A binary search of ghosts().
  VertexId ghost_index(VertexId global) const;

  /// Owned vertices with at least one non-owned neighbour (the paper's
  /// boundary set V~).
  const std::vector<VertexId>& boundary_locals() const { return boundary_; }

  /// Ranks this rank shares at least one edge with, sorted.
  const std::vector<std::uint32_t>& neighbor_ranks() const {
    return neighbor_ranks_;
  }

  /// Per neighbour rank: the ghost ids owned by that rank (sorted; aligned
  /// with neighbor_ranks()).
  const std::vector<std::vector<VertexId>>& ghosts_by_rank() const {
    return ghosts_by_rank_;
  }

  const CsrGraph& global_graph() const { return *graph_; }

 private:
  const CsrGraph* graph_;
  std::uint32_t rank_;
  std::uint32_t nranks_;
  VertexId begin_;
  VertexId end_;
  std::vector<VertexId> ghosts_;
  std::vector<VertexId> boundary_;
  std::vector<std::uint32_t> neighbor_ranks_;
  std::vector<std::vector<VertexId>> ghosts_by_rank_;
};

}  // namespace sp::graph
