#include "graph/distributed_graph.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace sp::graph {

std::uint32_t block_owner(VertexId global, VertexId n, std::uint32_t p) {
  SP_ASSERT(global < n);
  VertexId base = n / p;
  VertexId extra = n % p;
  // First `extra` ranks own base+1 vertices.
  VertexId fat = extra * (base + 1);
  if (global < fat) return global / (base + 1);
  return extra + static_cast<std::uint32_t>((global - fat) / std::max<VertexId>(base, 1));
}

VertexId block_begin(std::uint32_t rank, VertexId n, std::uint32_t p) {
  SP_ASSERT(rank <= p);
  VertexId base = n / p;
  VertexId extra = n % p;
  if (rank <= extra) return rank * (base + 1);
  return extra * (base + 1) + (rank - extra) * base;
}

LocalView::LocalView(const CsrGraph& g, std::uint32_t rank, std::uint32_t nranks)
    : graph_(&g),
      rank_(rank),
      nranks_(nranks),
      begin_(block_begin(rank, g.num_vertices(), nranks)),
      end_(block_begin(rank + 1, g.num_vertices(), nranks)) {
  SP_ASSERT(rank < nranks);
  const VertexId n = g.num_vertices();
  for (VertexId local = 0; local < num_local(); ++local) {
    bool is_boundary = false;
    for (VertexId v : neighbors(local)) {
      if (!owns(v)) {
        ghosts_.push_back(v);
        is_boundary = true;
      }
    }
    if (is_boundary) boundary_.push_back(local);
  }
  std::sort(ghosts_.begin(), ghosts_.end());
  ghosts_.erase(std::unique(ghosts_.begin(), ghosts_.end()), ghosts_.end());

  // Group ghosts by owner rank.
  std::uint32_t current_rank = nranks;  // sentinel
  for (VertexId ghost : ghosts_) {
    std::uint32_t owner = block_owner(ghost, n, nranks);
    if (owner != current_rank) {
      neighbor_ranks_.push_back(owner);
      ghosts_by_rank_.emplace_back();
      current_rank = owner;
    }
    ghosts_by_rank_.back().push_back(ghost);
  }
  // Ghosts are sorted by id and block ownership is monotone in id, so
  // neighbor_ranks_ is already sorted and unique.
}

VertexId LocalView::ghost_index(VertexId global) const {
  const auto it = std::lower_bound(ghosts_.begin(), ghosts_.end(), global);
  if (it == ghosts_.end() || *it != global) return kInvalidVertex;
  return static_cast<VertexId>(it - ghosts_.begin());
}

}  // namespace sp::graph
