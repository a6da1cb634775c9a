// Barnes-Hut quadtree over weighted 2-D points.
//
// Approximates all-pairs repulsive forces in O(n log n) for the sequential
// force-directed embedder (the "Hu-style" baseline that stands in for the
// paper's Mathematica coordinates) and for the intra-cell repulsion of the
// parallel lattice embedder. Nodes store aggregate mass and centre of mass;
// traversal opens a node when cell_size / distance exceeds theta.
//
// Layout (DESIGN.md §4.1): the tree is meant to be rebuilt every force
// iteration, so rebuild() reuses all storage. Boxes exist only while
// building; traversal reads a compact 48-byte node record and the points,
// masses and original indices copied into tree order (structure of
// arrays), so a leaf's points are contiguous.
#pragma once

#include <cmath>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "geometry/box.hpp"
#include "geometry/vec.hpp"

namespace sp::geom {

class QuadTree {
 public:
  /// An empty tree; rebuild() fills it.
  explicit QuadTree(std::uint32_t leaf_capacity = 8);

  /// Builds over `points` with per-point `masses` (empty => unit masses).
  /// leaf_capacity points may share a leaf before it splits.
  QuadTree(std::span<const Vec2> points, std::span<const double> masses,
           std::uint32_t leaf_capacity = 8);

  /// Replaces the tree with one over `points`/`masses`, reusing the node
  /// and point storage. The result is identical to a freshly constructed
  /// tree with the same leaf capacity.
  void rebuild(std::span<const Vec2> points, std::span<const double> masses);

  /// Sum of kernel(center_of_mass, mass) over an approximation of all
  /// points, opening nodes with extent/distance >= theta. `skip` is the
  /// index of a point to exclude (the force target itself), or -1.
  ///
  /// kernel(delta, mass) must return the force contribution for an
  /// aggregate of `mass` located at displacement `delta` from the query.
  Vec2 accumulate(const Vec2& query, std::int64_t skip, double theta,
                  const std::function<Vec2(const Vec2& delta, double mass)>&
                      kernel) const;

  /// Statically-dispatched variant of accumulate() for hot loops: the
  /// kernel is inlined instead of going through std::function, and the
  /// traversal stack lives on the C stack. Traversal order — and therefore
  /// the floating-point accumulation order — is identical to accumulate().
  template <class Kernel>
  Vec2 accumulate_with(const Vec2& query, std::int64_t skip, double theta,
                       Kernel&& kernel) const {
    Vec2 total{};
    // A node with mass <= 0 contributes nothing, so it is never pushed.
    if (nodes_.empty() || nodes_[0].mass <= 0.0) return total;
    const Node* nodes = nodes_.data();
    const double qx = query[0];
    const double qy = query[1];
    // Nodes split only while shallower than kMaxDepth; each visit pops one
    // entry and pushes at most four, so 4 * kMaxDepth + 4 bounds the stack.
    std::uint32_t stack[4 * kMaxDepth + 4];
    std::uint32_t top = 0;
    stack[top++] = 0;
    while (top > 0) {
      const Node& node = nodes[stack[--top]];
      if (node.first_child < 0) {
        for (std::uint32_t j = node.point_begin; j < node.point_end; ++j) {
          if (static_cast<std::int64_t>(index_[j]) == skip) continue;
          total += kernel(vec2(qx - xs_[j], qy - ys_[j]), ms_[j]);
        }
        continue;
      }
      const double dx = qx - node.cx;
      const double dy = qy - node.cy;
      if (node.extent >= theta * std::sqrt(dx * dx + dy * dy)) {
        const auto first = static_cast<std::uint32_t>(node.first_child);
        for (std::uint32_t q = first; q < first + 4; ++q) {
          if (!(nodes[q].mass <= 0.0)) stack[top++] = q;
        }
      } else {
        // Far enough: treat the whole subtree as one aggregate. The skipped
        // point's contribution is negligible at this distance by the theta
        // criterion, matching standard Barnes-Hut practice.
        total += kernel(vec2(dx, dy), node.mass);
      }
    }
    return total;
  }

  /// Original point indices in tree order: leaf by leaf, in the order the
  /// traversal reads them. A permutation of [0, num_points()).
  std::span<const std::uint32_t> tree_order() const { return index_; }

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t num_points() const { return index_.size(); }
  const Box& bounds() const { return bounds_; }

  /// Total mass under the root (tests: must equal the input mass sum).
  double total_mass() const;

 private:
  // Depth cap guards against coincident points that can never be separated.
  static constexpr std::uint32_t kMaxDepth = 48;

  /// Traversal record. extent = max(box width, box height), computed once
  /// at build time from the build-only box.
  struct Node {
    double cx = 0.0, cy = 0.0;       // centre of mass (box centre if empty)
    double mass = 0.0;
    double extent = 0.0;
    std::int32_t first_child = -1;   // index of 4 consecutive children, or -1
    std::uint32_t point_begin = 0;   // leaf: range into the tree-order arrays
    std::uint32_t point_end = 0;
  };
  static_assert(sizeof(Node) == 48);

  void build(std::span<const Vec2> points, std::span<const double> masses,
             std::uint32_t node, const Box& box, std::uint32_t begin,
             std::uint32_t end, std::uint32_t depth);

  std::uint32_t leaf_capacity_;
  std::vector<Node> nodes_;
  std::vector<std::uint32_t> index_;  // original index of each tree slot
  std::vector<double> xs_, ys_, ms_;  // points and masses in tree order
  std::vector<double> unit_masses_;   // source masses when none are given
  Box bounds_;
};

}  // namespace sp::geom
