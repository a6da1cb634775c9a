#include "geometry/quadtree.hpp"

#include <algorithm>
#include <array>
#include <numeric>

#include "support/assert.hpp"

namespace sp::geom {

QuadTree::QuadTree(std::uint32_t leaf_capacity)
    : leaf_capacity_(std::max(1u, leaf_capacity)) {}

QuadTree::QuadTree(std::span<const Vec2> points, std::span<const double> masses,
                   std::uint32_t leaf_capacity)
    : QuadTree(leaf_capacity) {
  rebuild(points, masses);
}

void QuadTree::rebuild(std::span<const Vec2> points,
                       std::span<const double> masses) {
  const std::size_t n = points.size();
  if (masses.empty()) {
    unit_masses_.assign(n, 1.0);
    masses = unit_masses_;
  }
  SP_ASSERT(masses.size() == n);
  index_.resize(n);
  std::iota(index_.begin(), index_.end(), 0u);
  bounds_ = Box::of(points).inflated(1e-9);
  nodes_.clear();
  if (n > 0) {
    nodes_.emplace_back();
    build(points, masses, 0, bounds_, 0, static_cast<std::uint32_t>(n), 0);
  }
  // Copy points and masses into tree order for contiguous leaf loops.
  xs_.resize(n);
  ys_.resize(n);
  ms_.resize(n);
  for (std::size_t j = 0; j < n; ++j) {
    const std::uint32_t p = index_[j];
    xs_[j] = points[p][0];
    ys_[j] = points[p][1];
    ms_[j] = masses[p];
  }
}

void QuadTree::build(std::span<const Vec2> points,
                     std::span<const double> masses, std::uint32_t node,
                     const Box& box, std::uint32_t begin, std::uint32_t end,
                     std::uint32_t depth) {
  double mass = 0.0;
  Vec2 com{};
  for (std::uint32_t i = begin; i < end; ++i) {
    double m = masses[index_[i]];
    mass += m;
    com += points[index_[i]] * m;
  }
  const Vec2 center = mass > 0.0 ? com / mass : box.center();
  Node& n = nodes_[node];
  n.cx = center[0];
  n.cy = center[1];
  n.mass = mass;
  n.extent = std::max(box.width(), box.height());
  n.point_begin = begin;
  n.point_end = end;

  if (end - begin <= leaf_capacity_ || depth >= kMaxDepth) return;

  const Vec2 mid = box.center();
  // Partition the index range into the 4 quadrants (order: SW, SE, NW, NE):
  // first by y, then each half by x.
  auto base = index_.begin();
  auto y_split = std::partition(base + begin, base + end, [&](std::uint32_t p) {
    return points[p][1] < mid[1];
  });
  auto x_split_lo =
      std::partition(base + begin, y_split,
                     [&](std::uint32_t p) { return points[p][0] < mid[0]; });
  auto x_split_hi =
      std::partition(y_split, base + end,
                     [&](std::uint32_t p) { return points[p][0] < mid[0]; });

  std::array<std::uint32_t, 5> cuts = {
      begin, static_cast<std::uint32_t>(x_split_lo - base),
      static_cast<std::uint32_t>(y_split - base),
      static_cast<std::uint32_t>(x_split_hi - base), end};

  const auto first_child = static_cast<std::uint32_t>(nodes_.size());
  n.first_child = static_cast<std::int32_t>(first_child);
  nodes_.resize(nodes_.size() + 4);  // invalidates n

  // Child boxes: q = {0:SW, 1:SE, 2:NW, 3:NE}
  for (std::uint32_t q = 0; q < 4; ++q) {
    Box child;
    child.lo = vec2(q % 2 == 0 ? box.lo[0] : mid[0],
                    q < 2 ? box.lo[1] : mid[1]);
    child.hi = vec2(q % 2 == 0 ? mid[0] : box.hi[0],
                    q < 2 ? mid[1] : box.hi[1]);
    build(points, masses, first_child + q, child, cuts[q], cuts[q + 1],
          depth + 1);
  }
}

Vec2 QuadTree::accumulate(
    const Vec2& query, std::int64_t skip, double theta,
    const std::function<Vec2(const Vec2& delta, double mass)>& kernel) const {
  return accumulate_with(query, skip, theta, kernel);
}

double QuadTree::total_mass() const {
  return nodes_.empty() ? 0.0 : nodes_[0].mass;
}

}  // namespace sp::geom
