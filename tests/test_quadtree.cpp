// Tests for the Barnes-Hut quadtree.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <numeric>

#include "geometry/quadtree.hpp"
#include "support/random.hpp"

namespace sp::geom {
namespace {

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts(n);
  for (auto& p : pts) p = vec2(rng.uniform(), rng.uniform());
  return pts;
}

/// The straightforward pointer-order quadtree the compact QuadTree
/// replaced: boxed nodes, points read through an index permutation, and
/// zero-mass nodes pushed and then skipped. Kept as the reference the
/// differential tests below compare bit for bit against.
class ReferenceQuadTree {
 public:
  ReferenceQuadTree(std::span<const Vec2> points,
                    std::span<const double> masses,
                    std::uint32_t leaf_capacity = 8)
      : points_(points.begin(), points.end()) {
    if (masses.empty()) {
      masses_.assign(points.size(), 1.0);
    } else {
      masses_.assign(masses.begin(), masses.end());
    }
    point_index_.resize(points_.size());
    std::iota(point_index_.begin(), point_index_.end(), 0u);
    Box bounds = Box::of(points_).inflated(1e-9);
    if (points_.empty()) return;
    nodes_.emplace_back();
    nodes_[0].box = bounds;
    build(0, 0, static_cast<std::uint32_t>(points_.size()),
          std::max(1u, leaf_capacity), 0);
  }

  template <class Kernel>
  Vec2 accumulate_with(const Vec2& query, std::int64_t skip, double theta,
                       Kernel&& kernel) const {
    Vec2 total{};
    if (nodes_.empty()) return total;
    std::vector<std::uint32_t> stack = {0};
    while (!stack.empty()) {
      const Node& node = nodes_[stack.back()];
      stack.pop_back();
      if (node.mass <= 0.0) continue;
      double extent = std::max(node.box.width(), node.box.height());
      double dist = distance(query, node.center_of_mass);
      bool is_leaf = node.first_child < 0;
      if (!is_leaf && extent >= theta * dist) {
        for (int q = 0; q < 4; ++q) {
          stack.push_back(static_cast<std::uint32_t>(node.first_child + q));
        }
        continue;
      }
      if (is_leaf) {
        for (std::uint32_t i = node.point_begin; i < node.point_end; ++i) {
          std::uint32_t p = point_index_[i];
          if (static_cast<std::int64_t>(p) == skip) continue;
          total += kernel(query - points_[p], masses_[p]);
        }
      } else {
        total += kernel(query - node.center_of_mass, node.mass);
      }
    }
    return total;
  }

  /// Point indices in leaf order.
  const std::vector<std::uint32_t>& point_index() const { return point_index_; }

 private:
  static constexpr std::uint32_t kMaxDepth = 48;

  struct Node {
    Box box;
    Vec2 center_of_mass{};
    double mass = 0.0;
    std::int32_t first_child = -1;
    std::uint32_t point_begin = 0;
    std::uint32_t point_end = 0;
  };

  void build(std::uint32_t node, std::uint32_t begin, std::uint32_t end,
             std::uint32_t leaf_capacity, std::uint32_t depth) {
    Node& n = nodes_[node];
    n.point_begin = begin;
    n.point_end = end;
    double mass = 0.0;
    Vec2 com{};
    for (std::uint32_t i = begin; i < end; ++i) {
      double m = masses_[point_index_[i]];
      mass += m;
      com += points_[point_index_[i]] * m;
    }
    n.mass = mass;
    n.center_of_mass = mass > 0.0 ? com / mass : n.box.center();
    if (end - begin <= leaf_capacity || depth >= kMaxDepth) return;

    const Vec2 mid = n.box.center();
    auto base = point_index_.begin();
    auto below = [&](std::uint32_t p) { return points_[p][1] < mid[1]; };
    auto left = [&](std::uint32_t p) { return points_[p][0] < mid[0]; };
    auto y_split = std::partition(base + begin, base + end, below);
    auto x_split_lo = std::partition(base + begin, y_split, left);
    auto x_split_hi = std::partition(y_split, base + end, left);
    std::array<std::uint32_t, 5> cuts = {
        begin, static_cast<std::uint32_t>(x_split_lo - base),
        static_cast<std::uint32_t>(y_split - base),
        static_cast<std::uint32_t>(x_split_hi - base), end};

    std::int32_t first_child = static_cast<std::int32_t>(nodes_.size());
    nodes_[node].first_child = first_child;
    for (int q = 0; q < 4; ++q) nodes_.emplace_back();
    const Box parent_box = nodes_[node].box;
    for (int q = 0; q < 4; ++q) {
      Box child;
      child.lo = vec2(q % 2 == 0 ? parent_box.lo[0] : mid[0],
                      q < 2 ? parent_box.lo[1] : mid[1]);
      child.hi = vec2(q % 2 == 0 ? mid[0] : parent_box.hi[0],
                      q < 2 ? mid[1] : parent_box.hi[1]);
      nodes_[static_cast<std::size_t>(first_child) + q].box = child;
    }
    for (int q = 0; q < 4; ++q) {
      if (cuts[q] < cuts[q + 1]) {
        build(static_cast<std::uint32_t>(first_child + q), cuts[q],
              cuts[q + 1], leaf_capacity, depth + 1);
      } else {
        Node& empty = nodes_[static_cast<std::size_t>(first_child) + q];
        empty.point_begin = empty.point_end = cuts[q];
      }
    }
  }

  std::vector<Vec2> points_;
  std::vector<double> masses_;
  std::vector<std::uint32_t> point_index_;
  std::vector<Node> nodes_;
};

/// The lattice embedder's repulsion kernel (natural length K = 0.05).
Vec2 embed_kernel(const Vec2& delta, double m) {
  constexpr double kK = 0.05;
  double d = std::max(delta.norm(), 1e-4 * kK);
  return delta * (0.2 * kK * kK * m / (d * d));
}

bool bitwise_equal(const Vec2& a, const Vec2& b) {
  auto bits = [](double x) { return std::bit_cast<std::uint64_t>(x); };
  return bits(a[0]) == bits(b[0]) && bits(a[1]) == bits(b[1]);
}

/// Non-unit masses, with every seventh point massless so that zero-mass
/// leaves and subtrees occur.
std::vector<double> random_masses(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> masses(n);
  for (std::size_t i = 0; i < n; ++i) {
    masses[i] = i % 7 == 3 ? 0.0 : 0.5 + 3.0 * rng.uniform();
  }
  return masses;
}

/// Every point as a query (skipping itself and skipping nothing), plus a
/// few off-point queries, at each theta: results must match bit for bit.
void expect_matches_reference(const QuadTree& tree,
                              const ReferenceQuadTree& ref,
                              std::span<const Vec2> pts) {
  std::vector<Vec2> queries(pts.begin(), pts.end());
  queries.push_back(vec2(0.5, 0.5));
  queries.push_back(vec2(-3.0, 7.0));
  for (double theta : {0.0, 0.5, 0.9}) {
    for (std::size_t i = 0; i < queries.size(); ++i) {
      const std::int64_t self =
          i < pts.size() ? static_cast<std::int64_t>(i) : -1;
      for (std::int64_t skip : {self, std::int64_t{-1}}) {
        Vec2 got = tree.accumulate_with(queries[i], skip, theta, embed_kernel);
        Vec2 want = ref.accumulate_with(queries[i], skip, theta, embed_kernel);
        ASSERT_TRUE(bitwise_equal(got, want))
            << "query " << i << " skip " << skip << " theta " << theta;
      }
    }
  }
}

void expect_permutation(std::span<const std::uint32_t> order, std::size_t n) {
  ASSERT_EQ(order.size(), n);
  std::vector<std::uint32_t> sorted(order.begin(), order.end());
  std::sort(sorted.begin(), sorted.end());
  for (std::size_t i = 0; i < n; ++i) ASSERT_EQ(sorted[i], i);
}

TEST(QuadTreeDifferential, RandomPointsMatchReferenceBitwise) {
  for (std::size_t n : {2u, 9u, 37u, 500u}) {
    auto pts = random_points(n, 100 + n);
    auto masses = random_masses(n, 200 + n);
    QuadTree tree(pts, masses);
    ReferenceQuadTree ref(pts, masses);
    SCOPED_TRACE(n);
    expect_matches_reference(tree, ref, pts);
    expect_permutation(tree.tree_order(), n);
    EXPECT_TRUE(std::equal(tree.tree_order().begin(), tree.tree_order().end(),
                           ref.point_index().begin()));
  }
}

TEST(QuadTreeDifferential, UnitMassesMatchReferenceBitwise) {
  auto pts = random_points(300, 7);
  QuadTree tree(pts, {});
  ReferenceQuadTree ref(pts, {});
  expect_matches_reference(tree, ref, pts);
}

TEST(QuadTreeDifferential, CoincidentPointsAtLeafCapacityTwo) {
  auto pts = random_points(40, 11);
  for (std::size_t i = 0; i < 25; ++i) pts.push_back(vec2(0.25, 0.25));
  for (std::size_t i = 0; i < 5; ++i) pts.push_back(pts[3]);
  auto masses = random_masses(pts.size(), 12);
  QuadTree tree(pts, masses, 2);
  ReferenceQuadTree ref(pts, masses, 2);
  expect_matches_reference(tree, ref, pts);
  expect_permutation(tree.tree_order(), pts.size());
}

TEST(QuadTreeDifferential, EmptyAndSinglePointTrees) {
  QuadTree empty({}, {});
  EXPECT_EQ(empty.num_nodes(), 0u);
  EXPECT_TRUE(empty.tree_order().empty());
  EXPECT_TRUE(bitwise_equal(
      empty.accumulate_with(vec2(1, 2), -1, 0.5, embed_kernel), Vec2{}));

  std::vector<Vec2> one = {vec2(0.5, 0.25)};
  std::vector<double> mass = {2.5};
  QuadTree single(one, mass);
  ReferenceQuadTree ref(one, mass);
  expect_matches_reference(single, ref, one);
  expect_permutation(single.tree_order(), 1);
}

// rebuild() over reused storage must give the same tree as a fresh build,
// whether the point set grows, shrinks or empties in between.
TEST(QuadTreeDifferential, RebuildReuseMatchesFreshTree) {
  QuadTree reused;
  for (std::size_t n : {50u, 400u, 120u, 0u, 1u, 3u, 250u}) {
    auto pts = random_points(n, 300 + n);
    auto masses = random_masses(n, 400 + n);
    reused.rebuild(pts, masses);
    QuadTree fresh(pts, masses);
    ReferenceQuadTree ref(pts, masses);
    SCOPED_TRACE(n);
    EXPECT_EQ(reused.num_points(), n);
    EXPECT_EQ(reused.num_nodes(), fresh.num_nodes());
    EXPECT_TRUE(std::equal(reused.tree_order().begin(),
                           reused.tree_order().end(),
                           fresh.tree_order().begin(),
                           fresh.tree_order().end()));
    EXPECT_EQ(std::bit_cast<std::uint64_t>(reused.total_mass()),
              std::bit_cast<std::uint64_t>(fresh.total_mass()));
    expect_permutation(reused.tree_order(), n);
    expect_matches_reference(reused, ref, pts);
  }
}

TEST(QuadTree, TotalMassPreserved) {
  auto pts = random_points(500, 1);
  std::vector<double> masses(500);
  double expected = 0;
  for (std::size_t i = 0; i < 500; ++i) {
    masses[i] = 1.0 + static_cast<double>(i % 5);
    expected += masses[i];
  }
  QuadTree tree(pts, masses);
  EXPECT_NEAR(tree.total_mass(), expected, 1e-9);
  EXPECT_EQ(tree.num_points(), 500u);
}

TEST(QuadTree, EmptyAndSingle) {
  QuadTree empty({}, {});
  EXPECT_EQ(empty.num_points(), 0u);
  Vec2 f = empty.accumulate(vec2(0, 0), -1, 0.7,
                            [](const Vec2& d, double m) { return d * m; });
  EXPECT_EQ(f, Vec2{});

  std::vector<Vec2> one = {vec2(0.5, 0.5)};
  QuadTree single(one, {});
  EXPECT_NEAR(single.total_mass(), 1.0, 1e-12);
}

// theta = 0 forces exact traversal: the result must equal the brute force
// pairwise sum.
TEST(QuadTree, ThetaZeroIsExact) {
  auto pts = random_points(200, 2);
  QuadTree tree(pts, {});
  auto kernel = [](const Vec2& delta, double mass) {
    double d2 = std::max(delta.norm2(), 1e-9);
    return delta * (mass / d2);
  };
  for (int probe = 0; probe < 5; ++probe) {
    std::size_t i = static_cast<std::size_t>(probe) * 37;
    Vec2 exact{};
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i) exact += kernel(pts[i] - pts[j], 1.0);
    }
    Vec2 approx = tree.accumulate(pts[i], static_cast<std::int64_t>(i), 0.0,
                                  kernel);
    EXPECT_NEAR(approx[0], exact[0], 1e-9);
    EXPECT_NEAR(approx[1], exact[1], 1e-9);
  }
}

// Moderate theta should approximate the exact force within a few percent
// for a 1/d^2-style kernel.
TEST(QuadTree, ApproximationQuality) {
  auto pts = random_points(2000, 3);
  QuadTree tree(pts, {});
  auto kernel = [](const Vec2& delta, double mass) {
    double d2 = std::max(delta.norm2(), 1e-9);
    return delta * (mass / d2);
  };
  double rel_err_sum = 0;
  int probes = 20;
  for (int probe = 0; probe < probes; ++probe) {
    std::size_t i = static_cast<std::size_t>(probe) * 97;
    Vec2 exact{};
    for (std::size_t j = 0; j < pts.size(); ++j) {
      if (j != i) exact += kernel(pts[i] - pts[j], 1.0);
    }
    Vec2 approx =
        tree.accumulate(pts[i], static_cast<std::int64_t>(i), 0.5, kernel);
    rel_err_sum += distance(exact, approx) / std::max(exact.norm(), 1e-12);
  }
  EXPECT_LT(rel_err_sum / probes, 0.08);
}

TEST(QuadTree, CoincidentPointsDoNotRecurseForever) {
  std::vector<Vec2> pts(100, vec2(0.25, 0.25));
  QuadTree tree(pts, {}, 2);  // leaf capacity below the duplicate count
  EXPECT_NEAR(tree.total_mass(), 100.0, 1e-9);
}

TEST(QuadTree, SkipExcludesPoint) {
  std::vector<Vec2> pts = {vec2(0, 0), vec2(1, 0)};
  QuadTree tree(pts, {});
  // theta=0: exact; skipping index 1 leaves no contributions at query 1.
  Vec2 f = tree.accumulate(pts[1], 1, 0.0, [](const Vec2& d, double m) {
    double dist = std::max(d.norm(), 1e-9);
    return d * (m / dist);
  });
  // Only point 0 contributes, pushing away along +x.
  EXPECT_GT(f[0], 0.9);
}

}  // namespace
}  // namespace sp::geom
