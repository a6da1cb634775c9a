// Tests for the load-balanced rectilinear grid (the RCB-style processor
// mapping of the embedding lattice).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <sstream>

#include "geometry/balanced_grid.hpp"
#include "support/random.hpp"

namespace sp::geom {
namespace {

Box unit_box() {
  Box b;
  b.expand(vec2(0, 0));
  b.expand(vec2(1, 1));
  return b;
}

TEST(BalancedGrid, UniformFallbackMatchesUniformLattice) {
  BalancedGrid grid(unit_box(), 4, 4, {});
  auto [r, c] = grid.cell_of(vec2(0.9, 0.1));
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(c, 3u);
  Box cell = grid.cell_box(0, 3);
  EXPECT_DOUBLE_EQ(cell.lo[0], 0.75);
  EXPECT_DOUBLE_EQ(cell.hi[0], 1.0);
}

TEST(BalancedGrid, BalancesSkewedDensity) {
  // 90% of points crowd the lower-left corner; a 4x4 balanced grid should
  // still give every cell a reasonable share.
  Rng rng(1);
  std::vector<Vec2> pts;
  for (int i = 0; i < 9000; ++i) {
    pts.push_back(vec2(rng.uniform(0.0, 0.1), rng.uniform(0.0, 0.1)));
  }
  for (int i = 0; i < 1000; ++i) {
    pts.push_back(vec2(rng.uniform(), rng.uniform()));
  }
  BalancedGrid grid(unit_box(), 4, 4, pts);
  std::vector<std::size_t> counts(16, 0);
  for (const Vec2& p : pts) ++counts[grid.cell_index(p)];
  auto [lo, hi] = std::minmax_element(counts.begin(), counts.end());
  EXPECT_GT(*lo, pts.size() / 64) << "a cell is starved";
  EXPECT_LT(*hi, pts.size() / 4) << "a cell is overloaded";
}

TEST(BalancedGrid, CellOfAndCellBoxAgree) {
  Rng rng(2);
  std::vector<Vec2> sample;
  for (int i = 0; i < 2000; ++i) {
    sample.push_back(vec2(rng.uniform(), std::pow(rng.uniform(), 3.0)));
  }
  BalancedGrid grid(unit_box(), 3, 5, sample);
  for (int i = 0; i < 500; ++i) {
    Vec2 p = vec2(rng.uniform(), rng.uniform());
    auto [r, c] = grid.cell_of(p);
    Box cell = grid.cell_box(r, c);
    EXPECT_GE(p[0], cell.lo[0] - 1e-12);
    EXPECT_LE(p[0], cell.hi[0] + 1e-12);
    EXPECT_GE(p[1], cell.lo[1] - 1e-12);
    EXPECT_LE(p[1], cell.hi[1] + 1e-12);
  }
}

TEST(BalancedGrid, ClampToNeighborStaysAdjacent) {
  Rng rng(3);
  std::vector<Vec2> sample;
  for (int i = 0; i < 2000; ++i) {
    sample.push_back(vec2(rng.uniform(), rng.uniform()));
  }
  BalancedGrid grid(unit_box(), 4, 4, sample);
  for (int i = 0; i < 300; ++i) {
    auto owner_r = static_cast<std::uint32_t>(rng.below(4));
    auto owner_c = static_cast<std::uint32_t>(rng.below(4));
    Vec2 ghost = vec2(rng.uniform(), rng.uniform());
    Vec2 clamped = grid.clamp_to_neighbor(owner_r, owner_c, ghost);
    auto [r, c] = grid.cell_of(clamped);
    EXPECT_LE(std::abs(static_cast<int>(r) - static_cast<int>(owner_r)), 1);
    EXPECT_LE(std::abs(static_cast<int>(c) - static_cast<int>(owner_c)), 1);
  }
}

TEST(BalancedGrid, DegenerateAtomicCoordinates) {
  // All sample points identical: strict-monotonic boundary repair must
  // keep cell_of well defined for arbitrary queries.
  std::vector<Vec2> sample(100, vec2(0.5, 0.5));
  BalancedGrid grid(unit_box(), 4, 4, sample);
  auto [r, c] = grid.cell_of(vec2(0.25, 0.75));
  EXPECT_LT(r, 4u);
  EXPECT_LT(c, 4u);
}

TEST(BalancedGrid, SingleCell) {
  BalancedGrid grid(unit_box(), 1, 1, {});
  EXPECT_EQ(grid.cell_index(vec2(0.3, 0.9)), 0u);
  Vec2 clamped = grid.clamp_to_neighbor(0, 0, vec2(5, -3));
  auto [r, c] = grid.cell_of(clamped);
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(c, 0u);
}

// ---- Differential test against the sort-and-filter construction ----

// The constructor as it was before it selected order statistics: sort all
// y's, then filter every row band out of the whole sample and sort its x's.
// BalancedGrid must reproduce these bounds bit for bit.
struct ReferenceGrid {
  std::vector<double> rows;               // size rows+1
  std::vector<std::vector<double>> cols;  // per row, size cols+1

  static std::uint32_t locate(const std::vector<double>& b, double v) {
    auto it = std::upper_bound(b.begin() + 1, b.end() - 1, v);
    return static_cast<std::uint32_t>(it - b.begin() - 1);
  }
  std::uint32_t cell_index(const Vec2& p) const {
    const std::uint32_t r = locate(rows, p[1]);
    return r * static_cast<std::uint32_t>(cols[r].size() - 1) +
           locate(cols[r], p[0]);
  }
};

ReferenceGrid reference_grid(const Box& bounds, std::uint32_t rows,
                             std::uint32_t cols, std::span<const Vec2> sample) {
  ReferenceGrid g;
  g.rows.assign(rows + 1, 0.0);
  g.rows.front() = bounds.lo[1];
  g.rows.back() = bounds.hi[1];
  g.cols.assign(rows, std::vector<double>(cols + 1, 0.0));
  for (auto& cb : g.cols) {
    cb.front() = bounds.lo[0];
    cb.back() = bounds.hi[0];
  }
  if (sample.empty()) {
    for (std::uint32_t r = 1; r < rows; ++r) {
      g.rows[r] = bounds.lo[1] + bounds.height() * r / static_cast<double>(rows);
    }
    for (auto& cb : g.cols) {
      for (std::uint32_t c = 1; c < cols; ++c) {
        cb[c] = bounds.lo[0] + bounds.width() * c / static_cast<double>(cols);
      }
    }
    return g;
  }
  std::vector<double> ys(sample.size());
  for (std::size_t i = 0; i < sample.size(); ++i) ys[i] = sample[i][1];
  std::sort(ys.begin(), ys.end());
  for (std::uint32_t r = 1; r < rows; ++r) {
    std::size_t idx = (sample.size() * r) / rows;
    idx = std::min(idx, ys.size() - 1);
    g.rows[r] = ys[idx];
  }
  for (std::uint32_t r = 1; r <= rows; ++r) {
    if (g.rows[r] <= g.rows[r - 1]) {
      g.rows[r] = g.rows[r - 1] + 1e-12 * std::max(1.0, std::abs(g.rows[r - 1]));
    }
  }
  std::vector<double> xs;
  for (std::uint32_t r = 0; r < rows; ++r) {
    xs.clear();
    for (const Vec2& p : sample) {
      if (p[1] >= g.rows[r] && (r + 1 == rows || p[1] < g.rows[r + 1])) {
        xs.push_back(p[0]);
      }
    }
    auto& cb = g.cols[r];
    if (xs.empty()) {
      for (std::uint32_t c = 1; c < cols; ++c) {
        cb[c] = bounds.lo[0] + bounds.width() * c / static_cast<double>(cols);
      }
      continue;
    }
    std::sort(xs.begin(), xs.end());
    for (std::uint32_t c = 1; c < cols; ++c) {
      std::size_t idx = (xs.size() * c) / cols;
      idx = std::min(idx, xs.size() - 1);
      cb[c] = xs[idx];
    }
    for (std::uint32_t c = 1; c <= cols; ++c) {
      if (cb[c] <= cb[c - 1]) {
        cb[c] = cb[c - 1] + 1e-12 * std::max(1.0, std::abs(cb[c - 1]));
      }
    }
  }
  return g;
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

/// "" when `grid` matches the reference on every cell_box bit and on the
/// cell_index of every sample point, else the first difference.
std::string diff_against_reference(const Box& bounds, std::uint32_t rows,
                                   std::uint32_t cols,
                                   std::span<const Vec2> sample) {
  const BalancedGrid grid(bounds, rows, cols, sample);
  const ReferenceGrid ref = reference_grid(bounds, rows, cols, sample);
  std::ostringstream os;
  os.precision(17);
  for (std::uint32_t r = 0; r < rows; ++r) {
    for (std::uint32_t c = 0; c < cols; ++c) {
      const Box box = grid.cell_box(r, c);
      const double want[4] = {ref.cols[r][c], ref.rows[r], ref.cols[r][c + 1],
                              ref.rows[r + 1]};
      const double got[4] = {box.lo[0], box.lo[1], box.hi[0], box.hi[1]};
      for (int k = 0; k < 4; ++k) {
        if (bits(got[k]) != bits(want[k])) {
          os << "cell_box(" << r << "," << c << ") coordinate " << k << ": "
             << got[k] << " vs reference " << want[k];
          return os.str();
        }
      }
    }
  }
  for (std::size_t i = 0; i < sample.size(); ++i) {
    if (grid.cell_index(sample[i]) != ref.cell_index(sample[i])) {
      os << "cell_index of sample point " << i << ": "
         << grid.cell_index(sample[i]) << " vs reference "
         << ref.cell_index(sample[i]);
      return os.str();
    }
  }
  return "";
}

enum class Dist { kUniform, kSkewed, kDuplicates, kSignedZeros, kOutside };

/// One coordinate of a seeded sample, inside [0, 1] unless kOutside.
double draw(Dist d, Rng& rng) {
  switch (d) {
    case Dist::kUniform:
      return rng.uniform();
    case Dist::kSkewed:
      return std::pow(rng.uniform(), 4.0);
    case Dist::kDuplicates:
      return static_cast<double>(rng.below(6)) / 5.0;
    case Dist::kSignedZeros:
      // Half the values are zeros of either sign, so quantile positions
      // land on a run of equal values with two bit patterns.
      if (rng.chance(0.5)) return rng.chance(0.5) ? 0.0 : -0.0;
      return rng.uniform(-1.0, 1.0);
    case Dist::kOutside:
      return rng.uniform(-2.0, 3.0);
  }
  return 0.0;
}

std::vector<Vec2> seeded_sample(std::size_t n, Dist d, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Vec2> pts(n);
  for (Vec2& p : pts) {
    const double x = draw(d, rng);
    p = vec2(x, draw(d, rng));
  }
  return pts;
}

TEST(BalancedGridDifferential, SeededSamplesMatchReferenceBitwise) {
  const std::size_t sizes[] = {1, 2, 3, 5, 16, 17, 100, 641, 1000, 6656, 30000};
  const std::pair<std::uint32_t, std::uint32_t> shapes[] = {
      {1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 5}, {5, 3}, {16, 16}, {32, 32}, {11, 29}};
  const Dist dists[] = {Dist::kUniform, Dist::kSkewed, Dist::kDuplicates,
                        Dist::kSignedZeros, Dist::kOutside};
  const Box box = unit_box();
  std::uint64_t seed = 100;
  for (std::size_t n : sizes) {
    for (Dist d : dists) {
      const auto sample = seeded_sample(n, d, ++seed);
      for (auto [rows, cols] : shapes) {
        EXPECT_EQ(diff_against_reference(box, rows, cols, sample), "")
            << "n=" << n << " dist=" << static_cast<int>(d) << " shape "
            << rows << "x" << cols;
      }
    }
  }
}

TEST(BalancedGridDifferential, SignedZerosOnEveryQuantileHitTheSortFallback) {
  // Every coordinate is a zero of random sign, except one large value per
  // axis, so every selected quantile is ±0 and its bits come from the
  // sort of the values in sample order.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    std::vector<Vec2> sample(200 + 37 * seed);
    for (Vec2& p : sample) {
      const double x = rng.chance(0.5) ? 0.0 : -0.0;
      p = vec2(x, rng.chance(0.5) ? 0.0 : -0.0);
    }
    sample[seed] = vec2(0.75, 0.75);
    Box box;
    box.expand(vec2(-1, -1));
    box.expand(vec2(1, 1));
    for (auto [rows, cols] : {std::pair{4u, 4u}, {8u, 3u}, {32u, 32u}}) {
      EXPECT_EQ(diff_against_reference(box, rows, cols, sample), "")
          << "seed " << seed << " shape " << rows << "x" << cols;
    }
  }
}

TEST(BalancedGridDifferential, EmptyAndNonFiniteSamples) {
  const Box box = unit_box();
  EXPECT_EQ(diff_against_reference(box, 5, 7, {}), "");
  // Infinities: the fix-up cannot make the row bounds increase past +inf.
  const double inf = std::numeric_limits<double>::infinity();
  auto many = seeded_sample(500, Dist::kUniform, 9);
  for (std::size_t i = 0; i < many.size(); i += 3) many[i] = vec2(-inf, inf);
  for (std::size_t i = 1; i < many.size(); i += 7) many[i] = vec2(inf, -inf);
  for (auto [rows, cols] : {std::pair{1u, 1u}, {4u, 4u}, {16u, 8u}}) {
    EXPECT_EQ(diff_against_reference(box, rows, cols, many), "")
        << "infinities, shape " << rows << "x" << cols;
  }
  // A NaN coordinate sends its dimension to the sort fallback. Samples stay
  // at 16 points, where std::sort is an insertion sort and well defined
  // for NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    auto few = seeded_sample(16, Dist::kUniform, 40 + seed);
    few[seed] = vec2(nan, few[seed][1]);
    few[15 - seed] = vec2(few[15 - seed][0], nan);
    for (auto [rows, cols] : {std::pair{2u, 2u}, {4u, 4u}, {3u, 5u}}) {
      EXPECT_EQ(diff_against_reference(box, rows, cols, few), "")
          << "NaN seed " << seed << " shape " << rows << "x" << cols;
    }
  }
}

}  // namespace
}  // namespace sp::geom
