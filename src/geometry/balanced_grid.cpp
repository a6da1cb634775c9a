#include "geometry/balanced_grid.hpp"

#include <cmath>
#include <limits>
#include <optional>

namespace sp::geom {

namespace {

/// Running minimum, maximum and NaN flag of a sequence of values.
struct Extent {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool nan = false;

  void add(double x) {
    lo = std::min(lo, x);
    hi = std::max(hi, x);
    nan |= x != x;
  }
};

/// Reused buffers of the histogram select.
struct SelectScratch {
  std::vector<std::uint32_t> start;  // bucket -> first rank in it
  std::vector<std::uint32_t> slot;   // bucket -> write cursor, or kSkip
  std::vector<std::size_t> bucket;   // wanted rank -> its bucket
  std::vector<double> picked;        // the wanted buckets' values
};

constexpr std::uint32_t kSkip = ~std::uint32_t{0};
/// Expected values per histogram bucket.
constexpr std::size_t kPerBucket = 2;

/// Writes to `out[i]` the value at rank `ks[i]` (ascending) of `v` sorted
/// ascending, without sorting and without modifying `v`, whose extent `e`
/// holds no NaN. Buckets of floor((x - lo) * scale) are monotone in x, so
/// each rank lies in a known bucket and only the wanted buckets are
/// gathered and selected in. Returns false, leaving `out` unspecified,
/// when a picked value is ±0: the one pair of equal doubles with
/// different bits, so which of them std::sort puts at that rank is not
/// known.
bool select_ranks(std::span<const double> v, const Extent& e,
                  std::span<const std::size_t> ks, double* out,
                  SelectScratch& s) {
  const double lo = e.lo;
  if (!(lo < e.hi)) {
    std::fill(out, out + ks.size(), lo);
    return lo != 0.0;
  }
  const std::size_t nb = v.size() / kPerBucket + 1;
  // A spread that overflows (infinities, huge or subnormal extents) falls
  // back to a single bucket: still exact, only slower.
  double scale = static_cast<double>(nb) / (e.hi - lo);
  if (!(scale > 0.0 && std::isfinite(scale))) scale = 0.0;
  auto bucket = [&](double x) {
    if (scale == 0.0) return std::size_t{0};
    const auto b = static_cast<std::int64_t>((x - lo) * scale);
    return std::min(static_cast<std::size_t>(b), nb - 1);
  };

  s.start.assign(nb + 1, 0);
  for (double x : v) ++s.start[bucket(x) + 1];
  for (std::size_t b = 0; b < nb; ++b) s.start[b + 1] += s.start[b];

  // Find each rank's bucket (one merge walk, ranks ascending) and lay the
  // wanted buckets out back to back in `picked`.
  s.slot.assign(nb, kSkip);
  s.bucket.resize(ks.size());
  std::uint32_t picked = 0;
  std::size_t b = 0;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    while (s.start[b + 1] <= ks[i]) ++b;
    s.bucket[i] = b;
    if (s.slot[b] == kSkip) {
      s.slot[b] = picked;
      picked += s.start[b + 1] - s.start[b];
    }
  }
  s.picked.resize(picked);
  for (double x : v) {
    std::uint32_t& cursor = s.slot[bucket(x)];
    if (cursor != kSkip) s.picked[cursor++] = x;
  }
  // Each wanted bucket's cursor now points one past its group.
  double* from = nullptr;
  for (std::size_t i = 0; i < ks.size(); ++i) {
    b = s.bucket[i];
    double* end = s.picked.data() + s.slot[b];
    double* group = end - (s.start[b + 1] - s.start[b]);
    if (i == 0 || b != s.bucket[i - 1]) from = group;
    double* nth = group + (ks[i] - s.start[b]);
    std::nth_element(from, nth, end);
    from = nth;
    out[i] = *nth;
    if (out[i] == 0.0) return false;
  }
  return true;
}

/// The values at ranks `ks` of `v` sorted ascending, bit-identical to
/// `std::sort(v)` then indexing; `e` is the extent of `v`. Selects when
/// that is provably exact, and otherwise (a NaN, or a ±0 picked) sorts `v`
/// in place, in the order it was given.
void quantiles(std::span<double> v, const Extent& e,
               std::span<const std::size_t> ks, double* out,
               SelectScratch& s) {
  if (ks.empty() || (!e.nan && select_ranks(v, e, ks, out, s))) return;
  std::sort(v.begin(), v.end());
  for (std::size_t i = 0; i < ks.size(); ++i) out[i] = v[ks[i]];
}

/// Ranks min(n*i/parts, n-1) for i = 1..parts-1, the quantile positions.
void quantile_ranks(std::size_t n, std::uint32_t parts,
                    std::vector<std::size_t>& ks) {
  ks.clear();
  for (std::uint32_t i = 1; i < parts; ++i) {
    ks.push_back(std::min((n * i) / parts, n - 1));
  }
}

/// The band of y for strictly increasing bounds `b` (size rows+1): the
/// number of inner bounds b[1..rows-1] that are <= y, as
/// upper_bound(b + 1, b + rows, y) would count them. A table over equal
/// cells between the first and last inner bound holds the count of bounds
/// in lower cells; cell() is monotone in y, so only the bounds in y's own
/// cell are compared.
class BandIndex {
 public:
  explicit BandIndex(const std::vector<double>& b)
      : b_(b.data()), rows_(static_cast<std::uint32_t>(b.size() - 1)) {
    const std::uint32_t cells = 8 * rows_;
    if (rows_ >= 3) {
      lo_ = b[1];
      scale_ = cells / (b[rows_ - 1] - lo_);
      if (!(scale_ > 0.0 && std::isfinite(scale_))) scale_ = 0.0;
    }
    top_ = cells - 1.0;
    below_.assign(cells + 1, 0);
    for (std::uint32_t j = 1; j < rows_; ++j) ++below_[cell(b[j]) + 1];
    for (std::uint32_t c = 0; c < cells; ++c) below_[c + 1] += below_[c];
  }

  /// y must not be NaN.
  std::uint32_t operator()(double y) const {
    std::uint32_t r = below_[cell(y)];
    while (r + 1 < rows_ && b_[r + 1] <= y) ++r;
    return r;
  }

 private:
  std::uint32_t cell(double y) const {
    if (scale_ == 0.0) return 0;
    return static_cast<std::uint32_t>(std::clamp((y - lo_) * scale_, 0.0, top_));
  }

  const double* b_;
  std::uint32_t rows_;
  double lo_ = 0.0;
  double scale_ = 0.0;  // 0: one cell
  double top_ = 0.0;
  std::vector<std::uint32_t> below_;
};

/// Enforces strictly increasing bounds with tiny offsets (atomic
/// coordinates), so locate() stays well defined.
void make_increasing(std::vector<double>& b) {
  for (std::size_t i = 1; i < b.size(); ++i) {
    if (b[i] <= b[i - 1]) {
      b[i] = b[i - 1] + 1e-12 * std::max(1.0, std::abs(b[i - 1]));
    }
  }
}

}  // namespace

BalancedGrid::BalancedGrid(const Box& bounds, std::uint32_t rows,
                           std::uint32_t cols, std::span<const Vec2> sample)
    : bounds_(bounds), rows_(rows), cols_(cols) {
  SP_ASSERT(rows > 0 && cols > 0);
  SP_ASSERT(bounds.valid());
  row_bounds_.assign(rows_ + 1, 0.0);
  row_bounds_.front() = bounds_.lo[1];
  row_bounds_.back() = bounds_.hi[1];
  col_bounds_.assign(rows_, std::vector<double>(cols_ + 1, 0.0));
  for (auto& cb : col_bounds_) {
    cb.front() = bounds_.lo[0];
    cb.back() = bounds_.hi[0];
  }
  auto uniform_cols = [&](std::vector<double>& cb) {
    for (std::uint32_t c = 1; c < cols_; ++c) {
      cb[c] = bounds_.lo[0] + bounds_.width() * c / static_cast<double>(cols_);
    }
  };

  if (sample.empty()) {
    // Uniform fallback.
    for (std::uint32_t r = 1; r < rows_; ++r) {
      row_bounds_[r] =
          bounds_.lo[1] + bounds_.height() * r / static_cast<double>(rows_);
    }
    for (auto& cb : col_bounds_) uniform_cols(cb);
    return;
  }

  // Row boundaries: y-quantiles of the sample.
  SelectScratch scratch;
  std::vector<std::size_t> ks;
  std::vector<double> vals(sample.size());
  Extent ext;
  for (std::size_t i = 0; i < sample.size(); ++i) {
    vals[i] = sample[i][1];
    ext.add(vals[i]);
  }
  quantile_ranks(sample.size(), rows_, ks);
  quantiles(vals, ext, ks, row_bounds_.data() + 1, scratch);
  make_increasing(row_bounds_);

  // Row bands: a point belongs to band r when rb[r] <= y < rb[r+1] (the
  // last band is open above); points below rb[0] or with a NaN y belong to
  // none. When the bounds strictly increase, BandIndex names the one band
  // that can match. They fail to increase only around a NaN or an
  // infinity; then a point may match several bands, and every band is
  // tested. A stable counting sort lays each band's x values out in sample
  // order and takes the band's extent on the way.
  const double* rb = row_bounds_.data();
  bool increasing = true;
  for (std::uint32_t r = 0; r < rows_; ++r) {
    increasing = increasing && rb[r] < rb[r + 1];
  }
  struct Member {
    std::uint32_t band, point;
  };
  std::vector<Member> members;
  members.reserve(sample.size());
  std::vector<std::size_t> band(rows_ + 1, 0);
  std::optional<BandIndex> band_of;
  if (increasing) band_of.emplace(row_bounds_);
  for (std::uint32_t i = 0; i < sample.size(); ++i) {
    const double y = sample[i][1];
    std::uint32_t r = 0;
    std::uint32_t last = rows_ - 1;
    if (band_of) {
      if (!(y >= rb[0])) continue;  // below the grid, or NaN
      r = last = (*band_of)(y);
    }
    for (; r <= last; ++r) {
      if (y >= rb[r] && (r + 1 == rows_ || y < rb[r + 1])) {
        members.push_back({r, i});
        ++band[r + 1];
      }
    }
  }
  for (std::uint32_t r = 0; r < rows_; ++r) band[r + 1] += band[r];
  vals.resize(members.size());
  std::vector<std::size_t> cursor(band.begin(), band.end() - 1);
  std::vector<Extent> band_ext(rows_);
  for (const Member& m : members) {
    const double x = sample[m.point][0];
    vals[cursor[m.band]++] = x;
    band_ext[m.band].add(x);
  }

  // Column boundaries per row band: x-quantiles of the band's sample.
  for (std::uint32_t r = 0; r < rows_; ++r) {
    auto& cb = col_bounds_[r];
    const std::span<double> xs(vals.data() + band[r], band[r + 1] - band[r]);
    if (xs.empty()) {
      uniform_cols(cb);
      continue;
    }
    quantile_ranks(xs.size(), cols_, ks);
    quantiles(xs, band_ext[r], ks, cb.data() + 1, scratch);
    make_increasing(cb);
  }
}

}  // namespace sp::geom
