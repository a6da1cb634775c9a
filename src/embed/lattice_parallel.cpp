#include "embed/lattice_parallel.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <source_location>

#include "geometry/balanced_grid.hpp"
#include "geometry/quadtree.hpp"

#include "embed/force_model.hpp"
#include "obs/span.hpp"
#include "support/assert.hpp"
#include "support/random.hpp"

namespace sp::embed {

using geom::Box;
using geom::Lattice;
using geom::Vec2;
using graph::CsrGraph;
using graph::VertexId;

std::pair<std::uint32_t, std::uint32_t> grid_shape(std::uint32_t p) {
  SP_ASSERT_MSG(p > 0 && (p & (p - 1)) == 0, "P must be a power of two");
  std::uint32_t log2p = 0;
  while ((1u << log2p) < p) ++log2p;
  std::uint32_t rows = 1u << (log2p / 2);
  return {rows, p / rows};
}

// ---------------------------------------------------------------------------
// EmbedWorkspace
// ---------------------------------------------------------------------------

EmbedWorkspace::EmbedWorkspace(const coarsen::Hierarchy& hierarchy)
    : hierarchy_(&hierarchy) {
  const std::size_t levels = hierarchy.num_levels();
  child_offsets_.resize(levels);
  child_ids_.resize(levels);
  owner_.resize(levels);
  owner_labels_.resize(levels);
  for (std::size_t level = 0; level < levels; ++level) {
    owner_[level].assign(hierarchy.graph_at(level).num_vertices(), 0);
    owner_labels_[level] = "embed/owner.L" + std::to_string(level);
  }
  // Children of level-l vertices are level-(l-1) vertices: invert the
  // fine_to_coarse map with a counting sort.
  for (std::size_t level = 1; level < levels; ++level) {
    const auto& map = hierarchy.level(level).fine_to_coarse;
    const VertexId coarse_n = hierarchy.graph_at(level).num_vertices();
    auto& offsets = child_offsets_[level];
    auto& ids = child_ids_[level];
    offsets.assign(coarse_n + 1, 0);
    for (VertexId f = 0; f < map.size(); ++f) ++offsets[map[f] + 1];
    for (VertexId c = 0; c < coarse_n; ++c) offsets[c + 1] += offsets[c];
    ids.resize(map.size());
    std::vector<VertexId> cursor(offsets.begin(), offsets.end() - 1);
    for (VertexId f = 0; f < map.size(); ++f) ids[cursor[map[f]]++] = f;
  }
}

std::size_t EmbedWorkspace::num_levels() const {
  return hierarchy_->num_levels();
}

std::span<const VertexId> EmbedWorkspace::children(std::size_t level,
                                                   VertexId v) const {
  SP_ASSERT(level >= 1 && level < child_offsets_.size());
  const auto& offsets = child_offsets_[level];
  return {child_ids_[level].data() + offsets[v],
          static_cast<std::size_t>(offsets[v + 1] - offsets[v])};
}

// ---------------------------------------------------------------------------
// Per-level SPMD state and smoothing
// ---------------------------------------------------------------------------

namespace {

struct CoordMsg {
  VertexId id;
  double x, y;
};

/// (peer rank, coordinates) packets of one ghost superstep.
using CoordPackets =
    std::vector<std::pair<std::uint32_t, std::vector<CoordMsg>>>;

/// Fills one packet per destination of `plan` with `coord_of(i)` for each
/// listed owned index; `out` keeps its buffers across calls.
template <typename CoordOf>
void pack_coords(const PeerPlan& plan, const std::vector<VertexId>& owned,
                 CoordOf&& coord_of, CoordPackets& out) {
  out.resize(plan.size());
  for (std::size_t k = 0; k < plan.size(); ++k) {
    out[k].first = plan[k].first;
    auto& payload = out[k].second;
    payload.clear();
    for (std::uint32_t i : plan[k].second) {
      const Vec2 c = coord_of(i);
      payload.push_back({owned[i], c[0], c[1]});
    }
  }
}

/// Deterministic per-vertex uniform in [0,1): identical on every rank, so
/// the coarsest-level initialisation needs no communication.
double unit_hash(std::uint64_t seed, VertexId v, std::uint64_t salt) {
  return static_cast<double>(hash64(seed ^ (static_cast<std::uint64_t>(v) << 2) ^
                                    (salt * 0x9E3779B97F4A7C15ull)) >>
                             11) *
         0x1.0p-53;
}

struct LevelLocal {
  LevelLocal() = default;
  LevelLocal(std::size_t lvl, std::uint32_t p, std::uint32_t r, std::uint32_t c)
      : level(lvl), pl(p), rows(r), cols(c) {}

  std::size_t level = 0;
  std::uint32_t pl = 1;            // participating ranks at this level
  std::uint32_t rows = 1, cols = 1;
  Box box;
  /// Load-balanced cell decomposition (RCB-style quantile grid, see
  /// geometry/balanced_grid.hpp). Built once from the gathered sample by
  /// allgather_derive and shared by every rank of the level.
  std::shared_ptr<const geom::BalancedGrid> grid;
  std::vector<VertexId> owned;     // sorted global ids
  std::vector<Vec2> pos;           // aligned with owned

  std::vector<VertexId> ghost_ids;  // first-encounter order
  std::vector<Vec2> ghost_pos;
  std::vector<std::uint32_t> ghost_owner;
  /// Owned arcs resolved once (RankEmbedding::arc_ref).
  std::vector<std::uint32_t> arc_ref;

  /// Near-neighbour send plan: (dest rank, local indices of owned
  /// boundary vertices that rank ghosts). Refreshed every iteration.
  PeerPlan near_sends;
  /// Same structure for ranks beyond the 8-neighbourhood; refreshed only
  /// once per stale block. (The paper uses an allgather here; targeted
  /// messages carry the same information with volume proportional to the
  /// far-spanning edges instead of P times that, which matters at reduced
  /// graph scale where cells are tiny and many edges span far cells.)
  PeerPlan far_sends;
  /// Ghost indices by owning rank, in the order its packets list them.
  PeerPlan recv;
};

/// One ghost-coordinate superstep: sends `out` (counted in the
/// embed/ghost_* metrics), hands every received message to
/// `apply(ghost index, msg)` by position (apply_halo) and returns how many
/// arrived.
template <typename Apply>
std::size_t exchange_coords(
    comm::Comm& sub, const CoordPackets& out, const LevelLocal& local,
    Apply&& apply,
    std::source_location loc = std::source_location::current()) {
  if (obs::active()) {
    std::size_t sent = 0;
    for (const auto& packet : out) sent += packet.second.size();
    obs::count(sub, "embed/ghost_msgs", static_cast<double>(out.size()));
    obs::count(sub, "embed/ghost_bytes",
               static_cast<double>(sent * sizeof(CoordMsg)));
  }
  return apply_halo(sub.exchange_typed(out, loc), local.recv, local.ghost_ids,
                    apply);
}

std::uint32_t grid_row(std::uint32_t rank, std::uint32_t cols) {
  return rank / cols;
}
std::uint32_t grid_col(std::uint32_t rank, std::uint32_t cols) {
  return rank % cols;
}

bool grid_near(std::uint32_t a, std::uint32_t b, std::uint32_t cols) {
  auto dr = static_cast<std::int64_t>(grid_row(a, cols)) -
            static_cast<std::int64_t>(grid_row(b, cols));
  auto dc = static_cast<std::int64_t>(grid_col(a, cols)) -
            static_cast<std::int64_t>(grid_col(b, cols));
  return std::abs(dr) <= 1 && std::abs(dc) <= 1;
}

/// After `owned`/`pos` and the level owner directory are final, derive
/// the ghost list, every arc's reference and the send and receive plans
/// from the shared graph topology. `owner[u]` is a vertex's owning rank:
/// one bulk snapshot of the shared directory, or a rank-local map at the
/// coarsest level, where every rank derives the full map itself.
void build_halo(LevelLocal& local, const CsrGraph& g,
                std::vector<std::uint32_t> owner, comm::Comm& sub) {
  const std::uint32_t my_rank = sub.rank();
  // The snapshot doubles as the level's dense index: the entry of an owned
  // vertex becomes kOwnedRef | its owned index, a ghost's entry becomes
  // kGhostRef | its ghost index at the first arc that reaches it. Every
  // other entry is a rank below pl, with neither tag bit set.
  constexpr std::uint32_t kOwnedRef = 0x40000000u;
  SP_ASSERT(sub.nranks() <= kOwnedRef);
  for (std::uint32_t i = 0; i < local.owned.size(); ++i) {
    SP_ASSERT(owner[local.owned[i]] == my_rank);
    owner[local.owned[i]] = kOwnedRef | i;
  }
  local.ghost_ids.clear();
  local.ghost_owner.clear();
  local.arc_ref.clear();
  local.near_sends.clear();
  local.far_sends.clear();

  double work = 0;
  for (VertexId v : local.owned) {
    auto nbrs = g.neighbors(v);
    work += static_cast<double>(nbrs.size());
    for (VertexId u : nbrs) {
      std::uint32_t& ref = owner[u];
      if ((ref & (kOwnedRef | kGhostRef)) == 0) {
        SP_ASSERT_MSG(ref != my_rank, "owner directory names an unowned vertex");
        local.ghost_owner.push_back(ref);
        ref = kGhostRef | static_cast<std::uint32_t>(local.ghost_ids.size());
        local.ghost_ids.push_back(u);
      }
      local.arc_ref.push_back(ref & ~kOwnedRef);
    }
  }
  for (auto& entry : halo_send_plan(g, local.owned, local.arc_ref,
                                    local.ghost_owner)) {
    (grid_near(my_rank, entry.first, local.cols) ? local.near_sends
                                                 : local.far_sends)
        .push_back(std::move(entry));
  }
  local.recv = halo_recv_plan(local.ghost_ids, local.ghost_owner);
  local.ghost_pos.assign(local.ghost_ids.size(), Vec2{});
  sub.add_compute(work + static_cast<double>(local.owned.size()));
}

/// Brings every ghost position exactly up to date (near exchange + far
/// allgather with the current positions). Called once after the finest
/// level's smoothing so the geometric partitioning stage evaluates cuts on
/// a consistent embedding.
void refresh_all_ghosts(comm::Comm& sub, LevelLocal& local) {
  auto pos_of = [&](std::uint32_t i) { return local.pos[i]; };
  CoordPackets out, far;
  pack_coords(local.near_sends, local.owned, pos_of, out);
  pack_coords(local.far_sends, local.owned, pos_of, far);
  out.insert(out.end(), std::make_move_iterator(far.begin()),
             std::make_move_iterator(far.end()));
  exchange_coords(sub, out, local, [&](std::uint32_t j, const CoordMsg& msg) {
    local.ghost_pos[j] = geom::vec2(msg.x, msg.y);
  });
}

/// One level's fixed-lattice smoothing.
///
/// Hot-loop layout: coordinates are kept in structure-of-arrays form
/// (px/py for owned vertices, gx/gy for ghosts) and the adjacency is
/// pre-resolved into index references (build_halo's arc_ref), so the force loop is a branch-light
/// gather over flat double arrays followed by a separate accumulate pass.
/// Ghost coordinates are clamped into the L1-nearest neighbouring
/// sub-domain once per *update* instead of once per edge read —
/// clamp_to_neighbor is a pure function of the ghost position, so the
/// hoisted value is bit-identical. local.pos / local.ghost_pos remain the
/// canonical (exact, unclamped) stores: ghost_pos is updated in place and
/// pos is written back when the level finishes.
void smooth_level(comm::Comm& sub, LevelLocal& local, const CsrGraph& g,
                  const LatticeEmbedOptions& opt, std::uint32_t iterations,
                  double initial_step_factor, double final_step_fraction) {
  const std::uint32_t me = sub.rank();
  const VertexId n = g.num_vertices();
  if (n == 0 || iterations == 0) return;

  SP_ASSERT(local.grid != nullptr);
  const geom::BalancedGrid& lattice = *local.grid;
  const std::uint32_t my_row = grid_row(me, local.cols);
  const std::uint32_t my_col = grid_col(me, local.cols);

  ForceModel model;
  model.K = ForceModel::natural_length(
      std::max(local.box.width() * local.box.height(), 1e-12), n);
  model.C = opt.repulsion_c;
  // Hu-style adaptive step control: the step grows while the global
  // force energy keeps falling and shrinks when it rises. The energy
  // reduction piggybacks on the per-block refresh (one extra 8-byte
  // allreduce per block), so it adds no per-iteration global traffic.
  double step = initial_step_factor * model.K;
  const double min_step = 1e-3 * model.K;
  const double max_step = 2.0 * model.K;
  const double in_block_decay =
      std::pow(std::max(final_step_fraction, 0.02),
               1.0 / std::max(1u, iterations));
  double prev_energy = std::numeric_limits<double>::infinity();
  int progress = 0;
  double block_energy = 0.0;

  std::vector<double> mass(local.owned.size());
  double my_mass = 0.0;
  for (std::uint32_t i = 0; i < local.owned.size(); ++i) {
    mass[i] = static_cast<double>(g.vertex_weight(local.owned[i]));
    my_mass += mass[i];
  }

  // Stale global state: per-cell (centre of mass, mass), decoded once per
  // refresh for all ranks, and the inherited repulsion on my cell's beta,
  // whose inputs change only at a refresh.
  struct BetaCells {
    std::vector<Vec2> pos;
    std::vector<double> mass;
  };
  std::shared_ptr<const BetaCells> beta;
  Vec2 beta_force{};

  std::vector<Vec2> force(local.owned.size());

  const auto owned_n = static_cast<std::uint32_t>(local.owned.size());
  const auto ghost_n = static_cast<std::uint32_t>(local.ghost_ids.size());

  // SoA coordinate mirrors. gx/gy hold the *clamped* ghost positions the
  // force loop reads; an unreceived ghost clamps its zero-initialised
  // placeholder, exactly as the old per-edge clamp did.
  std::vector<double> px(owned_n), py(owned_n);
  for (std::uint32_t i = 0; i < owned_n; ++i) {
    px[i] = local.pos[i][0];
    py[i] = local.pos[i][1];
  }
  std::vector<double> gx(ghost_n), gy(ghost_n);
  for (std::uint32_t j = 0; j < ghost_n; ++j) {
    Vec2 c = lattice.clamp_to_neighbor(my_row, my_col, local.ghost_pos[j]);
    gx[j] = c[0];
    gy[j] = c[1];
  }

  // Adjacency: build_halo's arc_ref names each arc's owned or (tagged)
  // ghost index; the edge weights are widened alongside.
  const std::vector<std::uint32_t>& nbr_ref = local.arc_ref;
  std::vector<std::uint32_t> nbr_off(owned_n + 1, 0);
  std::vector<double> nbr_w;
  nbr_w.reserve(nbr_ref.size());
  std::uint32_t max_deg = 0;
  for (std::uint32_t i = 0; i < owned_n; ++i) {
    auto ws = g.edge_weights_of(local.owned[i]);
    max_deg = std::max(max_deg, static_cast<std::uint32_t>(ws.size()));
    nbr_off[i + 1] = nbr_off[i] + static_cast<std::uint32_t>(ws.size());
    for (graph::Weight w : ws) nbr_w.push_back(static_cast<double>(w));
  }
  SP_ASSERT(nbr_off[owned_n] == nbr_ref.size());
  std::vector<double> ux(max_deg), uy(max_deg);  // gather scratch

  // A ghost update stores the exact position and the clamped SoA mirror.
  auto apply_ghost = [&](std::uint32_t j, const CoordMsg& msg) {
    local.ghost_pos[j] = geom::vec2(msg.x, msg.y);
    Vec2 c = lattice.clamp_to_neighbor(my_row, my_col, local.ghost_pos[j]);
    gx[j] = c[0];
    gy[j] = c[1];
  };

  // Outgoing payload buffers persist across iterations (steady-state
  // supersteps refill them without allocating).
  CoordPackets near_out, far_out;
  auto current = [&](std::uint32_t i) { return geom::vec2(px[i], py[i]); };

  // Intra-cell Barnes-Hut tree: one per level, rebuilt every iteration
  // over a Vec2 snapshot of the current positions (storage is reused).
  const bool use_tree = opt.local_quadtree && owned_n > 1;
  std::vector<Vec2> tree_pts;
  geom::QuadTree tree;

  for (std::uint32_t it = 0; it < iterations; ++it) {
    const bool refresh = (it % std::max(1u, opt.stale_block)) == 0;
    if (refresh) {
      // Adaptive step update from the previous block's global energy.
      if (it > 0) {
        double energy = sub.allreduce(block_energy, comm::ReduceOp::kSum);
        if (energy < prev_energy) {
          if (++progress >= 2) {
            step = std::min(step * 1.1, max_step);
            progress = 0;
          }
        } else {
          step = std::max(step * 0.6, min_step);
          progress = 0;
        }
        prev_energy = energy;
        block_energy = 0.0;
      }
      // beta aggregates: allgather (m, m*x, m*y) per cell.
      double agg[3] = {my_mass, 0.0, 0.0};
      for (std::uint32_t i = 0; i < owned_n; ++i) {
        agg[1] += mass[i] * px[i];
        agg[2] += mass[i] * py[i];
      }
      beta = sub.allgather_derive(
          std::span<const double>(agg, 3), [](std::span<const double> all) {
            BetaCells cells;
            cells.pos.resize(all.size() / 3);
            cells.mass.resize(all.size() / 3);
            for (std::size_t r = 0; r < cells.mass.size(); ++r) {
              cells.mass[r] = all[3 * r];
              cells.pos[r] = cells.mass[r] > 0.0
                                 ? geom::vec2(all[3 * r + 1] / cells.mass[r],
                                              all[3 * r + 2] / cells.mass[r])
                                 : Vec2{};
            }
            return cells;
          });
      // Inherited repulsion: force per unit mass on my cell's beta from
      // all other cells (paper eq. 1, vector form).
      beta_force = Vec2{};
      if (my_mass > 0.0) {
        for (std::uint32_t r = 0; r < local.pl; ++r) {
          if (r == me || beta->mass[r] <= 0.0) continue;
          beta_force +=
              model.repulsive(beta->pos[me], beta->pos[r], beta->mass[r]);
        }
      }
      // Far-spanning edge endpoints: one targeted exchange per block.
      pack_coords(local.far_sends, local.owned, current, far_out);
      const std::size_t far_in =
          exchange_coords(sub, far_out, local, apply_ghost);
      sub.add_compute(static_cast<double>(far_in) +
                      static_cast<double>(local.pl));
    }

    // Nearest-neighbour boundary exchange (every iteration).
    pack_coords(local.near_sends, local.owned, current, near_out);
    exchange_coords(sub, near_out, local, apply_ghost);

    // The inherited repulsion is charged every iteration, as if it were
    // recomputed here; its inputs change only at a refresh.
    sub.add_compute(10.0 * static_cast<double>(local.pl));

    if (use_tree) {
      tree_pts.resize(owned_n);
      for (std::uint32_t i = 0; i < owned_n; ++i) {
        tree_pts[i] = geom::vec2(px[i], py[i]);
      }
      tree.rebuild(tree_pts, mass);
      sub.add_compute(4.0 * static_cast<double>(owned_n));
    }
    const double log_owned = std::log2(static_cast<double>(owned_n) + 2.0);

    // Forces are evaluated in the tree's leaf order, so consecutive queries
    // walk nearly the same nodes. Each force[i] is an independent sum and
    // arc_work adds integers, so the order does not change any result.
    const std::span<const std::uint32_t> order = tree.tree_order();
    double arc_work = 0.0;
    for (std::uint32_t k = 0; k < owned_n; ++k) {
      const std::uint32_t i = use_tree ? order[k] : k;
      Vec2 f = beta_force * mass[i];
      if (use_tree) {
        // Intra-cell repulsion through a local Barnes-Hut pass: no
        // communication, O(log owned) per vertex. The statically
        // dispatched traversal visits nodes in accumulate()'s order.
        f += tree.accumulate_with(
                 tree_pts[i], static_cast<std::int64_t>(i),
                 opt.quadtree_theta,
                 [&](const Vec2& delta, double m) {
                   double d = std::max(delta.norm(), 1e-4 * model.K);
                   return delta *
                          (model.C * model.K * model.K * m / (d * d));
                 }) *
             mass[i];
      } else if (beta->mass[me] > mass[i]) {
        // Own-cell correction (paper eq. 2): repelled from own beta, with
        // the vertex's own mass excluded from the aggregate.
        f += model.repulsive(geom::vec2(px[i], py[i]), beta->pos[me],
                             beta->mass[me] - mass[i]) *
             mass[i];
      }
      const std::uint32_t begin = nbr_off[i];
      const std::uint32_t deg = nbr_off[i + 1] - begin;
      arc_work += static_cast<double>(deg);
      // Gather pass: neighbour coordinates (owned exact, ghosts clamped
      // into the L1-nearest neighbouring sub-domain — the paper's ghost
      // rule) into dense scratch.
      for (std::uint32_t k = 0; k < deg; ++k) {
        std::uint32_t r = nbr_ref[begin + k];
        if ((r & kGhostRef) != 0) {
          r &= ~kGhostRef;
          ux[k] = gx[r];
          uy[k] = gy[r];
        } else {
          ux[k] = px[r];
          uy[k] = py[r];
        }
      }
      // Accumulate pass: ForceModel::attractive scalarised over the
      // scratch, summed in edge order (identical operation order to the
      // Vec2 form; zeroing the contribution below 1e-12 reproduces the
      // early return).
      const double xi = px[i];
      const double yi = py[i];
      double fx = f[0];
      double fy = f[1];
      for (std::uint32_t k = 0; k < deg; ++k) {
        double dx = ux[k] - xi;
        double dy = uy[k] - yi;
        double d = std::sqrt(dx * dx + dy * dy);
        double s = d / model.K;
        double cx = dx * s;
        double cy = dy * s;
        if (d < 1e-12) {
          cx = 0.0;
          cy = 0.0;
        }
        fx += cx * nbr_w[begin + k];
        fy += cy * nbr_w[begin + k];
      }
      force[i] = geom::vec2(fx, fy);
    }
    // Apply moves after computing all forces (Jacobi update: owned
    // vertices see each other's previous positions, like ghosts do). This
    // loop stays in owned order: block_energy is an order-sensitive sum.
    for (std::uint32_t i = 0; i < owned_n; ++i) {
      Vec2 move = clipped_move(force[i], step);
      block_energy += move.norm();
      px[i] += move[0];
      py[i] += move[1];
    }
    step = std::max(step * in_block_decay, min_step);
    double local_rep_work =
        use_tree ? 12.0 * static_cast<double>(owned_n) * log_owned
                 : 10.0 * static_cast<double>(owned_n);
    sub.add_compute(8.0 * arc_work + local_rep_work +
                    4.0 * static_cast<double>(owned_n));
  }

  // Sync the canonical AoS store with the final SoA coordinates.
  for (std::uint32_t i = 0; i < owned_n; ++i) {
    local.pos[i] = geom::vec2(px[i], py[i]);
  }
}

/// Host-call thunk: runs the checkpoint's persist hook in the process
/// that owns the canonical checkpoint object.
void persist_checkpoint(void* ctx, const std::byte* /*data*/,
                        std::size_t /*len*/) {
  auto& ckpt = *static_cast<EmbedCheckpoint*>(ctx);
  if (ckpt.persist) ckpt.persist(ckpt);
}

/// Gathers the level's full coordinate array into `ckpt` (every rank
/// receives the gather; rank 0 of the active sub-communicator writes the
/// shared slot, atomically w.r.t. the cooperative scheduler). Traced
/// under stage "checkpoint" so the fault-tolerance overhead is
/// reportable separately from the embedding itself.
void write_checkpoint(comm::Comm& sub, const LevelLocal& local, VertexId n,
                      EmbedCheckpoint& ckpt) {
  const std::string prev = sub.stage();
  sub.set_stage(obs::stages::kCheckpoint);
  obs::Span span(sub, obs::stages::kCheckpoint, "fault");
  std::vector<CoordMsg> out;
  out.reserve(local.owned.size());
  for (std::size_t i = 0; i < local.owned.size(); ++i) {
    out.push_back({local.owned[i], local.pos[i][0], local.pos[i][1]});
  }
  std::vector<std::size_t> counts;
  auto all = sub.allgatherv(std::span<const CoordMsg>(out), &counts);
  if (sub.rank() == 0) {
    // Single-writer slot: ordered against the other ranks' reads (at
    // resume entry / restore) by the allgather above and the shrink that
    // precedes any recovery read. Object-granular annotation — the inner
    // buffers reallocate, so the struct's own range is the stable name.
    // Built locally, then published through the shared-memory seam: on
    // the process backend the writer may be a child whose in-image copy
    // of `ckpt` is stale, and only the seam reaches the canonical object.
    analysis::note_shared_write(sub, ckpt, "embed/checkpoint");
    std::vector<Vec2> coords(n, Vec2{});
    std::vector<std::uint32_t> owner(n, 0);
    // The gather is concatenated in group-rank order, so the counts
    // vector identifies each message's sender — the ownership map rides
    // along at zero extra modeled cost.
    std::size_t at = 0;
    for (std::uint32_t r = 0; r < counts.size(); ++r) {
      for (std::size_t i = 0; i < counts[r]; ++i, ++at) {
        const CoordMsg& msg = all[at];
        coords[msg.id] = geom::vec2(msg.x, msg.y);
        owner[msg.id] = r;
      }
    }
    analysis::shared_assign_vec(sub, ckpt.coords, std::move(coords),
                                "embed/checkpoint");
    analysis::shared_assign_vec(sub, ckpt.owner, std::move(owner),
                                "embed/checkpoint");
    analysis::shared_store(sub, ckpt.level, local.level, "embed/checkpoint");
    analysis::shared_store(sub, ckpt.pl, local.pl, "embed/checkpoint");
    analysis::shared_store(sub, ckpt.box, local.box, "embed/checkpoint");
    analysis::shared_store(sub, ckpt.valid, true, "embed/checkpoint");
    obs::count(sub, "fault/checkpoints");
    // The persist hook runs where the canonical checkpoint lives (the
    // supervisor, on the process backend): it reads the fields published
    // above and bumps host-side bookkeeping the caller inspects.
    sub.host_call_store(&persist_checkpoint, &ckpt, nullptr, 0);
  }
  sub.add_compute(static_cast<double>(all.size()));
  sub.set_stage(prev);
}

/// Rebuilds a level's distributed state from a checkpoint: fetches the
/// saved coordinates (modeled as a broadcast — the cost of reading a
/// replicated snapshot) and redistributes every vertex over the current
/// grid, which may be smaller than the one that wrote the checkpoint.
/// This is how lost ranks' vertices find their new owners.
LevelLocal restore_level(comm::Comm& sub, const EmbedCheckpoint& ckpt,
                         std::size_t lvl, std::uint32_t pl, std::uint32_t rows,
                         std::uint32_t cols, const CsrGraph& g,
                         analysis::SharedSpan<std::uint32_t> owner) {
  const std::string prev = sub.stage();
  sub.set_stage(obs::stages::kRecover);
  obs::Span span(sub, obs::stages::kRecover, "fault");
  LevelLocal init(lvl, pl, rows, cols);
  // Every rank reads the checkpoint object below (pl/owner on all ranks,
  // coords on rank 0); the writer's allgather + the recovery shrink
  // order those reads after the write. All reads go through the seam —
  // on the process backend a child's own image of the checkpoint is
  // stale (the writer published into the supervisor's copy).
  analysis::note_shared_read(sub, ckpt, "embed/checkpoint");
  std::vector<Vec2> saved;
  if (sub.rank() == 0) {
    saved = analysis::shared_fetch_vec(sub, ckpt.coords, "embed/checkpoint");
  }
  const std::uint32_t ckpt_pl =
      analysis::shared_load(sub, ckpt.pl, "embed/checkpoint");
  const std::vector<std::uint32_t> ckpt_owner =
      analysis::shared_fetch_vec(sub, ckpt.owner, "embed/checkpoint");
  const bool exact = ckpt_pl == pl && ckpt_owner.size() == g.num_vertices();
  // The broadcast coordinates and, when redistributing, the box, the
  // balanced grid and every vertex's cell: derived once for all ranks.
  // The box is recomputed from the coordinates (positions drift outside
  // the smoothing-time box) and the grid is built for the current rank
  // count with the same proportional sampling as projection.
  struct Restored {
    std::vector<Vec2> coords;
    Box box;
    std::optional<geom::BalancedGrid> grid;
    std::vector<std::uint32_t> cell;
  };
  auto restored = sub.broadcast_derive(
      std::span<const Vec2>(saved), 0, [&](std::span<const Vec2> coords) {
        Restored r;
        r.coords.assign(coords.begin(), coords.end());
        if (exact) return r;
        double ext[4] = {1e300, 1e300, 1e300, 1e300};
        for (const Vec2& c : coords) {
          ext[0] = std::min(ext[0], c[0]);
          ext[1] = std::min(ext[1], c[1]);
          ext[2] = std::min(ext[2], -c[0]);
          ext[3] = std::min(ext[3], -c[1]);
        }
        r.box.lo = geom::vec2(ext[0], ext[1]);
        r.box.hi = geom::vec2(-ext[2], -ext[3]);
        r.box = r.box.inflated(0.05);
        const double n_level = static_cast<double>(coords.size());
        const double sample_target = std::min(n_level, 24.0 * pl + 512.0);
        const std::size_t stride = std::max<std::size_t>(
            static_cast<std::size_t>(n_level / sample_target), 1);
        std::vector<Vec2> sample;
        for (std::size_t v = 0; v < coords.size(); v += stride) {
          sample.push_back(coords[v]);
        }
        r.grid.emplace(r.box, rows, cols, std::span<const Vec2>(sample));
        r.cell.resize(coords.size());
        for (std::size_t v = 0; v < coords.size(); ++v) {
          r.cell[v] = r.grid->cell_index(coords[v]);
        }
        return r;
      });
  const std::vector<Vec2>& coords = restored->coords;
  SP_ASSERT(coords.size() == g.num_vertices());
  if (exact) {
    // ---- Exact restore (cold restart on the same rank count) ----
    // The checkpoint's own box and ownership map reproduce the level's
    // state as projection left it, bit for bit. That exactness matters:
    // the finer-level grids are sampled stride-wise from each rank's own
    // children, so any redistribution here would perturb the eventual
    // partition. The balanced grid is left unbuilt — only smoothing needs
    // it, and the resumed level is already smoothed.
    init.box = analysis::shared_load(sub, ckpt.box, "embed/checkpoint");
  } else {
    init.box = restored->box;
    init.grid = std::shared_ptr<const geom::BalancedGrid>(restored,
                                                          &*restored->grid);
  }
  // Every rank reads the same ownership, but the directory is shared —
  // so each rank publishes only its own entries (distinct indices; every
  // vertex has exactly one owner in [0, pl), and all of those ranks are
  // active here), and the barrier below makes the completed directory
  // visible before build_halo reads it.
  const std::vector<std::uint32_t>& cell = exact ? ckpt_owner : restored->cell;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (cell[v] == sub.rank()) {
      owner.write(sub, v, cell[v]);
      init.owned.push_back(v);
      init.pos.push_back(coords[v]);
    }
  }
  sub.add_compute(2.0 * static_cast<double>(coords.size()));
  sub.barrier();  // owner directory complete
  sub.set_stage(prev);
  return init;
}

}  // namespace

// ---------------------------------------------------------------------------
// Multilevel driver
// ---------------------------------------------------------------------------

RankEmbedding lattice_embed(comm::Comm& world, EmbedWorkspace& workspace,
                            const LatticeEmbedOptions& opt,
                            EmbedCheckpoint* checkpoint) {
  const std::uint32_t P = world.nranks();
  SP_ASSERT_MSG((P & (P - 1)) == 0, "lattice_embed requires power-of-two P");
  const std::size_t levels = workspace.num_levels();
  const std::size_t coarsest = levels - 1;
  const coarsen::Hierarchy& hierarchy = workspace.hierarchy();

  auto p_at = [&](std::size_t level) {
    std::uint32_t shift = 2 * static_cast<std::uint32_t>(level);
    return shift >= 32 ? 1u : std::max(P >> shift, 1u);
  };

  bool resume = false;
  std::size_t start_level = coarsest;
  if (checkpoint != nullptr) {
    // All ranks inspect the shared checkpoint to agree on resume-vs-fresh
    // — through the seam, since a recovered process-backend child's own
    // image of the checkpoint predates the write.
    analysis::note_shared_read(world, *checkpoint, "embed/checkpoint");
    resume =
        analysis::shared_load(world, checkpoint->valid, "embed/checkpoint");
  }
  if (resume) {
    start_level =
        analysis::shared_load(world, checkpoint->level, "embed/checkpoint");
    SP_ASSERT(start_level < levels);
  }

  LevelLocal local;

  for (std::size_t lvl = start_level;; --lvl) {
    const std::uint32_t pl = p_at(lvl);
    const bool active = world.rank() < pl;
    comm::Comm sub = world.split(active ? 0u : 1u, world.rank());
    const CsrGraph& g = hierarchy.graph_at(lvl);

    if (active) {
      obs::Span level_span(sub, obs::stages::kEmbed, "level",
                           static_cast<std::int32_t>(lvl));
      auto [rows, cols] = grid_shape(pl);
      if (resume && lvl == start_level) {
        // ---- Resume: rebuild this (already-smoothed) level from the
        // checkpoint; the finer levels are projected from it as usual. ----
        auto owner = workspace.owner(lvl);
        local = restore_level(sub, *checkpoint, lvl, pl, rows, cols, g, owner);
        // One bulk snapshot of the completed directory (restore_level
        // barriers before returning) instead of a per-vertex read.
        build_halo(local, g, owner.snapshot(sub), sub);
      } else if (lvl == coarsest) {
        // Deterministic random initial embedding in the unit box; every
        // rank derives the same positions, so ownership needs no
        // communication.
        LevelLocal init(lvl, pl, rows, cols);
        init.box.lo = geom::vec2(0, 0);
        init.box.hi = geom::vec2(1, 1);
        // The coarsest graph is small: every rank derives all positions,
        // builds the same balanced grid, and reads off its own cell.
        std::vector<Vec2> all_pos(g.num_vertices());
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          all_pos[v] = geom::vec2(unit_hash(opt.seed, v, 1),
                                  unit_hash(opt.seed, v, 2));
        }
        init.grid = std::make_shared<const geom::BalancedGrid>(
            init.box.inflated(1e-6), rows, cols,
            std::span<const Vec2>(all_pos));
        // Every active rank derives the identical full map, so keep it
        // rank-local: concurrent same-value stores to the shared
        // directory would still be a write-write race (no happens-before
        // between them), and nothing reads the coarsest directory after
        // this block anyway.
        std::vector<std::uint32_t> coarse_owner(g.num_vertices());
        for (VertexId v = 0; v < g.num_vertices(); ++v) {
          coarse_owner[v] = init.grid->cell_index(all_pos[v]);
          if (coarse_owner[v] == sub.rank()) {
            init.owned.push_back(v);
            init.pos.push_back(all_pos[v]);
          }
        }
        sub.add_compute(static_cast<double>(g.num_vertices()));
        local = std::move(init);
        build_halo(local, g, std::move(coarse_owner), sub);
        smooth_level(sub, local, g, opt, opt.coarsest_iterations,
                     /*initial_step_factor=*/2.0, /*final_step_fraction=*/1e-3);
      } else {
        // Project from level lvl+1: children placed around their parent
        // (coordinates doubled, deterministic jitter), then redistributed
        // by lattice cell. The lattice box is recomputed from the actual
        // projected positions with one min/max reduction — the layout
        // drifts and contracts during smoothing, and decomposing a stale
        // box would pack most of the graph into a few cells.
        LevelLocal next(lvl, pl, rows, cols);
        const bool had_coarse = local.level == lvl + 1 && !local.owned.empty();
        std::vector<CoordMsg> children;
        // Slots store {min x, min y, min -x, min -y}: one kMin reduction
        // yields both box corners.
        double ext[4] = {1e300, 1e300, 1e300, 1e300};
        if (had_coarse) {
          double work = 0;
          for (std::uint32_t i = 0; i < local.owned.size(); ++i) {
            Vec2 parent = local.pos[i] * 2.0;
            for (VertexId child : workspace.children(lvl + 1, local.owned[i])) {
              children.push_back({child, parent[0], parent[1]});
              work += 1.0;
            }
            ext[0] = std::min(ext[0], parent[0]);
            ext[1] = std::min(ext[1], parent[1]);
            ext[2] = std::min(ext[2], -parent[0]);
            ext[3] = std::min(ext[3], -parent[1]);
          }
          sub.add_compute(work);
        }
        auto ext_min = sub.allreduce_vec(std::span<const double>(ext, 4),
                                         comm::ReduceOp::kMin);
        Box fine_box;
        fine_box.lo = geom::vec2(ext_min[0], ext_min[1]);
        fine_box.hi = geom::vec2(-ext_min[2], -ext_min[3]);
        next.box = fine_box.inflated(0.05);
        const double jitter =
            0.15 * ForceModel::natural_length(
                       std::max(next.box.width() * next.box.height(), 1e-12),
                       g.num_vertices());
        // Jitter the children into their final projected positions, then
        // gather a proportional position sample so every rank builds the
        // same load-balanced grid (the paper's RCB mapping step).
        for (CoordMsg& msg : children) {
          msg.x += (unit_hash(opt.seed, msg.id, 3) - 0.5) * jitter;
          msg.y += (unit_hash(opt.seed, msg.id, 4) - 0.5) * jitter;
        }
        const double n_level = static_cast<double>(g.num_vertices());
        const double sample_target =
            std::min(n_level, 24.0 * pl + 512.0);
        std::vector<Vec2> my_sample;
        if (!children.empty()) {
          auto quota = static_cast<std::size_t>(
              std::ceil(sample_target * static_cast<double>(children.size()) /
                        n_level)) +
              1;
          std::size_t stride = std::max<std::size_t>(children.size() / quota, 1);
          for (std::size_t i = 0; i < children.size(); i += stride) {
            my_sample.push_back(geom::vec2(children[i].x, children[i].y));
          }
        }
        struct SampledGrid {
          geom::BalancedGrid grid;
          std::size_t samples;
        };
        auto sampled = sub.allgather_derive(
            std::span<const Vec2>(my_sample),
            [&box = next.box, rows = rows,
             cols = cols](std::span<const Vec2> sample) {
              return SampledGrid{geom::BalancedGrid(box, rows, cols, sample),
                                 sample.size()};
            });
        next.grid = std::shared_ptr<const geom::BalancedGrid>(sampled,
                                                              &sampled->grid);
        sub.add_compute(static_cast<double>(sampled->samples) * 8.0);

        // (dest cell, child index), sorted: one packet per destination in
        // ascending order, children in their original order within it.
        std::vector<std::pair<std::uint32_t, std::uint32_t>> by_dest;
        by_dest.reserve(children.size());
        for (std::uint32_t k = 0; k < children.size(); ++k) {
          by_dest.emplace_back(next.grid->cell_index(geom::vec2(
                                   children[k].x, children[k].y)),
                               k);
        }
        std::sort(by_dest.begin(), by_dest.end());
        CoordPackets out;
        for (const auto& [dest, k] : by_dest) {
          if (out.empty() || out.back().first != dest) out.push_back({dest, {}});
          out.back().second.push_back(children[k]);
        }
        auto in = sub.exchange_typed(out);
        std::vector<CoordMsg> received;
        for (const auto& packet : in) {
          received.insert(received.end(), packet.second.begin(),
                          packet.second.end());
        }
        std::sort(received.begin(), received.end(),
                  [](const CoordMsg& a, const CoordMsg& b) { return a.id < b.id; });
        next.owned.reserve(received.size());
        next.pos.reserve(received.size());
        auto owner = workspace.owner(lvl);
        for (const CoordMsg& msg : received) {
          next.owned.push_back(msg.id);
          next.pos.push_back(geom::vec2(msg.x, msg.y));
          owner.write(sub, msg.id, sub.rank());
        }
        sub.barrier();  // owner directory complete
        local = std::move(next);
        // Bulk snapshot, same reasoning as the resume path above.
        build_halo(local, g, owner.snapshot(sub), sub);
        smooth_level(sub, local, g, opt, opt.smooth_iterations,
                     /*initial_step_factor=*/0.5, /*final_step_fraction=*/0.05);
      }
      // Level boundary: the natural checkpoint granularity (a crash mid-
      // smoothing rolls back to the last completed level). A restored
      // level is already identical to its checkpoint — skip rewriting it.
      if (checkpoint && !(resume && lvl == start_level)) {
        write_checkpoint(sub, local, g.num_vertices(), *checkpoint);
      }
      if (lvl == 0) refresh_all_ghosts(sub, local);
    }
    if (lvl == 0) break;
  }

  RankEmbedding result;
  if (world.rank() < p_at(0)) {
    result.owned = std::move(local.owned);
    result.pos = std::move(local.pos);
    result.ghost_ids = std::move(local.ghost_ids);
    result.ghost_pos = std::move(local.ghost_pos);
    result.ghost_owner = std::move(local.ghost_owner);
    result.arc_ref = std::move(local.arc_ref);
    auto [rows, cols] = grid_shape(p_at(0));
    result.grid_rows = rows;
    result.grid_cols = cols;
    result.box = local.box;
  }
  return result;
}

PeerPlan halo_send_plan(const CsrGraph& g, std::span<const VertexId> owned,
                        std::span<const std::uint32_t> arc_ref,
                        std::span<const std::uint32_t> ghost_owner) {
  // (dest, owned index) pairs. Sorted and deduplicated they give every
  // destination its ascending send list, destinations in ascending order,
  // at a cost that grows with the peers this rank talks to, not with pl.
  std::vector<std::pair<std::uint32_t, std::uint32_t>> sends;
  std::size_t a = 0;
  for (std::uint32_t i = 0; i < owned.size(); ++i) {
    const std::size_t end = a + g.degree(owned[i]);
    std::uint32_t last_dest = ~0u;  // cheap consecutive-dup filter
    for (; a < end; ++a) {
      if ((arc_ref[a] & kGhostRef) == 0) continue;
      const std::uint32_t dest = ghost_owner[arc_ref[a] & ~kGhostRef];
      if (dest != last_dest) {
        sends.emplace_back(dest, i);
        last_dest = dest;
      }
    }
  }
  SP_ASSERT(a == arc_ref.size());
  std::sort(sends.begin(), sends.end());
  sends.erase(std::unique(sends.begin(), sends.end()), sends.end());
  PeerPlan plan;
  for (const auto& [dest, i] : sends) {
    if (plan.empty() || plan.back().first != dest) plan.push_back({dest, {}});
    plan.back().second.push_back(i);
  }
  return plan;
}

PeerPlan halo_recv_plan(std::span<const VertexId> ghost_ids,
                        std::span<const std::uint32_t> ghost_owner) {
  // ((owner, id), ghost index), sorted.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  keyed.reserve(ghost_ids.size());
  for (std::uint32_t j = 0; j < ghost_ids.size(); ++j) {
    keyed.emplace_back(
        (static_cast<std::uint64_t>(ghost_owner[j]) << 32) | ghost_ids[j], j);
  }
  std::sort(keyed.begin(), keyed.end());
  PeerPlan recv;
  for (const auto& [key, j] : keyed) {
    const auto peer = static_cast<std::uint32_t>(key >> 32);
    if (recv.empty() || recv.back().first != peer) recv.push_back({peer, {}});
    recv.back().second.push_back(j);
  }
  return recv;
}

std::shared_ptr<const std::vector<Vec2>> gather_embedding(
    comm::Comm& world, const RankEmbedding& mine, VertexId n) {
  std::vector<CoordMsg> out;
  out.reserve(mine.owned.size());
  for (std::size_t i = 0; i < mine.owned.size(); ++i) {
    out.push_back({mine.owned[i], mine.pos[i][0], mine.pos[i][1]});
  }
  return world.allgather_derive(
      std::span<const CoordMsg>(out), [n](std::span<const CoordMsg> all) {
        std::vector<Vec2> coords(n, Vec2{});
        for (const CoordMsg& msg : all) {
          SP_ASSERT(msg.id < n);
          coords[msg.id] = geom::vec2(msg.x, msg.y);
        }
        return coords;
      });
}

}  // namespace sp::embed
