#pragma once

/// \file grid_index.hpp
/// Uniform spatial grid nearest-neighbour backend over active subtree
/// roots — the sub-quadratic replacement for nn_index's linear scan.
///
/// Arcs are tilted_rects: axis-aligned boxes in tilted (u, v) space whose
/// pairwise distance is the L-infinity gap — so a uniform grid over (u, v)
/// prunes exactly the metric the merge engine orders by.  Each active root
/// is registered in every cell its arc's (u, v) box overlaps.
///
/// The grid is sized from the initial roots, but committed merging
/// segments can escape the children's hull in the non-binding axis
/// (A.expanded(alpha) ∩ B.expanded(beta) widens where the gap is not the
/// distance), so later arcs may lie partly outside the initial bounding
/// box.  Out-of-range coordinates are clamped into the border cells, and
/// that clamping is load-bearing *and* sound: the coordinate -> cell map
/// with clamping is monotone and 1-Lipschitz (|cell(x) - cell(q)| <=
/// |x - q| / cell + 1 still holds after clamping both sides), so a
/// candidate registered at Chebyshev cell-distance r from the query's
/// covered range is at true arc distance >= (r-1) * cell regardless of
/// clamping.  Do not remove the clamps on the strength of a hull
/// argument.
///
/// `nearest_if` runs a ring (spiral) expansion outward from the query
/// arc's covered cell range, with that (r-1) * cell admissible lower
/// bound stopping the search as soon as the next ring cannot beat (or
/// tie) the best candidate found, and within a ring it skips every cell
/// whose per-cell gap lower bound (`gap_lb`) is strictly above the
/// running best.  Because arcs are registered in *every* overlapped
/// cell, a candidate is always discovered in the cell holding its point
/// nearest the query, whose bound is <= its distance.  Both tests keep
/// ties (`lb <= best` is scanned, not only `<`) so equal-distance
/// candidates in farther cells still participate in the deterministic
/// `other < best` tie-break — the grid returns bit-identical answers to
/// nn_index.  A caller that already knows one valid candidate passes it
/// as a seed, and pruning starts from the first cell.
///
/// Cell size is chosen for ~O(1) expected occupancy: the bounding extent
/// divided by ceil(sqrt(n)) cells per axis.
///
/// **Occupancy-adaptive rebuild**: the active set shrinks as the engine
/// merges (two roots out, one in per commit), so cells sized for the
/// initial population go mostly empty and ring expansions walk farther.
/// When the active set drops below 1/4 of the population the grid was last
/// sized for, `erase` rebuilds the grid over the survivors' current arcs
/// with correspondingly larger cells.  Rebuilds never change any answer:
/// `nearest_if` is exact for every cell size (the ring lower bound is
/// admissible regardless), the per-cell NN bounds restart at +inf (the
/// fold-in walk merely loses pruning until it rescans a cell), and the
/// active_set — the engine's slot tie-break — is untouched.

#include "core/nn_index.hpp"
#include "core/plan_kernels.hpp"
#include "topo/tree.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <vector>

namespace astclk::core {

namespace audit {
struct grid_inspector;
}  // namespace audit

class grid_index {
  public:
    /// Build over the given roots: bounds from their arcs, then insert all.
    grid_index(const topo::clock_tree* tree,
               const std::vector<topo::node_id>& roots);

    void insert(topo::node_id id);
    void erase(topo::node_id id);

    [[nodiscard]] const std::vector<topo::node_id>& active() const {
        return set_.items();
    }
    [[nodiscard]] std::size_t size() const { return set_.size(); }

    /// Slot of an active id in `active()`; identical contract to
    /// nn_index::slot_of (both backends share the active_set bookkeeping).
    [[nodiscard]] std::int32_t slot_of(topo::node_id id) const {
        return set_.slot_of(id);
    }

    /// How many occupancy-adaptive rebuilds have run (diagnostics/tests).
    [[nodiscard]] int rebuilds() const { return rebuilds_; }

    /// Current cell counts per axis (diagnostics/tests: the sizing clamp
    /// for tiny populations is asserted through these).
    [[nodiscard]] int cells_u() const { return nu_; }
    [[nodiscard]] int cells_v() const { return nv_; }

    /// A known candidate for `nearest_if`: an active root, not `id` and
    /// not banned with it, at its exact arc distance `d` from `id` (the
    /// kernel's gap; `tilted_rect::distance` is bitwise equal).  The
    /// default — no id, +inf — seeds nothing.
    struct nn_seed {
        topo::node_id id = topo::knull_node;
        double d = std::numeric_limits<double>::infinity();
    };

    /// Nearest active root to `id` by arc distance, skipping `id` itself
    /// and banned partners; identical contract (including id tie-breaks) to
    /// nn_index::nearest_if, whatever the `seed`.  The ring walk reads the
    /// contiguous cell slab and hands each cell's candidate run —
    /// the inline ids, or a spilled cell's vector, itself one dense id run
    /// — to the fused SoA kernel `batch_arc_nearest` (DESIGN.md §11),
    /// which computes the gaps over the packed-arc mirror and folds the
    /// running best in the same pass.  Exact:
    ///  * within a ring the candidate order is the slab's, but the fold is
    ///    a strict lexicographic min over (distance, id) — visit-order
    ///    independent — and the post-ring best that drives the ring-bound
    ///    early exit is that same min;
    ///  * a cell whose gap lower bound to the query (`gap_lb`) is strictly
    ///    greater than the running best is skipped: a candidate that can
    ///    still win or tie is registered in the cell holding its arc's
    ///    point nearest the query, whose bound is <= its distance <= the
    ///    running best.  Ties must not be pruned (`>`, never `>=`): a
    ///    smaller id at exactly the running best still wins;
    ///  * the `seed` starts the running best at a real candidate, so
    ///    pruning bites from the first cell; the lexicographic min over a
    ///    set that already contains the seed is unchanged by it;
    ///  * the ban check runs only for candidates that would improve the
    ///    running best — equivalent to checking every candidate, since a
    ///    banned candidate never updates the best either way;
    ///  * the kernel's branchless gap is bit-identical to `interval::gap`
    ///    (see plan_kernels.hpp).
    /// Const and scratch-free, so concurrent queries are safe.
    template <class Banned>
    [[nodiscard]] std::optional<std::pair<topo::node_id, double>> nearest_if(
        topo::node_id id, Banned banned, nn_seed seed = {}) const {
        const geom::tilted_rect& arc = tree_->node(id).arc;
        const packed_arc q = packed_arc::of(arc);
        const cell_range qr = range_of(arc);
        topo::node_id best = seed.id;
        double best_d = seed.d;
        const int max_ring = max_ring_from(qr);
        for (int r = 0; r <= max_ring; ++r) {
            if (static_cast<double>(r - 1) * cell_ > best_d)
                break;  // ring lower bound beats every remaining candidate
            visit_ring_cells(qr, r, [&](int cu, int cv) {
                if (std::max(gap_lb(q.u_lo, q.u_hi, u_lo_, cu, nu_),
                             gap_lb(q.v_lo, q.v_hi, v_lo_, cv, nv_)) > best_d)
                    return;  // no occupant can win or tie
                const std::size_t c = cell_at(cu, cv);
                batch_arc_nearest(arcs_.data(), cell_ids(c), slab_[c].n, q,
                                  id, banned, best, best_d);
            });
        }
        if (best == topo::knull_node) return std::nullopt;
        return std::make_pair(best, best_d);
    }

    /// Raise the NN-distance bound of every cell `id` is registered in to
    /// at least `d`.  The engine calls this whenever it (re)sets an active
    /// root's nearest-neighbour distance, which keeps each cell's bound an
    /// upper bound on its occupants' NN distances — the invariant the
    /// bounded fold-in walk below prunes by (audit::verify_grid_nn_bounds).
    void raise_nn_bound(topo::node_id id, double d) {
        const cell_range& c = span_[static_cast<std::size_t>(id)];
        for (int cv = c.v0; cv <= c.v1; ++cv)
            for (int cu = c.u0; cu <= c.u1; ++cu) {
                double& b = nn_bound_[cell_at(cu, cv)];
                b = std::max(b, d);
            }
    }

    /// Bounded fold-in walk (DESIGN.md §2): invoke `fn(id, d)` for a
    /// superset of the active roots `i` with `d(rect, arc_i) < nn_dist[i]`
    /// — the roots whose nearest neighbour a new root with arc `rect`
    /// would beat — where `radius` bounds every live NN distance and `d`
    /// is the SoA kernel's gap (bitwise equal to a scalar
    /// `candidate.distance(rect)`).  The walk covers the cells within
    /// `radius` of `rect` but skips every cell whose gap lower bound to
    /// `rect` is >= the cell's NN bound: each occupant `i` then has
    /// `d >= lb >= bound >= nn_dist[i]`, so none can improve.  An
    /// improvable root is still reported from the cell holding its arc's
    /// point nearest `rect`, whose lower bound is <= `d < nn_dist[i]`.
    /// A scanned cell's bound is re-tightened to its occupants' exact
    /// maximum NN distance, read after `fn` ran (`fn` may lower them).
    /// Ids in several scanned cells are reported once per cell, in no
    /// particular order within a cell, so callers' folds must be idempotent
    /// and visit-order independent (the engine's strict-`<` fold is).
    template <class Fn>
    void for_each_improvable(const geom::tilted_rect& rect, double radius,
                             const std::vector<double>& nn_dist, Fn fn) {
        const cell_range q = range_of(rect.expanded(std::max(radius, 0.0)));
        const packed_arc p = packed_arc::of(rect);
        double tight = 0.0;  // the scanned cell's exact NN maximum
        const auto visit = [&](topo::node_id id, double d) {
            fn(id, d);
            tight = std::max(tight, nn_dist[static_cast<std::size_t>(id)]);
        };
        for (int cv = q.v0; cv <= q.v1; ++cv) {
            const double gv = gap_lb(p.v_lo, p.v_hi, v_lo_, cv, nv_);
            for (int cu = q.u0; cu <= q.u1; ++cu) {
                const std::size_t c = cell_at(cu, cv);
                if (std::max(gv, gap_lb(p.u_lo, p.u_hi, u_lo_, cu, nu_)) >=
                    nn_bound_[c])
                    continue;  // no occupant's NN can be beaten
                tight = 0.0;
                batch_arc_for_each(arcs_.data(), cell_ids(c), slab_[c].n, p,
                                   visit);
                nn_bound_[c] = tight;
            }
        }
    }

  private:
    /// The invariant auditor (core/audit.hpp) cross-checks the private
    /// registration state — span_, cells_, slab_, arcs_ — against the
    /// live set and the tree's arcs without widening the public surface.
    friend struct audit::grid_inspector;

    struct cell_range {
        int u0 = 0, u1 = 0, v0 = 0, v1 = 0;
    };

    /// Per-cell occupancy record, the cell's only registration while it
    /// holds at most kinline roots: one 32-byte slot per cell — the
    /// population count and up to kinline inline ids.  A ring row reads
    /// these slots sequentially (DESIGN.md §11), and place/erase of an
    /// ordinary cell touch nothing else.  A cell whose population exceeds
    /// kinline (border-cell clamping can pile escaped arcs up) is
    /// *spilled*: `n` keeps the true count, the inline ids are copied into
    /// the cell's `cells_` vector, which holds every occupant from then
    /// on, and gathers read that vector; the erase that brings the cell
    /// back to kinline moves the ids inline again and empties the vector.
    /// Swap-pop erases permute both runs, so gathers report a cell's ids
    /// in no particular order — only folds that are order-independent
    /// (nearest_if's lexicographic min, the fold-in's strict `<`) may
    /// read them.
    struct slab_cell {
        static constexpr std::uint32_t kinline = 7;
        std::uint32_t n = 0;          ///< true population of the cell
        topo::node_id ids[kinline];   ///< valid iff n <= kinline
    };
    static_assert(sizeof(slab_cell) == 32, "two cells per cache line");

    /// Below this population the adaptive rebuild stops bothering: the
    /// whole grid is a handful of cells either way.
    static constexpr std::size_t kmin_rebuild_population = 16;

    /// Cell-count floor per axis.  sqrt-sizing a tiny population (a small
    /// sub-reduction shard, n < ~64) would build a near-degenerate grid —
    /// in the limit one cell, i.e. a linear scan paying grid overhead —
    /// so sizing clamps to at least this many cells per axis.  Purely a
    /// performance knob: answers are exact for every cell size.
    static constexpr int kmin_cells_per_axis = 8;

    /// Size origin/cell/cells_ for `items` (bounds from their current
    /// arcs); does not touch the active_set registration.
    void size_to(const std::vector<topo::node_id>& items);
    /// Register an id's arc in the covering cells (set_ handled by caller).
    void place(topo::node_id id);
    /// Re-size and re-place every active id over its current arc.
    void rebuild();

    [[nodiscard]] std::size_t cell_at(int cu, int cv) const {
        return static_cast<std::size_t>(cv) * static_cast<std::size_t>(nu_) +
               static_cast<std::size_t>(cu);
    }
    [[nodiscard]] int clamp_u(int c) const {
        return std::clamp(c, 0, nu_ - 1);
    }
    [[nodiscard]] int clamp_v(int c) const {
        return std::clamp(c, 0, nv_ - 1);
    }
    /// Cell `c`'s occupants as one dense id run: the inline slab ids, or
    /// the cell vector once the cell has spilled.
    [[nodiscard]] const topo::node_id* cell_ids(std::size_t c) const {
        const slab_cell& sc = slab_[c];
        return sc.n <= slab_cell::kinline ? sc.ids : cells_[c].data();
    }
    [[nodiscard]] cell_range range_of(const geom::tilted_rect& r) const;
    [[nodiscard]] int max_ring_from(const cell_range& q) const;

    /// Admissible lower bound on the gap between the interval [lo, hi]
    /// and any point, within cell `k`'s slab of an axis with origin `o`
    /// and `n` cells, of an arc registered there.  Border slabs are
    /// open-ended outward (clamping piles escaped arcs into them — see
    /// the file comment), and interior edges are widened by `gap_slack_`
    /// to cover the floor rounding of range_of.
    [[nodiscard]] double gap_lb(double lo, double hi, double o, int k,
                                int n) const {
        constexpr double inf = std::numeric_limits<double>::infinity();
        const double s_lo = k == 0 ? -inf : o + k * cell_ - gap_slack_;
        const double s_hi =
            k == n - 1 ? inf : o + (k + 1) * cell_ + gap_slack_;
        return std::max(0.0, std::max(s_lo - hi, lo - s_hi));
    }

    /// Apply `fn(cu, cv)` to every cell at Chebyshev cell distance
    /// exactly `r` from range `q` (ring 0 is the range itself).
    template <class Fn>
    void visit_ring_cells(const cell_range& q, int r, Fn fn) const {
        const int u0 = q.u0 - r, u1 = q.u1 + r;
        const int v0 = q.v0 - r, v1 = q.v1 + r;
        const auto visit_row = [&](int cv, int a, int b) {
            if (cv < 0 || cv >= nv_) return;
            a = clamp_u(a);
            b = clamp_u(b);
            for (int cu = a; cu <= b; ++cu) fn(cu, cv);
        };
        if (r == 0) {
            for (int cv = v0; cv <= v1; ++cv) visit_row(cv, u0, u1);
            return;
        }
        visit_row(v0, u0, u1);  // bottom edge
        visit_row(v1, u0, u1);  // top edge
        for (int cv = v0 + 1; cv <= v1 - 1; ++cv) {
            if (cv < 0 || cv >= nv_) continue;
            if (u0 >= 0) fn(u0, cv);
            if (u1 < nu_) fn(u1, cv);
        }
    }

    const topo::clock_tree* tree_;
    active_set set_;
    std::vector<cell_range> span_;  ///< id -> registered cell range
    /// Cache-dense id -> arc-endpoint mirror for the batched distance
    /// kernel (written by place(); entries of erased ids go stale but are
    /// never gathered — only registered ids reach the kernel).
    std::vector<packed_arc> arcs_;
    /// cell -> occupants of a spilled cell (empty while the cell is not)
    std::vector<std::vector<topo::node_id>> cells_;
    std::vector<slab_cell> slab_;  ///< cell -> population and inline ids
    /// cell -> upper bound on the NN distance of every registered root
    /// (+inf after each sizing; raised by raise_nn_bound, re-tightened by
    /// for_each_improvable).
    std::vector<double> nn_bound_;
    double u_lo_ = 0.0, v_lo_ = 0.0;  ///< grid origin in tilted space
    double cell_ = 1.0;               ///< cell side, tilted units
    double inv_cell_ = 1.0;
    double gap_slack_ = 0.0;  ///< gap_lb's rounding margin, tilted units
    int nu_ = 1, nv_ = 1;
    std::size_t sized_for_ = 1;  ///< population the cells were sized for
    int rebuilds_ = 0;           ///< occupancy-adaptive rebuild count
};

}  // namespace astclk::core
