#include "core/engine.hpp"

#include "core/audit.hpp"
#include "core/dary_heap.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_set>
#include <vector>


namespace astclk::core {

/// The buffers behind engine_scratch: everything a reduce run allocates
/// that is independent of the instance being routed.  reset() fully
/// reinitialises the *contents* while keeping the capacity, so a reused
/// scratch produces bit-identical runs and merely skips the allocations.
struct engine_scratch::impl {
    /// Root a's selection candidate: the pair (a, nn_to[a]) at arc
    /// distance nn_dist[a].  One per root, so the partner and distance
    /// live in the NN tables only.
    struct sel_entry {
        double key;  ///< ordering key: distance lower bound or cached cost
        topo::node_id a;
        bool cached;  ///< key is the true plan cost
    };
    /// Root a's nearest-neighbour distance; one per root with a partner.
    struct rad_entry {
        double dist;
        topo::node_id a;
    };

    std::unordered_set<std::uint64_t> banned;
    /// id -> number of banned pairs the id participates in.  A pair can be
    /// banned only if *both* endpoints have nonzero degree, so the NN hot
    /// loops answer almost every ban probe with two array loads instead of
    /// a hash walk (bans are rare: one per rejected pair).  Grown lazily by
    /// ban_pair(); ids beyond the vector have degree zero by construction.
    std::vector<std::uint32_t> ban_deg;
    pair_cost_cache cost_cache;
    std::vector<topo::node_id> nn_to;  ///< id -> current NN (knull: none)
    std::vector<double> nn_dist;       ///< id -> distance to nn_to
    reverse_nn_lists rev;              ///< id -> roots whose NN it is
    std::unordered_set<topo::node_id> starved;    ///< all partners banned
    // Addressable 4-ary heaps (dary_heap.hpp), each with its id -> index
    // position map (knpos: the id holds no entry).
    std::vector<sel_entry> heap;    ///< selection min-heap
    std::vector<rad_entry> radius;  ///< influence-radius max-heap
    std::vector<std::uint32_t> heap_pos;
    std::vector<std::uint32_t> radius_pos;
    // Multi-merge round buffers (slot-indexed NN records, pre-solved plans).
    std::vector<std::pair<topo::node_id, double>> round_nn;
    std::vector<std::optional<merge_plan>> round_plans;
    // Batch-kernel buffers (engine_options::kernel == batch): the
    // pair/fallback-count arrays of the multi-merge rounds' chunked
    // solve_plan_batch dispatches (disjoint slots per chunk, so parallel
    // chunks stay deterministic).
    std::vector<std::pair<topo::node_id, topo::node_id>> kernel_pairs;
    std::vector<int> kernel_fb;
    // Per-step work lists reused across the run (integrate's affected
    // roots, cheapest()'s equal-key group): both are cleared before use,
    // so reuse only spares the per-call allocation.
    std::vector<topo::node_id> affected;
    std::vector<std::uint32_t> ties;

    /// Reinitialise for a run over node ids [0, ids).
    void reset(std::size_t ids) {
        banned.clear();
        ban_deg.clear();
        cost_cache.clear();
        starved.clear();
        heap.clear();
        radius.clear();
        kernel_pairs.clear();
        kernel_fb.clear();
        nn_to.assign(ids, topo::knull_node);
        nn_dist.assign(ids, 0.0);
        heap_pos.assign(ids, knpos);
        radius_pos.assign(ids, knpos);
        rev.reset(ids);
    }
};

engine_scratch::engine_scratch() : p_(std::make_unique<impl>()) {}
engine_scratch::~engine_scratch() = default;
engine_scratch::engine_scratch(engine_scratch&&) noexcept = default;
engine_scratch& engine_scratch::operator=(engine_scratch&&) noexcept = default;

namespace {

constexpr double kcost_slack = 1e-9;  // layout units

using sel_entry = engine_scratch::impl::sel_entry;
using rad_entry = engine_scratch::impl::rad_entry;

struct sel_order {  // min-heap on (key, a)
    bool operator()(const sel_entry& x, const sel_entry& y) const {
        if (x.key != y.key) return x.key > y.key;
        return x.a > y.a;
    }
};
struct rad_order {  // max-heap on dist
    bool operator()(const rad_entry& x, const rad_entry& y) const {
        return x.dist < y.dist;
    }
};

// The heaps are addressable 4-ary heaps (dary_heap.hpp) holding at most
// one entry per active root.  a is unique per entry, so sel_order is a
// *total* order — the (key, a, b) order of the pairs, since b is a's
// partner — and the selection front is the same entry whatever the
// layout; rad_order ties are resolved arbitrarily, but current_radius
// only reads the dist *value*, which every tied top shares.

/// Insert `e`, or replace the entry its root already holds.
template <class Cmp, class T>
void heap_set(std::vector<T>& h, std::vector<std::uint32_t>& pos, const T& e) {
    if (pos[static_cast<std::size_t>(e.a)] == knpos)
        dary_push<Cmp>(h, pos, e);
    else
        dary_update<Cmp>(h, pos, e);
}

/// Inlined ban predicate: no std::function on the hot path.  This is the
/// seed's literal probe — every candidate pair walks the hash set — and
/// the linear backend keeps it, so that backend's perf rows stay the
/// frozen reference implementation.
struct ban_table {
    const std::unordered_set<std::uint64_t>* bans;
    [[nodiscard]] bool operator()(std::uint64_t k) const {
        return bans->count(k) != 0;
    }
};

/// Grid-backend ban predicate: the packed pair key carries both endpoint
/// ids (pair_key, nn_index.hpp), so the degree table short-circuits the
/// hash walk whenever either endpoint has never been part of a ban — the
/// overwhelmingly common case, since bans accrue one rejected pair at a
/// time while the NN loops probe every candidate pair they scan.  Bit-identical answers
/// to ban_table: a pair is in `bans` only if both endpoints' degrees
/// are nonzero (ban_pair bumps both).
struct ban_table_fast {
    const std::unordered_set<std::uint64_t>* bans;
    const std::vector<std::uint32_t>* deg;
    [[nodiscard]] bool operator()(std::uint64_t k) const {
        const auto hi = static_cast<std::size_t>(k >> 32);
        if (hi >= deg->size()) return false;  // id newer than every ban
        if ((*deg)[hi] == 0 ||
            (*deg)[static_cast<std::size_t>(k & 0xffffffffu)] == 0)
            return false;
        return bans->count(k) != 0;
    }
};

/// Record a banned pair: the hash set answers exact probes, the degree
/// table powers ban_table_fast.  The degree vector grows lazily to
/// the larger endpoint (merged roots mint fresh ids mid-run).
void ban_pair(engine_scratch::impl& s, topo::node_id a, topo::node_id b) {
    s.banned.insert(pair_key(a, b));
    const auto need = static_cast<std::size_t>(std::max(a, b)) + 1;
    if (s.ban_deg.size() < need) s.ban_deg.resize(need, 0);
    ++s.ban_deg[static_cast<std::size_t>(a)];
    ++s.ban_deg[static_cast<std::size_t>(b)];
}

/// Run `query(banned)` with centre `i`'s ban predicate, a function of the
/// backend alone.  The grid prunes by ban degree: a centre that takes part
/// in no ban runs with the fully inlined no_bans (pair (i, j) can only be
/// banned if *both* endpoints have nonzero degree, and bans accrue one
/// rejected pair at a time, so almost every query qualifies), the rest
/// with ban_table_fast.  The linear backend keeps the seed's ban_table.
template <class Index, class Query>
auto with_bans(const engine_scratch::impl& s, topo::node_id i, Query query) {
    if constexpr (std::is_same_v<Index, grid_index>) {
        const auto si = static_cast<std::size_t>(i);
        if (si >= s.ban_deg.size() || s.ban_deg[si] == 0)
            return query(no_bans{});
        return query(ban_table_fast{&s.banned, &s.ban_deg});
    } else {
        return query(ban_table{&s.banned});
    }
}

void note_plan(const merge_plan& p, double dist, engine_stats& st) {
    ++st.merges;
    if (p.shared_groups == 0)
        ++st.disjoint_merges;
    else if (p.shared_groups == 1)
        ++st.shared_merges;
    else {
        ++st.shared_merges;
        ++st.multi_shared_merges;
    }
    if (p.alpha + p.beta > dist + kcost_slack) ++st.root_snakes;
    st.interior_snakes += static_cast<int>(p.snakes.size());
    st.snake_wire += p.cost - dist;
    if (p.violation > 0.0) {
        ++st.forced_merges;
        st.worst_violation = std::max(st.worst_violation, p.violation);
    }
}

/// Globally nearest active pair ignoring bans — the forced-merge fallback.
/// Deliberately the seed's literal O(n^2) scan (slot-major, first strictly
/// smaller distance wins): forced merges are rare endgame events with small
/// active sets, and keeping the scan verbatim preserves bit-identical
/// results with the pre-grid engine.
template <class Index>
std::pair<topo::node_id, topo::node_id> forced_nearest_pair(
    const topo::clock_tree& t, const Index& idx) {
    topo::node_id ba = topo::knull_node, bb = topo::knull_node;
    double bd = std::numeric_limits<double>::infinity();
    for (topo::node_id i : idx.active()) {
        for (topo::node_id j : idx.active()) {
            if (j <= i) continue;
            const double d = t.node(i).arc.distance(t.node(j).arc);
            if (d < bd) {
                bd = d;
                ba = i;
                bb = j;
            }
        }
    }
    return {ba, bb};
}

/// One nearest-pair reduction run: the heap-driven selection loop with
/// incremental neighbour maintenance, templated over the NN backend so the
/// ban predicate and distance loops fully inline for both.  All mutable
/// run state lives in the borrowed engine_scratch::impl.
template <class Index>
class nearest_reducer {
    static constexpr bool kgrid = std::is_same_v<Index, grid_index>;

  public:
    nearest_reducer(const merge_solver& solver, const engine_options& opt,
                    topo::clock_tree& t, const std::vector<topo::node_id>& roots,
                    engine_stats& st, engine_scratch::impl& s)
        : solver_(solver), opt_(opt), t_(t), st_(st), s_(s), idx_(&t, roots),
          // The batch plan kernels' fast path requires ledger-free
          // planning (plan_kernels.hpp); a ledger-backed run would bounce
          // every lane anyway, so gate the plan dispatch off entirely and
          // keep the plan counters at zero there.
          batch_on_(opt.kernel == plan_kernel::batch &&
                    solver.ledger() == nullptr) {
        // Every id the run will see: the tree's nodes so far plus one new
        // root per merge.
        s_.reset(t_.size() + roots.size() - 1);
        for (topo::node_id r : roots) recompute(r);
    }

    topo::node_id run() {
        const bool watched = opt_.cancel.armed();
        std::uint64_t step = 0;  // deterministic fault-site index
#ifdef ASTCLK_AUDIT
        std::uint64_t audit_step = 0;
#endif
        while (idx_.size() > 1) {
            if (watched) {
                if (const route_status rs =
                        opt_.cancel.poll_at(fault_site::selection, ++step);
                    rs != route_status::ok)
                    interrupt(rs);
            }
#ifdef ASTCLK_AUDIT
            audit_checkpoint(++audit_step);
#endif
            const auto picked = cheapest();
            if (!picked.has_value()) {
                forced_step();
                continue;
            }
            const auto [key, a, cached] = *picked;
            const topo::node_id b = s_.nn_to[static_cast<std::size_t>(a)];
            const double dist = s_.nn_dist[static_cast<std::size_t>(a)];
            auto plan = solve_one(a, b);
            if (!plan.has_value()) {
                ban_pair(s_, a, b);
                ++st_.rejected_pairs;
                recompute(a);
                recompute(b);
                continue;
            }
            if (opt_.true_cost_ordering && !cached &&
                plan->order_cost > key + kcost_slack) {
                // Lazy re-key: the true cost (snaking and any deferral bias
                // included) exceeds the distance bound — another pair may
                // now be cheaper.  Only the cost is memoised: a re-keyed
                // pair that wins again is simply re-solved.
                s_.cost_cache.store(pair_key(a, b), plan->order_cost);
                dary_update<sel_order>(s_.heap, s_.heap_pos,
                                       {plan->order_cost, a, true});
                continue;
            }
            note_plan(*plan, dist, st_);
            const topo::node_id c = solver_.commit(t_, a, b, std::move(*plan));
            integrate(a, b, c);
        }
        return idx_.active().front();
    }

  private:
#ifdef ASTCLK_AUDIT
    /// Audit-build hook riding the selection checkpoint (DESIGN.md §12):
    /// structural checks every step — both scratch heaps ordered, their
    /// position maps exact and no larger than the live set, and the stats
    /// books internally consistent — and the reverse-list, grid-vs-live-set,
    /// per-cell NN-bound and exact-NN cross-checks (which walk every list
    /// or cell, or re-query every live root) every 64th step and on the
    /// first.
    void audit_checkpoint(std::uint64_t step) {
        const std::size_t live = idx_.size();
        audit::checkpoint("selection/heap",
                          audit::verify_heap_invariant<sel_order>(s_.heap));
        audit::checkpoint("selection/heap", audit::verify_heap_positions(
                                                s_.heap, s_.heap_pos, live));
        audit::checkpoint(
            "selection/radius",
            audit::verify_heap_invariant<rad_order>(s_.radius));
        audit::checkpoint("selection/radius",
                          audit::verify_heap_positions(
                              s_.radius, s_.radius_pos, live));
        audit::checkpoint("selection/stats", audit::verify_stats_books(st_));
        if (step % 64 != 1) return;
        audit::checkpoint("selection/rev",
                          audit::verify_rev_lists(idx_.active(), s_.nn_to,
                                                  s_.rev));
        if constexpr (kgrid) {
            audit::checkpoint("selection/grid",
                              audit::verify_grid_vs_live_set(idx_, t_));
            audit::checkpoint("selection/grid-nn-bound",
                              audit::verify_grid_nn_bounds(idx_, s_.nn_dist));
            audit::checkpoint("selection/nn-exact",
                              audit::verify_nn_exact(idx_, s_.nn_to,
                                                     s_.nn_dist, s_.banned));
        }
    }
#endif

    /// One plan solve, routed through the batch kernel (a chunk of one:
    /// the SoA fast path still skips the scalar path's working-state
    /// copies and shared-group allocation) or the scalar solver.
    std::optional<merge_plan> solve_one(topo::node_id a, topo::node_id b) {
        if (!batch_on_) return solver_.plan(t_, a, b);
        const std::pair<topo::node_id, topo::node_id> pr{a, b};
        std::optional<merge_plan> plan;
        const int fb = solve_plan_batch(solver_, t_, &pr, 1, &plan);
        st_.kernel_fallbacks += fb;
        st_.batch_planned += 1 - fb;
        return plan;
    }

    [[noreturn]] void interrupt(route_status rs) {
        throw route_interrupt(rs, st_);
    }

    /// Point i's nearest-neighbour record at (j, d); maintains the reverse
    /// lists and i's entries in both heaps.  j == knull means "no eligible
    /// partner" (all banned): i leaves both heaps and is parked in the
    /// starved set.
    void set_nn(topo::node_id i, topo::node_id j, double d) {
        const auto si = static_cast<std::size_t>(i);
        const topo::node_id old = s_.nn_to[si];
        if (old != topo::knull_node) s_.rev.unlink(i, old);
        s_.nn_to[si] = j;
        s_.nn_dist[si] = d;
        if constexpr (kgrid) idx_.raise_nn_bound(i, d);
        if (j == topo::knull_node) {
            drop_entries(i);
            s_.starved.insert(i);
            return;
        }
        // Starvation is an endgame phenomenon (every partner banned), so
        // the set is empty for almost the whole run — the one-load probe
        // spares a hash erase per neighbour update.
        if (!s_.starved.empty()) s_.starved.erase(i);
        s_.rev.link(i, j);
        const auto cv = s_.cost_cache.lookup(pair_key(i, j));
        heap_set<sel_order>(s_.heap, s_.heap_pos,
                            {cv.value_or(d), i, cv.has_value()});
        heap_set<rad_order>(s_.radius, s_.radius_pos, {d, i});
    }

    /// Remove i's entries from both heaps, where it holds them.
    void drop_entries(topo::node_id i) {
        const auto si = static_cast<std::size_t>(i);
        if (s_.heap_pos[si] != knpos)
            dary_erase<sel_order>(s_.heap, s_.heap_pos, si);
        if (s_.radius_pos[si] != knpos)
            dary_erase<rad_order>(s_.radius, s_.radius_pos, si);
    }

    /// Re-query i's nearest neighbour.  `seed` (grid only) is a known
    /// unbanned active candidate at its exact distance, from which the
    /// grid query prunes cells (grid_index::nearest_if).
    void recompute(topo::node_id i, grid_index::nn_seed seed = {}) {
        const auto n = with_bans<Index>(s_, i, [&](auto banned) {
            if constexpr (kgrid)
                return idx_.nearest_if(i, banned, seed);
            else
                return idx_.nearest_if(i, banned);
        });
        if (n.has_value())
            set_nn(i, n->first, n->second);
        else
            set_nn(i, topo::knull_node, 0.0);
    }

    /// Re-key `e` in place to its cached true cost when that exceeds its
    /// distance key (the pair was solved since `e` was keyed); true when
    /// it did.
    bool rekeyed(const sel_entry& e) {
        if (e.cached) return false;
        const auto cv = s_.cost_cache.lookup(
            pair_key(e.a, s_.nn_to[static_cast<std::size_t>(e.a)]));
        if (!cv.has_value() || *cv <= e.key) return false;
        dary_update<sel_order>(s_.heap, s_.heap_pos, {*cv, e.a, true});
        return true;
    }

    /// The cheapest candidate; nullopt when every remaining pair is banned
    /// (the forced-merge endgame).  The winner stays in the heap: every
    /// path of the step replaces, re-keys or erases it.  Tied entries whose
    /// cached true cost exceeds their key are re-keyed out of contention
    /// first; the rest resolve by the owner's active-slot order — exactly
    /// the tie-break of the former O(n) selection sweep, so the heap
    /// engine reproduces its trees bit-for-bit.  No child orders above its
    /// parent, so the entries tied at the front key form a subtree hanging
    /// from the front, walked in place without popping.
    std::optional<sel_entry> cheapest() {
        const auto& h = s_.heap;
        auto& ties = s_.ties;
        while (!h.empty()) {
            const double key = h.front().key;
            const sel_entry* best = nullptr;
            bool settled = true;
            ties.assign(1, 0);
            for (std::size_t k = 0; k < ties.size(); ++k) {
                const sel_entry& e = h[ties[k]];
                if (rekeyed(e)) {  // reshuffles the heap: walk again
                    settled = false;
                    break;
                }
                if (best == nullptr ||
                    idx_.slot_of(e.a) < idx_.slot_of(best->a))
                    best = &e;
                const std::size_t first = ties[k] * kheap_arity + 1;
                const std::size_t last =
                    std::min(first + kheap_arity, h.size());
                for (std::size_t c = first; c < last; ++c)
                    if (h[c].key == key)
                        ties.push_back(static_cast<std::uint32_t>(c));
            }
            if (settled) return *best;
        }
        return std::nullopt;
    }

    /// Current nearest-neighbour influence radius: the largest nn distance
    /// over active roots with a partner.
    [[nodiscard]] double current_radius() const {
        return s_.radius.empty() ? 0.0 : s_.radius.front().dist;
    }

    void erase_node(topo::node_id i) {
        idx_.erase(i);
        const auto si = static_cast<std::size_t>(i);
        const topo::node_id old = s_.nn_to[si];
        if (old != topo::knull_node) s_.rev.unlink(i, old);
        s_.nn_to[si] = topo::knull_node;
        drop_entries(i);
        if (!s_.starved.empty()) s_.starved.erase(i);
    }

    /// Post-commit maintenance: merged pair out, new root in, and only the
    /// affected neighbourhoods touched —
    ///   * roots whose NN was a or b (reverse lists): full recompute;
    ///   * starved roots: the new root is their only unbanned partner;
    ///   * roots within the influence radius of c's arc: fold c in when
    ///     strictly closer (ties keep the older, smaller id — exactly the
    ///     backends' tie-break, since c has the largest id).  The grid
    ///     walk skips every cell whose NN bound c's arc cannot beat
    ///     (grid_index::for_each_improvable), which finds the same
    ///     improvable roots as the linear backend's scan of every root.
    void integrate(topo::node_id a, topo::node_id b, topo::node_id c) {
        auto& affected = s_.affected;
        affected.clear();
        const auto orphans = [&](topo::node_id owner, topo::node_id skip) {
            for (topo::node_id i = s_.rev.head[static_cast<std::size_t>(owner)];
                 i != topo::knull_node;
                 i = s_.rev.next[static_cast<std::size_t>(i)])
                if (i != skip) affected.push_back(i);
        };
        orphans(a, b);
        orphans(b, a);
        erase_node(a);
        erase_node(b);
        s_.rev.head[static_cast<std::size_t>(a)] = topo::knull_node;
        s_.rev.head[static_cast<std::size_t>(b)] = topo::knull_node;
        // The affected roots' list links died with those heads; void their
        // records so the recompute below doesn't unlink them.
        for (topo::node_id i : affected)
            s_.nn_to[static_cast<std::size_t>(i)] = topo::knull_node;
        idx_.insert(c);
        const geom::tilted_rect& arc_c = t_.node(c).arc;
        // c's query seed (grid): the lexicographic min (d, id) over every
        // root scored against c below — all active, none banned with the
        // new root.
        grid_index::nn_seed seed_c;
        const auto scored = [&](topo::node_id i, double d) {
            if (d < seed_c.d || (d == seed_c.d && i < seed_c.id))
                seed_c = {i, d};
        };
        for (topo::node_id i : affected) {
            if constexpr (kgrid) {
                // Orphan shortcut: every other root was at >= i's old NN
                // distance (still in the table), so a strictly closer c is
                // i's exact nearest neighbour; otherwise c seeds the query.
                const double d = t_.node(i).arc.distance(arc_c);
                scored(i, d);
                if (d < s_.nn_dist[static_cast<std::size_t>(i)])
                    set_nn(i, c, d);
                else
                    recompute(i, {c, d});
            } else {
                recompute(i);
            }
        }
        if (!s_.starved.empty()) {
            const std::vector<topo::node_id> snapshot(s_.starved.begin(),
                                                      s_.starved.end());
            for (topo::node_id i : snapshot) {
                const double d = t_.node(i).arc.distance(arc_c);
                scored(i, d);
                set_nn(i, c, d);
            }
        }
        const double radius = current_radius();
        // Fold c into every root it is strictly closer to; the guard skips
        // c itself and roots already folded (duplicate visits).
        const auto fold = [&](topo::node_id i, double d) {
            if (i == c) return;
            if constexpr (kgrid) scored(i, d);
            const auto si = static_cast<std::size_t>(i);
            if (s_.nn_to[si] == c) return;
            if (d < s_.nn_dist[si]) set_nn(i, c, d);
        };
        if constexpr (kgrid) {
            // Bounded fold-in, distances from the SoA kernel (symmetric
            // gap, so the orientation is bitwise-neutral).  Its visit
            // order differs from the linear scan's, which only permutes
            // reverse-list and heap update order — the selection follows
            // the total (key, a, b) order.
            idx_.for_each_improvable(arc_c, radius, s_.nn_dist, fold);
            recompute(c, seed_c);
        } else {
            idx_.for_each_within(arc_c, radius, [&](topo::node_id i) {
                fold(i, t_.node(i).arc.distance(arc_c));
            });
            recompute(c);
        }
    }

    /// Every remaining pair is banned: forced minimax merge of the globally
    /// nearest pair (keeps the algorithm total; the residual violation is
    /// recorded).
    void forced_step() {
        const auto [a, b] = forced_nearest_pair(t_, idx_);
        assert(a != topo::knull_node);
        const double bd = t_.node(a).arc.distance(t_.node(b).arc);
        merge_plan p = solver_.plan_forced(t_, a, b);
        note_plan(p, bd, st_);
        if (p.violation <= 0.0) ++st_.forced_merges;  // count the fallback
        const topo::node_id c = solver_.commit(t_, a, b, std::move(p));
        integrate(a, b, c);
    }

    const merge_solver& solver_;
    const engine_options& opt_;
    topo::clock_tree& t_;
    engine_stats& st_;
    engine_scratch::impl& s_;
    Index idx_;
    const bool batch_on_;  ///< SoA plan kernels (knob on, ledger-free)
};

template <class Index>
topo::node_id reduce_nearest_impl(const merge_solver& solver,
                                  const engine_options& opt,
                                  topo::clock_tree& t,
                                  const std::vector<topo::node_id>& roots,
                                  engine_stats& st, engine_scratch::impl& s) {
    nearest_reducer<Index> r(solver, opt, t, roots, st, s);
    return r.run();
}

/// Edahiro-style multi-merge rounds.  Per round, the nearest-neighbour
/// queries are pure reads over the tree and index and fan out across the
/// executor; the plan() calls of the round's candidates do too when the
/// solver carries no offset ledger (mutually-nearest pairs are
/// vertex-disjoint — each root has exactly one NN — so their plans read
/// disjoint subtrees, and commits of one pair cannot change another pair's
/// plan).  Ledger-backed solvers keep planning sequential, because plans
/// read offsets that earlier commits of the same round bind.  Commits are
/// always applied sequentially in the deterministic (d, a, b) candidate
/// order, so threaded rounds are bit-identical to sequential ones.
template <class Index>
topo::node_id reduce_multi_impl(const merge_solver& solver,
                                const engine_options& opt,
                                topo::clock_tree& t,
                                const std::vector<topo::node_id>& roots,
                                engine_stats& st, engine_scratch::impl& s) {
    Index idx(&t, roots);
    s.banned.clear();
    s.ban_deg.clear();
    task_executor* exec = opt.executor;
    const bool parallel_plans = exec != nullptr && solver.ledger() == nullptr;
    const bool batch_on =
        opt.kernel == plan_kernel::batch && solver.ledger() == nullptr;
    // Pre-solving a round's plans before any of its commits is exact for
    // ledger-free solvers whether or not an executor is present: the
    // round's mutually-nearest pairs are vertex-disjoint, and a commit
    // mutates only its own pair's nodes (snake side-roots are the pair
    // roots themselves), so no plan reads state another commit of the
    // same round writes.  The batch kernel piggybacks on that argument to
    // solve the round in kplan_lanes chunks even sequentially.
    const bool pre_plans = parallel_plans || batch_on;

    struct cand {
        topo::node_id a, b;
        double d;
    };
    std::vector<cand> cands;
    const bool watched = opt.cancel.armed();

    std::uint64_t round_ckpt = 0;  // per-run fault-site index (st.rounds
                                   // may carry accumulated shard counts)
    while (idx.size() > 1) {
        if (watched) {
            if (const route_status rs = opt.cancel.poll_at(
                    fault_site::round, ++round_ckpt);
                rs != route_status::ok)
                throw route_interrupt(rs, st);
        }
#ifdef ASTCLK_AUDIT
        // Round checkpoint: the multi-merge path keeps no selection heap
        // to audit, so the books are the auditable state here.
        audit::checkpoint("round/stats", audit::verify_stats_books(st));
#endif
        ++st.rounds;
        // Fresh nearest neighbours each round, slot-indexed so the fan-out
        // writes disjoint slots (deterministic regardless of schedule).
        const std::vector<topo::node_id>& act = idx.active();
        const std::size_t m = act.size();
        s.round_nn.assign(m, {topo::knull_node, 0.0});
        auto& nn = s.round_nn;
        run_indexed(exec, m, [&](std::size_t k) {
            const topo::node_id i = act[k];
            if (const auto n = with_bans<Index>(s, i, [&](auto banned) {
                    return idx.nearest_if(i, banned);
                }))
                nn[k] = *n;
        });

        // Mutually nearest pairs, cheapest first (Edahiro's multi-merge);
        // full (d, a, b) ordering keeps rounds deterministic across
        // backends, thread counts and runs.
        cands.clear();
        for (std::size_t k = 0; k < m; ++k) {
            const auto [j, d] = nn[k];
            const topo::node_id i = act[k];
            if (j == topo::knull_node || j < i) continue;  // dedup i < j
            const auto js = static_cast<std::size_t>(idx.slot_of(j));
            if (nn[js].first == i) cands.push_back({i, j, d});
        }
        std::sort(cands.begin(), cands.end(),
                  [](const cand& x, const cand& y) {
                      if (x.d != y.d) return x.d < y.d;
                      if (x.a != y.a) return x.a < y.a;
                      return x.b < y.b;
                  });

        if (pre_plans) {
            s.round_plans.assign(cands.size(), std::nullopt);
            if (batch_on) {
                auto& pairs = s.kernel_pairs;
                pairs.resize(cands.size());
                for (std::size_t k = 0; k < cands.size(); ++k)
                    pairs[k] = {cands[k].a, cands[k].b};
                const std::size_t chunks =
                    (cands.size() + kplan_lanes - 1) / kplan_lanes;
                s.kernel_fb.assign(chunks, 0);
                auto& fb = s.kernel_fb;
                run_indexed(exec, chunks, [&](std::size_t c) {
                    const std::size_t lo = c * kplan_lanes;
                    const std::size_t n =
                        std::min(kplan_lanes, cands.size() - lo);
                    fb[c] = solve_plan_batch(solver, t, pairs.data() + lo, n,
                                             s.round_plans.data() + lo);
                });
                int total_fb = 0;
                for (const int f : fb) total_fb += f;
                st.kernel_fallbacks += total_fb;
                st.batch_planned +=
                    static_cast<int>(cands.size()) - total_fb;
            } else {
                run_indexed(exec, cands.size(), [&](std::size_t k) {
                    s.round_plans[k] = solver.plan(t, cands[k].a, cands[k].b);
                });
            }
        }

        bool merged_any = false;
        for (std::size_t k = 0; k < cands.size(); ++k) {
            const cand& cd = cands[k];
            auto plan = pre_plans ? std::move(s.round_plans[k])
                                  : solver.plan(t, cd.a, cd.b);
            if (!plan.has_value()) {
                ban_pair(s, cd.a, cd.b);
                ++st.rejected_pairs;
                continue;
            }
            note_plan(*plan, cd.d, st);
            const topo::node_id c =
                solver.commit(t, cd.a, cd.b, std::move(*plan));
            idx.erase(cd.a);
            idx.erase(cd.b);
            idx.insert(c);
            merged_any = true;
        }
        if (merged_any) continue;

        // No mutual pair merged this round: force progress on the globally
        // nearest (possibly banned) pair.
        const auto [ba, bb] = forced_nearest_pair(t, idx);
        const double bd = t.node(ba).arc.distance(t.node(bb).arc);
        merge_plan p = solver.plan_forced(t, ba, bb);
        note_plan(p, bd, st);
        const topo::node_id c = solver.commit(t, ba, bb, std::move(p));
        idx.erase(ba);
        idx.erase(bb);
        idx.insert(c);
    }
    return idx.active().front();
}

}  // namespace

topo::node_id bottom_up_engine::reduce(topo::clock_tree& t,
                                       std::vector<topo::node_id> roots,
                                       engine_stats* stats,
                                       engine_scratch* scratch) const {
    assert(!roots.empty());
    engine_stats local;
    engine_stats& st = stats ? *stats : local;
    if (roots.size() == 1) return roots.front();
    std::unique_ptr<engine_scratch> own;  // fallback, built only if needed
    if (scratch == nullptr) {
        own = std::make_unique<engine_scratch>();
        scratch = own.get();
    }
    engine_scratch::impl& s = scratch->state();
    if (opt_.order == merge_order::multi_merge) {
        if (opt_.backend == nn_backend::linear)
            return reduce_multi_impl<nn_index>(solver_, opt_, t, roots, st, s);
        return reduce_multi_impl<grid_index>(solver_, opt_, t, roots, st, s);
    }
    if (opt_.backend == nn_backend::linear)
        return reduce_nearest_impl<nn_index>(solver_, opt_, t, roots, st, s);
    return reduce_nearest_impl<grid_index>(solver_, opt_, t, roots, st, s);
}

}  // namespace astclk::core
