#include "core/audit.hpp"

#include "core/route_context.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <span>
#include <sstream>
#include <unordered_set>

namespace astclk::core::audit {

namespace {

std::atomic<std::uint64_t> g_checkpoints{0};

}  // namespace

std::uint64_t checkpoints_run() noexcept {
    return g_checkpoints.load(std::memory_order_relaxed);
}

void checkpoint(const char* site, const std::string& diagnostic) {
    g_checkpoints.fetch_add(1, std::memory_order_relaxed);
    if (!diagnostic.empty())
        throw violation(std::string("audit[") + site + "]: " + diagnostic);
}

std::string verify_tree_structure(const topo::clock_tree& t,
                                  std::size_t num_sinks) {
    const std::string base = t.check_structure(num_sinks);
    if (!base.empty()) return base;
    std::ostringstream err;
    if (t.source_edge() < 0.0) {
        err << "negative source edge " << t.source_edge();
        return err.str();
    }
    for (std::size_t i = 0; i < t.size(); ++i) {
        const topo::tree_node& n = t.node(static_cast<topo::node_id>(i));
        if (n.is_leaf() &&
            (n.left != topo::knull_node || n.right != topo::knull_node)) {
            err << "leaf " << i << " has children";
            return err.str();
        }
        if (n.edge_left < 0.0 || n.edge_right < 0.0) {
            err << "node " << i << " has a negative electrical edge ("
                << n.edge_left << ", " << n.edge_right << ")";
            return err.str();
        }
        if (n.subtree_cap < 0.0) {
            err << "node " << i << " has negative downstream capacitance "
                << n.subtree_cap;
            return err.str();
        }
    }
    return {};
}

/// Friend-of-grid_index accessor shim: the auditor reads the private
/// registration state (spans, cell slab, spilled-cell vectors, packed
/// arcs) without widening the class's public surface.
struct grid_inspector {
    /// Cell `c`'s occupant run: the inline ids, or a spilled cell's vector.
    static std::span<const topo::node_id> occupants(const grid_index& g,
                                                    std::size_t c) {
        return {g.cell_ids(c), g.slab_[c].n};
    }

    static std::string check(const grid_index& g, const topo::clock_tree& t) {
        std::ostringstream err;
        std::unordered_set<topo::node_id> live(g.active().begin(),
                                               g.active().end());
        if (live.size() != g.active().size()) return "duplicate active id";

        // Cell side first, so the occupant runs read below are sound: a
        // spilled cell's vector holds exactly its population, an ordinary
        // cell has no vector contents; every run holds only live ids, each
        // once and within its span.
        for (std::size_t c = 0; c < g.cells_.size(); ++c) {
            const int cu = static_cast<int>(c % static_cast<std::size_t>(g.nu_));
            const int cv = static_cast<int>(c / static_cast<std::size_t>(g.nu_));
            const grid_index::slab_cell& sc = g.slab_[c];
            const std::size_t vec = g.cells_[c].size();
            if (sc.n > grid_index::slab_cell::kinline ? vec != sc.n
                                                      : vec != 0) {
                err << "cell (" << cu << "," << cv << ") of population "
                    << sc.n << " has a cell vector of " << vec << " ids";
                return err.str();
            }
            std::unordered_set<topo::node_id> ids;
            for (const topo::node_id id : occupants(g, c)) {
                if (!ids.insert(id).second) {
                    err << "id " << id << " registered twice in cell (" << cu
                        << "," << cv << ")";
                    return err.str();
                }
                if (live.count(id) == 0) {
                    err << "cell (" << cu << "," << cv
                        << ") holds non-active id " << id;
                    return err.str();
                }
                if (static_cast<std::size_t>(id) >= g.span_.size()) {
                    err << "active id " << id << " has no registration record";
                    return err.str();
                }
                const grid_index::cell_range& sp =
                    g.span_[static_cast<std::size_t>(id)];
                if (cu < sp.u0 || cu > sp.u1 || cv < sp.v0 || cv > sp.v1) {
                    err << "id " << id << " found outside its span at cell ("
                        << cu << "," << cv << ")";
                    return err.str();
                }
            }
        }

        // Active side: span matches the node's current arc, registration
        // covers exactly the span, the packed-arc mirror is current.
        for (const topo::node_id id : g.active()) {
            const auto sid = static_cast<std::size_t>(id);
            if (sid >= g.span_.size() || sid >= g.arcs_.size()) {
                err << "active id " << id << " has no registration record";
                return err.str();
            }
            const geom::tilted_rect& arc = t.node(id).arc;
            const grid_index::cell_range want = g.range_of(arc);
            const grid_index::cell_range& have = g.span_[sid];
            if (want.u0 != have.u0 || want.u1 != have.u1 ||
                want.v0 != have.v0 || want.v1 != have.v1) {
                err << "id " << id << " registered span [" << have.u0 << ","
                    << have.u1 << "]x[" << have.v0 << "," << have.v1
                    << "] does not cover its arc's range [" << want.u0 << ","
                    << want.u1 << "]x[" << want.v0 << "," << want.v1 << "]";
                return err.str();
            }
            const packed_arc mirror = g.arcs_[sid];
            const packed_arc fresh = packed_arc::of(arc);
            if (mirror.u_lo != fresh.u_lo || mirror.u_hi != fresh.u_hi ||
                mirror.v_lo != fresh.v_lo || mirror.v_hi != fresh.v_hi) {
                err << "id " << id << " packed-arc mirror is stale";
                return err.str();
            }
            for (int cv = have.v0; cv <= have.v1; ++cv) {
                for (int cu = have.u0; cu <= have.u1; ++cu) {
                    const auto run = occupants(g, g.cell_at(cu, cv));
                    if (std::find(run.begin(), run.end(), id) == run.end()) {
                        err << "id " << id << " is missing from covered cell ("
                            << cu << "," << cv << ")";
                        return err.str();
                    }
                }
            }
        }
        return {};
    }

    static std::string check_nn_bounds(const grid_index& g,
                                       const std::vector<double>& nn_dist) {
        std::ostringstream err;
        if (g.nn_bound_.size() != g.slab_.size())
            return "NN-bound table does not match the cell count";
        for (std::size_t c = 0; c < g.slab_.size(); ++c) {
            for (const topo::node_id id : occupants(g, c)) {
                const auto sid = static_cast<std::size_t>(id);
                if (sid >= nn_dist.size()) {
                    err << "id " << id << " has no NN-distance record";
                    return err.str();
                }
                if (nn_dist[sid] > g.nn_bound_[c]) {
                    err << "cell " << c << " NN bound " << g.nn_bound_[c]
                        << " is below occupant " << id
                        << "'s NN distance " << nn_dist[sid];
                    return err.str();
                }
            }
        }
        return {};
    }
};

std::string verify_grid_nn_bounds(const grid_index& g,
                                  const std::vector<double>& nn_dist) {
    return grid_inspector::check_nn_bounds(g, nn_dist);
}

std::string verify_grid_vs_live_set(const grid_index& g,
                                    const topo::clock_tree& t) {
    return grid_inspector::check(g, t);
}

std::string verify_nn_exact(const grid_index& g,
                            const std::vector<topo::node_id>& nn_to,
                            const std::vector<double>& nn_dist,
                            const std::unordered_set<std::uint64_t>& bans) {
    const auto banned = [&bans](std::uint64_t k) {
        return bans.count(k) != 0;
    };
    std::ostringstream err;
    err.precision(17);
    for (const topo::node_id id : g.active()) {
        const auto sid = static_cast<std::size_t>(id);
        if (sid >= nn_to.size() || sid >= nn_dist.size()) {
            err << "live root " << id << " has no NN record";
            return err.str();
        }
        const auto want = g.nearest_if(id, banned);
        if (!want.has_value()) {
            if (nn_to[sid] != topo::knull_node) {
                err << "root " << id << " records NN " << nn_to[sid]
                    << " but every partner is banned";
                return err.str();
            }
            continue;
        }
        // Bitwise distance comparison: the shortcut and the seeded
        // queries must reproduce the query's exact double.
        if (nn_to[sid] != want->first ||
            std::bit_cast<std::uint64_t>(nn_dist[sid]) !=
                std::bit_cast<std::uint64_t>(want->second)) {
            err << "root " << id << " records NN " << nn_to[sid] << " at "
                << nn_dist[sid] << ", a fresh query finds " << want->first
                << " at " << want->second;
            return err.str();
        }
    }
    return {};
}

std::string verify_rev_lists(const std::vector<topo::node_id>& live,
                             const std::vector<topo::node_id>& nn_to,
                             const reverse_nn_lists& rev) {
    std::ostringstream err;
    const std::size_t ids = rev.head.size();
    if (rev.next.size() < ids || rev.prev.size() < ids || nn_to.size() < ids)
        return "reverse-list arrays shorter than the id range";
    std::vector<char> is_live(ids, 0);
    for (const topo::node_id id : live) {
        if (static_cast<std::size_t>(id) >= ids) {
            err << "live root " << id << " is outside the reverse-list range";
            return err.str();
        }
        is_live[static_cast<std::size_t>(id)] = 1;
    }
    // Walk every list; a member reached twice (a cycle, or two lists
    // sharing a tail) stops the walk, so it terminates on any corruption.
    std::vector<char> seen(ids, 0);
    for (std::size_t owner = 0; owner < ids; ++owner) {
        topo::node_id prev = topo::knull_node;
        for (topo::node_id i = rev.head[owner]; i != topo::knull_node;
             i = rev.next[static_cast<std::size_t>(i)]) {
            const auto si = static_cast<std::size_t>(i);
            if (si >= ids) {
                err << "list of " << owner << " links out-of-range id " << i;
                return err.str();
            }
            if (seen[si] != 0) {
                err << "root " << i << " reached twice (cycle or shared "
                    << "tail) on the list of " << owner;
                return err.str();
            }
            seen[si] = 1;
            if (is_live[owner] == 0) {
                err << "dead id " << owner << " still lists root " << i;
                return err.str();
            }
            if (is_live[si] == 0) {
                err << "list of " << owner << " holds non-live root " << i;
                return err.str();
            }
            if (nn_to[si] != static_cast<topo::node_id>(owner)) {
                err << "root " << i << " sits on the list of " << owner
                    << " but its NN is " << nn_to[si];
                return err.str();
            }
            if (rev.prev[si] != prev) {
                err << "root " << i << " has back link " << rev.prev[si]
                    << ", expected " << prev;
                return err.str();
            }
            prev = i;
        }
    }
    for (const topo::node_id id : live) {
        const auto si = static_cast<std::size_t>(id);
        if (nn_to[si] != topo::knull_node && seen[si] == 0) {
            err << "root " << id << " is missing from the list of its NN "
                << nn_to[si];
            return err.str();
        }
    }
    return {};
}

std::string verify_scratch_lease_balance(const routing_context& ctx) {
    const std::size_t pooled = ctx.pooled_scratch();
    const std::size_t allocated = ctx.allocated_scratch();
    if (pooled == allocated) return {};
    std::ostringstream err;
    err << "scratch-lease imbalance: " << allocated
        << " scratch buffers allocated but only " << pooled
        << " back in the pool (" << (allocated - pooled)
        << " leaked or still leased)";
    return err.str();
}

std::string verify_stats_books(const engine_stats& s) {
    std::ostringstream err;
    const auto bad = [&err](const char* name, long long v) {
        err << "negative counter " << name << " = " << v;
        return err.str();
    };
    if (s.merges < 0) return bad("merges", s.merges);
    if (s.disjoint_merges < 0) return bad("disjoint_merges", s.disjoint_merges);
    if (s.shared_merges < 0) return bad("shared_merges", s.shared_merges);
    if (s.multi_shared_merges < 0)
        return bad("multi_shared_merges", s.multi_shared_merges);
    if (s.root_snakes < 0) return bad("root_snakes", s.root_snakes);
    if (s.interior_snakes < 0) return bad("interior_snakes", s.interior_snakes);
    if (s.rejected_pairs < 0) return bad("rejected_pairs", s.rejected_pairs);
    if (s.forced_merges < 0) return bad("forced_merges", s.forced_merges);
    if (s.rounds < 0) return bad("rounds", s.rounds);
    if (s.batch_planned < 0) return bad("batch_planned", s.batch_planned);
    if (s.kernel_fallbacks < 0)
        return bad("kernel_fallbacks", s.kernel_fallbacks);
    if (s.shards < 0) return bad("shards", s.shards);
    if (s.merges != s.disjoint_merges + s.shared_merges) {
        err << "merge taxonomy does not sum: merges " << s.merges
            << " != disjoint " << s.disjoint_merges << " + shared "
            << s.shared_merges;
        return err.str();
    }
    if (s.multi_shared_merges > s.shared_merges) {
        err << "multi_shared_merges " << s.multi_shared_merges
            << " exceeds shared_merges " << s.shared_merges;
        return err.str();
    }
    if (s.worst_violation < 0.0) {
        err << "negative worst_violation " << s.worst_violation;
        return err.str();
    }
    if (s.worst_violation > 0.0 && s.forced_merges == 0) {
        err << "worst_violation " << s.worst_violation
            << " recorded without any forced merge";
        return err.str();
    }
    if (s.snake_wire < -1e-6) {
        err << "negative snake_wire " << s.snake_wire;
        return err.str();
    }
    return {};
}

}  // namespace astclk::core::audit
