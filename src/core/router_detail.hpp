#pragma once

/// \file router_detail.hpp
/// Internal plumbing shared by the routing strategies: leaf construction
/// (optionally collapsing all groups into one), the engine run with a
/// context-pooled scratch, embedding and bookkeeping.  Also declares the
/// four built-in strategy implementations the registry binds (each lives
/// in its router's .cpp).  Not part of the public API.
///
/// Note there is no timing here: `route()` (strategy.hpp) wraps every
/// strategy with the one wall-clock measurement, so direct and batched
/// calls report cpu_seconds identically.

#include "core/audit.hpp"
#include "core/route_context.hpp"
#include "core/shard.hpp"
#include "core/strategy.hpp"

namespace astclk::core::detail {

/// Create one leaf per listed sink, in the given order.  When
/// `collapse_groups` is set every leaf is booked under synthetic group 0,
/// which turns the associative problem into a conventional single-group
/// one (ZST / EXT-BST baselines).  The one leaf-construction primitive:
/// the monolithic path books every sink, the shard driver books one
/// shard's subset — both through this body, so leaf initialisation can
/// never diverge between the two paths.
inline std::vector<topo::node_id> make_leaves(
    const topo::instance& inst, topo::clock_tree& t,
    const std::vector<std::int32_t>& sinks, bool collapse_groups) {
    std::vector<topo::node_id> roots;
    roots.reserve(sinks.size());
    for (const std::int32_t i : sinks) {
        const topo::node_id id = t.add_leaf(inst, i);
        if (collapse_groups)
            t.node(id).delays = topo::group_delays::single(0);
        roots.push_back(id);
    }
    return roots;
}

/// Create one leaf per sink of the instance (ascending sink order).
inline std::vector<topo::node_id> make_leaves(const topo::instance& inst,
                                              topo::clock_tree& t,
                                              bool collapse_groups) {
    std::vector<std::int32_t> all(inst.sinks.size());
    for (std::size_t i = 0; i < all.size(); ++i)
        all[i] = static_cast<std::int32_t>(i);
    return make_leaves(inst, t, all, collapse_groups);
}

/// Fill in the result bookkeeping shared by every whole-tree strategy
/// tail: root, top-down embedding, tree ownership, wirelength.
inline void finalize_result(const topo::instance& inst, topo::clock_tree t,
                            topo::node_id root, route_result& res) {
    t.set_root(root);
#ifdef ASTCLK_AUDIT
    // Every whole-tree strategy tail funnels through here, so audit builds
    // structurally verify every finished tree before it is embedded.
    audit::checkpoint("finalize/tree",
                      audit::verify_tree_structure(t, inst.sinks.size()));
#endif
    res.embed = embed_tree(t, inst.source);
    res.tree = std::move(t);
    res.wirelength = res.tree.total_wirelength();
}

/// Reduce the given roots (borrowing a scratch from the context's pool),
/// embed, and fill in the result bookkeeping.
inline route_result finish_route(const topo::instance& inst,
                                 const merge_solver& solver,
                                 const engine_options& eopt,
                                 topo::clock_tree t,
                                 std::vector<topo::node_id> roots,
                                 routing_context& ctx) {
    route_result res;
    bottom_up_engine engine(solver, eopt);
    auto lease = ctx.scratch();
    const topo::node_id root =
        engine.reduce(t, std::move(roots), &res.stats, lease.get());
    finalize_result(inst, std::move(t), root, res);
    return res;
}

/// Sink-level route entry for the whole-die strategies: resolve the shard
/// knob and either run the monolithic path (leaves + one reduce — the
/// bit-identical default) or hand the instance to the sharded driver
/// (shard.hpp: partition → parallel sub-reduce → associative stitch).
inline route_result reduce_route(const topo::instance& inst,
                                 const merge_solver& solver,
                                 const engine_options& eopt,
                                 bool collapse_groups,
                                 routing_context& ctx) {
    const int k = effective_shard_count(eopt, solver, inst.sinks.size());
    if (k > 1) {
        route_result res =
            sharded_route(inst, solver, eopt, collapse_groups, k, ctx);
        res.resolved_shards = k;  // auto counts become reproducible inputs
        return res;
    }
    topo::clock_tree t;
    // n leaves and n - 1 merges: one allocation for the whole arena
    // instead of a doubling chain that copies every node ~once more.
    if (!inst.sinks.empty()) t.reserve_nodes(2 * inst.sinks.size() - 1);
    auto roots = make_leaves(inst, t, collapse_groups);
    route_result res = finish_route(inst, solver, eopt, std::move(t),
                                    std::move(roots), ctx);
    res.resolved_shards = 1;
    return res;
}

// The four built-in strategies (registered by strategy_registry's ctor).
route_result strategy_zst_dme(const routing_request&, routing_context&);
route_result strategy_ext_bst(const routing_request&, routing_context&);
route_result strategy_ast_dme(const routing_request&, routing_context&);
route_result strategy_separate_stitch(const routing_request&,
                                      routing_context&);

}  // namespace astclk::core::detail
