#pragma once

/// \file replay.hpp
/// The traced replay: re-run one served request from outside the library,
/// through the layers' public functions, with a span around each call —
///
///   strategy.run
///     leaves.build            detail::make_leaves      (monolithic)
///     engine.reduce           bottom_up_engine::reduce (monolithic)
///     shard.partition         partition_sinks          (sharded)
///     shard.fanout            per-shard jobs over the service's pool:
///       shard.job               private tree per shard
///         leaves.build
///         engine.reduce
///     tree.absorb             clock_tree::absorb       (sharded)
///     stitch                  stitch_roots             (sharded)
///     embed                   embed_tree
///   eval                      eval::evaluate of the replayed tree
///   plan.replay               the accepted merge stream re-solved through
///                             the request's plan kernel (ledger-free only)
///
/// The replay mirrors the strategies' own bodies (strategy_ast_dme /
/// strategy_ext_bst -> reduce_route -> sharded_route) step for step, so it
/// must reproduce the served tree exactly: the same wirelength bit for
/// bit, the same merge count and the same resolved shard count.  A request
/// it does not reproduce is reported unattributed by the caller instead of
/// having its time split over layers.

#include "core/offset_ledger.hpp"
#include "core/plan_kernels.hpp"
#include "core/router_detail.hpp"
#include "core/shard.hpp"
#include "core/stitch.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include <algorithm>
#include <memory>
#include <optional>

namespace perfbench {

struct replay_outcome {
    bool reproduced = false;
    std::string why;  ///< mismatch description when not reproduced
    int shards = 1;
    core::engine_stats stats;
    // Wall seconds of the strategy's top-level phases (children of
    // strategy.run); their sum is what the replay attributes.
    double leaves_s = 0.0;     ///< monolithic leaves + every shard's (busy)
    double partition_s = 0.0;
    double reduce_s = 0.0;     ///< monolithic reduce, or the shard fan-out
    /// Reduce work summed over threads: the monolithic reduce, or every
    /// shard's reduce plus the stitch (the base plan replay compares to).
    double reduce_busy_s = 0.0;
    double absorb_s = 0.0;
    double stitch_s = 0.0;
    double embed_s = 0.0;
    double attributed_s = 0.0;
    double eval_s = 0.0;
    std::vector<double> shard_reduce_s;  ///< per-shard reduce (sharded)
    // Plan replay (ledger-free requests only).
    bool plan_replayed = false;
    bool plan_match = false;  ///< replayed stream rebuilt the same tree
    double plan_s = 0.0;      ///< time inside the plan solves
    long plan_solves = 0;
    long plan_fallbacks = 0;  ///< lanes the batch kernel sent to scalar
};

/// The solver the served strategy built for this request, plus the ledger
/// it points to (kept alive alongside).
struct replay_solver {
    std::unique_ptr<core::offset_ledger> ledger;
    std::optional<core::merge_solver> solver;
    bool collapse_groups = false;
};

inline bool all_zero(const core::skew_spec& spec) {
    return spec.default_bound == 0.0 &&
           std::all_of(spec.overrides.begin(), spec.overrides.end(),
                       [](const auto& o) { return o.second == 0.0; });
}

inline replay_solver make_solver(const bench_request& br) {
    const core::routing_request& req = br.req;
    replay_solver rs;
    switch (req.strategy) {
        case core::strategy_id::ext_bst:
            rs.solver.emplace(req.options.model, core::skew_spec::uniform(
                                                     req.spec.default_bound));
            rs.collapse_groups = true;
            return rs;
        case core::strategy_id::ast_dme: break;
        default:
            throw std::invalid_argument("replay: unsupported strategy");
    }
    core::consistency_mode mode = core::consistency_mode::windowed;
    switch (req.mode) {
        case core::ast_mode::windowed: break;
        case core::ast_mode::soft_ledger:
            mode = core::consistency_mode::soft;
            break;
        case core::ast_mode::exact_ledger:
        case core::ast_mode::automatic:
            mode = all_zero(req.spec) ? core::consistency_mode::exact
                                      : core::consistency_mode::soft;
            break;
    }
    if (mode != core::consistency_mode::windowed)
        rs.ledger = std::make_unique<core::offset_ledger>(br.inst->num_groups);
    rs.solver.emplace(req.options.model, req.spec, rs.ledger.get(), mode);
    rs.solver->set_bind_deferral_bias(req.options.bind_deferral_bias);
    return rs;
}

/// Re-solve the served tree's merge stream (internal nodes in creation
/// order, which is the commit order) through the request's kernel into a
/// fresh arena with the same node ids, timing only the solves.  Ledger-free
/// plans read only the two subtrees, so the stream rebuilds the same tree.
inline void replay_plans(const bench_request& br, const replay_solver& rs,
                         const topo::clock_tree& served, double served_wl,
                         replay_outcome& out) {
    const core::merge_solver& solver = *rs.solver;
    const bool batch =
        br.req.options.engine.kernel == core::plan_kernel::batch;
    topo::clock_tree t;
    t.reserve_nodes(served.size());
    bool same_ids = true;
    double solve_s = 0.0;
    for (std::size_t i = 0; i < served.size() && same_ids; ++i) {
        const topo::tree_node& sn = served.node(static_cast<topo::node_id>(i));
        topo::node_id id;
        if (sn.is_leaf()) {
            id = t.add_leaf(*br.inst, sn.sink_index);
            if (rs.collapse_groups)
                t.node(id).delays = topo::group_delays::single(0);
        } else {
            const std::pair<topo::node_id, topo::node_id> pr{sn.left,
                                                             sn.right};
            std::optional<core::merge_plan> plan;
            const auto t0 = clock_type::now();
            if (batch)
                out.plan_fallbacks +=
                    core::solve_plan_batch(solver, t, &pr, 1, &plan);
            else
                plan = solver.plan(t, pr.first, pr.second);
            if (!plan) plan = solver.plan_forced(t, pr.first, pr.second);
            solve_s += seconds_between(t0, clock_type::now());
            ++out.plan_solves;
            id = solver.commit(t, pr.first, pr.second, *plan);
        }
        same_ids = id == static_cast<topo::node_id>(i);
    }
    out.plan_replayed = true;
    out.plan_s = solve_s;
    t.set_source_edge(served.source_edge());
    out.plan_match = same_ids && t.total_wirelength() == served_wl;
}

/// Replay one served request (see the file comment).  `exec` is the
/// executor the served run carried (the service's pool); `ctx` lends the
/// scratch buffers; spans go to `tr` under request id `rid`.
inline replay_outcome replay_request(const bench_request& br,
                                     const core::route_result& served,
                                     core::task_executor* exec,
                                     core::routing_context& ctx, tracer& tr,
                                     long rid) {
    using core::bottom_up_engine;
    replay_outcome out;
    const topo::instance& inst = *br.inst;
    core::engine_options eopt = br.req.options.engine;
    eopt.executor = exec;

    const int root_span = tr.open("strategy.run", -1, rid);
    const replay_solver rs = make_solver(br);
    const core::merge_solver& solver = *rs.solver;
    const int k = core::effective_shard_count(eopt, solver, inst.sinks.size());
    out.shards = k;
    topo::clock_tree t;
    topo::node_id root = topo::knull_node;
    if (k <= 1) {
        int s = tr.open("leaves.build", root_span, rid);
        auto leaves = core::detail::make_leaves(inst, t, rs.collapse_groups);
        out.leaves_s = tr.finish(s);
        s = tr.open("engine.reduce", root_span, rid);
        {
            const bottom_up_engine engine(solver, eopt);
            auto lease = ctx.scratch();
            root = engine.reduce(t, std::move(leaves), &out.stats, lease.get());
        }
        out.reduce_s = tr.finish(s);
        out.reduce_busy_s = out.reduce_s;
        out.attributed_s = out.leaves_s + out.reduce_s;
    } else {
        int s = tr.open("shard.partition", root_span, rid);
        const core::shard_partition parts = core::partition_sinks(inst, k);
        out.partition_s = tr.finish(s);

        // sharded_route's per-shard configuration: sequential private
        // reduces, no re-sharding, no speculation.
        core::engine_options sopt = eopt;
        sopt.executor = nullptr;
        sopt.shards = 1;
        sopt.speculate_k = 0;
        const bottom_up_engine shard_engine(solver, sopt);
        struct shard_run {
            topo::clock_tree tree;
            topo::node_id root = topo::knull_node;
            core::engine_stats stats;
            clock_type::time_point t0, t1, t2;
        };
        std::vector<shard_run> runs(parts.size());
        const int fan = tr.open("shard.fanout", root_span, rid);
        core::run_indexed(eopt.executor, parts.size(), [&](std::size_t i) {
            shard_run& run = runs[i];
            run.t0 = clock_type::now();
            auto lease = ctx.scratch();
            auto leaves = core::detail::make_leaves(inst, run.tree, parts[i],
                                                    rs.collapse_groups);
            run.t1 = clock_type::now();
            run.root = shard_engine.reduce(run.tree, std::move(leaves),
                                           &run.stats, lease.get());
            run.t2 = clock_type::now();
        });
        out.reduce_s = tr.finish(fan);
        for (const shard_run& run : runs) {
            const int job = tr.add("shard.job", run.t0, run.t2, fan, rid);
            tr.add("leaves.build", run.t0, run.t1, job, rid);
            tr.add("engine.reduce", run.t1, run.t2, job, rid);
            out.leaves_s += seconds_between(run.t0, run.t1);
            out.shard_reduce_s.push_back(seconds_between(run.t1, run.t2));
            out.stats.accumulate(run.stats);
        }
        out.stats.shards = static_cast<int>(parts.size());

        s = tr.open("tree.absorb", root_span, rid);
        std::vector<topo::node_id> roots;
        roots.reserve(runs.size());
        std::size_t total_nodes = runs.size() - 1;
        for (const shard_run& run : runs) total_nodes += run.tree.size();
        t.reserve_nodes(total_nodes);
        for (const shard_run& run : runs)
            roots.push_back(t.absorb(run.tree) + run.root);
        out.absorb_s = tr.finish(s);

        s = tr.open("stitch", root_span, rid);
        {
            auto lease = ctx.scratch();
            root = core::stitch_roots(solver, eopt, t, std::move(roots),
                                      &out.stats, lease.get());
        }
        out.stitch_s = tr.finish(s);
        for (const double x : out.shard_reduce_s) out.reduce_busy_s += x;
        out.reduce_busy_s += out.stitch_s;
        out.attributed_s = out.partition_s + out.reduce_s + out.absorb_s +
                           out.stitch_s;
    }
    int s = tr.open("embed", root_span, rid);
    t.set_root(root);
    core::embed_tree(t, inst.source);
    const double wl = t.total_wirelength();
    out.embed_s = tr.finish(s);
    out.attributed_s += out.embed_s;
    tr.finish(root_span);

    s = tr.open("eval", -1, rid);
    const eval::eval_result ev = eval::evaluate(t, inst, br.req.options.model);
    out.eval_s = tr.finish(s);

    const int served_shards = std::max(served.resolved_shards, 1);
    if (wl != served.wirelength)
        out.why = "wirelength " + std::to_string(wl) + " vs served " +
                  std::to_string(served.wirelength);
    else if (out.stats.merges != served.stats.merges)
        out.why = "merges " + std::to_string(out.stats.merges) +
                  " vs served " + std::to_string(served.stats.merges);
    else if (k != served_shards)
        out.why = "shards " + std::to_string(k) + " vs served " +
                  std::to_string(served_shards);
    else if (!(ev.total_wirelength > 0.0))
        out.why = "replayed tree evaluates to no wire";
    out.reproduced = out.why.empty();

    if (solver.ledger() == nullptr) {
        s = tr.open("plan.replay", -1, rid);
        replay_plans(br, rs, served.tree, served.wirelength, out);
        tr.finish(s);
    }
    return out;
}

}  // namespace perfbench
