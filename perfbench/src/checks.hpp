#pragma once

/// \file checks.hpp
/// The benchmark's verdict on one served result, from the independent
/// evaluator (eval::evaluate) and nothing the engine reports about itself
/// except what is being checked against it.
///
/// Failures (the result counts as failed):
///   * status      — no usable tree (status other than ok/degraded);
///   * structure   — clock_tree::check_structure: single root, coherent
///                   parents, every sink exactly once (sink coverage);
///   * wirelength  — evaluated wirelength differs from the reported one
///                   by more than 1e-9 relative;
///   * cap         — engine subtree caps differ from the recomputed ones by
///                   more than 1e-9 of the root cap (max_cap_error ~ 0).
/// Quality (recorded, not a failure — the seed has known violations):
///   * bound       — evaluated skew (intra-group for AST-DME, global for
///                   EXT-BST) exceeds the request's bound by more than
///                   1e-3 ps, the tolerance tests/test_routers.cpp uses.
///
/// self_test() seeds one bad result per check and confirms each fires.

#include "eval/elmore_eval.hpp"
#include "rc/wire.hpp"
#include "workloads.hpp"

#include <cmath>
#include <iostream>
#include <string>

namespace perfbench {

inline constexpr double kskew_tolerance_ps = 1e-3;
inline constexpr double kwirelength_rel_tolerance = 1e-9;
inline constexpr double kcap_rel_tolerance = 1e-9;

struct verdict {
    std::string failure;  ///< "status", "structure", ... or empty when ok
    std::string detail;
    double skew_ps = 0.0;
    double bound_ps = 0.0;
    bool violating = false;  ///< bound check fired
    [[nodiscard]] bool failed() const { return !failure.empty(); }
    [[nodiscard]] double excess_ps() const {
        return std::max(0.0, skew_ps - bound_ps);
    }
};

inline verdict check_result(const bench_request& br,
                            const core::route_result& res) {
    verdict v;
    v.bound_ps = rc::to_ps(br.bound);
    if (!res.usable()) {
        v.failure = "status";
        v.detail = std::string(core::to_string(res.status)) + ": " +
                   res.status_message;
        return v;
    }
    const topo::instance& inst = *br.inst;
    if (res.tree.root() == topo::knull_node) {
        v.failure = "structure";
        v.detail = "no root";
        return v;
    }
    const std::string s = res.tree.check_structure(inst.sinks.size());
    if (!s.empty()) {
        v.failure = "structure";
        v.detail = s;
        return v;
    }
    const eval::eval_result ev =
        eval::evaluate(res.tree, inst, br.req.options.model);
    if (!(std::fabs(ev.total_wirelength - res.wirelength) <=
          kwirelength_rel_tolerance * std::fabs(ev.total_wirelength))) {
        v.failure = "wirelength";
        v.detail = "evaluated " + std::to_string(ev.total_wirelength) +
                   " vs reported " + std::to_string(res.wirelength);
        return v;
    }
    const double cap_scale =
        ev.node_cap[static_cast<std::size_t>(res.tree.root())];
    if (!(ev.max_cap_error <= kcap_rel_tolerance * cap_scale)) {
        v.failure = "cap";
        v.detail = "max_cap_error " + std::to_string(ev.max_cap_error) + " F";
        return v;
    }
    v.skew_ps = rc::to_ps(br.global_skew ? ev.global_skew
                                         : ev.max_intra_group_skew);
    v.violating = !(v.skew_ps <= v.bound_ps + kskew_tolerance_ps);
    return v;
}

/// Seed one bad result per check into a good route of r1 and confirm that
/// exactly the intended check fires (and that the unmodified result
/// passes).  Returns the number of checks that misbehaved; prints each.
inline int self_test(std::ostream& log) {
    const topo::instance inst = gen::generate(gen::paper_spec("r1"));
    bench_request br;
    br.label = "self-test/r1/ext_bst";
    br.inst = &inst;
    br.req.instance = &inst;
    br.req.strategy = core::strategy_id::ext_bst;
    br.req.spec = core::skew_spec::uniform(kbound_10ps);
    br.bound = kbound_10ps;
    br.global_skew = true;
    const core::route_result good = core::route(br.req);

    int bad = 0;
    const auto expect = [&](const char* name, const core::route_result& r,
                            const std::string& failure, bool violating) {
        const verdict v = check_result(br, r);
        const bool pass = v.failure == failure && v.violating == violating;
        if (!pass) {
            ++bad;
            log << "self-test " << name << ": expected failure '" << failure
                << "' violating=" << violating << ", got '" << v.failure
                << "' violating=" << v.violating << " (" << v.detail
                << ")\n";
        }
    };
    expect("clean", good, "", false);

    core::route_result r = good;
    r.status = core::route_status::error;
    expect("status", r, "status", false);

    r = good;  // drop a sink: its leaf now claims a sibling's sink
    for (std::size_t i = 0; i < r.tree.size(); ++i) {
        auto& n = r.tree.node(static_cast<topo::node_id>(i));
        if (n.is_leaf() && n.sink_index != 0) {
            n.sink_index = 0;
            break;
        }
    }
    expect("dropped-sink", r, "structure", false);

    r = good;
    r.wirelength *= 1.0 + 1e-6;
    expect("wirelength", r, "wirelength", false);

    r = good;
    r.tree.node(r.tree.root()).subtree_cap *= 1.001;
    expect("cap", r, "cap", false);

    // Bound: lengthen one leaf edge by 2000 units (a delay shift far past
    // the 10 ps bound) and rebuild the wirelength and cap books to match,
    // so only the skew check can notice.
    r = good;
    for (std::size_t i = 0; i < r.tree.size(); ++i) {
        auto& n = r.tree.node(static_cast<topo::node_id>(i));
        if (!n.is_leaf() && r.tree.node(n.left).is_leaf()) {
            n.edge_left += 2000.0;
            break;
        }
    }
    const eval::eval_result ev =
        eval::evaluate(r.tree, inst, br.req.options.model);
    for (std::size_t i = 0; i < r.tree.size(); ++i)
        r.tree.node(static_cast<topo::node_id>(i)).subtree_cap =
            ev.node_cap[i];
    r.wirelength = ev.total_wirelength;
    expect("bound", r, "", true);
    return bad;
}

}  // namespace perfbench
