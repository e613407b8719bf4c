#include "core/router.hpp"
#include "core/router_detail.hpp"

#include <algorithm>

namespace astclk::core {

namespace {

/// One full bottom-up + top-down route under the given consistency mode.
route_result run_once(const topo::instance& inst, const skew_spec& spec,
                      const router_options& opt, consistency_mode mode,
                      routing_context& ctx) {
    offset_ledger ledger(inst.num_groups);
    merge_solver solver(opt.model, spec,
                        mode == consistency_mode::windowed ? nullptr : &ledger,
                        mode);
    solver.set_bind_deferral_bias(opt.bind_deferral_bias);
    // reduce_route resolves the shard knob: the windowed (ledger-free)
    // solver may take the sharded path, the ledger modes always reduce
    // monolithically (effective_shard_count).
    return detail::reduce_route(inst, solver, opt.engine,
                                /*collapse_groups=*/false, ctx);
}

/// True when every bound of the spec is exactly zero (the exact ledger's
/// domain).
bool all_zero(const skew_spec& spec) {
    return spec.default_bound == 0.0 &&
           std::all_of(spec.overrides.begin(), spec.overrides.end(),
                       [](const auto& o) { return o.second == 0.0; });
}

}  // namespace

namespace detail {

route_result strategy_ast_dme(const routing_request& req,
                              routing_context& ctx) {
    const topo::instance& inst = *req.instance;
    const skew_spec& spec = req.spec;
    const router_options& opt = req.options;
    switch (req.mode) {
        case ast_mode::windowed:
            return run_once(inst, spec, opt, consistency_mode::windowed, ctx);
        case ast_mode::soft_ledger:
            return run_once(inst, spec, opt, consistency_mode::soft, ctx);
        case ast_mode::exact_ledger:
            if (!all_zero(spec))  // exact mode needs degenerate intervals
                return run_once(inst, spec, opt, consistency_mode::soft, ctx);
            return run_once(inst, spec, opt, consistency_mode::exact, ctx);
        case ast_mode::automatic:
            break;
    }

    // Automatic: exact ledger for all-zero specs (guaranteed constraints,
    // stable wirelength — DESIGN.md §5 compares the strategies), soft
    // ledger for bounded specs (the exact ledger needs degenerate delay
    // intervals).
    if (all_zero(spec))
        return run_once(inst, spec, opt, consistency_mode::exact, ctx);
    return run_once(inst, spec, opt, consistency_mode::soft, ctx);
}

}  // namespace detail

route_result route_ast_dme(const topo::instance& inst, const skew_spec& spec,
                           const router_options& opt, ast_mode mode) {
    routing_request req;
    req.instance = &inst;
    req.spec = spec;
    req.options = opt;
    req.strategy = strategy_id::ast_dme;
    req.mode = mode;
    return route(req);
}

}  // namespace astclk::core
