// Batch plan-kernel identity tests (DESIGN.md §11): the SoA batch layer
// (plan_kernels.hpp) must be a pure *throughput* change — trees and every
// pre-existing engine statistic bit-identical to the scalar kernel, with
// only wall-clock and the kernel counters (batch_planned,
// kernel_fallbacks) allowed to move.  Covered here:
//
//  * full identity matrix on r1–r3: batch vs scalar at the *same*
//    configuration for both NN backends x threads {1, 2, hw} x
//    shards {1, 4} — trees and stats compared field by field;
//  * a reduced slice of the same identity on r4–r5 (the large paper
//    instances) so the contract is exercised at scale without blowing
//    up suite runtime;
//  * multi-merge round planning: the batch dispatch inside the round
//    fan-out is bit-identical too;
//  * lane remainders: solve_plan_batch over the accepted merge stream of
//    a real reduce, replayed at every batch size 1..9 (full chunks,
//    partial chunks, chunk-of-one) against per-pair scalar plan() —
//    every plan field compared bitwise;
//  * fallback accounting: a windowed ledger-free solver takes the fast
//    path (zero fallbacks on the accepted stream), a ledger-backed
//    solver bounces every lane, and the scalar kernel books nothing;
//  * ledger-backed routes: the batch *plan* dispatch is gated off
//    entirely (every lane would bounce), so the plan counters stay zero
//    and the soft-ledger tree matches the scalar kernel run; since the
//    kernel then changes nothing, the ledger modes (automatic, soft and
//    exact, at zero and at 10 ps skew, r1–r3 clustered and intermingled)
//    instead pin the grid NN backend to the linear seed oracle.

#include "core/plan_kernels.hpp"
#include "core/route_service.hpp"
#include "core/router_detail.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace astclk::core {
namespace {

topo::instance paper_instance(const char* name, int groups) {
    gen::instance_spec spec = gen::paper_spec(name);
    auto inst = gen::generate(spec);
    if (groups > 1)
        gen::apply_intermingled_groups(inst, groups, spec.seed + 1);
    return inst;
}

routing_request kernel_request(const topo::instance& inst, plan_kernel k,
                              nn_backend be, int shards) {
    routing_request r;
    r.instance = &inst;
    r.strategy = strategy_id::ast_dme;
    r.mode = ast_mode::windowed;
    r.options.engine.kernel = k;
    r.options.engine.backend = be;
    r.options.engine.shards = shards;
    return r;
}

/// Trees and every pre-existing statistic equal; the kernel counters are
/// deliberately *not* compared (they describe how plans were solved).
void expect_identical(const route_result& got, const route_result& ref,
                      const std::string& what) {
    ASSERT_TRUE(got.ok()) << what << ": " << got.status_message;
    ASSERT_TRUE(ref.ok()) << what << ": " << ref.status_message;
    EXPECT_EQ(got.wirelength, ref.wirelength) << what;
    const engine_stats& g = got.stats;
    const engine_stats& r = ref.stats;
    EXPECT_EQ(g.merges, r.merges) << what;
    EXPECT_EQ(g.disjoint_merges, r.disjoint_merges) << what;
    EXPECT_EQ(g.shared_merges, r.shared_merges) << what;
    EXPECT_EQ(g.multi_shared_merges, r.multi_shared_merges) << what;
    EXPECT_EQ(g.root_snakes, r.root_snakes) << what;
    EXPECT_EQ(g.interior_snakes, r.interior_snakes) << what;
    EXPECT_EQ(g.snake_wire, r.snake_wire) << what;
    EXPECT_EQ(g.rejected_pairs, r.rejected_pairs) << what;
    EXPECT_EQ(g.forced_merges, r.forced_merges) << what;
    EXPECT_EQ(g.worst_violation, r.worst_violation) << what;
    EXPECT_EQ(g.rounds, r.rounds) << what;
    EXPECT_EQ(g.shards, r.shards) << what;
    ASSERT_EQ(got.tree.size(), ref.tree.size()) << what;
    for (std::size_t i = 0; i < got.tree.size(); ++i) {
        const auto& gn = got.tree.node(static_cast<topo::node_id>(i));
        const auto& rn = ref.tree.node(static_cast<topo::node_id>(i));
        ASSERT_EQ(gn.left, rn.left) << what << " node " << i;
        ASSERT_EQ(gn.right, rn.right) << what << " node " << i;
        ASSERT_EQ(gn.arc, rn.arc) << what << " node " << i;
        ASSERT_EQ(gn.edge_left, rn.edge_left) << what << " node " << i;
        ASSERT_EQ(gn.edge_right, rn.edge_right) << what << " node " << i;
        ASSERT_EQ(gn.delays, rn.delays) << what << " node " << i;
    }
}

route_result run_with_threads(const routing_request& req, int threads) {
    if (threads == 1) return route(req);
    service_options sopt;
    sopt.threads = threads;
    route_service svc(sopt);
    return svc.route_batch({req})[0];
}

// --------------------------------------------------------- identity matrix

TEST(PlanKernels, BatchBitIdenticalAcrossFullMatrix) {
    const int hw =
        static_cast<int>(std::max(2u, std::thread::hardware_concurrency()));
    for (const char* name : {"r1", "r2", "r3"}) {
        const auto inst = paper_instance(name, 6);
        for (const nn_backend be : {nn_backend::grid, nn_backend::linear}) {
            for (const int shards : {1, 4}) {
                for (const int threads : {1, 2, hw}) {
                    const auto ref = run_with_threads(
                        kernel_request(inst, plan_kernel::scalar, be, shards),
                        threads);
                    const auto got = run_with_threads(
                        kernel_request(inst, plan_kernel::batch, be, shards),
                        threads);
                    expect_identical(
                        got, ref,
                        std::string(name) +
                            (be == nn_backend::grid ? " grid" : " linear") +
                            " shards=" + std::to_string(shards) +
                            " threads=" + std::to_string(threads));
                }
            }
        }
    }
}

TEST(PlanKernels, BatchBitIdenticalOnLargeInstancesSlice) {
    // r4/r5 at one representative parallel configuration each: the
    // contract at scale without the full matrix's runtime.
    for (const char* name : {"r4", "r5"}) {
        const auto inst = paper_instance(name, 8);
        const auto ref = run_with_threads(
            kernel_request(inst, plan_kernel::scalar, nn_backend::grid, 4),
            2);
        const auto got = run_with_threads(
            kernel_request(inst, plan_kernel::batch, nn_backend::grid, 4),
            2);
        expect_identical(got, ref, std::string(name) + " slice");
    }
}

TEST(PlanKernels, MultiMergeRoundPlanningBitIdentical) {
    const auto inst = paper_instance("r2", 6);
    for (const int threads : {1, 2}) {
        auto scalar_req = kernel_request(inst, plan_kernel::scalar,
                                         nn_backend::grid, 1);
        scalar_req.options.engine.order = merge_order::multi_merge;
        auto batch_req = scalar_req;
        batch_req.options.engine.kernel = plan_kernel::batch;
        const auto ref = run_with_threads(scalar_req, threads);
        const auto got = run_with_threads(batch_req, threads);
        expect_identical(got, ref,
                         "multi-merge threads=" + std::to_string(threads));
        // The round fan-out really went through the batch dispatch.
        EXPECT_GT(got.stats.batch_planned, 0);
        EXPECT_EQ(ref.stats.batch_planned, 0);
    }
}

// ---------------------------------------------------------- lane remainders

/// The accepted merge stream of a full reduce: internal nodes in creation
/// order.  Replaying plan() on the final tree reproduces every accepted
/// solve exactly (subtrees are immutable once merged), which makes the
/// stream a deterministic workload for the batch solver.
struct plan_stream {
    topo::clock_tree tree;
    std::vector<std::pair<topo::node_id, topo::node_id>> pairs;
};

plan_stream make_plan_stream(const topo::instance& inst,
                             const merge_solver& solver) {
    plan_stream ps;
    engine_options eopt;
    eopt.backend = nn_backend::grid;
    const bottom_up_engine engine(solver, eopt);
    auto roots = detail::make_leaves(inst, ps.tree, false);
    const std::size_t leaves = ps.tree.size();
    engine.reduce(ps.tree, std::move(roots), nullptr);
    for (std::size_t i = leaves; i < ps.tree.size(); ++i) {
        const auto& nd = ps.tree.node(static_cast<topo::node_id>(i));
        ps.pairs.emplace_back(nd.left, nd.right);
    }
    return ps;
}

void expect_same_plan(const std::optional<merge_plan>& got,
                      const std::optional<merge_plan>& ref,
                      const std::string& what) {
    ASSERT_EQ(got.has_value(), ref.has_value()) << what;
    if (!got.has_value()) return;
    EXPECT_EQ(got->alpha, ref->alpha) << what;
    EXPECT_EQ(got->beta, ref->beta) << what;
    EXPECT_EQ(got->arc, ref->arc) << what;
    EXPECT_EQ(got->cost, ref->cost) << what;
    EXPECT_EQ(got->order_cost, ref->order_cost) << what;
    EXPECT_EQ(got->new_cap, ref->new_cap) << what;
    EXPECT_EQ(got->delays, ref->delays) << what;
    EXPECT_EQ(got->shared_groups, ref->shared_groups) << what;
    EXPECT_EQ(got->violation, ref->violation) << what;
    ASSERT_EQ(got->snakes.size(), ref->snakes.size()) << what;
    for (std::size_t i = 0; i < got->snakes.size(); ++i) {
        EXPECT_EQ(got->snakes[i].side_root, ref->snakes[i].side_root)
            << what;
        EXPECT_EQ(got->snakes[i].child, ref->snakes[i].child) << what;
        EXPECT_EQ(got->snakes[i].gamma, ref->snakes[i].gamma) << what;
        EXPECT_EQ(got->snakes[i].delay_shift, ref->snakes[i].delay_shift)
            << what;
    }
}

TEST(PlanKernels, EveryBatchSizeBitIdenticalToScalarSolves) {
    gen::instance_spec spec = gen::paper_spec("r1");
    auto inst = gen::generate(spec);
    gen::apply_intermingled_groups(inst, 6, spec.seed + 1);
    const merge_solver solver(rc::delay_model::elmore(),
                              skew_spec::uniform(2.0));
    const plan_stream ps = make_plan_stream(inst, solver);
    ASSERT_GT(ps.pairs.size(), 32u);  // several full chunks available

    // Scalar reference: one per-pair plan() per accepted merge.
    std::vector<std::optional<merge_plan>> ref(ps.pairs.size());
    for (std::size_t i = 0; i < ps.pairs.size(); ++i)
        ref[i] = solver.plan(ps.tree, ps.pairs[i].first, ps.pairs[i].second);

    // Replay the same stream through the batch solver at every batch size
    // 1..9: covers chunk-of-one (the engine's solve_one shape), partial
    // chunks, exact lane multiples, and one-past-a-lane remainders.
    for (std::size_t bs = 1; bs <= 9; ++bs) {
        std::vector<std::optional<merge_plan>> got(ps.pairs.size());
        int fallbacks = 0;
        for (std::size_t base = 0; base < ps.pairs.size(); base += bs) {
            const std::size_t n = std::min(bs, ps.pairs.size() - base);
            fallbacks += solve_plan_batch(solver, ps.tree,
                                          ps.pairs.data() + base, n,
                                          got.data() + base);
        }
        for (std::size_t i = 0; i < ps.pairs.size(); ++i)
            expect_same_plan(got[i], ref[i],
                             "bs=" + std::to_string(bs) +
                                 " pair=" + std::to_string(i));
        // The accepted stream of a windowed ledger-free reduce is all
        // fast-path work: every accepted merge had a non-empty first
        // window, so no lane bounces regardless of grouping.
        EXPECT_EQ(fallbacks, 0) << "bs=" << bs;
    }
}

// ------------------------------------------------------ fallback accounting

TEST(PlanKernels, LedgerBackedSolverBouncesEveryLane) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = 64;
    auto inst = gen::generate(spec);
    gen::apply_intermingled_groups(inst, 4, spec.seed + 1);
    const merge_solver windowed(rc::delay_model::elmore(),
                                skew_spec::uniform(2.0));
    const plan_stream ps = make_plan_stream(inst, windowed);

    offset_ledger ledger(4);
    const merge_solver ledgered(rc::delay_model::elmore(),
                                skew_spec::uniform(2.0), &ledger,
                                consistency_mode::exact);
    std::vector<std::optional<merge_plan>> out(ps.pairs.size());
    const int fb = solve_plan_batch(ledgered, ps.tree, ps.pairs.data(),
                                    ps.pairs.size(), out.data());
    // Non-windowed solver modes are general-path lanes by contract: the
    // batch solver must bounce all of them to scalar plan() verbatim.
    EXPECT_EQ(fb, static_cast<int>(ps.pairs.size()));
    for (std::size_t i = 0; i < ps.pairs.size(); ++i)
        expect_same_plan(out[i],
                         ledgered.plan(ps.tree, ps.pairs[i].first,
                                       ps.pairs[i].second),
                         "ledgered pair=" + std::to_string(i));
}

TEST(PlanKernels, KernelCountersBookWhoSolvedWhat) {
    const auto inst = paper_instance("r1", 6);
    // Scalar kernel: no batch dispatch anywhere, so both counters stay
    // zero.
    const auto scalar = route(kernel_request(
        inst, plan_kernel::scalar, nn_backend::grid, 1));
    ASSERT_TRUE(scalar.ok());
    EXPECT_EQ(scalar.stats.batch_planned, 0);
    EXPECT_EQ(scalar.stats.kernel_fallbacks, 0);

    // Batch kernel on the grid backend: the fast path solves plans.
    const auto batch = route(kernel_request(
        inst, plan_kernel::batch, nn_backend::grid, 1));
    ASSERT_TRUE(batch.ok());
    EXPECT_GT(batch.stats.batch_planned, 0);
    // Every accepted merge was solved by exactly one of the two paths.
    EXPECT_GE(batch.stats.batch_planned + batch.stats.kernel_fallbacks,
              batch.stats.merges);

    // The plan kernel does not depend on the NN backend.
    const auto linear = route(kernel_request(
        inst, plan_kernel::batch, nn_backend::linear, 1));
    ASSERT_TRUE(linear.ok());
    EXPECT_GT(linear.stats.batch_planned, 0);
}

// ------------------------------------------------------------- soft ledger

TEST(PlanKernels, SoftLedgerRouteGatesBatchOffAndStaysIdentical) {
    const auto inst = paper_instance("r2", 6);
    auto scalar_req = kernel_request(inst, plan_kernel::scalar,
                                     nn_backend::grid, 1);
    scalar_req.mode = ast_mode::soft_ledger;
    auto batch_req = scalar_req;
    batch_req.options.engine.kernel = plan_kernel::batch;
    const auto ref = route(scalar_req);
    const auto got = route(batch_req);
    expect_identical(got, ref, "soft ledger");
    // Ledger-backed planning gates the batch plan dispatch off entirely:
    // no lane would qualify, so nothing is booked to the plan counters.
    EXPECT_EQ(got.stats.batch_planned, 0);
    EXPECT_EQ(got.stats.kernel_fallbacks, 0);
}

/// A ledger-backed route under both NN backends — the grid's seeded,
/// cell-pruned queries, orphan shortcut and bounded fold-in against the
/// linear seed oracle: trees and statistics must match.  Both run the
/// default (batch) kernel, whose plan dispatch ledger-backed solvers gate
/// off, so the plan counters stay at zero.
void expect_ledger_grid_matches_linear(const topo::instance& inst,
                                       ast_mode mode, double bound,
                                       const std::string& what) {
    auto linear_req =
        kernel_request(inst, plan_kernel::batch, nn_backend::linear, 1);
    linear_req.mode = mode;
    linear_req.spec =
        bound == 0.0 ? skew_spec::zero() : skew_spec::uniform(bound);
    auto grid_req = linear_req;
    grid_req.options.engine.backend = nn_backend::grid;
    const auto ref = route(linear_req);
    const auto got = route(grid_req);
    expect_identical(got, ref, what);
    EXPECT_EQ(got.stats.batch_planned, 0) << what;
    EXPECT_EQ(got.stats.kernel_fallbacks, 0) << what;
}

/// Every ledger-backed mode at `bound` on r1–r3, clustered and
/// intermingled.
void expect_ledger_modes_grid_match_linear(double bound, const char* at) {
    constexpr int kgroups = 8;
    for (const char* name : {"r1", "r2", "r3"}) {
        const gen::instance_spec spec = gen::paper_spec(name);
        const topo::instance base = gen::generate(spec);
        for (const bool intermingled : {false, true}) {
            topo::instance inst = base;
            if (intermingled)
                gen::apply_intermingled_groups(inst, kgroups, spec.seed + 1);
            else
                gen::apply_clustered_groups(inst, kgroups);
            const std::string what =
                std::string(name) +
                (intermingled ? " intermingled " : " clustered ");
            expect_ledger_grid_matches_linear(inst, ast_mode::automatic,
                                              bound, what + "automatic" + at);
            expect_ledger_grid_matches_linear(inst, ast_mode::soft_ledger,
                                              bound, what + "soft" + at);
            expect_ledger_grid_matches_linear(inst, ast_mode::exact_ledger,
                                              bound, what + "exact" + at);
        }
    }
}

TEST(PlanKernels, LedgerModesGridMatchesLinearOnPaperInstances) {
    expect_ledger_modes_grid_match_linear(0.0, "@0");
}

TEST(PlanKernels, BoundedLedgerModesGridMatchesLinearOnPaperInstances) {
    expect_ledger_modes_grid_match_linear(10e-12, "@10ps");
}

}  // namespace
}  // namespace astclk::core
