// Independent evaluator tests: hand-computed Elmore ladders, wirelength
// accounting, skew statistics, and agreement with the engine bookkeeping.

#include "core/merge_solver.hpp"
#include "eval/elmore_eval.hpp"

#include <gtest/gtest.h>

#include <utility>

namespace astclk::eval {
namespace {

using core::merge_solver;
using core::skew_spec;
using topo::clock_tree;
using topo::instance;
using topo::node_id;

const rc::delay_model kmodel = rc::delay_model::elmore({2.0, 3.0});

TEST(Evaluate, HandComputedTwoSinkLadder) {
    // Source --(len 2)--> root --(len 4)--> sink0 (cap 5)
    //                          --(len 1)--> sink1 (cap 7)
    // r = 2, c = 3.
    instance inst;
    inst.num_groups = 1;
    inst.sinks = {{{0, 0}, 5.0, 0}, {{10, 0}, 7.0, 0}};
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    const node_id r = t.add_internal(a, b, {}, 4.0, 1.0, 0.0, {});
    t.set_root(r);
    t.set_source_edge(2.0);

    const auto ev = evaluate(t, inst, kmodel);
    // Caps: sink caps 5 and 7; root = 5 + 7 + c*(4+1) = 27.
    EXPECT_DOUBLE_EQ(ev.node_cap[static_cast<std::size_t>(r)], 27.0);
    // Source edge delay: 2*2*(3*2/2 + 27) = 4*30 = 120.
    // Edge to sink0: 2*4*(3*4/2 + 5) = 8*11 = 88  -> 208.
    // Edge to sink1: 2*1*(3*1/2 + 7) = 2*8.5 = 17 -> 137.
    EXPECT_DOUBLE_EQ(ev.sink_delay[0], 208.0);
    EXPECT_DOUBLE_EQ(ev.sink_delay[1], 137.0);
    EXPECT_DOUBLE_EQ(ev.global_skew, 71.0);
    EXPECT_DOUBLE_EQ(ev.total_wirelength, 7.0);
    EXPECT_DOUBLE_EQ(ev.max_intra_group_skew, 71.0);
}

TEST(Evaluate, PathLengthModelIsPureGeometry) {
    instance inst;
    inst.num_groups = 1;
    inst.sinks = {{{0, 0}, 5.0, 0}, {{10, 0}, 7.0, 0}};
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    const node_id r = t.add_internal(a, b, {}, 4.0, 1.0, 0.0, {});
    t.set_root(r);
    t.set_source_edge(2.0);
    const auto ev = evaluate(t, inst, rc::delay_model::path_length());
    EXPECT_DOUBLE_EQ(ev.sink_delay[0], 6.0);
    EXPECT_DOUBLE_EQ(ev.sink_delay[1], 3.0);
}

TEST(Evaluate, PerGroupStatistics) {
    instance inst;
    inst.num_groups = 2;
    inst.sinks = {{{0, 0}, 1.0, 0}, {{1, 0}, 1.0, 1}, {{2, 0}, 1.0, 0}};
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    const node_id c = t.add_leaf(inst, 2);
    const node_id m = t.add_internal(a, b, {}, 1.0, 2.0, 0.0, {});
    const node_id r = t.add_internal(m, c, {}, 0.0, 3.0, 0.0, {});
    t.set_root(r);
    const auto ev = evaluate(t, inst, rc::delay_model::path_length());
    // delays: sink0 = 1, sink1 = 2, sink2 = 3.
    EXPECT_DOUBLE_EQ(ev.group_skew[0], 2.0);  // sinks 0 and 2
    EXPECT_DOUBLE_EQ(ev.group_skew[1], 0.0);  // singleton group
    EXPECT_DOUBLE_EQ(ev.max_intra_group_skew, 2.0);
    EXPECT_DOUBLE_EQ(ev.global_skew, 2.0);
}

TEST(Evaluate, CapBookkeepingErrorDetection) {
    instance inst;
    inst.num_groups = 1;
    inst.sinks = {{{0, 0}, 5.0, 0}, {{10, 0}, 7.0, 0}};
    clock_tree t;
    const node_id a = t.add_leaf(inst, 0);
    const node_id b = t.add_leaf(inst, 1);
    const node_id r = t.add_internal(a, b, {}, 4.0, 1.0,
                                     /*deliberately wrong cap=*/999.0, {});
    t.set_root(r);
    const auto ev = evaluate(t, inst, kmodel);
    EXPECT_GT(ev.max_cap_error, 900.0);
}

TEST(Evaluate, AgreesWithSolverBookkeeping) {
    // Build a small tree through the real solver and check that the delay
    // map of the root matches the evaluator exactly (up to fp dust).
    instance inst;
    inst.num_groups = 2;
    inst.die_width = inst.die_height = 1000.0;
    inst.source = {0.0, 0.0};
    inst.sinks = {{{100, 100}, 10e-15, 0},
                  {{300, 120}, 20e-15, 1},
                  {{180, 400}, 15e-15, 0},
                  {{420, 380}, 12e-15, 1}};
    const rc::delay_model tech = rc::delay_model::elmore();
    clock_tree t;
    std::vector<node_id> roots;
    for (int i = 0; i < 4; ++i)
        roots.push_back(t.add_leaf(inst, i));
    merge_solver solver(tech, skew_spec::zero());
    auto p1 = solver.plan(t, roots[0], roots[1]);
    ASSERT_TRUE(p1.has_value());
    const node_id m1 =
        solver.commit(t, roots[0], roots[1], std::move(*p1));
    auto p2 = solver.plan(t, roots[2], roots[3]);
    ASSERT_TRUE(p2.has_value());
    const node_id m2 =
        solver.commit(t, roots[2], roots[3], std::move(*p2));
    auto p3 = solver.plan(t, m1, m2);
    ASSERT_TRUE(p3.has_value());
    const node_id top = solver.commit(t, m1, m2, std::move(*p3));
    t.set_root(top);
    t.set_source_edge(0.0);

    const auto ev = evaluate(t, inst, tech);
    EXPECT_LT(ev.max_cap_error, 1e-25);
    for (int i = 0; i < 4; ++i) {
        const auto g = inst.sinks[static_cast<std::size_t>(i)].group;
        const geom::interval* iv = t.node(top).delays.find(g);
        ASSERT_NE(iv, nullptr);
        EXPECT_GE(ev.sink_delay[static_cast<std::size_t>(i)],
                  iv->lo - 1e-22);
        EXPECT_LE(ev.sink_delay[static_cast<std::size_t>(i)],
                  iv->hi + 1e-22);
    }
}

}  // namespace
}  // namespace astclk::eval
