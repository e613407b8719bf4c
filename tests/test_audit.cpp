// Invariant-auditor suite (DESIGN.md §12).  Two halves:
//
//  * self-tests: every audit::verify_* checker runs green on healthy
//    state, then a violation is seeded — a corrupted edge, a stale grid
//    registration, a grid NN bound below an occupant's NN distance, an
//    NN record a fresh query no longer reproduces, a broken or cyclic
//    reverse-NN list, a broken heap order,
//    a heap position map out of step with its heap, a leaked scratch
//    lease, books that do not sum — and the checker must name it.  A checker that cannot detect the
//    corruption it claims to guard against is worse than none: it
//    certifies.
//  * checkpoint integration: the `checkpoint` helper counts and throws
//    correctly in every build, and in ASTCLK_AUDIT builds a routed
//    request demonstrably drives the engine's hook sites (the
//    process-wide checkpoint counter moves) while staying green.

#include "core/audit.hpp"
#include "core/dary_heap.hpp"
#include "core/route_context.hpp"
#include "core/strategy.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

namespace astclk::core {
namespace {

topo::instance small_instance(int n) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    return gen::generate(spec);
}

route_result route_small(const topo::instance& inst, routing_context& ctx) {
    routing_request req;
    req.instance = &inst;
    req.strategy = strategy_id::ast_dme;
    route_result res = route(req, ctx);
    EXPECT_TRUE(res.ok()) << res.status_message;
    return res;
}

// ------------------------------------------------------ tree structure

TEST(AuditTree, HealthyRoutedTreePasses) {
    const auto inst = small_instance(40);
    routing_context ctx;
    const route_result res = route_small(inst, ctx);
    EXPECT_EQ(audit::verify_tree_structure(res.tree, inst.sinks.size()), "");
}

TEST(AuditTree, SeededNegativeEdgeFires) {
    const auto inst = small_instance(40);
    routing_context ctx;
    route_result res = route_small(inst, ctx);
    topo::clock_tree t = std::move(res.tree);
    t.node(t.root()).edge_left = -1.0;
    const std::string diag = audit::verify_tree_structure(t, inst.sinks.size());
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("negative"), std::string::npos) << diag;
}

TEST(AuditTree, SeededNegativeCapAndSourceEdgeFire) {
    const auto inst = small_instance(24);
    routing_context ctx;
    route_result res = route_small(inst, ctx);
    topo::clock_tree bad_cap = res.tree;
    bad_cap.node(bad_cap.root()).subtree_cap = -1e-15;
    EXPECT_NE(audit::verify_tree_structure(bad_cap, inst.sinks.size()), "");
    topo::clock_tree bad_src = res.tree;
    bad_src.set_source_edge(-5.0);
    EXPECT_NE(audit::verify_tree_structure(bad_src, inst.sinks.size()), "");
}

TEST(AuditTree, SeededParentChildAsymmetryFires) {
    const auto inst = small_instance(24);
    routing_context ctx;
    route_result res = route_small(inst, ctx);
    topo::clock_tree t = std::move(res.tree);
    // Re-point the root's left child at the root itself: parent/child
    // symmetry breaks, which the delegated check_structure pass reports.
    t.node(t.root()).left = t.root();
    EXPECT_NE(audit::verify_tree_structure(t, inst.sinks.size()), "");
}

// ---------------------------------------------------- grid vs live set

TEST(AuditGrid, HealthyIndexPasses) {
    const auto inst = small_instance(64);
    topo::clock_tree t;
    std::vector<topo::node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<std::int32_t>(i)));
    grid_index g(&t, roots);
    EXPECT_EQ(audit::verify_grid_vs_live_set(g, t), "");

    // Still healthy after churn: erase some, re-insert one.
    g.erase(roots[3]);
    g.erase(roots[10]);
    g.insert(roots[3]);
    EXPECT_EQ(audit::verify_grid_vs_live_set(g, t), "");
}

TEST(AuditGrid, SeededStaleRegistrationFires) {
    const auto inst = small_instance(64);
    topo::clock_tree t;
    std::vector<topo::node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<std::int32_t>(i)));
    grid_index g(&t, roots);
    ASSERT_EQ(audit::verify_grid_vs_live_set(g, t), "");
    // Mutate a registered node's arc *without* re-inserting it — exactly
    // the stale-registration corruption the checker exists to catch (a
    // correct engine always erases, mutates, then re-inserts).
    t.node(roots[7]).arc = t.node(roots[7]).arc.expanded(1e6);
    const std::string diag = audit::verify_grid_vs_live_set(g, t);
    ASSERT_NE(diag, "");
}

TEST(AuditGrid, NnBoundsHoldThroughWalksAndSeededViolationFires) {
    const auto inst = small_instance(64);
    topo::clock_tree t;
    std::vector<topo::node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<std::int32_t>(i)));
    grid_index g(&t, roots);
    std::vector<double> nn(t.size());
    for (std::size_t i = 0; i < nn.size(); ++i)
        nn[i] = 1.0 + static_cast<double>(i);
    // A freshly sized grid bounds nothing yet: every cell is +inf.
    EXPECT_EQ(audit::verify_grid_nn_bounds(g, nn), "");
    for (const topo::node_id id : roots)
        g.raise_nn_bound(id, nn[static_cast<std::size_t>(id)]);
    // A fold-in walk re-tightens the scanned cells to their occupants'
    // exact maximum, which still bounds every occupant.
    g.for_each_improvable(t.node(roots[0]).arc, nn.back(), nn,
                          [](topo::node_id, double) {});
    EXPECT_EQ(audit::verify_grid_nn_bounds(g, nn), "");
    // Grow a root's NN distance without raising its cells' bounds — the
    // corruption that would let the walk skip a root it must fold into.
    // roots[0]'s own cell was scanned (gap 0 < bound), so it is tight.
    nn[static_cast<std::size_t>(roots[0])] = 1e9;
    const std::string diag = audit::verify_grid_nn_bounds(g, nn);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("NN bound"), std::string::npos) << diag;
}

TEST(AuditGrid, NnExactHoldsForFreshRecordsAndSeededViolationsFire) {
    const auto inst = small_instance(64);
    topo::clock_tree t;
    std::vector<topo::node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<std::int32_t>(i)));
    grid_index g(&t, roots);
    std::unordered_set<std::uint64_t> bans;
    std::vector<topo::node_id> nn_to(t.size(), topo::knull_node);
    std::vector<double> nn_dist(t.size(), 0.0);
    const auto refresh = [&](topo::node_id id) {
        const auto n = g.nearest_if(id, [&](std::uint64_t k) {
            return bans.count(k) != 0;
        });
        nn_to[static_cast<std::size_t>(id)] =
            n.has_value() ? n->first : topo::knull_node;
        nn_dist[static_cast<std::size_t>(id)] = n.has_value() ? n->second : 0.0;
    };
    for (const topo::node_id id : roots) refresh(id);
    EXPECT_EQ(audit::verify_nn_exact(g, nn_to, nn_dist, bans), "");

    const topo::node_id q = roots[5];
    const auto sq = static_cast<std::size_t>(q);
    const topo::node_id nn = nn_to[sq];
    // A ban on the recorded pair without re-querying: stale partner.
    bans.insert(pair_key(q, nn));
    std::string diag = audit::verify_nn_exact(g, nn_to, nn_dist, bans);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("fresh query"), std::string::npos) << diag;
    refresh(q);
    refresh(nn);
    ASSERT_EQ(audit::verify_nn_exact(g, nn_to, nn_dist, bans), "");

    // The right partner at a distance one ulp off: the check is bitwise.
    nn_dist[sq] = std::nextafter(nn_dist[sq], 1e300);
    ASSERT_NE(audit::verify_nn_exact(g, nn_to, nn_dist, bans), "");
    refresh(q);

    // A root recording a partner after all of them were banned.
    const topo::node_id lone = roots[9];
    for (const topo::node_id other : roots)
        if (other != lone) bans.insert(pair_key(lone, other));
    diag = audit::verify_nn_exact(g, nn_to, nn_dist, bans);
    ASSERT_NE(diag, "");
    for (const topo::node_id id : roots) refresh(id);
    EXPECT_EQ(nn_to[static_cast<std::size_t>(lone)], topo::knull_node);
    EXPECT_EQ(audit::verify_nn_exact(g, nn_to, nn_dist, bans), "");
}

// ----------------------------------------------------- reverse NN lists

TEST(AuditRevLists, HealthyListsPassSeededBrokenLinksFire) {
    // Ids 0..6; 5 and 6 are dead.  NN records: 1, 2 and 6 would point at
    // 0, but 6 is dead and unlisted; 0 -> 1, 3 -> 1, 4 starved (no
    // partner).
    const std::vector<topo::node_id> live{0, 1, 2, 3, 4};
    std::vector<topo::node_id> nn_to{1, 0, 0, 1, topo::knull_node,
                                     topo::knull_node, topo::knull_node};
    reverse_nn_lists rev;
    const auto build = [&] {
        rev.reset(nn_to.size());
        for (const topo::node_id id : live)
            if (nn_to[static_cast<std::size_t>(id)] != topo::knull_node)
                rev.link(id, nn_to[static_cast<std::size_t>(id)]);
    };
    build();
    ASSERT_EQ(audit::verify_rev_lists(live, nn_to, rev), "");

    // Link and unlink stay exact through churn: 2 moves from 0 to 3.
    rev.unlink(2, 0);
    nn_to[2] = 3;
    rev.link(2, 3);
    ASSERT_EQ(audit::verify_rev_lists(live, nn_to, rev), "");

    // Seed: a next link bent back onto the list's head — a cycle.
    const topo::node_id head = rev.head[1];
    const topo::node_id tail = rev.next[static_cast<std::size_t>(head)];
    ASSERT_NE(tail, topo::knull_node);
    rev.next[static_cast<std::size_t>(tail)] = head;
    std::string diag = audit::verify_rev_lists(live, nn_to, rev);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("reached twice"), std::string::npos) << diag;
    build();

    // Seed: a next link that skips a member (1's list loses a root).
    rev.next[static_cast<std::size_t>(rev.head[1])] = topo::knull_node;
    diag = audit::verify_rev_lists(live, nn_to, rev);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("missing"), std::string::npos) << diag;
    build();

    // Seed: a stale back link.
    rev.prev[static_cast<std::size_t>(rev.head[1])] = 4;
    diag = audit::verify_rev_lists(live, nn_to, rev);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("back link"), std::string::npos) << diag;
    build();

    // Seed: a dead root linked onto a live list, and a dead owner whose
    // list was never emptied.
    rev.link(6, 0);
    ASSERT_NE(audit::verify_rev_lists(live, nn_to, rev), "");
    build();
    rev.link(3, 5);
    ASSERT_NE(audit::verify_rev_lists(live, nn_to, rev), "");
    build();

    // Seed: a root on the wrong list (its NN moved without relinking).
    nn_to[0] = 2;
    diag = audit::verify_rev_lists(live, nn_to, rev);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("but its NN is"), std::string::npos) << diag;
}

// -------------------------------------------------------- heap invariant

/// An addressable-heap element: a key and the id that owns it.
struct keyed {
    int key;
    int a;
};
struct keyed_less {
    bool operator()(const keyed& x, const keyed& y) const {
        return x.key < y.key;
    }
};

TEST(AuditHeap, DaryHeapPassesAndCorruptionFires) {
    std::vector<keyed> h;
    std::vector<std::uint32_t> pos(13, knpos);
    int id = 0;
    for (int v : {5, 1, 9, 9, 3, 7, 2, 8, 0, 4, 6, 11, -3})
        dary_push<keyed_less>(h, pos, keyed{v, id++});
    EXPECT_EQ((audit::verify_heap_invariant<keyed_less>(h)), "");
    dary_erase<keyed_less>(h, pos, static_cast<std::size_t>(h.front().a));
    EXPECT_EQ((audit::verify_heap_invariant<keyed_less>(h)), "");

    // Seed: a tail element larger than everything breaks the d-ary order.
    h.back().key = 1000;
    const std::string diag = audit::verify_heap_invariant<keyed_less>(h);
    ASSERT_NE(diag, "");
    EXPECT_NE(diag.find("heap invariant"), std::string::npos) << diag;

    // Binary arity sanity: the template honours D.
    std::vector<int> bin{9, 7, 8, 1, 2, 3, 4};
    EXPECT_EQ((audit::verify_heap_invariant<std::less<int>, 2>(bin)), "");
    bin[3] = 99;  // child of bin[1] under D=2
    EXPECT_NE((audit::verify_heap_invariant<std::less<int>, 2>(bin)), "");
}

TEST(AuditHeap, PositionMapPassesAndCorruptionsFire) {
    std::vector<keyed> h;
    std::vector<std::uint32_t> pos(10, knpos);
    for (int i = 0; i < 8; ++i)
        dary_push<keyed_less>(h, pos, keyed{i % 3, i});
    dary_update<keyed_less>(h, pos, keyed{7, 2});
    dary_erase<keyed_less>(h, pos, 5);
    EXPECT_EQ(audit::verify_heap_positions(h, pos, 7), "");

    {  // Two slots' ids swapped behind the map's back.
        auto bad = h;
        std::swap(bad[1].a, bad[2].a);
        const std::string diag = audit::verify_heap_positions(bad, pos, 7);
        ASSERT_NE(diag, "");
        EXPECT_NE(diag.find("heap slot"), std::string::npos) << diag;
    }
    {  // An id with no entry still mapped to a slot (a dangling position).
        auto bad = pos;
        bad[5] = 0;
        const std::string diag = audit::verify_heap_positions(h, bad, 7);
        ASSERT_NE(diag, "");
        EXPECT_NE(diag.find("does not hold it"), std::string::npos) << diag;
        bad[5] = static_cast<std::uint32_t>(h.size());  // past the end
        EXPECT_NE(audit::verify_heap_positions(h, bad, 7), "");
    }
    {  // More entries than live roots: a stale entry came back.
        const std::string diag = audit::verify_heap_positions(h, pos, 6);
        ASSERT_NE(diag, "");
        EXPECT_NE(diag.find("live roots"), std::string::npos) << diag;
    }
}

// -------------------------------------------------- scratch lease balance

TEST(AuditScratch, BalancedAfterQuiesceLeakWhileLeased) {
    routing_context ctx;
    EXPECT_EQ(audit::verify_scratch_lease_balance(ctx), "");  // nothing yet
    {
        auto a = ctx.scratch();
        auto b = ctx.scratch();
        (void)a;
        (void)b;
        // Two leases outstanding: the imbalance the checker reports when
        // called before quiescing (or after a real leak).
        const std::string diag = audit::verify_scratch_lease_balance(ctx);
        ASSERT_NE(diag, "");
        EXPECT_NE(diag.find("imbalance"), std::string::npos) << diag;
    }
    // Leases returned on destruction: balanced again.
    EXPECT_EQ(audit::verify_scratch_lease_balance(ctx), "");

    // A full route leaves a quiesced context balanced too.
    const auto inst = small_instance(32);
    (void)route_small(inst, ctx);
    EXPECT_EQ(audit::verify_scratch_lease_balance(ctx), "");
}

// ------------------------------------------------------------ stats books

TEST(AuditStats, RealRunPassesSeededCorruptionsFire) {
    const auto inst = small_instance(48);
    routing_context ctx;
    const route_result res = route_small(inst, ctx);
    ASSERT_EQ(audit::verify_stats_books(res.stats), "");
    EXPECT_EQ(audit::verify_stats_books(engine_stats{}), "");

    engine_stats bad = res.stats;
    ++bad.merges;  // taxonomy no longer sums
    EXPECT_NE(audit::verify_stats_books(bad), "");

    bad = res.stats;
    bad.rejected_pairs = -1;
    EXPECT_NE(audit::verify_stats_books(bad), "");

    bad = res.stats;
    bad.worst_violation = 1e-12;  // violation without any forced merge
    bad.forced_merges = 0;
    EXPECT_NE(audit::verify_stats_books(bad), "");
}

TEST(AuditStats, AccumulatedBooksStillPass) {
    const auto inst = small_instance(48);
    routing_context ctx;
    routing_request req;
    req.instance = &inst;
    req.strategy = strategy_id::ast_dme;
    req.mode = ast_mode::windowed;  // ledger-free: sharding stays enabled
    req.options.engine.shards = 4;
    const route_result res = route(req, ctx);
    ASSERT_TRUE(res.ok()) << res.status_message;
    EXPECT_EQ(res.stats.shards, 4);
    EXPECT_EQ(audit::verify_stats_books(res.stats), "");
}

// -------------------------------------------------- checkpoint integration

TEST(AuditCheckpoint, HelperCountsAndThrows) {
    const std::uint64_t before = audit::checkpoints_run();
    EXPECT_NO_THROW(audit::checkpoint("test-site", ""));
    EXPECT_EQ(audit::checkpoints_run(), before + 1);
    try {
        audit::checkpoint("test-site", "seeded diagnostic");
        FAIL() << "checkpoint did not throw on a non-empty diagnostic";
    } catch (const audit::violation& v) {
        const std::string what = v.what();
        EXPECT_NE(what.find("audit[test-site]"), std::string::npos) << what;
        EXPECT_NE(what.find("seeded diagnostic"), std::string::npos) << what;
    }
    EXPECT_EQ(audit::checkpoints_run(), before + 2);
}

#ifdef ASTCLK_AUDIT
TEST(AuditCheckpoint, AuditBuildDrivesEngineHooks) {
    // In an ASTCLK_AUDIT build a routed request must actually exercise the
    // engine's checkpoint hook sites — and a healthy engine passes them.
    const auto inst = small_instance(48);
    routing_context ctx;
    const std::uint64_t before = audit::checkpoints_run();
    (void)route_small(inst, ctx);
    const std::uint64_t monolithic = audit::checkpoints_run();
    EXPECT_GT(monolithic, before)
        << "ASTCLK_AUDIT build ran a route without hitting any checkpoint";

    routing_request req;  // sharded path: shard/total book audits
    req.instance = &inst;
    req.strategy = strategy_id::ast_dme;
    req.mode = ast_mode::windowed;
    req.options.engine.shards = 3;
    const route_result res = route(req, ctx);
    ASSERT_TRUE(res.ok()) << res.status_message;
    EXPECT_GT(audit::checkpoints_run(), monolithic);
}

TEST(AuditCheckpoint, AuditBuildChecksExactNnOnCoincidentSinks) {
    // Eight coincident sinks per lattice point: orphaned roots tie their
    // old NN distance (0) with the new root and with older roots, so an
    // orphan shortcut that took ties would leave records a fresh query
    // does not reproduce — the selection/nn-exact checkpoint must stay
    // green on the correct engine.
    auto inst = small_instance(256);
    for (std::size_t k = 0; k < inst.sinks.size(); ++k) {
        const auto point = static_cast<double>(k / 8);
        inst.sinks[k].loc = {10000.0 + 1000.0 * std::fmod(point, 8.0),
                             10000.0 + 1000.0 * std::floor(point / 8.0)};
    }
    routing_context ctx;
    const std::uint64_t before = audit::checkpoints_run();
    (void)route_small(inst, ctx);
    EXPECT_GT(audit::checkpoints_run(), before);
}
#endif

}  // namespace
}  // namespace astclk::core
