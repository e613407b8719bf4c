// Grid-backend equivalence: the spatial grid index must answer exactly the
// same nearest-neighbour queries (same partner id, same distance, same
// deterministic tie-breaks) as the linear verification scan, and the full
// engine must produce identical trees under either backend.  The grid
// query checked here is the production one (slab gather and fused SoA
// kernel), bans and spilled cells included, with and without a seed.  The
// bounded fold-in walk is checked against a brute-force oracle.

#include "core/audit.hpp"
#include "core/engine.hpp"
#include "core/grid_index.hpp"
#include "core/nn_index.hpp"
#include "core/router.hpp"
#include "eval/report.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"
#include "gen/rng.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <unordered_set>

namespace astclk::core {
namespace {

using topo::clock_tree;
using topo::instance;
using topo::node_id;

instance seeded_instance(int n, std::uint64_t seed, bool intermingled,
                         int groups) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    spec.seed = seed;
    auto inst = gen::generate(spec);
    if (groups > 1) {
        if (intermingled)
            gen::apply_intermingled_groups(inst, groups, seed + 1);
        else
            gen::apply_clustered_groups(inst, groups);
    }
    return inst;
}

/// Compare every query on both backends, with and without a ban set.
void expect_index_equivalence(const clock_tree& t,
                              const std::vector<node_id>& roots,
                              std::uint64_t ban_seed) {
    nn_index lin(&t, roots);
    grid_index grid(&t, roots);
    ASSERT_EQ(lin.size(), grid.size());

    // Random symmetric ban set over ~10% of pairs.
    gen::rng rng(ban_seed);
    std::unordered_set<std::uint64_t> bans;
    for (node_id a : roots)
        for (int k = 0; k < 2; ++k) {
            const auto b = roots[static_cast<std::size_t>(
                rng.below(roots.size()))];
            if (a != b) bans.insert(pair_key(a, b));
        }
    const auto no_ban = [](std::uint64_t) { return false; };
    const auto with_ban = [&](std::uint64_t k) { return bans.count(k) > 0; };

    for (node_id id : roots) {
        const auto l0 = lin.nearest_if(id, no_ban);
        const auto g0 = grid.nearest_if(id, no_ban);
        ASSERT_EQ(l0.has_value(), g0.has_value()) << "id " << id;
        if (l0.has_value()) {
            EXPECT_EQ(l0->first, g0->first) << "id " << id;
            EXPECT_EQ(l0->second, g0->second) << "id " << id;
        }
        const auto l1 = lin.nearest_if(id, with_ban);
        const auto g1 = grid.nearest_if(id, with_ban);
        ASSERT_EQ(l1.has_value(), g1.has_value()) << "id " << id << " (bans)";
        if (l1.has_value()) {
            EXPECT_EQ(l1->first, g1->first) << "id " << id << " (bans)";
            EXPECT_EQ(l1->second, g1->second) << "id " << id << " (bans)";
        }
    }
}

TEST(GridIndex, MatchesLinearOnClusteredAndIntermingledLeaves) {
    for (const bool intermingled : {false, true}) {
        for (const std::uint64_t seed : {3u, 11u, 29u}) {
            const auto inst = seeded_instance(180, seed, intermingled, 6);
            clock_tree t;
            std::vector<node_id> roots;
            for (std::size_t i = 0; i < inst.sinks.size(); ++i)
                roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
            expect_index_equivalence(t, roots, seed * 7 + 1);
        }
    }
}

TEST(GridIndex, MatchesLinearWithLongMergedArcs) {
    // Mix leaves with synthetic internal nodes carrying long Manhattan
    // arcs (hulls of distant leaf pairs), the shape the engine produces
    // mid-run; long arcs span many grid cells.
    const auto inst = seeded_instance(120, 5, true, 4);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    gen::rng rng(99);
    std::vector<node_id> active = roots;
    for (int k = 0; k < 40; ++k) {
        const auto ia = static_cast<std::size_t>(rng.below(active.size()));
        auto ib = static_cast<std::size_t>(rng.below(active.size()));
        if (ia == ib) ib = (ib + 1) % active.size();
        const node_id a = active[std::min(ia, ib)];
        const node_id b = active[std::max(ia, ib)];
        // Degenerate-in-u hull: a Manhattan arc spanning the two nodes.
        const geom::tilted_rect hull = t.node(a).arc.hull(t.node(b).arc);
        const geom::tilted_rect arc{geom::interval::at(hull.u().mid()),
                                    hull.v()};
        const node_id c =
            t.add_internal(a, b, arc, 0.0, 0.0, 0.0, t.node(a).delays);
        active.erase(active.begin() +
                     static_cast<std::ptrdiff_t>(std::max(ia, ib)));
        active.erase(active.begin() +
                     static_cast<std::ptrdiff_t>(std::min(ia, ib)));
        active.push_back(c);
    }
    expect_index_equivalence(t, active, 123);
}

TEST(GridIndex, MatchesLinearOnSpilledCells) {
    // Twenty coincident sinks share one cell, past the slab's inline
    // capacity, so queries read that cell's vector; they also tie at
    // distance 0, so the id tie-break decides every answer among them.
    auto inst = seeded_instance(60, 19, true, 4);
    for (std::size_t k = 1; k < 20; ++k) inst.sinks[k].loc = inst.sinks[0].loc;
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    expect_index_equivalence(t, roots, 19);

    // Erase the stack down through the inline capacity (the erase that
    // un-spills the cell moves the ids inline and empties the cell
    // vector), then re-insert it past the capacity again (the spilling
    // insert seeds the vector from the inline ids); re-check every answer
    // and the registration after each step.
    nn_index lin(&t, roots);
    grid_index grid(&t, roots);
    const auto no_ban = [](std::uint64_t) { return false; };
    const auto expect_same = [&](node_id step) {
        ASSERT_EQ(audit::verify_grid_vs_live_set(grid, t), "")
            << "step " << step;
        for (const node_id q : lin.active()) {
            const auto l = lin.nearest_if(q, no_ban);
            const auto g = grid.nearest_if(q, no_ban);
            ASSERT_EQ(l.has_value(), g.has_value()) << "id " << q;
            if (l.has_value()) {
                ASSERT_EQ(l->first, g->first) << "id " << q;
                ASSERT_EQ(l->second, g->second) << "id " << q;
            }
        }
    };
    for (node_id gone = 1; gone < 16; ++gone) {  // 20 -> 5 stacked
        lin.erase(gone);
        grid.erase(gone);
        expect_same(gone);
    }
    for (node_id back = 1; back < 16; ++back) {  // 5 -> 20 stacked
        lin.insert(back);
        grid.insert(back);
        expect_same(back);
    }
}

/// Seeded queries against a random index state: for every live query id
/// and every valid seed — a live root other than the query, not banned
/// with it, at its exact arc distance — the seeded grid answer must equal
/// both the unseeded one and the linear scan.
void expect_seeded_queries_exact(const clock_tree& t, const nn_index& lin,
                                 const grid_index& grid,
                                 const std::unordered_set<std::uint64_t>& bans,
                                 const std::string& what) {
    const auto banned = [&](std::uint64_t k) { return bans.count(k) > 0; };
    for (const node_id q : lin.active()) {
        const auto want = lin.nearest_if(q, banned);
        const auto plain = grid.nearest_if(q, banned);
        ASSERT_EQ(want.has_value(), plain.has_value()) << what << " id " << q;
        if (!want.has_value()) continue;
        ASSERT_EQ(want->first, plain->first) << what << " id " << q;
        ASSERT_EQ(want->second, plain->second) << what << " id " << q;
        for (const node_id s : lin.active()) {
            if (s == q || banned(pair_key(q, s))) continue;
            const double d = t.node(q).arc.distance(t.node(s).arc);
            const auto got = grid.nearest_if(q, banned, {s, d});
            ASSERT_TRUE(got.has_value()) << what << " id " << q;
            ASSERT_EQ(want->first, got->first)
                << what << " id " << q << " seed " << s << " at " << d;
            ASSERT_EQ(want->second, got->second)
                << what << " id " << q << " seed " << s << " at " << d;
        }
    }
}

TEST(GridIndex, SeededQueriesMatchUnseededAndLinear) {
    // Random states built to stress the per-cell pruning:
    //  * a stack of 12 coincident sinks (a spilled cell, > 7 occupants)
    //    whose members tie at distance 0 — a seed at 0 prunes every cell
    //    whose lower bound is > 0, and only the strict test keeps the
    //    zero-bound cells that hold smaller tied ids;
    //  * sinks snapped to a coarse lattice, so many pairs tie exactly at
    //    nonzero distances across neighbouring cells;
    //  * merged roots with random arcs, a quarter escaping the initial
    //    hull and so clamped into the border cells;
    //  * random bans, and erasures past the adaptive-rebuild threshold.
    for (const std::uint64_t seed : {5u, 43u, 71u}) {
        auto inst = seeded_instance(90, seed, true, 4);
        const double lattice = 2000.0;
        for (auto& sk : inst.sinks) {
            sk.loc.x = lattice * std::round(sk.loc.x / lattice);
            sk.loc.y = lattice * std::round(sk.loc.y / lattice);
        }
        for (std::size_t k = 1; k < 12; ++k)
            inst.sinks[k * 7].loc = inst.sinks[0].loc;
        clock_tree t;
        std::vector<node_id> live;
        for (std::size_t i = 0; i < inst.sinks.size(); ++i)
            live.push_back(t.add_leaf(inst, static_cast<int>(i)));
        geom::tilted_rect hull = t.node(live.front()).arc;
        for (const node_id id : live) hull = hull.hull(t.node(id).arc);
        const double ext = std::max(hull.u().length(), hull.v().length());

        gen::rng rng(seed);
        const auto axis = [&](const geom::interval& h, double reach) {
            const double lo = rng.uniform(h.lo - reach, h.hi + reach);
            const double len =
                rng.below(2) == 0 ? 0.0 : rng.uniform(0.0, ext / 6.0);
            return geom::interval(lo, lo + len);
        };
        // The grid is sized over the leaves; merged roots inserted after
        // it may escape that hull and land clamped in the border cells.
        nn_index lin(&t, live);
        grid_index grid(&t, live);
        for (int k = 0; k < 24; ++k) {
            const double reach = rng.below(4) == 0 ? 1.5 * ext : 0.0;
            const geom::interval u = axis(hull.u(), reach);
            const geom::tilted_rect arc(u, axis(hull.v(), reach));
            const node_id c = t.add_internal(live[0], live[1], arc, 0.0, 0.0,
                                             0.0, t.node(live[0]).delays);
            lin.insert(c);
            grid.insert(c);
            live.push_back(c);
        }
        std::unordered_set<std::uint64_t> bans;
        for (int k = 0; k < 60; ++k) {
            const node_id a = live[rng.below(live.size())];
            const node_id b = live[rng.below(live.size())];
            if (a != b) bans.insert(pair_key(a, b));
        }
        // Every member of the coincident stack banned with one of them.
        for (std::size_t k = 1; k < 12; ++k)
            bans.insert(pair_key(live[0], live[k * 7]));
        const std::string what = "seed " + std::to_string(seed);
        expect_seeded_queries_exact(t, lin, grid, bans, what);

        // Shrink past 1/4 of the population (the grid rebuilds with
        // coarser cells), checking along the way.
        while (lin.size() > 20) {
            const node_id gone = lin.active()[rng.below(lin.size())];
            lin.erase(gone);
            grid.erase(gone);
            if (lin.size() % 19 == 0)
                expect_seeded_queries_exact(t, lin, grid, bans,
                                            what + " shrunk");
        }
        EXPECT_GE(grid.rebuilds(), 1) << what;
        expect_seeded_queries_exact(t, lin, grid, bans, what + " final");
    }
}

/// Route the same instance under both backends; trees must be identical in
/// every engine statistic, wirelength, and per-node geometry.
void expect_identical_routes(const instance& inst) {
    router_options grid_opt, lin_opt;
    grid_opt.engine.backend = nn_backend::grid;
    lin_opt.engine.backend = nn_backend::linear;
    for (const ast_mode mode :
         {ast_mode::windowed, ast_mode::soft_ledger, ast_mode::automatic}) {
        const auto g = route_ast_dme(inst, skew_spec::zero(), grid_opt, mode);
        const auto l = route_ast_dme(inst, skew_spec::zero(), lin_opt, mode);
        EXPECT_EQ(g.stats.merges, l.stats.merges);
        EXPECT_EQ(g.stats.rejected_pairs, l.stats.rejected_pairs);
        EXPECT_EQ(g.stats.forced_merges, l.stats.forced_merges);
        EXPECT_EQ(g.stats.interior_snakes, l.stats.interior_snakes);
        EXPECT_EQ(g.stats.root_snakes, l.stats.root_snakes);
        EXPECT_EQ(g.stats.snake_wire, l.stats.snake_wire);
        EXPECT_EQ(g.wirelength, l.wirelength);
        ASSERT_EQ(g.tree.size(), l.tree.size());
        for (std::size_t i = 0; i < g.tree.size(); ++i) {
            const auto& gn = g.tree.node(static_cast<node_id>(i));
            const auto& ln = l.tree.node(static_cast<node_id>(i));
            EXPECT_EQ(gn.left, ln.left);
            EXPECT_EQ(gn.right, ln.right);
            EXPECT_EQ(gn.arc, ln.arc);
            EXPECT_EQ(gn.edge_left, ln.edge_left);
            EXPECT_EQ(gn.edge_right, ln.edge_right);
        }
    }
}

TEST(GridIndex, EngineProducesIdenticalTreesClustered) {
    expect_identical_routes(seeded_instance(220, 17, false, 6));
}

TEST(GridIndex, EngineProducesIdenticalTreesIntermingled) {
    expect_identical_routes(seeded_instance(220, 23, true, 8));
}

TEST(GridIndex, EngineProducesIdenticalTreesOnCoincidentLatticeSinks) {
    // Eight coincident sinks per point of a 1000-unit lattice: merges of
    // coincident sinks land exactly on their point, so an orphaned root's
    // distance to the new root ties its old NN distance (0) while other
    // roots tie there too — the case the engine's orphan shortcut must
    // leave to a query (only a strictly closer new root is the exact NN).
    auto inst = seeded_instance(256, 37, true, 4);
    for (std::size_t k = 0; k < inst.sinks.size(); ++k) {
        const auto point = static_cast<double>(k / 8);
        inst.sinks[k].loc = {10000.0 + 1000.0 * std::fmod(point, 8.0),
                             10000.0 + 1000.0 * std::floor(point / 8.0)};
    }
    expect_identical_routes(inst);
}

TEST(GridIndex, EngineIdenticalUnderMultiMergeAndZst) {
    const auto inst = seeded_instance(150, 31, true, 5);
    for (const merge_order order :
         {merge_order::nearest_pair, merge_order::multi_merge}) {
        router_options g, l;
        g.engine.order = l.engine.order = order;
        g.engine.backend = nn_backend::grid;
        l.engine.backend = nn_backend::linear;
        const auto rg = route_zst_dme(inst, g);
        const auto rl = route_zst_dme(inst, l);
        EXPECT_EQ(rg.wirelength, rl.wirelength);
        EXPECT_EQ(rg.stats.merges, rl.stats.merges);
        EXPECT_EQ(rg.stats.snake_wire, rl.stats.snake_wire);
        EXPECT_EQ(rg.stats.rounds, rl.stats.rounds);
    }
}

TEST(GridIndex, EraseReinsertKeepsAnswersConsistent) {
    const auto inst = seeded_instance(90, 41, true, 3);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    nn_index lin(&t, roots);
    grid_index grid(&t, roots);
    gen::rng rng(7);
    const auto no_ban = [](std::uint64_t) { return false; };
    // Random erase / reinsert churn, checking equivalence throughout.
    std::vector<node_id> in = roots, out;
    for (int step = 0; step < 60; ++step) {
        if (!in.empty() && (out.empty() || rng.below(3) != 0)) {
            const auto k = static_cast<std::size_t>(rng.below(in.size()));
            const node_id id = in[k];
            lin.erase(id);
            grid.erase(id);
            in.erase(in.begin() + static_cast<std::ptrdiff_t>(k));
            out.push_back(id);
        } else {
            const node_id id = out.back();
            out.pop_back();
            lin.insert(id);
            grid.insert(id);
            in.push_back(id);
        }
        ASSERT_EQ(lin.size(), grid.size());
        for (const node_id id : in) {
            const auto l = lin.nearest_if(id, no_ban);
            const auto g = grid.nearest_if(id, no_ban);
            ASSERT_EQ(l.has_value(), g.has_value());
            if (l.has_value()) {
                ASSERT_EQ(l->first, g->first);
                ASSERT_EQ(l->second, g->second);
            }
        }
    }
}

TEST(GridIndex, TinyPopulationsKeepMinimumCellResolution) {
    // Sizing clamp for small populations (sub-reduction shards): a tiny
    // root set spread over a wide extent must still get a grid of at
    // least kmin_cells_per_axis cells along its longer axis — sqrt-sizing
    // alone would hand it a near-degenerate few-cell grid whose ring
    // visits scan most of the population (a linear scan paying grid
    // overhead).  Answers stay exact either way; the clamp (and this
    // test) is about the cell resolution itself.
    for (const int n : {2, 5, 16, 48, 63}) {
        const auto inst = seeded_instance(n, 77, false, 1);
        clock_tree t;
        std::vector<node_id> roots;
        for (std::size_t i = 0; i < inst.sinks.size(); ++i)
            roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
        const grid_index grid(&t, roots);
        EXPECT_GE(std::max(grid.cells_u(), grid.cells_v()), 8) << "n=" << n;
        // ...and the clamped grid still answers exactly like the linear
        // reference, bans and churn included.
        expect_index_equivalence(t, roots, 77 + static_cast<unsigned>(n));
    }
    // Past the clamp region sqrt-sizing takes over unchanged.
    const auto inst = seeded_instance(256, 78, false, 1);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    const grid_index grid(&t, roots);
    EXPECT_GE(std::max(grid.cells_u(), grid.cells_v()), 16);
}

TEST(GridIndex, OccupancyAdaptiveRebuildKeepsAnswersExact) {
    // Shrink the active set the way the engine does (erasures dominate);
    // the occupancy-adaptive rebuild must fire as the population collapses
    // and must never change a nearest-neighbour answer or the slot order.
    const auto inst = seeded_instance(300, 51, true, 6);
    clock_tree t;
    std::vector<node_id> roots;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        roots.push_back(t.add_leaf(inst, static_cast<int>(i)));
    nn_index lin(&t, roots);
    grid_index grid(&t, roots);
    EXPECT_EQ(grid.rebuilds(), 0);

    gen::rng rng(13);
    const auto no_ban = [](std::uint64_t) { return false; };
    std::vector<node_id> in = roots;
    int last_rebuilds = 0;
    while (in.size() > 2) {
        const auto k = static_cast<std::size_t>(rng.below(in.size()));
        const node_id id = in[k];
        lin.erase(id);
        grid.erase(id);
        in.erase(in.begin() + static_cast<std::ptrdiff_t>(k));
        const bool just_rebuilt = grid.rebuilds() != last_rebuilds;
        last_rebuilds = grid.rebuilds();
        // Full equivalence sweep right after each rebuild and periodically.
        if (just_rebuilt || in.size() % 16 == 0) {
            for (const node_id q : in) {
                ASSERT_EQ(lin.slot_of(q), grid.slot_of(q));
                const auto l = lin.nearest_if(q, no_ban);
                const auto g = grid.nearest_if(q, no_ban);
                ASSERT_EQ(l.has_value(), g.has_value());
                if (l.has_value()) {
                    ASSERT_EQ(l->first, g->first) << "id " << q;
                    ASSERT_EQ(l->second, g->second) << "id " << q;
                }
            }
        }
    }
    // 300 -> 74 -> 18: at least two adaptive rebuilds on the way down.
    EXPECT_GE(grid.rebuilds(), 2);
}

TEST(GridIndex, BoundedFoldInWalkReportsEveryImprovableRoot) {
    // Random arcs — a quarter of them escaping the initial hull, so they
    // sit clamped in border cells — with random NN distances that are
    // raised (with raise_nn_bound, as the engine does), lowered (which
    // keeps every bound valid), erased (past 3/4 of the population the
    // grid rebuilds) and re-inserted.  After every operation the per-cell
    // bounds must dominate their occupants' NN distances, and every walk
    // must report each live root whose gap to the query is below its NN
    // distance, with the scalar arc distance, bit for bit.  Queries that
    // land among escaped arcs are what catch a lower bound treating the
    // border cells as closed boxes.
    const auto inst = seeded_instance(240, 61, true, 4);
    clock_tree t;
    std::vector<node_id> live;
    for (std::size_t i = 0; i < inst.sinks.size(); ++i)
        live.push_back(t.add_leaf(inst, static_cast<int>(i)));
    geom::tilted_rect hull = t.node(live.front()).arc;
    for (const node_id id : live) hull = hull.hull(t.node(id).arc);
    const double ext = std::max(hull.u().length(), hull.v().length());

    gen::rng rng(17);
    const auto random_arc = [&] {
        const double reach = rng.below(4) == 0 ? 2.0 * ext : 0.0;
        const auto axis = [&](const geom::interval& h) {
            const double lo = rng.uniform(h.lo - reach, h.hi + reach);
            const double len =
                rng.below(2) == 0 ? 0.0 : rng.uniform(0.0, ext / 4.0);
            return geom::interval(lo, lo + len);
        };
        const geom::interval u = axis(hull.u());
        return geom::tilted_rect(u, axis(hull.v()));
    };

    grid_index grid(&t, live);
    std::vector<double> nn(t.size(), 0.0);  // id -> NN distance stand-in
    const auto raise = [&](node_id id) {
        nn[static_cast<std::size_t>(id)] = rng.uniform(0.0, ext / 4.0);
        grid.raise_nn_bound(id, nn[static_cast<std::size_t>(id)]);
    };
    const auto add_root = [&] {
        const node_id c = t.add_internal(live[0], live[1], random_arc(), 0.0,
                                         0.0, 0.0, t.node(live[0]).delays);
        nn.resize(t.size(), 0.0);
        grid.insert(c);
        live.push_back(c);
        raise(c);
    };
    for (const node_id id : live) raise(id);
    for (int k = 0; k < 40; ++k) add_root();
    ASSERT_EQ(audit::verify_grid_nn_bounds(grid, nn), "");

    int walks = 0;
    for (int step = 0; step < 2000; ++step) {
        const auto pick = [&] {
            return static_cast<std::size_t>(rng.below(live.size()));
        };
        switch (rng.below(8)) {
            case 0:
                raise(live[pick()]);
                break;
            case 1:
                nn[static_cast<std::size_t>(live[pick()])] *= rng.uniform();
                break;
            case 2:
            case 3:
            case 4:
                if (live.size() > 12) {
                    const std::size_t k = pick();
                    grid.erase(live[k]);
                    live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
                }
                break;
            case 5:
                add_root();
                break;
            default: {
                ++walks;
                // Half the queries sit on a live root, the way a merged
                // root's arc sits near its children — escaped ones too.
                const geom::tilted_rect q =
                    rng.below(2) == 0
                        ? random_arc()
                        : t.node(live[pick()])
                              .arc.expanded(rng.uniform(0.0, ext / 16.0));
                double radius = 0.0;
                std::vector<node_id> want;
                for (const node_id id : live) {
                    const double d_id = nn[static_cast<std::size_t>(id)];
                    radius = std::max(radius, d_id);
                    if (t.node(id).arc.distance(q) < d_id) want.push_back(id);
                }
                std::unordered_set<node_id> seen;
                grid.for_each_improvable(
                    q, radius, nn, [&](node_id id, double d) {
                        EXPECT_EQ(d, t.node(id).arc.distance(q)) << id;
                        EXPECT_NE(grid.slot_of(id), -1) << id;
                        seen.insert(id);
                        // Half the time fold like the engine does.
                        double& d_id = nn[static_cast<std::size_t>(id)];
                        if (d < d_id && rng.below(2) == 0) d_id = d;
                    });
                for (const node_id id : want)
                    ASSERT_EQ(seen.count(id), 1u)
                        << "step " << step << ": improvable id " << id
                        << " not reported";
                break;
            }
        }
        ASSERT_EQ(audit::verify_grid_nn_bounds(grid, nn), "")
            << "step " << step;
    }
    EXPECT_GT(walks, 300);
    EXPECT_GE(grid.rebuilds(), 1);
}

}  // namespace
}  // namespace astclk::core
