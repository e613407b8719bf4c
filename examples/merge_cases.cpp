// Walkthrough of the paper's merge-case geometry (Figs. 1, 3, 4, 5) using
// the public geometry and solver APIs — prints the regions and solved
// splits so the cases can be inspected by hand.
//
//   $ ./merge_cases

#include "core/merge_solver.hpp"
#include "geom/octagon.hpp"

#include <iostream>
#include <utility>

using namespace astclk;

namespace {

void print_region(const char* label, const geom::octagon& o) {
    std::cout << label << ":\n  slabs " << o << "\n  vertices:";
    for (const auto& v : o.vertices())
        std::cout << " (" << v.x << ", " << v.y << ")";
    std::cout << "\n  area " << o.area() << "\n\n";
}

}  // namespace

int main() {
    std::cout << "=== Merging segments and regions, case by case ===\n\n";

    // --- Case 1 (same group): classic DME merging segment ------------------
    {
        const auto a = geom::tilted_rect::at(geom::point{0, 0});
        const auto b = geom::tilted_rect::at(geom::point{8, 4});
        const double d = a.distance(b);
        const auto ms = geom::merging_segment(a, b, d / 2, d / 2);
        std::cout << "Case 1 (same group, equal halves): sinks (0,0), (8,4), "
                     "d = " << d << "\n  merging segment (tilted) " << ms
                  << "\n  is Manhattan arc: " << std::boolalpha
                  << ms.is_manhattan_arc() << "\n\n";
    }

    // --- Case 2 (different groups): the SDR (Fig. 3) ------------------------
    {
        const geom::tilted_rect ms_a{geom::interval::at(10.0),
                                     geom::interval{-5.0, 5.0}};
        const geom::tilted_rect ms_b{geom::interval{30.0, 40.0},
                                     geom::interval::at(2.0)};
        std::cout << "Case 2 (different groups, Fig. 3): distance "
                  << ms_a.distance(ms_b) << '\n';
        print_region("  shortest-distance region",
                     geom::shortest_distance_region(ms_a, ms_b));
    }

    // --- Cases 3/4 (partially shared groups, Figs. 4-5) ---------------------
    {
        topo::instance inst;
        inst.num_groups = 2;
        inst.die_width = inst.die_height = 5000.0;
        inst.source = {0, 0};
        inst.sinks = {{{0, 0}, 10e-15, 0},     {{60, 0}, 10e-15, 1},
                      {{2205, 0}, 10e-15, 0},  {{1200, 0}, 10e-15, 1},
                      {{3200, 0}, 10e-15, 1}};
        topo::clock_tree t;
        std::vector<topo::node_id> leaves;
        for (int i = 0; i < 5; ++i) leaves.push_back(t.add_leaf(inst, i));
        core::merge_solver solver(rc::delay_model::elmore(),
                                  core::skew_spec::zero());
        const auto commit = [&](topo::node_id x, topo::node_id y) {
            auto p = solver.plan(t, x, y);
            return solver.commit(t, x, y, std::move(*p));
        };
        const auto left = commit(leaves[0], leaves[1]);    // {G0, G1}
        const auto deep = commit(leaves[3], leaves[4]);    // deep G1 pair
        const auto right = commit(leaves[2], deep);        // {G0, G1}

        const auto& dl = t.node(left).delays;
        const auto& dr = t.node(right).delays;
        std::cout << "Case 4 (Fig. 5): two subtrees each spanning {G0, G1}\n"
                  << "  left  frozen offset t_G0 - t_G1 = "
                  << rc::to_ps(dl.find(0)->lo - dl.find(1)->lo) << " ps\n"
                  << "  right frozen offset t_G0 - t_G1 = "
                  << rc::to_ps(dr.find(0)->lo - dr.find(1)->lo) << " ps\n";
        const auto plan = solver.plan(t, left, right);
        if (plan.has_value()) {
            std::cout << "  merge solved with " << plan->snakes.size()
                      << " interior snake(s) (Eq. 5.2 gamma";
            for (const auto& s : plan->snakes)
                std::cout << " " << s.gamma << "u/+"
                          << rc::to_ps(s.delay_shift) << "ps";
            std::cout << "), alpha = " << plan->alpha
                      << ", beta = " << plan->beta
                      << ", wire cost = " << plan->cost << '\n';
        } else {
            std::cout << "  merge rejected (irreparable conflict)\n";
        }
    }
    return 0;
}
