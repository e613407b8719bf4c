// Race-stress suite (DESIGN.md §12): the workload the TSan configuration
// (-DASTCLK_SANITIZE=thread) exists for.  Small instances are routed
// through every concurrent path at once — the service's worker pool, the
// sharded sub-reduce fan-out, concurrent cancellation and deterministic
// fault injection — so a data race in any
// of the synchronization layers has maximal opportunity to surface under
// the race detector.
//
// The suite runs (cheaply) in the plain configuration too, where it
// doubles as a determinism matrix: whatever the thread count or
// submission interleaving, every completed tree must be
// bit-identical to the sequential reference for its shard count.

#include "core/route_service.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

namespace astclk::core {
namespace {

topo::instance stress_instance(int n, int groups, std::uint64_t seed) {
    gen::instance_spec spec = gen::paper_spec("r1");
    spec.num_sinks = n;
    spec.seed = seed;
    auto inst = gen::generate(spec);
    if (groups > 1) gen::apply_intermingled_groups(inst, groups, seed + 1);
    return inst;
}

routing_request make_request(const topo::instance& inst, int shards) {
    routing_request r;
    r.instance = &inst;
    r.strategy = strategy_id::ast_dme;
    // Windowed mode keeps the solver ledger-free: sharding (the fan-out
    // this suite stresses) disables itself behind a ledger.
    r.mode = ast_mode::windowed;
    r.options.engine.shards = shards;
    return r;
}

void expect_same_tree(const route_result& got, const route_result& ref,
                      const std::string& what) {
    ASSERT_TRUE(got.ok()) << what << ": " << got.status_message;
    ASSERT_TRUE(ref.ok()) << what << ": " << ref.status_message;
    EXPECT_EQ(got.wirelength, ref.wirelength) << what;
    EXPECT_EQ(got.stats.merges, ref.stats.merges) << what;
    EXPECT_EQ(got.stats.snake_wire, ref.stats.snake_wire) << what;
    ASSERT_EQ(got.tree.size(), ref.tree.size()) << what;
    for (std::size_t i = 0; i < got.tree.size(); ++i) {
        const auto& gn = got.tree.node(static_cast<topo::node_id>(i));
        const auto& rn = ref.tree.node(static_cast<topo::node_id>(i));
        ASSERT_EQ(gn.left, rn.left) << what << " node " << i;
        ASSERT_EQ(gn.right, rn.right) << what << " node " << i;
        ASSERT_EQ(gn.edge_left, rn.edge_left) << what << " node " << i;
        ASSERT_EQ(gn.edge_right, rn.edge_right) << what << " node " << i;
    }
}

/// Every fan-out at once: for each worker count, one service routes the
/// full {shards} matrix over two instances concurrently,
/// and each completion must be bit-identical to the sequential reference
/// of its (instance, shard count) cell.
TEST(RaceStress, ConcurrentMatrixIsBitIdentical) {
    const auto small = stress_instance(40, 4, 7);
    const auto medium = stress_instance(72, 4, 11);
    const std::vector<const topo::instance*> instances{&small, &medium};
    const int shard_counts[] = {1, 4};

    // Sequential references, one per (instance, shard count).
    route_result refs[2][2];
    for (int ii = 0; ii < 2; ++ii)
        for (int si = 0; si < 2; ++si) {
            refs[ii][si] =
                route(make_request(*instances[ii], shard_counts[si]));
            ASSERT_TRUE(refs[ii][si].ok()) << refs[ii][si].status_message;
        }

    for (const int threads : {2, 4}) {
        service_options sopt;
        sopt.threads = threads;
        route_service svc(sopt);
        struct pending {
            route_handle h;
            int ii, si;
            std::string what;
        };
        std::vector<pending> inflight;
        for (int rep = 0; rep < 2; ++rep)
            for (int ii = 0; ii < 2; ++ii)
                for (int si = 0; si < 2; ++si) {
                    submit_options so;
                    so.priority = rep;  // exercise the priority queue
                    inflight.push_back(
                        {svc.submit(make_request(*instances[ii],
                                                 shard_counts[si]),
                                    so),
                         ii, si,
                         "threads=" + std::to_string(threads) +
                             " inst=" + std::to_string(ii) + " shards=" +
                             std::to_string(shard_counts[si])});
                }
        for (auto& p : inflight)
            expect_same_tree(p.h.wait(), refs[p.ii][p.si], p.what);
    }
}

/// Deterministic fault injection under concurrency: seeded fault plans
/// fire mid-route on several workers at once while healthy submissions
/// share the pool.  Faulted requests may retry; every terminal status must
/// be coherent, and any attempt that ends ok must still be bit-identical
/// to the sequential reference.
TEST(RaceStress, ConcurrentFaultInjectionStaysCoherent) {
    const auto inst = stress_instance(48, 4, 3);
    const route_result ref = route(make_request(inst, 1));
    ASSERT_TRUE(ref.ok()) << ref.status_message;
    const route_result ref4 = route(make_request(inst, 4));
    ASSERT_TRUE(ref4.ok()) << ref4.status_message;

    service_options sopt;
    sopt.threads = 4;
    route_service svc(sopt);

    std::vector<std::unique_ptr<fault_plan>> plans;  // outlive every poll
    std::vector<route_handle> handles;
    std::vector<int> shard_of;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        auto plan = std::make_unique<fault_plan>();
        plan->schedule(fault_site::selection, 3 * seed,
                       fault_kind::transient_solver);
        plan->schedule(fault_site::round, seed, fault_kind::alloc_failure);
        if (seed % 2 == 0)
            plan->schedule(fault_site::shard, (seed / 2) % 4 + 1,
                           fault_kind::poisoned_shard);
        plans.push_back(std::move(plan));
        const int shards = (seed % 2 == 0) ? 4 : 1;
        routing_request req = make_request(inst, shards);
        req.options.engine.cancel.set_faults(plans.back().get());
        submit_options so;
        so.retry.max_attempts = 2;
        handles.push_back(svc.submit(req, so));
        shard_of.push_back(shards);
        // Interleave healthy traffic so fault unwinds race completions.
        handles.push_back(svc.submit(make_request(inst, shards)));
        shard_of.push_back(shards);
    }
    for (std::size_t i = 0; i < handles.size(); ++i) {
        route_result res = handles[i].wait();
        switch (res.status) {
            case route_status::ok:
                expect_same_tree(res, shard_of[i] == 4 ? ref4 : ref,
                                 "fault matrix #" + std::to_string(i));
                break;
            case route_status::transient_fault:
            case route_status::data_fault:
            case route_status::degraded:
                EXPECT_FALSE(res.status_message.empty());
                break;
            default:
                FAIL() << "unexpected terminal status "
                       << res.status_message;
        }
    }
    // The pool survived every unwind: the service still routes cleanly.
    expect_same_tree(svc.route(make_request(inst, 1)), ref, "post-fault");
}

/// Concurrent cancellation: handles cancelled from the driving thread
/// while workers are mid-route (or before they start).  Whatever the
/// interleaving, each result is ok (bit-identical) or cancelled, the
/// scratch pool stays balanced, and the service remains usable.
TEST(RaceStress, ConcurrentCancellationIsClean) {
    const auto inst = stress_instance(72, 4, 5);
    const route_result ref = route(make_request(inst, 1));
    ASSERT_TRUE(ref.ok()) << ref.status_message;

    service_options sopt;
    sopt.threads = 4;
    route_service svc(sopt);
    for (int round = 0; round < 3; ++round) {
        std::vector<route_handle> handles;
        for (int i = 0; i < 8; ++i)
            handles.push_back(svc.submit(make_request(inst, 1)));
        for (std::size_t i = 0; i < handles.size(); i += 2)
            handles[i].cancel();
        for (std::size_t i = 0; i < handles.size(); ++i) {
            route_result res = handles[i].wait();
            if (res.status == route_status::ok)
                expect_same_tree(res, ref,
                                 "cancel round " + std::to_string(round));
            else
                EXPECT_EQ(res.status, route_status::cancelled)
                    << res.status_message;
        }
    }
    expect_same_tree(svc.route(make_request(inst, 1)), ref, "post-cancel");
}

}  // namespace
}  // namespace astclk::core
