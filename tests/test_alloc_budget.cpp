// Allocation budget of the default request: AST-DME `automatic` at a
// 10 ps bound (the soft ledger) on l1 and l3, clustered and intermingled
// (8 groups).  A counting global operator new brackets route(); the
// heap allocations per merge must stay at most kbudget.  What a route
// cannot avoid is about two per merge — one delay map per leaf and one
// per merged root — so the budget leaves half an allocation per merge for
// everything else: re-solved plans, bans, the scratch and index arrays,
// embedding and the result.  A per-merge allocation slipping back into
// the plan solve, the reverse-NN lists or the grid cells breaks it.
//
// Skipped in sanitizer builds (they interpose the allocator themselves)
// and audit builds (the checkpoint sweeps allocate by design).

#include "core/strategy.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>

#if !defined(ASTCLK_SANITIZED) && !defined(ASTCLK_AUDIT)
#define ASTCLK_COUNT_ALLOCS 1

namespace {
std::atomic<long long> g_allocs{0};

void* counted_alloc(std::size_t n) {
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
    throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
#endif

namespace astclk::core {
namespace {

constexpr double kbudget = 2.5;  // heap allocations per merge

void expect_within_budget(const std::string& circuit, bool intermingled) {
#ifndef ASTCLK_COUNT_ALLOCS
    (void)circuit;
    (void)intermingled;
    GTEST_SKIP() << "allocation counting is off in sanitizer and audit "
                    "builds";
#else
    topo::instance inst = gen::generate(gen::large_spec(circuit));
    if (intermingled)
        gen::apply_intermingled_groups(inst, 8, 7);
    else
        gen::apply_clustered_groups(inst, 8);
    routing_request req;
    req.instance = &inst;
    req.strategy = strategy_id::ast_dme;
    req.mode = ast_mode::automatic;
    req.spec = skew_spec::uniform(10e-12);

    const long long before = g_allocs.load();
    const route_result res = route(req);
    const long long allocs = g_allocs.load() - before;

    ASSERT_TRUE(res.ok()) << res.status_message;
    ASSERT_EQ(static_cast<std::size_t>(res.stats.merges),
              inst.sinks.size() - 1);
    const double per_merge =
        static_cast<double>(allocs) / static_cast<double>(res.stats.merges);
    std::printf("%s %s: %.3f allocations per merge\n", circuit.c_str(),
                intermingled ? "intermingled" : "clustered", per_merge);
    EXPECT_LE(per_merge, kbudget)
        << circuit << (intermingled ? " intermingled" : " clustered") << ": "
        << allocs << " allocations over " << res.stats.merges << " merges";
#endif
}

TEST(AllocBudget, L1ClusteredAutomatic10ps) {
    expect_within_budget("l1", false);
}
TEST(AllocBudget, L1IntermingledAutomatic10ps) {
    expect_within_budget("l1", true);
}
TEST(AllocBudget, L3ClusteredAutomatic10ps) {
    expect_within_budget("l3", false);
}
TEST(AllocBudget, L3IntermingledAutomatic10ps) {
    expect_within_budget("l3", true);
}

}  // namespace
}  // namespace astclk::core
