// dary_heap.hpp property tests: the addressable 4-ary (and other-arity)
// heap must pop exactly what a lazy-deletion heap with per-id generation
// counters would — the design the merge engine's selection and radius
// heaps replaced without changing a single tree.

#include "core/dary_heap.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <random>
#include <vector>

namespace astclk::core {
namespace {

/// A selection-style entry: key, owning id `a` and a payload `b` that
/// tells the latest update of an id from earlier ones.
struct entry {
    double key;
    int a, b;
    bool operator==(const entry&) const = default;
};

/// The engine's sel_order: min-heap on (key, a) via an inverted "less" —
/// a total order on a heap holding one entry per id.
struct min_order {
    bool operator()(const entry& x, const entry& y) const {
        if (x.key != y.key) return x.key > y.key;
        return x.a > y.a;
    }
};

/// The engine's rad_order: max-heap on key alone (a partial order — ties
/// are real, as in the radius heap).
struct max_order {
    bool operator()(const entry& x, const entry& y) const {
        return x.key < y.key;
    }
};

/// Reference: the lazy-deletion heap the engine used before — std heap
/// algorithms, every update a fresh push stamped with the owner's bumped
/// generation, erase a bare bump, stale entries skipped at the top.
template <class Cmp>
class lazy_heap {
  public:
    explicit lazy_heap(std::size_t ids) : gen_(ids, 0) {}

    void set(const entry& e) {
        const auto id = static_cast<std::size_t>(e.a);
        h_.push_back({e, ++gen_[id]});
        std::push_heap(h_.begin(), h_.end(), order{});
    }
    void erase(int id) { ++gen_[static_cast<std::size_t>(id)]; }
    [[nodiscard]] bool empty() {
        drop_stale();
        return h_.empty();
    }
    [[nodiscard]] entry front() {
        drop_stale();
        return h_.front().e;
    }
    void pop() {
        drop_stale();
        erase(h_.front().e.a);
    }

  private:
    struct stamped {
        entry e;
        std::uint32_t gen;
    };
    struct order {
        bool operator()(const stamped& x, const stamped& y) const {
            return Cmp{}(x.e, y.e);
        }
    };
    void drop_stale() {
        while (!h_.empty() &&
               h_.front().gen != gen_[static_cast<std::size_t>(
                                     h_.front().e.a)]) {
            std::pop_heap(h_.begin(), h_.end(), order{});
            h_.pop_back();
        }
    }
    std::vector<stamped> h_;
    std::vector<std::uint32_t> gen_;
};

/// The addressable heap under test, with the engine's insert-or-replace.
template <class Cmp, std::size_t D = kheap_arity>
struct addr_heap {
    std::vector<entry> h;
    std::vector<std::uint32_t> pos;
    explicit addr_heap(std::size_t ids) : pos(ids, knpos) {}

    void set(const entry& e) {
        if (pos[static_cast<std::size_t>(e.a)] == knpos)
            dary_push<Cmp, D>(h, pos, e);
        else
            dary_update<Cmp, D>(h, pos, e);
    }
    void erase(int id) {
        if (pos[static_cast<std::size_t>(id)] != knpos)
            dary_erase<Cmp, D>(h, pos, static_cast<std::size_t>(id));
    }
    void pop() { erase(h.front().a); }
    [[nodiscard]] bool consistent() const {
        for (std::size_t i = 0; i < h.size(); ++i)
            if (pos[static_cast<std::size_t>(h[i].a)] != i) return false;
        std::size_t placed = 0;
        for (const std::uint32_t p : pos) placed += p != knpos ? 1 : 0;
        return placed == h.size();
    }
};

TEST(DaryHeap, SelectionOrderPopsMatchLazyReference) {
    // Random interleavings of insert, key raise, key drop, erase and pop
    // over a small id space with keys drawn from 8 values, so ties are
    // everywhere.  Under the total (key, a) order both heaps must pop the
    // same entries, payloads included, in the same order.
    constexpr int kids = 40;
    std::mt19937 rng(20261017);
    for (int trial = 0; trial < 40; ++trial) {
        lazy_heap<min_order> ref(kids);
        addr_heap<min_order> dut(kids);
        std::vector<double> key(kids, -1.0);  // -1: id holds no entry
        for (int op = 0; op < 1500; ++op) {
            const int id = static_cast<int>(rng() % kids);
            const auto si = static_cast<std::size_t>(id);
            const unsigned what = rng() % 8;
            if (what < 4) {  // insert, or raise / drop an existing key
                double k = static_cast<double>(rng() % 8);
                if (key[si] >= 0.0 && what == 1) k = key[si] + 1.0;
                if (key[si] >= 1.0 && what == 2) k = key[si] - 1.0;
                const entry e{k, id, static_cast<int>(rng() % 5)};
                ref.set(e);
                dut.set(e);
                key[si] = k;
            } else if (what < 6) {
                ref.erase(id);
                dut.erase(id);
                key[si] = -1.0;
            } else {
                ASSERT_EQ(dut.h.empty(), ref.empty()) << "trial " << trial;
                if (dut.h.empty()) continue;
                ASSERT_EQ(dut.h.front(), ref.front()) << "trial " << trial;
                key[static_cast<std::size_t>(dut.h.front().a)] = -1.0;
                ref.pop();
                dut.pop();
            }
            ASSERT_TRUE(dut.consistent()) << "trial " << trial;
            ASSERT_LE(dut.h.size(), static_cast<std::size_t>(kids));
        }
        while (!ref.empty()) {
            ASSERT_FALSE(dut.h.empty());
            ASSERT_EQ(dut.h.front(), ref.front());
            ref.pop();
            dut.pop();
        }
        EXPECT_TRUE(dut.h.empty());
    }
}

TEST(DaryHeap, RadiusOrderFrontMatchesLazyReference) {
    // Under max_order ties break arbitrarily, so the front's identity may
    // differ — but its key (what current_radius reads) may not.
    constexpr int kids = 60;
    std::mt19937 rng(7);
    lazy_heap<max_order> ref(kids);
    addr_heap<max_order> dut(kids);
    for (int op = 0; op < 5000; ++op) {
        const int id = static_cast<int>(rng() % kids);
        if (rng() % 3 == 0) {
            ref.erase(id);
            dut.erase(id);
        } else {
            const entry e{static_cast<double>(rng() % 10), id, 0};
            ref.set(e);
            dut.set(e);
        }
        ASSERT_EQ(dut.h.empty(), ref.empty());
        if (!dut.h.empty()) {
            ASSERT_EQ(dut.h.front().key, ref.front().key);
        }
        ASSERT_TRUE(dut.consistent());
    }
}

TEST(DaryHeap, OtherAritiesDrainSortedToo) {
    // The arity is a template knob; every D drains the same sorted
    // sequence under a total order.
    std::mt19937 rng(11);
    std::vector<entry> in;
    for (int i = 0; i < 300; ++i)
        in.push_back({static_cast<double>(rng() % 25), i,
                      static_cast<int>(rng() % 9)});
    std::vector<entry> sorted = in;
    std::sort(sorted.begin(), sorted.end(), [](const entry& x, const entry& y) {
        return min_order{}(y, x);  // ascending under the min-heap order
    });
    const auto drain = [&in](auto heap) {
        std::vector<entry> out;
        for (const entry& e : in) heap.set(e);
        while (!heap.h.empty()) {
            out.push_back(heap.h.front());
            heap.pop();
        }
        return out;
    };
    EXPECT_EQ(drain(addr_heap<min_order, 2>(in.size())), sorted);
    EXPECT_EQ(drain(addr_heap<min_order, 8>(in.size())), sorted);
}

TEST(DaryHeap, SingleElementAndRepeatedReuse) {
    addr_heap<min_order> heap(10);
    heap.set({1.0, 2, 3});
    EXPECT_EQ(heap.h.front(), (entry{1.0, 2, 3}));
    heap.set({4.0, 2, 3});  // update in place: still one entry
    EXPECT_EQ(heap.h.size(), 1u);
    heap.pop();
    EXPECT_TRUE(heap.h.empty());
    EXPECT_TRUE(heap.consistent());
    // Reuse the same storage (the engine_scratch pattern): capacity
    // persists, behaviour resets.
    for (int round = 0; round < 3; ++round) {
        for (int i = 9; i >= 0; --i)
            heap.set({static_cast<double>(i), i, i});
        for (int i = 0; i < 10; ++i) {
            EXPECT_EQ(heap.h.front().key, static_cast<double>(i));
            heap.pop();
        }
        EXPECT_TRUE(heap.h.empty());
        EXPECT_TRUE(heap.consistent());
    }
}

}  // namespace
}  // namespace astclk::core
