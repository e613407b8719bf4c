#pragma once

/// \file dary_heap.hpp
/// Addressable implicit d-ary heap primitives over caller-owned vectors —
/// the engine's selection and influence-radius heaps.
///
/// Addressable: every element carries an integral id in its member `a`,
/// and the heap holds at most one element per id.  A caller-owned
/// position map `pos` (id -> index into `h`, `knpos` when the id holds no
/// element) is kept exact by every primitive, so an element is updated or
/// erased in place through its id — no lazy deletion, no stale entries to
/// skip on pop, and the heap never holds more elements than live ids.
///
/// Why d-ary: a 4-ary layout halves the tree depth, so sift-up (every
/// push and every key decrease) touches half the levels, and the four
/// children of a node share one cache line of engine-sized elements.
///
/// Semantics follow the std heap algorithms: the comparator is a strict
/// weak "less" and the *maximum* under it sits at `h.front()` (a min-heap
/// is expressed by inverting the comparator, exactly as with
/// std::push_heap).  Under a *total* order the front is therefore the
/// unique maximum whatever the layout or the operation history, which is
/// what keeps the engine's (key, a, b) selection order — and so its
/// trees — independent of how the heap is laid out
/// (tests/test_dary_heap.cpp checks the heap against a lazy-deletion
/// reference).
///
/// The functions operate on plain std::vector storage owned by the caller
/// (engine_scratch's reusable buffers): no container adaptor, no
/// allocation beyond the vectors' own growth, so heap and position-map
/// storage is pooled across engine runs like every other scratch buffer.
/// The position map must cover every id pushed (callers grow it with the
/// id space, filled with `knpos`).

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace astclk::core {

/// Heap arity used by the merge engine's selection and radius heaps.
inline constexpr std::size_t kheap_arity = 4;

/// Position-map value of an id that holds no heap element.
inline constexpr std::uint32_t knpos =
    std::numeric_limits<std::uint32_t>::max();

namespace detail {

template <class T>
[[nodiscard]] std::size_t heap_id(const T& e) {
    return static_cast<std::size_t>(e.a);
}

/// Fill the hole at `i` with `x`, moving it toward the root while it
/// outranks its parent (one move per level instead of a swap).
template <class Cmp, std::size_t D, class T>
void sift_up(std::vector<T>& h, std::vector<std::uint32_t>& pos,
             std::size_t i, T x) {
    const Cmp less{};
    while (i > 0) {
        const std::size_t parent = (i - 1) / D;
        if (!less(h[parent], x)) break;
        h[i] = std::move(h[parent]);
        pos[heap_id(h[i])] = static_cast<std::uint32_t>(i);
        i = parent;
    }
    pos[heap_id(x)] = static_cast<std::uint32_t>(i);
    h[i] = std::move(x);
}

/// Fill the hole at `i` with `x`, moving it toward the leaves while a
/// child outranks it.
template <class Cmp, std::size_t D, class T>
void sift_down(std::vector<T>& h, std::vector<std::uint32_t>& pos,
               std::size_t i, T x) {
    const Cmp less{};
    const std::size_t n = h.size();
    for (;;) {
        const std::size_t first = i * D + 1;
        if (first >= n) break;
        std::size_t best = first;
        const std::size_t last = std::min(first + D, n);
        for (std::size_t c = first + 1; c < last; ++c)
            if (less(h[best], h[c])) best = c;
        if (!less(x, h[best])) break;
        h[i] = std::move(h[best]);
        pos[heap_id(h[i])] = static_cast<std::uint32_t>(i);
        i = best;
    }
    pos[heap_id(x)] = static_cast<std::uint32_t>(i);
    h[i] = std::move(x);
}

/// Fill the hole at `i` with `x`, sifting whichever way restores order.
template <class Cmp, std::size_t D, class T>
void reseat(std::vector<T>& h, std::vector<std::uint32_t>& pos,
            std::size_t i, T x) {
    if (i > 0 && Cmp{}(h[(i - 1) / D], x))
        sift_up<Cmp, D>(h, pos, i, std::move(x));
    else
        sift_down<Cmp, D>(h, pos, i, std::move(x));
}

}  // namespace detail

/// Insert `e`; its id must hold no element yet.
template <class Cmp, std::size_t D = kheap_arity, class T>
void dary_push(std::vector<T>& h, std::vector<std::uint32_t>& pos,
               const T& e) {
    static_assert(D >= 2, "a heap needs at least two children per node");
    assert(pos[detail::heap_id(e)] == knpos);
    h.push_back(e);
    detail::sift_up<Cmp, D>(h, pos, h.size() - 1, e);
}

/// Replace the element held by `e`'s id (which must hold one) with `e`,
/// in place: sifts up on a raised rank, down on a lowered one.
template <class Cmp, std::size_t D = kheap_arity, class T>
void dary_update(std::vector<T>& h, std::vector<std::uint32_t>& pos,
                 const T& e) {
    static_assert(D >= 2, "a heap needs at least two children per node");
    const std::uint32_t i = pos[detail::heap_id(e)];
    assert(i != knpos);
    detail::reseat<Cmp, D>(h, pos, i, e);
}

/// Remove the element held by `id` (which must hold one).  The tail
/// element fills the hole; `dary_erase(h, pos, h.front().a)` is a pop.
template <class Cmp, std::size_t D = kheap_arity, class T>
void dary_erase(std::vector<T>& h, std::vector<std::uint32_t>& pos,
                std::size_t id) {
    static_assert(D >= 2, "a heap needs at least two children per node");
    const std::uint32_t i = pos[id];
    assert(i != knpos);
    pos[id] = knpos;
    T x = std::move(h.back());
    h.pop_back();
    if (i == h.size()) return;  // the tail itself was erased
    detail::reseat<Cmp, D>(h, pos, i, std::move(x));
}

}  // namespace astclk::core
