// Tree-hash identity driver: routes a fixed matrix of configurations and
// prints, per configuration, an FNV-1a hash over everything a route
// produces — status, wirelength, every engine_stats field and every node
// (id, children, parent, sink, arc, edge lengths, capacitance, delay map,
// placement).  Changes that must not move any tree (refactors, perf work)
// are checked by building this driver at both commits and diffing the
// outputs; doubles are hashed by bit pattern, so the check is bit-exact.
//
// Within one run it also certifies the knobs that must never change a
// result: every configuration is routed directly (no pool) as the
// reference and again through a 4-worker route_service, and on the r
// circuits with the linear NN backend; a variant whose hash differs from
// the reference is printed as MISMATCH and the driver exits 1.
//
// Matrix (full): r1–r5 and l1 × {clustered, intermingled k=8} × AST-DME
// {automatic, windowed, soft_ledger, exact_ledger} × {0, 10 ps} × shards
// {1, 4} × true-cost ordering {on, off} × merge order {nearest_pair,
// multi_merge} (768 configurations), plus ZST-DME and EXT-BST at 10 ps
// per circuit × shards {1, 4} × merge order, plus the default request
// (automatic at 10 ps) and auto-shard windowed on l2–l3.  `--quick` runs
// r1 only with true-cost on and both merge orders (ctest smoke run).
//
//   tree_hash [--quick]

#include "common.hpp"

#include <bit>
#include <cstdint>
#include <cstdio>
#include <cstring>

using namespace astclk;

namespace {

struct fnv1a {
    std::uint64_t h = 0xcbf29ce484222325ull;
    void bytes(const void* p, std::size_t n) {
        const auto* b = static_cast<const unsigned char*>(p);
        for (std::size_t i = 0; i < n; ++i) {
            h ^= b[i];
            h *= 0x100000001b3ull;
        }
    }
    void i64(long long v) { bytes(&v, sizeof v); }
    void f64(double v) { i64(std::bit_cast<long long>(v)); }
    void iv(const geom::interval& v) {
        f64(v.lo);
        f64(v.hi);
    }
};

std::uint64_t hash_result(const core::route_result& r) {
    fnv1a f;
    f.i64(static_cast<int>(r.status));
    f.f64(r.wirelength);
    const core::engine_stats& s = r.stats;
    for (const long long v :
         {0LL + s.merges, 0LL + s.disjoint_merges, 0LL + s.shared_merges,
          0LL + s.multi_shared_merges, 0LL + s.root_snakes,
          0LL + s.interior_snakes, 0LL + s.rejected_pairs,
          0LL + s.forced_merges, 0LL + s.rounds, 0LL + s.batch_planned,
          0LL + s.kernel_fallbacks, 0LL + s.shards})
        f.i64(v);
    f.f64(s.snake_wire);
    f.f64(s.worst_violation);
    const topo::clock_tree& t = r.tree;
    f.i64(t.root());
    f.f64(t.source_edge());
    for (std::size_t i = 0; i < t.size(); ++i) {
        const topo::tree_node& n = t.node(static_cast<topo::node_id>(i));
        for (const long long v : {0LL + n.id, 0LL + n.left, 0LL + n.right,
                                  0LL + n.parent, 0LL + n.sink_index,
                                  0LL + n.is_placed})
            f.i64(v);
        f.iv(n.arc.u());
        f.iv(n.arc.v());
        f.f64(n.edge_left);
        f.f64(n.edge_right);
        f.f64(n.subtree_cap);
        for (const auto& [g, d] : n.delays.entries()) {
            f.i64(g);
            f.iv(d);
        }
        f.f64(n.placed.x);
        f.f64(n.placed.y);
    }
    return f.h;
}

struct circuit {
    std::string name;
    topo::instance clustered, intermingled;
};

circuit make_circuit(const gen::instance_spec& spec) {
    circuit c{spec.name, gen::generate(spec), {}};
    c.intermingled = c.clustered;
    gen::apply_clustered_groups(c.clustered, 8);
    gen::apply_intermingled_groups(c.intermingled, 8, 7);
    return c;
}

const char* mode_name(core::ast_mode m) {
    switch (m) {
        case core::ast_mode::automatic: return "automatic";
        case core::ast_mode::windowed: return "windowed";
        case core::ast_mode::soft_ledger: return "soft";
        case core::ast_mode::exact_ledger: return "exact";
    }
    return "?";
}

class driver {
  public:
    driver() : svc_(core::service_options{4, rc::delay_model::elmore()}) {}

    /// Route `req` directly, then through the pool (and with the linear
    /// backend when `linear`); print the reference hash, flag mismatches.
    void row(const std::string& name, core::routing_request req,
             bool linear) {
        const core::route_result ref = core::route(req);
        const std::uint64_t h = hash_result(ref);
        std::printf("%-52s %016llx merges=%d wl=%.17g status=%s\n",
                    name.c_str(), static_cast<unsigned long long>(h),
                    ref.stats.merges, ref.wirelength,
                    core::to_string(ref.status));
        ++rows_;
        check(name + " [pool]", h, svc_.submit(req).wait());
        if (linear) {
            req.options.engine.backend = core::nn_backend::linear;
            check(name + " [linear]", h, core::route(req));
        }
    }

    [[nodiscard]] int rows() const { return rows_; }
    [[nodiscard]] int mismatches() const { return mismatches_; }

  private:
    void check(const std::string& name, std::uint64_t want,
               const core::route_result& got) {
        const std::uint64_t h = hash_result(got);
        if (h == want) return;
        ++mismatches_;
        std::printf("MISMATCH %s: %016llx != %016llx\n", name.c_str(),
                    static_cast<unsigned long long>(h),
                    static_cast<unsigned long long>(want));
    }

    core::route_service svc_;
    int rows_ = 0;
    int mismatches_ = 0;
};

}  // namespace

int main(int argc, char** argv) {
    const bool quick = argc > 1 && std::strcmp(argv[1], "--quick") == 0;
    std::vector<gen::instance_spec> specs;
    if (quick) {
        specs.push_back(gen::paper_spec("r1"));
    } else {
        for (const auto& s : gen::paper_suite()) specs.push_back(s);
        specs.push_back(gen::large_spec("l1"));
    }

    driver d;
    const core::merge_order orders[] = {core::merge_order::nearest_pair,
                                        core::merge_order::multi_merge};
    for (const gen::instance_spec& spec : specs) {
        const circuit c = make_circuit(spec);
        // The O(n^2) linear backend is an oracle for the r circuits only.
        const bool linear = c.name[0] == 'r';
        for (const int shards : {1, 4}) {
            for (const core::merge_order order : orders) {
                const std::string tag = "/s" + std::to_string(shards) +
                                        (order == core::merge_order::multi_merge
                                             ? "/multi"
                                             : "/nearest");
                core::routing_request base;
                base.instance = &c.clustered;
                base.options.engine.shards = shards;
                base.options.engine.order = order;
                base.strategy = core::strategy_id::zst_dme;
                d.row(c.name + "/zst" + tag, base, linear);
                base.strategy = core::strategy_id::ext_bst;
                base.spec = core::skew_spec::uniform(10e-12);
                d.row(c.name + "/bst10" + tag, base, linear);

                for (const bool intermingled : {false, true})
                    for (const core::ast_mode mode :
                         {core::ast_mode::automatic, core::ast_mode::windowed,
                          core::ast_mode::soft_ledger,
                          core::ast_mode::exact_ledger})
                        for (const double bound : {0.0, 10e-12})
                            for (const bool true_cost : {true, false}) {
                                if (quick && !true_cost) continue;
                                core::routing_request req = base;
                                req.strategy = core::strategy_id::ast_dme;
                                req.instance = intermingled ? &c.intermingled
                                                            : &c.clustered;
                                req.mode = mode;
                                req.spec = core::skew_spec::uniform(bound);
                                req.options.engine.true_cost_ordering =
                                    true_cost;
                                d.row(c.name +
                                          (intermingled ? "/inter" : "/clust") +
                                          "/" + mode_name(mode) +
                                          (bound > 0.0 ? "/10ps" : "/0ps") +
                                          tag + (true_cost ? "/tc" : "/dist"),
                                      req, linear);
                            }
            }
        }
    }

    if (!quick) {
        // The default request at scale, and its sharded windowed sibling.
        for (const char* name : {"l2", "l3"}) {
            const circuit c = make_circuit(gen::large_spec(name));
            for (const bool intermingled : {false, true}) {
                core::routing_request req;
                req.instance = intermingled ? &c.intermingled : &c.clustered;
                req.spec = core::skew_spec::uniform(10e-12);
                const std::string g = intermingled ? "/inter" : "/clust";
                d.row(c.name + g + "/automatic/10ps/s1/nearest/tc", req,
                      false);
                req.mode = core::ast_mode::windowed;
                req.options.engine.shards = 0;
                d.row(c.name + g + "/windowed/10ps/sauto/nearest/tc", req,
                      false);
            }
        }
    }

    std::printf("rows %d, mismatches %d\n", d.rows(), d.mismatches());
    return d.mismatches() == 0 ? 0 : 1;
}
