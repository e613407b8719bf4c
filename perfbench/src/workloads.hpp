#pragma once

/// \file workloads.hpp
/// The benchmark's three workloads (see perfbench/README.md for why each
/// exists).  A workload is a fixed, ordered list of routing requests (one
/// pass) over instances generated here; the library only ever receives the
/// generated instances.  The workload seed selects the intermingled-group
/// seeds — the circuits themselves (r1-r5, l1-l3) and the clustered
/// groupings are fixed.  Each workload comes in kvariants variants of its
/// pass that differ only in the intermingled groupings (variant v of seed s
/// uses grouping seeds derived from (s, v)); passes cycle through the
/// variants, so one run averages over several groupings instead of
/// measuring the luck of a single draw.

#include "core/route_service.hpp"
#include "gen/grouping.hpp"
#include "gen/instance_gen.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfbench {

using namespace astclk;

/// One request of a pass, with what the checks need to judge its result.
struct bench_request {
    std::string label;  ///< e.g. "r3/ast/intermingled-k8"
    const topo::instance* inst = nullptr;
    core::routing_request req;
    /// Skew bound the result is held to (seconds): intra-group for AST-DME,
    /// global for EXT-BST.
    double bound = 0.0;
    bool global_skew = false;  ///< EXT-BST: the bound is on global skew
    std::string circuit;       ///< r1..r5 / l1..l3
};

/// Pass variants per workload (intermingled groupings drawn per seed).
inline constexpr int kvariants = 8;

struct workload {
    std::string name;
    /// Requests kept in flight by the closed-loop generator.
    int clients = 1;
    std::vector<std::unique_ptr<topo::instance>> instances;
    /// kvariants passes, each in submission order; request i has the same
    /// circuit, strategy and size in every variant.
    std::vector<std::vector<bench_request>> variants;
    std::size_t sinks_per_pass = 0;
};

inline constexpr double kbound_10ps = 10e-12;
inline const std::vector<int> kpaper_group_counts{4, 6, 8, 10};

/// splitmix64 finaliser: derives independent per-instance grouping seeds
/// from the workload seed.
inline std::uint64_t mix_seed(std::uint64_t x) {
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

inline std::uint64_t grouping_seed(std::uint64_t seed, int variant,
                                   int circuit, int k) {
    return mix_seed(mix_seed(mix_seed(seed) ^
                             static_cast<std::uint64_t>(variant)) ^
                    (static_cast<std::uint64_t>(circuit) << 8) ^
                    static_cast<std::uint64_t>(k));
}

inline const topo::instance& keep(workload& w, topo::instance inst) {
    w.instances.push_back(std::make_unique<topo::instance>(std::move(inst)));
    return *w.instances.back();
}

inline bench_request ast_request(const topo::instance& inst,
                                 std::string label, std::string circuit,
                                 core::ast_mode mode, double bound,
                                 int shards) {
    bench_request b;
    b.label = std::move(label);
    b.circuit = std::move(circuit);
    b.inst = &inst;
    b.req.instance = &inst;
    b.req.strategy = core::strategy_id::ast_dme;
    b.req.mode = mode;
    b.req.spec = bound == 0.0 ? core::skew_spec::zero()
                              : core::skew_spec::uniform(bound);
    b.req.options.engine.shards = shards;
    b.bound = bound;
    return b;
}

/// Tables I and II of the paper on r1-r5: per circuit one EXT-BST route at
/// a 10 ps global bound, then AST-DME `automatic` at zero intra-group skew
/// on clustered and intermingled groups, k in {4, 6, 8, 10}.  45 requests,
/// 60,579 sinks.  Submitted largest circuit first, so the pass's drain tail
/// is made of the smallest requests and does not depend on the seed.
inline void build_paper_tables(workload& w, std::uint64_t seed,
                               int clients) {
    w.clients = clients;
    w.variants.resize(kvariants);
    auto suite = gen::paper_suite();
    std::reverse(suite.begin(), suite.end());
    for (const gen::instance_spec& spec : suite) {
        const int circuit = std::stoi(spec.name.substr(1));
        const topo::instance& base = keep(w, gen::generate(spec));
        bench_request ext;
        ext.label = spec.name + "/ext_bst";
        ext.circuit = spec.name;
        ext.inst = &base;
        ext.req.instance = &base;
        ext.req.strategy = core::strategy_id::ext_bst;
        ext.req.spec = core::skew_spec::uniform(kbound_10ps);
        ext.bound = kbound_10ps;
        ext.global_skew = true;
        std::vector<bench_request> shared{ext};
        for (const int k : kpaper_group_counts) {
            topo::instance c = base;
            gen::apply_clustered_groups(c, k);
            shared.push_back(ast_request(
                keep(w, std::move(c)),
                spec.name + "/ast/clustered-k" + std::to_string(k),
                spec.name, core::ast_mode::automatic, 0.0, 1));
        }
        for (int v = 0; v < kvariants; ++v) {
            auto& pass = w.variants[static_cast<std::size_t>(v)];
            pass.insert(pass.end(), shared.begin(), shared.end());
            for (const int k : kpaper_group_counts) {
                topo::instance m = base;
                gen::apply_intermingled_groups(
                    m, k, grouping_seed(seed, v, circuit, k));
                pass.push_back(ast_request(
                    keep(w, std::move(m)),
                    spec.name + "/ast/intermingled-k" + std::to_string(k),
                    spec.name, core::ast_mode::automatic, 0.0, 1));
            }
        }
    }
}

/// l1-l3 with 8 clustered and 8 intermingled groups at a 10 ps intra-group
/// bound: `automatic` mode monolithic (large_auto) or `windowed` with auto
/// shards (large_sharded).  6 requests, 160,000 sinks, one in flight.
/// The clustered requests are the same in every variant.
inline void build_large(workload& w, std::uint64_t seed, core::ast_mode mode,
                        int shards) {
    w.clients = 1;
    w.variants.resize(kvariants);
    constexpr int kgroups = 8;
    const char* tag =
        mode == core::ast_mode::automatic ? "automatic" : "windowed";
    for (const gen::instance_spec& spec : gen::large_suite()) {
        const int circuit = 100 + std::stoi(spec.name.substr(1));
        const topo::instance base = gen::generate(spec);
        topo::instance c = base;
        gen::apply_clustered_groups(c, kgroups);
        const bench_request clustered = ast_request(
            keep(w, std::move(c)),
            spec.name + "/ast-" + tag + "/clustered-k8", spec.name, mode,
            kbound_10ps, shards);
        for (int v = 0; v < kvariants; ++v) {
            auto& pass = w.variants[static_cast<std::size_t>(v)];
            pass.push_back(clustered);
            topo::instance m = base;
            gen::apply_intermingled_groups(
                m, kgroups, grouping_seed(seed, v, circuit, kgroups));
            pass.push_back(ast_request(
                keep(w, std::move(m)),
                spec.name + "/ast-" + tag + "/intermingled-k8", spec.name,
                mode, kbound_10ps, shards));
        }
    }
}

inline const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names{"paper_tables", "large_auto",
                                                "large_sharded"};
    return names;
}

/// Generate the named workload.  `nproc` is the closed loop's client count
/// on paper_tables (one request in flight per worker).
inline workload build_workload(const std::string& name, std::uint64_t seed,
                               int nproc) {
    workload w;
    w.name = name;
    if (name == "paper_tables")
        build_paper_tables(w, seed, nproc);
    else if (name == "large_auto")
        build_large(w, seed, core::ast_mode::automatic, 1);
    else if (name == "large_sharded")
        build_large(w, seed, core::ast_mode::windowed, 0);
    else
        throw std::invalid_argument("unknown workload: " + name);
    for (const bench_request& r : w.variants.front())
        w.sinks_per_pass += r.inst->sinks.size();
    return w;
}

}  // namespace perfbench
