// Regenerates Table II: AST-DME vs EXT-BST with *intermingled* sink groups
// (random assignment — the "difficult instances" of the title).
//
// Paper shape: larger reductions than Table I (9.4-14.5 %), growing with
// the number of groups; the AST max-skew by-product reaches ~100 ps while
// intra-group skew stays at zero.  Our iso-delay implementation reproduces
// the ordering and the by-product behaviour; the measured magnitudes are
// in the "Seed values" section of perfbench/README.md.
//
// The whole table is one route_service batch: generated instances are
// shared through the service's routing_context (the windowed pass reuses
// the automatic pass's instances), and the requests fan out across the
// worker pool — the batched path every table run now exercises.

#include "common.hpp"

using namespace astclk;

int main() {
    std::cout
        << "Table II — intermingled sink groups (EXT-BST bound 10 ps)\n\n";
    core::route_service svc;
    auto& ctx = svc.context();

    for (const char* primary : {"automatic", "windowed"}) {
        const core::ast_mode mode = std::string(primary) == "automatic"
                                        ? core::ast_mode::automatic
                                        : core::ast_mode::windowed;
        std::cout << "AST-DME mode: " << primary
                  << (mode == core::ast_mode::automatic
                          ? "  (guaranteed zero intra-group skew)\n"
                          : "  (paper-literal merge cases; residual "
                            "violations reported)\n");

        // One job per row, whole table batched at once.
        struct job {
            const topo::instance* inst;
            std::string circuit;
            std::string algo;
            int baseline;  ///< index of this row's EXT-BST job (-1: none)
        };
        std::vector<core::routing_request> reqs;
        std::vector<job> jobs;
        for (const auto& spec : gen::paper_suite()) {
            const topo::instance& base = ctx.generated(spec);
            core::routing_request ext;
            ext.instance = &base;
            ext.strategy = core::strategy_id::ext_bst;
            ext.spec = core::skew_spec::uniform(bench::kext_bst_bound);
            const int base_idx = static_cast<int>(reqs.size());
            reqs.push_back(ext);
            jobs.push_back({&base,
                            spec.name + " (" +
                                std::to_string(spec.num_sinks) + " sinks)",
                            "EXT-BST", -1});
            for (int k : bench::kpaper_group_counts) {
                const topo::instance& inst = ctx.intermingled(
                    spec, k, spec.seed * 1000 + static_cast<unsigned>(k));
                core::routing_request ast;
                ast.instance = &inst;
                ast.strategy = core::strategy_id::ast_dme;
                ast.mode = mode;
                reqs.push_back(ast);
                jobs.push_back({&inst, "", "AST-DME", base_idx});
            }
        }
        const auto results = bench::run_batch(svc, reqs);

        auto table = bench::paper_table();
        const core::router_options opt;
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const job& j = jobs[i];
            const double baseline_wl =
                j.baseline >= 0
                    ? results[static_cast<std::size_t>(j.baseline)]
                          .wirelength
                    : 0.0;
            bench::add_row(table,
                           bench::measure(j.circuit, j.inst->num_groups,
                                          j.algo, results[i], *j.inst,
                                          opt.model, baseline_wl),
                           j.baseline >= 0);
            if (i + 1 == jobs.size() || jobs[i + 1].baseline < 0)
                table.add_rule();
        }
        table.print(std::cout);
        std::cout << '\n';
    }
    return 0;
}
