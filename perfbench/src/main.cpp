// Served-route benchmark program (see perfbench/README.md).
//
//   served_bench --workload NAME --seed N --seconds S --trace 0|1
//                [--out FILE] [--trace-out FILE] [--commit SHA]
//   served_bench --self-test
//
// One process: the main thread generates a closed-loop load against one
// core::route_service with nproc workers, every result is checked with the
// independent evaluator outside the timed window, and the last stdout line
// is one JSON object {"correct", "attempted", "failed", "metrics"} — the
// end-to-end metrics with --trace 0, the per-layer metrics of the traced
// replay with --trace 1.

#include "checks.hpp"
#include "replay.hpp"
#include "trace.hpp"
#include "workloads.hpp"

#include <sys/resource.h>
#include <sys/utsname.h>

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace perfbench;

namespace {

constexpr int ksetup_reps = 15;

struct cli {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool self_test_only = false;
    std::string out;
    std::string trace_out;
    std::string commit = "unknown";
};

[[noreturn]] void usage(const std::string& why) {
    std::cerr << "served_bench: " << why
              << "\nusage: served_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--out FILE] [--trace-out FILE] [--commit SHA]"
                 "\n       served_bench --self-test\n";
    std::exit(2);
}

cli parse(int argc, char** argv) {
    cli c;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--self-test") {
            c.self_test_only = true;
            continue;
        }
        if (i + 1 >= argc) usage("missing value for " + a);
        const std::string v = argv[++i];
        try {
            if (a == "--workload") {
                c.workload = v;
                have_workload = true;
            } else if (a == "--seed") {
                c.seed = std::stoull(v);
            } else if (a == "--seconds") {
                c.seconds = std::stod(v);
            } else if (a == "--trace") {
                if (v != "0" && v != "1") usage("--trace takes 0 or 1");
                c.trace = v == "1";
            } else if (a == "--out") {
                c.out = v;
            } else if (a == "--trace-out") {
                c.trace_out = v;
            } else if (a == "--commit") {
                c.commit = v;
            } else {
                usage("unknown argument " + a);
            }
        } catch (const std::logic_error&) {
            usage("bad value for " + a + ": " + v);
        }
    }
    if (!c.self_test_only) {
        if (!have_workload) usage("--workload is required");
        const auto& names = workload_names();
        if (std::find(names.begin(), names.end(), c.workload) == names.end())
            usage("unknown workload " + c.workload);
        if (!(c.seconds > 0.0)) usage("--seconds must be positive");
    }
    return c;
}

/// Percentile by linear interpolation between the closest ranks (q in
/// [0, 1]); with six requests per pass this averages the two middle
/// requests for p50 instead of picking whichever of them is faster.
double percentile(std::vector<double> xs, double q) {
    if (xs.empty()) return 0.0;
    std::sort(xs.begin(), xs.end());
    const double pos = q * static_cast<double>(xs.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, xs.size() - 1);
    return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

double median(const std::vector<double>& xs) { return percentile(xs, 0.5); }

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

std::string json_escape(const std::string& s) {
    std::string o;
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') o += '\\';
        if (static_cast<unsigned char>(ch) < 0x20) {
            o += ' ';
            continue;
        }
        o += ch;
    }
    return o;
}

std::string num(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

struct host_info {
    int nproc = 1;
    std::string nodename, machine, kernel;
    std::string json(const cli& c) const {
        std::ostringstream o;
        o << "{\"nproc\": " << nproc << ", \"nodename\": \""
          << json_escape(nodename) << "\", \"machine\": \""
          << json_escape(machine) << "\", \"kernel\": \""
          << json_escape(kernel) << "\", \"compiler\": \""
          << json_escape(PERFBENCH_COMPILER) << "\", \"flags\": \""
          << json_escape(PERFBENCH_FLAGS) << "\", \"build_type\": \""
          << json_escape(PERFBENCH_BUILD_TYPE) << "\", \"git_commit\": \""
          << json_escape(c.commit) << "\"}";
        return o.str();
    }
};

host_info probe_host() {
    host_info h;
    h.nproc = static_cast<int>(
        std::max(1u, std::thread::hardware_concurrency()));
    utsname u{};
    if (uname(&u) == 0) {
        h.nodename = u.nodename;
        h.machine = u.machine;
        h.kernel = u.release;
    }
    return h;
}

/// One closed-loop pass: keep `in_flight` requests in flight, submitting
/// the next one as soon as one completes.  Returns the pass wall time;
/// fills the results and submit-to-completion latencies.
double run_pass(core::route_service& svc,
                const std::vector<bench_request>& reqs, int in_flight,
                std::vector<core::route_result>& results,
                std::vector<double>& latency) {
    const std::size_t n = reqs.size();
    const auto clients = static_cast<std::size_t>(in_flight);
    std::vector<core::route_handle> handles(n);
    std::vector<clock_type::time_point> submitted(n), finished(n);
    std::mutex mu;
    std::condition_variable cv;
    std::size_t completed = 0;  // guarded by mu

    const auto t0 = clock_type::now();
    std::size_t next = 0, seen = 0;
    while (seen < n) {
        while (next - seen < clients && next < n) {
            const std::size_t i = next++;
            core::submit_options so;
            so.on_complete = [&, i](const core::route_result&) {
                const auto t = clock_type::now();
                std::lock_guard<std::mutex> lk(mu);
                finished[i] = t;
                ++completed;
                cv.notify_one();
            };
            submitted[i] = clock_type::now();
            handles[i] = svc.submit(reqs[i].req, std::move(so));
        }
        std::unique_lock<std::mutex> lk(mu);
        cv.wait(lk, [&] { return completed > seen; });
        seen = completed;
    }
    const double wall = seconds_between(t0, clock_type::now());
    results.resize(n);
    latency.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        results[i] = handles[i].wait();
        latency[i] = seconds_between(submitted[i], finished[i]);
    }
    return wall;
}

/// Running sums over the traced replay (per traced pass after division).
struct layer_sums {
    double strategy_run = 0, leaves = 0, partition = 0, reduce = 0,
           absorb = 0, stitch = 0, embed = 0, eval = 0, unattributed = 0;
    double plan = 0, plan_reduce = 0;  // ledger-free requests only
    long plan_solves = 0, plan_fallbacks = 0, plan_mismatches = 0;
    long merges = 0, rejected = 0, forced = 0;
    long cache_hits = 0, cache_misses = 0;
    long long nn_reuses = 0;
    long requests = 0, unreproduced = 0, shards = 0;
    double imbalance_sum = 0;
    long imbalance_n = 0;
};

struct metric {
    std::string name, unit;
    double value = 0.0;
};

}  // namespace

int main(int argc, char** argv) {
    const cli opt = parse(argc, argv);
    if (opt.self_test_only) {
        const int bad = self_test(std::cout);
        std::cout << (bad == 0 ? "self-test: every check fires\n"
                               : "self-test: FAILED\n");
        return bad == 0 ? 0 : 1;
    }
    const host_info host = probe_host();
    const auto origin = clock_type::now();

    // ---------------------------------------------------------- set-up
    // Everything before the first timed request: generate the workload's
    // instances and start the service.  Repeated; the median is reported
    // and the last repetition is the one that serves.
    std::vector<double> setup_s, gen_s;
    workload w;
    std::unique_ptr<core::route_service> svc;
    for (int r = 0; r < ksetup_reps; ++r) {
        svc.reset();
        w = workload{};
        const auto t0 = clock_type::now();
        w = build_workload(opt.workload, opt.seed, host.nproc);
        const auto t1 = clock_type::now();
        core::service_options so;
        so.threads = host.nproc;
        svc = std::make_unique<core::route_service>(so);
        const auto t2 = clock_type::now();
        gen_s.push_back(seconds_between(t0, t1));
        setup_s.push_back(seconds_between(t0, t2));
    }
    const int workers = svc->threads();
    const std::size_t nvar = w.variants.size();
    const std::size_t n = w.variants.front().size();

    // ----------------------------------------------------- timed window
    // Untraced runs cycle the variants pass by pass and stop once --seconds
    // of serving are measured and every variant was served.  Traced runs serve
    // each variant twice in a row, U_v then T_v, and replay T_v's requests.
    // No served pass is instrumented: spans are recorded only in the replay.
    // So U_v (v >= 1) is served right after the replay of T_{v-1}, while T_v
    // follows no replay, and wall(U_v) / wall(T_v) - 1 is what tracing
    // leaves behind for the next served pass (the tracing overhead).
    // Latency percentiles are taken per pass, then the median over passes:
    // a pass is a fixed mix of request sizes, so a percentile over one pass
    // sits at the same place in the mix every time, while a percentile over
    // the pooled samples of a few passes (large workloads: 6 requests per
    // pass) lands on the boundary between two request sizes and flips.
    std::vector<double> latencies, queue_waits, pass_p50, pass_p90;
    std::vector<std::vector<double>> walls(nvar);  // per variant
    std::vector<std::pair<std::size_t, double>> pass_log;  // (variant, wall)
    std::vector<double> overhead_ratios;
    double serve_wall = 0.0, cpu_sum = 0.0, verify_total = 0.0;
    double replay_total = 0.0, prev_wall = 0.0;
    long passes = 0, traced_passes = 0, attempted = 0, failed = 0;
    double worst_skew_ps = 0.0, worst_excess_ps = 0.0;
    // First result of request i in variant v, at [v * n + i].
    std::vector<char> have_ref(nvar, 0);
    std::vector<double> ref_wl(nvar * n, 0.0);
    std::vector<int> ref_shards(nvar * n, 0);
    std::vector<verdict> first_verdicts(nvar * n);
    std::vector<double> first_cpu(nvar * n, 0.0);
    std::vector<char> req_failed(nvar * n, 0);  // any of its results failed
    std::vector<std::string> problems;
    layer_sums L;
    tracer tr(origin);
    core::routing_context replay_ctx;
    long rid = 0;

    std::vector<core::route_result> results;
    std::vector<double> lat;
    for (;;) {
        const bool traced_pass = opt.trace && passes % 2 == 1;
        const std::size_t var = static_cast<std::size_t>(
                                    opt.trace ? passes / 2 : passes) %
                                nvar;
        const std::vector<bench_request>& reqs = w.variants[var];
        const double wall = run_pass(*svc, reqs, w.clients, results, lat);
        serve_wall += wall;
        walls[var].push_back(wall);
        pass_log.emplace_back(var, wall);
        if (traced_pass && passes >= 3)
            overhead_ratios.push_back(prev_wall / wall);
        prev_wall = wall;
        pass_p50.push_back(percentile(lat, 0.5));
        pass_p90.push_back(percentile(lat, 0.9));
        const long pass_rid0 = rid;
        for (std::size_t i = 0; i < n; ++i, ++rid) {
            latencies.push_back(lat[i]);
            queue_waits.push_back(lat[i] - results[i].cpu_seconds);
            cpu_sum += results[i].cpu_seconds;
        }

        // Verification, outside the timed window.
        const auto v0 = clock_type::now();
        for (std::size_t i = 0; i < n; ++i) {
            const core::route_result& res = results[i];
            const verdict v = check_result(reqs[i], res);
            const std::size_t k = var * n + i;
            ++attempted;
            if (v.failed()) {
                ++failed;
                req_failed[k] = 1;
                problems.push_back(reqs[i].label + ": " + v.failure + " (" +
                                   v.detail + ")");
            }
            worst_skew_ps = std::max(worst_skew_ps, v.skew_ps);
            worst_excess_ps = std::max(worst_excess_ps, v.excess_ps());
            if (!have_ref[var]) {
                ref_wl[k] = res.wirelength;
                ref_shards[k] = res.resolved_shards;
                first_verdicts[k] = v;
                first_cpu[k] = res.cpu_seconds;
            } else if (res.wirelength != ref_wl[k] ||
                       res.resolved_shards != ref_shards[k]) {
                problems.push_back(reqs[i].label +
                                   ": not deterministic across passes");
                ++failed;
                req_failed[k] = 1;
            }
        }
        have_ref[var] = 1;
        verify_total += seconds_between(v0, clock_type::now());

        // Traced replay of every request of a traced pass.
        if (traced_pass) {
            const auto r0 = clock_type::now();
            for (std::size_t i = 0; i < n; ++i) {
                const core::route_result& res = results[i];
                const long id = pass_rid0 + static_cast<long>(i);
                const replay_outcome ro =
                    replay_request(reqs[i], res, &svc->executor(),
                                   replay_ctx, tr, id);
                ++L.requests;
                L.strategy_run += res.cpu_seconds;
                L.cache_hits += res.stats.plan_cache_hits;
                L.cache_misses += res.stats.plan_cache_misses;
                L.nn_reuses += res.stats.nn_scratch_reuses;
                L.eval += ro.eval_s;
                if (ro.plan_replayed) {
                    if (ro.plan_match) {
                        L.plan += ro.plan_s;
                        L.plan_reduce += ro.reduce_busy_s;
                        L.plan_solves += ro.plan_solves;
                        L.plan_fallbacks += ro.plan_fallbacks;
                    } else {
                        ++L.plan_mismatches;
                    }
                }
                if (!ro.reproduced) {
                    ++L.unreproduced;
                    L.unattributed += res.cpu_seconds;
                    problems.push_back(reqs[i].label +
                                       ": replay not reproduced (" + ro.why +
                                       "); its time is unattributed");
                    continue;
                }
                L.leaves += ro.leaves_s;
                L.partition += ro.partition_s;
                L.reduce += ro.reduce_s;
                L.absorb += ro.absorb_s;
                L.stitch += ro.stitch_s;
                L.embed += ro.embed_s;
                L.unattributed += res.cpu_seconds - ro.attributed_s;
                L.merges += ro.stats.merges;
                L.rejected += ro.stats.rejected_pairs;
                L.forced += ro.stats.forced_merges;
                L.shards += ro.shards;
                if (!ro.shard_reduce_s.empty()) {
                    double mx = 0.0, sum = 0.0;
                    for (const double x : ro.shard_reduce_s) {
                        mx = std::max(mx, x);
                        sum += x;
                    }
                    const double mean =
                        sum / static_cast<double>(ro.shard_reduce_s.size());
                    if (mean > 0.0) {
                        L.imbalance_sum += mx / mean;
                        ++L.imbalance_n;
                    }
                }
            }
            replay_total += seconds_between(r0, clock_type::now());
            ++traced_passes;
        }
        ++passes;
        results.clear();
        const bool done =
            opt.trace ? serve_wall + replay_total >= opt.seconds &&
                            passes % 2 == 0 && passes >= 4
                      : serve_wall >= opt.seconds &&
                            passes >= static_cast<long>(nvar);
        if (done) break;
    }

    // ------------------------------------------- after the timed window
    // The checks must still be able to fire: seed one bad result per check.
    const int self_test_bad = self_test(std::cerr);
    if (self_test_bad != 0)
        problems.push_back("self-test: " + std::to_string(self_test_bad) +
                           " check(s) did not fire");

    // Known seed defect kept visible: AST zero-skew wirelength vs ZST of
    // the same circuit (paper_tables only; the other workloads are bounded).
    double ast_eq_zst = 0.0;
    if (opt.workload == "paper_tables") {
        std::map<std::string, double> zst;
        long ast = 0, equal = 0;
        for (std::size_t k = 0; k < nvar * n; ++k) {
            if (!have_ref[k / n]) continue;
            const bench_request& br = w.variants[k / n][k % n];
            if (br.req.strategy != core::strategy_id::ast_dme) continue;
            auto it = zst.find(br.circuit);
            if (it == zst.end())
                it = zst.emplace(br.circuit,
                                 core::route_zst_dme(*br.inst).wirelength)
                         .first;
            ++ast;
            // Equal up to summation-order rounding (1e-9 relative).
            if (std::fabs(ref_wl[k] - it->second) <= 1e-9 * it->second)
                ++equal;
        }
        ast_eq_zst = ast > 0 ? static_cast<double>(equal) /
                                   static_cast<double>(ast)
                             : 0.0;
    }

    const double rss = peak_rss_mb();
    const bool correct = failed == 0 && self_test_bad == 0;
    // Throughput over one cycle of the variants, each at its median pass
    // wall time; wirelength per pass, averaged over the variants.
    double cycle_wall = 0.0, wl_sum = 0.0;
    long cycle_variants = 0;
    for (std::size_t v = 0; v < nvar; ++v) {
        if (!have_ref[v]) continue;
        ++cycle_variants;
        cycle_wall += median(walls[v]);
        for (std::size_t i = 0; i < n; ++i) wl_sum += ref_wl[v * n + i];
    }
    const double sinks_per_s = static_cast<double>(cycle_variants) *
                               static_cast<double>(w.sinks_per_pass) /
                               cycle_wall;
    const double wl_pass = wl_sum / static_cast<double>(cycle_variants);

    std::vector<metric> e2e{
        {"sinks_per_s", "1/s", sinks_per_s},
        {"latency_p50_s", "s", median(pass_p50)},
        {"latency_p90_s", "s", median(pass_p90)},
        {"wirelength", "units", wl_pass},
        {"skew_worst_ps", "ps", worst_skew_ps},
        {"setup_s", "s", median(setup_s)},
        {"peak_rss_mb", "MB", rss},
    };
    // Shares over the distinct requests served (every variant's pass once),
    // so they repeat exactly whatever the number of passes a run fits in.
    long distinct = 0, violating = 0, failed_distinct = 0;
    for (std::size_t k = 0; k < nvar * n; ++k) {
        if (!have_ref[k / n]) continue;
        ++distinct;
        violating += first_verdicts[k].violating ? 1 : 0;
        failed_distinct += req_failed[k];
    }
    const double dn = static_cast<double>(std::max(distinct, 1L));
    const double violating_frac = static_cast<double>(violating) / dn;
    const double failed_frac = static_cast<double>(failed_distinct) / dn;
    std::vector<metric> quality{
        {"skew_excess_ps", "ps", worst_excess_ps},
        {"violating_frac", "frac", violating_frac},
        {"failed_frac", "frac", failed_frac},
    };

    const double tp = static_cast<double>(std::max(traced_passes, 1L));
    const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
    std::vector<metric> layers{
        {"service.queue_wait_p50_s", "s", percentile(queue_waits, 0.5)},
        {"service.busy_frac", "frac",
         ratio(cpu_sum, serve_wall * static_cast<double>(workers))},
        {"strategy.run_s", "s", L.strategy_run / tp},
        {"leaves.build_s", "s", L.leaves / tp},
        {"shard.partition_s", "s", L.partition / tp},
        {"shard.count", "count",
         ratio(static_cast<double>(L.shards),
               static_cast<double>(L.requests - L.unreproduced))},
        {"shard.imbalance", "ratio",
         L.imbalance_n > 0 ? L.imbalance_sum /
                                 static_cast<double>(L.imbalance_n)
                           : 1.0},
        {"tree.absorb_s", "s", L.absorb / tp},
        {"stitch.s", "s", L.stitch / tp},
        {"embed.s", "s", L.embed / tp},
        {"engine.reduce_s", "s", L.reduce / tp},
        {"engine.merges_per_s", "1/s",
         ratio(static_cast<double>(L.merges), L.reduce)},
        {"engine.accept_ratio", "frac",
         ratio(static_cast<double>(L.merges),
               static_cast<double>(L.merges + L.rejected))},
        {"engine.forced_merges", "count",
         static_cast<double>(L.forced) / tp},
        {"plan.replay_s", "s", L.plan / tp},
        {"plan.share_of_reduce", "frac", ratio(L.plan, L.plan_reduce)},
        {"plan.replay_mismatches", "count",
         static_cast<double>(L.plan_mismatches)},
        {"kernel.batch_frac", "frac",
         ratio(static_cast<double>(L.plan_solves - L.plan_fallbacks),
               static_cast<double>(L.plan_solves))},
        {"plan_cache.hit_ratio", "frac",
         ratio(static_cast<double>(L.cache_hits),
               static_cast<double>(L.cache_hits + L.cache_misses))},
        {"nn.scratch_reuses", "count",
         static_cast<double>(L.nn_reuses) / tp},
        {"verify.s", "s", verify_total / static_cast<double>(passes)},
        {"gen.s", "s", median(gen_s)},
        {"eval.s", "s", L.eval / tp},
        {"eval.skew_excess_ps", "ps", worst_excess_ps},
        {"eval.violating_frac", "frac", violating_frac},
        {"eval.failed_frac", "frac", failed_frac},
        {"eval.ast_eq_zst_frac", "frac", ast_eq_zst},
        {"trace.unattributed_s", "s", L.unattributed / tp},
        {"trace.unreproduced", "count", static_cast<double>(L.unreproduced)},
        {"trace.overhead", "frac", median(overhead_ratios) - 1.0},
    };

    // ----------------------------------------------------------- report
    std::cout << "host " << host.json(opt) << "\n";
    std::cout << "workload " << opt.workload << " seed " << opt.seed
              << " trace " << opt.trace << ": " << n << " requests, "
              << w.sinks_per_pass << " sinks per pass, " << nvar
              << " grouping variants, " << w.clients
              << " in flight on " << workers << " workers; " << passes
              << " passes, " << latencies.size() << " latency samples ("
              << n << " per pass)";
    if (latencies.size() / 10 < 10)
        std::cout << "; only " << latencies.size() / 10
                  << " beyond p90, below the ten-sample rule";
    std::cout << "\n";
    std::cout << "info pooled latency p50 " << num(percentile(latencies, 0.5))
              << " s p90 " << num(percentile(latencies, 0.9)) << " s over "
              << latencies.size() << " samples\n";
    const std::size_t kmax_problem_lines = 20;
    for (std::size_t i = 0; i < problems.size() && i < kmax_problem_lines; ++i)
        std::cout << "problem " << problems[i] << "\n";
    if (opt.workload == "paper_tables")
        std::cout << "info eval.ast_eq_zst_frac " << num(ast_eq_zst)
                  << " frac (AST zero-skew wirelength equal to ZST)\n";
    for (const metric& m : e2e)
        std::cout << "e2e " << m.name << " " << num(m.value) << " " << m.unit
                  << "\n";
    for (const metric& m : quality)
        std::cout << "quality " << m.name << " " << num(m.value) << " "
                  << m.unit << "\n";
    if (opt.trace)
        for (const metric& m : layers)
            std::cout << "layer " << m.name << " " << num(m.value) << " "
                      << m.unit << "\n";

    const auto metrics_json = [](const std::vector<metric>& ms) {
        std::ostringstream o;
        o << "{";
        for (std::size_t i = 0; i < ms.size(); ++i)
            o << (i ? ", " : "") << "\"" << ms[i].name << "\": {\"value\": "
              << num(ms[i].value) << ", \"unit\": \"" << ms[i].unit << "\"}";
        o << "}";
        return o.str();
    };

    // Full report: host, every metric, and the first pass per request.
    if (!opt.out.empty()) {
        std::ofstream f(opt.out);
        f << "{\"host\": " << host.json(opt) << ",\n \"workload\": \""
          << opt.workload << "\", \"seed\": " << opt.seed
          << ", \"trace\": " << opt.trace << ", \"seconds\": "
          << num(opt.seconds) << ", \"passes\": " << passes
          << ", \"traced_passes\": " << traced_passes
          << ", \"attempted\": " << attempted << ", \"failed\": " << failed
          << ", \"correct\": " << (correct ? "true" : "false")
          << ",\n \"end_to_end\": " << metrics_json(e2e)
          << ",\n \"quality\": " << metrics_json(quality);
        if (opt.trace) f << ",\n \"per_layer\": " << metrics_json(layers);
        f << ",\n \"requests\": [";
        bool first = true;
        for (std::size_t i = 0; i < nvar * n; ++i) {
            if (!have_ref[i / n]) continue;
            const verdict& v = first_verdicts[i];
            const bench_request& br = w.variants[i / n][i % n];
            f << (first ? "" : ",") << "\n  {\"label\": \"" << br.label
              << "\", \"variant\": " << i / n
              << ", \"sinks\": " << br.inst->sinks.size()
              << ", \"wirelength\": " << num(ref_wl[i])
              << ", \"skew_ps\": " << num(v.skew_ps)
              << ", \"bound_ps\": " << num(v.bound_ps)
              << ", \"violating\": " << (v.violating ? "true" : "false")
              << ", \"failure\": \"" << v.failure
              << "\", \"resolved_shards\": " << ref_shards[i]
              << ", \"first_pass_s\": " << num(first_cpu[i]) << "}";
            first = false;
        }
        f << "\n ],\n \"setup_reps_s\": [";
        for (std::size_t i = 0; i < setup_s.size(); ++i)
            f << (i ? ", " : "") << num(setup_s[i]);
        f << "],\n \"passes_log\": [";
        for (std::size_t i = 0; i < pass_log.size(); ++i)
            f << (i ? ", " : "") << "[" << pass_log[i].first << ", "
              << num(pass_log[i].second) << "]";
        f << "],\n \"problems\": [";
        for (std::size_t i = 0; i < problems.size(); ++i)
            f << (i ? ", " : "") << "\"" << json_escape(problems[i]) << "\"";
        f << "]}\n";
        if (!f) std::cerr << "served_bench: could not write " << opt.out << "\n";
    }
    if (opt.trace && !opt.trace_out.empty() && !tr.write_json(opt.trace_out))
        std::cerr << "served_bench: could not write " << opt.trace_out << "\n";

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << attempted << ", \"failed\": " << failed
              << ", \"metrics\": " << metrics_json(opt.trace ? layers : e2e)
              << "}" << std::endl;
    return 0;
}
