/**
 * @file
 * End-to-end, layer-by-layer JigSaw benchmark.
 *
 * Usage: e2e_bench --workload NAME --seed N --seconds S --trace 0|1
 *
 * Workloads: suite-cold, wide-support (pipeline.cpp), sweep-closed,
 * paced-mix (serving.cpp). Each run
 *  1. stamps the environment (nproc, pool size, active SIMD table,
 *     build type) and refuses a pool larger than nproc;
 *  2. generates the inputs from the seed, then sets the system up
 *     three to 51 times (see kSetupMinSeconds) and reports the median
 *     as setup_s;
 *  3. measures for S seconds with tracing off, keeping a digest of
 *     every output;
 *  4. with --trace 1, sets up again and measures S more seconds with
 *     tracing on;
 *  5. computes every job's sequential runJigsaw reference and the
 *     baseline PSTs, outside timing and after peak RSS is read, and
 *     checks every output of both runs bit for bit against them (so
 *     traced outputs equal untraced ones);
 *  6. with --trace 1, writes the spans as JSON lines under .bench_out/
 *     and prints the per-layer table.
 * The last stdout line is one JSON object: correct, attempted, failed,
 * and the end-to-end metrics (--trace 0) or per-layer metrics
 * (--trace 1). A mismatched or failed job makes the exit code 1.
 */
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "common/parallel.h"
#include "common/simd.h"
#include "compiler/transpiler.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

namespace {

using namespace e2e;

/**
 * Set-up repeats: at least kSetupMinRepeats, and more while they total
 * under kSetupMinSeconds (up to kSetupMaxRepeats), so a set-up of a
 * few milliseconds is the median of many samples and a second-long one
 * costs three.
 */
constexpr std::size_t kSetupMinRepeats = 3;
constexpr std::size_t kSetupMaxRepeats = 51;
constexpr double kSetupMinSeconds = 2.0;

struct Metric
{
    std::string name;
    double value = 0.0;
    const char *unit = "";
};

int
usage(const char *argv0)
{
    std::cerr << "usage: " << argv0
              << " --workload suite-cold|wide-support|sweep-closed|"
                 "paced-mix --seed N --seconds S --trace 0|1\n";
    return 2;
}

std::size_t
cpusAvailable()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<std::size_t>(CPU_COUNT(&set));
    return std::max(1u, std::thread::hardware_concurrency());
}

const char *
envOr(const char *name, const char *fallback)
{
    const char *value = std::getenv(name);
    return value != nullptr && value[0] != '\0' ? value : fallback;
}

double
median(std::vector<double> xs)
{
    return nearestRank(std::move(xs), 0.5);
}

std::string
jsonNumber(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(value) ? value : 0.0);
    return buf;
}

std::vector<Metric>
endToEndMetrics(const Phase &phase, double setup_s, double peak_rss_mb,
                double pst_gain)
{
    return {
        {"setup_s", setup_s, "s"},
        {"jobs_per_s", phase.jobsPerSecond(), "1/s"},
        {"job_latency_p50_ms", nearestRank(phase.latencyMs, 0.50), "ms"},
        {"cpu_ms_per_job", phase.cpuMsPerJob(), "ms"},
        {"peak_rss_mb", peak_rss_mb, "MiB"},
        {"success_rate", 1.0 - phase.tally.errorRate(), "ratio"},
        {"pst_gain", pst_gain, "x"},
    };
}

std::vector<Metric>
perLayerMetrics(const Phase &traced, const Phase &untraced)
{
    const double jobs = static_cast<double>(std::max<std::uint64_t>(
        traced.tally.completed, 1));
    std::map<std::string, double> self = selfTimeByName(traced.spans);
    double job_ms = 0.0;
    for (const Span &span : traced.spans) {
        if (span.parent == 0)
            job_ms += span.endMs - span.startMs;
    }
    job_ms = std::max(job_ms, 1e-9);
    const auto count = [&](const std::string &name) {
        const auto it = traced.counts.find(name);
        return it == traced.counts.end() ? 0.0 : it->second / jobs;
    };
    const double execute_ms = self["evolve"] + self["sample"] + self["execute"];
    std::vector<Metric> metrics = {
        {"plan.ms", self["plan"] / jobs, "ms"},
        {"compile.ms", self["compile"] / jobs, "ms"},
        {"schedule.ms", self["schedule"] / jobs, "ms"},
        {"execute.ms", execute_ms / jobs, "ms"},
        {"execute.evolve_ms", self["evolve"] / jobs, "ms"},
        {"execute.sample_ms", self["sample"] / jobs, "ms"},
        {"reconstruct.ms", self["reconstruct"] / jobs, "ms"},
        {"serve.window_ms", self["window"] / jobs, "ms"},
        {"share.plan", self["plan"] / job_ms, "ratio"},
        {"share.compile", self["compile"] / job_ms, "ratio"},
        {"share.schedule", self["schedule"] / job_ms, "ratio"},
        {"share.execute", execute_ms / job_ms, "ratio"},
        {"share.reconstruct", self["reconstruct"] / job_ms, "ratio"},
        {"share.window", self["window"] / job_ms, "ratio"},
        {"share.other", self["job"] / job_ms, "ratio"},
        {"serve.queue_wait_p50_ms", nearestRank(traced.queueWaitMs, 0.5), "ms"},
        {"serve.execute_p50_ms", nearestRank(traced.executeMs, 0.5), "ms"},
        {"serve.merged_job_frac", count("serve.merged_jobs"), "ratio"},
        {"serve.generator_lag_max_ms", traced.generatorLagMaxMs, "ms"},
        // The tail has no bound: on the open loop it moves with host
        // CPU steal by more than any bound a gate could use.
        {"latency.p95_ms", nearestRank(untraced.latencyMs, 0.95), "ms"},
        {"trace.jobs_per_s", traced.jobsPerSecond(), "1/s"},
        {"trace.untraced_jobs_per_s", untraced.jobsPerSecond(), "1/s"},
        {"trace.overhead_frac",
         untraced.jobsPerSecond() > 0.0
             ? 1.0 - traced.jobsPerSecond() / untraced.jobsPerSecond()
             : 0.0,
         "ratio"},
    };
    for (const char *name :
         {"compile.transpile_misses", "compile.transpile_hits",
          "compile.rebinds", "compile.cpm_routings_computed",
          "compile.cpm_routings_reused", "compile.swaps", "schedule.groups",
          "execute.shots", "execute.pmf_hits", "execute.pmf_misses",
          "execute.prefix_state_hits", "execute.prefix_state_misses",
          "execute.base_evolutions", "execute.marginals_served",
          "execute.simd_avx512_calls", "execute.simd_avx2_calls",
          "execute.simd_scalar_calls", "reconstruct.support",
          "reconstruct.marginals", "serve.cross_program_groups",
          "serve.pooled_global_programs", "serve.lone_dispatches",
          "serve.window_shrinks", "serve.retries"})
        metrics.push_back({name, count(name), "count/job"});
    return metrics;
}

void
printWhereTheTimeGoes(const std::string &workload, const Phase &traced)
{
    const std::map<std::string, double> self = selfTimeByName(traced.spans);
    double job_ms = 0.0;
    for (const Span &span : traced.spans) {
        if (span.parent == 0)
            job_ms += span.endMs - span.startMs;
    }
    const double jobs = static_cast<double>(std::max<std::uint64_t>(
        traced.tally.completed, 1));
    std::printf("# where the time goes (%s, %llu traced jobs, self time "
                "per job):\n",
                workload.c_str(),
                static_cast<unsigned long long>(traced.tally.completed));
    for (const auto &[name, ms] : self) {
        std::printf("#   %-12s %10.3f ms  %5.1f%%\n",
                    name == "job" ? "(other)" : name.c_str(), ms / jobs,
                    job_ms > 0.0 ? 100.0 * ms / job_ms : 0.0);
    }
}

bool
writeSpans(const std::string &workload, std::uint64_t seed,
           const Phase &traced)
{
    std::error_code ec;
    std::filesystem::create_directories(".bench_out", ec);
    const std::string path = ".bench_out/trace-" + workload + "-seed" +
                             std::to_string(seed) + ".jsonl";
    std::ofstream out(path);
    out << spansToJsonLines(traced.spans);
    out.close();
    if (!out) {
        std::cerr << "cannot write " << path << "\n";
        return false;
    }
    std::printf("# spans: %zu written to %s\n", traced.spans.size(),
                path.c_str());
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload_name;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    int trace = -1;
    bool have_seed = false;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload") {
            workload_name = value;
        } else if (flag == "--seed") {
            seed = std::strtoull(value, nullptr, 10);
            have_seed = true;
        } else if (flag == "--seconds") {
            seconds = std::atof(value);
        } else if (flag == "--trace") {
            trace = std::atoi(value);
        } else {
            return usage(argv[0]);
        }
    }
    if (argc % 2 != 1 || workload_name.empty() || !have_seed ||
        !(seconds >= 1.0 && seconds <= 120.0) || (trace != 0 && trace != 1))
        return usage(argv[0]);

    // The pipeline workloads are one client running one program at a
    // time, so they run the library single-threaded. On a 4-vCPU host
    // shared with other tenants the thread pool bought them no median
    // speed-up, but made wide-support's throughput swing by 35% between
    // runs with host CPU steal. This must precede the pool's creation.
    if (workload_name == "suite-cold" || workload_name == "wide-support")
        setenv("JIGSAW_THREADS", "1", 1);

    // Environment stamp. Otherwise the default configuration is
    // measured: worker tier off, metrics endpoint off, default log
    // level, no faults.
    const std::size_t nproc = cpusAvailable();
    const std::size_t pool = jigsaw::parallelThreads();
    std::printf("# env: nproc=%zu pool_threads=%zu simd=%s build=%s "
                "JIGSAW_THREADS=%s JIGSAW_LOG_LEVEL=%s workers=0 "
                "metrics_port=off\n",
                nproc, pool, jigsaw::simd::activeKernels().name,
                E2E_BUILD_TYPE, envOr("JIGSAW_THREADS", "unset"),
                envOr("JIGSAW_LOG_LEVEL", "default"));
    if (pool > nproc) {
        std::cerr << "refusing to run: thread pool (" << pool
                  << ") is larger than the CPUs available (" << nproc
                  << ")\n";
        return 2;
    }
    if (std::getenv("JIGSAW_FAULT_SPEC") != nullptr) {
        std::cerr << "refusing to run: JIGSAW_FAULT_SPEC is set\n";
        return 2;
    }

    std::unique_ptr<Workload> workload;
    if (workload_name == "suite-cold")
        workload = makeSuiteCold(seed);
    else if (workload_name == "wide-support")
        workload = makeWideSupport(seed);
    else if (workload_name == "sweep-closed")
        workload = makeSweepClosed(seed);
    else if (workload_name == "paced-mix")
        workload = makePacedMix(seed);
    else
        return usage(argv[0]);

    try {
        workload->generate();
        std::vector<double> setup_s;
        double setup_total_s = 0.0;
        while (setup_s.size() < kSetupMinRepeats ||
               (setup_total_s < kSetupMinSeconds &&
                setup_s.size() < kSetupMaxRepeats)) {
            workload->tearDown();
            jigsaw::compiler::clearTranspileCache();
            const SteadyClock::time_point start = SteadyClock::now();
            workload->setUp(false);
            setup_s.push_back(msBetween(start, SteadyClock::now()) / 1000.0);
            setup_total_s += setup_s.back();
        }
        std::printf("# setup_s: median of %zu set-ups, %.6f .. %.6f s\n",
                    setup_s.size(),
                    *std::min_element(setup_s.begin(), setup_s.end()),
                    *std::max_element(setup_s.begin(), setup_s.end()));

        Phase untraced = workload->run(seconds);
        Phase traced;
        if (trace == 1) {
            workload->tearDown();
            workload->setUp(true);
            traced = workload->run(seconds);
        }
        // Read before the references run, so it is the system's peak.
        const double peak_rss_mb = peakRssMb();

        ReferenceBook refs;
        const SteadyClock::time_point ref_start = SteadyClock::now();
        workload->computeReferences(refs);
        workload->tearDown();
        std::printf("# references: %zu outputs in %.3f s (outside timing)\n",
                    refs.size(),
                    msBetween(ref_start, SteadyClock::now()) / 1000.0);
        checkOutputs(untraced, refs);
        Tally total = untraced.tally;
        std::vector<Metric> metrics;
        if (trace == 0) {
            metrics = endToEndMetrics(untraced, median(setup_s), peak_rss_mb,
                                      workload->pstGain());
        } else {
            checkOutputs(traced, refs);
            total.merge(traced.tally);
            // Both runs were held to the same references; say so per key.
            std::map<std::uint64_t, std::uint64_t> seen(
                untraced.outputs.begin(), untraced.outputs.end());
            std::size_t common = 0;
            std::size_t differ = 0;
            for (const auto &[key, digest] : traced.outputs) {
                if (const auto it = seen.find(key); it != seen.end()) {
                    ++common;
                    differ += it->second != digest ? 1 : 0;
                }
            }
            std::printf("# traced vs untraced outputs: %zu jobs in common, "
                        "%zu differ\n",
                        common, differ);
            printWhereTheTimeGoes(workload_name, traced);
            if (!writeSpans(workload_name, seed, traced))
                return 1;
            metrics = perLayerMetrics(traced, untraced);
        }

        std::printf("# jobs: attempted=%llu completed=%llu mismatched=%llu "
                    "failed=%llu shed=%llu expired=%llu error_rate=%.6f\n"
                    "# latency: p50=%.3f ms p95=%.3f ms over %zu jobs "
                    "(p95 has ten samples beyond it: %s)\n",
                    static_cast<unsigned long long>(total.attempted),
                    static_cast<unsigned long long>(total.completed),
                    static_cast<unsigned long long>(total.mismatched),
                    static_cast<unsigned long long>(total.failed),
                    static_cast<unsigned long long>(total.shed),
                    static_cast<unsigned long long>(total.expired),
                    total.errorRate(), nearestRank(untraced.latencyMs, 0.5),
                    nearestRank(untraced.latencyMs, 0.95),
                    untraced.latencyMs.size(),
                    percentileSupported(untraced.latencyMs.size(), 0.95)
                        ? "yes"
                        : "no");
        const bool correct = total.errors() == 0 && total.attempted > 0;
        std::string json = std::string("{\"correct\": ") +
                           (correct ? "true" : "false") +
                           ", \"attempted\": " +
                           std::to_string(total.attempted) +
                           ", \"failed\": " + std::to_string(total.errors()) +
                           ", \"metrics\": {";
        for (std::size_t i = 0; i < metrics.size(); ++i) {
            json += (i == 0 ? "\"" : ", \"") + metrics[i].name +
                    "\": {\"value\": " + jsonNumber(metrics[i].value) +
                    ", \"unit\": \"" + metrics[i].unit + "\"}";
        }
        json += "}}";
        std::fflush(stdout);
        std::cout << json << std::endl;
        return correct ? 0 : 1;
    } catch (const std::exception &e) {
        std::cerr << "benchmark failed: " << e.what() << "\n";
        return 1;
    }
}
