#include "suite_runner.h"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <iostream>

#include "common/error.h"
#include "compiler/transpiler.h"
#include "core/jigsaw.h"
#include "core/service.h"
#include "device/library.h"
#include "mitigation/edm.h"
#include "perf_json.h"
#include "sim/simulators.h"
#include "workloads/registry.h"

namespace jigsaw {
namespace bench {

namespace {

/** Run @p fn, add its wall milliseconds to @p acc, return its value. */
template <typename Fn>
auto
timed(double &acc, Fn &&fn)
{
    const auto start = std::chrono::steady_clock::now();
    auto result = fn();
    acc += std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
               .count();
    return result;
}

} // namespace

const SuiteCell &
SuiteRun::cell(int d, int w) const
{
    for (const SuiteCell &c : cells) {
        if (c.deviceIndex == d && c.workloadIndex == w)
            return c;
    }
    fatalIf(true, "SuiteRun: no such cell");
    return cells.front(); // unreachable
}

SuiteRun
runEvaluationSuite(std::uint64_t trials, std::uint64_t seed,
                   bool qaoa_only, bool quiet)
{
    SuiteRun run;
    run.devices = device::evaluationDevices();
    run.workloads = qaoa_only ? workloads::qaoaBenchmarks()
                              : workloads::paperBenchmarks();
    const obs::ProcessCounters counters0 =
        obs::ProcessCounters::snapshot();
    const auto sweep_start = std::chrono::steady_clock::now();

    for (int d = 0; d < static_cast<int>(run.devices.size()); ++d) {
        const device::DeviceModel &dev =
            run.devices[static_cast<std::size_t>(d)];
        for (int w = 0; w < static_cast<int>(run.workloads.size()); ++w) {
            const workloads::Workload &workload =
                *run.workloads[static_cast<std::size_t>(w)];
            if (!quiet) {
                std::cerr << "  [suite] " << dev.name() << " / "
                          << workload.name() << "\n";
            }
            const std::uint64_t cell_seed =
                seed + 1000003ULL * static_cast<std::uint64_t>(d) +
                10007ULL * static_cast<std::uint64_t>(w);
            sim::NoisySimulator executor(dev, {.seed = cell_seed});

            const Pmf baseline = timed(run.baselineMs, [&] {
                return core::runBaseline(workload.circuit(), dev,
                                         executor, trials);
            });
            const Pmf edm = timed(run.edmMs, [&] {
                return mitigation::runEdm(workload.circuit(), dev,
                                          executor, trials, 4)
                    .output;
            });

            core::JigsawOptions no_recomp;
            no_recomp.recompileCpms = false;
            const Pmf jigsaw_no_recomp = timed(run.jigsawNoRecompMs, [&] {
                return core::runJigsaw(workload.circuit(), dev, executor,
                                       trials, no_recomp)
                    .output;
            });
            const Pmf jigsaw = timed(run.jigsawMs, [&] {
                return core::runJigsaw(workload.circuit(), dev, executor,
                                       trials)
                    .output;
            });
            const Pmf jigsaw_m = timed(run.jigsawMMs, [&] {
                return core::runJigsaw(workload.circuit(), dev, executor,
                                       trials, core::jigsawMOptions())
                    .output;
            });

            run.cells.push_back({d, w, baseline, edm, jigsaw_no_recomp,
                                 jigsaw, jigsaw_m});
            run.executorCacheHits += executor.cacheHits();
            run.executorCacheMisses += executor.cacheMisses();
            run.batchEvolutions += executor.batchStats().baseEvolutions;
            run.marginalsServed += executor.batchStats().marginalsServed;
            run.evolutionsSaved +=
                executor.batchStats().evolutionsSaved();
            run.prefixStateHits += executor.skeletonCacheHits();
            run.prefixStateMisses += executor.skeletonCacheMisses();
        }
    }
    run.totalMs = std::chrono::duration<double, std::milli>(
                      std::chrono::steady_clock::now() - sweep_start)
                      .count();
    run.counters = obs::ProcessCounters::snapshot().since(counters0);

    if (const char *path = std::getenv("JIGSAW_SUITE_TIMINGS_JSON")) {
        if (path[0] != '\0' && !writeSuiteTimings(run, path) && !quiet)
            std::cerr << "  [suite] cannot write timings to " << path
                      << "\n";
    }
    return run;
}

bool
writeSuiteTimings(const SuiteRun &run, const std::string &path)
{
    PerfReport report("evaluation sweep: " +
                      std::to_string(run.devices.size()) + " devices x " +
                      std::to_string(run.workloads.size()) +
                      " workloads");
    report.addTiming("suite/baseline", run.baselineMs);
    report.addTiming("suite/edm", run.edmMs);
    report.addTiming("suite/jigsaw_no_recompile", run.jigsawNoRecompMs);
    report.addTiming("suite/jigsaw", run.jigsawMs);
    report.addTiming("suite/jigsaw_m", run.jigsawMMs);
    report.addTiming("suite/total", run.totalMs);
    // Counters, not milliseconds: cache and batch effectiveness of the
    // sweep (see docs/performance.md).
    report.addTiming("suite/executor_cache_hits",
                     static_cast<double>(run.executorCacheHits));
    report.addTiming("suite/executor_cache_misses",
                     static_cast<double>(run.executorCacheMisses));
    report.addTiming("suite/batch_evolutions",
                     static_cast<double>(run.batchEvolutions));
    report.addTiming("suite/batch_marginals_served",
                     static_cast<double>(run.marginalsServed));
    report.addTiming("suite/batch_evolutions_saved",
                     static_cast<double>(run.evolutionsSaved));
    // Process-wide counters (the transpile memo and the SIMD
    // kernel-dispatch totals) come from the shared ProcessCounters
    // snapshot, so these entries, the Prometheus exposition, and the
    // perf bench's dispatch-mix table can never disagree on a name or
    // a source.
    for (const obs::ProcessCounters::Entry &entry :
         run.counters.transpileEntries()) {
        report.addTiming(std::string("suite/") + entry.name,
                         static_cast<double>(entry.value));
    }
    report.addTiming("suite/prefix_state_hits",
                     static_cast<double>(run.prefixStateHits));
    report.addTiming("suite/prefix_state_misses",
                     static_cast<double>(run.prefixStateMisses));
    for (const obs::ProcessCounters::Entry &entry :
         run.counters.simdEntries()) {
        report.addTiming(entry.name, static_cast<double>(entry.value));
    }
    return report.write(path);
}

namespace {

/** Exact (bitwise) PMF equality: same support, same stored doubles. */
bool
pmfsIdentical(const Pmf &a, const Pmf &b)
{
    if (a.nQubits() != b.nQubits() || a.support() != b.support())
        return false;
    for (const auto &[outcome, p] : a.probabilities()) {
        const double q = b.prob(outcome);
        if (p != q)
            return false;
    }
    return true;
}

} // namespace

ServiceSuiteRun
runEvaluationSuiteService(std::uint64_t trials, std::uint64_t seed,
                          bool qaoa_only, bool quiet,
                          bool compare_sequential)
{
    const std::vector<device::DeviceModel> devices =
        device::evaluationDevices();
    const std::vector<std::unique_ptr<workloads::Workload>> workload_set =
        qaoa_only ? workloads::qaoaBenchmarks()
                  : workloads::paperBenchmarks();

    // One program per (cell, scheme): the three JigSaw schemes of the
    // sweep, each with a private deterministically seeded executor.
    core::JigsawOptions no_recomp;
    no_recomp.recompileCpms = false;
    const std::vector<core::JigsawOptions> schemes = {
        no_recomp, core::JigsawOptions{}, core::jigsawMOptions()};

    std::vector<core::ServiceProgram> programs;
    for (int d = 0; d < static_cast<int>(devices.size()); ++d) {
        for (int w = 0; w < static_cast<int>(workload_set.size()); ++w) {
            const std::uint64_t cell_seed =
                seed + 1000003ULL * static_cast<std::uint64_t>(d) +
                10007ULL * static_cast<std::uint64_t>(w);
            for (std::size_t sc = 0; sc < schemes.size(); ++sc) {
                programs.emplace_back(
                    workload_set[static_cast<std::size_t>(w)]->circuit(),
                    devices[static_cast<std::size_t>(d)], trials,
                    schemes[sc], cell_seed + 31ULL * sc);
            }
        }
    }

    ServiceSuiteRun run;
    run.programs = programs.size();

    std::vector<core::JigsawResult> sequential;
    if (compare_sequential) {
        compiler::clearTranspileCache();
        const auto start = std::chrono::steady_clock::now();
        sequential = core::runProgramsSequentially(programs);
        run.sequentialMs = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - start)
                               .count();
        if (!quiet) {
            std::cerr << "  [suite] service mode: " << programs.size()
                      << " programs sequential in " << run.sequentialMs
                      << " ms\n";
        }
    }

    compiler::clearTranspileCache();
    core::JigsawService service;
    const auto start = std::chrono::steady_clock::now();
    const std::vector<core::JigsawResult> results = service.run(programs);
    run.serviceMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - start)
                        .count();
    // A fresh service: its lifetime stats cover exactly this run.
    const core::StreamStats stats = service.streamStats();
    run.latencyP50Ms = stats.latencyPercentileMs(0.5);
    run.latencyP95Ms = stats.latencyPercentileMs(0.95);
    run.mergedPrograms = stats.mergedJobs;
    if (!quiet) {
        std::cerr << "  [suite] service mode: " << programs.size()
                  << " programs concurrent in " << run.serviceMs
                  << " ms (" << run.programsPerSecond()
                  << " programs/s, latency p50 " << run.latencyP50Ms
                  << " ms / p95 " << run.latencyP95Ms << " ms, "
                  << run.mergedPrograms << " in merge windows)\n";
    }

    if (compare_sequential) {
        for (std::size_t i = 0; i < programs.size(); ++i) {
            if (!pmfsIdentical(sequential[i].output,
                               results[i].output)) {
                run.outputsMatch = false;
                if (!quiet) {
                    std::cerr << "  [suite] service mismatch on "
                                 "program "
                              << i << "\n";
                }
            }
        }
    }
    return run;
}

double
geomeanFloored(const std::vector<double> &xs, double floor)
{
    fatalIf(xs.empty(), "geomeanFloored: empty vector");
    double log_sum = 0.0;
    for (double x : xs)
        log_sum += std::log(std::max(x, floor));
    return std::exp(log_sum / static_cast<double>(xs.size()));
}

} // namespace bench
} // namespace jigsaw
