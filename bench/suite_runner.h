/**
 * @file
 * Shared evaluation-sweep driver for the bench harness.
 *
 * Several paper artifacts (Figure 8, Tables 3-5, Figure 11) report
 * different metrics over the same sweep: every benchmark in Table 2,
 * on every evaluation device, under baseline / EDM / JigSaw (with and
 * without recompilation) / JigSaw-M, all with equal trial budgets.
 * This helper runs that sweep once per bench binary.
 */
#ifndef JIGSAW_BENCH_SUITE_RUNNER_H
#define JIGSAW_BENCH_SUITE_RUNNER_H

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "device/device_model.h"
#include "obs/exposition.h"
#include "workloads/workload.h"

namespace jigsaw {
namespace bench {

/** All scheme outputs for one (device, workload) pair. */
struct SuiteCell
{
    int deviceIndex;
    int workloadIndex;
    Pmf baseline;        ///< Noise-aware SABRE, all trials global.
    Pmf edm;             ///< Ensemble of 4 diverse mappings.
    Pmf jigsawNoRecomp;  ///< JigSaw, CPMs reuse the global mapping.
    Pmf jigsaw;          ///< JigSaw with CPM recompilation.
    Pmf jigsawM;         ///< JigSaw-M (sizes 2..5, top-down).
};

/** The whole sweep: devices x workloads with owned workload objects. */
struct SuiteRun
{
    std::vector<device::DeviceModel> devices;
    std::vector<std::unique_ptr<workloads::Workload>> workloads;
    std::vector<SuiteCell> cells;

    /** Cumulative wall milliseconds per scheme, across all cells. */
    double baselineMs = 0.0;
    double edmMs = 0.0;
    double jigsawNoRecompMs = 0.0;
    double jigsawMs = 0.0;
    double jigsawMMs = 0.0;
    double totalMs = 0.0; ///< Whole-sweep wall time.

    /** @name Executor and compilation cache counters, summed per cell.
     *  @{ */
    std::uint64_t executorCacheHits = 0;   ///< PMF-cache hits.
    std::uint64_t executorCacheMisses = 0; ///< Full simulations run.
    std::uint64_t batchEvolutions = 0;     ///< Shared-prefix evolutions.
    std::uint64_t marginalsServed = 0;     ///< CPM PMFs off shared states.
    std::uint64_t evolutionsSaved = 0;     ///< Evolutions batching avoided.
    std::uint64_t prefixStateHits = 0;   ///< Split-prefix state reuses.
    std::uint64_t prefixStateMisses = 0; ///< Split prefixes evolved.
    /** @} */
    /** Process-wide counter deltas across the sweep (the transpile
     *  memo and the SIMD kernel-dispatch totals), taken through the
     *  shared obs::ProcessCounters snapshot so the timings-JSON
     *  export, the Prometheus exposition, and the perf bench's
     *  dispatch-mix table all report from one source. */
    obs::ProcessCounters counters;

    /** The cell for (device d, workload w). */
    const SuiteCell &cell(int d, int w) const;
};

/**
 * Run the full evaluation sweep.
 *
 * Scheme wall times are accumulated into the returned SuiteRun; when
 * the JIGSAW_SUITE_TIMINGS_JSON environment variable names a path,
 * they are also written there in the BENCH_perf.json format (see
 * docs/performance.md), giving every fig/tab bench binary a perf
 * trajectory for free.
 *
 * @param trials        Trial budget per scheme (shared by all).
 * @param seed          Base RNG seed (per-cell seeds derive from it).
 * @param qaoa_only     Restrict to the QAOA suite (Table 5 / Fig 14).
 * @param quiet         Suppress progress lines on stderr.
 */
SuiteRun runEvaluationSuite(std::uint64_t trials, std::uint64_t seed,
                            bool qaoa_only = false, bool quiet = false);

/** Write the sweep's scheme timings in the BENCH_perf.json format. */
bool writeSuiteTimings(const SuiteRun &run, const std::string &path);

/** Outcome of pushing the sweep's JigSaw runs through JigsawService. */
struct ServiceSuiteRun
{
    std::size_t programs = 0;  ///< Programs submitted (cells x schemes).
    double serviceMs = 0.0;    ///< Wall ms through JigsawService.
    double sequentialMs = 0.0; ///< Same jobs serially (0 when skipped).
    double latencyP50Ms = 0.0; ///< Median per-program service latency.
    double latencyP95Ms = 0.0; ///< Tail per-program service latency.
    std::size_t mergedPrograms = 0; ///< Programs in merge windows.
    /** Every service PMF bitwise-matched its sequential run. */
    bool outputsMatch = true;

    /** Sequential / service wall-time ratio (concurrency win). */
    double speedup() const
    {
        return serviceMs > 0.0 && sequentialMs > 0.0
                   ? sequentialMs / serviceMs
                   : 0.0;
    }

    /** Service-mode throughput. */
    double programsPerSecond() const
    {
        return serviceMs > 0.0
                   ? 1000.0 * static_cast<double>(programs) / serviceMs
                   : 0.0;
    }
};

/**
 * Service-mode path: every JigSaw scheme of the evaluation sweep
 * (JigSaw without recompilation, JigSaw, JigSaw-M, per device x
 * workload cell) becomes one ServiceProgram with its own seeded
 * executor, and the whole batch runs concurrently through
 * core::JigsawService. With @p compare_sequential the same programs
 * first run serially through runJigsaw (transpile cache cleared
 * before each phase so both pay cold compilation) and every output
 * PMF is checked for a bitwise match — the service must be a pure
 * throughput win.
 */
ServiceSuiteRun runEvaluationSuiteService(std::uint64_t trials,
                                          std::uint64_t seed,
                                          bool qaoa_only = false,
                                          bool quiet = false,
                                          bool compare_sequential = true);

/** Geometric mean helper that tolerates zero entries by flooring. */
double geomeanFloored(const std::vector<double> &xs, double floor = 1e-6);

} // namespace bench
} // namespace jigsaw

#endif // JIGSAW_BENCH_SUITE_RUNNER_H
