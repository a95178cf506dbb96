/**
 * @file
 * What the four workloads share: the phase record a timed run fills,
 * the reference book that holds every output to its sequential
 * runJigsaw, and process-level measurements (CPU time, peak RSS).
 */
#ifndef JIGSAW_E2EBENCH_BENCH_H
#define JIGSAW_E2EBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "core/jigsaw.h"
#include "stats.h"

namespace e2e {

using SteadyClock = std::chrono::steady_clock;

inline double
msBetween(SteadyClock::time_point a, SteadyClock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** Process CPU seconds (user + system) so far. */
double processCpuSeconds();

/** Peak resident set of the process so far, in MiB. */
double peakRssMb();

/** Order-independent 64-bit digest of a PMF's exact bits. */
std::uint64_t pmfDigest(const jigsaw::Pmf &pmf);

/** A 64-bit mix of @p a and @p b (derives per-job seeds). */
std::uint64_t mixSeed(std::uint64_t a, std::uint64_t b);

/**
 * Output digest per job key, from a sequential runJigsaw of the same
 * (circuit, options, trials, executor seed) computed outside timing.
 */
class ReferenceBook
{
  public:
    void add(std::uint64_t key, const jigsaw::Pmf &output);
    /** True when @p digest is the reference digest of @p key. */
    bool matches(std::uint64_t key, std::uint64_t digest) const;
    std::size_t size() const { return digests_.size(); }

  private:
    std::unordered_map<std::uint64_t, std::uint64_t> digests_;
};

/**
 * Fill the process-wide transpile memo with @p logical's global and
 * CPM compilations, as a first run of the program would.
 */
void warmTranspileMemo(const jigsaw::circuit::QuantumCircuit &logical,
                       const jigsaw::device::DeviceModel &dev,
                       std::uint64_t trials,
                       const jigsaw::core::JigsawOptions &options);

/**
 * Run @p tasks on @p threads plain threads (not the library pool, so
 * each task's own parallelism still has the pool to itself) and
 * rethrow the first failure.
 */
void runConcurrently(const std::vector<std::function<void()>> &tasks,
                     std::size_t threads);

/** One full cycle of a closed loop's job mix. */
struct Segment
{
    double wallS = 0.0;
    double cpuS = 0.0;
    std::uint64_t jobs = 0; ///< Jobs that produced an output.
};

/** One timed run of a workload. */
struct Phase
{
    double wallS = 0.0; ///< Timed wall time.
    double cpuS = 0.0;  ///< Process CPU time over the same interval.
    /**
     * Closed loops record each full cycle of their job mix; rates are
     * then medians over cycles, so a burst of host CPU steal moves one
     * cycle rather than the run's figure. Empty for the open loop.
     */
    std::vector<Segment> segments;
    /** Jobs that produced an output count as completed until
     *  checkOutputs() moves the mismatched ones. */
    Tally tally;
    std::vector<double> latencyMs; ///< One per job with an output.
    /** (job key, pmfDigest of its output), one per job with an output. */
    std::vector<std::pair<std::uint64_t, std::uint64_t>> outputs;
    /** Traced runs only: spans and layer counters (summed). */
    std::vector<Span> spans;
    std::map<std::string, double> counts;
    /** Service workloads: per-job JobStatus splits. */
    std::vector<double> queueWaitMs;
    std::vector<double> executeMs;
    double generatorLagMaxMs = 0.0;

    /** Median cycle throughput, or completed / wallS without cycles. */
    double jobsPerSecond() const;
    /** Median cycle CPU ms per job, or cpuS per completed job. */
    double cpuMsPerJob() const;
};

/** Times one closed-loop cycle into a Phase's segments. */
class SegmentTimer
{
  public:
    explicit SegmentTimer(Phase &phase);
    /** Close the current cycle and start the next. */
    void next();

  private:
    Phase &phase_;
    SteadyClock::time_point start_;
    double cpu0_;
    std::uint64_t jobs0_;
};

/**
 * One benchmark workload. main.cpp generates its inputs, sets it up
 * several times (timing each), runs the timed phases, and only then
 * computes the references the phases' outputs are checked against.
 */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Generate the inputs from the seed, once and untimed: registry
     * programs (with the ideal PMFs PST needs), seeds, angle vectors.
     */
    virtual void generate() = 0;
    /** Drop everything setUp built (untimed). */
    virtual void tearDown() = 0;
    /**
     * Build the system under test for a run with or without tracing:
     * device models, job lists, service, parametric compiles, memo
     * warm-up. This is what setup_s times.
     */
    virtual void setUp(bool traced) = 0;
    /**
     * Sequential references and baselines, outside timing, for the
     * keys run() reports (call before tearDown).
     */
    virtual void computeReferences(ReferenceBook &refs) = 0;
    /** Measure for about @p seconds. */
    virtual Phase run(double seconds) = 0;
    /** PST gain over the baseline (valid after computeReferences). */
    virtual double pstGain() const = 0;
};

/**
 * Check every output of @p phase against @p refs, moving mismatched
 * jobs from completed to mismatched.
 */
void checkOutputs(Phase &phase, const ReferenceBook &refs);

std::unique_ptr<Workload> makeSuiteCold(std::uint64_t seed);
std::unique_ptr<Workload> makeWideSupport(std::uint64_t seed);
std::unique_ptr<Workload> makeSweepClosed(std::uint64_t seed);
std::unique_ptr<Workload> makePacedMix(std::uint64_t seed);

} // namespace e2e

#endif // JIGSAW_E2EBENCH_BENCH_H
