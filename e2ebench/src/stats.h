/**
 * @file
 * The benchmark's own arithmetic: percentiles, open-loop latency,
 * failure accounting, the PST-gain mean, and trace reduction. Kept
 * free of the library so the self-tests can pin it down in isolation.
 */
#ifndef JIGSAW_E2EBENCH_STATS_H
#define JIGSAW_E2EBENCH_STATS_H

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace e2e {

/**
 * Nearest-rank percentile: the smallest sample such that at least
 * q * n samples are at or below it (q in (0, 1]; q <= 0 gives the
 * minimum). An empty sample set yields 0.
 */
double nearestRank(std::vector<double> samples, double q);

/** Samples strictly above the nearest-rank q-percentile of n. */
std::size_t samplesBeyond(std::size_t n, double q);

/**
 * True when the q-percentile of n samples has at least ten samples
 * beyond it, the smallest tail a percentile may be reported from.
 */
bool percentileSupported(std::size_t n, double q);

/**
 * Latency of an open-loop job, measured from when it was due: how late
 * the generator sent it (never negative) plus the service's
 * submit-to-terminal time. A stalled generator therefore charges its
 * stall to every job it delayed.
 */
double dueTimeLatencyMs(double due_ms, double sent_ms, double service_ms);

/** How one attempted job ended. */
enum class Outcome
{
    Completed, ///< Terminal with an output equal to its reference.
    Mismatched, ///< Terminal, but the output differs from its reference.
    Failed,    ///< Terminal with an error.
    Shed,      ///< Refused at submit by bounded admission.
    Expired,   ///< Missed its deadline before dispatch.
};

/** Attempted jobs by outcome; every submit counts, refused or not. */
struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t completed = 0; ///< Terminal with a matching output.
    std::uint64_t mismatched = 0;
    std::uint64_t failed = 0;
    std::uint64_t shed = 0;
    std::uint64_t expired = 0;

    void add(Outcome outcome);
    void merge(const Tally &other);
    /** Jobs that did not produce the right output. */
    std::uint64_t errors() const;
    /** errors() / attempted (0 when nothing was attempted). */
    double errorRate() const;
};

/**
 * Geometric mean of PST(JigSaw) / PST(baseline) over programs, each
 * PST floored at @p floor so a program the baseline never got right
 * does not divide by zero. Empty input yields 1.
 */
double pstGain(const std::vector<double> &jigsaw_pst,
               const std::vector<double> &baseline_pst, double floor);

/** One traced interval. parent == 0 marks a root span. */
struct Span
{
    std::uint64_t job = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::string name;
    double startMs = 0.0;
    double endMs = 0.0;
};

/**
 * Self time per span name, summed over @p spans: each span's duration
 * minus the part of it covered by the union of its direct children.
 */
std::map<std::string, double> selfTimeByName(const std::vector<Span> &spans);

/** @p spans as JSON lines, one object per span. */
std::string spansToJsonLines(const std::vector<Span> &spans);

} // namespace e2e

#endif // JIGSAW_E2EBENCH_STATS_H
