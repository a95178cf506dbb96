/**
 * @file
 * Self-tests of the benchmark's arithmetic (src/stats.h). Exits 1 and
 * names the failed check when any check fails; run.py runs it before
 * every benchmark run.
 */
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void
check(bool ok, const char *what)
{
    if (!ok) {
        std::fprintf(stderr, "self-test FAILED: %s\n", what);
        ++failures;
    }
}

bool
near(double a, double b)
{
    return std::fabs(a - b) <= 1e-12 * std::max(1.0, std::fabs(b));
}

void
percentiles()
{
    using e2e::nearestRank;
    check(nearestRank({}, 0.5) == 0.0, "empty sample set gives 0");
    check(nearestRank({7.0}, 0.95) == 7.0, "one sample is every percentile");
    // 1..100: the nearest-rank p50 is the 50th value, p95 the 95th.
    std::vector<double> xs;
    for (int i = 100; i >= 1; --i)
        xs.push_back(i);
    check(nearestRank(xs, 0.5) == 50.0, "p50 of 1..100 is 50");
    check(nearestRank(xs, 0.95) == 95.0, "p95 of 1..100 is 95");
    check(nearestRank(xs, 1.0) == 100.0, "p100 is the maximum");
    check(nearestRank(xs, 0.0) == 1.0, "p0 is the minimum");
    check(nearestRank({1.0, 2.0, 3.0, 4.0}, 0.5) == 2.0,
          "p50 of an even count takes the lower middle");

    // Ten-beyond rule: p95 needs 200 samples, p50 needs 20.
    check(e2e::samplesBeyond(200, 0.95) == 10, "200 samples: 10 beyond p95");
    check(e2e::percentileSupported(200, 0.95), "p95 supported at n=200");
    check(!e2e::percentileSupported(199, 0.95), "p95 unsupported at n=199");
    check(e2e::percentileSupported(20, 0.5), "p50 supported at n=20");
    check(!e2e::percentileSupported(19, 0.5), "p50 unsupported at n=19");
    check(e2e::samplesBeyond(0, 0.95) == 0, "no samples, none beyond");
}

void
dueTimeLatency()
{
    // Sent on time: latency is the service time.
    check(e2e::dueTimeLatencyMs(100.0, 100.0, 12.5) == 12.5,
          "on-time job: latency is the service time");
    // Sent 30 ms late: the stall is charged to the job.
    check(e2e::dueTimeLatencyMs(100.0, 130.0, 12.5) == 42.5,
          "late job: generator lateness is added");
    // A generator cannot send early; never credit negative lateness.
    check(e2e::dueTimeLatencyMs(100.0, 99.0, 12.5) == 12.5,
          "early send gives no credit");
}

void
errorRate()
{
    e2e::Tally tally;
    check(tally.errorRate() == 0.0, "nothing attempted gives rate 0");
    tally.add(e2e::Outcome::Completed);
    tally.add(e2e::Outcome::Completed);
    tally.add(e2e::Outcome::Shed);
    tally.add(e2e::Outcome::Mismatched);
    // A shed submit is attempted and failed: 2 errors over 4 attempts.
    check(tally.attempted == 4, "a shed submit counts as attempted");
    check(tally.errors() == 2, "shed and mismatched count as errors");
    check(near(tally.errorRate(), 0.5), "error rate is errors / attempted");
    e2e::Tally other;
    other.add(e2e::Outcome::Failed);
    other.add(e2e::Outcome::Expired);
    tally.merge(other);
    check(tally.attempted == 6 && tally.errors() == 4,
          "merge adds attempts and every error kind");
}

void
pstGain()
{
    check(e2e::pstGain({}, {}, 1e-6) == 1.0, "no programs gives gain 1");
    // Gains 4 and 1: geometric mean 2.
    check(near(e2e::pstGain({0.8, 0.3}, {0.2, 0.3}, 1e-6), 2.0),
          "geometric mean of per-program ratios");
    // A baseline PST of 0 is floored, not divided by.
    check(near(e2e::pstGain({0.5}, {0.0}, 0.01), 50.0),
          "zero baseline PST is floored");
}

void
selfTime()
{
    // A 10 ms job with children covering [1,4] and [3,6] (overlap) and
    // a child [8,12] that runs past the job's end.
    const std::vector<e2e::Span> spans = {
        {1, 1, 0, "job", 0.0, 10.0},
        {1, 2, 1, "compile", 1.0, 4.0},
        {1, 3, 1, "execute", 3.0, 6.0},
        {1, 4, 1, "reconstruct", 8.0, 12.0},
    };
    const auto self = e2e::selfTimeByName(spans);
    // Covered: [1,6] + [8,10] = 7 ms, so the job's self time is 3 ms.
    check(near(self.at("job"), 3.0), "root self time excludes children");
    check(near(self.at("compile"), 3.0), "leaf self time is its duration");
    check(near(self.at("reconstruct"), 4.0), "leaf keeps its full duration");
}

} // namespace

int
main()
{
    percentiles();
    dueTimeLatency();
    errorRate();
    pstGain();
    selfTime();
    if (failures == 0)
        std::fprintf(stderr, "self-tests passed\n");
    return failures == 0 ? 0 : 1;
}
