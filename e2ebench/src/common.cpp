#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstring>
#include <exception>
#include <mutex>
#include <thread>

#include "bench.h"
#include "core/pipeline.h"

namespace e2e {

double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

std::uint64_t
mixSeed(std::uint64_t a, std::uint64_t b)
{
    // splitmix64 over the pair.
    std::uint64_t z = a * 0x9e3779b97f4a7c15ULL + b + 0x632be59bd9b4e019ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
pmfDigest(const jigsaw::Pmf &pmf)
{
    // A sum of per-entry mixes: independent of the map's iteration
    // order, sensitive to every bit of every probability.
    std::uint64_t digest = mixSeed(static_cast<std::uint64_t>(pmf.nQubits()),
                                   pmf.support());
    for (const auto &[outcome, p] : pmf.probabilities()) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &p, sizeof bits);
        digest += mixSeed(static_cast<std::uint64_t>(outcome), bits);
    }
    return digest;
}

void
ReferenceBook::add(std::uint64_t key, const jigsaw::Pmf &output)
{
    digests_[key] = pmfDigest(output);
}

bool
ReferenceBook::matches(std::uint64_t key, std::uint64_t digest) const
{
    const auto it = digests_.find(key);
    return it != digests_.end() && it->second == digest;
}

void
checkOutputs(Phase &phase, const ReferenceBook &refs)
{
    std::uint64_t mismatched = 0;
    for (const auto &[key, digest] : phase.outputs) {
        if (!refs.matches(key, digest))
            ++mismatched;
    }
    phase.tally.completed -= std::min(mismatched, phase.tally.completed);
    phase.tally.mismatched += mismatched;
}

double
Phase::jobsPerSecond() const
{
    if (segments.empty()) {
        return wallS > 0.0 ? static_cast<double>(tally.completed) / wallS
                           : 0.0;
    }
    std::vector<double> rates;
    for (const Segment &segment : segments)
        rates.push_back(static_cast<double>(segment.jobs) / segment.wallS);
    return nearestRank(std::move(rates), 0.5);
}

double
Phase::cpuMsPerJob() const
{
    if (segments.empty()) {
        return 1000.0 * cpuS /
               static_cast<double>(std::max<std::uint64_t>(tally.completed, 1));
    }
    std::vector<double> costs;
    for (const Segment &segment : segments) {
        costs.push_back(1000.0 * segment.cpuS /
                        static_cast<double>(std::max<std::uint64_t>(
                            segment.jobs, 1)));
    }
    return nearestRank(std::move(costs), 0.5);
}

SegmentTimer::SegmentTimer(Phase &phase)
    : phase_(phase), start_(SteadyClock::now()), cpu0_(processCpuSeconds()),
      jobs0_(phase.tally.completed)
{
}

void
SegmentTimer::next()
{
    const SteadyClock::time_point now = SteadyClock::now();
    const double cpu = processCpuSeconds();
    phase_.segments.push_back({msBetween(start_, now) / 1000.0, cpu - cpu0_,
                               phase_.tally.completed - jobs0_});
    start_ = now;
    cpu0_ = cpu;
    jobs0_ = phase_.tally.completed;
}

void
warmTranspileMemo(const jigsaw::circuit::QuantumCircuit &logical,
                  const jigsaw::device::DeviceModel &dev, std::uint64_t trials,
                  const jigsaw::core::JigsawOptions &options)
{
    jigsaw::core::compileJobs(
        logical, dev, jigsaw::core::planSubsets(logical, trials, options),
        options);
}

void
runConcurrently(const std::vector<std::function<void()>> &tasks,
                std::size_t threads)
{
    std::atomic<std::size_t> next{0};
    std::mutex error_mutex;
    std::exception_ptr error;
    const auto worker = [&] {
        for (std::size_t i = next++; i < tasks.size(); i = next++) {
            try {
                tasks[i]();
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!error)
                    error = std::current_exception();
            }
        }
    };
    std::vector<std::thread> pool;
    for (std::size_t t = 1; t < std::max<std::size_t>(threads, 1); ++t)
        pool.emplace_back(worker);
    worker();
    for (std::thread &thread : pool)
        thread.join();
    if (error)
        std::rethrow_exception(error);
}

} // namespace e2e
