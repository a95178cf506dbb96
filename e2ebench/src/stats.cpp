#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace e2e {

namespace {

/** 1-based nearest rank of q among n samples, clamped to [1, n]. */
std::size_t
rankOf(std::size_t n, double q)
{
    if (!(q > 0.0))
        return 1;
    // The epsilon keeps q * n on the exact integer when q is not
    // representable (0.95 * 200 must give rank 190, not 191).
    const double r = std::ceil(std::min(q, 1.0) * static_cast<double>(n) -
                               1e-9);
    return std::clamp<std::size_t>(static_cast<std::size_t>(std::max(r, 1.0)),
                                   1, n);
}

} // namespace

double
nearestRank(std::vector<double> samples, double q)
{
    if (samples.empty())
        return 0.0;
    const std::size_t k = rankOf(samples.size(), q) - 1;
    std::nth_element(samples.begin(),
                     samples.begin() + static_cast<std::ptrdiff_t>(k),
                     samples.end());
    return samples[k];
}

std::size_t
samplesBeyond(std::size_t n, double q)
{
    return n == 0 ? 0 : n - rankOf(n, q);
}

bool
percentileSupported(std::size_t n, double q)
{
    return samplesBeyond(n, q) >= 10;
}

double
dueTimeLatencyMs(double due_ms, double sent_ms, double service_ms)
{
    return std::max(0.0, sent_ms - due_ms) + service_ms;
}

void
Tally::add(Outcome outcome)
{
    ++attempted;
    switch (outcome) {
      case Outcome::Completed:
        ++completed;
        break;
      case Outcome::Mismatched:
        ++mismatched;
        break;
      case Outcome::Failed:
        ++failed;
        break;
      case Outcome::Shed:
        ++shed;
        break;
      case Outcome::Expired:
        ++expired;
        break;
    }
}

void
Tally::merge(const Tally &other)
{
    attempted += other.attempted;
    completed += other.completed;
    mismatched += other.mismatched;
    failed += other.failed;
    shed += other.shed;
    expired += other.expired;
}

std::uint64_t
Tally::errors() const
{
    return mismatched + failed + shed + expired;
}

double
Tally::errorRate() const
{
    return attempted == 0 ? 0.0
                          : static_cast<double>(errors()) /
                                static_cast<double>(attempted);
}

double
pstGain(const std::vector<double> &jigsaw_pst,
        const std::vector<double> &baseline_pst, double floor)
{
    const std::size_t n = std::min(jigsaw_pst.size(), baseline_pst.size());
    if (n == 0)
        return 1.0;
    double log_sum = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        log_sum += std::log(std::max(jigsaw_pst[i], floor)) -
                   std::log(std::max(baseline_pst[i], floor));
    }
    return std::exp(log_sum / static_cast<double>(n));
}

std::map<std::string, double>
selfTimeByName(const std::vector<Span> &spans)
{
    std::unordered_map<std::uint64_t, std::vector<const Span *>> children;
    for (const Span &span : spans) {
        if (span.parent != 0)
            children[span.parent].push_back(&span);
    }
    std::map<std::string, double> self;
    for (const Span &span : spans) {
        std::vector<std::pair<double, double>> covered;
        if (const auto it = children.find(span.id); it != children.end()) {
            for (const Span *child : it->second) {
                const double lo = std::max(child->startMs, span.startMs);
                const double hi = std::min(child->endMs, span.endMs);
                if (hi > lo)
                    covered.emplace_back(lo, hi);
            }
        }
        std::sort(covered.begin(), covered.end());
        double union_ms = 0.0;
        double reach = span.startMs;
        for (const auto &[lo, hi] : covered) {
            if (hi <= reach)
                continue;
            union_ms += hi - std::max(lo, reach);
            reach = hi;
        }
        self[span.name] += std::max(0.0, span.endMs - span.startMs) - union_ms;
    }
    return self;
}

std::string
spansToJsonLines(const std::vector<Span> &spans)
{
    std::string out;
    char line[256];
    for (const Span &span : spans) {
        std::snprintf(line, sizeof line,
                      "{\"job\":%llu,\"id\":%llu,\"parent\":%llu,"
                      "\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f}\n",
                      static_cast<unsigned long long>(span.job),
                      static_cast<unsigned long long>(span.id),
                      static_cast<unsigned long long>(span.parent),
                      span.name.c_str(), span.startMs, span.endMs);
        out += line;
    }
    return out;
}

} // namespace e2e
