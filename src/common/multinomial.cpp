#include "common/multinomial.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace jigsaw {

namespace {

/** log(k!) - [(k + 1/2) log(k + 1) - (k + 1) + log(2 pi) / 2], the
 *  Stirling-series remainder BTRS corrects its bound with. */
double
stirlingTail(double k)
{
    static constexpr double kTable[] = {
        0.08106146679532733,  0.04134069595540946,  0.027677925684997717,
        0.02079067210376584,  0.016644691189820815, 0.013876128823072431,
        0.01189670994589287,  0.010411265261973224, 0.009255462182709007,
        0.008330563433359028};
    if (k <= 9.0)
        return kTable[static_cast<int>(k)];
    const double kp1sq = (k + 1.0) * (k + 1.0);
    return (1.0 / 12 - (1.0 / 360 - 1.0 / 1260 / kp1sq) / kp1sq) / (k + 1.0);
}

/** Binomial(n, p) by sequential inversion, for n p < 10 and p <= 1/2
 *  (Kachitvichyanukul & Schmeiser's BINV with a restart bound). */
std::uint64_t
binomialInversion(std::uint64_t n, double p, Rng &rng)
{
    const double q = 1.0 - p;
    const double nd = static_cast<double>(n);
    const double qn = std::exp(nd * std::log1p(-p));
    const double bound =
        std::min(nd, nd * p + 10.0 * std::sqrt(nd * p * q + 1.0));
    std::uint64_t x = 0;
    double px = qn;
    double u = rng.uniform();
    while (u > px) {
        ++x;
        if (static_cast<double>(x) > bound) {
            x = 0;
            px = qn;
            u = rng.uniform();
        } else {
            u -= px;
            const double xd = static_cast<double>(x);
            px *= (nd - xd + 1.0) * p / (xd * q);
        }
    }
    return x;
}

/** Binomial(n, p) by transformed rejection with squeeze, for n p >= 10
 *  and p <= 1/2 (Hormann 1993, BTRS). */
std::uint64_t
binomialRejection(std::uint64_t n, double p, Rng &rng)
{
    const double nd = static_cast<double>(n);
    const double spq = std::sqrt(nd * p * (1.0 - p));
    const double b = 1.15 + 2.53 * spq;
    const double a = -0.0873 + 0.0248 * b + 0.01 * p;
    const double c = nd * p + 0.5;
    const double v_r = 0.92 - 4.2 / b;
    const double r = p / (1.0 - p);
    const double alpha = (2.83 + 5.1 / b) * spq;
    const double m = std::floor((nd + 1.0) * p);
    for (;;) {
        const double u = rng.uniform() - 0.5;
        double v = rng.uniform();
        const double us = 0.5 - std::abs(u);
        const double k = std::floor((2.0 * a / us + b) * u + c);
        if (!(k >= 0.0 && k <= nd))
            continue;
        if (us >= 0.07 && v <= v_r)
            return static_cast<std::uint64_t>(k);
        v = std::log(v * alpha / (a / (us * us) + b));
        const double bound =
            (m + 0.5) * std::log((m + 1.0) / (r * (nd - m + 1.0))) +
            (nd + 1.0) * std::log((nd - m + 1.0) / (nd - k + 1.0)) +
            (k + 0.5) * std::log(r * (nd - k + 1.0) / (k + 1.0)) +
            stirlingTail(m) + stirlingTail(nd - m) - stirlingTail(k) -
            stirlingTail(nd - k);
        if (v <= bound)
            return static_cast<std::uint64_t>(k);
    }
}

/** An exact Binomial(n, p) draw; p = 0 and p = 1 consume nothing. */
std::uint64_t
binomial(std::uint64_t n, double p, Rng &rng)
{
    if (p <= 0.0)
        return 0;
    if (p >= 1.0)
        return n;
    const bool flip = p > 0.5;
    const double q = flip ? 1.0 - p : p;
    const std::uint64_t k = static_cast<double>(n) * q < 10.0
                                ? binomialInversion(n, q, rng)
                                : binomialRejection(n, q, rng);
    return flip ? n - k : k;
}

} // namespace

MultinomialSampler::MultinomialSampler(int n_bits,
                                       std::vector<double> weights)
    : nBits_(n_bits), cdf_(std::move(weights))
{
    fatalIf(n_bits < 1 || n_bits > 64 ||
                (n_bits < 64 && cdf_.size() > (std::size_t{1} << n_bits)),
            "MultinomialSampler: more weights than n_bits outcomes");
    finish();
}

MultinomialSampler::MultinomialSampler(const Pmf &pmf) : nBits_(pmf.nQubits())
{
    outcomes_.reserve(pmf.support());
    cdf_.reserve(pmf.support());
    for (const auto &[outcome, p] : pmf.probabilities()) {
        outcomes_.push_back(outcome);
        cdf_.push_back(p);
    }
    finish();
}

void
MultinomialSampler::finish()
{
    // Weights -> inclusive prefix sums. A zero weight leaves the sum
    // unchanged bit for bit, so a range's mass (a difference of two
    // sums) is the same whether its zero-weight outcomes are stored
    // (dense) or not (sparse), and exactly 0 when all are zero.
    double total = 0.0;
    for (double &c : cdf_) {
        fatalIf(c < 0.0 || !std::isfinite(c),
                "MultinomialSampler: weights must be finite and "
                "non-negative");
        total += c;
        c = total;
    }
    fatalIf(total <= 0.0, "MultinomialSampler: total weight must be "
                          "positive");
}

Histogram
MultinomialSampler::draw(std::uint64_t shots, Rng &rng) const
{
    Histogram hist(nBits_);
    if (shots > 0)
        drawRange(0, nBits_, 0, cdf_.size(), shots, rng, hist);
    return hist;
}

/**
 * Draws @p shots (> 0) over outcomes [lo, lo + 2^bits), stored as
 * entries [a, b) with positive total mass, appending ascending
 * (outcome, count) runs to @p hist. The left half of each split
 * recurses and the right half loops, so the depth is at most 64.
 */
void
MultinomialSampler::drawRange(BasisState lo, int bits, std::size_t a,
                              std::size_t b, std::uint64_t shots, Rng &rng,
                              Histogram &hist) const
{
    for (;;) {
        if (b - a == 1) {
            hist.add(outcome(a), shots);
            return;
        }
        if (shots < kLeafShots) {
            lookupShots(a, b, shots, rng, hist);
            return;
        }
        --bits;
        const BasisState mid = lo + (BasisState{1} << bits);
        std::size_t m;
        if (outcomes_.empty()) {
            m = static_cast<std::size_t>(
                std::clamp<BasisState>(mid, a, b));
        } else {
            m = static_cast<std::size_t>(
                std::lower_bound(outcomes_.begin() + a,
                                 outcomes_.begin() + b, mid) -
                outcomes_.begin());
        }
        const double base = before(a);
        const double left_mass = before(m) - base;
        const std::uint64_t left =
            binomial(shots, left_mass / (cdf_[b - 1] - base), rng);
        if (left > 0 && left < shots)
            drawRange(lo, bits, a, m, left, rng, hist);
        if (left == shots) {
            b = m;
        } else {
            lo = mid;
            a = m;
            shots -= left;
        }
    }
}

/**
 * Finishes @p shots (< kLeafShots) over entries [a, b) one inverse-CDF
 * lookup each. A uniform that rounds up to the range's top takes the
 * first entry reaching it, so only entries with positive weight are
 * ever drawn; a range whose mass sits on one entry draws nothing.
 */
void
MultinomialSampler::lookupShots(std::size_t a, std::size_t b,
                                std::uint64_t shots, Rng &rng,
                                Histogram &hist) const
{
    const double base = before(a);
    const double top = cdf_[b - 1];
    const double *cdf = cdf_.data();
    const std::size_t first =
        static_cast<std::size_t>(std::upper_bound(cdf + a, cdf + b, base) -
                                 cdf);
    if (cdf[first] >= top) {
        hist.add(outcome(first), shots);
        return;
    }
    std::size_t picks[kLeafShots];
    const double mass = top - base;
    for (std::uint64_t s = 0; s < shots; ++s) {
        const double u = base + rng.uniform() * mass;
        const double *hit = std::upper_bound(cdf + first, cdf + b, u);
        if (hit == cdf + b)
            hit = std::lower_bound(cdf + first, cdf + b, top);
        // Insertion keeps the picks sorted for run emission.
        std::size_t j = s;
        const std::size_t pick = static_cast<std::size_t>(hit - cdf);
        for (; j > 0 && picks[j - 1] > pick; --j)
            picks[j] = picks[j - 1];
        picks[j] = pick;
    }
    for (std::uint64_t s = 0; s < shots;) {
        std::uint64_t run = 1;
        while (s + run < shots && picks[s + run] == picks[s])
            ++run;
        hist.add(outcome(picks[s]), run);
        s += run;
    }
}

} // namespace jigsaw
