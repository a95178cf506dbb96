#include "common/multinomial.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/error.h"

namespace jigsaw {

MultinomialSampler::MultinomialSampler(int n_bits,
                                       std::vector<double> weights)
    : nBits_(n_bits), cdf_(std::move(weights))
{
    finish();
}

MultinomialSampler::MultinomialSampler(const Pmf &pmf) : nBits_(pmf.nQubits())
{
    std::vector<std::pair<BasisState, double>> entries(
        pmf.probabilities().begin(), pmf.probabilities().end());
    std::sort(entries.begin(), entries.end());
    outcomes_.reserve(entries.size());
    cdf_.reserve(entries.size());
    for (const auto &[outcome, p] : entries) {
        outcomes_.push_back(outcome);
        cdf_.push_back(p);
    }
    finish();
}

void
MultinomialSampler::finish()
{
    // Weights -> inclusive prefix sums, remembering the last entry
    // that carries mass so a round-off uniform at the very top of the
    // range never lands on a trailing zero-weight entry.
    double total = 0.0;
    for (std::size_t i = 0; i < cdf_.size(); ++i) {
        const double w = cdf_[i];
        fatalIf(w < 0.0 || !std::isfinite(w),
                "MultinomialSampler: weights must be finite and "
                "non-negative");
        if (w > 0.0)
            last_ = i;
        total += w;
        cdf_[i] = total;
    }
    fatalIf(total <= 0.0, "MultinomialSampler: total weight must be "
                          "positive");
}

Histogram
MultinomialSampler::draw(std::uint64_t shots, Rng &rng) const
{
    Histogram hist(nBits_);
    if (shots == 0)
        return hist;

    // T sorted uniforms: with E_1..E_{T+1} i.i.d. Exp(1) and
    // S_j = E_1 + ... + E_j, (S_1/S_{T+1}, ..., S_T/S_{T+1}) is
    // distributed as the order statistics of T uniforms.
    std::vector<double> spacing(static_cast<std::size_t>(shots));
    double sum = 0.0;
    for (double &s : spacing) {
        sum -= std::log1p(-rng.uniform());
        s = sum;
    }
    sum -= std::log1p(-rng.uniform());
    const double scale = cdf_.back() / sum;

    // Merge walk: entry i owns [cdf[i-1], cdf[i]), so a zero-weight
    // entry owns an empty interval and is never drawn.
    std::size_t i = 0;
    std::uint64_t run = 0;
    for (const double s : spacing) {
        const double u = s * scale;
        while (i < last_ && cdf_[i] <= u) {
            if (run > 0) {
                hist.add(outcomes_.empty() ? i : outcomes_[i], run);
                run = 0;
            }
            ++i;
        }
        ++run;
    }
    hist.add(outcomes_.empty() ? i : outcomes_[i], run);
    return hist;
}

} // namespace jigsaw
