/**
 * @file
 * Exact multinomial sampling of a fixed categorical distribution.
 *
 * A MultinomialSampler holds the cumulative weights of a distribution
 * over basis states, either dense (entry i is outcome i) or sparse
 * (outcomes in ascending order), and draws all T trials of one
 * histogram in one call: T sorted uniforms from cumulative exponential
 * spacings, then one merge walk over the cumulative weights. The draw
 * is exact, costs O(T + entries), consumes T + 1 uniforms from the Rng
 * (none when T = 0), and inserts only the outcomes that occur.
 */
#ifndef JIGSAW_COMMON_MULTINOMIAL_H
#define JIGSAW_COMMON_MULTINOMIAL_H

#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/histogram.h"
#include "common/rng.h"

namespace jigsaw {

/** Draws whole histograms from one categorical distribution. */
class MultinomialSampler
{
  public:
    /**
     * Dense form over @p n_bits-bit outcomes: @p weights[i] is the
     * (unnormalized, non-negative) weight of outcome i, for at most
     * 2^n_bits entries.
     */
    MultinomialSampler(int n_bits, std::vector<double> weights);

    /** Sparse form over the entries of @p pmf, in outcome order. */
    explicit MultinomialSampler(const Pmf &pmf);

    /** Draw @p shots trials into a histogram over the outcome bits. */
    Histogram draw(std::uint64_t shots, Rng &rng) const;

  private:
    void finish();

    int nBits_;
    std::vector<BasisState> outcomes_; ///< Sparse keys; empty when dense.
    std::vector<double> cdf_;          ///< Inclusive cumulative weights.
    std::size_t last_ = 0;             ///< Last entry with positive weight.
};

} // namespace jigsaw

#endif // JIGSAW_COMMON_MULTINOMIAL_H
