/**
 * @file
 * Exact multinomial sampling of a fixed categorical distribution.
 *
 * A MultinomialSampler holds the cumulative weights of a distribution
 * over basis states, either dense (entry i is outcome i) or sparse
 * (outcomes in ascending order), and draws all T trials of one
 * histogram in one call by binomial splitting: the shots of an outcome
 * range [lo, lo + 2^b) split between its two halves as one exact
 * Binomial(shots, left mass / range mass) draw, the masses being
 * differences of two cumulative weights; a range with few shots left
 * finishes with per-shot inverse-CDF lookups inside it. The ranges are
 * dyadic in the outcome space, not in the entry index, so the dense
 * and the sparse form of one distribution split identically and
 * consume the Rng identically: consumption depends only on the weights
 * and T (none when T = 0, and none for a range whose mass sits on one
 * outcome). The draw emits outcomes in ascending order, only those that
 * occur, and costs one binomial per split range plus under kLeafShots
 * lookups per finished range.
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
     * A range holding fewer shots than this finishes with per-shot
     * inverse-CDF lookups instead of further binomial splits. Measured
     * on dense 2^18 P' of GHZ-18 and W-18 (manhattan readout, gate_ok
     * 0.6, bit flip 0.15; 131,072 shots, ~25k distinct outcomes drawn;
     * x86-64 Xeon with AVX-512, one thread, best of six interleaved
     * sweeps): 4 and 8 took 2.6-3.0 ms a draw, 12 and 16 ran 5-11%
     * slower, 32 ran 25-30% slower (its leaves do more lookups over
     * wider ranges), and 64 or more slowed the 2^4-2^5 CPM draws 2-5x.
     * Moving the inversion / rejection switch of the binomial draw
     * from n p = 10 to 20 or 30 changed a draw by under 5%.
     */
    static constexpr std::uint64_t kLeafShots = 8;

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
    void drawRange(BasisState lo, int bits, std::size_t a, std::size_t b,
                   std::uint64_t shots, Rng &rng, Histogram &hist) const;
    void lookupShots(std::size_t a, std::size_t b, std::uint64_t shots,
                     Rng &rng, Histogram &hist) const;

    /** Cumulative weight before entry @p i. */
    double before(std::size_t i) const { return i == 0 ? 0.0 : cdf_[i - 1]; }

    /** Outcome of entry @p i. */
    BasisState outcome(std::size_t i) const
    {
        return outcomes_.empty() ? i : outcomes_[i];
    }

    int nBits_;
    std::vector<BasisState> outcomes_; ///< Sparse keys; empty when dense.
    std::vector<double> cdf_;          ///< Inclusive cumulative weights.
};

} // namespace jigsaw

#endif // JIGSAW_COMMON_MULTINOMIAL_H
