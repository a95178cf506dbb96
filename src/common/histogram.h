/**
 * @file
 * Flat histogram (trial counts) and PMF (probabilities) over basis
 * states.
 *
 * Both containers store only observed/non-zero outcomes, which is what
 * bounds JigSaw's reconstruction complexity (paper Section 7.1): the
 * number of entries is limited by the number of trials rather than by
 * the 2^n possible outcomes. Each keeps one vector of (outcome, value)
 * entries sorted by outcome, so a lookup is a binary search, an insert
 * above the last outcome is an append, and every consumer reads the
 * outcomes in ascending order without sorting them. Producers whose
 * keys arrive out of order build in bulk (the entries constructors,
 * marginal()) instead of inserting into the middle one at a time.
 */
#ifndef JIGSAW_COMMON_HISTOGRAM_H
#define JIGSAW_COMMON_HISTOGRAM_H

#include <cstdint>
#include <utility>
#include <vector>

#include "common/bitops.h"
#include "common/rng.h"

namespace jigsaw {

class Pmf;

/**
 * Counts of measurement outcomes over a fixed number of qubits.
 */
class Histogram
{
  public:
    using Entries = std::vector<std::pair<BasisState, std::uint64_t>>;

    /** Construct an empty histogram over @p n_qubits qubits. */
    explicit Histogram(int n_qubits);

    /**
     * Construct from (outcome, count) entries in any order; counts of
     * a repeated outcome add up.
     */
    Histogram(int n_qubits, Entries entries);

    /** Record @p count observations of @p outcome (O(1) when
     *  @p outcome is at or above every recorded outcome). */
    void add(BasisState outcome, std::uint64_t count = 1);

    /** Merge all counts of @p other into this histogram. */
    void merge(const Histogram &other);

    /** Number of qubits covered by each outcome. */
    int nQubits() const { return nQubits_; }

    /** Total number of recorded trials. */
    std::uint64_t totalCount() const { return total_; }

    /** Number of distinct outcomes observed. */
    std::size_t uniqueOutcomes() const { return counts_.size(); }

    /** Count recorded for @p outcome (0 if never observed). */
    std::uint64_t count(BasisState outcome) const;

    /** Convert to a normalized PMF. */
    Pmf toPmf() const;

    /**
     * Project onto a subset of qubits: bit j of each marginal key is
     * the outcome bit at position @p qubits[j]. Any order works, so
     * the marginal's bit order is the order of @p qubits.
     */
    Histogram marginal(const std::vector<int> &qubits) const;

    /** (outcome, count) entries in ascending outcome order. */
    const Entries &counts() const { return counts_; }

  private:
    int nQubits_;
    std::uint64_t total_ = 0;
    Entries counts_;
};

/**
 * A sparse probability mass function over basis states.
 */
class Pmf
{
  public:
    using Entries = std::vector<std::pair<BasisState, double>>;

    /** Construct an empty PMF over @p n_qubits qubits. */
    explicit Pmf(int n_qubits);

    /**
     * Construct from (outcome, probability) entries in any order; the
     * probabilities of a repeated outcome are summed in the given
     * order. Ascending entries are taken as they are.
     */
    Pmf(int n_qubits, Entries entries);

    /** Reserve room for @p n outcomes. */
    void reserve(std::size_t n) { probs_.reserve(n); }

    /** Set the probability of @p outcome (unnormalized until
     *  normalize(); O(1) above the last stored outcome). */
    void set(BasisState outcome, double probability);

    /** Add @p delta to the probability of @p outcome (O(1) at or
     *  above the last stored outcome). */
    void accumulate(BasisState outcome, double delta);

    /** Probability of @p outcome (0 when absent). */
    double prob(BasisState outcome) const;

    /** Number of qubits covered by each outcome. */
    int nQubits() const { return nQubits_; }

    /** Number of outcomes with non-zero stored probability. */
    std::size_t support() const { return probs_.size(); }

    /** Sum of all stored probabilities. */
    double totalMass() const;

    /** Rescale so the probabilities sum to 1; no-op on zero mass. */
    void normalize();

    /** Remove entries below @p threshold (post-normalization cleanup). */
    void prune(double threshold);

    /**
     * Marginal PMF over the given qubit positions: bit j of each
     * marginal key is the outcome bit at position @p qubits[j], in
     * any order (see Histogram::marginal).
     */
    Pmf marginal(const std::vector<int> &qubits) const;

    /** Outcome with the highest probability; 0 for an empty PMF. */
    BasisState mode() const;

    /** Entries sorted by descending probability. */
    std::vector<std::pair<BasisState, double>> sorted() const;

    /** Draw one outcome proportionally to the stored probabilities. */
    BasisState sample(Rng &rng) const;

    /** Convert to a histogram of @p trials samples (multinomial). */
    Histogram sampleHistogram(std::uint64_t trials, Rng &rng) const;

    /** (outcome, probability) entries in ascending outcome order. */
    const Entries &probabilities() const { return probs_; }

  private:
    int nQubits_;
    Entries probs_;
};

/** Total variation distance, (1/2) sum |p - q| over the joint support. */
double totalVariationDistance(const Pmf &p, const Pmf &q);

/** Hellinger distance in [0, 1]. */
double hellingerDistance(const Pmf &p, const Pmf &q);

/** Kullback-Leibler divergence D(p || q), with q floored at 1e-12. */
double klDivergence(const Pmf &p, const Pmf &q);

} // namespace jigsaw

#endif // JIGSAW_COMMON_HISTOGRAM_H
