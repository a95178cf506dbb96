/**
 * @file
 * Sparse histogram (trial counts) and PMF (probabilities) over basis
 * states.
 *
 * Both containers store only observed/non-zero outcomes, which is what
 * bounds JigSaw's reconstruction complexity (paper Section 7.1): the
 * number of entries is limited by the number of trials rather than by
 * the 2^n possible outcomes.
 */
#ifndef JIGSAW_COMMON_HISTOGRAM_H
#define JIGSAW_COMMON_HISTOGRAM_H

#include <cstdint>
#include <unordered_map>
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
    using Map = std::unordered_map<BasisState, std::uint64_t>;

    /** Construct an empty histogram over @p n_qubits qubits. */
    explicit Histogram(int n_qubits);

    /** Record @p count observations of @p outcome. */
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

    /** Underlying map (outcome -> count). */
    const Map &counts() const { return counts_; }

  private:
    int nQubits_;
    std::uint64_t total_ = 0;
    Map counts_;
};

/**
 * A sparse probability mass function over basis states.
 */
class Pmf
{
  public:
    using Map = std::unordered_map<BasisState, double>;

    /** Construct an empty PMF over @p n_qubits qubits. */
    explicit Pmf(int n_qubits);

    /** Construct from an explicit (outcome -> probability) map. */
    Pmf(int n_qubits, Map probabilities);

    /** Pre-size the hash table for @p n expected outcomes. */
    void reserve(std::size_t n) { probs_.reserve(n); }

    /** Set the probability of @p outcome (unnormalized until normalize()). */
    void set(BasisState outcome, double probability);

    /** Add @p delta to the probability of @p outcome. */
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

    /** Underlying map (outcome -> probability). */
    const Map &probabilities() const { return probs_; }

  private:
    int nQubits_;
    Map probs_;
};

/** Total variation distance, (1/2) sum |p - q| over the joint support. */
double totalVariationDistance(const Pmf &p, const Pmf &q);

/** Hellinger distance in [0, 1]. */
double hellingerDistance(const Pmf &p, const Pmf &q);

/** Kullback-Leibler divergence D(p || q), with q floored at 1e-12. */
double klDivergence(const Pmf &p, const Pmf &q);

} // namespace jigsaw

#endif // JIGSAW_COMMON_HISTOGRAM_H
