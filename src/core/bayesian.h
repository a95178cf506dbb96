/**
 * @file
 * Bayesian Reconstruction (paper Algorithm 1).
 *
 * The global PMF acts as the prior; each marginal (the local PMF of a
 * CPM together with the bit positions it measured) supplies more
 * trustworthy evidence about its subset of bits. One update pass
 * rescales, for every marginal outcome By with probability pry, the
 * matching global outcomes in proportion to their prior mass times
 * pry / (1 - pry). The posteriors of all marginals are then summed
 * into the prior and normalized; passes repeat until the Hellinger
 * distance between successive outputs converges.
 */
#ifndef JIGSAW_CORE_BAYESIAN_H
#define JIGSAW_CORE_BAYESIAN_H

#include <vector>

#include "common/histogram.h"
#include "core/subsets.h"

namespace jigsaw {
namespace core {

/** A CPM's evidence: its local PMF over the measured bit positions. */
struct Marginal
{
    Pmf local; ///< PMF over the subset: bit j of a key is bit qubits[j].
    /** Measured bit positions, in any order: bit j of a local key is
     *  global bit qubits[j] (extractBits). */
    Subset qubits;
};

/** Order in which multi-size marginal layers update the prior. */
enum class LayerOrder
{
    /** Paper default (Section 4.4.2): largest subset size first, so
     *  the most-correlated evidence shapes the PMF before the
     *  highest-fidelity small subsets refine it. */
    TopDown,
    /** Smallest subset size first; provided for the ablation study. */
    BottomUp,
};

/** Convergence controls for the iterated reconstruction. */
struct ReconstructionOptions
{
    int maxRounds = 16;       ///< Hard cap on update rounds.
    double tolerance = 1e-4;  ///< Hellinger-distance convergence bound.
    LayerOrder layerOrder = LayerOrder::TopDown; ///< JigSaw-M ordering.
    /**
     * Local-PMF mass at or below this is treated as unobserved — the
     * matching global outcomes keep their prior probability, exactly
     * as Algorithm 1 handles subset values absent from the CPM. The
     * default matches Pmf::prune's sparsity cutoff so evidence that
     * pruning would have dropped cannot skew an update.
     */
    double evidenceThreshold = 1e-14;
};

/**
 * One Bayesian_Update call from Algorithm 1: returns the (normalized)
 * posterior of @p prior given the single marginal @p m. Subset keys
 * whose local probability is at or below @p evidence_threshold
 * contribute no evidence (their outcomes keep the prior value).
 */
Pmf bayesianUpdate(const Pmf &prior, const Marginal &m,
                   double evidence_threshold = 1e-14);

/**
 * Full reconstruction: iterated rounds of updating @p global with all
 * of @p marginals until the output stops moving. The result keeps the
 * support of @p global (only observed outcomes gain probability,
 * which is what bounds the complexity; Section 7.1).
 *
 * Implementation note: because the support is invariant across
 * rounds, every outcome's bucket is resolved once. Marginals whose
 * bits overlap are packed, in order, into groups that share one joint
 * table keyed by the union of their bits (at most W bits, W set by the
 * support size; bit j of a marginal's key is still bit qubits[j], in
 * whatever order the subset lists them). A round is one fused pass
 * over the flat outcome vector split into fixed-size shards: one table
 * lookup per group and outcome applies all marginals' updates and the
 * normalization at once, and accumulates the convergence measure and
 * the next round's joint masses, reduced in shard order and then
 * marginalised per member. The result is bitwise identical however
 * many threads ran.
 */
Pmf bayesianReconstruct(const Pmf &global,
                        const std::vector<Marginal> &marginals,
                        const ReconstructionOptions &options = {});

/**
 * Multi-layer reconstruction for JigSaw-M (Section 4.4.2): marginals
 * are grouped by subset size and applied top-down, from the largest
 * size (most correlation, applied first so it is maximally preserved)
 * to the smallest (highest fidelity, applied last). The PMF is
 * flattened once and every layer runs on the same flat vector.
 */
Pmf multiLayerReconstruct(const Pmf &global,
                          const std::vector<Marginal> &marginals,
                          const ReconstructionOptions &options = {});

} // namespace core
} // namespace jigsaw

#endif // JIGSAW_CORE_BAYESIAN_H
