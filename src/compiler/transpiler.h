/**
 * @file
 * Transpiler facade: placement + SABRE routing + EPS selection.
 *
 * This plays the role of Noise-Aware SABRE in the paper (Section 4.1):
 * several placement candidates are generated, each is routed, and the
 * candidate with the highest Expected Probability of Success wins.
 * The maxSwaps option implements the CPM recompilation rule of
 * Section 4.2.2: prefer mappings that do not add SWAPs over the base
 * compilation, falling back to the best EPS when impossible.
 */
#ifndef JIGSAW_COMPILER_TRANSPILER_H
#define JIGSAW_COMPILER_TRANSPILER_H

#include <cstddef>
#include <functional>
#include <optional>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/layout.h"
#include "compiler/sabre.h"
#include "device/device_model.h"

namespace jigsaw {
namespace compiler {

/** A fully compiled program with its quality metrics. */
struct CompiledCircuit
{
    circuit::QuantumCircuit physical; ///< Routed, physical-qubit space.
    Layout initialLayout;             ///< Logical -> physical at start.
    Layout finalLayout;               ///< Logical -> physical at end.
    int swapCount = 0;                ///< SWAPs inserted by routing.
    double eps = 0.0;                 ///< Full EPS (gates x readout).
    double gateSuccess = 0.0;         ///< Gate-only success probability.
    double measurementSuccess = 0.0;  ///< Readout-only success prob.
};

/** Transpilation knobs. */
struct TranspileOptions
{
    int numCandidates = 12;     ///< Placement seeds to try.
    bool noiseAware = true;     ///< Use calibration in placement/selection.
    /** When set, candidates whose routing needs more than this many
     *  SWAPs are rejected unless none qualify (CPM recompilation). */
    std::optional<int> maxSwaps;
    SabreOptions sabre;         ///< Routing parameters.
};

/** What candidate selection reads of one compiled candidate. */
struct CandidateScore
{
    int swapCount = 0;
    double eps = 0.0;
};

/**
 * Index into @p candidates of the one transpile() keeps: the best EPS
 * (fewest SWAPs first when not noise-aware), restricted to candidates
 * within options.maxSwaps when any fits (the CPM recompilation rule);
 * ties keep the earlier candidate. The batched CPM recompiler selects
 * through this too, so global and CPM selection cannot drift.
 */
std::size_t selectCandidate(const std::vector<CandidateScore> &candidates,
                            const TranspileOptions &options);

/** Compile @p logical for @p dev, returning the best candidate. */
CompiledCircuit transpile(const circuit::QuantumCircuit &logical,
                          const device::DeviceModel &dev,
                          const TranspileOptions &options = {});

/**
 * transpile() behind a process-wide memo keyed on the logical
 * circuit's parameter-invariant skeletonHash(), the device identity
 * (name, qubit count, full edge list — calibrations are assumed
 * stable per device name within a process), and every
 * TranspileOptions field. Transpilation is deterministic for a fixed
 * key, so repeated scheme/cell sweeps over the same circuits (the
 * JigSaw evaluation suite re-transpiles each workload per scheme) pay
 * the placement + SABRE cost once. Placement, routing, and EPS never
 * read rotation angles, so a hit whose cached binding differs from
 * the caller's (an iterative-VQA re-submission) re-binds the new
 * angles into the cached physical circuit via a lazily recovered
 * slot permutation instead of recompiling — identical to a cold
 * transpile() of the bound circuit. Thread-safe.
 */
CompiledCircuit transpileCached(const circuit::QuantumCircuit &logical,
                                const device::DeviceModel &dev,
                                const TranspileOptions &options = {});

/**
 * The transpileCached() memo with a caller-supplied compiler: on a
 * miss, @p compute() produces the entry instead of transpile(). The
 * caller guarantees compute() returns exactly what transpile(logical,
 * dev, options) would (the batched CPM recompiler does), so mixing
 * both entry points on one key stays coherent. Hit/miss counters are
 * shared with transpileCached().
 */
CompiledCircuit transpileCachedVia(
    const circuit::QuantumCircuit &logical, const device::DeviceModel &dev,
    const TranspileOptions &options,
    const std::function<CompiledCircuit()> &compute);

/** Lifetime transpileCached() calls served from the memo. */
std::uint64_t transpileCacheHits();

/** Lifetime transpileCached() calls that ran the full transpile. */
std::uint64_t transpileCacheMisses();

/**
 * Lifetime cache hits served by re-binding new angles into a cached
 * same-skeleton compilation (a subset of transpileCacheHits()).
 */
std::uint64_t transpileSkeletonRebinds();

/** Drop all memoized compilations (counters are kept). */
void clearTranspileCache();

/**
 * Compile an Ensemble of Diverse Mappings (Tannu & Qureshi, MICRO'19):
 * up to @p k compiled copies with distinct placements, best EPS first.
 */
std::vector<CompiledCircuit> transpileEnsemble(
    const circuit::QuantumCircuit &logical, const device::DeviceModel &dev,
    int k, const TranspileOptions &options = {});

} // namespace compiler
} // namespace jigsaw

#endif // JIGSAW_COMPILER_TRANSPILER_H
