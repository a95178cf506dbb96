/**
 * @file
 * Executor interface and the ideal / noisy backend implementations.
 *
 * An Executor plays the role of the NISQ machine in Figure 4 of the
 * paper: it takes a routed (physical) circuit and a trial count and
 * returns a histogram over the circuit's classical bits. JigSaw, EDM,
 * and MBM are all written against this interface, so a different
 * backend (e.g. a hardware client) can be swapped in.
 */
#ifndef JIGSAW_SIM_SIMULATORS_H
#define JIGSAW_SIM_SIMULATORS_H

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.h"
#include "common/histogram.h"
#include "common/multinomial.h"
#include "common/rng.h"
#include "common/simd.h"
#include "device/device_model.h"
#include "sim/noise_model.h"

namespace jigsaw {
namespace sim {

namespace detail {
/** A cached shared-prefix evolution (defined in simulators.cpp). */
struct BatchState;
} // namespace detail

class StateVector; // sim/statevector.h

/**
 * One circuit-with-partial-measurements (CPM) inside a batch: measure
 * @p qubits (physical indices, in classical-bit order 0..k-1) of the
 * batch's shared base circuit for @p shots trials.
 *
 * A spec may carry a caller-owned RNG stream: when @p rng is set, the
 * executor samples this spec's shots from it instead of its internal
 * generator. Cross-program merged batches use this to give every
 * program its own seeded stream — the draws then match what the
 * program's private executor would have produced, whatever else is in
 * the batch. The caller must guarantee exclusive use of each stream
 * for the duration of the call. @p program tags the submitting
 * program (provenance for the cross-program BatchStats counters; -1 =
 * untagged).
 */
struct CpmSpec
{
    std::vector<int> qubits;
    std::uint64_t shots = 0;
    Rng *rng = nullptr;
    std::int64_t program = -1;
};

/**
 * Counters for the batched execution path: how many base evolutions
 * actually ran, how many were reused, and how many CPM marginals were
 * served off a shared final state instead of a per-CPM evolution.
 */
struct BatchStats
{
    std::uint64_t baseEvolutions = 0;  ///< Shared-prefix evolutions run.
    std::uint64_t baseStateHits = 0;   ///< Batches reusing a cached state.
    std::uint64_t marginalsServed = 0; ///< CPM PMFs taken from a state.
    /** @name Cross-program counters (merged-service batches).
     *  @{ */
    std::uint64_t crossProgramBatches = 0; ///< Batches spanning >1 program.
    std::uint64_t crossProgramMarginals = 0; ///< Specs in those batches.
    /** @} */

    /** Full evolutions avoided vs the per-CPM path. */
    std::uint64_t evolutionsSaved() const
    {
        return marginalsServed - std::min(marginalsServed, baseEvolutions);
    }
};

/**
 * Cache counters an executor exposes for observability: the PMF memo
 * (evolutions skipped because the exact output distribution was
 * already cached) and the skeleton split-prefix cache (evolutions of
 * a parametric circuit's non-diagonal prefix reused across re-bound
 * diagonal tails — the iterative-VQA fast path). Backends without
 * caches report zeros.
 */
struct ExecutorCounters
{
    std::uint64_t pmfHits = 0;
    std::uint64_t pmfMisses = 0;
    std::uint64_t prefixStateHits = 0;
    std::uint64_t prefixStateMisses = 0;
    /** @name SIMD kernel-backend dispatch totals.
     *
     * Snapshot of simd::dispatchCounters() backend totals at
     * counters() time. Unlike the cache counters above these are
     * PROCESS-WIDE, not per-executor (the dispatch counters live in
     * the kernel layer, below any executor): aggregators must take
     * deltas against an earlier snapshot, never sum them across
     * executors. Answers "did the wide kernels actually run?" — an
     * AVX-512 binary on a non-AVX-512 host, or a JIGSAW_NO_SIMD run,
     * shows zero avx512 calls.
     * @{ */
    std::uint64_t simdScalarCalls = 0;
    std::uint64_t simdAvx2Calls = 0;
    std::uint64_t simdAvx512Calls = 0;
    /** @} */
};

/** The process-wide SIMD dispatch totals every executor reports. */
inline void
fillSimdDispatch(ExecutorCounters &c)
{
    const simd::DispatchCounters d = simd::dispatchCounters();
    c.simdScalarCalls = d.backendTotal(simd::kBackendScalar);
    c.simdAvx2Calls = d.backendTotal(simd::kBackendAvx2);
    c.simdAvx512Calls = d.backendTotal(simd::kBackendAvx512);
}

/** Abstract quantum-program executor (the "NISQ machine"). */
class Executor
{
  public:
    virtual ~Executor() = default;

    /** Cache counter snapshot (zeros on cacheless backends). */
    virtual ExecutorCounters counters() const { return {}; }

    /**
     * Run @p physical_circuit for @p shots trials and return the
     * histogram of outcomes over its classical bits. All measurements
     * must be terminal (no gate may follow a measurement on the same
     * qubit).
     */
    virtual Histogram run(const circuit::QuantumCircuit &physical_circuit,
                          std::uint64_t shots) = 0;

    /**
     * run() sampling from a caller-owned stream instead of the
     * executor's internal generator: the building block of the merged
     * cross-program path, where the evolution caches are shared but
     * every program keeps its own deterministic draw stream. Only
     * meaningful when supportsExternalSampling(); the default throws.
     * The caller must hold @p rng exclusively for the call.
     */
    virtual Histogram run(const circuit::QuantumCircuit &physical_circuit,
                          std::uint64_t shots, Rng &rng);

    /**
     * Run one measurement-subset variant of @p base_circuit per spec
     * and return their histograms in spec order. All variants share
     * the unitary gates of @p base_circuit (its own measurements, if
     * any, are ignored — each spec defines its own), which is exactly
     * JigSaw's CPM structure, so simulator backends override this to
     * evolve the shared prefix once and read every marginal off the
     * single final state. Specs carrying an Rng sample from it (see
     * CpmSpec). This default runs each CPM individually.
     */
    virtual std::vector<Histogram>
    runBatch(const circuit::QuantumCircuit &base_circuit,
             const std::vector<CpmSpec> &specs);

    /**
     * Do the deterministic, shot-independent work of a future run()
     * of @p physical_circuit (evolution, noise derivations) without
     * consuming any randomness, so concurrent warm-up passes can
     * populate the caches before an ordered sampling pass. Default:
     * no-op (nothing to warm on a backend without caches).
     */
    virtual void prepare(const circuit::QuantumCircuit &physical_circuit);

    /** prepare() for every spec of a batch (see runBatch). */
    virtual void prepareBatch(const circuit::QuantumCircuit &base_circuit,
                              const std::vector<CpmSpec> &specs);

    /**
     * True when run(circuit, shots, rng) and per-spec CpmSpec::rng
     * sampling are implemented — a precondition of the cross-program
     * merged execution path.
     */
    virtual bool supportsExternalSampling() const { return false; }
};

/**
 * Noise-free executor; also exposes the exact output PMF, which the
 * metrics use as the golden reference distribution.
 *
 * Exact PMFs (and their samplers) are memoized per structural circuit
 * hash, so JigSaw's repeated runs of an identical circuit — the global
 * circuit resampled, or CPMs sharing a compilation — skip state-vector
 * evolution entirely. Each run() or CpmSpec is then one multinomial
 * draw over the PMF's sorted support (MultinomialSampler).
 *
 * Thread-safety: run()/runBatch()/idealPmf() may be called from
 * concurrent sessions sharing one executor. The PMF/state caches are
 * mutex-guarded (evolutions happen outside the lock; a lost insert
 * race wastes one evolution but stays correct), counters are atomic,
 * and sampling serializes on the RNG mutex so the draw stream stays
 * well-defined. Deterministic per-program results on a shared
 * executor require per-program streams (the run(..., Rng&) overload /
 * CpmSpec::rng — what the merged service path does); sampling from
 * the internal generator instead interleaves its stream in completion
 * order. batchStats() is safe to read once concurrent runs have
 * completed.
 */
class IdealSimulator : public Executor
{
  public:
    /** @p seed drives the multinomial shot sampling only. */
    explicit IdealSimulator(std::uint64_t seed = 1);
    ~IdealSimulator() override;

    Histogram run(const circuit::QuantumCircuit &physical_circuit,
                  std::uint64_t shots) override;

    Histogram run(const circuit::QuantumCircuit &physical_circuit,
                  std::uint64_t shots, Rng &rng) override;

    /**
     * Batched CPM execution: evolve the shared gate prefix once (per
     * distinct prefix, cached across calls) and sample each spec from
     * its marginal over the single final state. PMFs land in the same
     * per-circuit cache run() uses, so mixing the two paths stays
     * coherent and deterministic.
     */
    std::vector<Histogram>
    runBatch(const circuit::QuantumCircuit &base_circuit,
             const std::vector<CpmSpec> &specs) override;

    void prepare(const circuit::QuantumCircuit &physical_circuit) override;

    void prepareBatch(const circuit::QuantumCircuit &base_circuit,
                      const std::vector<CpmSpec> &specs) override;

    bool supportsExternalSampling() const override { return true; }

    /** Exact output distribution over the circuit's classical bits. */
    Pmf idealPmf(const circuit::QuantumCircuit &physical_circuit);

    /**
     * Exact marginal PMFs of @p base_circuit over each subset of
     * physical qubits (classical-bit order), all served from one
     * evolution of the shared gate prefix.
     */
    std::vector<Pmf>
    marginalPmfs(const circuit::QuantumCircuit &base_circuit,
                 const std::vector<std::vector<int>> &subsets);

    /** Simulations skipped because the PMF was already cached. */
    std::uint64_t cacheHits() const { return cacheHits_.load(); }

    /** Simulations actually performed. */
    std::uint64_t cacheMisses() const { return cacheMisses_.load(); }

    /** Prefix evolutions reused across re-bound diagonal tails. */
    std::uint64_t skeletonCacheHits() const { return skeletonHits_.load(); }

    /** Prefix evolutions actually performed for parametric circuits. */
    std::uint64_t skeletonCacheMisses() const
    {
        return skeletonMisses_.load();
    }

    ExecutorCounters counters() const override
    {
        ExecutorCounters c{cacheHits_.load(), cacheMisses_.load(),
                           skeletonHits_.load(), skeletonMisses_.load()};
        fillSimdDispatch(c);
        return c;
    }

    /** Batched-execution counters (quiescent reads only). */
    const BatchStats &batchStats() const { return batchStats_; }

  private:
    struct Cached
    {
        Pmf pmf;
        MultinomialSampler sampler;
    };

    const Cached &evolved(const circuit::QuantumCircuit &physical);
    const Cached &cpmEntry(const circuit::QuantumCircuit &base_circuit,
                           const std::vector<int> &qubits,
                           const detail::BatchState *&bs);

    Rng rng_;
    std::mutex rngMutex_;   ///< Serializes draws from rng_.
    std::mutex cacheMutex_; ///< Guards cache_, stateCache_,
                            ///< splitCache_, batchStats_.
    std::unordered_map<std::uint64_t, Cached> cache_;
    std::unordered_map<std::uint64_t, std::unique_ptr<detail::BatchState>>
        stateCache_;
    /** Skeleton split-prefix states (see ExecutorCounters). */
    std::unordered_map<std::uint64_t, std::unique_ptr<StateVector>>
        splitCache_;
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> cacheMisses_{0};
    std::atomic<std::uint64_t> skeletonHits_{0};
    std::atomic<std::uint64_t> skeletonMisses_{0};
    BatchStats batchStats_;
};

/** Tuning knobs for NoisySimulator. */
struct NoisySimulatorOptions
{
    std::uint64_t seed = 1234;
    /**
     * 0 = fast channel mode: gate noise becomes a localized
     * depolarizing channel of strength 1 - gateSuccessProbability,
     * and it and the readout channel are folded into the exact output
     * distribution once per circuit (see NoisySimulator).
     * >0 = trajectory mode: this many stochastic-Pauli trajectories
     * are simulated, shots are split across them, and readout noise
     * is applied per sampled outcome (slow; used to validate the fast
     * mode on small circuits).
     */
    int trajectories = 0;
    bool gateNoise = true;
    bool measurementNoise = true;
    /**
     * Channel-mode gate-failure corruption: each output bit of the
     * ideal outcome flips with this probability when the trial
     * suffers a gate error. 0.5 reproduces the textbook
     * uniform-outcome depolarizing channel; the default 0.15 models
     * the localized corruption real hardware shows, which keeps the
     * observed global-PMF support small (paper Table 6: ~7% of the
     * possible outcomes at 512K trials).
     */
    double gateNoiseBitFlip = 0.15;
};

/**
 * Noisy executor driven by a DeviceModel calibration.
 *
 * Fast (channel) mode computes, once per cached circuit, the exact
 * noisy output distribution P' = C * R * G * P over the k classical
 * bits (noisyOutcomeDistribution): P is the ideal state-vector PMF;
 * G flips each bit independently with gateNoiseBitFlip in the
 * 1 - gateSuccessProbability share of trials that suffer a gate error
 * (a localized depolarizing approximation of accumulated gate error);
 * R and C are the MeasurementChannel's per-clbit and correlated-pair
 * readout flips. Each run() or CpmSpec is then one multinomial draw
 * over P' (MultinomialSampler), so a warm circuit costs O(shots + 2^k)
 * with no per-shot noise work. P' is dense, which caps channel mode at
 * kMaxDenseClbits classical bits; wider circuits throw
 * std::invalid_argument before any evolution.
 */
class NoisySimulator : public Executor
{
  public:
    /** The device model is copied so the executor owns its lifetime. */
    NoisySimulator(device::DeviceModel dev, NoisySimulatorOptions options = {});
    ~NoisySimulator() override;

    Histogram run(const circuit::QuantumCircuit &physical_circuit,
                  std::uint64_t shots) override;

    Histogram run(const circuit::QuantumCircuit &physical_circuit,
                  std::uint64_t shots, Rng &rng) override;

    /**
     * Batched CPM execution (channel mode): one shared-prefix
     * evolution serves every spec's ideal marginal, which is folded
     * with the gate noise and the per-subset readout channel into
     * the spec's P' exactly as in run(); each spec is one multinomial
     * draw over it. Trajectory mode falls back to the per-CPM default.
     */
    std::vector<Histogram>
    runBatch(const circuit::QuantumCircuit &base_circuit,
             const std::vector<CpmSpec> &specs) override;

    void prepare(const circuit::QuantumCircuit &physical_circuit) override;

    void prepareBatch(const circuit::QuantumCircuit &base_circuit,
                      const std::vector<CpmSpec> &specs) override;

    bool supportsExternalSampling() const override { return true; }

    /** The device this executor models. */
    const device::DeviceModel &device() const { return dev_; }

    /** Options in effect. */
    const NoisySimulatorOptions &options() const { return options_; }

    /** Channel-mode evolutions skipped via the PMF cache. */
    std::uint64_t cacheHits() const { return cacheHits_.load(); }

    /** Channel-mode evolutions actually performed. */
    std::uint64_t cacheMisses() const { return cacheMisses_.load(); }

    /** Prefix evolutions reused across re-bound diagonal tails. */
    std::uint64_t skeletonCacheHits() const { return skeletonHits_.load(); }

    /** Prefix evolutions actually performed for parametric circuits. */
    std::uint64_t skeletonCacheMisses() const
    {
        return skeletonMisses_.load();
    }

    ExecutorCounters counters() const override
    {
        ExecutorCounters c{cacheHits_.load(), cacheMisses_.load(),
                           skeletonHits_.load(), skeletonMisses_.load()};
        fillSimdDispatch(c);
        return c;
    }

    /** Batched-execution counters (quiescent reads only). */
    const BatchStats &batchStats() const { return batchStats_; }

  private:
    /**
     * What a channel-mode draw needs, derived from the circuit alone:
     * the sampler over its noisy distribution P'. Cached per
     * structural hash.
     */
    struct Cached
    {
        MultinomialSampler noisy;
    };

    /** P' of @p circuit from its ideal PMF (see the class comment). */
    Cached noisyEntry(const circuit::QuantumCircuit &circuit,
                      const Pmf &ideal) const;

    const Cached &evolved(const circuit::QuantumCircuit &physical);
    const Cached &cpmEntry(const circuit::QuantumCircuit &base_circuit,
                           const std::vector<int> &qubits,
                           const detail::BatchState *&bs);

    Histogram runTrajectoryMode(const circuit::QuantumCircuit &physical,
                                std::uint64_t shots, Rng &rng);

    device::DeviceModel dev_;
    NoisySimulatorOptions options_;
    Rng rng_;
    std::mutex rngMutex_;   ///< Serializes draws from rng_.
    std::mutex cacheMutex_; ///< Guards cache_, stateCache_,
                            ///< splitCache_, batchStats_.
    std::unordered_map<std::uint64_t, Cached> cache_;
    std::unordered_map<std::uint64_t, std::unique_ptr<detail::BatchState>>
        stateCache_;
    /** Skeleton split-prefix states (see ExecutorCounters). */
    std::unordered_map<std::uint64_t, std::unique_ptr<StateVector>>
        splitCache_;
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> cacheMisses_{0};
    std::atomic<std::uint64_t> skeletonHits_{0};
    std::atomic<std::uint64_t> skeletonMisses_{0};
    BatchStats batchStats_;
};

/**
 * Verify that every measurement in @p qc is terminal and measured
 * classical bits are distinct; throws std::invalid_argument otherwise.
 */
void checkTerminalMeasurements(const circuit::QuantumCircuit &qc);

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_SIMULATORS_H
