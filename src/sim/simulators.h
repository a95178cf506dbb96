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
#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/histogram.h"
#include "common/multinomial.h"
#include "common/rng.h"
#include "device/device_model.h"
#include "sim/noise_model.h"

namespace jigsaw {
namespace sim {

namespace detail {
/** The ideal-distribution caches every simulator shares. */
class IdealSource;
} // namespace detail

/**
 * A measured logical circuit that executor specs bind to, with its
 * structural hash computed once. JigSaw's global circuit and every
 * CPM are compilations of one such program, differing only in the
 * measured clbits and (after recompilation) the mapping.
 */
struct LogicalProgram
{
    explicit LogicalProgram(circuit::QuantumCircuit measured)
        : circuit(std::move(measured)), hash(circuit.structuralHash())
    {
    }

    const circuit::QuantumCircuit circuit;
    const std::uint64_t hash; ///< circuit.structuralHash().
};

/**
 * One circuit-with-partial-measurements (CPM) inside a batch: measure
 * @p qubits (physical indices, in classical-bit order 0..k-1) of the
 * batch's shared base circuit for @p shots trials.
 *
 * A spec may carry a caller-owned RNG stream: when @p rng is set, the
 * executor samples this spec's shots from it instead of its internal
 * generator. Jobs sharing one executor use this to keep their own
 * seeded streams — the draws then match what the job's private
 * executor would have produced, whatever else the executor serves.
 * The caller must guarantee exclusive use of each stream for the
 * duration of the call.
 *
 * A spec may also be bound to the logical program it was compiled
 * from: @p logical plus @p clbits, the logical classical bit behind
 * each spec bit. The ideal distribution of a routed circuit does not
 * depend on its mapping, so a simulator serves a bound spec's ideal
 * PMF as a fold (Pmf::marginal) of the one cached ideal PMF of
 * @p logical, and takes only the noise from the base circuit. An
 * unbound spec (@p logical null) is run() of the measurement-subset
 * variant base.withMeasurementSubset(qubits): same cache entry, same
 * evolution of that physical circuit.
 */
struct CpmSpec
{
    std::vector<int> qubits;
    std::uint64_t shots = 0;
    Rng *rng = nullptr;
    std::shared_ptr<const LogicalProgram> logical{};
    std::vector<int> clbits{}; ///< Logical clbit per spec bit (bound only).
};

/**
 * Counters for the bound-spec path: how many logical programs were
 * evolved, how many lookups reused one, and how many spec PMFs were
 * folded off one instead of evolved per CPM. Unbound specs are run()
 * entries and count only in the PMF cache counters.
 */
struct BatchStats
{
    std::uint64_t baseEvolutions = 0;  ///< Logical programs evolved.
    std::uint64_t baseStateHits = 0;   ///< Lookups reusing an evolution.
    std::uint64_t marginalsServed = 0; ///< Bound spec PMFs folded off one.

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
};

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
     * executor's internal generator: how jobs share an executor's
     * evolution caches while each keeps its own deterministic draw
     * stream. The simulators implement it; the default throws. The
     * caller must hold @p rng exclusively for the call.
     */
    virtual Histogram run(const circuit::QuantumCircuit &physical_circuit,
                          std::uint64_t shots, Rng &rng);

    /**
     * Run one spec of @p base_circuit on its own, sampling from
     * spec.rng when set: the single-spec form of runBatch, through
     * run()'s fault point. The pipeline draws each job's global
     * circuit this way, bound to its logical program (see CpmSpec),
     * so it shares the bound-spec cache with the CPM batches. This
     * default runs the base circuit itself when the spec measures
     * exactly its measurements, and the measurement-subset variant
     * otherwise.
     */
    virtual Histogram run(const circuit::QuantumCircuit &base_circuit,
                          const CpmSpec &spec);

    /**
     * Run one measurement-subset variant of @p base_circuit per spec
     * and return their histograms in spec order. All variants share
     * the unitary gates of @p base_circuit (its own measurements, if
     * any, are ignored — each spec defines its own), which is exactly
     * JigSaw's CPM structure, so simulator backends override this to
     * fold every spec bound to one logical program off that program's
     * single evolution. Specs carrying an Rng sample from it (see
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
};

/**
 * Noise-free executor; also exposes the exact output PMF, which the
 * metrics use as the golden reference distribution.
 *
 * Exact PMFs (and their samplers) are memoized per structural circuit
 * hash (run() and unbound specs, which key on their subset circuit's
 * hash) or bound-spec key, so JigSaw's repeated runs of an identical
 * circuit skip state-vector evolution entirely. A spec bound to its
 * logical program (CpmSpec::logical) keys on that program, its clbits
 * and the base circuit's measurementSubsetHash; its PMF is a fold of
 * the program's ideal PMF, which the executor evolves once and keeps.
 * A JigSaw job — its global and every CPM, recompiled or not —
 * therefore costs one evolution. Each run() or CpmSpec is then one
 * multinomial draw over the PMF's sorted support (MultinomialSampler).
 *
 * Thread-safety: run()/runBatch()/idealPmf() may be called from
 * concurrent sessions sharing one executor. The caches are
 * mutex-guarded (evolutions happen outside the lock; a lost insert
 * race on a run() entry wastes one evolution but stays correct, and
 * concurrent first lookups of one logical program wait on its single
 * evolution), counters are atomic, and sampling serializes on the RNG
 * mutex so the draw stream stays well-defined. Deterministic
 * per-program results on a shared executor require per-program
 * streams (the run(..., Rng&) overload / CpmSpec::rng — what the
 * streaming scheduler does); sampling from the internal generator
 * instead interleaves its stream in completion order. batchStats() is
 * safe to read once concurrent runs have completed.
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

    Histogram run(const circuit::QuantumCircuit &base_circuit,
                  const CpmSpec &spec) override;

    /**
     * Batched CPM execution: each bound spec folds the cached ideal
     * PMF of its logical program, each unbound spec is run() of its
     * measurement-subset circuit (same cache entry), and each is then
     * one draw.
     */
    std::vector<Histogram>
    runBatch(const circuit::QuantumCircuit &base_circuit,
             const std::vector<CpmSpec> &specs) override;

    void prepare(const circuit::QuantumCircuit &physical_circuit) override;

    void prepareBatch(const circuit::QuantumCircuit &base_circuit,
                      const std::vector<CpmSpec> &specs) override;

    /** Exact output distribution over the circuit's classical bits. */
    Pmf idealPmf(const circuit::QuantumCircuit &physical_circuit);

    /** PMF lookups served from the cache. */
    std::uint64_t cacheHits() const { return cacheHits_.load(); }

    /** PMF entries built: one per distinct circuit or spec key. */
    std::uint64_t cacheMisses() const { return cacheMisses_.load(); }

    /** Prefix evolutions reused across re-bound diagonal tails. */
    std::uint64_t skeletonCacheHits() const;

    /** Prefix evolutions actually performed for parametric circuits. */
    std::uint64_t skeletonCacheMisses() const;

    ExecutorCounters counters() const override;

    /** Evolution counters (quiescent reads only). */
    const BatchStats &batchStats() const;

  private:
    struct Cached
    {
        explicit Cached(Pmf exact) : pmf(std::move(exact)), sampler(pmf) {}

        Pmf pmf;
        MultinomialSampler sampler;
    };

    /**
     * The run() entry of @p base or, when @p subset is set, of its
     * measurement-subset variant (where an unbound spec lands).
     */
    const Cached &circuitEntry(const circuit::QuantumCircuit &base,
                               const std::vector<int> *subset = nullptr);
    /** circuitEntry() of an unbound spec, else the bound fold's entry. */
    const Cached &specEntry(const circuit::QuantumCircuit &base_circuit,
                            const CpmSpec &spec);

    std::unique_ptr<detail::IdealSource> source_;
    Rng rng_;
    std::mutex rngMutex_;   ///< Serializes draws from rng_.
    std::mutex cacheMutex_; ///< Guards cache_.
    std::unordered_map<std::uint64_t, Cached> cache_;
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> cacheMisses_{0};
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
 * Fast (channel) mode computes, once per cached circuit or spec, the
 * exact noisy output distribution P' = C * R * G * P over the k
 * classical bits (noisyOutcomeDistribution): P is the ideal PMF — for
 * a bound spec a fold of its logical program's ideal PMF (keyed as in
 * IdealSimulator), else the state-vector PMF of the circuit itself
 * (for an unbound spec, its measurement-subset circuit);
 * G flips each bit independently with gateNoiseBitFlip in the
 * 1 - gateSuccessProbability share of trials that suffer a gate error
 * (a localized depolarizing approximation of accumulated gate error);
 * R and C are the MeasurementChannel's per-clbit and correlated-pair
 * readout flips. Each run() or CpmSpec is then one multinomial draw
 * over P' (MultinomialSampler's binomial splits), so a warm circuit
 * costs one binomial per split outcome range plus a few lookups per
 * finished range, about O(min(shots, 2^k) * k), with no per-shot
 * noise work and no pass over all 2^k outcomes. P' is dense, which
 * caps channel mode at kMaxDenseClbits classical bits; wider circuits
 * throw std::invalid_argument before any evolution.
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

    Histogram run(const circuit::QuantumCircuit &base_circuit,
                  const CpmSpec &spec) override;

    /**
     * Batched CPM execution (channel mode): a bound spec's ideal PMF,
     * a fold of its logical program's cached ideal PMF, is folded with
     * the gate noise and the per-subset readout channel of the base
     * circuit into the spec's P' exactly as in run(); an unbound spec
     * is run() of its measurement-subset circuit. Each spec is one
     * multinomial draw over its P'. Trajectory mode falls back to the
     * per-CPM default, simulating the physical circuits.
     */
    std::vector<Histogram>
    runBatch(const circuit::QuantumCircuit &base_circuit,
             const std::vector<CpmSpec> &specs) override;

    void prepare(const circuit::QuantumCircuit &physical_circuit) override;

    void prepareBatch(const circuit::QuantumCircuit &base_circuit,
                      const std::vector<CpmSpec> &specs) override;

    /** The device this executor models. */
    const device::DeviceModel &device() const { return dev_; }

    /** Options in effect. */
    const NoisySimulatorOptions &options() const { return options_; }

    /** Channel-mode P' lookups served from the cache. */
    std::uint64_t cacheHits() const { return cacheHits_.load(); }

    /** Channel-mode P' entries built: one per circuit or spec key. */
    std::uint64_t cacheMisses() const { return cacheMisses_.load(); }

    /** Prefix evolutions reused across re-bound diagonal tails. */
    std::uint64_t skeletonCacheHits() const;

    /** Prefix evolutions actually performed for parametric circuits. */
    std::uint64_t skeletonCacheMisses() const;

    ExecutorCounters counters() const override;

    /** Evolution counters (quiescent reads only). */
    const BatchStats &batchStats() const;

  private:
    /**
     * What a channel-mode draw needs, derived from the circuit alone:
     * the sampler over its noisy distribution P'. Cached per
     * structural hash (run() and unbound specs) or bound-spec key.
     */
    struct Cached
    {
        MultinomialSampler noisy;
    };

    /**
     * P' from @p ideal (see the class comment), with the gate noise of
     * @p gates (its measurements play no part) and the readout channel
     * of measuring physical qubit @p measured[c] into clbit c.
     */
    Cached noisyEntry(const circuit::QuantumCircuit &gates,
                      const std::vector<int> &measured,
                      const Pmf &ideal) const;

    /** As in IdealSimulator: run()'s entry, unbound specs included. */
    const Cached &circuitEntry(const circuit::QuantumCircuit &base,
                               const std::vector<int> *subset = nullptr);
    /** circuitEntry() of an unbound spec, else the bound fold's entry. */
    const Cached &specEntry(const circuit::QuantumCircuit &base_circuit,
                            const CpmSpec &spec);

    Histogram runTrajectoryMode(const circuit::QuantumCircuit &physical,
                                std::uint64_t shots, Rng &rng);

    device::DeviceModel dev_;
    NoisySimulatorOptions options_;
    std::unique_ptr<detail::IdealSource> source_;
    Rng rng_;
    std::mutex rngMutex_;   ///< Serializes draws from rng_.
    std::mutex cacheMutex_; ///< Guards cache_.
    std::unordered_map<std::uint64_t, Cached> cache_;
    std::atomic<std::uint64_t> cacheHits_{0};
    std::atomic<std::uint64_t> cacheMisses_{0};
};

/**
 * Verify that every measurement in @p qc is terminal, each qubit is
 * measured at most once and measured classical bits are distinct;
 * throws std::invalid_argument otherwise.
 */
void checkTerminalMeasurements(const circuit::QuantumCircuit &qc);

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_SIMULATORS_H
