#include "sim/simulators.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "sim/compact.h"
#include "sim/eps.h"
#include "sim/noise_model.h"
#include "sim/statevector.h"

namespace jigsaw {
namespace sim {

using circuit::Gate;
using circuit::QuantumCircuit;

void
checkTerminalMeasurements(const QuantumCircuit &qc)
{
    std::vector<bool> measured(static_cast<std::size_t>(qc.nQubits()),
                               false);
    std::vector<bool> clbit_used(static_cast<std::size_t>(qc.nClbits()),
                                 false);
    bool any = false;
    for (const Gate &g : qc.gates()) {
        if (g.isMeasure()) {
            any = true;
            fatalIf(clbit_used[static_cast<std::size_t>(g.clbit)],
                    "duplicate measurement into one classical bit");
            clbit_used[static_cast<std::size_t>(g.clbit)] = true;
            measured[static_cast<std::size_t>(g.qubits[0])] = true;
            continue;
        }
        for (int q : g.qubits) {
            fatalIf(measured[static_cast<std::size_t>(q)],
                    "gate after measurement: measurements must be terminal");
        }
    }
    fatalIf(!any, "circuit has no measurements");
}

namespace detail {

/**
 * A shared-prefix evolution: the final state of a batch base circuit's
 * unitary gates, compacted onto the qubits they touch. Every CPM
 * marginal of that base is a measurementPmf over a subset of this one
 * state.
 */
struct BatchState
{
    BatchState(StateVector s, std::vector<int> dense)
        : state(std::move(s)), denseOf(std::move(dense))
    {
    }

    StateVector state;
    /** denseOf[physical] = compact index, or -1 when gate-untouched. */
    std::vector<int> denseOf;
};

} // namespace detail

namespace {

using detail::BatchState;
using BatchStateCache =
    std::unordered_map<std::uint64_t, std::unique_ptr<BatchState>>;
using SplitStateCache =
    std::unordered_map<std::uint64_t, std::unique_ptr<StateVector>>;

/**
 * The skeleton split-prefix cache of one executor: the map, the mutex
 * guarding it (the executor's cacheMutex_), and the hit/miss
 * counters. Passed by pointer bundle because the owning members are
 * private to each simulator class.
 */
struct SplitContext
{
    SplitStateCache *cache = nullptr;
    std::mutex *mutex = nullptr;
    std::atomic<std::uint64_t> *hits = nullptr;
    std::atomic<std::uint64_t> *misses = nullptr;
};

/**
 * Where @p qc's evolution splits: the diagonal suffix boundary,
 * clamped to the maximal angle-free prefix. The clamp matters under
 * routing — SABRE interleaves SWAPs with a parametric tail, pushing
 * diagonalSuffixStart past rotation gates; a prefix carrying angles
 * would key a fresh cache entry per binding and never hit across
 * iterations. Clamping keeps the cached prefix state invariant under
 * re-binding. The split point is structural (parameter values never
 * move it), so every binding of one skeleton splits identically.
 */
std::size_t
splitPoint(const QuantumCircuit &qc)
{
    std::size_t s = qc.diagonalSuffixStart();
    const std::vector<Gate> &gs = qc.gates();
    for (std::size_t i = 0; i < s; ++i) {
        if (!gs[i].params.empty()) {
            s = i;
            break;
        }
    }
    return s;
}

/**
 * True when @p qc's evolution should split at @p s (its splitPoint):
 * a non-empty angle-free prefix followed by a tail carrying at least
 * one parametric diagonal gate — the iterative-VQA shape, where the
 * tail's angles are re-bound per iteration while the prefix state
 * never changes. The predicate is circuit-intrinsic, so cold and warm
 * evolutions of one circuit take the identical path and stay
 * bitwise-equal whatever the cache state.
 */
bool
splitQualifies(const QuantumCircuit &qc, std::size_t s)
{
    if (s == 0)
        return false;
    const std::vector<Gate> &gs = qc.gates();
    for (std::size_t i = s; i < gs.size(); ++i) {
        const Gate &g = gs[i];
        if (g.isDiagonal() && !g.params.empty())
            return true;
    }
    return false;
}

/** @p qc's gates in [@p from, @p to) as a circuit (registers kept). */
QuantumCircuit
gateRange(const QuantumCircuit &qc, std::size_t from, std::size_t to)
{
    QuantumCircuit out(qc.nQubits(), qc.nClbits());
    const std::vector<Gate> &gs = qc.gates();
    for (std::size_t i = from; i < to; ++i)
        out.append(gs[i]);
    return out;
}

/**
 * Evolve @p compact from |0...0>. For a qualifying parametric shape
 * (splitQualifies) the evolution is split at splitPoint: the
 * angle-free prefix state is cached in @p split keyed on the compact
 * prefix content, and each call copies it and re-applies the
 * parametric tail. The split is canonical: qualifying circuits always
 * evolve this way, hit or miss, so the result is bitwise-identical to
 * any other in-process evolution of the same bound circuit.
 * Non-qualifying circuits evolve in one fused pass exactly as before.
 */
StateVector
evolveCompact(const QuantumCircuit &compact, const SplitContext &split)
{
    const std::size_t s = splitPoint(compact);
    if (split.cache == nullptr || !splitQualifies(compact, s)) {
        StateVector state(compact.nQubits());
        state.applyCircuit(compact);
        return state;
    }
    const std::uint64_t key = compact.prefixHash(s);
    const StateVector *prefix = nullptr;
    {
        std::lock_guard<std::mutex> lock(*split.mutex);
        const auto it = split.cache->find(key);
        if (it != split.cache->end()) {
            ++*split.hits;
            prefix = it->second.get();
        }
    }
    if (prefix == nullptr) {
        // Evolve outside the lock (deterministic; first insert wins
        // and stays pointer-stable — entries never mutate).
        ++*split.misses;
        auto state = std::make_unique<StateVector>(compact.nQubits());
        state->applyCircuit(gateRange(compact, 0, s));
        std::lock_guard<std::mutex> lock(*split.mutex);
        prefix = split.cache->emplace(key, std::move(state))
                     .first->second.get();
    }
    StateVector out = *prefix;
    out.applyCircuit(gateRange(compact, s, compact.gates().size()));
    return out;
}

/**
 * Exact output PMF of a (physical) circuit over its classical bits,
 * computed by compacting onto active qubits and simulating.
 */
Pmf
exactOutputPmf(const QuantumCircuit &physical, const SplitContext &split)
{
    checkTerminalMeasurements(physical);
    const CompactCircuit compact = compactCircuit(physical);

    const StateVector state = evolveCompact(compact.circuit, split);

    // Dense qubit index for each classical bit, in clbit order.
    const std::vector<int> measured = compact.circuit.measuredQubits();
    std::vector<int> dense_qubits;
    dense_qubits.reserve(measured.size());
    for (int q : measured) {
        fatalIf(q < 0, "exactOutputPmf: unused classical bit");
        dense_qubits.push_back(q);
    }
    return state.measurementPmf(dense_qubits);
}

/**
 * The evolved shared-prefix state for @p base (measurements ignored),
 * from @p cache when present. @p stats tracks evolutions vs reuses.
 * @p mutex guards both the cache and the stats; the evolution itself
 * runs unlocked (a lost insert race wastes one evolution, the first
 * inserted entry wins and stays pointer-stable). @p split carries the
 * executor's skeleton split-prefix cache, so a re-bound diagonal tail
 * pays only its own application on top of the cached prefix state.
 */
const BatchState &
evolvedBase(BatchStateCache &cache, std::mutex &mutex,
            const QuantumCircuit &base, BatchStats &stats,
            const SplitContext &split)
{
    const QuantumCircuit prefix = base.withoutMeasurements();
    const std::uint64_t key = prefix.structuralHash();
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end()) {
            ++stats.baseStateHits;
            return *it->second;
        }
    }
    CompactCircuit compact = compactCircuit(prefix);
    StateVector state = evolveCompact(compact.circuit, split);
    auto entry = std::make_unique<BatchState>(std::move(state),
                                              std::move(compact.denseOf));
    std::lock_guard<std::mutex> lock(mutex);
    const auto [it, inserted] = cache.emplace(key, std::move(entry));
    if (inserted)
        ++stats.baseEvolutions;
    else
        ++stats.baseStateHits;
    return *it->second;
}

/**
 * Marginal PMF of @p bs over @p qubits (physical indices, clbit
 * order). Qubits outside the compacted register were never touched by
 * a gate, so their bits are deterministically 0 and are re-inserted
 * after the dense-space marginalization.
 */
Pmf
marginalFromState(const BatchState &bs, const std::vector<int> &qubits)
{
    fatalIf(qubits.empty(), "runBatch: empty measurement subset");
    std::vector<int> dense;
    std::vector<int> present; // spec positions with a dense index
    dense.reserve(qubits.size());
    present.reserve(qubits.size());
    for (std::size_t j = 0; j < qubits.size(); ++j) {
        const int q = qubits[j];
        fatalIf(q < 0, "runBatch: negative qubit index");
        const int d = q < static_cast<int>(bs.denseOf.size())
                          ? bs.denseOf[static_cast<std::size_t>(q)]
                          : -1;
        if (d >= 0) {
            dense.push_back(d);
            present.push_back(static_cast<int>(j));
        }
    }
    if (present.empty()) {
        // No measured qubit is ever touched: the outcome is all-zero.
        Pmf pmf(static_cast<int>(qubits.size()));
        pmf.set(0, 1.0);
        return pmf;
    }
    const Pmf sub = bs.state.measurementPmf(dense);
    if (present.size() == qubits.size())
        return sub;
    Pmf pmf(static_cast<int>(qubits.size()));
    pmf.reserve(sub.support());
    for (const auto &[key, p] : sub.probabilities())
        pmf.set(depositBits(key, present), p);
    return pmf;
}

/**
 * True when @p specs carry two or more distinct non-negative program
 * tags — a merged cross-program batch.
 */
bool
spansPrograms(const std::vector<CpmSpec> &specs)
{
    std::int64_t first = -1;
    for (const CpmSpec &spec : specs) {
        if (spec.program < 0)
            continue;
        if (first < 0)
            first = spec.program;
        else if (spec.program != first)
            return true;
    }
    return false;
}

} // namespace

Histogram
Executor::run(const QuantumCircuit &, std::uint64_t, Rng &)
{
    fatalIf(true, "Executor: this backend does not support external "
                  "sampling streams");
    return Histogram(1); // unreachable
}

void
Executor::prepare(const QuantumCircuit &)
{
}

void
Executor::prepareBatch(const QuantumCircuit &, const std::vector<CpmSpec> &)
{
}

std::vector<Histogram>
Executor::runBatch(const QuantumCircuit &base_circuit,
                   const std::vector<CpmSpec> &specs)
{
    std::vector<Histogram> out;
    out.reserve(specs.size());
    for (const CpmSpec &spec : specs) {
        const QuantumCircuit cpm =
            base_circuit.withMeasurementSubset(spec.qubits);
        out.push_back(spec.rng != nullptr
                          ? run(cpm, spec.shots, *spec.rng)
                          : run(cpm, spec.shots));
    }
    return out;
}

IdealSimulator::IdealSimulator(std::uint64_t seed) : rng_(seed) {}

IdealSimulator::~IdealSimulator() = default;

const IdealSimulator::Cached &
IdealSimulator::evolved(const QuantumCircuit &physical)
{
    const std::uint64_t key = physical.structuralHash();
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++cacheHits_;
            return it->second;
        }
    }
    // Evolve outside the lock: deterministic, so racing threads build
    // identical entries and the first emplace wins.
    ++cacheMisses_;
    Pmf pmf = exactOutputPmf(
        physical,
        {&splitCache_, &cacheMutex_, &skeletonHits_, &skeletonMisses_});
    MultinomialSampler sampler(pmf);
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_
        .emplace(key, Cached{std::move(pmf), std::move(sampler)})
        .first->second;
}

Histogram
IdealSimulator::run(const QuantumCircuit &physical_circuit,
                    std::uint64_t shots)
{
    // Fault points sit at entry, before any cache or RNG state moves,
    // so a retried call replays the identical draw sequence.
    injectFaultPoint("executor.run");
    const Cached &entry = evolved(physical_circuit);
    std::lock_guard<std::mutex> lock(rngMutex_);
    return entry.sampler.draw(shots, rng_);
}

Histogram
IdealSimulator::run(const QuantumCircuit &physical_circuit,
                    std::uint64_t shots, Rng &rng)
{
    injectFaultPoint("executor.run");
    return evolved(physical_circuit).sampler.draw(shots, rng);
}

void
IdealSimulator::prepare(const QuantumCircuit &physical_circuit)
{
    evolved(physical_circuit);
}

void
IdealSimulator::prepareBatch(const QuantumCircuit &base_circuit,
                             const std::vector<CpmSpec> &specs)
{
    const BatchState *bs = nullptr;
    for (const CpmSpec &spec : specs)
        cpmEntry(base_circuit, spec.qubits, bs);
}

Pmf
IdealSimulator::idealPmf(const QuantumCircuit &physical_circuit)
{
    return evolved(physical_circuit).pmf;
}

/**
 * The cached entry for one CPM of @p base_circuit, computing its
 * marginal off the shared-prefix state on a miss. @p bs carries the
 * lazily resolved state across the specs of one batch (left null
 * until a miss actually needs an evolution).
 */
const IdealSimulator::Cached &
IdealSimulator::cpmEntry(const QuantumCircuit &base_circuit,
                         const std::vector<int> &qubits,
                         const BatchState *&bs)
{
    const std::uint64_t key = base_circuit.measurementSubsetHash(qubits);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++cacheHits_;
            return it->second;
        }
    }
    if (bs == nullptr)
        bs = &evolvedBase(
            stateCache_, cacheMutex_, base_circuit, batchStats_,
            {&splitCache_, &cacheMutex_, &skeletonHits_, &skeletonMisses_});
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        ++batchStats_.marginalsServed;
    }
    Pmf pmf = marginalFromState(*bs, qubits);
    MultinomialSampler sampler(pmf);
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_
        .emplace(key, Cached{std::move(pmf), std::move(sampler)})
        .first->second;
}

std::vector<Pmf>
IdealSimulator::marginalPmfs(const QuantumCircuit &base_circuit,
                             const std::vector<std::vector<int>> &subsets)
{
    std::vector<Pmf> out;
    out.reserve(subsets.size());
    const BatchState *bs = nullptr;
    for (const std::vector<int> &qubits : subsets)
        out.push_back(cpmEntry(base_circuit, qubits, bs).pmf);
    return out;
}

std::vector<Histogram>
IdealSimulator::runBatch(const QuantumCircuit &base_circuit,
                         const std::vector<CpmSpec> &specs)
{
    injectFaultPoint("executor.runBatch");
    if (spansPrograms(specs)) {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        ++batchStats_.crossProgramBatches;
        batchStats_.crossProgramMarginals += specs.size();
    }
    std::vector<Histogram> out;
    out.reserve(specs.size());
    const BatchState *bs = nullptr;
    for (const CpmSpec &spec : specs) {
        const Cached &entry = cpmEntry(base_circuit, spec.qubits, bs);
        if (spec.rng != nullptr) {
            out.push_back(entry.sampler.draw(spec.shots, *spec.rng));
            continue;
        }
        std::lock_guard<std::mutex> lock(rngMutex_);
        out.push_back(entry.sampler.draw(spec.shots, rng_));
    }
    return out;
}

NoisySimulator::NoisySimulator(device::DeviceModel dev,
                               NoisySimulatorOptions options)
    : dev_(std::move(dev)), options_(options), rng_(options.seed)
{
}

NoisySimulator::~NoisySimulator() = default;

Histogram
NoisySimulator::run(const QuantumCircuit &physical_circuit,
                    std::uint64_t shots)
{
    injectFaultPoint("executor.run");
    fatalIf(physical_circuit.nQubits() != dev_.nQubits(),
            "NoisySimulator: circuit is not in this device's physical "
            "qubit space");
    if (options_.trajectories > 0) {
        std::lock_guard<std::mutex> lock(rngMutex_);
        return runTrajectoryMode(physical_circuit, shots, rng_);
    }
    const Cached &entry = evolved(physical_circuit);
    std::lock_guard<std::mutex> lock(rngMutex_);
    return entry.noisy.draw(shots, rng_);
}

Histogram
NoisySimulator::run(const QuantumCircuit &physical_circuit,
                    std::uint64_t shots, Rng &rng)
{
    injectFaultPoint("executor.run");
    fatalIf(physical_circuit.nQubits() != dev_.nQubits(),
            "NoisySimulator: circuit is not in this device's physical "
            "qubit space");
    if (options_.trajectories > 0)
        return runTrajectoryMode(physical_circuit, shots, rng);
    return evolved(physical_circuit).noisy.draw(shots, rng);
}

void
NoisySimulator::prepare(const QuantumCircuit &physical_circuit)
{
    fatalIf(physical_circuit.nQubits() != dev_.nQubits(),
            "NoisySimulator: circuit is not in this device's physical "
            "qubit space");
    if (options_.trajectories > 0)
        return; // trajectory mode re-simulates per trial: nothing to warm
    evolved(physical_circuit);
}

void
NoisySimulator::prepareBatch(const QuantumCircuit &base_circuit,
                             const std::vector<CpmSpec> &specs)
{
    fatalIf(base_circuit.nQubits() != dev_.nQubits(),
            "NoisySimulator: batch base circuit is not in this device's "
            "physical qubit space");
    if (options_.trajectories > 0)
        return;
    const BatchState *bs = nullptr;
    for (const CpmSpec &spec : specs)
        cpmEntry(base_circuit, spec.qubits, bs);
}

const NoisySimulator::Cached &
NoisySimulator::evolved(const QuantumCircuit &physical)
{
    const std::uint64_t key = physical.structuralHash();
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++cacheHits_;
            return it->second;
        }
    }
    checkDenseWidth(physical.nClbits());
    ++cacheMisses_;
    const Pmf pmf = exactOutputPmf(
        physical,
        {&splitCache_, &cacheMutex_, &skeletonHits_, &skeletonMisses_});
    Cached entry = noisyEntry(physical, pmf);
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_.emplace(key, std::move(entry)).first->second;
}

NoisySimulator::Cached
NoisySimulator::noisyEntry(const QuantumCircuit &circuit,
                           const Pmf &ideal) const
{
    const double gate_ok =
        options_.gateNoise ? gateSuccessProbability(circuit, dev_) : 1.0;
    std::optional<MeasurementChannel> readout;
    if (options_.measurementNoise)
        readout.emplace(circuit, dev_);
    return Cached{MultinomialSampler(
        ideal.nQubits(),
        noisyOutcomeDistribution(ideal, gate_ok, options_.gateNoiseBitFlip,
                                 readout ? &*readout : nullptr))};
}

std::vector<Histogram>
NoisySimulator::runBatch(const QuantumCircuit &base_circuit,
                         const std::vector<CpmSpec> &specs)
{
    injectFaultPoint("executor.runBatch");
    fatalIf(base_circuit.nQubits() != dev_.nQubits(),
            "NoisySimulator: batch base circuit is not in this device's "
            "physical qubit space");
    if (options_.trajectories > 0)
        return Executor::runBatch(base_circuit, specs);

    if (spansPrograms(specs)) {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        ++batchStats_.crossProgramBatches;
        batchStats_.crossProgramMarginals += specs.size();
    }
    std::vector<Histogram> out;
    out.reserve(specs.size());
    const BatchState *bs = nullptr;
    for (const CpmSpec &spec : specs) {
        const Cached &entry = cpmEntry(base_circuit, spec.qubits, bs);
        if (spec.rng != nullptr) {
            out.push_back(entry.noisy.draw(spec.shots, *spec.rng));
            continue;
        }
        std::lock_guard<std::mutex> lock(rngMutex_);
        out.push_back(entry.noisy.draw(spec.shots, rng_));
    }
    return out;
}

/** NoisySimulator flavor of IdealSimulator::cpmEntry (see there). */
const NoisySimulator::Cached &
NoisySimulator::cpmEntry(const QuantumCircuit &base_circuit,
                         const std::vector<int> &qubits,
                         const BatchState *&bs)
{
    const std::uint64_t key = base_circuit.measurementSubsetHash(qubits);
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        const auto it = cache_.find(key);
        if (it != cache_.end()) {
            ++cacheHits_;
            return it->second;
        }
    }
    checkDenseWidth(static_cast<int>(qubits.size()));
    if (bs == nullptr)
        bs = &evolvedBase(
            stateCache_, cacheMutex_, base_circuit, batchStats_,
            {&splitCache_, &cacheMutex_, &skeletonHits_, &skeletonMisses_});
    {
        std::lock_guard<std::mutex> lock(cacheMutex_);
        ++batchStats_.marginalsServed;
    }
    const Pmf pmf = marginalFromState(*bs, qubits);
    // The CPM circuit is only materialized on a miss, for the noise
    // derivations. The gate-only success probability ignores
    // measurements, so the CPM inherits the base circuit's value
    // exactly; the readout channel is genuinely per-subset.
    Cached entry =
        noisyEntry(base_circuit.withMeasurementSubset(qubits), pmf);
    std::lock_guard<std::mutex> lock(cacheMutex_);
    return cache_.emplace(key, std::move(entry)).first->second;
}

Histogram
NoisySimulator::runTrajectoryMode(const QuantumCircuit &physical,
                                  std::uint64_t shots, Rng &rng)
{
    // Trajectory mode draws from the caller's stream throughout; the
    // internal-RNG caller holds the RNG lock for the whole simulation
    // (it is the slow validation path).
    checkTerminalMeasurements(physical);
    const CompactCircuit compact = compactCircuit(physical);
    const device::Calibration &cal = dev_.calibration();
    const device::Topology &topo = dev_.topology();
    const MeasurementChannel channel(physical, dev_);

    const std::vector<int> measured = compact.circuit.measuredQubits();
    std::vector<int> dense_qubits;
    for (int q : measured) {
        fatalIf(q < 0, "trajectory mode: unused classical bit");
        dense_qubits.push_back(q);
    }

    const int n_traj = options_.trajectories;
    const std::uint64_t base_shots = shots / static_cast<std::uint64_t>(
                                                 n_traj);
    Histogram hist(physical.nClbits());

    for (int traj = 0; traj < n_traj; ++traj) {
        StateVector state(compact.circuit.nQubits());
        for (const Gate &g : compact.circuit.gates()) {
            if (g.isMeasure())
                continue;
            state.applyGate(g);
            if (!options_.gateNoise ||
                g.type == circuit::GateType::BARRIER) {
                continue;
            }
            // Stochastic Pauli unravelling of a depolarizing channel
            // with the calibrated per-gate strength.
            double err;
            if (g.isSingleQubit()) {
                err = cal.qubit(compact.activeQubits[static_cast<
                    std::size_t>(g.qubits[0])]).error1q;
            } else {
                const int pa = compact.activeQubits[static_cast<
                    std::size_t>(g.qubits[0])];
                const int pb = compact.activeQubits[static_cast<
                    std::size_t>(g.qubits[1])];
                const int e = topo.edgeIndex(pa, pb);
                fatalIf(e < 0, "trajectory mode: unrouted two-qubit gate");
                err = cal.edgeError(e);
                if (g.type == circuit::GateType::SWAP) {
                    err = 1.0 - (1.0 - err) * (1.0 - err) * (1.0 - err);
                } else if (g.type == circuit::GateType::RZZ ||
                           g.type == circuit::GateType::CP) {
                    err = 1.0 - (1.0 - err) * (1.0 - err);
                }
            }
            if (rng.bernoulli(err)) {
                for (int q : g.qubits) {
                    const int pauli =
                        static_cast<int>(rng.uniformInt(0, 3));
                    if (pauli > 0)
                        state.applyPauli(pauli, q);
                }
            }
        }

        std::uint64_t traj_shots = base_shots;
        if (traj == n_traj - 1)
            traj_shots = shots - base_shots * static_cast<std::uint64_t>(
                                                  n_traj - 1);
        const Histogram ideal =
            MultinomialSampler(state.measurementPmf(dense_qubits))
                .draw(traj_shots, rng);
        if (!options_.measurementNoise) {
            hist.merge(ideal);
            continue;
        }
        // Readout noise stays per shot here: this is the reference
        // the channel-mode P' is validated against.
        for (const auto &[outcome, count] : ideal.counts()) {
            for (std::uint64_t t = 0; t < count; ++t)
                hist.add(channel.apply(outcome, rng));
        }
    }
    return hist;
}

} // namespace sim
} // namespace jigsaw
