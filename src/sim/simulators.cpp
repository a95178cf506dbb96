#include "sim/simulators.h"

#include <algorithm>
#include <mutex>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/fault.h"
#include "common/fnv.h"
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
            fatalIf(measured[static_cast<std::size_t>(g.qubits[0])],
                    "qubit measured twice: measurements must be terminal");
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

namespace {

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

/** Mixed into every bound spec key (the ASCII bytes of "logical"). */
constexpr std::uint64_t kBoundSpecTag = 0x6c6f676963616cULL;

/**
 * The cache key of a spec of @p base bound to its logical program: the
 * program, its clbits and the measurement variant's structural hash
 * mixed under a tag. The physical hash pins the noise operator, the
 * program and clbits pin the ideal PMF, and the tag keeps a bound
 * entry (folded from the logical evolution) from ever answering a
 * run() lookup (evolved from the physical circuit), whose PMF can
 * differ in the last bits.
 */
std::uint64_t
boundKey(const QuantumCircuit &base, const CpmSpec &spec)
{
    std::uint64_t h = kFnvOffsetBasis;
    fnvMixWord(h, kBoundSpecTag);
    fnvMixWord(h, spec.logical->hash);
    fnvMixWord(h, spec.clbits.size());
    for (int c : spec.clbits)
        fnvMixWord(h, static_cast<std::uint64_t>(c));
    fnvMixWord(h, base.measurementSubsetHash(spec.qubits));
    return h;
}

/** True when some value occurs twice in @p values. */
bool
hasRepeat(std::vector<int> values)
{
    std::sort(values.begin(), values.end());
    return std::adjacent_find(values.begin(), values.end()) != values.end();
}

/**
 * @p build applied to the circuit a run() entry stands for: @p base
 * itself, or its measurement-subset variant when @p subset is set (an
 * unbound spec), which only a cache miss materializes; runKey() keys
 * it without the copy.
 */
template <class Build>
auto
withRunCircuit(const QuantumCircuit &base, const std::vector<int> *subset,
               Build &&build)
{
    if (subset == nullptr)
        return build(base);
    return build(base.withMeasurementSubset(*subset));
}

/** The structural hash of the circuit withRunCircuit() builds. */
std::uint64_t
runKey(const QuantumCircuit &base, const std::vector<int> *subset)
{
    return subset != nullptr ? base.measurementSubsetHash(*subset)
                             : base.structuralHash();
}

/**
 * The entry under @p key in @p cache, built by @p build on a miss.
 * Each call counts one hit or one miss. The build runs outside
 * @p mutex: it is deterministic, so racing threads build identical
 * entries and the first insert wins (map references stay stable).
 */
template <class Entry, class Build>
const Entry &
cachedEntry(std::unordered_map<std::uint64_t, Entry> &cache,
            std::mutex &mutex, std::atomic<std::uint64_t> &hits,
            std::atomic<std::uint64_t> &misses, std::uint64_t key,
            Build &&build)
{
    {
        std::lock_guard<std::mutex> lock(mutex);
        const auto it = cache.find(key);
        if (it != cache.end()) {
            ++hits;
            return it->second;
        }
    }
    Entry entry = build();
    ++misses;
    std::lock_guard<std::mutex> lock(mutex);
    return cache.emplace(key, std::move(entry)).first->second;
}

/**
 * Draw @p shots from @p sampler: from @p external when set, else from
 * the executor's @p internal stream under its @p mutex.
 */
Histogram
drawShots(const MultinomialSampler &sampler, std::uint64_t shots,
          Rng *external, Rng &internal, std::mutex &mutex)
{
    if (external != nullptr)
        return sampler.draw(shots, *external);
    std::lock_guard<std::mutex> lock(mutex);
    return sampler.draw(shots, internal);
}

/**
 * The circuit one spec of @p base measures: @p base itself when the
 * spec measures exactly its measurements, else the measurement-subset
 * variant.
 */
QuantumCircuit
specCircuit(const QuantumCircuit &base, const CpmSpec &spec)
{
    return spec.qubits == base.measuredQubits()
               ? base
               : base.withMeasurementSubset(spec.qubits);
}

} // namespace

namespace detail {

/**
 * The ideal-distribution side every simulator shares: the ideal PMF of
 * each logical program bound specs fold from, the skeleton split-prefix
 * states, and the counters over them. One mutex guards the maps and
 * stats; every evolution runs outside it.
 */
class IdealSource
{
  public:
    /** Exact output PMF of a full circuit (run() and unbound specs). */
    Pmf
    circuitPmf(const QuantumCircuit &physical)
    {
        return exactOutputPmf(physical, split());
    }

    /**
     * Ideal PMF of a bound spec: a fold of its logical program's PMF
     * onto its clbits, whatever the mapping of the circuit it runs on.
     */
    Pmf
    boundPmf(const CpmSpec &spec)
    {
        fatalIf(spec.clbits.size() != spec.qubits.size(),
                "bound spec: clbits and qubits differ in width");
        fatalIf(hasRepeat(spec.clbits), "bound spec: repeated clbit");
        fatalIf(hasRepeat(spec.qubits), "bound spec: repeated qubit");
        const Pmf &full = logicalPmf(*spec.logical);
        for (int c : spec.clbits) {
            fatalIf(c < 0 || c >= full.nQubits(),
                    "bound spec: clbit outside the logical program");
        }
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.marginalsServed;
        }
        return full.marginal(spec.clbits);
    }

    const BatchStats &stats() const { return stats_; }

    std::uint64_t skeletonHits() const { return skeletonHits_.load(); }
    std::uint64_t skeletonMisses() const { return skeletonMisses_.load(); }

  private:
    /** One logical program's ideal PMF, evolved exactly once. */
    struct LogicalEntry
    {
        std::once_flag evolved;
        Pmf pmf{1};
    };

    SplitContext
    split()
    {
        return {&splits_, &mutex_, &skeletonHits_, &skeletonMisses_};
    }

    /**
     * @p program's ideal clbit PMF. The first lookup evolves it;
     * concurrent first lookups wait on that one evolution instead of
     * racing their own (a failed evolution leaves the entry unevolved
     * for the next lookup to retry).
     */
    const Pmf &
    logicalPmf(const LogicalProgram &program)
    {
        LogicalEntry *entry = nullptr;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto [it, inserted] = logical_.try_emplace(program.hash);
            if (inserted)
                it->second = std::make_unique<LogicalEntry>();
            else
                ++stats_.baseStateHits;
            entry = it->second.get();
        }
        std::call_once(entry->evolved, [&] {
            entry->pmf = exactOutputPmf(program.circuit, split());
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.baseEvolutions;
        });
        return entry->pmf;
    }

    std::mutex mutex_;
    std::unordered_map<std::uint64_t, std::unique_ptr<LogicalEntry>>
        logical_;
    SplitStateCache splits_;
    std::atomic<std::uint64_t> skeletonHits_{0};
    std::atomic<std::uint64_t> skeletonMisses_{0};
    BatchStats stats_;
};

} // namespace detail

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

Histogram
Executor::run(const QuantumCircuit &base_circuit, const CpmSpec &spec)
{
    const QuantumCircuit circuit = specCircuit(base_circuit, spec);
    return spec.rng != nullptr ? run(circuit, spec.shots, *spec.rng)
                               : run(circuit, spec.shots);
}

std::vector<Histogram>
Executor::runBatch(const QuantumCircuit &base_circuit,
                   const std::vector<CpmSpec> &specs)
{
    std::vector<Histogram> out;
    out.reserve(specs.size());
    for (const CpmSpec &spec : specs)
        out.push_back(run(base_circuit, spec));
    return out;
}

IdealSimulator::IdealSimulator(std::uint64_t seed)
    : source_(std::make_unique<detail::IdealSource>()), rng_(seed)
{
}

IdealSimulator::~IdealSimulator() = default;

std::uint64_t
IdealSimulator::skeletonCacheHits() const
{
    return source_->skeletonHits();
}

std::uint64_t
IdealSimulator::skeletonCacheMisses() const
{
    return source_->skeletonMisses();
}

ExecutorCounters
IdealSimulator::counters() const
{
    return {cacheHits_.load(), cacheMisses_.load(), skeletonCacheHits(),
            skeletonCacheMisses()};
}

const BatchStats &
IdealSimulator::batchStats() const
{
    return source_->stats();
}

const IdealSimulator::Cached &
IdealSimulator::circuitEntry(const QuantumCircuit &base,
                             const std::vector<int> *subset)
{
    return cachedEntry(cache_, cacheMutex_, cacheHits_, cacheMisses_,
                       runKey(base, subset), [&] {
                           return withRunCircuit(
                               base, subset, [&](const QuantumCircuit &c) {
                                   return Cached(source_->circuitPmf(c));
                               });
                       });
}

const IdealSimulator::Cached &
IdealSimulator::specEntry(const QuantumCircuit &base_circuit,
                          const CpmSpec &spec)
{
    if (spec.logical == nullptr)
        return circuitEntry(base_circuit, &spec.qubits);
    return cachedEntry(cache_, cacheMutex_, cacheHits_, cacheMisses_,
                       boundKey(base_circuit, spec),
                       [&] { return Cached(source_->boundPmf(spec)); });
}

Histogram
IdealSimulator::run(const QuantumCircuit &physical_circuit,
                    std::uint64_t shots)
{
    // Fault points sit at entry, before any cache or RNG state moves,
    // so a retried call replays the identical draw sequence.
    injectFaultPoint("executor.run", shots);
    return drawShots(circuitEntry(physical_circuit).sampler, shots, nullptr,
                     rng_, rngMutex_);
}

Histogram
IdealSimulator::run(const QuantumCircuit &physical_circuit,
                    std::uint64_t shots, Rng &rng)
{
    injectFaultPoint("executor.run", shots);
    return circuitEntry(physical_circuit).sampler.draw(shots, rng);
}

Histogram
IdealSimulator::run(const QuantumCircuit &base_circuit, const CpmSpec &spec)
{
    injectFaultPoint("executor.run", spec.shots);
    return drawShots(specEntry(base_circuit, spec).sampler, spec.shots,
                     spec.rng, rng_, rngMutex_);
}

void
IdealSimulator::prepare(const QuantumCircuit &physical_circuit)
{
    circuitEntry(physical_circuit);
}

void
IdealSimulator::prepareBatch(const QuantumCircuit &base_circuit,
                             const std::vector<CpmSpec> &specs)
{
    for (const CpmSpec &spec : specs)
        specEntry(base_circuit, spec);
}

Pmf
IdealSimulator::idealPmf(const QuantumCircuit &physical_circuit)
{
    return circuitEntry(physical_circuit).pmf;
}

std::vector<Histogram>
IdealSimulator::runBatch(const QuantumCircuit &base_circuit,
                         const std::vector<CpmSpec> &specs)
{
    injectFaultPoint("executor.runBatch");
    std::vector<Histogram> out;
    out.reserve(specs.size());
    for (const CpmSpec &spec : specs) {
        out.push_back(drawShots(specEntry(base_circuit, spec).sampler,
                                spec.shots, spec.rng, rng_, rngMutex_));
    }
    return out;
}

NoisySimulator::NoisySimulator(device::DeviceModel dev,
                               NoisySimulatorOptions options)
    : dev_(std::move(dev)), options_(options),
      source_(std::make_unique<detail::IdealSource>()), rng_(options.seed)
{
}

NoisySimulator::~NoisySimulator() = default;

std::uint64_t
NoisySimulator::skeletonCacheHits() const
{
    return source_->skeletonHits();
}

std::uint64_t
NoisySimulator::skeletonCacheMisses() const
{
    return source_->skeletonMisses();
}

ExecutorCounters
NoisySimulator::counters() const
{
    return {cacheHits_.load(), cacheMisses_.load(), skeletonCacheHits(),
            skeletonCacheMisses()};
}

const BatchStats &
NoisySimulator::batchStats() const
{
    return source_->stats();
}

namespace {

/** Channel-mode circuits must be in the device's physical qubit space. */
void
checkDeviceSpace(const QuantumCircuit &qc, const device::DeviceModel &dev)
{
    fatalIf(qc.nQubits() != dev.nQubits(),
            "NoisySimulator: circuit is not in this device's physical "
            "qubit space");
}

} // namespace

Histogram
NoisySimulator::run(const QuantumCircuit &physical_circuit,
                    std::uint64_t shots)
{
    injectFaultPoint("executor.run", shots);
    checkDeviceSpace(physical_circuit, dev_);
    if (options_.trajectories > 0) {
        std::lock_guard<std::mutex> lock(rngMutex_);
        return runTrajectoryMode(physical_circuit, shots, rng_);
    }
    return drawShots(circuitEntry(physical_circuit).noisy, shots, nullptr,
                     rng_, rngMutex_);
}

Histogram
NoisySimulator::run(const QuantumCircuit &physical_circuit,
                    std::uint64_t shots, Rng &rng)
{
    injectFaultPoint("executor.run", shots);
    checkDeviceSpace(physical_circuit, dev_);
    if (options_.trajectories > 0)
        return runTrajectoryMode(physical_circuit, shots, rng);
    return circuitEntry(physical_circuit).noisy.draw(shots, rng);
}

Histogram
NoisySimulator::run(const QuantumCircuit &base_circuit, const CpmSpec &spec)
{
    if (options_.trajectories > 0)
        return Executor::run(base_circuit, spec);
    injectFaultPoint("executor.run", spec.shots);
    checkDeviceSpace(base_circuit, dev_);
    return drawShots(specEntry(base_circuit, spec).noisy, spec.shots,
                     spec.rng, rng_, rngMutex_);
}

void
NoisySimulator::prepare(const QuantumCircuit &physical_circuit)
{
    checkDeviceSpace(physical_circuit, dev_);
    if (options_.trajectories > 0)
        return; // trajectory mode re-simulates per trial: nothing to warm
    circuitEntry(physical_circuit);
}

void
NoisySimulator::prepareBatch(const QuantumCircuit &base_circuit,
                             const std::vector<CpmSpec> &specs)
{
    checkDeviceSpace(base_circuit, dev_);
    if (options_.trajectories > 0)
        return;
    for (const CpmSpec &spec : specs)
        specEntry(base_circuit, spec);
}

const NoisySimulator::Cached &
NoisySimulator::circuitEntry(const QuantumCircuit &base,
                             const std::vector<int> *subset)
{
    return cachedEntry(cache_, cacheMutex_, cacheHits_, cacheMisses_,
                       runKey(base, subset), [&] {
                           return withRunCircuit(
                               base, subset, [&](const QuantumCircuit &c) {
                                   checkDenseWidth(c.nClbits());
                                   return noisyEntry(c, c.measuredQubits(),
                                                     source_->circuitPmf(c));
                               });
                       });
}

const NoisySimulator::Cached &
NoisySimulator::specEntry(const QuantumCircuit &base_circuit,
                          const CpmSpec &spec)
{
    if (spec.logical == nullptr)
        return circuitEntry(base_circuit, &spec.qubits);
    return cachedEntry(
        cache_, cacheMutex_, cacheHits_, cacheMisses_,
        boundKey(base_circuit, spec), [&] {
            checkDenseWidth(static_cast<int>(spec.qubits.size()));
            for (int q : spec.qubits) {
                fatalIf(q < 0 || q >= base_circuit.nQubits(),
                        "bound spec: qubit outside the base circuit");
            }
            // The gate-only success probability ignores measurements,
            // so every spec of one base takes the base's value exactly;
            // the readout channel follows the spec's physical qubits.
            return noisyEntry(base_circuit, spec.qubits,
                              source_->boundPmf(spec));
        });
}

NoisySimulator::Cached
NoisySimulator::noisyEntry(const QuantumCircuit &gates,
                           const std::vector<int> &measured,
                           const Pmf &ideal) const
{
    const double gate_ok =
        options_.gateNoise ? gateSuccessProbability(gates, dev_) : 1.0;
    std::optional<MeasurementChannel> readout;
    if (options_.measurementNoise)
        readout.emplace(measured, dev_);
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
    checkDeviceSpace(base_circuit, dev_);
    if (options_.trajectories > 0)
        return Executor::runBatch(base_circuit, specs);

    std::vector<Histogram> out;
    out.reserve(specs.size());
    for (const CpmSpec &spec : specs) {
        out.push_back(drawShots(specEntry(base_circuit, spec).noisy,
                                spec.shots, spec.rng, rng_, rngMutex_));
    }
    return out;
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
        // the channel-mode P' is validated against. The noisy outcomes
        // arrive out of order, so they are counted in one bulk build.
        Histogram::Entries noisy;
        noisy.reserve(traj_shots);
        for (const auto &[outcome, count] : ideal.counts()) {
            for (std::uint64_t t = 0; t < count; ++t)
                noisy.emplace_back(channel.apply(outcome, rng), 1);
        }
        hist.merge(Histogram(hist.nQubits(), std::move(noisy)));
    }
    return hist;
}

} // namespace sim
} // namespace jigsaw
