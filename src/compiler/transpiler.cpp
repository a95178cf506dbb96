#include "compiler/transpiler.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>

#include "common/error.h"
#include "compiler/placement.h"
#include "sim/eps.h"

namespace jigsaw {
namespace compiler {

namespace {

CompiledCircuit
finishCandidate(RoutedCircuit routed, const device::DeviceModel &dev)
{
    CompiledCircuit out{std::move(routed.physical), routed.initialLayout,
                        routed.finalLayout, routed.swapCount, 0.0, 0.0,
                        0.0};
    out.gateSuccess = sim::gateSuccessProbability(out.physical, dev);
    out.measurementSuccess =
        sim::measurementSuccessProbability(out.physical, dev);
    out.eps = out.gateSuccess * out.measurementSuccess;
    return out;
}

std::vector<CompiledCircuit>
compileCandidates(const circuit::QuantumCircuit &logical,
                  const device::DeviceModel &dev,
                  const TranspileOptions &options)
{
    const std::vector<int> starts =
        rankedStartQubits(dev, options.noiseAware);
    const int n_candidates =
        std::min<int>(options.numCandidates,
                      static_cast<int>(starts.size()));
    fatalIf(n_candidates < 1, "transpile: need at least one candidate");

    const PlacementContext placement(logical, dev);
    const std::vector<bool> measured = measuredMask(logical);
    std::vector<CompiledCircuit> candidates;
    candidates.reserve(static_cast<std::size_t>(2 * n_candidates));
    for (int i = 0; i < n_candidates; ++i) {
        const int start = starts[static_cast<std::size_t>(i)];
        // Both greedy families per start: the noise-aware placement
        // chases low-error qubits, the distance-only placement keeps
        // the routing tight; with spatially scattered good qubits
        // either one can win, so the selector sees both.
        const Layout aware =
            placement.place(start, options.noiseAware, measured);
        candidates.push_back(finishCandidate(
            sabreRoute(logical, dev.topology(), aware, options.sabre),
            dev));
        if (options.noiseAware) {
            const Layout tight = placement.place(start, false, measured);
            if (tight.logicalToPhysical() !=
                aware.logicalToPhysical()) {
                candidates.push_back(finishCandidate(
                    sabreRoute(logical, dev.topology(), tight,
                               options.sabre),
                    dev));
            }
        }
    }
    return candidates;
}

// ------------------------------------------------ transpile memoization

/** FNV-1a step over one 64-bit word. */
std::uint64_t
mix(std::uint64_t h, std::uint64_t v)
{
    h ^= v;
    h *= 1099511628211ULL;
    return h;
}

std::uint64_t
mixString(std::uint64_t h, const std::string &s)
{
    for (char c : s)
        h = mix(h, static_cast<std::uint64_t>(static_cast<unsigned char>(c)));
    return h;
}

std::uint64_t
transpileKey(const circuit::QuantumCircuit &logical,
             const device::DeviceModel &dev,
             const TranspileOptions &options)
{
    // Keyed on the parameter-invariant skeleton, not the full
    // structural hash: placement, SABRE routing, and the EPS selector
    // never read rotation angles, so every iteration of a variational
    // loop shares one compilation and only re-binds its angles.
    std::uint64_t h = 14695981039346656037ULL;
    h = mix(h, logical.skeletonHash());
    h = mixString(h, dev.name());
    h = mix(h, static_cast<std::uint64_t>(dev.nQubits()));
    // The full edge list, not just its size: same-named devices with
    // equally many but differently placed couplings must not collide.
    for (const auto &[a, b] : dev.topology().edges()) {
        h = mix(h, static_cast<std::uint64_t>(a));
        h = mix(h, static_cast<std::uint64_t>(b));
    }
    h = mix(h, static_cast<std::uint64_t>(options.numCandidates));
    h = mix(h, options.noiseAware ? 1 : 0);
    h = mix(h, options.maxSwaps ? 1 : 0);
    h = mix(h, options.maxSwaps
                   ? static_cast<std::uint64_t>(*options.maxSwaps)
                   : 0);
    h = mix(h, std::bit_cast<std::uint64_t>(options.sabre.lookaheadWeight));
    h = mix(h, static_cast<std::uint64_t>(options.sabre.lookaheadDepth));
    h = mix(h, std::bit_cast<std::uint64_t>(options.sabre.decayStep));
    h = mix(h, static_cast<std::uint64_t>(options.sabre.maxSwapsPerGate));
    return h;
}

/**
 * Physical-slot permutation of a skeleton entry: slots[k] is the flat
 * logical parameter index feeding the k-th flat physical parameter
 * slot. SABRE emits ready gates out of program order, so the mapping
 * is a skeleton-determined permutation, recovered lazily (first
 * angle-differing hit) by re-routing a slot-tagged copy of the logical
 * circuit with the entry's own initial layout. ok=false records a
 * failed recovery (the sanity check tripped): such entries fall back
 * to a full recompile per binding instead of returning wrong angles.
 */
struct RebindPerm
{
    bool ok = false;
    std::vector<std::size_t> slots;
};

/** One memo entry: the compiled circuit, the logical binding it was
 *  compiled under, and the lazily recovered rebind permutation. */
struct TranspileEntry
{
    CompiledCircuit compiled;
    std::vector<double> binding; ///< logical.parameters() at insert.
    std::shared_ptr<const RebindPerm> perm;
};

std::mutex transpileCacheMutex;
std::unordered_map<std::uint64_t, TranspileEntry> transpileCache;
std::atomic<std::uint64_t> transpileHits{0};
std::atomic<std::uint64_t> transpileMisses{0};
std::atomic<std::uint64_t> transpileRebinds{0};

/**
 * Recover the physical-slot permutation for @p entry: tag every
 * logical parameter with its flat index, re-route with the entry's
 * initial layout (routing never reads parameter values, so the tagged
 * route reproduces the compiled physical structure exactly), and read
 * the tags back off the routed gates. Any structural disagreement
 * fails the recovery (ok=false) rather than guessing.
 */
RebindPerm
recoverRebindPerm(const circuit::QuantumCircuit &logical,
                  const device::DeviceModel &dev,
                  const TranspileOptions &options,
                  const CompiledCircuit &compiled)
{
    RebindPerm perm;
    const std::size_t n_logical = logical.parameterCount();
    std::vector<double> tags(n_logical);
    for (std::size_t i = 0; i < n_logical; ++i)
        tags[i] = static_cast<double>(i);
    circuit::QuantumCircuit tagged = logical;
    tagged.rebindAngles(tags);
    const RoutedCircuit routed = sabreRoute(
        tagged, dev.topology(), compiled.initialLayout, options.sabre);
    if (routed.physical.skeletonHash() !=
        compiled.physical.skeletonHash()) {
        return perm; // ok=false: re-route did not reproduce the entry
    }
    perm.slots.reserve(routed.physical.parameterCount());
    for (const circuit::Gate &g : routed.physical.gates()) {
        for (double p : g.params) {
            const double r = std::round(p);
            if (r != p || r < 0.0 ||
                r >= static_cast<double>(n_logical)) {
                perm.slots.clear();
                return perm; // ok=false: a non-tag parameter leaked in
            }
            perm.slots.push_back(static_cast<std::size_t>(r));
        }
    }
    perm.ok = true;
    return perm;
}

} // namespace

CompiledCircuit
transpileCachedVia(const circuit::QuantumCircuit &logical,
                   const device::DeviceModel &dev,
                   const TranspileOptions &options,
                   const std::function<CompiledCircuit()> &compute)
{
    const std::uint64_t key = transpileKey(logical, dev, options);
    const std::vector<double> binding = logical.parameters();

    std::optional<CompiledCircuit> cached;
    std::shared_ptr<const RebindPerm> perm;
    {
        std::lock_guard<std::mutex> lock(transpileCacheMutex);
        const auto it = transpileCache.find(key);
        if (it != transpileCache.end()) {
            if (it->second.binding == binding) {
                ++transpileHits;
                return it->second.compiled;
            }
            cached = it->second.compiled;
            perm = it->second.perm;
        }
    }
    if (cached) {
        // Same skeleton, different angles: re-bind into the cached
        // compilation instead of recompiling. EPS and layouts are
        // angle-independent, so only the parameter values move.
        if (!perm) {
            auto recovered = std::make_shared<RebindPerm>(
                recoverRebindPerm(logical, dev, options, *cached));
            std::lock_guard<std::mutex> lock(transpileCacheMutex);
            const auto it = transpileCache.find(key);
            if (it != transpileCache.end()) {
                if (!it->second.perm)
                    it->second.perm = std::move(recovered);
                perm = it->second.perm;
            } else {
                perm = std::move(recovered); // entry was cleared; use ours
            }
        }
        if (perm->ok) {
            ++transpileHits;
            ++transpileRebinds;
            std::vector<double> physical(perm->slots.size());
            for (std::size_t k = 0; k < perm->slots.size(); ++k)
                physical[k] = binding[perm->slots[k]];
            cached->physical.rebindAngles(physical);
            return std::move(*cached);
        }
        // Unrecoverable permutation: full recompile below (counted as
        // a miss), without clobbering the cached entry.
        ++transpileMisses;
        return compute();
    }
    // Compile outside the lock: deterministic for a fixed binding.
    // First insert wins; a racing thread that lost with a different
    // binding must return its own compilation, not the winner's.
    ++transpileMisses;
    CompiledCircuit compiled = compute();
    {
        std::lock_guard<std::mutex> lock(transpileCacheMutex);
        transpileCache.emplace(
            key, TranspileEntry{compiled, std::move(binding), nullptr});
    }
    return compiled;
}

CompiledCircuit
transpileCached(const circuit::QuantumCircuit &logical,
                const device::DeviceModel &dev,
                const TranspileOptions &options)
{
    return transpileCachedVia(logical, dev, options, [&] {
        return transpile(logical, dev, options);
    });
}

std::uint64_t
transpileCacheHits()
{
    return transpileHits.load();
}

std::uint64_t
transpileCacheMisses()
{
    return transpileMisses.load();
}

std::uint64_t
transpileSkeletonRebinds()
{
    return transpileRebinds.load();
}

void
clearTranspileCache()
{
    std::lock_guard<std::mutex> lock(transpileCacheMutex);
    transpileCache.clear();
}

std::size_t
selectCandidate(const std::vector<CandidateScore> &candidates,
                const TranspileOptions &options)
{
    fatalIf(candidates.empty(), "selectCandidate: no candidates");
    auto better = [&options](const CandidateScore &a,
                             const CandidateScore &b) {
        if (options.noiseAware)
            return a.eps > b.eps;
        if (a.swapCount != b.swapCount)
            return a.swapCount < b.swapCount;
        return a.eps > b.eps;
    };

    // CPM recompilation rule (paper Section 4.2.2): prefer candidates
    // within the SWAP budget of the base compilation — among them the
    // best EPS wins, which for a CPM is dominated by where its few
    // measurements land; fall back to best-overall EPS when no
    // candidate fits the budget.
    const CandidateScore *best = nullptr;
    if (options.maxSwaps) {
        for (const CandidateScore &c : candidates) {
            if (c.swapCount <= *options.maxSwaps &&
                (!best || better(c, *best))) {
                best = &c;
            }
        }
    }
    if (!best) {
        for (const CandidateScore &c : candidates) {
            if (!best || better(c, *best))
                best = &c;
        }
    }
    return static_cast<std::size_t>(best - candidates.data());
}

CompiledCircuit
transpile(const circuit::QuantumCircuit &logical,
          const device::DeviceModel &dev, const TranspileOptions &options)
{
    std::vector<CompiledCircuit> candidates =
        compileCandidates(logical, dev, options);
    std::vector<CandidateScore> scores;
    scores.reserve(candidates.size());
    for (const CompiledCircuit &c : candidates)
        scores.push_back({c.swapCount, c.eps});
    return std::move(candidates[selectCandidate(scores, options)]);
}

std::vector<CompiledCircuit>
transpileEnsemble(const circuit::QuantumCircuit &logical,
                  const device::DeviceModel &dev, int k,
                  const TranspileOptions &options)
{
    fatalIf(k < 1, "transpileEnsemble: k must be positive");
    TranspileOptions opts = options;
    opts.numCandidates = std::max(options.numCandidates, 4 * k);
    std::vector<CompiledCircuit> candidates =
        compileCandidates(logical, dev, opts);

    std::sort(candidates.begin(), candidates.end(),
              [](const CompiledCircuit &a, const CompiledCircuit &b) {
                  return a.eps > b.eps;
              });

    // Greedy diverse selection: accept a candidate when its physical
    // footprint differs enough from every accepted mapping, so the
    // ensemble "orchestrates dissimilar mistakes".
    auto footprint = [](const CompiledCircuit &c) {
        std::vector<int> qubits = c.initialLayout.logicalToPhysical();
        std::sort(qubits.begin(), qubits.end());
        return qubits;
    };
    auto overlap = [](const std::vector<int> &a, const std::vector<int> &b) {
        std::size_t common = 0;
        for (int q : a) {
            if (std::binary_search(b.begin(), b.end(), q))
                ++common;
        }
        return static_cast<double>(common) /
               static_cast<double>(std::max(a.size(), b.size()));
    };

    std::vector<CompiledCircuit> selected;
    std::vector<std::vector<int>> footprints;
    for (const CompiledCircuit &c : candidates) {
        if (static_cast<int>(selected.size()) == k)
            break;
        const std::vector<int> fp = footprint(c);
        bool diverse = true;
        for (const auto &other : footprints) {
            if (overlap(fp, other) > 0.75) {
                diverse = false;
                break;
            }
        }
        if (diverse) {
            selected.push_back(c);
            footprints.push_back(fp);
        }
    }
    // Fill with the best remaining candidates when diversity ran out.
    for (const CompiledCircuit &c : candidates) {
        if (static_cast<int>(selected.size()) == k)
            break;
        const std::vector<int> fp = footprint(c);
        const bool already =
            std::any_of(footprints.begin(), footprints.end(),
                        [&fp](const std::vector<int> &other) {
                            return other == fp;
                        });
        if (!already) {
            selected.push_back(c);
            footprints.push_back(fp);
        }
    }
    return selected;
}

} // namespace compiler
} // namespace jigsaw
