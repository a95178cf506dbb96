#include "core/bayesian.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/parallel.h"

namespace jigsaw {
namespace core {

namespace {

void
checkMarginal(const Pmf &prior, const Marginal &m)
{
    fatalIf(m.qubits.empty(), "bayesianUpdate: empty marginal subset");
    fatalIf(static_cast<int>(m.qubits.size()) != m.local.nQubits(),
            "bayesianUpdate: subset/local-PMF size mismatch");
    for (int q : m.qubits) {
        fatalIf(q < 0 || q >= prior.nQubits(),
                "bayesianUpdate: subset bit outside the global PMF");
    }
}

/** Odds factor of a local probability, clamped below certainty. */
inline double
evidenceOdds(double pry)
{
    const double clamped = std::min(pry, 1.0 - 1e-12);
    return clamped / (1.0 - clamped);
}

/** Subsets of at most this many bits index their buckets by the dense
 *  subset key (2^k slots); wider ones by rank among the keys present,
 *  so their tables stay within the support size. */
constexpr std::size_t kMaxDenseKeyBits = 12;

/**
 * Compiles marginal @p m against the flat outcome list: writes each
 * outcome's bucket to @p bucket_of and returns each bucket's evidence
 * odds (< 0 keeps the prior, as for a subset value the local PMF never
 * observed). Valid for every round because reconstruction never grows
 * the support.
 */
std::vector<double>
indexMarginal(const std::vector<BasisState> &outcomes, const Marginal &m,
              double evidence_threshold, std::uint32_t *bucket_of)
{
    const std::size_t n = outcomes.size();
    const std::size_t k = m.qubits.size();

    // Each bucket's subset key, in the local PMF's bit order.
    std::vector<BasisState> bucket_keys;
    if (k <= kMaxDenseKeyBits) {
        for (std::size_t i = 0; i < n; ++i)
            bucket_of[i] = static_cast<std::uint32_t>(
                extractBits(outcomes[i], m.qubits));
        bucket_keys.resize(std::size_t{1} << k);
        std::iota(bucket_keys.begin(), bucket_keys.end(), BasisState{0});
    } else {
        std::vector<BasisState> keys(n);
        for (std::size_t i = 0; i < n; ++i)
            keys[i] = extractBits(outcomes[i], m.qubits);
        bucket_keys = keys;
        std::sort(bucket_keys.begin(), bucket_keys.end());
        bucket_keys.erase(
            std::unique(bucket_keys.begin(), bucket_keys.end()),
            bucket_keys.end());
        for (std::size_t i = 0; i < n; ++i)
            bucket_of[i] = static_cast<std::uint32_t>(
                std::lower_bound(bucket_keys.begin(), bucket_keys.end(),
                                 keys[i]) -
                bucket_keys.begin());
    }

    std::vector<double> odds(bucket_keys.size());
    for (std::size_t b = 0; b < bucket_keys.size(); ++b) {
        const double pry = m.local.prob(bucket_keys[b]);
        odds[b] = pry > evidence_threshold ? evidenceOdds(pry) : -1.0;
    }
    return odds;
}

/** Outcomes per shard (at least; see reconstructLayer). Independent
 *  of the thread count, so shard boundaries — and therefore every
 *  reduction's grouping — are deterministic. */
constexpr std::size_t kShardSize = 1ULL << 14;

/**
 * Iterated rounds of one layer's marginals over the flat outcome
 * vector @p cur (in place; @p next is scratch of the same size).
 *
 * A round's Bayesian update of marginal m rescales every outcome i in
 * bucket b by f_m[b] = odds[b] / mass_m[b], or 1 where the prior is
 * kept, so its posterior sum is sum_b mass_m[b] f_m[b] and the round
 * total follows from the bucket masses alone. The round is then one
 * pass per shard:
 *
 *   next[i] = cur[i] * (1/total + sum_m s_m f_m[b_m(i)] / total)
 *
 * with s_m the inverse posterior sum, which also accumulates the
 * Bhattacharyya term and the next round's lane-split bucket masses.
 * Partial masses reduce lanes, then shards, in a fixed order, so the
 * result is bitwise identical whatever the thread count and backend.
 */
void
reconstructLayer(std::vector<double> &cur, std::vector<double> &next,
                 const std::vector<BasisState> &outcomes,
                 const std::vector<const Marginal *> &layer,
                 const ReconstructionOptions &options,
                 const simd::KernelTable &kt)
{
    if (options.maxRounds <= 0)
        return;
    const std::size_t n = cur.size();
    const std::size_t n_m = layer.size();
    constexpr std::size_t lanes = simd::kReweightLanes;

    // Every marginal's bucket of every outcome, in one allocation.
    std::vector<std::uint32_t> bucket_of(n_m * n);
    std::vector<std::vector<double>> odds(n_m);
    std::size_t widest = 0;
    for (std::size_t mi = 0; mi < n_m; ++mi) {
        odds[mi] = indexMarginal(outcomes, *layer[mi],
                                 options.evidenceThreshold,
                                 bucket_of.data() + mi * n);
        widest = std::max(widest, odds[mi].size());
    }

    // Shards hold at least four outcomes per partial-mass slot of the
    // widest table, so zeroing and reducing the partials stays a small
    // part of a pass.
    const std::size_t shard_size =
        std::max(kShardSize, 4 * lanes * widest);
    const std::size_t n_shards = (n + shard_size - 1) / shard_size;

    // Per marginal: [shard][lane][bucket] partial masses, the reduced
    // masses, and the weights g_m = s_m f_m / total of the next pass
    // (all zero for the first pass, which therefore copies cur into
    // next and only accumulates the starting masses).
    std::vector<std::vector<double>> partial(n_m), mass(n_m), weight(n_m);
    std::vector<simd::ReweightTerm> terms(n_shards * n_m);
    for (std::size_t mi = 0; mi < n_m; ++mi) {
        const std::size_t n_b = odds[mi].size();
        partial[mi].resize(n_shards * lanes * n_b);
        mass[mi].resize(n_b);
        weight[mi].resize(n_b);
        for (std::size_t s = 0; s < n_shards; ++s)
            terms[s * n_m + mi] = {bucket_of.data() + mi * n,
                                   weight[mi].data(),
                                   partial[mi].data() + s * lanes * n_b,
                                   n_b};
    }
    std::vector<double> shard_bc(n_shards);

    // One fused pass cur -> next; returns the Bhattacharyya sum and
    // leaves next's bucket masses in mass.
    const auto pass = [&](double c0) {
        parallelFor(0, n_shards, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                const std::size_t i0 = s * shard_size;
                const std::size_t i1 = std::min(n, i0 + shard_size);
                for (std::size_t mi = 0; mi < n_m; ++mi) {
                    double *rows = terms[s * n_m + mi].mass;
                    std::fill(rows, rows + lanes * mass[mi].size(), 0.0);
                }
                shard_bc[s] = kt.reweightRound(cur.data(), next.data(),
                                               &terms[s * n_m], n_m, c0,
                                               i0, i1);
            }
        });
        for (std::size_t mi = 0; mi < n_m; ++mi) {
            const std::size_t n_b = mass[mi].size();
            for (std::size_t b = 0; b < n_b; ++b) {
                double total = 0.0;
                for (std::size_t s = 0; s < n_shards; ++s) {
                    const double *rows =
                        partial[mi].data() + s * lanes * n_b + b;
                    double shard_mass = 0.0;
                    for (std::size_t l = 0; l < lanes; ++l)
                        shard_mass += rows[l * n_b];
                    total += shard_mass;
                }
                mass[mi][b] = total;
            }
        }
        double bc = 0.0;
        for (std::size_t s = 0; s < n_shards; ++s)
            bc += shard_bc[s];
        return bc;
    };

    pass(1.0);
    std::vector<double> inv_post_sum(n_m);
    for (int round = 0; round < options.maxRounds; ++round) {
        // The round total: the prior's mass plus every marginal's
        // normalized posterior (1, or 0 for an all-zero posterior).
        double total = 0.0;
        for (double m : mass[0])
            total += m;
        for (std::size_t mi = 0; mi < n_m; ++mi) {
            double post_sum = 0.0;
            for (std::size_t b = 0; b < odds[mi].size(); ++b) {
                const double m = mass[mi][b];
                const double o = odds[mi][b];
                const double f = o >= 0.0 && m > 0.0 ? o / m : 1.0;
                weight[mi][b] = f;
                post_sum += m * f;
            }
            inv_post_sum[mi] = post_sum > 0.0 ? 1.0 / post_sum : 1.0;
            total += inv_post_sum[mi] * post_sum;
        }
        const double inv_total = total > 0.0 ? 1.0 / total : 1.0;
        for (std::size_t mi = 0; mi < n_m; ++mi)
            for (double &g : weight[mi])
                g = inv_post_sum[mi] * g * inv_total;

        const double bc = pass(inv_total);
        const double moved = std::sqrt(std::max(0.0, 1.0 - bc));
        cur.swap(next);
        if (moved < options.tolerance)
            break;
    }
}

/**
 * Flattens @p global once (sorted outcomes, so the result does not
 * depend on the hash layout), runs each layer's rounds in order on the
 * same flat vector, and builds the output PMF once.
 */
Pmf
reconstructLayers(const Pmf &global,
                  const std::vector<std::vector<const Marginal *>> &layers,
                  const ReconstructionOptions &options)
{
    const std::size_t n = global.support();
    std::vector<BasisState> outcomes(n);
    std::vector<double> cur(n), next(n);
    {
        std::vector<std::pair<BasisState, double>> entries(
            global.probabilities().begin(), global.probabilities().end());
        std::sort(entries.begin(), entries.end());
        for (std::size_t i = 0; i < n; ++i) {
            outcomes[i] = entries[i].first;
            cur[i] = entries[i].second;
        }
    }

    const simd::KernelTable &kt =
        options.kernels != nullptr ? *options.kernels
                                   : simd::activeKernels();
    for (const std::vector<const Marginal *> &layer : layers)
        reconstructLayer(cur, next, outcomes, layer, options, kt);

    Pmf output(global.nQubits());
    output.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        output.set(outcomes[i], cur[i]);
    return output;
}

} // namespace

Pmf
bayesianUpdate(const Pmf &prior, const Marginal &m,
               double evidence_threshold)
{
    checkMarginal(prior, m);

    // Step 1: bucket the prior outcomes by their value on the subset
    // bits, tracking each bucket's total prior mass (the normalizer
    // for the update coefficients of Step 2) and whether the local
    // PMF has observable evidence for it.
    std::unordered_map<BasisState, double> bucket_mass;
    bucket_mass.reserve(prior.support());
    bool covers_all = true;
    for (const auto &[outcome, p] : prior.probabilities()) {
        const BasisState key = extractBits(outcome, m.qubits);
        bucket_mass[key] += p;
        if (m.local.prob(key) <= evidence_threshold)
            covers_all = false;
    }

    // Steps 2-3: posterior[outcome] = coefficient * pry / (1 - pry),
    // where coefficient is the outcome's share of its bucket. Global
    // outcomes whose subset value carries no local mass (absent, or at
    // or below the pruning threshold) keep their prior probability
    // (Algorithm 1 initializes Po = P). When every bucket has
    // evidence, no prior entry survives, so start from an empty PMF
    // instead of copying the whole prior just to overwrite it.
    Pmf posterior = covers_all ? Pmf(prior.nQubits()) : prior;
    for (const auto &[outcome, p] : prior.probabilities()) {
        const BasisState key = extractBits(outcome, m.qubits);
        const double pry = m.local.prob(key);
        if (pry <= evidence_threshold)
            continue;
        const double mass = bucket_mass[key];
        if (mass <= 0.0)
            continue;
        posterior.set(outcome, (p / mass) * evidenceOdds(pry));
    }
    posterior.normalize();
    return posterior;
}

Pmf
bayesianReconstruct(const Pmf &global,
                    const std::vector<Marginal> &marginals,
                    const ReconstructionOptions &options)
{
    if (marginals.empty() || global.support() == 0)
        return global;
    std::vector<const Marginal *> layer;
    for (const Marginal &m : marginals) {
        checkMarginal(global, m);
        layer.push_back(&m);
    }
    return reconstructLayers(global, {layer}, options);
}

Pmf
multiLayerReconstruct(const Pmf &global,
                      const std::vector<Marginal> &marginals,
                      const ReconstructionOptions &options)
{
    if (marginals.empty() || global.support() == 0)
        return global;
    // Group by subset size, then apply the layers in the configured
    // order (paper default: largest first).
    std::vector<std::size_t> sizes;
    for (const Marginal &m : marginals) {
        checkMarginal(global, m);
        sizes.push_back(m.qubits.size());
    }
    std::sort(sizes.begin(), sizes.end());
    sizes.erase(std::unique(sizes.begin(), sizes.end()), sizes.end());
    if (options.layerOrder == LayerOrder::TopDown)
        std::reverse(sizes.begin(), sizes.end());

    std::vector<std::vector<const Marginal *>> layers;
    for (std::size_t size : sizes) {
        std::vector<const Marginal *> &layer = layers.emplace_back();
        for (const Marginal &m : marginals)
            if (m.qubits.size() == size)
                layer.push_back(&m);
    }
    return reconstructLayers(global, layers, options);
}

} // namespace core
} // namespace jigsaw
