#include "core/bayesian.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <unordered_map>
#include <utility>

#include "common/bitops.h"
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
 * Support outcomes per slot of a joint bucket table. A layer's
 * marginals are packed into groups whose bit positions span at most W
 * bits, W the largest with kOutcomesPerJointSlot * 2^W <= support
 * (capped at kMaxDenseKeyBits). A round's table work (joint weights,
 * partial-mass zeroing and reduction, marginalising per member) grows
 * with 2^W; the gathers and scatters it saves grow with the support.
 * Measured on 18-bit JigSaw-M inputs (sliding windows of 2-5 bits, 16
 * fixed rounds per layer, one thread, x86-64, two sweeps): 8, 16 and
 * 32 stayed within the host's run-to-run spread of each other from
 * 3,000 to 60,000 outcomes. From 20,000 outcomes 4 ran 25-40% slower;
 * at 300, 64 ran 20-35% slower, while 4 and 8 saved under 0.5 ms. A
 * fixed W = 10 ran 7.6x slower at 300 outcomes, 3x at 1,000 and 1.8x
 * at 3,000, so W must follow the support.
 */
constexpr std::size_t kOutcomesPerJointSlot = 16;

/** The joint-key width W for a support of @p n outcomes. */
std::size_t
jointKeyBits(std::size_t n)
{
    std::size_t bits = 0;
    while (bits < kMaxDenseKeyBits &&
           (kOutcomesPerJointSlot << (bits + 1)) <= n)
        ++bits;
    return bits;
}

/**
 * extractBits over a fixed list of positions, one run of consecutive
 * ascending positions at a time: bit j of a key is still bit
 * positions[j], but a run moves with one shift and mask. Sliding
 * windows, and the unions of neighbouring windows, are one or two
 * runs, so indexing an outcome costs a few operations instead of a few
 * per bit.
 */
class BitRuns
{
  public:
    explicit BitRuns(const Subset &positions)
    {
        for (std::size_t j = 0; j < positions.size();) {
            std::size_t end = j + 1;
            while (end < positions.size() &&
                   positions[end] == positions[end - 1] + 1)
                ++end;
            const std::size_t width = end - j;
            runs_.push_back({positions[j], static_cast<int>(j),
                             width == 64 ? ~BasisState{0}
                                         : (BasisState{1} << width) - 1});
            j = end;
        }
    }

    BasisState operator()(BasisState state) const
    {
        BasisState key = 0;
        for (const Run &run : runs_)
            key |= ((state >> run.from) & run.mask) << run.to;
        return key;
    }

  private:
    struct Run
    {
        int from;        ///< Lowest source position.
        int to;          ///< Its bit in the key.
        BasisState mask; ///< Run width, as low bits.
    };
    std::vector<Run> runs_;
};

/** Each bucket's evidence odds (< 0 keeps the prior, as for a subset
 *  value the local PMF never observed). */
std::vector<double>
bucketOdds(const Marginal &m, const std::vector<BasisState> &bucket_keys,
           double evidence_threshold)
{
    std::vector<double> odds(bucket_keys.size());
    for (std::size_t b = 0; b < bucket_keys.size(); ++b) {
        const double pry = m.local.prob(bucket_keys[b]);
        odds[b] = pry > evidence_threshold ? evidenceOdds(pry) : -1.0;
    }
    return odds;
}

/** The dense subset keys 0 .. 2^k - 1 of a k-bit subset. */
std::vector<BasisState>
denseKeys(std::size_t k)
{
    std::vector<BasisState> keys(std::size_t{1} << k);
    std::iota(keys.begin(), keys.end(), BasisState{0});
    return keys;
}

/**
 * Compiles marginal @p m against the outcomes of the flat entries
 * @p outcomes (their values are not read): writes each outcome's
 * bucket to @p bucket_of and returns each bucket's evidence odds.
 * Valid for every round because reconstruction never grows the
 * support.
 */
std::vector<double>
indexMarginal(const Pmf::Entries &outcomes, const Marginal &m,
              double evidence_threshold, std::uint32_t *bucket_of)
{
    const std::size_t n = outcomes.size();
    const std::size_t k = m.qubits.size();

    // Each bucket's subset key, in the local PMF's bit order.
    const BitRuns key_of(m.qubits);
    std::vector<BasisState> bucket_keys;
    if (k <= kMaxDenseKeyBits) {
        for (std::size_t i = 0; i < n; ++i)
            bucket_of[i] =
                static_cast<std::uint32_t>(key_of(outcomes[i].first));
        bucket_keys = denseKeys(k);
    } else {
        std::vector<BasisState> keys(n);
        for (std::size_t i = 0; i < n; ++i)
            keys[i] = key_of(outcomes[i].first);
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
    return bucketOdds(m, bucket_keys, evidence_threshold);
}

/**
 * Packs a layer's marginals, in layer order, into groups whose bit
 * positions span at most @p width bits; a marginal wider than
 * @p width forms its own group. Returns each group's layer indices.
 */
std::vector<std::vector<std::size_t>>
packGroups(const std::vector<const Marginal *> &layer, std::size_t width)
{
    std::vector<std::vector<std::size_t>> groups;
    BasisState span = 0;
    bool open = false; // whether the last group may take more members
    for (std::size_t mi = 0; mi < layer.size(); ++mi) {
        const Subset &qubits = layer[mi]->qubits;
        BasisState bits = 0;
        for (int q : qubits)
            bits |= BasisState{1} << q;
        const bool fits = qubits.size() <= width;
        if (open && fits &&
            static_cast<std::size_t>(popcount(span | bits)) <= width) {
            groups.back().push_back(mi);
            span |= bits;
        } else {
            groups.push_back({mi});
            span = bits;
            open = fits;
        }
    }
    return groups;
}

/** Outcomes per shard (at least; see reconstructLayer). Independent
 *  of the thread count, so shard boundaries — and therefore every
 *  reduction's grouping — are deterministic. */
constexpr std::size_t kShardSize = 1ULL << 14;

/** Lanes of a pass's lane-split partial masses: outcome i of a shard
 *  accumulates into row i mod kLanes, which keeps runs of outcomes in
 *  one slot off a single store-to-load chain. */
constexpr std::size_t kLanes = 8;

/** One marginal of a group. */
struct Member
{
    /** Joint key -> this marginal's bucket; empty in a group of one,
     *  whose slots are the marginal's own buckets. */
    std::vector<std::uint32_t> bucketOfKey;
    std::vector<double> odds;   ///< Evidence odds per bucket.
    std::vector<double> mass;   ///< Bucket masses (mapped members).
    std::vector<double> weight; ///< f_m, then g_m, per bucket.
    double invPostSum = 1.0;    ///< s_m of the current round.
};

/** Marginals that share one table of slots: the joint keys over the
 *  union of their bits, or a lone marginal's own buckets. */
struct Group
{
    std::vector<Member> members;
    std::vector<double> weight;  ///< W_g per slot (groups of two or more).
    std::vector<double> mass;    ///< M_g per slot, reduced.
    std::vector<double> partial; ///< [shard][lane][slot] partial masses.

    bool joint() const { return members.size() > 1; }

    const std::vector<double> &memberMass(const Member &m) const
    {
        return joint() ? m.mass : mass;
    }

    /** The slot weights a pass adds. */
    const double *slotWeights() const
    {
        return joint() ? weight.data() : members.front().weight.data();
    }
};

/** One group's table in a pass over a shard. */
struct Term
{
    const std::uint32_t *slotOf; ///< Outcome index -> slot.
    const double *weight;        ///< Slot -> additive weight.
    double *mass;                ///< kLanes rows of stride slot masses.
    std::size_t stride;          ///< Slots per lane row.
};

/**
 * One block of the fused pass: outcomes [i, i + len), len <= kLanes,
 * outcome i + l in lane l. Walks the block term by term, so a term's
 * slot ids are read as one contiguous run and the block's mass updates
 * never share a row. Full blocks (kFull) have a compile-time length,
 * which lets the compiler unroll them.
 */
template <bool kFull>
inline void
reweightBlock(const double *cur, double *next, const Term *terms,
              std::size_t n_terms, double c0, std::size_t i,
              std::size_t len, double *bc)
{
    const std::size_t width = kFull ? kLanes : len;
    double v[kLanes];
    for (std::size_t l = 0; l < width; ++l)
        v[l] = c0;
    for (std::size_t t = 0; t < n_terms; ++t) {
        const std::uint32_t *s = terms[t].slotOf + i;
        const double *w = terms[t].weight;
        for (std::size_t l = 0; l < width; ++l)
            v[l] += w[s[l]];
    }
    for (std::size_t l = 0; l < width; ++l) {
        v[l] *= cur[i + l];
        next[i + l] = v[l];
    }
    for (std::size_t t = 0; t < n_terms; ++t) {
        const std::uint32_t *s = terms[t].slotOf + i;
        double *mass = terms[t].mass;
        const std::size_t stride = terms[t].stride;
        for (std::size_t l = 0; l < width; ++l)
            mass[l * stride + s[l]] += v[l];
    }
    for (std::size_t l = 0; l < width; ++l)
        if (cur[i + l] > 0.0 && v[l] > 0.0)
            bc[l] += std::sqrt(cur[i + l] * v[l]);
}

/**
 * The fused pass over outcomes [lo, hi):
 *
 *   next[i] = cur[i] * (c0 + w_0[s_0(i)] + ... + w_{n-1}[s_{n-1}(i)])
 *
 * with the weights added left to right. Accumulates next[i] into every
 * term's lane-split slot masses, mass[l * stride + s_t(i)] with lane
 * l = (i - lo) mod kLanes, and returns the Bhattacharyya sum of
 * sqrt(cur[i] * next[i]) over the elements where both are positive,
 * accumulated per lane and reduced in lane order.
 */
double
reweightShard(const double *cur, double *next, const Term *terms,
              std::size_t n_terms, double c0, std::size_t lo,
              std::size_t hi)
{
    double bc[kLanes] = {};
    std::size_t i = lo;
    for (; i + kLanes <= hi; i += kLanes)
        reweightBlock<true>(cur, next, terms, n_terms, c0, i, kLanes, bc);
    if (i < hi)
        reweightBlock<false>(cur, next, terms, n_terms, c0, i, hi - i, bc);
    double total = 0.0;
    for (double lane : bc)
        total += lane;
    return total;
}

/**
 * Iterated rounds of one layer's marginals over the flat outcome
 * vector @p cur (in place; @p next is scratch of the same size).
 *
 * A round's Bayesian update of marginal m rescales every outcome i in
 * bucket b by f_m[b] = odds[b] / mass_m[b], or 1 where the prior is
 * kept, so its posterior sum is sum_b mass_m[b] f_m[b] and the round
 * total follows from the bucket masses alone. The marginals are packed
 * into groups (packGroups) that share one table of slots each, and the
 * round is one pass per shard:
 *
 *   next[i] = cur[i] * (1/total + sum_g W_g[key_g(i)])
 *   W_g[key] = sum_{m in g} s_m f_m[b_m(key)] / total
 *
 * with s_m the inverse posterior sum and W_g summed in member order.
 * The pass also accumulates the Bhattacharyya term and each group's
 * lane-split joint masses M_g; those reduce lanes, then shards, in a
 * fixed order, and each member's bucket masses are M_g marginalised in
 * key order, so the result is bitwise identical whatever the thread
 * count. A pass costs one gather and one scatter per group and
 * outcome instead of one per marginal.
 */
void
reconstructLayer(std::vector<double> &cur, std::vector<double> &next,
                 const Pmf::Entries &outcomes,
                 const std::vector<const Marginal *> &layer,
                 const ReconstructionOptions &options)
{
    if (options.maxRounds <= 0)
        return;
    const std::size_t n = cur.size();
    const std::vector<std::vector<std::size_t>> packing =
        packGroups(layer, jointKeyBits(n));
    const std::size_t n_g = packing.size();

    // Every group's slot of every outcome, in one allocation.
    std::vector<std::uint32_t> slot_of(n_g * n);
    std::vector<Group> groups(n_g);
    std::size_t widest = 0;
    for (std::size_t g = 0; g < n_g; ++g) {
        Group &group = groups[g];
        std::uint32_t *slots = slot_of.data() + g * n;
        if (packing[g].size() == 1) {
            Member &m = group.members.emplace_back();
            m.odds = indexMarginal(outcomes, *layer[packing[g].front()],
                                   options.evidenceThreshold, slots);
            m.weight.resize(m.odds.size());
            group.mass.resize(m.odds.size());
        } else {
            // Joint keys over the union of the members' bits.
            Subset bits;
            for (std::size_t mi : packing[g])
                bits.insert(bits.end(), layer[mi]->qubits.begin(),
                            layer[mi]->qubits.end());
            std::sort(bits.begin(), bits.end());
            bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
            const BitRuns joint_key(bits);
            for (std::size_t i = 0; i < n; ++i)
                slots[i] = static_cast<std::uint32_t>(
                    joint_key(outcomes[i].first));
            const std::size_t n_keys = std::size_t{1} << bits.size();
            for (std::size_t mi : packing[g]) {
                const Marginal &marginal = *layer[mi];
                Member &m = group.members.emplace_back();
                // Bit j of a member's key is joint-key bit u_j, where
                // bits[u_j] == qubits[j].
                Subset in_joint;
                for (int q : marginal.qubits)
                    in_joint.push_back(static_cast<int>(
                        std::lower_bound(bits.begin(), bits.end(), q) -
                        bits.begin()));
                const BitRuns bucket_of_key(in_joint);
                m.bucketOfKey.resize(n_keys);
                for (std::size_t key = 0; key < n_keys; ++key)
                    m.bucketOfKey[key] =
                        static_cast<std::uint32_t>(bucket_of_key(key));
                m.odds = bucketOdds(marginal,
                                    denseKeys(marginal.qubits.size()),
                                    options.evidenceThreshold);
                m.mass.resize(m.odds.size());
                m.weight.resize(m.odds.size());
            }
            group.weight.resize(n_keys);
            group.mass.resize(n_keys);
        }
        widest = std::max(widest, group.mass.size());
    }

    // Shards hold at least four outcomes per partial-mass slot of the
    // widest table, so zeroing and reducing the partials stays a small
    // part of a pass.
    const std::size_t shard_size =
        std::max(kShardSize, 4 * kLanes * widest);
    const std::size_t n_shards = (n + shard_size - 1) / shard_size;

    // The first pass runs with every weight zero, so it copies cur
    // into next and only accumulates the starting masses.
    std::vector<Term> terms(n_shards * n_g);
    for (std::size_t g = 0; g < n_g; ++g) {
        Group &group = groups[g];
        const std::size_t n_s = group.mass.size();
        group.partial.resize(n_shards * kLanes * n_s);
        for (std::size_t s = 0; s < n_shards; ++s)
            terms[s * n_g + g] = {slot_of.data() + g * n,
                                  group.slotWeights(),
                                  group.partial.data() + s * kLanes * n_s,
                                  n_s};
    }
    std::vector<double> shard_bc(n_shards);

    // One fused pass cur -> next; returns the Bhattacharyya sum and
    // leaves next's slot masses in each group and bucket masses in
    // each mapped member.
    const auto pass = [&](double c0) {
        parallelFor(0, n_shards, 1, [&](std::size_t lo, std::size_t hi) {
            for (std::size_t s = lo; s < hi; ++s) {
                const std::size_t i0 = s * shard_size;
                const std::size_t i1 = std::min(n, i0 + shard_size);
                for (std::size_t g = 0; g < n_g; ++g) {
                    double *rows = terms[s * n_g + g].mass;
                    std::fill(rows, rows + kLanes * groups[g].mass.size(),
                              0.0);
                }
                shard_bc[s] = reweightShard(cur.data(), next.data(),
                                            &terms[s * n_g], n_g, c0, i0,
                                            i1);
            }
        });
        for (Group &group : groups) {
            const std::size_t n_s = group.mass.size();
            for (std::size_t key = 0; key < n_s; ++key) {
                double total = 0.0;
                for (std::size_t s = 0; s < n_shards; ++s) {
                    const double *rows =
                        group.partial.data() + s * kLanes * n_s + key;
                    double shard_mass = 0.0;
                    for (std::size_t l = 0; l < kLanes; ++l)
                        shard_mass += rows[l * n_s];
                    total += shard_mass;
                }
                group.mass[key] = total;
            }
            if (!group.joint())
                continue;
            for (Member &m : group.members) {
                std::fill(m.mass.begin(), m.mass.end(), 0.0);
                for (std::size_t key = 0; key < n_s; ++key)
                    m.mass[m.bucketOfKey[key]] += group.mass[key];
            }
        }
        double bc = 0.0;
        for (std::size_t s = 0; s < n_shards; ++s)
            bc += shard_bc[s];
        return bc;
    };

    pass(1.0);
    for (int round = 0; round < options.maxRounds; ++round) {
        // The round total: the prior's mass plus every marginal's
        // normalized posterior (1, or 0 for an all-zero posterior),
        // added in layer order.
        double total = 0.0;
        for (double m : groups.front().memberMass(groups.front().members[0]))
            total += m;
        for (Group &group : groups) {
            for (Member &m : group.members) {
                const std::vector<double> &mass = group.memberMass(m);
                double post_sum = 0.0;
                for (std::size_t b = 0; b < m.odds.size(); ++b) {
                    const double o = m.odds[b];
                    const double f =
                        o >= 0.0 && mass[b] > 0.0 ? o / mass[b] : 1.0;
                    m.weight[b] = f;
                    post_sum += mass[b] * f;
                }
                m.invPostSum = post_sum > 0.0 ? 1.0 / post_sum : 1.0;
                total += m.invPostSum * post_sum;
            }
        }
        const double inv_total = total > 0.0 ? 1.0 / total : 1.0;
        for (Group &group : groups) {
            for (Member &m : group.members)
                for (double &w : m.weight)
                    w = m.invPostSum * w * inv_total;
            if (!group.joint())
                continue;
            for (std::size_t key = 0; key < group.weight.size(); ++key) {
                double w = 0.0;
                for (const Member &m : group.members)
                    w += m.weight[m.bucketOfKey[key]];
                group.weight[key] = w;
            }
        }

        const double bc = pass(inv_total);
        const double moved = std::sqrt(std::max(0.0, 1.0 - bc));
        cur.swap(next);
        if (moved < options.tolerance)
            break;
    }
}

/**
 * Runs each layer's rounds in order on one flat copy of @p global's
 * probabilities, indexing the marginals by its outcomes (ascending, so
 * the result does not depend on how the PMF was built), and builds the
 * output PMF once over the same outcomes.
 */
Pmf
reconstructLayers(const Pmf &global,
                  const std::vector<std::vector<const Marginal *>> &layers,
                  const ReconstructionOptions &options)
{
    const Pmf::Entries &support = global.probabilities();
    const std::size_t n = support.size();
    std::vector<double> cur(n), next(n);
    for (std::size_t i = 0; i < n; ++i)
        cur[i] = support[i].second;

    for (const std::vector<const Marginal *> &layer : layers)
        reconstructLayer(cur, next, support, layer, options);

    Pmf::Entries output(n);
    for (std::size_t i = 0; i < n; ++i)
        output[i] = {support[i].first, cur[i]};
    return Pmf(global.nQubits(), std::move(output));
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
