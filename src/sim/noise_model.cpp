#include "sim/noise_model.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <variant>

#include "common/error.h"
#include "common/simd.h"
#include "sim/block_groups.h"

namespace jigsaw {
namespace sim {

namespace {

using U64 = std::uint64_t;

/**
 * log2 of the outcomes in one tile of P' (32 KiB of doubles, L1-
 * resident), chosen by the sweep in docs/performance.md. A register
 * of at most this many clbits is one tile.
 */
constexpr int kTileBits = 12;

/**
 * log2 of the narrowest row a tile takes from each of its blocks:
 * 4 KiB, one L1 way, so rows that lie 2^kTileBits outcomes apart
 * spread over every cache set instead of competing for a few.
 */
constexpr int kRowBits = 9;

/** One stochasticPair call: the 2x2 @p m over the pairs (i, i ^ mask). */
struct Pass
{
    U64 mask;
    simd::Mat2Real m;
};

/** The gate-failure mix: out[i] = gate_ok * P[i] + fail * out[i]. */
struct Mix
{
    double gate_ok;
    double fail;
};

/** One step of P', in the order the steps apply. */
using Step = std::variant<Pass, Mix>;

/** The outcome a step combines i with is i ^ partnerMask (a mix: i). */
U64
partnerMask(const Step &step)
{
    const Pass *pass = std::get_if<Pass>(&step);
    return pass != nullptr ? pass->mask : 0;
}

/**
 * The gate-failure mix over [lo, hi): the flipped branch in @p v
 * becomes gate_ok * P + fail * branch, with P read from the sorted
 * @p ideal entries. Outside P's support gate_ok * P is +0, which
 * leaves fail * branch unchanged, so only the entries add a term.
 */
void
mixRange(double *v, U64 lo, U64 hi, const Pmf::Entries &ideal,
         const Mix &mix)
{
    auto it = std::lower_bound(
        ideal.begin(), ideal.end(), lo,
        [](const auto &entry, U64 x) { return entry.first < x; });
    U64 i = lo;
    for (; it != ideal.end() && it->first < hi; ++it) {
        for (; i < it->first; ++i)
            v[i] = mix.fail * v[i];
        v[i] = mix.gate_ok * it->second + mix.fail * v[i];
        ++i;
    }
    for (; i < hi; ++i)
        v[i] = mix.fail * v[i];
}

/**
 * Apply @p steps in order to the 2^k outcomes at @p v, which hold
 * non-zero values only in the blocks of 2^tile_bits outcomes that
 * @p occupied marks.
 *
 * Steps are taken in runs. A run's high bits H (the partner-mask bits
 * at or above tile_bits) pick groups of 2^|H| blocks that trade mass
 * only among themselves; a tile is the same window of W =
 * 2^tile_bits >> |H| outcomes in each block of a group, and a run
 * grows while every step's in-block partner stays inside that window
 * and the rows are at least 2^kRowBits wide. Each tile then goes
 * through every step of the run while it is in cache. A block pair
 * that is still all +0 is skipped (a step keeps it +0) and occupancy
 * spreads as in StateVector. Every outcome goes through the same
 * operations in the same order as one full pass after another, so the
 * result is bit for bit the same.
 */
void
applySteps(double *v, int k, int tile_bits,
           std::vector<std::uint8_t> &occupied,
           const std::vector<Step> &steps, const Pmf::Entries &ideal)
{
    const simd::KernelTable &K = simd::activeKernels();
    const U64 block = U64{1} << tile_bits;
    const U64 n_blocks = U64{1} << (k - tile_bits);
    // A run has at most 2^(tile_bits - kRowBits) rows, or 4 for a
    // lone pass of two high bits.
    const std::size_t max_rows =
        std::size_t{1} << std::max(2, tile_bits - kRowBits);
    std::vector<U64> rows;
    rows.reserve(max_rows);
    std::vector<std::pair<const Step *, U64>> calls;
    calls.reserve(steps.size() * max_rows);
    for (std::size_t first = 0; first < steps.size();) {
        U64 high = partnerMask(steps[first]) >> tile_bits;
        U64 need = partnerMask(steps[first]) & (block - 1);
        std::size_t last = first + 1;
        for (; last < steps.size(); ++last) {
            const U64 mask = partnerMask(steps[last]);
            const U64 h = high | (mask >> tile_bits);
            const U64 n = std::max(need, mask & (block - 1));
            const U64 width = block >> std::popcount(h);
            if (width <= n || (h != 0 && width < (U64{1} << kRowBits)))
                break;
            high = h;
            need = n;
        }
        // A lone pass whose in-block partner lies outside the window
        // (a pair straddling the block boundary from bit tile_bits -
        // 1) takes whole blocks.
        U64 width = block >> std::popcount(high);
        if (width <= need)
            width = block;

        for (U64 g = 0; g < (n_blocks >> std::popcount(high)); ++g) {
            rows.clear();
            forEachGroupBlock(high, g, [&](U64 b) { rows.push_back(b); });

            calls.clear();
            for (std::size_t s = first; s < last; ++s) {
                const U64 mask = partnerMask(steps[s]);
                const U64 h = mask >> tile_bits;
                // Blocks with bit a set hold no bit-a-clear index when
                // bit a is a block bit.
                const U64 a_high = (mask & (~mask + 1)) >> tile_bits;
                for (const U64 r : rows) {
                    if (!shareOccupancy(occupied[r], occupied[r ^ h]))
                        continue;
                    if ((r & a_high) == 0)
                        calls.emplace_back(&steps[s], r << tile_bits);
                }
            }
            if (calls.empty())
                continue;
            for (U64 t = 0; t < block; t += width) {
                for (const auto &[step, row] : calls) {
                    const U64 lo = row + t;
                    if (const auto *pass = std::get_if<Pass>(step))
                        K.stochasticPair(v, pass->mask, lo, lo + width,
                                         pass->m);
                    else
                        mixRange(v, lo, lo + width, ideal,
                                 std::get<Mix>(*step));
                }
            }
        }
        first = last;
    }
}

} // namespace

MeasurementChannel::MeasurementChannel(
    const circuit::QuantumCircuit &physical_circuit,
    const device::DeviceModel &dev)
    : MeasurementChannel(physical_circuit.measuredQubits(),
                         physical_circuit.countMeasurements(), dev)
{
}

MeasurementChannel::MeasurementChannel(const std::vector<int> &measured,
                                       const device::DeviceModel &dev)
    : MeasurementChannel(measured, static_cast<int>(measured.size()), dev)
{
}

MeasurementChannel::MeasurementChannel(const std::vector<int> &measured,
                                       int simultaneous,
                                       const device::DeviceModel &dev)
{
    const device::Calibration &cal = dev.calibration();
    flip0_.resize(measured.size(), 0.0);
    flip1_.resize(measured.size(), 0.0);
    for (std::size_t c = 0; c < measured.size(); ++c) {
        const int q = measured[c];
        fatalIf(q < 0, "MeasurementChannel: unused classical bit in "
                       "measured circuit");
        flip0_[c] = cal.effectiveReadoutError(q, simultaneous, 0);
        flip1_[c] = cal.effectiveReadoutError(q, simultaneous, 1);
    }

    // Correlated flips act on clbit pairs whose physical qubits are
    // coupled and measured together.
    for (std::size_t a = 0; a < measured.size(); ++a) {
        for (std::size_t b = a + 1; b < measured.size(); ++b) {
            if (dev.topology().areCoupled(measured[a], measured[b])) {
                correlatedPairs_.emplace_back(static_cast<int>(a),
                                              static_cast<int>(b));
            }
        }
    }
    correlatedError_ = cal.correlatedPairError();
}

BasisState
MeasurementChannel::apply(BasisState ideal, Rng &rng) const
{
    BasisState out = ideal;
    for (std::size_t c = 0; c < flip0_.size(); ++c) {
        const int bit = getBit(ideal, static_cast<int>(c));
        const double p = bit ? flip1_[c] : flip0_[c];
        if (rng.bernoulli(p))
            out = flipBit(out, static_cast<int>(c));
    }
    for (const auto &[a, b] : correlatedPairs_) {
        if (rng.bernoulli(correlatedError_)) {
            out = flipBit(out, a);
            out = flipBit(out, b);
        }
    }
    return out;
}

double
MeasurementChannel::flipProbability(int c, int bit) const
{
    fatalIf(c < 0 || c >= nClbits(),
            "MeasurementChannel: clbit out of range");
    return bit ? flip1_[static_cast<std::size_t>(c)]
               : flip0_[static_cast<std::size_t>(c)];
}

void
checkDenseWidth(int n_clbits)
{
    if (n_clbits > kMaxDenseClbits) {
        fatalIf(true, "channel-mode sampling builds a dense distribution "
                      "over at most " +
                          std::to_string(kMaxDenseClbits) +
                          " classical bits; this circuit has " +
                          std::to_string(n_clbits));
    }
}

std::vector<double>
noisyOutcomeDistribution(const Pmf &ideal, double gate_ok,
                         double gate_bit_flip,
                         const MeasurementChannel *readout)
{
    const int k = ideal.nQubits();
    checkDenseWidth(k);
    fatalIf(readout != nullptr && readout->nClbits() != k,
            "noisyOutcomeDistribution: readout channel width mismatch");
    const int tile_bits = std::min(k, kTileBits);
    std::vector<double> out(std::size_t{1} << k, 0.0);
    std::vector<std::uint8_t> occupied(std::size_t{1} << (k - tile_bits), 0);
    for (const auto &[outcome, w] : ideal.probabilities()) {
        fatalIf(outcome >= out.size(),
                "noisyOutcomeDistribution: outcome out of range");
        out[outcome] = w;
        occupied[outcome >> tile_bits] = 1;
    }

    std::vector<Step> steps;
    steps.reserve(2 * static_cast<std::size_t>(k) + 1 +
                  (readout != nullptr ? readout->correlatedPairs().size()
                                      : 0));
    if (gate_ok < 1.0) {
        // The failed branch is P with every bit flipped in turn, built
        // in place; the mix then reads P from the ideal entries.
        const double keep = 1.0 - gate_bit_flip;
        for (int c = 0; c < k; ++c) {
            steps.push_back(Pass{U64{1} << c,
                                 {{keep, gate_bit_flip, gate_bit_flip, keep}}});
        }
        steps.push_back(Mix{gate_ok, 1.0 - gate_ok});
    }
    if (readout != nullptr) {
        // A true 0 reads 1 with f0, a true 1 reads 0 with f1.
        for (int c = 0; c < k; ++c) {
            const double f0 = readout->flipProbability(c, 0);
            const double f1 = readout->flipProbability(c, 1);
            steps.push_back(Pass{U64{1} << c, {{1.0 - f0, f1, f0, 1.0 - f1}}});
        }
        const double e = readout->correlatedError();
        if (e > 0.0) {
            for (const auto &[a, b] : readout->correlatedPairs()) {
                steps.push_back(Pass{(U64{1} << a) | (U64{1} << b),
                                     {{1.0 - e, e, e, 1.0 - e}}});
            }
        }
    }
    applySteps(out.data(), k, tile_bits, occupied, steps,
               ideal.probabilities());
    return out;
}

} // namespace sim
} // namespace jigsaw
