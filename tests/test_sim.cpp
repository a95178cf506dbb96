/**
 * @file
 * Noise-pipeline tests: circuit compaction, EPS accounting, the
 * measurement channel's statistics, the exact channel-mode output
 * distribution P' (against a brute-force transition matrix and the
 * per-shot channel), the ideal/noisy executors (including
 * fast-channel vs trajectory-mode agreement), and the blocked,
 * occupancy-tracked StateVector evolution on registers wider than one
 * block (against a full-register replay of the same kernel calls, bit
 * for bit, and against the naive reference kernels).
 */
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/parallel.h"
#include "common/simd.h"
#include "device/library.h"
#include "sim/compact.h"
#include "sim/eps.h"
#include "sim/kernel_ops.h"
#include "sim/noise_model.h"
#include "sim/reference_kernels.h"
#include "sim/simulators.h"
#include "sim/statevector.h"
#include "workloads/ghz.h"
#include "workloads/graycode.h"
#include "workloads/wstate.h"

namespace jigsaw {
namespace sim {
namespace {

using circuit::QuantumCircuit;
using device::DeviceModel;

/** A 3-qubit linear device with hand-set calibration for exact math. */
DeviceModel
tinyDevice()
{
    device::Topology topo = device::linearTopology(3);
    device::Calibration cal(3, 2);
    for (int q = 0; q < 3; ++q) {
        cal.qubit(q).readoutError01 = 0.02;
        cal.qubit(q).readoutError10 = 0.04;
        cal.qubit(q).error1q = 0.001;
        cal.qubit(q).crosstalkGamma = 0.005;
    }
    cal.setEdgeError(0, 0.01);
    cal.setEdgeError(1, 0.02);
    cal.setCorrelatedPairError(0.0);
    return DeviceModel("tiny", std::move(topo), std::move(cal));
}

/**
 * A 4-qubit linear device with per-qubit asymmetric readout and a
 * correlated-pair floor: measuring all four qubits gives the pairs
 * (0,1), (1,2), (2,3), which share clbits 1 and 2.
 */
DeviceModel
pairedDevice()
{
    device::Topology topo = device::linearTopology(4);
    device::Calibration cal(4, 3);
    for (int q = 0; q < 4; ++q) {
        cal.qubit(q).readoutError01 = 0.01 + 0.01 * q;
        cal.qubit(q).readoutError10 = 0.05 + 0.02 * q;
        cal.qubit(q).error1q = 0.002;
        cal.qubit(q).crosstalkGamma = 0.004;
    }
    for (int e = 0; e < 3; ++e)
        cal.setEdgeError(e, 0.02 + 0.01 * e);
    cal.setCorrelatedPairError(0.03);
    return DeviceModel("paired", std::move(topo), std::move(cal));
}

/** A 4-qubit entangling circuit measuring every qubit. */
QuantumCircuit
pairedCircuit()
{
    QuantumCircuit qc(4, 4);
    qc.h(0).cx(0, 1).cx(1, 2).ry(0.7, 3).cx(2, 3).measureAll();
    return qc;
}

/**
 * P' by brute force: the transition matrix summed over every
 * gate-flip pattern g, readout-flip pattern r and pair-flip pattern s
 * of every ideal outcome x, exactly as the per-shot channel composes
 * them (gate corruption first, readout flips conditioned on the
 * corrupted bit, then the correlated pairs).
 */
std::vector<double>
bruteForceNoisy(const Pmf &ideal, double gate_ok, double bit_flip,
                const MeasurementChannel *readout)
{
    const int k = ideal.nQubits();
    const BasisState n = BasisState{1} << k;
    std::vector<std::pair<int, int>> pairs;
    double pair_error = 0.0;
    if (readout != nullptr) {
        pairs = readout->correlatedPairs();
        pair_error = readout->correlatedError();
    }
    const BasisState n_pair_patterns = BasisState{1} << pairs.size();
    const BasisState n_readout_patterns = readout != nullptr ? n : 1;
    std::vector<double> out(n, 0.0);
    for (BasisState x = 0; x < n; ++x) {
        const double px = ideal.prob(x);
        for (BasisState g = 0; g < n; ++g) {
            double wg = (1.0 - gate_ok);
            for (int c = 0; c < k; ++c)
                wg *= getBit(g, c) ? bit_flip : 1.0 - bit_flip;
            if (g == 0)
                wg += gate_ok;
            const BasisState y = x ^ g;
            for (BasisState r = 0; r < n_readout_patterns; ++r) {
                double wr = 1.0;
                for (int c = 0; c < k && readout != nullptr; ++c) {
                    const double f =
                        readout->flipProbability(c, getBit(y, c));
                    wr *= getBit(r, c) ? f : 1.0 - f;
                }
                for (BasisState pat = 0; pat < n_pair_patterns; ++pat) {
                    double ws = 1.0;
                    BasisState z = y ^ r;
                    for (std::size_t j = 0; j < pairs.size(); ++j) {
                        if (getBit(pat, static_cast<int>(j))) {
                            ws *= pair_error;
                            z = flipBit(flipBit(z, pairs[j].first),
                                        pairs[j].second);
                        } else {
                            ws *= 1.0 - pair_error;
                        }
                    }
                    out[z] += px * wg * wr * ws;
                }
            }
        }
    }
    return out;
}

/**
 * The pre-P' channel-mode sampler, one shot at a time: draw the ideal
 * outcome, corrupt it with independent bit flips on a gate failure,
 * then push it through MeasurementChannel::apply.
 */
Histogram
perShotChannel(const Pmf &ideal, double gate_ok, double bit_flip,
               const MeasurementChannel *readout, std::uint64_t shots,
               Rng &rng)
{
    Histogram hist(ideal.nQubits());
    for (std::uint64_t t = 0; t < shots; ++t) {
        BasisState outcome = ideal.sample(rng);
        if (!rng.bernoulli(gate_ok)) {
            for (int c = 0; c < ideal.nQubits(); ++c) {
                if (rng.bernoulli(bit_flip))
                    outcome = flipBit(outcome, c);
            }
        }
        if (readout != nullptr)
            outcome = readout->apply(outcome, rng);
        hist.add(outcome);
    }
    return hist;
}

/** A dense distribution as a Pmf (zero entries dropped). */
Pmf
densePmf(int k, const std::vector<double> &p)
{
    Pmf out(k);
    for (std::size_t i = 0; i < p.size(); ++i) {
        if (p[i] > 0.0)
            out.set(i, p[i]);
    }
    return out;
}

TEST(Compact, RenumbersActiveQubits)
{
    QuantumCircuit qc(10, 2);
    qc.h(7).cx(7, 3).measure(7, 0).measure(3, 1);
    const CompactCircuit c = compactCircuit(qc);
    EXPECT_EQ(c.circuit.nQubits(), 2);
    EXPECT_EQ(c.activeQubits, (std::vector<int>{7, 3}));
    EXPECT_EQ(c.denseOf[7], 0);
    EXPECT_EQ(c.denseOf[3], 1);
    EXPECT_EQ(c.denseOf[0], -1);
    EXPECT_EQ(c.circuit.nClbits(), 2);
}

TEST(Compact, RejectsEmptyCircuit)
{
    QuantumCircuit qc(3);
    EXPECT_THROW(compactCircuit(qc), std::invalid_argument);
}

TEST(Eps, GateSuccessExactProduct)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();
    // (1 - 0.001) * (1 - 0.01) * (1 - 0.02)
    EXPECT_NEAR(gateSuccessProbability(qc, dev),
                0.999 * 0.99 * 0.98, 1e-12);
}

TEST(Eps, SwapCountsAsThreeCx)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 1);
    qc.swap(0, 1).measure(0, 0);
    EXPECT_NEAR(gateSuccessProbability(qc, dev), 0.99 * 0.99 * 0.99,
                1e-12);
}

TEST(Eps, RzzCountsAsTwoCxOneRz)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 1);
    qc.rzz(0.3, 1, 2).measure(1, 0);
    EXPECT_NEAR(gateSuccessProbability(qc, dev), 0.98 * 0.98 * 0.999,
                1e-12);
}

TEST(Eps, RejectsUnroutedGate)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 1);
    qc.cx(0, 2).measure(0, 0); // 0-2 not coupled on a line
    EXPECT_THROW(gateSuccessProbability(qc, dev), std::invalid_argument);
}

TEST(Eps, MeasurementSuccessIncludesCrosstalk)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit one(3, 1);
    one.h(0).measure(0, 0);
    // Single measurement: state-averaged error 0.03.
    EXPECT_NEAR(measurementSuccessProbability(one, dev), 0.97, 1e-12);

    QuantumCircuit three(3, 3);
    three.h(0).measureAll();
    // Three simultaneous: 0.03 + 0.005 * 2 = 0.04 each.
    EXPECT_NEAR(measurementSuccessProbability(three, dev),
                0.96 * 0.96 * 0.96, 1e-12);
}

TEST(Eps, FullEpsIsProduct)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).measureAll();
    EXPECT_NEAR(expectedProbabilityOfSuccess(qc, dev),
                gateSuccessProbability(qc, dev) *
                    measurementSuccessProbability(qc, dev),
                1e-15);
}

TEST(TerminalMeasurements, AcceptsTerminal)
{
    QuantumCircuit qc(2, 2);
    qc.h(0).cx(0, 1).measureAll();
    EXPECT_NO_THROW(checkTerminalMeasurements(qc));
}

TEST(TerminalMeasurements, RejectsGateAfterMeasure)
{
    QuantumCircuit qc(2, 2);
    qc.measure(0, 0).h(0);
    EXPECT_THROW(checkTerminalMeasurements(qc), std::invalid_argument);
}

TEST(TerminalMeasurements, RejectsDuplicateClbit)
{
    QuantumCircuit qc(2, 2);
    qc.measure(0, 0).measure(1, 0);
    EXPECT_THROW(checkTerminalMeasurements(qc), std::invalid_argument);
}

TEST(TerminalMeasurements, RejectsQubitMeasuredTwice)
{
    QuantumCircuit qc(2, 2);
    qc.h(0).measure(0, 0).measure(0, 1);
    EXPECT_THROW(checkTerminalMeasurements(qc), std::invalid_argument);
}

TEST(TerminalMeasurements, RejectsNoMeasurement)
{
    QuantumCircuit qc(2, 2);
    qc.h(0);
    EXPECT_THROW(checkTerminalMeasurements(qc), std::invalid_argument);
}

TEST(MeasurementChannel, FlipProbabilitiesIncludeCrosstalk)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 2);
    qc.h(0).measure(0, 0).measure(2, 1);
    const MeasurementChannel channel(qc, dev);
    EXPECT_EQ(channel.nClbits(), 2);
    // Two simultaneous measurements: base + gamma * 1.
    EXPECT_NEAR(channel.flipProbability(0, 0), 0.02 + 0.005, 1e-12);
    EXPECT_NEAR(channel.flipProbability(0, 1), 0.04 + 0.005, 1e-12);
}

TEST(MeasurementChannel, EmpiricalFlipRate)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 1);
    qc.h(0).measure(0, 0);
    const MeasurementChannel channel(qc, dev);
    Rng rng(31);
    const int n = 200000;
    int flips_from_0 = 0;
    int flips_from_1 = 0;
    for (int i = 0; i < n; ++i) {
        if (channel.apply(0b0, rng) != 0b0)
            ++flips_from_0;
        if (channel.apply(0b1, rng) != 0b1)
            ++flips_from_1;
    }
    EXPECT_NEAR(static_cast<double>(flips_from_0) / n, 0.02, 0.002);
    EXPECT_NEAR(static_cast<double>(flips_from_1) / n, 0.04, 0.003);
}

TEST(MeasurementChannel, CorrelatedPairsOnCoupledQubits)
{
    device::Topology topo = device::linearTopology(3);
    device::Calibration cal(3, 2);
    cal.setCorrelatedPairError(0.5);
    const DeviceModel dev("tiny2", std::move(topo), std::move(cal));

    QuantumCircuit qc(3, 3);
    qc.h(0).measureAll();
    const MeasurementChannel channel(qc, dev);
    // Coupled measured pairs on a 3-line: (0,1) and (1,2).
    EXPECT_EQ(channel.correlatedPairs().size(), 2u);
    EXPECT_DOUBLE_EQ(channel.correlatedError(), 0.5);

    // With flip rates zero, only correlated flips act, always flipping
    // pairs: parity of bits 0^1^2 changes by 0 or 2 flips per pair.
    Rng rng(41);
    for (int i = 0; i < 100; ++i) {
        const BasisState out = channel.apply(0b000, rng);
        EXPECT_EQ(popcount(out) % 2, 0);
    }
}

TEST(NoisyDistribution, MatchesBruteForceTransitionMatrix)
{
    const DeviceModel dev = pairedDevice();
    const QuantumCircuit qc = pairedCircuit();
    const MeasurementChannel channel(qc, dev);
    ASSERT_EQ(channel.correlatedPairs().size(), 3u);
    ASSERT_NE(channel.flipProbability(2, 0), channel.flipProbability(2, 1));
    const double gate_ok = gateSuccessProbability(qc, dev);
    ASSERT_LT(gate_ok, 1.0);

    IdealSimulator ideal;
    std::vector<Pmf> ideals{ideal.idealPmf(qc)};
    // Zero-mass ideal outcomes, stored (0b0110) and absent alike.
    Pmf sparse(4);
    sparse.set(0b0000, 0.6);
    sparse.set(0b0110, 0.0);
    sparse.set(0b1011, 0.4);
    ideals.push_back(sparse);
    // Fewer clbits than the device: 1..3-bit registers.
    for (int k = 1; k <= 3; ++k) {
        Pmf p(k);
        for (BasisState x = 0; x < (BasisState{1} << k); x += 2)
            p.set(x, 1.0 + static_cast<double>(x));
        p.normalize();
        ideals.push_back(p);
    }

    for (const Pmf &p : ideals) {
        const int k = p.nQubits();
        QuantumCircuit sub(4, k);
        for (int c = 0; c < k; ++c)
            sub.measure(c, c);
        const MeasurementChannel sub_channel(sub, dev);
        const MeasurementChannel &readout = k == 4 ? channel : sub_channel;
        for (const bool gate_noise : {false, true}) {
            for (const bool measurement_noise : {false, true}) {
                const double ok = gate_noise ? gate_ok : 1.0;
                const MeasurementChannel *r =
                    measurement_noise ? &readout : nullptr;
                const std::vector<double> fast =
                    noisyOutcomeDistribution(p, ok, 0.15, r);
                const std::vector<double> slow =
                    bruteForceNoisy(p, ok, 0.15, r);
                ASSERT_EQ(fast.size(), slow.size());
                double mass = 0.0;
                for (std::size_t i = 0; i < fast.size(); ++i) {
                    EXPECT_NEAR(fast[i], slow[i], 1e-12)
                        << "k=" << k << " outcome " << i
                        << " gate=" << gate_noise
                        << " readout=" << measurement_noise;
                    mass += fast[i];
                }
                EXPECT_NEAR(mass, 1.0, 1e-12);
            }
        }
    }
}

TEST(NoisyDistribution, PerShotChannelConvergesToIt)
{
    // The retired per-shot channel and the one-multinomial draw both
    // sample P'. At 10^6 shots over 16 outcomes the expected empirical
    // TVD is at most 0.5 * sqrt(2 / (pi * 10^6)) * sum_i sqrt(p_i)
    // <= 1.6e-3; the bound 4e-3 leaves 2.5x headroom.
    const DeviceModel dev = pairedDevice();
    const QuantumCircuit qc = pairedCircuit();
    const MeasurementChannel channel(qc, dev);
    const double gate_ok = gateSuccessProbability(qc, dev);
    IdealSimulator ideal;
    const Pmf p = ideal.idealPmf(qc);
    const Pmf exact =
        densePmf(4, noisyOutcomeDistribution(p, gate_ok, 0.15, &channel));
    constexpr std::uint64_t shots = 1000000;
    constexpr double bound = 4e-3;

    Rng rng(2718);
    const Pmf per_shot =
        perShotChannel(p, gate_ok, 0.15, &channel, shots, rng).toPmf();
    EXPECT_LT(totalVariationDistance(per_shot, exact), bound);

    NoisySimulator noisy(dev, {.seed = 2718});
    const Pmf drawn = noisy.run(qc, shots).toPmf();
    EXPECT_LT(totalVariationDistance(drawn, exact), bound);
}

TEST(NoisyDistribution, GateFailureBranchMatchesCopyThenPassBitForBit)
{
    // The build flips every bit of the scattered P in place, then mixes
    // gate_ok * P + fail * branch reading P from the sorted ideal
    // entries; a copy of P flipped in place and mixed with the dense P
    // evaluates the same expressions on the same operands, so P'
    // agrees bit for bit.
    Rng rng(31);
    const double gate_ok = 0.83;
    const double flip = 0.15;
    for (const int k : {1, 5, 12}) {
        Pmf ideal(k);
        for (BasisState x = 0; x < (BasisState{1} << k); x += 3)
            ideal.set(x, rng.uniform(0.0, 1.0));
        ideal.normalize();

        std::vector<double> p(std::size_t{1} << k, 0.0);
        for (const auto &[x, w] : ideal.probabilities())
            p[x] = w;
        std::vector<double> failed = p;
        for (int c = 0; c < k; ++c) {
            const std::size_t stride = std::size_t{1} << c;
            for (std::size_t base = 0; base < failed.size();
                 base += 2 * stride) {
                for (std::size_t j = base; j < base + stride; ++j) {
                    const double a = failed[j];
                    const double b = failed[j + stride];
                    failed[j] = (1.0 - flip) * a + flip * b;
                    failed[j + stride] = flip * a + (1.0 - flip) * b;
                }
            }
        }
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] = gate_ok * p[i] + (1.0 - gate_ok) * failed[i];

        EXPECT_EQ(noisyOutcomeDistribution(ideal, gate_ok, flip, nullptr),
                  p)
            << "k=" << k;
    }
}

/**
 * P' as it was built before the blocked, one-buffer build: a dense P,
 * the gate-failure branch flipped bit by bit in a second buffer and
 * mixed in, then one full pass per readout bit and per correlated
 * pair, each over the whole vector.
 */
std::vector<double>
passByPassNoisy(const Pmf &ideal, double gate_ok, double gate_bit_flip,
                const MeasurementChannel *readout)
{
    const auto flip_pass = [](double *v, std::size_t size, int c, double f0,
                              double f1) {
        const std::size_t stride = std::size_t{1} << c;
        const double keep0 = 1.0 - f0;
        const double keep1 = 1.0 - f1;
        for (std::size_t base = 0; base < size; base += 2 * stride) {
            double *lo = v + base;
            double *hi = lo + stride;
            for (std::size_t j = 0; j < stride; ++j) {
                const double a = lo[j];
                const double b = hi[j];
                lo[j] = keep0 * a + f1 * b;
                hi[j] = f0 * a + keep1 * b;
            }
        }
    };
    const int k = ideal.nQubits();
    std::vector<double> p(std::size_t{1} << k, 0.0);
    for (const auto &[outcome, w] : ideal.probabilities())
        p[outcome] = w;
    if (gate_ok < 1.0) {
        const std::size_t size = p.size();
        std::vector<double> failed(size);
        const double keep = 1.0 - gate_bit_flip;
        for (std::size_t x = 0; x < size; x += 2) {
            const double a = p[x];
            const double b = p[x + 1];
            failed[x] = keep * a + gate_bit_flip * b;
            failed[x + 1] = gate_bit_flip * a + keep * b;
        }
        for (int c = 1; c < k; ++c)
            flip_pass(failed.data(), size, c, gate_bit_flip, gate_bit_flip);
        const double fail = 1.0 - gate_ok;
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] = gate_ok * p[i] + fail * failed[i];
    }
    if (readout != nullptr) {
        for (int c = 0; c < k; ++c) {
            flip_pass(p.data(), p.size(), c, readout->flipProbability(c, 0),
                      readout->flipProbability(c, 1));
        }
        const double e = readout->correlatedError();
        if (e > 0.0) {
            for (const auto &[a, b] : readout->correlatedPairs()) {
                const std::size_t stride = std::size_t{1} << a;
                const std::size_t mask = stride | (std::size_t{1} << b);
                const double keep = 1.0 - e;
                for (std::size_t base = 0; base < p.size();
                     base += 2 * stride) {
                    double *x = p.data() + base;
                    double *y = p.data() + (base ^ mask);
                    for (std::size_t j = 0; j < stride; ++j) {
                        const double u = x[j];
                        const double w = y[j];
                        x[j] = keep * u + e * w;
                        y[j] = e * u + keep * w;
                    }
                }
            }
        }
    }
    return p;
}

TEST(NoisyDistribution, BlockedBuildMatchesPassByPassBitForBit)
{
    // An 18-qubit device whose couplings put correlated pairs below
    // bit 3 (the in-register SIMD strides), inside one tile, and
    // across the tile boundaries at bits 10 to 13, on asymmetric,
    // per-qubit readout. Measuring qubits 0..k-1 keeps the pairs of
    // the first k clbits.
    const std::vector<device::Edge> edges = {
        {0, 1},  {1, 2},  {0, 5},  {2, 9},   {3, 4},  {5, 11},
        {9, 10}, {10, 11}, {11, 12}, {2, 12}, {7, 13}, {12, 13},
        {11, 17}, {4, 14}, {8, 16}, {13, 17}, {6, 15}, {1, 15}};
    device::Calibration cal(18, static_cast<int>(edges.size()));
    Rng cal_rng(29);
    for (int q = 0; q < 18; ++q) {
        cal.qubit(q).readoutError01 = cal_rng.uniform(0.005, 0.05);
        cal.qubit(q).readoutError10 = cal_rng.uniform(0.02, 0.1);
        cal.qubit(q).crosstalkGamma = 0.002;
    }
    cal.setCorrelatedPairError(0.03);
    const DeviceModel dev("straddle", device::Topology(18, edges),
                          std::move(cal));

    Rng rng(57);
    for (int k = 1; k <= 18; ++k) {
        if (k == 17)
            continue;
        std::vector<std::pair<std::string, Pmf>> ideals;
        const BasisState n = BasisState{1} << k;
        Pmf ghz(k);
        ghz.set(0, 0.5);
        ghz.set(n - 1, 0.5);
        ideals.emplace_back("ghz", ghz);
        Pmf w(k);
        for (int c = 0; c < k; ++c)
            w.set(BasisState{1} << c, 1.0 / k);
        ideals.emplace_back("w", w);
        Pmf one_hot(k);
        one_hot.set(BasisState{1} << (k / 2), 1.0);
        ideals.emplace_back("one-hot", one_hot);
        Pmf dense(k);
        for (BasisState x = 0; x < n; ++x)
            dense.set(x, rng.uniform(0.0, 1.0));
        dense.normalize();
        ideals.emplace_back("dense", dense);

        std::vector<int> measured(static_cast<std::size_t>(k));
        for (int c = 0; c < k; ++c)
            measured[static_cast<std::size_t>(c)] = c;
        const MeasurementChannel readout(measured, dev);
        for (const auto &[name, ideal] : ideals) {
            for (const double gate_ok : {1.0, 0.83}) {
                for (const MeasurementChannel *r :
                     {static_cast<const MeasurementChannel *>(nullptr),
                      &readout}) {
                    const std::vector<double> blocked =
                        noisyOutcomeDistribution(ideal, gate_ok, 0.15, r);
                    const std::vector<double> reference =
                        passByPassNoisy(ideal, gate_ok, 0.15, r);
                    ASSERT_EQ(blocked.size(), reference.size());
                    EXPECT_EQ(std::memcmp(blocked.data(), reference.data(),
                                          blocked.size() * sizeof(double)),
                              0)
                        << "k=" << k << " " << name << " gate_ok=" << gate_ok
                        << " readout=" << (r != nullptr) << " pairs="
                        << readout.correlatedPairs().size();
                }
            }
        }
    }
}

TEST(NoisyDistribution, RejectsRegistersWiderThanTheDenseLimit)
{
    EXPECT_THROW(noisyOutcomeDistribution(Pmf(kMaxDenseClbits + 1), 1.0,
                                          0.15, nullptr),
                 std::invalid_argument);
}

TEST(IdealSimulator, ExactBellPmf)
{
    IdealSimulator ideal;
    QuantumCircuit qc(2, 2);
    qc.h(0).cx(0, 1).measureAll();
    const Pmf pmf = ideal.idealPmf(qc);
    EXPECT_NEAR(pmf.prob(0b00), 0.5, 1e-12);
    EXPECT_NEAR(pmf.prob(0b11), 0.5, 1e-12);
}

TEST(IdealSimulator, PartialMeasurementClbitOrder)
{
    IdealSimulator ideal;
    QuantumCircuit qc(3, 1);
    qc.x(2).measure(2, 0);
    const Pmf pmf = ideal.idealPmf(qc);
    EXPECT_NEAR(pmf.prob(0b1), 1.0, 1e-12);
}

TEST(IdealSimulator, RunSamplesDistribution)
{
    IdealSimulator ideal(7);
    QuantumCircuit qc(1, 1);
    qc.h(0).measure(0, 0);
    const Histogram hist = ideal.run(qc, 100000);
    EXPECT_NEAR(static_cast<double>(hist.count(0)) / 100000.0, 0.5, 0.01);
}

TEST(NoisySimulator, NoNoiseMatchesIdeal)
{
    const DeviceModel dev = tinyDevice();
    NoisySimulatorOptions options;
    options.gateNoise = false;
    options.measurementNoise = false;
    NoisySimulator noiseless(dev, options);
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();
    const Pmf pmf = noiseless.run(qc, 50000).toPmf();
    EXPECT_NEAR(pmf.prob(0b000), 0.5, 0.01);
    EXPECT_NEAR(pmf.prob(0b111), 0.5, 0.01);
    EXPECT_EQ(pmf.support(), 2u);
}

TEST(NoisySimulator, MeasurementNoiseDegradesDeterministicCircuit)
{
    const DeviceModel dev = tinyDevice();
    NoisySimulator noisy(dev, {.seed = 3, .trajectories = 0,
                               .gateNoise = false,
                               .measurementNoise = true});
    QuantumCircuit qc(3, 3);
    qc.x(0).x(1).x(2).measureAll();
    const Pmf pmf = noisy.run(qc, 100000).toPmf();
    // Each bit reads 1 with probability 1 - (0.04 + 0.005*2) = 0.95.
    EXPECT_NEAR(pmf.prob(0b111), 0.95 * 0.95 * 0.95, 0.01);
}

TEST(NoisySimulator, GateNoiseUniformAtHalfFlip)
{
    const DeviceModel dev = tinyDevice();
    // gateNoiseBitFlip = 0.5 reproduces the textbook uniform-outcome
    // depolarizing channel.
    NoisySimulator noisy(dev, {.seed = 5, .trajectories = 0,
                               .gateNoise = true,
                               .measurementNoise = false,
                               .gateNoiseBitFlip = 0.5});
    QuantumCircuit qc(3, 3);
    // 30 CX gates: success (1-0.01)^30 ~ 0.74.
    for (int i = 0; i < 30; ++i)
        qc.cx(0, 1);
    qc.measureAll();
    const Pmf pmf = noisy.run(qc, 200000).toPmf();
    // |000> keeps gate-success mass plus 1/8 of the failures.
    const double p_ok = gateSuccessProbability(qc, dev);
    EXPECT_NEAR(pmf.prob(0b000), p_ok + (1 - p_ok) / 8.0, 0.01);
}

TEST(NoisySimulator, GateNoiseLocalizedByDefault)
{
    const DeviceModel dev = tinyDevice();
    NoisySimulator noisy(dev, {.seed = 6, .trajectories = 0,
                               .gateNoise = true,
                               .measurementNoise = false});
    QuantumCircuit qc(3, 3);
    for (int i = 0; i < 30; ++i)
        qc.cx(0, 1);
    qc.measureAll();
    const Pmf pmf = noisy.run(qc, 200000).toPmf();
    // Default flip rate 0.15: failed trials keep |000> with
    // probability 0.85^3, so the correct outcome retains more mass
    // than under the uniform channel.
    const double p_ok = gateSuccessProbability(qc, dev);
    const double keep = 0.85 * 0.85 * 0.85;
    EXPECT_NEAR(pmf.prob(0b000), p_ok + (1 - p_ok) * keep, 0.01);
    // Single-bit corruption beats triple-bit corruption.
    EXPECT_GT(pmf.prob(0b001), pmf.prob(0b111));
}

TEST(NoisySimulator, RejectsWrongQubitSpace)
{
    const DeviceModel dev = tinyDevice();
    NoisySimulator noisy(dev);
    QuantumCircuit qc(2, 2);
    qc.h(0).measureAll();
    EXPECT_THROW(noisy.run(qc, 10), std::invalid_argument);
}

TEST(NoisySimulator, TrajectoryModeAgreesWithChannelMode)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();

    NoisySimulator fast(dev, {.seed = 11, .trajectories = 0,
                              .gateNoise = true,
                              .measurementNoise = true});
    NoisySimulator traj(dev, {.seed = 11, .trajectories = 400,
                              .gateNoise = true,
                              .measurementNoise = true});
    const Pmf fast_pmf = fast.run(qc, 120000).toPmf();
    const Pmf traj_pmf = traj.run(qc, 120000).toPmf();
    // The two noise treatments should produce similar distributions
    // (they model the same calibration); allow a loose TVD bound.
    EXPECT_LT(totalVariationDistance(fast_pmf, traj_pmf), 0.05);
}

TEST(NoisySimulator, CacheHitAndMissDrawTheSameStream)
{
    const DeviceModel dev = pairedDevice();
    const QuantumCircuit qc = pairedCircuit();
    NoisySimulator warm(dev, {.seed = 17});
    NoisySimulator cold(dev, {.seed = 17});
    warm.prepare(qc);
    for (int rep = 0; rep < 2; ++rep) {
        const Histogram hw = warm.run(qc, 3000);
        const Histogram hc = cold.run(qc, 3000);
        ASSERT_EQ(hw.uniqueOutcomes(), hc.uniqueOutcomes());
        for (const auto &[outcome, count] : hw.counts())
            EXPECT_EQ(count, hc.count(outcome));
    }
    EXPECT_EQ(warm.cacheMisses(), 1u);
    EXPECT_EQ(warm.cacheHits(), 2u);
    EXPECT_EQ(cold.cacheMisses(), 1u);
}

TEST(NoisySimulator, SubsetRunMatchesRunBatchSpec)
{
    const DeviceModel dev = pairedDevice();
    const QuantumCircuit base = pairedCircuit();
    for (const std::vector<int> &qubits :
         std::vector<std::vector<int>>{{0, 2}, {1, 2, 3}, {3}}) {
        NoisySimulator per_cpm(dev, {.seed = 23});
        NoisySimulator batched(dev, {.seed = 23});
        const Histogram single =
            per_cpm.run(base.withMeasurementSubset(qubits), 5000);
        const Histogram batch =
            batched.runBatch(base, {CpmSpec{qubits, 5000}}).front();
        ASSERT_EQ(single.nQubits(), batch.nQubits());
        ASSERT_EQ(single.uniqueOutcomes(), batch.uniqueOutcomes());
        for (const auto &[outcome, count] : single.counts())
            EXPECT_EQ(count, batch.count(outcome));
    }
}

TEST(Simulators, UnboundSpecsRejectMalformedSubsets)
{
    // An unbound spec runs as its measurement-subset circuit, so the
    // circuit layer checks the subset: an empty one, a qubit outside
    // the register (negative or too large) and a qubit measured twice
    // are each rejected, in a batch and on their own, by both
    // simulators.
    const DeviceModel dev = pairedDevice();
    const QuantumCircuit base = pairedCircuit();
    IdealSimulator ideal(3);
    NoisySimulator noisy(dev, {.seed = 3});
    for (Executor *executor : {static_cast<Executor *>(&ideal),
                               static_cast<Executor *>(&noisy)}) {
        // The base itself is fine: a well-formed subset runs.
        EXPECT_EQ(executor->runBatch(base, {CpmSpec{{0, 1}, 100}})
                      .front()
                      .totalCount(),
                  100u);
        for (const std::vector<int> &qubits :
             std::vector<std::vector<int>>{{}, {-1, 0}, {0, 4}, {1, 1}}) {
            const CpmSpec spec{qubits, 100};
            EXPECT_THROW(executor->runBatch(base, {spec}),
                         std::invalid_argument);
            EXPECT_THROW(executor->run(base, spec), std::invalid_argument);
        }
    }
}

TEST(Simulators, BoundSpecsRejectRepeatedBits)
{
    // A bound spec folds its logical program's PMF onto its clbits and
    // reads them through its physical qubits, so a repeated clbit or
    // qubit is as malformed as a repeated qubit in an unbound spec:
    // each is rejected by run(), runBatch() and prepareBatch() of both
    // simulators instead of drawing correlated copies of one bit.
    const DeviceModel dev = pairedDevice();
    const QuantumCircuit base = pairedCircuit();
    const auto logical = std::make_shared<const LogicalProgram>(base);
    const auto bound = [&](std::vector<int> qubits,
                           std::vector<int> clbits) {
        CpmSpec spec{std::move(qubits), 100};
        spec.logical = logical;
        spec.clbits = std::move(clbits);
        return spec;
    };
    IdealSimulator ideal(3);
    NoisySimulator noisy(dev, {.seed = 3});
    for (Executor *executor : {static_cast<Executor *>(&ideal),
                               static_cast<Executor *>(&noisy)}) {
        EXPECT_EQ(executor->run(base, bound({0, 1}, {0, 1})).totalCount(),
                  100u);
        for (const CpmSpec &spec :
             {bound({1, 1}, {1, 1}), bound({1, 1}, {0, 1}),
              bound({0, 1}, {1, 1})}) {
            EXPECT_THROW(executor->run(base, spec), std::invalid_argument);
            EXPECT_THROW(executor->runBatch(base, {spec}),
                         std::invalid_argument);
            EXPECT_THROW(executor->prepareBatch(base, {spec}),
                         std::invalid_argument);
        }
    }
}

TEST(NoisySimulator, BoundSpecNoiseEqualsItsSubsetCircuitsBitForBit)
{
    // A bound spec's P' takes the base circuit's gate success and the
    // readout channel of its physical qubits, without building its
    // measurement-subset circuit: for one base and several subsets it
    // equals the P' derived from that circuit bit for bit, and the
    // executor draws from exactly it.
    const DeviceModel dev = pairedDevice();
    const QuantumCircuit base = pairedCircuit();
    const auto logical = std::make_shared<const LogicalProgram>(base);
    const NoisySimulatorOptions options{.seed = 3};
    IdealSimulator ideal(1);
    const Pmf full = ideal.idealPmf(base);
    for (const std::vector<int> &qubits : std::vector<std::vector<int>>{
             {0, 2}, {3, 1, 2}, {1}, {2, 0, 1, 3}}) {
        const QuantumCircuit subset = base.withMeasurementSubset(qubits);
        const Pmf pmf = full.marginal(qubits);
        const MeasurementChannel circuit_channel(subset, dev);
        const MeasurementChannel qubit_channel(qubits, dev);
        const std::vector<double> from_circuit = noisyOutcomeDistribution(
            pmf, gateSuccessProbability(subset, dev),
            options.gateNoiseBitFlip, &circuit_channel);
        const std::vector<double> from_qubits = noisyOutcomeDistribution(
            pmf, gateSuccessProbability(base, dev), options.gateNoiseBitFlip,
            &qubit_channel);
        EXPECT_EQ(from_circuit, from_qubits);

        NoisySimulator noisy(dev, options);
        Rng stream(40);
        CpmSpec spec{qubits, 5000};
        spec.logical = logical;
        spec.clbits = qubits;
        spec.rng = &stream;
        const Histogram drawn = noisy.run(base, spec);
        Rng replay(40);
        const Histogram expected =
            MultinomialSampler(static_cast<int>(qubits.size()), from_circuit)
                .draw(5000, replay);
        EXPECT_EQ(drawn.counts(), expected.counts());
    }
}

TEST(NoisySimulator, ChannelModeRejectsRegistersWiderThanDenseLimit)
{
    // Measure-only, so nothing would be evolved even without the
    // early check; the error must name the width.
    const DeviceModel dev = device::manhattan();
    const int wide = kMaxDenseClbits + 1;
    QuantumCircuit qc(dev.nQubits(), wide);
    std::vector<int> qubits;
    for (int q = 0; q < wide; ++q) {
        qc.measure(q, q);
        qubits.push_back(q);
    }
    NoisySimulator noisy(dev);
    EXPECT_THROW(noisy.run(qc, 10), std::invalid_argument);
    EXPECT_THROW(noisy.prepare(qc), std::invalid_argument);
    EXPECT_THROW(noisy.runBatch(qc, {CpmSpec{qubits, 10}}),
                 std::invalid_argument);
    try {
        noisy.run(qc, 10);
    } catch (const std::invalid_argument &e) {
        EXPECT_NE(std::string(e.what()).find(std::to_string(wide)),
                  std::string::npos)
            << e.what();
    }
}

TEST(NoisySimulator, DeterministicWithSameSeed)
{
    const DeviceModel dev = tinyDevice();
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).measureAll();
    NoisySimulator a(dev, {.seed = 9});
    NoisySimulator b(dev, {.seed = 9});
    const Histogram ha = a.run(qc, 5000);
    const Histogram hb = b.run(qc, 5000);
    for (const auto &[outcome, count] : ha.counts())
        EXPECT_EQ(count, hb.count(outcome));
}

// ------------------------------------------------- blocked evolution

constexpr int kB = StateVector::kBlockBits;

/** Amplitudes of a register evolved outside StateVector. */
struct Register
{
    explicit Register(int n)
        : n(n), re(std::size_t{1} << n, 0.0), im(std::size_t{1} << n, 0.0)
    {
        re[0] = 1.0;
    }

    int n;
    std::vector<double> re;
    std::vector<double> im;
};

/**
 * The full-register replay: each op as one kernel call over the whole
 * register, in order — the unblocked evolution.
 */
void
replay(Register &reg, const std::vector<KernelOp> &ops)
{
    const simd::KernelTable &K = simd::activeKernels();
    for (const KernelOp &op : ops)
        runKernel(op, K, reg.re.data(), reg.im.data(), 0,
                  kernelExtent(op, reg.n));
}

std::vector<KernelOp>
lowered(const QuantumCircuit &qc)
{
    std::vector<KernelOp> ops;
    lowerCircuit(qc, simOptions(),
                 [&](KernelOp &&op) { ops.push_back(std::move(op)); });
    return ops;
}

std::vector<KernelOp>
loweredGate(const circuit::Gate &gate)
{
    std::vector<KernelOp> ops;
    lowerGate(gate, [&](KernelOp &&op) { ops.push_back(std::move(op)); });
    return ops;
}

/**
 * Every amplitude of @p sv equals the replay's. A skipped zero block
 * differs from a replayed one at most in the sign of its zeros, so
 * the comparison is ==, which is exact for every non-zero value.
 */
void
expectSameAmplitudes(const StateVector &sv, const Register &reg,
                     const std::string &what)
{
    ASSERT_EQ(sv.reals().size(), reg.re.size()) << what;
    std::size_t differ = 0;
    for (std::size_t i = 0; i < reg.re.size(); ++i)
        differ += sv.reals()[i] != reg.re[i] || sv.imags()[i] != reg.im[i];
    EXPECT_EQ(differ, 0u) << what;
}

/** The reference kernels' amplitudes agree to round-off. */
void
expectNearReference(const StateVector &sv, const QuantumCircuit &qc,
                    const std::string &what)
{
    const std::vector<std::complex<double>> ref = referenceEvolve(qc);
    double worst = 0.0;
    for (std::size_t i = 0; i < ref.size(); ++i)
        worst = std::max(worst, std::abs(ref[i] - sv.amplitude(i)));
    EXPECT_LT(worst, 1e-10) << what;
}

/** applyCircuit against both oracles. */
void
expectBlockedEvolution(const QuantumCircuit &qc, const std::string &what)
{
    StateVector sv(qc.nQubits());
    sv.applyCircuit(qc);
    Register reg(qc.nQubits());
    replay(reg, lowered(qc));
    expectSameAmplitudes(sv, reg, what);
    expectNearReference(sv, qc, what);
}

TEST(BlockedEvolution, EveryGateKindAcrossTheBlockBoundary)
{
    // Qubits on both sides of the block boundary, from a sparse start
    // (two occupied blocks, one moved off block 0) and a spread one.
    const int n = kB + 4;
    const int l0 = 1;
    const int l1 = kB - 1;
    const int h0 = kB;
    const int h1 = kB + 3;
    using Build = std::function<void(QuantumCircuit &)>;
    const std::vector<std::pair<std::string, Build>> preps = {
        {"sparse", [&](QuantumCircuit &qc) { qc.x(h1).h(l0); }},
        {"spread",
         [&](QuantumCircuit &qc) {
             qc.h(0).h(l1).h(h0).h(n - 1).u3(0.4, 0.1, 1.2, kB + 2);
         }},
    };
    const std::vector<std::pair<std::string, Build>> snippets = {
        {"u3 low", [&](QuantumCircuit &qc) { qc.u3(0.3, 0.5, 0.7, l1); }},
        {"u3 high", [&](QuantumCircuit &qc) { qc.u3(0.3, 0.5, 0.7, h0); }},
        {"h high", [&](QuantumCircuit &qc) { qc.h(h1); }},
        {"rz high", [&](QuantumCircuit &qc) { qc.rz(0.4, h0); }},
        {"t high", [&](QuantumCircuit &qc) { qc.t(h1); }},
        {"x high", [&](QuantumCircuit &qc) { qc.x(h0); }},
        {"y high", [&](QuantumCircuit &qc) { qc.y(h1); }},
        {"xz high", [&](QuantumCircuit &qc) { qc.x(h0).z(h0); }},
        {"cx low-low", [&](QuantumCircuit &qc) { qc.cx(l0, l1); }},
        {"cx low-high", [&](QuantumCircuit &qc) { qc.cx(l1, h0); }},
        {"cx high-low", [&](QuantumCircuit &qc) { qc.cx(h0, l0); }},
        {"cx high-high", [&](QuantumCircuit &qc) { qc.cx(h0, h1); }},
        {"cx high-high down", [&](QuantumCircuit &qc) { qc.cx(h1, h0); }},
        {"swap low-low", [&](QuantumCircuit &qc) { qc.swap(l0, l1); }},
        {"swap low-high", [&](QuantumCircuit &qc) { qc.swap(l0, h1); }},
        {"swap high-high", [&](QuantumCircuit &qc) { qc.swap(h0, h1); }},
        {"cp low-high", [&](QuantumCircuit &qc) { qc.cp(0.3, l0, h0); }},
        {"cz high-high", [&](QuantumCircuit &qc) { qc.cz(h0, h1); }},
        {"cp run, high target",
         [&](QuantumCircuit &qc) {
             qc.cp(0.1, l0, h1).cp(0.2, l1, h1).cz(h0, h1);
         }},
        {"cp run, low target",
         [&](QuantumCircuit &qc) {
             qc.cp(0.1, h0, l1).cp(0.2, h1, l1).cz(l0, l1);
         }},
        {"rzz low-high", [&](QuantumCircuit &qc) { qc.rzz(0.7, l1, h0); }},
        {"diagonal run",
         [&](QuantumCircuit &qc) {
             qc.rzz(0.3, l0, h0).rzz(0.5, h0, h1).rz(0.2, h1).cp(0.4, l1,
                                                                 h1);
         }},
    };
    for (const auto &[prep_name, prep] : preps) {
        QuantumCircuit all(n, n);
        prep(all);
        for (const auto &[name, snippet] : snippets) {
            QuantumCircuit qc(n, n);
            prep(qc);
            snippet(qc);
            // Mix afterwards so a wrongly skipped block shows.
            qc.h(h0).h(h1).cx(l1, h0);
            expectBlockedEvolution(qc, prep_name + ": " + name);
            snippet(all);
        }
        expectBlockedEvolution(all, prep_name + ": every snippet");
    }
}

/** Random U3 layers over CX ladders (the KernelEquivalence shape). */
QuantumCircuit
randomU3Cx(int n, int depth, std::uint64_t seed)
{
    Rng rng(seed);
    QuantumCircuit qc(n, n);
    for (int layer = 0; layer < depth; ++layer) {
        for (int q = 0; q < n; ++q) {
            qc.u3(rng.uniform(0.0, M_PI), rng.uniform(0.0, 2 * M_PI),
                  rng.uniform(0.0, 2 * M_PI), q);
        }
        for (int q = layer % 2; q + 1 < n; q += 2)
            qc.cx(q, q + 1);
    }
    return qc;
}

TEST(BlockedEvolution, StatePreparationPrograms)
{
    const std::vector<std::pair<std::string, QuantumCircuit>> programs = {
        {"GHZ-18", workloads::Ghz(18).circuit()},
        {"W-18", workloads::WState(18).circuit()},
        {"Graycode-18", workloads::Graycode(18).circuit()},
        {"random U3+CX-16", randomU3Cx(16, 6, 5)},
    };
    const simd::KernelTable &K = simd::activeKernels();
    for (const auto &[name, qc] : programs) {
        expectBlockedEvolution(qc, name);

        // The reads visit occupied blocks only, yet match full scans
        // of the replayed register: norm bit for bit, and the PMFs
        // over all qubits and over a permuted subset.
        StateVector sv(qc.nQubits());
        sv.applyCircuit(qc);
        Register reg(qc.nQubits());
        replay(reg, lowered(qc));
        EXPECT_EQ(sv.norm(),
                  K.norm2(reg.re.data(), reg.im.data(), 0, reg.re.size()))
            << name;
        std::vector<int> all;
        for (int q = 0; q < qc.nQubits(); ++q)
            all.push_back(q);
        const std::vector<int> subset = {qc.nQubits() - 1, 0, kB, 3, kB - 1};
        for (const std::vector<int> &qubits : {all, subset}) {
            Pmf::Entries terms;
            for (BasisState b = 0; b < reg.re.size(); ++b) {
                const double p = reg.re[b] * reg.re[b] + reg.im[b] * reg.im[b];
                if (p > 0.0)
                    terms.emplace_back(extractBits(b, qubits), p);
            }
            Pmf fold(static_cast<int>(qubits.size()), std::move(terms));
            fold.prune(1e-14);
            EXPECT_EQ(sv.measurementPmf(qubits).probabilities(),
                      fold.probabilities())
                << name;
        }
    }
    // Graycode's X layer and CX cascade only permute blocks, so its
    // basis state never leaves one block and the reads stay exact.
    StateVector gray(18);
    gray.applyCircuit(workloads::Graycode(18).circuit());
    EXPECT_EQ(gray.measurementPmf({0}).probabilities().size(), 1u);
}

TEST(BlockedEvolution, SplitPrefixThenTailMatchesOnePass)
{
    // The split-prefix cache evolves a prefix once, copies the state
    // and applies each tail: occupancy must travel with the copy (a
    // copy that forgot the high blocks would skip them in the tail).
    const int n = 16;
    QuantumCircuit prefix(n, n);
    prefix.h(0);
    for (int q = 0; q + 1 < n; ++q)
        prefix.cx(q, q + 1);
    prefix.x(kB + 2);
    QuantumCircuit tail(n, n);
    tail.u3(0.3, 0.2, 0.1, kB + 1).rz(0.9, n - 1).cx(kB + 1, 2);
    tail.rzz(0.4, 1, kB + 3).u3(1.1, 0.4, 0.6, 5).cx(5, n - 2);
    QuantumCircuit whole(n, n);
    whole.compose(prefix).compose(tail);

    StateVector cached(n);
    cached.applyCircuit(prefix);
    StateVector split = cached;
    split.applyCircuit(tail);

    Register reg(n);
    replay(reg, lowered(prefix));
    replay(reg, lowered(tail));
    expectSameAmplitudes(split, reg, "prefix, then tail");
    expectNearReference(split, whole, "prefix, then tail");

    StateVector one_pass(n);
    one_pass.applyCircuit(whole);
    double worst = 0.0;
    for (BasisState b = 0; b < reg.re.size(); ++b)
        worst = std::max(worst,
                         std::abs(split.amplitude(b) - one_pass.amplitude(b)));
    EXPECT_LT(worst, 1e-12);
}

TEST(BlockedEvolution, TrajectoryGateByGateMatchesReplay)
{
    // Trajectory mode applies one gate at a time and Paulis between
    // them, reading the state after each public call.
    const int n = 16;
    const QuantumCircuit qc = workloads::WState(n).circuit();
    StateVector sv(n);
    Register reg(n);
    Rng rng(77);
    for (const circuit::Gate &g : qc.gates()) {
        if (g.isMeasure())
            continue;
        sv.applyGate(g);
        replay(reg, loweredGate(g));
        if (rng.bernoulli(0.3) && !g.qubits.empty()) {
            const int q = g.qubits[0];
            const int pauli = static_cast<int>(rng.uniformInt(1, 3));
            sv.applyPauli(pauli, q);
            static const circuit::GateType types[] = {
                circuit::GateType::X, circuit::GateType::Y,
                circuit::GateType::Z};
            replay(reg, loweredGate({types[pauli - 1], {q}, {}, -1}));
        }
    }
    expectSameAmplitudes(sv, reg, "gate by gate");
}

TEST(BlockedEvolution, TrajectoryModeOnAMultiBlockRegister)
{
    // Noiseless trajectories of GHZ over a 16-qubit line keep exactly
    // the two GHZ outcomes.
    const int n = 16;
    device::Calibration cal(n, n - 1);
    const DeviceModel dev("line", device::linearTopology(n), std::move(cal));
    QuantumCircuit qc(n, n);
    qc.h(0);
    for (int q = 0; q + 1 < n; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();
    NoisySimulator traj(dev, {.seed = 3, .trajectories = 4,
                              .gateNoise = false,
                              .measurementNoise = false});
    const Pmf pmf = traj.run(qc, 4000).toPmf();
    const BasisState ones = (BasisState{1} << n) - 1;
    EXPECT_EQ(pmf.probabilities().size(), 2u);
    EXPECT_GT(pmf.prob(0), 0.3);
    EXPECT_GT(pmf.prob(ones), 0.3);
}

TEST(BlockedEvolution, BitwiseAcrossPoolSizes)
{
    // Blocks and groups fix every kernel range, so one thread (inside
    // a parallelFor chunk, where nested parallelFor runs serially) and
    // the whole pool write the same bits.
    const std::vector<QuantumCircuit> programs = {
        randomU3Cx(16, 6, 9), workloads::WState(18).circuit(),
        workloads::Ghz(17).circuit()};
    for (const QuantumCircuit &qc : programs) {
        StateVector pooled(qc.nQubits());
        pooled.applyCircuit(qc);
        StateVector serial(qc.nQubits());
        parallelFor(0, 2, 1, [&](std::size_t lo, std::size_t) {
            if (lo == 0)
                serial.applyCircuit(qc);
        });
        const std::size_t bytes = pooled.reals().size() * sizeof(double);
        EXPECT_EQ(std::memcmp(pooled.reals().data(),
                              serial.reals().data(), bytes),
                  0);
        EXPECT_EQ(std::memcmp(pooled.imags().data(),
                              serial.imags().data(), bytes),
                  0);
    }
}

} // namespace
} // namespace sim
} // namespace jigsaw
