/**
 * @file
 * Noise-pipeline tests: circuit compaction, EPS accounting, the
 * measurement channel's statistics, the exact channel-mode output
 * distribution P' (against a brute-force transition matrix and the
 * per-shot channel), and the ideal/noisy executors (including
 * fast-channel vs trajectory-mode agreement).
 */
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "device/library.h"
#include "sim/compact.h"
#include "sim/eps.h"
#include "sim/noise_model.h"
#include "sim/simulators.h"

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

} // namespace
} // namespace sim
} // namespace jigsaw
