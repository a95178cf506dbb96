/**
 * @file
 * Golden-equivalence tests for the fast-path execution engine: the
 * strided/fused/parallel state-vector kernels and the indexed Bayesian
 * reconstruction must reproduce the naive reference implementations to
 * within 1e-12 Hellinger distance, the cached executor must be
 * deterministic under a fixed seed, and the supporting primitives
 * (structural hash, parallel-for) must behave.
 */
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <unordered_map>

#include <gtest/gtest.h>

#include "common/multinomial.h"
#include "common/parallel.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/bayesian.h"
#include "core/reference_bayesian.h"
#include "core/subsets.h"
#include "device/library.h"
#include "sim/reference_kernels.h"
#include "sim/simulators.h"
#include "sim/statevector.h"
#include "workloads/bv.h"
#include "workloads/ghz.h"
#include "workloads/ising.h"
#include "workloads/qaoa.h"
#include "workloads/qft.h"

namespace jigsaw {
namespace {

using circuit::QuantumCircuit;

std::vector<int>
allQubits(int n)
{
    std::vector<int> qs(static_cast<std::size_t>(n));
    for (int q = 0; q < n; ++q)
        qs[static_cast<std::size_t>(q)] = q;
    return qs;
}

/**
 * Assert two PMFs are identical up to floating-point noise. Hellinger
 * alone cannot certify this tighter than ~1e-8: for bit-identical
 * inputs the Bhattacharyya sum rounds to 1 +/- 1e-16 and the outer
 * sqrt amplifies that to sqrt(eps). So the Hellinger bound guards the
 * distribution shape and the total-variation bound (no sqrt
 * amplification) pins the per-outcome agreement.
 */
void
expectIdenticalPmf(const Pmf &reference, const Pmf &actual)
{
    EXPECT_LT(hellingerDistance(reference, actual), 1e-6);
    EXPECT_LT(totalVariationDistance(reference, actual), 1e-10);
}

/** Optimized-vs-reference PMF agreement over all qubits of @p qc. */
void
expectKernelEquivalence(const QuantumCircuit &qc)
{
    const std::vector<int> qubits = allQubits(qc.nQubits());
    const Pmf reference = sim::referenceMeasurementPmf(qc, qubits);

    sim::StateVector state(qc.nQubits());
    state.applyCircuit(qc);
    const Pmf optimized = state.measurementPmf(qubits);

    expectIdenticalPmf(reference, optimized);
    EXPECT_NEAR(state.norm(), 1.0, 1e-10);
}

QuantumCircuit
randomU3CxCircuit(int n_qubits, int depth, std::uint64_t seed)
{
    Rng rng(seed);
    QuantumCircuit qc(n_qubits, n_qubits);
    for (int layer = 0; layer < depth; ++layer) {
        for (int q = 0; q < n_qubits; ++q) {
            qc.u3(rng.uniform(0.0, M_PI), rng.uniform(0.0, 2 * M_PI),
                  rng.uniform(0.0, 2 * M_PI), q);
        }
        for (int q = layer % 2; q + 1 < n_qubits; q += 2)
            qc.cx(q, q + 1);
    }
    return qc;
}

// ------------------------------------------------- kernel equivalence

TEST(KernelEquivalence, SubsetMeasurementPmfMatchesTheReferenceFold)
{
    // The subset path folds a dense state into a 2^k scratch in basis
    // order and a sparse one (GHZ) by collecting its terms and sorting
    // once; the reference fold collects every term and sorts once.
    // Over the same amplitudes each key sums the same terms in the
    // same order, so the PMFs are equal bit for bit (and match the
    // reference kernels' own evolution up to floating-point noise).
    const std::vector<int> ghz_perm = {11, 0, 10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    const std::vector<
        std::pair<QuantumCircuit, std::vector<std::vector<int>>>>
        cases = {
            {randomU3CxCircuit(9, 6, 31),
             {{0, 1, 2}, {8, 3, 5}, {4}, {7, 0, 1, 2, 3, 4, 5, 6, 8}}},
            {workloads::Ghz(12).circuit(),
             {ghz_perm, {3, 1, 4, 0, 5, 9, 2, 6, 8, 7, 10}}},
        };
    for (const auto &[qc, subsets] : cases) {
        sim::StateVector state(qc.nQubits());
        state.applyCircuit(qc);
        const std::span<const double> re = state.reals();
        const std::span<const double> im = state.imags();
        for (const std::vector<int> &qubits : subsets) {
            Pmf::Entries terms;
            for (BasisState basis = 0; basis < re.size(); ++basis) {
                const double p =
                    re[basis] * re[basis] + im[basis] * im[basis];
                if (p > 0.0)
                    terms.emplace_back(extractBits(basis, qubits), p);
            }
            Pmf fold(static_cast<int>(qubits.size()), std::move(terms));
            fold.prune(1e-14);
            const Pmf optimized = state.measurementPmf(qubits);
            EXPECT_EQ(optimized.probabilities(), fold.probabilities());
            expectIdenticalPmf(sim::referenceMeasurementPmf(qc, qubits),
                               optimized);
        }
    }
}

TEST(KernelEquivalence, GhzUpTo12Qubits)
{
    for (int n = 2; n <= 12; n += 5)
        expectKernelEquivalence(workloads::Ghz(n).circuit());
}

TEST(KernelEquivalence, BernsteinVazirani)
{
    expectKernelEquivalence(workloads::BernsteinVazirani(10).circuit());
}

TEST(KernelEquivalence, QftAdjoint)
{
    expectKernelEquivalence(workloads::QftAdjoint(10).circuit());
}

TEST(KernelEquivalence, RandomU3CxCircuits)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed)
        expectKernelEquivalence(randomU3CxCircuit(12, 6, seed));
}

// ------------------------------------------- diagonal-run fusion golden

TEST(DiagonalFusion, IsingLayerShape)
{
    // Trotterized Ising layers: RX mixers between RZZ chains + RZ
    // fields — the exact shape the general diagonal-run fusion
    // targets (an RZZ chain shares no single common qubit, so the
    // CP/CZ run pass cannot take it).
    Rng rng(11);
    const int n = 10;
    QuantumCircuit qc(n, n);
    for (int layer = 0; layer < 3; ++layer) {
        for (int q = 0; q < n; ++q)
            qc.rx(rng.uniform(0.0, M_PI), q);
        for (int q = 0; q + 1 < n; ++q)
            qc.rzz(rng.uniform(0.0, 2 * M_PI), q, q + 1);
        for (int q = 0; q < n; ++q)
            qc.rz(rng.uniform(0.0, 2 * M_PI), q);
    }
    qc.measureAll();
    expectKernelEquivalence(qc);
}

TEST(DiagonalFusion, MixedDiagonalRun)
{
    // RZZ, CP, CZ, and 1q diagonals in one contiguous run, including
    // a repeated edge and a detached qubit pair: all commute, all
    // fold into one phase table.
    QuantumCircuit qc(8, 8);
    for (int q = 0; q < 8; ++q)
        qc.h(q);
    qc.rzz(0.8, 0, 1).cp(0.4, 1, 2).cz(2, 3).rzz(1.3, 0, 1);
    qc.rz(0.9, 1).t(2).s(3).rzz(0.5, 6, 7).cp(1.7, 5, 6).z(0);
    for (int q = 0; q < 8; ++q)
        qc.ry(0.3 + 0.1 * q, q);
    qc.rzz(2.1, 3, 4).rzz(0.2, 4, 5);
    qc.measureAll();
    expectKernelEquivalence(qc);
}

TEST(DiagonalFusion, ChainBeyondQubitCap)
{
    // A 14-qubit RZZ chain exceeds the 12-qubit fused-table cap, so
    // the run splits; the split is exact (diagonals commute).
    Rng rng(7);
    const int n = 14;
    QuantumCircuit qc(n, n);
    for (int q = 0; q < n; ++q)
        qc.h(q);
    for (int q = 0; q + 1 < n; ++q)
        qc.rzz(rng.uniform(0.0, 2 * M_PI), q, q + 1);
    for (int q = 0; q < n; ++q)
        qc.rz(rng.uniform(0.0, 2 * M_PI), q);
    qc.measureAll();
    expectKernelEquivalence(qc);
}

TEST(DiagonalFusion, IsingAndQaoaWorkloads)
{
    expectKernelEquivalence(workloads::IsingChain(9).circuit());
    expectKernelEquivalence(workloads::QaoaMaxCut(9, 2).circuit());
}

TEST(DiagonalFusion, BarriersDoNotBreakRuns)
{
    QuantumCircuit qc(6, 6);
    for (int q = 0; q < 6; ++q)
        qc.h(q);
    qc.rzz(0.7, 0, 1);
    qc.barrier();
    qc.rzz(1.1, 1, 2).cp(0.3, 2, 3);
    qc.barrier();
    qc.rzz(0.4, 3, 4).rz(1.9, 5);
    qc.measureAll();
    expectKernelEquivalence(qc);
}

TEST(KernelEquivalence, EveryGateTypeOnce)
{
    QuantumCircuit qc(4, 4);
    qc.h(0).x(1).y(2).z(3).s(0).sdg(1).t(2).tdg(3);
    qc.rx(0.3, 0).ry(0.7, 1).rz(1.1, 2).u3(0.5, 0.2, 0.9, 3);
    qc.cx(0, 1).cz(1, 2).cp(0.4, 2, 3).rzz(0.8, 0, 3).swap(1, 3);
    // A run of same-qubit 1q gates to exercise fusion, including a
    // diagonal-only run.
    qc.h(2).t(2).h(2).rz(0.25, 0).s(0).z(0);
    expectKernelEquivalence(qc);
}

TEST(KernelEquivalence, ControlledPhaseRunFusion)
{
    // Runs of CP/CZ gates sharing one qubit fuse into a single
    // phase-table pass; cover contiguous controls (the QFT shape),
    // scattered controls (the PEXT path), duplicate controls, low
    // targets, and runs split by the fusion cap.
    QuantumCircuit qc(10, 10);
    for (int q = 0; q < 10; ++q)
        qc.h(q);
    for (int c = 0; c < 9; ++c)
        qc.cp(0.1 * (c + 1), c, 9); // contiguous controls, target 9
    qc.cp(0.3, 1, 7).cz(3, 7).cp(0.7, 5, 7); // scattered controls
    qc.cp(0.2, 4, 2).cp(0.4, 8, 2).cz(6, 2); // mid target
    qc.cp(0.5, 7, 0).cz(3, 0).cp(0.9, 7, 0); // low target + duplicate
    for (int r = 0; r < 16; ++r) // longer than the fusion cap
        qc.cp(0.05 * (r + 1), r % 9, 9);
    qc.cz(0, 1).cz(0, 1); // two-gate run, both candidates survive
    expectKernelEquivalence(qc);
}

TEST(KernelEquivalence, SingleGateApplyMatchesCircuitApply)
{
    // applyGate (unfused) and applyCircuit (fused) must agree.
    const QuantumCircuit qc = randomU3CxCircuit(8, 4, 99);
    sim::StateVector fused(8);
    fused.applyCircuit(qc);
    sim::StateVector unfused(8);
    for (const circuit::Gate &g : qc.gates()) {
        if (!g.isMeasure())
            unfused.applyGate(g);
    }
    const std::vector<int> qs = allQubits(8);
    expectIdenticalPmf(unfused.measurementPmf(qs),
                       fused.measurementPmf(qs));
}

// ------------------------------------------- reconstruction equivalence

/** Random local PMFs, every key observed, over @p subsets. */
std::vector<core::Marginal>
randomMarginalsOn(const std::vector<core::Subset> &subsets, Rng &rng)
{
    std::vector<core::Marginal> marginals;
    for (const core::Subset &s : subsets) {
        const int size = static_cast<int>(s.size());
        Pmf local(size);
        for (BasisState v = 0; v < (1ULL << size); ++v)
            local.set(v, rng.uniform(0.05, 1.0));
        local.normalize();
        marginals.push_back({local, s});
    }
    return marginals;
}

/** Random local PMFs over the sliding windows of each size. */
std::vector<core::Marginal>
randomMarginals(int n_qubits, const std::vector<int> &sizes, Rng &rng)
{
    std::vector<core::Marginal> marginals;
    for (int size : sizes) {
        const std::vector<core::Marginal> layer = randomMarginalsOn(
            core::slidingWindowSubsets(n_qubits, size), rng);
        marginals.insert(marginals.end(), layer.begin(), layer.end());
    }
    return marginals;
}

Pmf
randomGlobal(int n_qubits, std::size_t support, Rng &rng)
{
    const BasisState mask = (1ULL << n_qubits) - 1;
    // Random keys arrive out of order: collect them (a repeated key
    // keeps its last value) and build the flat PMF once.
    std::unordered_map<BasisState, double> drawn;
    while (drawn.size() < support)
        drawn.insert_or_assign(static_cast<BasisState>(rng.word() & mask),
                               rng.uniform(0.01, 1.0));
    Pmf pmf(n_qubits, Pmf::Entries(drawn.begin(), drawn.end()));
    pmf.normalize();
    return pmf;
}

TEST(ReconstructionEquivalence, IndexedMatchesReference)
{
    Rng rng(11);
    const Pmf global = randomGlobal(10, 300, rng);
    const std::vector<core::Marginal> marginals =
        randomMarginals(10, {2}, rng);
    core::ReconstructionOptions options;
    options.maxRounds = 6;
    options.tolerance = 0.0; // fixed rounds on both paths

    const Pmf reference =
        core::referenceReconstruct(global, marginals, options);
    const Pmf indexed =
        core::bayesianReconstruct(global, marginals, options);
    expectIdenticalPmf(reference, indexed);
}

TEST(ReconstructionEquivalence, MultiLayerMatchesReference)
{
    Rng rng(12);
    const Pmf global = randomGlobal(12, 800, rng);
    const std::vector<core::Marginal> marginals =
        randomMarginals(12, {2, 3, 4, 5}, rng);
    core::ReconstructionOptions options;
    options.maxRounds = 4;
    options.tolerance = 0.0;

    const Pmf reference =
        core::referenceMultiLayerReconstruct(global, marginals, options);
    const Pmf indexed =
        core::multiLayerReconstruct(global, marginals, options);
    expectIdenticalPmf(reference, indexed);
}

/** Golden agreement: the same support, every outcome within 1e-12. */
void
expectGolden(const Pmf &reference, const Pmf &actual)
{
    ASSERT_EQ(reference.support(), actual.support());
    for (const auto &[outcome, p] : reference.probabilities())
        EXPECT_NEAR(p, actual.prob(outcome), 1e-12) << "outcome "
                                                    << outcome;
}

/** Bitwise agreement: the same support and identical probabilities. */
void
expectBitwise(const Pmf &a, const Pmf &b)
{
    ASSERT_EQ(a.support(), b.support());
    for (const auto &[outcome, p] : a.probabilities())
        EXPECT_EQ(p, b.prob(outcome)) << "outcome " << outcome;
}

/** Both reconstruction entry points against their references. */
void
expectGoldenVsReference(const Pmf &global,
                        const std::vector<core::Marginal> &marginals,
                        const core::ReconstructionOptions &options)
{
    expectGolden(core::referenceReconstruct(global, marginals, options),
                 core::bayesianReconstruct(global, marginals, options));
    expectGolden(
        core::referenceMultiLayerReconstruct(global, marginals, options),
        core::multiLayerReconstruct(global, marginals, options));
}

/**
 * multiLayerReconstruct on one thread whatever the pool size: it runs
 * inside a parallelFor chunk, where nested parallelFor calls are
 * serial.
 */
Pmf
reconstructOnOneThread(const Pmf &global,
                       const std::vector<core::Marginal> &marginals,
                       const core::ReconstructionOptions &options)
{
    Pmf out(global.nQubits());
    parallelFor(0, 2, 1, [&](std::size_t lo, std::size_t) {
        if (lo == 0)
            out = core::multiLayerReconstruct(global, marginals, options);
    });
    return out;
}

TEST(ReconstructionEquivalence, MultiShardSupportMatchesReference)
{
    // A support spanning several 16384-outcome shards.
    Rng rng(14);
    const Pmf global = randomGlobal(16, 40000, rng);
    const std::vector<core::Marginal> marginals =
        randomMarginals(16, {2}, rng);
    core::ReconstructionOptions options;
    options.maxRounds = 4;
    options.tolerance = 0.0;
    expectGoldenVsReference(global, marginals, options);
}

TEST(ReconstructionEquivalence, BitwiseAcrossPoolSizes)
{
    // Fixed shard boundaries and reduction order: one thread and the
    // whole pool produce the same bits, with convergence enabled so
    // the stopping round is compared too.
    Rng rng(15);
    const Pmf global = randomGlobal(16, 40000, rng);
    const std::vector<core::Marginal> marginals =
        randomMarginals(16, {2, 3}, rng);
    const core::ReconstructionOptions options;

    const Pmf pooled =
        core::multiLayerReconstruct(global, marginals, options);
    expectBitwise(pooled,
                  reconstructOnOneThread(global, marginals, options));
    expectBitwise(pooled,
                  core::multiLayerReconstruct(global, marginals, options));
}

TEST(ReconstructionEquivalence, GroupedRoundsMatchReference)
{
    // The 18-bit JigSaw-M plan (sliding windows of 2-5 bits) with 16
    // fixed rounds per layer, at supports on both sides of the grouping
    // threshold: 200, 2,000 and 20,000 outcomes pack overlapping
    // windows into joint tables of up to 3, 6 and 10 bits.
    core::ReconstructionOptions options;
    options.maxRounds = 16;
    options.tolerance = 0.0;
    Rng rng(20);
    for (const std::size_t support : {200, 2000, 20000}) {
        SCOPED_TRACE("support " + std::to_string(support));
        const Pmf global = randomGlobal(18, support, rng);
        const std::vector<core::Marginal> marginals =
            randomMarginals(18, {2, 3, 4, 5}, rng);
        expectGolden(
            core::referenceMultiLayerReconstruct(global, marginals, options),
            core::multiLayerReconstruct(global, marginals, options));
    }
    const Pmf global = randomGlobal(18, 2000, rng);
    {
        SCOPED_TRACE("scattered subsets");
        // Random 4- and 5-bit subsets rarely fit a 6-bit union, so
        // nearly every group holds one marginal.
        std::vector<core::Marginal> marginals =
            randomMarginalsOn(core::randomSubsets(18, 5, 10, rng), rng);
        const std::vector<core::Marginal> fours =
            randomMarginalsOn(core::randomSubsets(18, 4, 10, rng), rng);
        marginals.insert(marginals.end(), fours.begin(), fours.end());
        expectGolden(
            core::referenceMultiLayerReconstruct(global, marginals, options),
            core::multiLayerReconstruct(global, marginals, options));
    }
    {
        SCOPED_TRACE("one reversed-order subset");
        // Window {5,6,7} listed as {7,6,5} inside a joint group: its
        // local key still reads bit j from qubits[j].
        std::vector<core::Marginal> marginals =
            randomMarginals(18, {2, 3}, rng);
        core::Subset &reversed = marginals[18 + 5].qubits;
        ASSERT_EQ(reversed, (core::Subset{5, 6, 7}));
        std::reverse(reversed.begin(), reversed.end());
        expectGolden(
            core::referenceMultiLayerReconstruct(global, marginals, options),
            core::multiLayerReconstruct(global, marginals, options));
    }
}

TEST(ReconstructionEquivalence, GroupedRoundsBitwiseAcrossPoolSizes)
{
    // Full 12-bit joint tables over two shards (a shard holds at least
    // four outcomes per partial-mass slot: 4 x 8 lanes x 4096 slots),
    // with convergence enabled so the stopping round is compared too.
    Rng rng(21);
    const Pmf global = randomGlobal(18, 140000, rng);
    const std::vector<core::Marginal> marginals =
        randomMarginals(18, {2, 3, 4, 5}, rng);
    const core::ReconstructionOptions options;

    const Pmf pooled =
        core::multiLayerReconstruct(global, marginals, options);
    expectBitwise(pooled,
                  reconstructOnOneThread(global, marginals, options));
    expectBitwise(pooled,
                  core::multiLayerReconstruct(global, marginals, options));
}

TEST(ReconstructionEquivalence, DegenerateInputsMatchReference)
{
    Rng rng(18);
    const Pmf global = randomGlobal(8, 90, rng);
    std::vector<core::Marginal> marginals =
        randomMarginals(8, {2, 3}, rng);
    core::ReconstructionOptions options;
    options.maxRounds = 3;
    options.tolerance = 0.0;

    {
        SCOPED_TRACE("every bucket below the evidence threshold");
        core::ReconstructionOptions no_evidence = options;
        no_evidence.evidenceThreshold = 1.0;
        expectGoldenVsReference(global, marginals, no_evidence);
    }
    {
        SCOPED_TRACE("local keys with no global outcome");
        // Every global outcome has bits 6 and 7 clear, so the local
        // mass on keys with either set meets no global outcome.
        Pmf low(8);
        for (const auto &[outcome, p] : global.probabilities())
            low.set(outcome & 0x3f, p);
        low.normalize();
        Pmf local(2);
        local.set(0b00, 0.1);
        local.set(0b01, 0.2);
        local.set(0b10, 0.3);
        local.set(0b11, 0.4);
        std::vector<core::Marginal> with_high = marginals;
        with_high.push_back({local, {6, 7}});
        with_high.push_back({local, {5, 6}});
        expectGoldenVsReference(low, with_high, options);
    }
    {
        SCOPED_TRACE("single-outcome support");
        Pmf single(8);
        single.set(0b10110101, 1.0);
        expectGoldenVsReference(single, marginals, options);
    }
    for (const int rounds : {0, 1}) {
        SCOPED_TRACE("maxRounds " + std::to_string(rounds));
        core::ReconstructionOptions capped = options;
        capped.maxRounds = rounds;
        expectGoldenVsReference(global, marginals, capped);
    }
    {
        SCOPED_TRACE("repeated subset bits");
        // A subset naming one qubit twice only ever sees keys 00 and 11.
        Pmf local(2);
        local.set(0b00, 0.3);
        local.set(0b01, 0.1);
        local.set(0b10, 0.2);
        local.set(0b11, 0.4);
        std::vector<core::Marginal> repeated = marginals;
        repeated.push_back({local, {0, 0}});
        repeated.push_back({local, {5, 5}});
        expectGoldenVsReference(global, repeated, options);
    }
    {
        SCOPED_TRACE("unsorted and wide subsets");
        // Subset bits in descending order, and a 13-bit subset past the
        // dense-key limit, whose buckets are the keys present.
        Rng wide_rng(19);
        const Pmf wide = randomGlobal(14, 300, wide_rng);
        Pmf local13(13);
        for (BasisState v = 0; v < (1ULL << 13); v += 3)
            local13.set(v, wide_rng.uniform(0.05, 1.0));
        local13.normalize();
        std::vector<core::Marginal> odd = randomMarginals(14, {2}, wide_rng);
        core::Subset wide_subset;
        for (int q = 13; q >= 1; --q)
            wide_subset.push_back(q);
        odd.push_back({local13, wide_subset});
        std::reverse(odd.front().qubits.begin(), odd.front().qubits.end());
        expectGoldenVsReference(wide, odd, options);
    }
}

TEST(ReconstructionEquivalence, LargeSupportManyShards)
{
    // The >1M-outcome regime: dozens of shards, with the fused round
    // loop doing essentially all the work. Golden against the
    // reference and bitwise across pool sizes. Too slow
    // for the default test run, so it is opt-in.
    if (std::getenv("JIGSAW_LARGE_TESTS") == nullptr)
        GTEST_SKIP() << "set JIGSAW_LARGE_TESTS=1 to run (>1M outcomes)";
    Rng rng(16);
    const Pmf global = randomGlobal(21, (1ULL << 20) + 1, rng);
    // Every third window: seven marginals covering all 21 bits keep
    // the hash-map reference affordable.
    std::vector<core::Marginal> marginals;
    const std::vector<core::Marginal> windows =
        randomMarginals(21, {3}, rng);
    for (std::size_t w = 0; w < windows.size(); w += 3)
        marginals.push_back(windows[w]);
    core::ReconstructionOptions options;
    options.maxRounds = 3;
    options.tolerance = 0.0;

    const Pmf active =
        core::multiLayerReconstruct(global, marginals, options);
    expectGolden(core::referenceMultiLayerReconstruct(global, marginals,
                                                      options),
                 active);
    expectBitwise(active,
                  reconstructOnOneThread(global, marginals, options));
}

TEST(ReconstructionEquivalence, SparseLocalPmfKeepsPriorMass)
{
    // A marginal that never observed subset value 0b11 must leave the
    // matching global outcomes at their prior probability.
    Pmf global(2);
    global.set(0b00, 0.4);
    global.set(0b01, 0.3);
    global.set(0b11, 0.3);
    Pmf local(2);
    local.set(0b00, 0.7);
    local.set(0b01, 0.3);
    const core::Marginal m{local, {0, 1}};

    const Pmf posterior = core::bayesianUpdate(global, m);
    EXPECT_GT(posterior.prob(0b11), 0.0);
    // Below-threshold evidence is treated exactly like absent evidence.
    Pmf local2 = local;
    local2.set(0b11, 1e-15);
    const Pmf posterior2 =
        core::bayesianUpdate(global, {local2, {0, 1}});
    EXPECT_NEAR(posterior.prob(0b11), posterior2.prob(0b11), 1e-12);
}

// ------------------------------------------------- executor determinism

TEST(CachedExecutor, SamplingIsReproducibleAcrossCacheHits)
{
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();

    sim::IdealSimulator a(42);
    const Histogram a1 = a.run(qc, 2000); // miss
    const Histogram a2 = a.run(qc, 2000); // hit
    EXPECT_EQ(a.cacheMisses(), 1u);
    EXPECT_EQ(a.cacheHits(), 1u);

    // A fresh simulator with the same seed must reproduce both draws:
    // cache hits may not perturb the RNG stream.
    sim::IdealSimulator b(42);
    const Histogram b1 = b.run(qc, 2000);
    const Histogram b2 = b.run(qc, 2000);
    for (const auto &[outcome, count] : a1.counts())
        EXPECT_EQ(count, b1.count(outcome));
    for (const auto &[outcome, count] : a2.counts())
        EXPECT_EQ(count, b2.count(outcome));
}

TEST(CachedExecutor, NoisyCacheReusesEvolution)
{
    const device::DeviceModel dev = device::toronto();
    QuantumCircuit qc(dev.nQubits(), 2);
    qc.h(0).x(1).measure(0, 0).measure(1, 1);
    sim::NoisySimulator noisy(dev, {.seed = 5});
    noisy.run(qc, 1000);
    noisy.run(qc, 1000);
    noisy.run(qc, 1000);
    EXPECT_EQ(noisy.cacheMisses(), 1u);
    EXPECT_EQ(noisy.cacheHits(), 2u);
}

TEST(StructuralHash, DistinguishesCircuits)
{
    QuantumCircuit a(2, 2);
    a.h(0).cx(0, 1).measureAll();
    QuantumCircuit b(2, 2);
    b.h(0).cx(0, 1).measureAll();
    EXPECT_EQ(a.structuralHash(), b.structuralHash());

    QuantumCircuit c(2, 2);
    c.h(1).cx(0, 1).measureAll(); // different qubit
    EXPECT_NE(a.structuralHash(), c.structuralHash());

    QuantumCircuit d(2, 2);
    d.rz(0.5, 0).cx(0, 1).measureAll(); // different type/params
    QuantumCircuit e(2, 2);
    e.rz(0.5000001, 0).cx(0, 1).measureAll();
    EXPECT_NE(d.structuralHash(), e.structuralHash());

    // Barriers have no execution effect and must not perturb the key:
    // withMeasurementSubset inserts one, routed circuits may not, and
    // the run()/runBatch cache paths must still agree.
    QuantumCircuit f(2, 2);
    f.h(0).barrier().cx(0, 1).measureAll();
    EXPECT_EQ(a.structuralHash(), f.structuralHash());
}

TEST(StructuralHash, MeasurementSubsetHashMatchesConstructedCircuit)
{
    // The copy-free batch cache key must equal the hash of the
    // actually constructed CPM, whatever the base's measurements.
    QuantumCircuit qc(5, 5);
    qc.h(0).cx(0, 1).rz(0.4, 2).barrier().cp(0.2, 2, 3).measureAll();
    QuantumCircuit unmeasured(5, 5);
    unmeasured.h(0).cx(0, 1).rz(0.4, 2).barrier().cp(0.2, 2, 3);
    for (const std::vector<int> &subset :
         {std::vector<int>{0, 1}, {3, 2}, {4}, {0, 2, 4}}) {
        EXPECT_EQ(qc.measurementSubsetHash(subset),
                  qc.withMeasurementSubset(subset).structuralHash());
        EXPECT_EQ(unmeasured.measurementSubsetHash(subset),
                  unmeasured.withMeasurementSubset(subset)
                      .structuralHash());
    }
}

// ------------------------------------------------- batched CPM execution

/** Sliding-window subsets of sizes 2 and 3 over @p n qubits. */
std::vector<std::vector<int>>
cpmSubsets(int n)
{
    std::vector<std::vector<int>> subsets;
    for (int size : {2, 3}) {
        for (const core::Subset &s : core::slidingWindowSubsets(n, size))
            subsets.push_back(s);
    }
    return subsets;
}

/**
 * Specs bound to @p logical, one per subset: the logical program
 * measures qubit q into clbit q and runs unrouted, so each subset
 * names both the spec's physical qubits and its logical clbits.
 */
std::vector<sim::CpmSpec>
boundSpecs(const std::shared_ptr<const sim::LogicalProgram> &logical,
           const std::vector<std::vector<int>> &subsets, std::uint64_t shots)
{
    std::vector<sim::CpmSpec> specs;
    for (const std::vector<int> &s : subsets)
        specs.push_back({s, shots, nullptr, logical, s});
    return specs;
}

TEST(BatchedExecution, MarginalsMatchPerCpmAndReference)
{
    // Every CPM marginal folded off the one logical evolution must
    // match both the per-circuit cached executor PMF and the naive
    // reference evolution, within the golden-equivalence bounds.
    QuantumCircuit random = randomU3CxCircuit(8, 4, 21);
    random.measureAll();
    const std::vector<QuantumCircuit> workloads = {
        workloads::Ghz(8).circuit(),
        workloads::BernsteinVazirani(8).circuit(),
        workloads::QftAdjoint(7).circuit(),
        random,
    };
    const std::uint64_t shots = 256;
    for (const QuantumCircuit &qc : workloads) {
        const std::vector<std::vector<int>> subsets =
            cpmSubsets(qc.nClbits());
        const auto logical = std::make_shared<const sim::LogicalProgram>(qc);
        std::vector<sim::CpmSpec> specs = boundSpecs(logical, subsets, shots);
        std::vector<Rng> streams;
        for (std::size_t i = 0; i < specs.size(); ++i)
            streams.emplace_back(100 + i);
        for (std::size_t i = 0; i < specs.size(); ++i)
            specs[i].rng = &streams[i];

        sim::IdealSimulator batched(5);
        const std::vector<Histogram> hists = batched.runBatch(qc, specs);
        ASSERT_EQ(hists.size(), subsets.size());
        EXPECT_EQ(batched.batchStats().baseEvolutions, 1u);
        EXPECT_EQ(batched.batchStats().marginalsServed, subsets.size());

        // The exact marginals: the same evolution of the program, folded.
        const Pmf full = batched.idealPmf(qc);
        sim::IdealSimulator per_cpm(5);
        for (std::size_t i = 0; i < subsets.size(); ++i) {
            const Pmf marginal = full.marginal(subsets[i]);
            const Pmf cached = per_cpm.idealPmf(
                qc.withMeasurementSubset(subsets[i]));
            expectIdenticalPmf(cached, marginal);
            const Pmf reference =
                sim::referenceMeasurementPmf(qc, subsets[i]);
            expectIdenticalPmf(reference, marginal);
            // The batch drew from exactly this fold.
            Rng replay(100 + i);
            const Histogram expected =
                MultinomialSampler(marginal).draw(shots, replay);
            for (const auto &[outcome, count] : expected.counts())
                EXPECT_EQ(count, hists[i].count(outcome));
        }
        // Per-CPM execution paid one evolution per subset; the batch
        // paid exactly one in total.
        EXPECT_EQ(per_cpm.cacheMisses(), subsets.size());
        EXPECT_EQ(batched.batchStats().evolutionsSaved(),
                  subsets.size() - 1);
    }
}

TEST(BatchedExecution, RunBatchPopulatesTheRunCache)
{
    // After a batch, per-CPM run() of the same circuits must be all
    // cache hits: the two paths share one keying scheme.
    const QuantumCircuit qc = workloads::Ghz(8).circuit();
    const std::vector<std::vector<int>> subsets = cpmSubsets(8);
    std::vector<sim::CpmSpec> specs;
    for (const std::vector<int> &s : subsets)
        specs.push_back({s, 128});

    sim::IdealSimulator ideal(9);
    const std::vector<Histogram> hists = ideal.runBatch(qc, specs);
    ASSERT_EQ(hists.size(), specs.size());
    for (std::size_t i = 0; i < hists.size(); ++i) {
        EXPECT_EQ(hists[i].totalCount(), specs[i].shots);
        EXPECT_EQ(hists[i].nQubits(),
                  static_cast<int>(subsets[i].size()));
    }
    // The batch built one PMF entry per spec...
    EXPECT_EQ(ideal.cacheMisses(), subsets.size());
    EXPECT_EQ(ideal.cacheHits(), 0u);

    // ...which run() of each CPM circuit then finds.
    for (const std::vector<int> &s : subsets)
        ideal.run(qc.withMeasurementSubset(s), 64);
    EXPECT_EQ(ideal.cacheMisses(), subsets.size());
    EXPECT_EQ(ideal.cacheHits(), subsets.size());

    // A second identical batch reuses every PMF.
    ideal.runBatch(qc, specs);
    EXPECT_EQ(ideal.cacheMisses(), subsets.size());
    EXPECT_EQ(ideal.cacheHits(), 2 * subsets.size());
}

TEST(BatchedExecution, CountersAndSamplesAreDeterministic)
{
    const QuantumCircuit qc = workloads::Ghz(6).circuit();
    const std::vector<std::vector<int>> subsets = cpmSubsets(6);
    std::vector<sim::CpmSpec> specs;
    for (const std::vector<int> &s : subsets)
        specs.push_back({s, 500});

    sim::IdealSimulator a(123), b(123);
    const std::vector<Histogram> ha = a.runBatch(qc, specs);
    const std::vector<Histogram> hb = b.runBatch(qc, specs);
    EXPECT_EQ(a.cacheHits(), b.cacheHits());
    EXPECT_EQ(a.cacheMisses(), b.cacheMisses());
    EXPECT_EQ(a.batchStats().baseEvolutions,
              b.batchStats().baseEvolutions);
    EXPECT_EQ(a.batchStats().baseStateHits,
              b.batchStats().baseStateHits);
    EXPECT_EQ(a.batchStats().marginalsServed,
              b.batchStats().marginalsServed);
    for (std::size_t i = 0; i < ha.size(); ++i) {
        for (const auto &[outcome, count] : ha[i].counts())
            EXPECT_EQ(count, hb[i].count(outcome));
    }
}

TEST(BatchedExecution, NoisyBatchSharesEvolutionAndKeying)
{
    const device::DeviceModel dev = device::toronto();
    QuantumCircuit program(4, 4);
    program.h(0).cx(0, 1).cx(1, 2).x(3).measureAll();
    const auto logical = std::make_shared<const sim::LogicalProgram>(program);
    QuantumCircuit base(dev.nQubits(), 2);
    base.h(0).cx(0, 1).cx(1, 2).x(3);
    const std::vector<sim::CpmSpec> specs =
        boundSpecs(logical, {{0, 1}, {1, 2}, {2, 3}, {0, 3}}, 400);

    sim::NoisySimulator a(dev, {.seed = 77});
    const std::vector<Histogram> ha = a.runBatch(base, specs);
    EXPECT_EQ(a.batchStats().baseEvolutions, 1u);
    EXPECT_EQ(a.batchStats().marginalsServed, specs.size());
    EXPECT_EQ(a.cacheMisses(), specs.size()); // one P' per spec

    // Single-spec run() of the same specs: every P' is already there.
    for (const sim::CpmSpec &spec : specs)
        a.run(base, spec);
    EXPECT_EQ(a.cacheMisses(), specs.size());
    EXPECT_EQ(a.cacheHits(), specs.size());
    EXPECT_EQ(a.batchStats().baseEvolutions, 1u);

    // Same seed, same batch: identical histograms.
    sim::NoisySimulator b(dev, {.seed = 77});
    const std::vector<Histogram> hb = b.runBatch(base, specs);
    for (std::size_t i = 0; i < ha.size(); ++i) {
        EXPECT_EQ(ha[i].totalCount(), hb[i].totalCount());
        for (const auto &[outcome, count] : ha[i].counts())
            EXPECT_EQ(count, hb[i].count(outcome));
    }
}

TEST(BatchedExecution, GateUntouchedQubitsReadZero)
{
    // A measured qubit no gate ever touches stays |0>: its folded bit
    // must be deterministically zero, matching per-CPM execution.
    QuantumCircuit qc(4, 4);
    qc.h(0).cx(0, 1); // qubits 2 and 3 untouched
    qc.measureAll();
    const auto logical = std::make_shared<const sim::LogicalProgram>(qc);
    const std::vector<std::vector<int>> subsets = {{0, 2}, {3, 1}, {2, 3}};
    sim::IdealSimulator batched(2);
    const std::vector<Histogram> hists =
        batched.runBatch(qc, boundSpecs(logical, subsets, 500));
    EXPECT_EQ(batched.batchStats().baseEvolutions, 1u);

    const Pmf full = batched.idealPmf(qc);
    sim::IdealSimulator per_cpm(2);
    for (std::size_t i = 0; i < 2; ++i) {
        const Pmf expected =
            per_cpm.idealPmf(qc.withMeasurementSubset(subsets[i]));
        expectIdenticalPmf(expected, full.marginal(subsets[i]));
        // The batch drew in the spec's bit order.
        for (const auto &[outcome, count] : hists[i].counts())
            EXPECT_GT(expected.prob(outcome), 0.0) << outcome;
    }
    const Pmf untouched = full.marginal(subsets[2]);
    for (const auto &[outcome, p] : untouched.probabilities()) {
        EXPECT_EQ(outcome, 0u);
        EXPECT_NEAR(p, 1.0, 1e-12);
    }
    EXPECT_EQ(hists[2].count(0), 500u);
}

// --------------------------------------------------------- SIMD kernels

/** Fill @p re / @p im with a reproducible random state. */
void
randomAmps(std::vector<double> &re, std::vector<double> &im,
           std::size_t dim, std::uint64_t seed)
{
    Rng rng(seed);
    re.resize(dim);
    im.resize(dim);
    for (std::size_t i = 0; i < dim; ++i) {
        re[i] = rng.uniform(-1.0, 1.0);
        im[i] = rng.uniform(-1.0, 1.0);
    }
}

void
expectSameAmps(const std::vector<double> &a, const std::vector<double> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12) << "index " << i;
}

/**
 * Agreement of @p active against the scalar golden table on uneven
 * ranges that exercise the unaligned heads and tails of every stride
 * addressing mode of every kernel.
 */
void
expectMatchesScalar(const simd::KernelTable &active)
{
    const simd::KernelTable &scalar = simd::scalarKernels();
    const std::size_t dim = 1ULL << 10;
    const std::size_t pairs = dim / 2;
    const std::size_t quads = dim / 4;
    const simd::Mat2Split m = {{0.6, -0.8, 0.8, 0.6},
                               {0.1, 0.2, -0.3, 0.4}};

    for (std::uint64_t stride : {1ULL, 2ULL, 4ULL, 8ULL, 64ULL}) {
        std::vector<double> re_a, im_a, re_s, im_s;
        randomAmps(re_a, im_a, dim, 100 + stride);
        re_s = re_a;
        im_s = im_a;
        active.apply1q(re_a.data(), im_a.data(), stride, 3, pairs - 5, m);
        scalar.apply1q(re_s.data(), im_s.data(), stride, 3, pairs - 5, m);
        expectSameAmps(re_s, re_a);
        expectSameAmps(im_s, im_a);

        for (bool d0_is_one : {false, true}) {
            randomAmps(re_a, im_a, dim, 200 + stride);
            re_s = re_a;
            im_s = im_a;
            active.apply1qDiag(re_a.data(), im_a.data(), stride, 1,
                               pairs - 3, 0.6, 0.8, 0.28, -0.96,
                               d0_is_one);
            scalar.apply1qDiag(re_s.data(), im_s.data(), stride, 1,
                               pairs - 3, 0.6, 0.8, 0.28, -0.96,
                               d0_is_one);
            expectSameAmps(re_s, re_a);
            expectSameAmps(im_s, im_a);
        }
    }

    const std::vector<std::pair<int, int>> qubit_pairs = {
        {0, 1}, {1, 4}, {2, 5}, {5, 8}};
    for (const auto &[qa, qb] : qubit_pairs) {
        const std::uint64_t ma = 1ULL << qa;
        const std::uint64_t mb = 1ULL << qb;
        std::vector<double> re_a, im_a, re_s, im_s;
        randomAmps(re_a, im_a, dim, 300 + static_cast<unsigned>(qa));
        re_s = re_a;
        im_s = im_a;
        active.quadPhase(re_a.data(), im_a.data(), ma, mb, ma | mb, 2,
                         quads - 3, 0.28, 0.96);
        scalar.quadPhase(re_s.data(), im_s.data(), ma, mb, ma | mb, 2,
                         quads - 3, 0.28, 0.96);
        expectSameAmps(re_s, re_a);
        expectSameAmps(im_s, im_a);

        randomAmps(re_a, im_a, dim, 400 + static_cast<unsigned>(qb));
        re_s = re_a;
        im_s = im_a;
        active.quadSwap(re_a.data(), im_a.data(), ma, mb, ma, mb, 1,
                        quads - 2);
        scalar.quadSwap(re_s.data(), im_s.data(), ma, mb, ma, mb, 1,
                        quads - 2);
        expectSameAmps(re_s, re_a);
        expectSameAmps(im_s, im_a);

        randomAmps(re_a, im_a, dim, 500 + static_cast<unsigned>(qa));
        re_s = re_a;
        im_s = im_a;
        active.phasePair(re_a.data(), im_a.data(), qa, qb, 3, dim - 7,
                         0.96, 0.28, 0.6, -0.8);
        scalar.phasePair(re_s.data(), im_s.data(), qa, qb, 3, dim - 7,
                         0.96, 0.28, 0.6, -0.8);
        expectSameAmps(re_s, re_a);
        expectSameAmps(im_s, im_a);
    }

    // stratumPhaseTable: contiguous-control fast path and the general
    // bit-gather path, on uneven ranges.
    struct PhaseTableCase
    {
        std::uint64_t qMask;
        std::uint64_t controlMask;
    };
    const std::vector<PhaseTableCase> table_cases = {
        {1ULL << 9, (1ULL << 4) - 1}, // contiguous low controls
        {1ULL << 2, 3ULL},            // low target, contiguous
        {1ULL << 6, (1ULL << 1) | (1ULL << 4) | (1ULL << 8)}, // gather
    };
    for (const PhaseTableCase &c : table_cases) {
        const std::size_t tsize =
            1ULL << static_cast<unsigned>(popcount(c.controlMask));
        std::vector<double> tab_re(tsize), tab_im(tsize);
        Rng trng(42);
        for (std::size_t t = 0; t < tsize; ++t) {
            const double ang = trng.uniform(0.0, 2 * M_PI);
            tab_re[t] = std::cos(ang);
            tab_im[t] = std::sin(ang);
        }
        std::vector<double> re_a, im_a, re_s, im_s;
        randomAmps(re_a, im_a, dim, 700 + c.qMask);
        re_s = re_a;
        im_s = im_a;
        active.stratumPhaseTable(re_a.data(), im_a.data(), c.qMask,
                                 c.controlMask, tab_re.data(),
                                 tab_im.data(), 3, pairs - 5);
        scalar.stratumPhaseTable(re_s.data(), im_s.data(), c.qMask,
                                 c.controlMask, tab_re.data(),
                                 tab_im.data(), 3, pairs - 5);
        expectSameAmps(re_s, re_a);
        expectSameAmps(im_s, im_a);
    }

    // phaseTable: contiguous low mask (element-wise table slices), a
    // scattered mask whose low bit allows broadcast runs, and a mask
    // touching bit 0 (general bit-gather path).
    for (const std::uint64_t mask :
         {(1ULL << 4) - 1, (1ULL << 4) | (1ULL << 7),
          1ULL | (1ULL << 3) | (1ULL << 6)}) {
        const std::size_t tsize =
            1ULL << static_cast<unsigned>(popcount(mask));
        std::vector<double> tab_re(tsize), tab_im(tsize);
        Rng trng(43 + mask);
        for (std::size_t t = 0; t < tsize; ++t) {
            const double ang = trng.uniform(0.0, 2 * M_PI);
            tab_re[t] = std::cos(ang);
            tab_im[t] = std::sin(ang);
        }
        std::vector<double> re_a, im_a, re_s, im_s;
        randomAmps(re_a, im_a, dim, 800 + mask);
        re_s = re_a;
        im_s = im_a;
        active.phaseTable(re_a.data(), im_a.data(), mask, tab_re.data(),
                          tab_im.data(), 3, dim - 5);
        scalar.phaseTable(re_s.data(), im_s.data(), mask, tab_re.data(),
                          tab_im.data(), 3, dim - 5);
        expectSameAmps(re_s, re_a);
        expectSameAmps(im_s, im_a);
    }

    std::vector<double> re, im;
    randomAmps(re, im, dim, 600);
    EXPECT_NEAR(active.norm2(re.data(), im.data(), 5, dim - 9),
                scalar.norm2(re.data(), im.data(), 5, dim - 9), 1e-9);

    // stochasticPair: bit flips at strides 1, 2, 4 (in-register
    // partners), 8 and above, and pair masks whose low bit is below,
    // at or above the lane width, over whole, uneven, sub-lane and
    // mid-register ranges. P' relies on the tables agreeing bit for
    // bit, so the check is memcmp.
    const simd::Mat2Real stochastic = {{0.87, 0.06, 0.13, 0.94}};
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> ranges = {
        {0, dim}, {3, dim - 5}, {5, 13}, {dim / 2 + 1, dim / 2 + 37}};
    for (const std::uint64_t mask :
         {1ULL, 2ULL, 4ULL, 8ULL, 16ULL, 64ULL, 512ULL, 1ULL | 2ULL,
          2ULL | 4ULL, 1ULL | 8ULL, 4ULL | 256ULL, 8ULL | 16ULL,
          8ULL | 512ULL, 64ULL | 128ULL}) {
        for (const auto &[lo, hi] : ranges) {
            std::vector<double> v_a, unused;
            randomAmps(v_a, unused, dim, 1000 + mask + lo);
            std::vector<double> v_s = v_a;
            active.stochasticPair(v_a.data(), mask, lo, hi, stochastic);
            scalar.stochasticPair(v_s.data(), mask, lo, hi, stochastic);
            EXPECT_EQ(std::memcmp(v_a.data(), v_s.data(),
                                  dim * sizeof(double)),
                      0)
                << active.name << " mask " << mask << " [" << lo << ", "
                << hi << ")";
        }
    }
}

/**
 * Randomized scattered-mask sweeps of the gather phase tables: random
 * masks (usually non-contiguous, often touching bit 0 so the
 * broadcast-run fast paths cannot take over) and ranges that straddle
 * lane boundaries, leave short unaligned heads and tails, or fit
 * entirely inside one lane; the stratum variant additionally cycles
 * its target bit across both sides of every lane-width boundary.
 */
void
expectScatteredTablesMatchScalar(const simd::KernelTable &active)
{
    const simd::KernelTable &scalar = simd::scalarKernels();
    const std::size_t dim = 1ULL << 12;
    const std::size_t pairs = dim / 2;
    Rng rng(2025);
    for (int trial = 0; trial < 48; ++trial) {
        std::uint64_t mask = 0;
        const int want = 2 + static_cast<int>(rng.word() % 6);
        while (popcount(mask) < want)
            mask |= 1ULL << (rng.word() % 12);

        const std::size_t tsize =
            1ULL << static_cast<unsigned>(popcount(mask));
        std::vector<double> tab_re(tsize), tab_im(tsize);
        for (std::size_t t = 0; t < tsize; ++t) {
            const double ang = rng.uniform(0.0, 2 * M_PI);
            tab_re[t] = std::cos(ang);
            tab_im[t] = std::sin(ang);
        }

        // Every fourth trial runs a sub-lane range (all head/tail);
        // the rest straddle lane boundaries at both ends.
        std::uint64_t lo = rng.word() % 16;
        std::uint64_t hi = dim - rng.word() % 16;
        if (trial % 4 == 0) {
            lo = rng.word() % (dim - 8);
            hi = lo + 1 + rng.word() % 7;
        }

        std::vector<double> re_a, im_a, re_s, im_s;
        randomAmps(re_a, im_a, dim,
                   9000 + static_cast<std::uint64_t>(trial));
        re_s = re_a;
        im_s = im_a;
        active.phaseTable(re_a.data(), im_a.data(), mask, tab_re.data(),
                          tab_im.data(), lo, hi);
        scalar.phaseTable(re_s.data(), im_s.data(), mask, tab_re.data(),
                          tab_im.data(), lo, hi);
        expectSameAmps(re_s, re_a);
        expectSameAmps(im_s, im_a);

        // Stratum variant: a target bit outside the control mask.
        int q = static_cast<int>(rng.word() % 12);
        while ((mask >> q) & 1)
            q = (q + 1) % 12;
        const std::uint64_t q_mask = 1ULL << q;
        std::uint64_t klo = rng.word() % 8;
        std::uint64_t khi = pairs - rng.word() % 8;
        if (trial % 4 == 2) {
            klo = rng.word() % (pairs - 4);
            khi = klo + 1 + rng.word() % 3;
        }
        randomAmps(re_a, im_a, dim,
                   9500 + static_cast<std::uint64_t>(trial));
        re_s = re_a;
        im_s = im_a;
        active.stratumPhaseTable(re_a.data(), im_a.data(), q_mask, mask,
                                 tab_re.data(), tab_im.data(), klo, khi);
        scalar.stratumPhaseTable(re_s.data(), im_s.data(), q_mask, mask,
                                 tab_re.data(), tab_im.data(), klo, khi);
        expectSameAmps(re_s, re_a);
        expectSameAmps(im_s, im_a);
    }
}

TEST(SimdKernels, ActiveMatchesScalarOnEveryKernel)
{
    expectMatchesScalar(simd::activeKernels());
    expectScatteredTablesMatchScalar(simd::activeKernels());
}

TEST(SimdKernels, Avx2MatchesScalar)
{
    if (simd::avx2Kernels() == nullptr)
        GTEST_SKIP() << "AVX2 kernels not compiled in";
#if defined(__GNUC__) || defined(__clang__)
    if (!__builtin_cpu_supports("avx2") ||
        !__builtin_cpu_supports("bmi2")) {
        GTEST_SKIP() << "CPU lacks AVX2/BMI2";
    }
#endif
    expectMatchesScalar(*simd::avx2Kernels());
    expectScatteredTablesMatchScalar(*simd::avx2Kernels());
}

TEST(SimdKernels, Avx512MatchesScalar)
{
    if (simd::avx512Kernels() == nullptr)
        GTEST_SKIP() << "AVX-512 kernels not compiled in";
#if defined(__GNUC__) || defined(__clang__)
    if (!__builtin_cpu_supports("avx512f") ||
        !__builtin_cpu_supports("avx512dq") ||
        !__builtin_cpu_supports("bmi2")) {
        GTEST_SKIP() << "CPU lacks AVX-512F/DQ/BMI2";
    }
#endif
    expectMatchesScalar(*simd::avx512Kernels());
    expectScatteredTablesMatchScalar(*simd::avx512Kernels());
}

// ------------------------------------------------------------ primitives

TEST(ParallelFor, CoversRangeExactlyOnce)
{
    std::vector<int> touched(10000, 0);
    parallelFor(0, touched.size(), 64, [&](std::size_t lo,
                                           std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            ++touched[i];
    });
    for (int v : touched)
        EXPECT_EQ(v, 1);
}

TEST(ParallelFor, EmptyAndTinyRanges)
{
    int calls = 0;
    parallelFor(5, 5, 1, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0);
    std::vector<int> touched(3, 0);
    parallelFor(0, 3, 1024, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i)
            ++touched[i];
    });
    EXPECT_EQ(touched, (std::vector<int>{1, 1, 1}));
}

} // namespace
} // namespace jigsaw
