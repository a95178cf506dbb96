/**
 * @file
 * Parametric serving tests: the compile-once/re-bind path must be
 * invisible in results. Skeleton hashing and angle re-binding on the
 * circuit layer, parameter expressions in the QASM frontend, skeleton
 * keying of the transpile memo (an angle-differing hit re-binds into
 * the cached routing, bitwise-identical to a cold transpile), the
 * executor's split-prefix evolution cache, and the
 * compileParametric/submitIteration streaming API — single-threaded
 * and under >= 4 concurrent submitters (a CI ThreadSanitizer target).
 */
#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/circuit.h"
#include "circuit/qasm.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "compiler/transpiler.h"
#include "core/jigsaw.h"
#include "core/service.h"
#include "device/library.h"
#include "obs/exposition.h"
#include "sim/simulators.h"

namespace jigsaw {
namespace {

using circuit::QuantumCircuit;
using core::ServiceProgram;

/** Exact equality: the two PMFs store identical doubles. */
void
expectBitwisePmf(const Pmf &a, const Pmf &b)
{
    ASSERT_EQ(a.nQubits(), b.nQubits());
    ASSERT_EQ(a.support(), b.support());
    for (const auto &[outcome, p] : a.probabilities())
        EXPECT_EQ(p, b.prob(outcome)) << "outcome " << outcome;
}

/** An Ising-style ansatz: H layer, then a diagonal RZZ/RZ tail whose
 *  angles are the parameters — every parametric gate is diagonal, the
 *  iterative-VQA shape the split-prefix cache targets. */
QuantumCircuit
isingAnsatz(int n, const std::vector<double> &angles)
{
    QuantumCircuit qc(n);
    for (int q = 0; q < n; ++q)
        qc.h(q);
    std::size_t k = 0;
    for (int q = 0; q + 1 < n; ++q)
        qc.rzz(angles.at(k++), q, q + 1);
    for (int q = 0; q < n; ++q)
        qc.rz(angles.at(k++), q);
    qc.measureAll();
    return qc;
}

std::vector<double>
anglesFor(int n, double scale)
{
    std::vector<double> angles;
    for (int i = 0; i < 2 * n - 1; ++i)
        angles.push_back(scale * (0.1 + 0.05 * static_cast<double>(i)));
    return angles;
}

// -------------------------------------------------- circuit skeletons

TEST(Skeleton, HashIgnoresAnglesButNotStructure)
{
    const QuantumCircuit a = isingAnsatz(4, anglesFor(4, 1.0));
    const QuantumCircuit b = isingAnsatz(4, anglesFor(4, 2.5));
    EXPECT_EQ(a.skeletonHash(), b.skeletonHash());
    EXPECT_NE(a.structuralHash(), b.structuralHash());

    // Different gate structure: different skeleton.
    QuantumCircuit c = isingAnsatz(4, anglesFor(4, 1.0));
    c.z(0);
    EXPECT_NE(a.skeletonHash(), c.skeletonHash());

    // Barriers stay invisible, matching structuralHash's invariant.
    QuantumCircuit d(4);
    d.h(0).barrier().rz(0.25, 0).measureAll();
    QuantumCircuit e(4);
    e.h(0).rz(0.75, 0).measureAll();
    EXPECT_EQ(d.skeletonHash(), e.skeletonHash());
}

TEST(Skeleton, RebindAnglesRoundTrip)
{
    QuantumCircuit qc = isingAnsatz(4, anglesFor(4, 1.0));
    const std::vector<double> fresh = anglesFor(4, -0.5);
    ASSERT_EQ(qc.parameterCount(), fresh.size());
    qc.rebindAngles(fresh);
    EXPECT_EQ(qc.parameters(), fresh);
    EXPECT_EQ(qc.skeletonHash(),
              isingAnsatz(4, anglesFor(4, 3.0)).skeletonHash());
    EXPECT_THROW(qc.rebindAngles({1.0}), std::invalid_argument);
}

TEST(Skeleton, DiagonalSuffixStart)
{
    // H layer then diagonal tail: the suffix starts after the last H.
    const QuantumCircuit qc = isingAnsatz(3, anglesFor(3, 1.0));
    EXPECT_EQ(qc.diagonalSuffixStart(), 3u);

    // Trailing non-diagonal gate pushes the split past it.
    QuantumCircuit mixed(2);
    mixed.h(0).rz(0.3, 0).x(1).rz(0.7, 1).measureAll();
    EXPECT_EQ(mixed.diagonalSuffixStart(), 3u);

    // All-diagonal circuit splits at 0 (nothing to cache).
    QuantumCircuit diag(2);
    diag.rz(0.1, 0).rzz(0.2, 0, 1).measureAll();
    EXPECT_EQ(diag.diagonalSuffixStart(), 0u);

    // Measures and barriers never move the split.
    QuantumCircuit tail(2);
    tail.h(0).barrier().rz(0.4, 0).measure(0).rz(0.6, 1).measureAll();
    EXPECT_EQ(tail.diagonalSuffixStart(), 1u);
}

TEST(Skeleton, PrefixHashSharedAcrossMeasurementVariants)
{
    // CPM variants of one prefix differ only in measurements (and
    // possibly clbit count): their gate-prefix hashes must collide so
    // they share one split-prefix state.
    QuantumCircuit a(3, 3);
    a.h(0).cx(0, 1).rz(0.5, 2).measureAll();
    QuantumCircuit b(3, 1);
    b.h(0).cx(0, 1).rz(0.5, 2).measure(1, 0);
    EXPECT_EQ(a.prefixHash(3), b.prefixHash(3));
    // Unlike skeletonHash, prefixHash keys on bound angles.
    QuantumCircuit c(3, 3);
    c.h(0).cx(0, 1).rz(0.9, 2).measureAll();
    EXPECT_NE(a.prefixHash(3), c.prefixHash(3));
    EXPECT_THROW(a.prefixHash(99), std::invalid_argument);
}

// ------------------------------------------------------- QASM frontend

TEST(QasmParams, ExpressionsEvaluate)
{
    const QuantumCircuit qc = circuit::fromQasm(R"(
        OPENQASM 2.0;
        include "qelib1.inc";
        qreg q[2];
        creg c[2];
        rz(pi/4) q[0];
        rz(-3*pi/2) q[1];
        cu1(1.5e-1) q[0],q[1];
        rx(2*(pi - 1)) q[0];
        u3(pi/2, -pi, 0.25) q[1];
    )");
    const std::vector<circuit::Gate> &gates = qc.gates();
    ASSERT_EQ(gates.size(), 5u);
    EXPECT_DOUBLE_EQ(gates[0].params[0], M_PI / 4.0);
    EXPECT_DOUBLE_EQ(gates[1].params[0], -3.0 * M_PI / 2.0);
    EXPECT_DOUBLE_EQ(gates[2].params[0], 0.15);
    EXPECT_DOUBLE_EQ(gates[3].params[0], 2.0 * (M_PI - 1.0));
    EXPECT_DOUBLE_EQ(gates[4].params[0], M_PI / 2.0);
    EXPECT_DOUBLE_EQ(gates[4].params[1], -M_PI);
    EXPECT_DOUBLE_EQ(gates[4].params[2], 0.25);
}

TEST(QasmParams, MalformedExpressionsThrow)
{
    const auto parse = [](const std::string &param) {
        circuit::fromQasm("qreg q[1];\nrz(" + param + ") q[0];\n");
    };
    EXPECT_THROW(parse("pi/0"), std::invalid_argument);
    EXPECT_THROW(parse("(pi"), std::invalid_argument);
    EXPECT_THROW(parse("1.5x"), std::invalid_argument);
    EXPECT_THROW(parse(""), std::invalid_argument);
}

// ----------------------------------------------- transpile memo rebind

TEST(ParametricTranspile, SameSkeletonSharesEntryBitwise)
{
    const device::DeviceModel dev = device::toronto();
    const QuantumCircuit cold_qc = isingAnsatz(5, anglesFor(5, 1.0));
    const QuantumCircuit warm_qc = isingAnsatz(5, anglesFor(5, -2.0));

    compiler::clearTranspileCache();
    const std::uint64_t hits0 = compiler::transpileCacheHits();
    const std::uint64_t misses0 = compiler::transpileCacheMisses();
    const std::uint64_t rebinds0 = compiler::transpileSkeletonRebinds();

    const compiler::CompiledCircuit first =
        compiler::transpileCached(cold_qc, dev);
    EXPECT_EQ(compiler::transpileCacheMisses() - misses0, 1u);

    // Identical binding: plain hit, no rebind.
    const compiler::CompiledCircuit again =
        compiler::transpileCached(cold_qc, dev);
    EXPECT_EQ(compiler::transpileCacheHits() - hits0, 1u);
    EXPECT_EQ(again.physical.structuralHash(),
              first.physical.structuralHash());

    // Same skeleton, fresh angles: served by re-bind...
    const compiler::CompiledCircuit rebound =
        compiler::transpileCached(warm_qc, dev);
    EXPECT_EQ(compiler::transpileCacheHits() - hits0, 2u);
    EXPECT_EQ(compiler::transpileSkeletonRebinds() - rebinds0, 1u);
    EXPECT_EQ(compiler::transpileCacheMisses() - misses0, 1u);

    // ...and bitwise-identical to a cold transpile of the bound
    // circuit: same physical gates and angles, layouts, and EPS.
    const compiler::CompiledCircuit cold =
        compiler::transpile(warm_qc, dev);
    EXPECT_EQ(rebound.physical.structuralHash(),
              cold.physical.structuralHash());
    EXPECT_EQ(rebound.physical.toString(), cold.physical.toString());
    EXPECT_EQ(rebound.initialLayout.logicalToPhysical(),
              cold.initialLayout.logicalToPhysical());
    EXPECT_EQ(rebound.finalLayout.logicalToPhysical(),
              cold.finalLayout.logicalToPhysical());
    EXPECT_EQ(rebound.swapCount, cold.swapCount);
    EXPECT_EQ(rebound.eps, cold.eps);
}

// --------------------------------------- executor split-prefix cache

TEST(ParametricExecutor, SplitPrefixCacheHitsAndStaysBitwise)
{
    const device::DeviceModel dev = device::toronto();
    // Executors take physical-space circuits; route both bindings
    // with the same deterministic transpile (they share a skeleton,
    // so the routings are structurally identical).
    const QuantumCircuit qc_a =
        compiler::transpile(isingAnsatz(5, anglesFor(5, 1.0)), dev)
            .physical;
    const QuantumCircuit qc_b =
        compiler::transpile(isingAnsatz(5, anglesFor(5, -0.7)), dev)
            .physical;
    const std::uint64_t trials = 2000;

    // Caller-owned draw streams (external sampling) pin the sampled
    // histograms to the evolved PMFs alone — exactly how the merged
    // service path keeps shared executors deterministic. Each binding
    // replays the same Rng seed on both executors, so any divergence
    // below can only come from the evolutions themselves.
    // Reference: each binding on its own fresh executor (all cold).
    sim::NoisySimulator ref_a(dev, {.seed = 7});
    Rng ref_draws_a(11);
    const Histogram hist_a = ref_a.run(qc_a, trials, ref_draws_a);
    sim::NoisySimulator ref_b(dev, {.seed = 7});
    Rng ref_draws_b(22);
    const Histogram hist_b = ref_b.run(qc_b, trials, ref_draws_b);

    // Warm path: both bindings share one executor. The second run's
    // evolution reuses the first's split-prefix state (the H layer is
    // angle-free) — only the re-bound diagonal tail is re-applied.
    sim::NoisySimulator shared(dev, {.seed = 7});
    Rng warm_draws_a(11);
    const Histogram warm_a = shared.run(qc_a, trials, warm_draws_a);
    const std::uint64_t hits_after_a = shared.skeletonCacheHits();
    const std::uint64_t misses_after_a = shared.skeletonCacheMisses();
    EXPECT_GT(misses_after_a, 0u); // qualifying circuits split cold too
    Rng warm_draws_b(22);
    const Histogram warm_b = shared.run(qc_b, trials, warm_draws_b);
    EXPECT_GT(shared.skeletonCacheHits(), hits_after_a);
    EXPECT_EQ(shared.skeletonCacheMisses(), misses_after_a);

    // Per-binding results never depend on the cache's temperature.
    EXPECT_EQ(warm_a.counts(), hist_a.counts());
    EXPECT_EQ(warm_b.counts(), hist_b.counts());

    const sim::ExecutorCounters counters = shared.counters();
    EXPECT_EQ(counters.prefixStateHits, shared.skeletonCacheHits());
    EXPECT_EQ(counters.prefixStateMisses, shared.skeletonCacheMisses());
}

// ------------------------------------------- streaming parametric API

TEST(ParametricService, CompileOnceRebindMatchesSequential)
{
    const device::DeviceModel dev = device::toronto();
    const int n = 5;
    const std::uint64_t trials = 1500;
    const int iterations = 4;

    compiler::clearTranspileCache();
    core::JigsawService service;
    const core::ParametricHandle handle = service.compileParametric(
        ServiceProgram(isingAnsatz(n, anglesFor(n, 1.0)), dev, trials));

    const std::uint64_t hits0 = compiler::transpileCacheHits();
    const std::uint64_t misses0 = compiler::transpileCacheMisses();
    const obs::ProcessCounters counters0 = obs::ProcessCounters::snapshot();

    std::vector<core::JobHandle> jobs;
    for (int it = 0; it < iterations; ++it) {
        const core::SubmitResult submitted = service.submitIteration(
            handle, anglesFor(n, 0.3 * static_cast<double>(it + 1)));
        ASSERT_TRUE(submitted.admitted);
        jobs.push_back(submitted.handle);
    }
    std::vector<Pmf> outputs;
    for (const core::JobHandle &job : jobs)
        outputs.push_back(service.wait(job).output);

    // compileParametric prewarmed every entry: the iterations' compile
    // stages were pure cache hits, no transpile ran.
    EXPECT_EQ(compiler::transpileCacheMisses(), misses0);
    EXPECT_GT(compiler::transpileCacheHits(), hits0);

    const core::StreamStats stats = service.streamStats();
    EXPECT_EQ(stats.parametricPrograms, 1u);
    EXPECT_EQ(stats.parametricIterations,
              static_cast<std::size_t>(iterations));
    EXPECT_GT(obs::ProcessCounters::snapshot()
                  .since(counters0)
                  .transpileSkeletonRebinds,
              0u);
    EXPECT_GT(stats.prefixStateHits, 0u);

    // Bitwise identity per iteration against sequential runJigsaw of
    // the re-bound program on a fresh executor.
    for (int it = 0; it < iterations; ++it) {
        const QuantumCircuit bound = isingAnsatz(
            n, anglesFor(n, 0.3 * static_cast<double>(it + 1)));
        sim::NoisySimulator fresh(dev, {.seed = 1234});
        const Pmf expected =
            core::runJigsaw(bound, dev, fresh, trials).output;
        expectBitwisePmf(outputs[static_cast<std::size_t>(it)],
                         expected);
    }

    EXPECT_THROW(service.submitIteration(core::ParametricHandle{999},
                                         anglesFor(n, 1.0)),
                 std::invalid_argument);
}

TEST(ParametricService, RejectsParameterlessPrototype)
{
    QuantumCircuit qc(3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();
    core::JigsawService service;
    EXPECT_THROW(service.compileParametric(ServiceProgram(
                     qc, device::toronto(), 1000)),
                 std::invalid_argument);
}

TEST(ParametricService, ConcurrentSubmittersStayBitwise)
{
    const device::DeviceModel dev = device::toronto();
    const int n = 5;
    const std::uint64_t trials = 1200;
    const int submitters = 4;
    const int per_submitter = 3;

    compiler::clearTranspileCache();
    core::JigsawService service;
    const core::ParametricHandle handle = service.compileParametric(
        ServiceProgram(isingAnsatz(n, anglesFor(n, 1.0)), dev, trials));

    const auto angle_scale = [](int submitter, int iteration) {
        return 0.2 + 0.15 * static_cast<double>(submitter) +
               0.05 * static_cast<double>(iteration);
    };

    std::vector<std::vector<core::JobHandle>> jobs(
        static_cast<std::size_t>(submitters));
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int s = 0; s < submitters; ++s) {
        threads.emplace_back([&, s] {
            for (int it = 0; it < per_submitter; ++it) {
                const core::SubmitResult submitted =
                    service.submitIteration(
                        handle, anglesFor(n, angle_scale(s, it)));
                if (!submitted.admitted) {
                    failed = true;
                    return;
                }
                jobs[static_cast<std::size_t>(s)].push_back(
                    submitted.handle);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    ASSERT_FALSE(failed.load());

    for (int s = 0; s < submitters; ++s) {
        for (int it = 0; it < per_submitter; ++it) {
            const Pmf output =
                service
                    .wait(jobs[static_cast<std::size_t>(s)]
                              [static_cast<std::size_t>(it)])
                    .output;
            const QuantumCircuit bound =
                isingAnsatz(n, anglesFor(n, angle_scale(s, it)));
            sim::NoisySimulator fresh(dev, {.seed = 1234});
            const Pmf expected =
                core::runJigsaw(bound, dev, fresh, trials).output;
            expectBitwisePmf(output, expected);
        }
    }

    const core::StreamStats stats = service.streamStats();
    EXPECT_EQ(stats.parametricIterations,
              static_cast<std::size_t>(submitters * per_submitter));
    EXPECT_GT(stats.prefixStateHits, 0u);
}

} // namespace
} // namespace jigsaw
