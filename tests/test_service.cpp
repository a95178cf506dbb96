/**
 * @file
 * Concurrency tests: the multi-program JigsawService must reproduce
 * sequential runJigsaw bitwise, the TaskGroup primitive must execute
 * and propagate errors, and the shared caches (executor PMF/state,
 * process-wide transpile memo) must survive concurrent hammering —
 * this file is the target of the CI ThreadSanitizer leg (run it with
 * JIGSAW_THREADS=4 or more to actually exercise the pool).
 */
#include <atomic>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/parallel.h"
#include "compiler/transpiler.h"
#include "core/service.h"
#include "device/library.h"
#include "sim/simulators.h"
#include "workloads/bv.h"
#include "workloads/ghz.h"
#include "workloads/qft.h"

namespace jigsaw {
namespace {

using core::JigsawResult;
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

// ------------------------------------------------------------ TaskGroup

TEST(TaskGroup, RunsEveryTask)
{
    std::atomic<int> count{0};
    TaskGroup group;
    for (int i = 0; i < 64; ++i)
        group.run([&count] { ++count; });
    group.wait();
    EXPECT_EQ(count.load(), 64);
}

TEST(TaskGroup, WaitIsReusable)
{
    std::atomic<int> count{0};
    TaskGroup group;
    group.run([&count] { ++count; });
    group.wait();
    group.run([&count] { ++count; });
    group.run([&count] { ++count; });
    group.wait();
    EXPECT_EQ(count.load(), 3);
}

TEST(TaskGroup, PropagatesTheFirstException)
{
    std::atomic<int> completed{0};
    TaskGroup group;
    for (int i = 0; i < 8; ++i) {
        group.run([&completed, i] {
            if (i == 3)
                throw std::runtime_error("task 3 failed");
            ++completed;
        });
    }
    EXPECT_THROW(group.wait(), std::runtime_error);
    // The failure does not cancel the other tasks.
    EXPECT_EQ(completed.load(), 7);
}

TEST(TaskGroup, TasksMayUseParallelFor)
{
    // Nested parallelFor inside pool workers degrades to serial
    // instead of corrupting the chunk state.
    std::vector<std::vector<int>> touched(8, std::vector<int>(2048, 0));
    TaskGroup group;
    for (std::size_t t = 0; t < touched.size(); ++t) {
        group.run([&touched, t] {
            parallelFor(0, touched[t].size(), 64,
                        [&](std::size_t lo, std::size_t hi) {
                            for (std::size_t i = lo; i < hi; ++i)
                                ++touched[t][i];
                        });
        });
    }
    group.wait();
    for (const std::vector<int> &row : touched) {
        for (int v : row)
            EXPECT_EQ(v, 1);
    }
}

// ----------------------------------------------------- shared-cache races

TEST(ConcurrentCaches, TranspileCacheSurvivesHammering)
{
    // Many tasks transpile the same circuits through the process-wide
    // memo; every result must be identical and the memo coherent.
    const device::DeviceModel dev = device::toronto();
    const circuit::QuantumCircuit ghz = workloads::Ghz(6).circuit();
    const circuit::QuantumCircuit bv =
        workloads::BernsteinVazirani(5).circuit();
    compiler::clearTranspileCache();

    std::vector<std::uint64_t> hashes(32, 0);
    TaskGroup group;
    for (std::size_t i = 0; i < hashes.size(); ++i) {
        group.run([&, i] {
            const circuit::QuantumCircuit &qc = i % 2 ? ghz : bv;
            hashes[i] = compiler::transpileCached(qc, dev)
                            .physical.structuralHash();
        });
    }
    group.wait();
    for (std::size_t i = 2; i < hashes.size(); ++i)
        EXPECT_EQ(hashes[i], hashes[i % 2]);
}

TEST(ConcurrentCaches, SharedExecutorSurvivesConcurrentRuns)
{
    // One executor hammered from many tasks: the PMF caches, the
    // logical program's single evolution and the counters must stay
    // coherent (results are nondeterministic in the draw stream but
    // every histogram must be well-formed).
    const circuit::QuantumCircuit qc = workloads::Ghz(7).circuit();
    const auto logical = std::make_shared<const sim::LogicalProgram>(qc);
    const std::vector<std::vector<int>> subsets = {
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {0, 6}};
    sim::IdealSimulator shared(33);

    TaskGroup group;
    std::vector<std::uint64_t> totals(24, 0);
    for (std::size_t i = 0; i < totals.size(); ++i) {
        group.run([&, i] {
            if (i % 3 == 0) {
                totals[i] = shared.run(qc, 500).totalCount();
            } else {
                std::vector<sim::CpmSpec> specs;
                // Unrouted GHZ measures qubit q into clbit q.
                for (const std::vector<int> &s : subsets)
                    specs.push_back({s, 200, nullptr, logical, s});
                std::uint64_t total = 0;
                for (const Histogram &h : shared.runBatch(qc, specs))
                    total += h.totalCount();
                totals[i] = total;
            }
        });
    }
    group.wait();
    for (std::size_t i = 0; i < totals.size(); ++i)
        EXPECT_EQ(totals[i], i % 3 == 0 ? 500u : 200u * subsets.size());
    // Exactly one evolution of the logical program ever ran, however
    // many first lookups raced on it.
    EXPECT_EQ(shared.batchStats().baseEvolutions, 1u);
}

// ------------------------------------------------------- JigsawService

std::vector<ServiceProgram>
mixedPrograms(const device::DeviceModel &dev)
{
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 101);
    programs.emplace_back(workloads::BernsteinVazirani(6).circuit(), dev,
                          8192, core::jigsawMOptions(), 202);
    programs.emplace_back(workloads::QftAdjoint(5).circuit(), dev, 4096,
                          core::JigsawOptions{}, 303);
    core::JigsawOptions no_recomp;
    no_recomp.recompileCpms = false;
    programs.emplace_back(workloads::Ghz(7).circuit(), dev, 6144,
                          no_recomp, 404);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::jigsawMOptions(), 505);
    return programs;
}

TEST(JigsawService, ConcurrentProgramsMatchSequentialBitwise)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = mixedPrograms(dev);
    ASSERT_GE(programs.size(), 4u);

    // Sequential reference: one runJigsaw per program, each with a
    // fresh executor seeded exactly like the service's default
    // (core::runProgramsSequentially is that contract's single
    // definition).
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    core::JigsawService service;
    const std::vector<JigsawResult> concurrent = service.run(programs);
    ASSERT_EQ(concurrent.size(), programs.size());
    EXPECT_EQ(service.streamStats().completed, programs.size());
    EXPECT_GT(service.streamStats().latencyPercentileMs(1.0), 0.0);

    for (std::size_t i = 0; i < programs.size(); ++i) {
        expectBitwisePmf(sequential[i].output, concurrent[i].output);
        expectBitwisePmf(sequential[i].globalPmf,
                         concurrent[i].globalPmf);
        ASSERT_EQ(sequential[i].cpms.size(), concurrent[i].cpms.size());
        for (std::size_t c = 0; c < sequential[i].cpms.size(); ++c) {
            EXPECT_EQ(sequential[i].cpms[c].subset,
                      concurrent[i].cpms[c].subset);
            expectBitwisePmf(sequential[i].cpms[c].localPmf,
                             concurrent[i].cpms[c].localPmf);
        }
        EXPECT_EQ(sequential[i].globalTrials,
                  concurrent[i].globalTrials);
        EXPECT_EQ(sequential[i].subsetTrials,
                  concurrent[i].subsetTrials);
    }
}

TEST(JigsawService, RepeatedRunsAreDeterministic)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = mixedPrograms(dev);
    core::JigsawService service;
    const std::vector<JigsawResult> first = service.run(programs);
    const std::vector<JigsawResult> second = service.run(programs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectBitwisePmf(first[i].output, second[i].output);
}

TEST(JigsawService, CallerSuppliedExecutorIsUsed)
{
    const device::DeviceModel dev = device::toronto();
    auto executor = std::make_shared<sim::NoisySimulator>(
        dev, sim::NoisySimulatorOptions{.seed = 77});
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(5).circuit(), dev, 4096,
                          core::JigsawOptions{}, 0, executor);
    core::JigsawService service;
    const std::vector<JigsawResult> results = service.run(programs);
    ASSERT_EQ(results.size(), 1u);
    // The caller's executor did the work: its caches are populated.
    EXPECT_GT(executor->cacheMisses(), 0u);
}

TEST(JigsawService, PropagatesProgramFailures)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(5).circuit(), dev, 4096);
    // Second program is invalid: a one-trial budget must throw.
    programs.emplace_back(workloads::Ghz(5).circuit(), dev, 1);
    core::JigsawService service;
    EXPECT_THROW(service.run(programs), std::invalid_argument);
}

TEST(JigsawService, RunReleasesEveryHandle)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = mixedPrograms(dev);
    core::JigsawService service;
    service.run(programs);
    const core::StreamStats stats = service.streamStats();
    EXPECT_EQ(stats.submitted, programs.size());
    EXPECT_EQ(stats.released, programs.size());
}

TEST(JigsawService, RunAlongsideStreamingSubmitsStaysBitwise)
{
    // One service, two client shapes at once: a batch run() on one
    // thread and submit()/wait() on another. Both share the merge
    // windows and the per-device executor, and every result must
    // still match its sequential reference.
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> batch = mixedPrograms(dev);
    std::vector<ServiceProgram> streamed = mixedPrograms(dev);
    for (ServiceProgram &program : streamed)
        program.executorSeed += 1000;
    const std::vector<JigsawResult> batch_expected =
        core::runProgramsSequentially(batch);
    const std::vector<JigsawResult> streamed_expected =
        core::runProgramsSequentially(streamed);

    core::JigsawService service;
    std::vector<JigsawResult> batch_results;
    std::thread runner(
        [&service, &batch, &batch_results] {
            batch_results = service.run(batch);
        });
    std::vector<core::SubmitResult> submits;
    for (const ServiceProgram &program : streamed)
        submits.push_back(service.submit(program));
    std::vector<JigsawResult> streamed_results;
    for (const core::SubmitResult &submitted : submits) {
        if (submitted.admitted)
            streamed_results.push_back(service.wait(submitted.handle));
    }
    runner.join();

    ASSERT_EQ(streamed_results.size(), streamed.size());
    ASSERT_EQ(batch_results.size(), batch.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
        expectBitwisePmf(batch_expected[i].output,
                         batch_results[i].output);
        expectBitwisePmf(streamed_expected[i].output,
                         streamed_results[i].output);
    }
}

TEST(JigsawService, ShedProgramFailsOnlyItself)
{
    // Normal-class submits shed once 2 jobs are undispatched. The long
    // merge window keeps the first two undispatched until run() flushes
    // it, so programs 2..4 are shed deterministically; the admitted
    // two still finish, and run() then rethrows program 2's failure.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        programs.emplace_back(workloads::Ghz(5).circuit(), dev, 4096,
                              core::JigsawOptions{}, seed);
    }
    core::ServiceOptions options;
    options.stream.windowMs = 60000.0;
    options.stream.maxQueuedJobs = 4;
    options.stream.shedFractions = {1.0, 0.5, 0.5};
    core::JigsawService service(options);
    EXPECT_THROW(service.run(programs), TransientError);

    const core::StreamStats stats = service.streamStats();
    EXPECT_EQ(stats.submitted, 2u);
    EXPECT_EQ(stats.shed, 3u);
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.released, 2u);
}

// ----------------------------------------------- shared executors

/**
 * Service options for the window-count assertions below: a merge
 * window long enough that each window closes only when run() flushes
 * it, after every program of the batch has prepared. The default 5 ms
 * window may close before a slow-compiling partner arrives, which
 * changes window counts but never results.
 */
core::ServiceOptions
heldWindows()
{
    core::ServiceOptions options;
    options.stream.windowMs = 60000.0;
    return options;
}

/**
 * The shared-executor acid test: identical programs (same circuit,
 * same options, different seeds), structurally-equal circuits built
 * independently, and distinct circuits, all in one batch.
 */
std::vector<ServiceProgram>
windowedPrograms(const device::DeviceModel &dev)
{
    std::vector<ServiceProgram> programs;
    // Two identical programs, different seeds: share everything.
    programs.emplace_back(workloads::Ghz(7).circuit(), dev, 8192,
                          core::JigsawOptions{}, 11);
    programs.emplace_back(workloads::Ghz(7).circuit(), dev, 8192,
                          core::JigsawOptions{}, 22);
    // Structurally equal circuit, different options: shares the
    // logical program, subsets differ.
    programs.emplace_back(workloads::Ghz(7).circuit(), dev, 6144,
                          core::jigsawMOptions(), 33);
    // Distinct circuits: windows of their own.
    programs.emplace_back(workloads::BernsteinVazirani(6).circuit(), dev,
                          8192, core::JigsawOptions{}, 44);
    core::JigsawOptions no_recomp;
    no_recomp.recompileCpms = false;
    programs.emplace_back(workloads::QftAdjoint(5).circuit(), dev, 4096,
                          no_recomp, 55);
    // Same circuit as the BV program under JigSaw-M.
    programs.emplace_back(workloads::BernsteinVazirani(6).circuit(), dev,
                          8192, core::jigsawMOptions(), 66);
    return programs;
}

TEST(SharedExecutor, WindowedJobsMatchSequentialBitwise)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = windowedPrograms(dev);
    ASSERT_GE(programs.size(), 5u);

    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    core::JigsawService service(heldWindows());
    const std::vector<JigsawResult> windowed = service.run(programs);
    ASSERT_EQ(windowed.size(), programs.size());

    // One window per circuit: GHZ-7 x3 and BV-6 x2 merged, QFT alone.
    const core::StreamStats stats = service.streamStats();
    EXPECT_EQ(stats.mergedWindows, 2u);
    EXPECT_EQ(stats.mergedJobs, 5u);
    EXPECT_EQ(stats.loneDispatches, 1u);
    EXPECT_EQ(stats.crossProgramGroups, 0u);
    EXPECT_EQ(stats.pooledGlobalPrograms, 0u);
    EXPECT_EQ(stats.jobsObserved, programs.size());
    EXPECT_GE(stats.latencyPercentileMs(0.95),
              stats.latencyPercentileMs(0.5));

    for (std::size_t i = 0; i < programs.size(); ++i) {
        expectBitwisePmf(sequential[i].output, windowed[i].output);
        expectBitwisePmf(sequential[i].globalPmf, windowed[i].globalPmf);
        ASSERT_EQ(sequential[i].cpms.size(), windowed[i].cpms.size());
        for (std::size_t c = 0; c < sequential[i].cpms.size(); ++c) {
            expectBitwisePmf(sequential[i].cpms[c].localPmf,
                             windowed[i].cpms[c].localPmf);
        }
    }
}

TEST(SharedExecutor, CallerSuppliedExecutorStaysWindowless)
{
    // A caller-supplied executor is never shared; its program runs
    // window-less alongside the windowed batch, and both kinds still
    // match their sequential reference.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs = windowedPrograms(dev);
    auto executor = std::make_shared<sim::NoisySimulator>(
        dev, sim::NoisySimulatorOptions{.seed = 77});
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 4096,
                          core::JigsawOptions{}, 0, executor);

    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    core::JigsawService service(heldWindows());
    const std::vector<JigsawResult> windowed = service.run(programs);
    // The QFT window and the caller-executor job dispatch alone.
    EXPECT_EQ(service.streamStats().mergedJobs, programs.size() - 2);
    EXPECT_EQ(service.streamStats().loneDispatches, 2u);
    EXPECT_GT(executor->cacheMisses(), 0u);
    for (std::size_t i = 0; i + 1 < programs.size(); ++i)
        expectBitwisePmf(sequential[i].output, windowed[i].output);
}

TEST(SharedExecutor, PerSpecStreamsMatchPrivateExecutors)
{
    // runBatch with specs from two programs, each on its own stream:
    // the per-program histograms must match what each program's
    // private executor would draw.
    const circuit::QuantumCircuit qc = workloads::Ghz(6).circuit();
    const std::vector<std::vector<int>> subsets = {
        {0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}};

    Rng stream_a(901);
    Rng stream_b(902);
    std::vector<sim::CpmSpec> specs;
    for (const std::vector<int> &s : subsets)
        specs.push_back({s, 300, &stream_a});
    for (const std::vector<int> &s : subsets)
        specs.push_back({s, 300, &stream_b});

    sim::IdealSimulator shared(1);
    const std::vector<Histogram> hists = shared.runBatch(qc, specs);

    // Private-executor reference for each program.
    for (int program = 0; program < 2; ++program) {
        sim::IdealSimulator private_executor(901ULL + program);
        std::vector<sim::CpmSpec> own;
        for (const std::vector<int> &s : subsets)
            own.push_back({s, 300});
        const std::vector<Histogram> expected =
            private_executor.runBatch(qc, own);
        for (std::size_t j = 0; j < subsets.size(); ++j) {
            expectBitwisePmf(
                expected[j].toPmf(),
                hists[static_cast<std::size_t>(program) * subsets.size() +
                      j]
                    .toPmf());
        }
    }
}

TEST(SharedExecutor, WindowedJobsHammerSharedExecutorDeterministically)
{
    // The TSan leg's shared-executor case: a larger batch with heavy
    // duplication, run twice through the service — every job executes
    // against the one shared executor concurrently with other jobs'
    // executions and reconstructions, and the two runs must agree
    // bitwise.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (int i = 0; i < 12; ++i) {
        const int width = 5 + (i % 3);
        circuit::QuantumCircuit qc = i % 2 == 0
                                         ? workloads::Ghz(width).circuit()
                                         : workloads::BernsteinVazirani(
                                               width)
                                               .circuit();
        programs.emplace_back(std::move(qc), dev, 4096,
                              i % 3 == 0 ? core::jigsawMOptions()
                                         : core::JigsawOptions{},
                              500 + 13ULL * static_cast<std::uint64_t>(i));
    }
    core::JigsawService service(heldWindows());
    const std::vector<JigsawResult> first = service.run(programs);
    EXPECT_GT(service.streamStats().mergedJobs, 0u);
    const std::vector<JigsawResult> second = service.run(programs);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        expectBitwisePmf(first[i].output, second[i].output);
}

} // namespace
} // namespace jigsaw
