/**
 * @file
 * Tests for the staged pipeline: planning validation, per-stage
 * artifacts, the batched CPM recompiler's equivalence to the full
 * transpiler, stage-by-stage session runs matching the runJigsaw
 * wrapper bitwise, the logical binding (every spec folds one
 * evolution of the logical program, which matches each routed
 * circuit's marginal and keys apart from unbound runs), jobs on a
 * shared executor with their own draw streams vs private executors,
 * and resuming sessions from adopted execution results.
 */
#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include <gtest/gtest.h>

#include "compiler/cpm_batch.h"
#include "compiler/transpiler.h"
#include "core/jigsaw.h"
#include "core/pipeline.h"
#include "core/session.h"
#include "core/subsets.h"
#include "device/library.h"
#include "sim/eps.h"
#include "sim/simulators.h"
#include "workloads/bv.h"
#include "workloads/ghz.h"
#include "workloads/registry.h"

namespace jigsaw {
namespace {

using core::JigsawOptions;
using core::JigsawResult;
using core::Subset;

/** Exact equality: the two PMFs store identical doubles. */
void
expectBitwisePmf(const Pmf &a, const Pmf &b)
{
    ASSERT_EQ(a.nQubits(), b.nQubits());
    ASSERT_EQ(a.support(), b.support());
    for (const auto &[outcome, p] : a.probabilities())
        EXPECT_EQ(p, b.prob(outcome)) << "outcome " << outcome;
}

// ------------------------------------------------------------ planning

TEST(SubsetValidation, RejectsBadCustomSubsets)
{
    EXPECT_THROW(core::validateSubsets(5, {}), std::invalid_argument);
    EXPECT_THROW(core::validateSubsets(5, {Subset{}}),
                 std::invalid_argument);
    EXPECT_THROW(core::validateSubsets(5, {Subset{0, 5}}),
                 std::invalid_argument);
    EXPECT_THROW(core::validateSubsets(5, {Subset{-1, 2}}),
                 std::invalid_argument);
    EXPECT_THROW(core::validateSubsets(5, {Subset{1, 1}}),
                 std::invalid_argument);
    // A bad subset anywhere in the list is caught.
    EXPECT_THROW(core::validateSubsets(5, {Subset{0, 1}, Subset{2, 2}}),
                 std::invalid_argument);
    EXPECT_NO_THROW(
        core::validateSubsets(5, {Subset{0, 1}, Subset{2, 4}}));
}

TEST(SubsetValidation, PlanRejectsBadCustomSubsetsUpFront)
{
    const workloads::Ghz ghz(5);
    JigsawOptions options;

    options.customSubsets = std::vector<Subset>{{0, 7}};
    EXPECT_THROW(core::planSubsets(ghz.circuit(), 4096, options),
                 std::invalid_argument);

    options.customSubsets = std::vector<Subset>{{2, 2}};
    EXPECT_THROW(core::planSubsets(ghz.circuit(), 4096, options),
                 std::invalid_argument);

    options.customSubsets = std::vector<Subset>{{}};
    EXPECT_THROW(core::planSubsets(ghz.circuit(), 4096, options),
                 std::invalid_argument);

    options.customSubsets = std::vector<Subset>{{0, 2}, {1, 4}};
    EXPECT_NO_THROW(core::planSubsets(ghz.circuit(), 4096, options));
}

TEST(Pipeline, PlanSpendsTheExactBudget)
{
    const workloads::Ghz ghz(6);
    const core::SubsetPlan plan =
        core::planSubsets(ghz.circuit(), 8192, JigsawOptions{});
    EXPECT_EQ(plan.nMeasured, 6);
    EXPECT_EQ(plan.globalTrials, 4096u);
    EXPECT_EQ(plan.subsets.size(), 6u);
    EXPECT_EQ(plan.perCpmTrials.size(), plan.subsets.size());
    std::uint64_t total = 0;
    for (std::uint64_t t : plan.perCpmTrials)
        total += t;
    EXPECT_EQ(total, plan.subsetTrials);
    EXPECT_EQ(plan.globalTrials + plan.subsetTrials, plan.totalTrials);
}

// ----------------------------------------------------------- artifacts

TEST(Pipeline, ScheduleGroupsGlobalMappedCpmsTogether)
{
    const device::DeviceModel dev = device::toronto();
    const workloads::Ghz ghz(6);
    JigsawOptions options;
    options.recompileCpms = false; // every CPM keeps the global mapping

    const core::SubsetPlan plan =
        core::planSubsets(ghz.circuit(), 8192, options);
    const core::CompiledJobs jobs =
        core::compileJobs(ghz.circuit(), dev, plan, options);
    ASSERT_EQ(jobs.cpms.size(), plan.subsets.size());
    for (const core::CpmJob &job : jobs.cpms)
        EXPECT_TRUE(job.fromGlobal);

    const core::ExecutionSchedule schedule = core::buildSchedule(jobs);
    ASSERT_EQ(schedule.groups.size(), 1u);
    EXPECT_TRUE(schedule.groups[0].usesGlobal);
    EXPECT_EQ(schedule.groups[0].members.size(), jobs.cpms.size());
    EXPECT_EQ(schedule.groups[0].specs.size(), jobs.cpms.size());
}

TEST(Pipeline, ScheduleCoversEveryCpmExactlyOnce)
{
    const device::DeviceModel dev = device::toronto();
    const workloads::BernsteinVazirani bv(7);
    const core::SubsetPlan plan =
        core::planSubsets(bv.circuit(), 8192, JigsawOptions{});
    const core::CompiledJobs jobs =
        core::compileJobs(bv.circuit(), dev, plan, JigsawOptions{});
    const core::ExecutionSchedule schedule = core::buildSchedule(jobs);

    std::vector<int> seen(jobs.cpms.size(), 0);
    for (const auto &group : schedule.groups) {
        ASSERT_EQ(group.specs.size(), group.members.size());
        for (std::size_t j = 0; j < group.members.size(); ++j) {
            const std::size_t i = group.members[j];
            ASSERT_LT(i, seen.size());
            ++seen[i];
            EXPECT_EQ(group.specs[j].shots, jobs.cpms[i].trials);
        }
    }
    for (int count : seen)
        EXPECT_EQ(count, 1);
}

TEST(Pipeline, ScheduleGroupsCarryTheirPrefixHash)
{
    const device::DeviceModel dev = device::toronto();
    const workloads::Ghz ghz(6);
    JigsawOptions options;
    options.recompileCpms = false;
    const core::SubsetPlan plan =
        core::planSubsets(ghz.circuit(), 8192, options);
    const core::CompiledJobs jobs =
        core::compileJobs(ghz.circuit(), dev, plan, options);
    const core::ExecutionSchedule schedule = core::buildSchedule(jobs);
    ASSERT_EQ(schedule.groups.size(), 1u);
    // The provenance tag is the grouping key itself: the measureless
    // structural hash of every member CPM.
    for (const std::size_t member : schedule.groups[0].members) {
        EXPECT_EQ(schedule.groups[0].prefixHash,
                  jobs.cpms[member]
                      .compiled.physical.withoutMeasurements()
                      .structuralHash());
    }
}

// ------------------------------------------- one logical evolution

/** Largest per-outcome gap between @p a and @p b over both supports. */
double
maxOutcomeGap(const Pmf &a, const Pmf &b)
{
    double gap = 0.0;
    for (const auto &[outcome, p] : a.probabilities())
        gap = std::max(gap, std::abs(p - b.prob(outcome)));
    for (const auto &[outcome, p] : b.probabilities())
        gap = std::max(gap, std::abs(p - a.prob(outcome)));
    return gap;
}

TEST(LogicalBinding, EverySpecIsBoundToTheLogicalProgram)
{
    const device::DeviceModel dev = device::manhattan();
    const workloads::Ghz ghz(8);
    const JigsawOptions options = core::jigsawMOptions();
    const core::SubsetPlan plan =
        core::planSubsets(ghz.circuit(), 8192, options);
    const core::CompiledJobs jobs =
        core::compileJobs(ghz.circuit(), dev, plan, options);
    ASSERT_NE(jobs.logical, nullptr);
    EXPECT_EQ(jobs.logical->hash, ghz.circuit().structuralHash());
    const core::ExecutionSchedule schedule = core::buildSchedule(jobs);
    for (const auto &group : schedule.groups) {
        for (std::size_t j = 0; j < group.members.size(); ++j) {
            EXPECT_EQ(group.specs[j].logical, jobs.logical);
            EXPECT_EQ(group.specs[j].clbits,
                      jobs.cpms[group.members[j]].subset);
        }
    }
}

TEST(LogicalBinding, LogicalFoldMatchesEveryRoutedMarginal)
{
    // The bound path's premise: folding the logical program's ideal
    // PMF onto a clbit subset gives the routed circuit's ideal
    // marginal, whatever its mapping — for the global, CPMs that kept
    // the global mapping, and recompiled CPMs alike.
    std::size_t recompiled = 0;
    std::size_t global_mapped = 0;
    for (const device::DeviceModel &dev :
         {device::toronto(), device::manhattan()}) {
        for (const auto &program : workloads::paperBenchmarks()) {
            // One simulator per (device, program): both schemes share
            // the global circuit and many recompiled CPM circuits.
            const circuit::QuantumCircuit &logical = program->circuit();
            sim::IdealSimulator ideal;
            const Pmf full = ideal.idealPmf(logical);
            for (const JigsawOptions &options :
                 {JigsawOptions{}, core::jigsawMOptions()}) {
                const core::SubsetPlan plan =
                    core::planSubsets(logical, 8192, options);
                const core::CompiledJobs jobs =
                    core::compileJobs(logical, dev, plan, options);

                const circuit::QuantumCircuit &global = jobs.global.physical;
                std::vector<int> all(static_cast<std::size_t>(
                    full.nQubits()));
                std::iota(all.begin(), all.end(), 0);
                EXPECT_LE(maxOutcomeGap(full.marginal(all),
                                        ideal.idealPmf(global)),
                          1e-10)
                    << program->name() << " global on " << dev.name();
                for (const core::CpmJob &cpm : jobs.cpms) {
                    const circuit::QuantumCircuit &physical =
                        cpm.compiled.physical;
                    EXPECT_LE(maxOutcomeGap(full.marginal(cpm.subset),
                                            ideal.idealPmf(physical)),
                              1e-10)
                        << program->name() << " CPM on " << dev.name();
                    ++(cpm.fromGlobal ? global_mapped : recompiled);
                }
            }
        }
    }
    // Both CPM kinds were actually covered.
    EXPECT_GT(recompiled, 0u);
    EXPECT_GT(global_mapped, 0u);
}

TEST(LogicalBinding, RecompiledJigsawMJobEvolvesOnce)
{
    // However many routed prefixes recompilation produces, a job's
    // global and every CPM fold from one evolution of the program.
    const device::DeviceModel dev = device::manhattan();
    std::size_t multi_prefix_jobs = 0;
    for (const auto &program : workloads::paperBenchmarks()) {
        sim::NoisySimulator executor(dev, {.seed = 5}); // fresh per job
        core::JigsawSession session(program->circuit(), dev, executor,
                                    16384, core::jigsawMOptions());
        if (session.schedule().groups.size() > 1)
            ++multi_prefix_jobs;
        session.run();
        EXPECT_EQ(executor.batchStats().baseEvolutions, 1u)
            << program->name();
        EXPECT_EQ(executor.batchStats().marginalsServed,
                  session.compiled().cpms.size() + 1)
            << program->name();
    }
    EXPECT_GT(multi_prefix_jobs, 0u);

    // The classic entry point goes through the same path.
    sim::NoisySimulator executor(dev, {.seed = 6});
    core::runJigsaw(workloads::Ghz(10).circuit(), dev, executor, 16384,
                    core::jigsawMOptions());
    EXPECT_EQ(executor.batchStats().baseEvolutions, 1u);
}

TEST(LogicalBinding, BoundAndUnboundKeysNeverCollide)
{
    // The bound global spec and run() of the global physical circuit
    // measure the same clbits of the same circuit, but their ideal
    // PMFs come from different evolutions. Each call must draw the
    // same histogram whichever ran first on an executor, and each
    // must build its own entry.
    const device::DeviceModel dev = device::toronto();
    const workloads::Ghz ghz(6);
    const JigsawOptions options = core::jigsawMOptions();
    const core::SubsetPlan plan =
        core::planSubsets(ghz.circuit(), 8192, options);
    const core::CompiledJobs jobs =
        core::compileJobs(ghz.circuit(), dev, plan, options);
    const core::ExecutionSchedule schedule = core::buildSchedule(jobs);
    const circuit::QuantumCircuit &global = jobs.global.physical;

    sim::CpmSpec bound{global.measuredQubits(), 4096};
    bound.logical = jobs.logical;
    bound.clbits.resize(bound.qubits.size());
    std::iota(bound.clbits.begin(), bound.clbits.end(), 0);
    const auto boundJob = [&](sim::Executor &executor) {
        Rng global_draws(5);
        sim::CpmSpec spec = bound;
        spec.rng = &global_draws;
        std::vector<Histogram> out = {executor.run(global, spec)};
        std::vector<Rng> streams;
        for (std::size_t g = 0; g < schedule.groups.size(); ++g)
            streams.emplace_back(100 + g);
        for (std::size_t g = 0; g < schedule.groups.size(); ++g) {
            std::vector<sim::CpmSpec> specs = schedule.groups[g].specs;
            for (sim::CpmSpec &s : specs)
                s.rng = &streams[g];
            const circuit::QuantumCircuit &base =
                schedule.groups[g].usesGlobal
                    ? global
                    : jobs.cpms[schedule.groups[g].baseCpm].compiled.physical;
            for (Histogram &h : executor.runBatch(base, specs))
                out.push_back(std::move(h));
        }
        return out;
    };
    const auto unboundRun = [&](sim::Executor &executor) {
        Rng draws(5);
        return executor.run(global, 4096, draws);
    };

    sim::NoisySimulator bound_first(dev, {.seed = 1});
    const std::vector<Histogram> job_a = boundJob(bound_first);
    const std::uint64_t job_misses = bound_first.cacheMisses();
    const Histogram run_a = unboundRun(bound_first);
    EXPECT_EQ(bound_first.cacheMisses(), job_misses + 1);

    sim::NoisySimulator run_first(dev, {.seed = 1});
    const Histogram run_b = unboundRun(run_first);
    EXPECT_EQ(run_first.cacheMisses(), 1u);
    const std::vector<Histogram> job_b = boundJob(run_first);
    EXPECT_EQ(run_first.cacheMisses(), job_misses + 1);

    EXPECT_EQ(run_a.counts(), run_b.counts());
    ASSERT_EQ(job_a.size(), job_b.size());
    for (std::size_t i = 0; i < job_a.size(); ++i)
        EXPECT_EQ(job_a[i].counts(), job_b[i].counts()) << "draw " << i;

    // The physical measurement is part of the key too: the same
    // logical clbits read through other physical qubits (other
    // noise) build their own entry.
    sim::CpmSpec moved = bound;
    std::reverse(moved.qubits.begin(), moved.qubits.end());
    const std::uint64_t before = run_first.cacheMisses();
    run_first.prepareBatch(global, {moved});
    EXPECT_EQ(run_first.cacheMisses(), before + 1);
}

// ------------------------------------------------ shared executors

TEST(SharedExecutor, PerJobStreamsMatchPrivateExecutors)
{
    // The bitwise claim behind the streaming scheduler at the pipeline
    // level: jobs executing their own schedules against ONE shared
    // executor, each drawing from its own Rng(seed), reproduce
    // executeSchedule against private executors seeded the same way —
    // however the jobs interleave on the shared caches.
    const device::DeviceModel dev = device::toronto();
    compiler::clearTranspileCache();
    struct Job
    {
        circuit::QuantumCircuit circuit;
        std::uint64_t trials;
        JigsawOptions options;
        std::uint64_t seed;
    };
    const std::vector<Job> specs = {
        {workloads::Ghz(6).circuit(), 8192, JigsawOptions{}, 41},
        {workloads::Ghz(6).circuit(), 8192, JigsawOptions{}, 42},
        {workloads::BernsteinVazirani(6).circuit(), 6144,
         core::jigsawMOptions(), 43},
    };
    sim::NoisySimulator shared(dev, sim::NoisySimulatorOptions{.seed = 7});
    for (const Job &job : specs) {
        const core::SubsetPlan plan =
            core::planSubsets(job.circuit, job.trials, job.options);
        const core::CompiledJobs jobs =
            core::compileJobs(job.circuit, dev, plan, job.options);
        const core::ExecutionSchedule schedule = core::buildSchedule(jobs);

        Rng stream(job.seed);
        const core::ExecutionResult actual =
            core::executeSchedule(shared, jobs, schedule, plan, &stream);
        sim::NoisySimulator private_executor(
            dev, sim::NoisySimulatorOptions{.seed = job.seed});
        const core::ExecutionResult expected = core::executeSchedule(
            private_executor, jobs, schedule, plan);

        EXPECT_EQ(totalVariationDistance(expected.globalPmf,
                                         actual.globalPmf),
                  0.0);
        ASSERT_EQ(expected.cpmPmfs.size(), actual.cpmPmfs.size());
        for (std::size_t c = 0; c < expected.cpmPmfs.size(); ++c) {
            EXPECT_EQ(totalVariationDistance(expected.cpmPmfs[c],
                                             actual.cpmPmfs[c]),
                      0.0);
        }
    }
    // The two GHZ jobs share one logical program: evolved once.
    EXPECT_EQ(shared.batchStats().baseEvolutions, 2u);
}

TEST(Session, AdoptExecutionValidatesAndResumes)
{
    const device::DeviceModel dev = device::toronto();
    const circuit::QuantumCircuit qc = workloads::Ghz(6).circuit();
    sim::NoisySimulator executor(
        dev, sim::NoisySimulatorOptions{.seed = 5});

    // Reference: a session that executes normally.
    sim::NoisySimulator reference_executor(
        dev, sim::NoisySimulatorOptions{.seed = 5});
    core::JigsawSession reference(qc, dev, reference_executor, 8192);
    const JigsawResult expected = reference.run();

    // Adopting the reference's execution result reproduces its output
    // without this session's executor sampling anything.
    core::JigsawSession session(qc, dev, executor, 8192);
    core::ExecutionResult adopted;
    adopted.globalPmf = expected.globalPmf;
    for (const core::CpmRecord &cpm : expected.cpms)
        adopted.cpmPmfs.push_back(cpm.localPmf);
    session.adoptExecution(adopted);
    EXPECT_EQ(session.stage(), core::JigsawSession::Stage::Executed);
    const JigsawResult resumed = session.run();
    EXPECT_EQ(totalVariationDistance(expected.output, resumed.output),
              0.0);

    // A result that does not cover every CPM is rejected, as is
    // adopting over an already-executed session.
    core::JigsawSession fresh(qc, dev, executor, 8192);
    core::ExecutionResult wrong;
    wrong.globalPmf = expected.globalPmf;
    EXPECT_THROW(fresh.adoptExecution(wrong), std::invalid_argument);
    EXPECT_THROW(session.adoptExecution(adopted),
                 std::invalid_argument);
}

TEST(Pipeline, FromGlobalCpmsReuseTheGlobalGateSuccess)
{
    // Satellite: cpmFromGlobal must not recompute the gate-success
    // probability per subset — and the reused value must equal what a
    // fresh computation on the CPM circuit gives, since the gate
    // prefix is identical.
    const device::DeviceModel dev = device::toronto();
    const workloads::Ghz ghz(6);
    JigsawOptions options;
    options.recompileCpms = false;
    const core::SubsetPlan plan =
        core::planSubsets(ghz.circuit(), 8192, options);
    const core::CompiledJobs jobs =
        core::compileJobs(ghz.circuit(), dev, plan, options);
    for (const core::CpmJob &job : jobs.cpms) {
        EXPECT_EQ(job.compiled.gateSuccess, jobs.global.gateSuccess);
        EXPECT_EQ(job.compiled.gateSuccess,
                  sim::gateSuccessProbability(job.compiled.physical,
                                              dev));
    }
}

// ------------------------------------------- batched CPM recompilation

TEST(CpmRecompiler, MatchesFullTranspilePerSubset)
{
    // Every paper benchmark on both devices, every JigSaw-M subset
    // size, both selector modes: the batched recompiler must return
    // bit for bit what a full transpile of the CPM circuit returns.
    const auto suite = workloads::paperBenchmarks();
    for (const device::DeviceModel &dev :
         {device::toronto(), device::manhattan()}) {
        for (const auto &workload : suite) {
            const circuit::QuantumCircuit &logical = workload->circuit();
            for (bool noise_aware : {true, false}) {
                compiler::TranspileOptions options;
                options.noiseAware = noise_aware;
                const compiler::CompiledCircuit global =
                    compiler::transpile(logical, dev, options);
                compiler::TranspileOptions cpm_options = options;
                cpm_options.maxSwaps = global.swapCount;

                compiler::CpmRecompiler recompiler(logical, dev,
                                                   cpm_options);
                const std::vector<int> qubit_of_clbit =
                    logical.measuredQubits();
                for (int size : {2, 3, 4, 5}) {
                    for (const Subset &subset : core::slidingWindowSubsets(
                             logical.countMeasurements(), size)) {
                        std::vector<int> lqs;
                        for (int c : subset) {
                            lqs.push_back(qubit_of_clbit[
                                static_cast<std::size_t>(c)]);
                        }

                        const compiler::CompiledCircuit batched =
                            recompiler.recompile(lqs);
                        const compiler::CompiledCircuit reference =
                            compiler::transpile(
                                logical.withMeasurementSubset(lqs), dev,
                                cpm_options);
                        SCOPED_TRACE(workload->name() + " on " +
                                     dev.name() + " size " +
                                     std::to_string(size) + " aware " +
                                     std::to_string(noise_aware));
                        EXPECT_EQ(batched.physical.structuralHash(),
                                  reference.physical.structuralHash());
                        EXPECT_EQ(batched.initialLayout.logicalToPhysical(),
                                  reference.initialLayout
                                      .logicalToPhysical());
                        EXPECT_EQ(batched.finalLayout.logicalToPhysical(),
                                  reference.finalLayout.logicalToPhysical());
                        EXPECT_EQ(batched.swapCount, reference.swapCount);
                        EXPECT_EQ(batched.gateSuccess,
                                  reference.gateSuccess);
                        EXPECT_EQ(batched.measurementSuccess,
                                  reference.measurementSuccess);
                        EXPECT_EQ(batched.eps, reference.eps);
                    }
                }
                // Sharing must actually happen: the distance-only
                // placement family is measurement-independent, so
                // across a whole sliding-window sweep the routing memo
                // gets reused.
                EXPECT_GT(recompiler.routingsReused(), 0u);
            }
        }
    }
}

// ---------------------------------------------------- stage equivalence

TEST(StageEquivalence, SessionStagesMatchWrapperBitwise)
{
    const device::DeviceModel dev = device::toronto();
    const workloads::Ghz ghz(6);

    sim::NoisySimulator wrapper_exec(dev, {.seed = 11});
    const JigsawResult wrapper = core::runJigsaw(
        ghz.circuit(), dev, wrapper_exec, 8192, JigsawOptions{});

    // Same program, staged by hand with explicit artifact inspection
    // between stages; a fresh executor with the same seed must
    // reproduce every PMF bit for bit.
    sim::NoisySimulator staged_exec(dev, {.seed = 11});
    core::JigsawSession session(ghz.circuit(), dev, staged_exec, 8192,
                                JigsawOptions{});
    EXPECT_EQ(session.stage(), core::JigsawSession::Stage::Created);
    const core::SubsetPlan &plan = session.plan();
    EXPECT_EQ(session.stage(), core::JigsawSession::Stage::Planned);
    EXPECT_EQ(plan.globalTrials, wrapper.globalTrials);
    const core::CompiledJobs &jobs = session.compiled();
    EXPECT_EQ(session.stage(), core::JigsawSession::Stage::Compiled);
    EXPECT_EQ(jobs.global.physical.structuralHash(),
              wrapper.globalCompiled.physical.structuralHash());
    const core::ExecutionSchedule &schedule = session.schedule();
    EXPECT_EQ(session.stage(), core::JigsawSession::Stage::Scheduled);
    EXPECT_GE(schedule.groups.size(), 1u);
    const core::ExecutionResult &execution = session.executed();
    EXPECT_EQ(session.stage(), core::JigsawSession::Stage::Executed);
    expectBitwisePmf(wrapper.globalPmf, execution.globalPmf);
    session.output();
    EXPECT_EQ(session.stage(),
              core::JigsawSession::Stage::Reconstructed);

    const JigsawResult staged = session.run();
    expectBitwisePmf(wrapper.output, staged.output);
    ASSERT_EQ(wrapper.cpms.size(), staged.cpms.size());
    for (std::size_t i = 0; i < wrapper.cpms.size(); ++i) {
        EXPECT_EQ(wrapper.cpms[i].subset, staged.cpms[i].subset);
        EXPECT_EQ(wrapper.cpms[i].trials, staged.cpms[i].trials);
        expectBitwisePmf(wrapper.cpms[i].localPmf,
                         staged.cpms[i].localPmf);
    }
    EXPECT_EQ(wrapper.subsetTrials, staged.subsetTrials);
}

TEST(StageEquivalence, JigsawMSessionMatchesWrapper)
{
    const device::DeviceModel dev = device::toronto();
    const workloads::BernsteinVazirani bv(6);

    sim::NoisySimulator a(dev, {.seed = 21});
    const JigsawResult wrapper = core::runJigsaw(
        bv.circuit(), dev, a, 8192, core::jigsawMOptions());

    sim::NoisySimulator b(dev, {.seed = 21});
    core::JigsawSession session(bv.circuit(), dev, b, 8192,
                                core::jigsawMOptions());
    const JigsawResult staged = session.run();
    expectBitwisePmf(wrapper.output, staged.output);
    expectBitwisePmf(wrapper.globalPmf, staged.globalPmf);
}

} // namespace
} // namespace jigsaw
