#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/fault.h"
#include "compiler/cpm_batch.h"
#include "sim/eps.h"

namespace jigsaw {
namespace core {

namespace {

/** Generate the run's subsets over @p n measured bit positions. */
std::vector<Subset>
generateSubsets(int n, const JigsawOptions &options)
{
    if (options.customSubsets) {
        validateSubsets(n, *options.customSubsets);
        return *options.customSubsets;
    }

    std::vector<Subset> subsets;
    Rng rng(options.seed);
    for (int size : options.subsetSizes) {
        fatalIf(size < 1 || size > n,
                "planSubsets: subset size out of range");
        std::vector<Subset> layer;
        switch (options.subsetMethod) {
          case SubsetMethod::SlidingWindow:
            layer = slidingWindowSubsets(n, size);
            break;
          case SubsetMethod::RandomCovering:
            layer = coveringRandomSubsets(n, size, rng);
            break;
        }
        subsets.insert(subsets.end(), layer.begin(), layer.end());
    }
    return subsets;
}

/**
 * Build the CPM for @p logical_qubits without recompilation: the
 * global compilation's physical circuit, measuring only the subset's
 * physical qubits (via the final layout). The gate prefix is the
 * global circuit's, so its success probability is reused instead of
 * being recomputed per subset; only the readout term is per-subset.
 */
compiler::CompiledCircuit
cpmFromGlobal(const compiler::CompiledCircuit &global,
              const std::vector<int> &logical_qubits,
              const device::DeviceModel &dev)
{
    std::vector<int> physical_qubits;
    physical_qubits.reserve(logical_qubits.size());
    for (int lq : logical_qubits)
        physical_qubits.push_back(global.finalLayout.physicalOf(lq));

    compiler::CompiledCircuit cpm{
        global.physical.withMeasurementSubset(physical_qubits),
        global.initialLayout,
        global.finalLayout,
        global.swapCount,
        0.0,
        0.0,
        0.0,
    };
    cpm.gateSuccess = global.gateSuccess;
    cpm.measurementSuccess =
        sim::measurementSuccessProbability(cpm.physical, dev);
    cpm.eps = cpm.gateSuccess * cpm.measurementSuccess;
    return cpm;
}

/**
 * The global circuit's spec: every clbit of @p jobs.global, bound to
 * the logical program (global clbit c is logical clbit c).
 */
sim::CpmSpec
globalSpec(const CompiledJobs &jobs, std::uint64_t shots)
{
    fatalIf(jobs.logical == nullptr,
            "globalSpec: CompiledJobs without its logical program");
    sim::CpmSpec spec{jobs.global.physical.measuredQubits(), shots};
    for (int q : spec.qubits)
        fatalIf(q < 0, "globalSpec: global with unused classical bit");
    spec.logical = jobs.logical;
    spec.clbits.resize(spec.qubits.size());
    std::iota(spec.clbits.begin(), spec.clbits.end(), 0);
    return spec;
}

/** @p specs, each sampling from @p rng. */
std::vector<sim::CpmSpec>
withStream(std::vector<sim::CpmSpec> specs, Rng *rng)
{
    for (sim::CpmSpec &spec : specs)
        spec.rng = rng;
    return specs;
}

} // namespace

SubsetPlan
planSubsets(const circuit::QuantumCircuit &logical,
            std::uint64_t total_trials, const JigsawOptions &options)
{
    // Stage fault points sit at entry: nothing is cached or sampled
    // yet, so an injected failure leaves no partial state behind.
    injectFaultPoint("stage.plan");
    fatalIf(total_trials < 2, "planSubsets: need at least two trials");
    fatalIf(options.globalFraction <= 0.0 || options.globalFraction >= 1.0,
            "planSubsets: globalFraction must be in (0, 1)");

    SubsetPlan plan;
    plan.nMeasured = logical.countMeasurements();
    fatalIf(plan.nMeasured < 2,
            "planSubsets: program must measure >= 2 qubits");
    plan.totalTrials = total_trials;
    plan.globalTrials = static_cast<std::uint64_t>(
        static_cast<double>(total_trials) * options.globalFraction);

    plan.subsets = generateSubsets(plan.nMeasured, options);
    fatalIf(plan.subsets.empty(), "planSubsets: no subsets generated");

    // Split the subset budget evenly, handing the integer-division
    // remainder to the first CPMs one trial each, so the run spends
    // exactly the budget it was given (globalTrials + subsetTrials ==
    // totalTrials whenever the budget covers one trial per CPM).
    const std::uint64_t subset_budget = total_trials - plan.globalTrials;
    const std::uint64_t per_cpm_base = subset_budget / plan.subsets.size();
    const std::uint64_t remainder = subset_budget % plan.subsets.size();
    plan.perCpmTrials.reserve(plan.subsets.size());
    for (std::size_t s = 0; s < plan.subsets.size(); ++s) {
        const std::uint64_t per_cpm = std::max<std::uint64_t>(
            1, per_cpm_base + (s < remainder ? 1 : 0));
        plan.perCpmTrials.push_back(per_cpm);
        plan.subsetTrials += per_cpm;
    }
    return plan;
}

CompiledJobs
compileJobs(const circuit::QuantumCircuit &logical,
            const device::DeviceModel &dev, const SubsetPlan &plan,
            const JigsawOptions &options)
{
    injectFaultPoint("stage.compile");
    // Map classical bit -> logical qubit for CPM construction.
    const std::vector<int> qubit_of_clbit = logical.measuredQubits();

    CompiledJobs jobs{
        std::make_shared<const sim::LogicalProgram>(logical),
        compiler::transpileCached(logical, dev, options.transpile),
        {},
        0,
        0};

    // CPM recompilation must not add SWAPs over the global schedule
    // (Section 4.2.2's "avoid extra SWAPs" rule).
    compiler::TranspileOptions cpm_options = options.transpile;
    cpm_options.maxSwaps = jobs.global.swapCount;

    // The batched recompiler routes each distinct placement of the
    // logical gate prefix once; created lazily so fully memoized runs
    // (every CPM already in the transpile cache) skip its setup too.
    std::optional<compiler::CpmRecompiler> recompiler;

    jobs.cpms.reserve(plan.subsets.size());
    for (std::size_t s = 0; s < plan.subsets.size(); ++s) {
        const Subset &subset = plan.subsets[s];
        std::vector<int> logical_qubits;
        logical_qubits.reserve(subset.size());
        for (int c : subset) {
            fatalIf(c < 0 || c >= plan.nMeasured,
                    "compileJobs: subset bit out of range");
            logical_qubits.push_back(
                qubit_of_clbit[static_cast<std::size_t>(c)]);
        }

        // Recompilation considers the global allocation as a candidate
        // too (the paper notes most CPMs can reuse existing
        // allocations), so a recompiled CPM never has a lower expected
        // probability of success than the global mapping would give.
        compiler::CompiledCircuit compiled =
            cpmFromGlobal(jobs.global, logical_qubits, dev);
        bool reused_global = true;
        if (options.recompileCpms) {
            compiler::CompiledCircuit recompiled =
                compiler::transpileCachedVia(
                    logical.withMeasurementSubset(logical_qubits), dev,
                    cpm_options, [&] {
                        if (!recompiler) {
                            recompiler.emplace(logical, dev,
                                               cpm_options);
                        }
                        return recompiler->recompile(logical_qubits);
                    });
            if (recompiled.eps > compiled.eps) {
                compiled = std::move(recompiled);
                reused_global = false;
            }
        }

        jobs.cpms.push_back({subset, std::move(logical_qubits),
                             std::move(compiled), reused_global,
                             plan.perCpmTrials[s]});
    }
    if (recompiler) {
        jobs.cpmRoutingsComputed = recompiler->routingsComputed();
        jobs.cpmRoutingsReused = recompiler->routingsReused();
    }
    return jobs;
}

ExecutionSchedule
buildSchedule(const CompiledJobs &jobs)
{
    // Group by shared gate prefix. All CPMs that kept the global
    // mapping share one group batched against the global physical
    // circuit itself, which keeps the executor's PMF-cache keys
    // identical to per-CPM execution; recompiled CPMs group together
    // whenever recompilation chose the same layout/routing.
    ExecutionSchedule schedule;
    std::unordered_map<std::uint64_t, std::size_t> group_of;
    for (std::size_t i = 0; i < jobs.cpms.size(); ++i) {
        const CpmJob &cpm = jobs.cpms[i];
        const std::uint64_t prefix_hash =
            cpm.compiled.physical.withoutMeasurements().structuralHash();
        const auto [it, inserted] =
            group_of.emplace(prefix_hash, schedule.groups.size());
        if (inserted)
            schedule.groups.push_back(
                {cpm.fromGlobal, i, prefix_hash, {}, {}});
        std::vector<int> measured = cpm.compiled.physical.measuredQubits();
        for (int q : measured)
            fatalIf(q < 0, "buildSchedule: CPM with unused classical bit");
        ExecutionSchedule::Group &group = schedule.groups[it->second];
        group.specs.push_back({std::move(measured), cpm.trials, nullptr,
                               jobs.logical, cpm.subset});
        group.members.push_back(i);
    }
    return schedule;
}

ExecutionResult
executeSchedule(sim::Executor &executor, const CompiledJobs &jobs,
                const ExecutionSchedule &schedule, const SubsetPlan &plan,
                Rng *rng)
{
    ExecutionResult result;
    sim::CpmSpec global = globalSpec(jobs, plan.globalTrials);
    global.rng = rng;
    result.globalPmf = executor.run(jobs.global.physical, global).toPmf();

    result.cpmPmfs.assign(jobs.cpms.size(), Pmf(1));
    for (const ExecutionSchedule::Group &group : schedule.groups) {
        const circuit::QuantumCircuit &base =
            group.usesGlobal ? jobs.global.physical
                             : jobs.cpms[group.baseCpm].compiled.physical;
        const std::vector<Histogram> hists =
            rng == nullptr ? executor.runBatch(base, group.specs)
                           : executor.runBatch(base, withStream(group.specs,
                                                                rng));
        for (std::size_t j = 0; j < group.members.size(); ++j)
            result.cpmPmfs[group.members[j]] = hists[j].toPmf();
    }
    return result;
}

ReconstructionInput
buildReconstructionInput(const CompiledJobs &jobs,
                         const ExecutionResult &result)
{
    panicIf(result.cpmPmfs.size() != jobs.cpms.size(),
            "buildReconstructionInput: execution/compilation mismatch");
    ReconstructionInput input;
    input.globalPmf = result.globalPmf;
    input.marginals.reserve(jobs.cpms.size());
    for (std::size_t i = 0; i < jobs.cpms.size(); ++i)
        input.marginals.push_back(
            {result.cpmPmfs[i], jobs.cpms[i].subset});
    return input;
}

Pmf
reconstructOutput(const ReconstructionInput &input,
                  const ReconstructionOptions &options)
{
    injectFaultPoint("stage.reconstruct");
    // multiLayerReconstruct applies marginals grouped by size, top
    // down; with a single size it reduces to plain reconstruction.
    return multiLayerReconstruct(input.globalPmf, input.marginals,
                                 options);
}

} // namespace core
} // namespace jigsaw
