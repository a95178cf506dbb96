#include "core/pipeline.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>

#include "common/error.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/parallel.h"
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
                const ExecutionSchedule &schedule, const SubsetPlan &plan)
{
    ExecutionResult result;
    result.globalPmf =
        executor.run(jobs.global.physical, globalSpec(jobs, plan.globalTrials))
            .toPmf();

    result.cpmPmfs.assign(jobs.cpms.size(), Pmf(1));
    for (const ExecutionSchedule::Group &group : schedule.groups) {
        const circuit::QuantumCircuit &base =
            group.usesGlobal ? jobs.global.physical
                             : jobs.cpms[group.baseCpm].compiled.physical;
        const std::vector<Histogram> hists =
            executor.runBatch(base, group.specs);
        for (std::size_t j = 0; j < group.members.size(); ++j)
            result.cpmPmfs[group.members[j]] = hists[j].toPmf();
    }
    return result;
}

namespace {

/** Mix two 64-bit keys into one (order-sensitive). */
inline std::uint64_t
combineKeys(std::uint64_t a, std::uint64_t b)
{
    return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

/** The base circuit a schedule group batches against. */
const circuit::QuantumCircuit &
groupBase(const MergeSource &src, const ExecutionSchedule::Group &group)
{
    return group.usesGlobal ? src.jobs->global.physical
                            : src.jobs->cpms[group.baseCpm].compiled.physical;
}

/**
 * One merged group flattened into a single runBatch call: the base
 * circuit, the shared executor, every member spec tagged with its
 * source's program and rng, and per-spec (source, CPM index) origins
 * for splitting the histograms back.
 */
struct MergedDispatch
{
    const circuit::QuantumCircuit *base = nullptr;
    sim::Executor *executor = nullptr;
    std::vector<sim::CpmSpec> specs;
    /** (source index, CPM index) per spec. */
    std::vector<std::pair<std::size_t, std::size_t>> origin;
};

MergedDispatch
buildMergedDispatch(const std::vector<MergeSource> &sources,
                    const std::vector<MergedSchedule::Member> &members)
{
    panicIf(members.empty(), "merged group without members");
    MergedDispatch dispatch;
    const MergeSource &first = sources[members.front().source];
    dispatch.base =
        &groupBase(first, first.schedule->groups[members.front().group]);
    dispatch.executor = first.executor;
    for (const MergedSchedule::Member &member : members) {
        const MergeSource &src = sources[member.source];
        panicIf(src.executor != dispatch.executor,
                "merged group spans executors");
        const ExecutionSchedule::Group &group =
            src.schedule->groups[member.group];
        for (std::size_t j = 0; j < group.specs.size(); ++j) {
            sim::CpmSpec spec = group.specs[j];
            spec.rng = src.rng;
            dispatch.specs.push_back(std::move(spec));
            dispatch.origin.push_back({member.source, group.members[j]});
        }
    }
    return dispatch;
}

} // namespace

std::size_t
MergedSchedule::crossProgramGroups() const
{
    std::size_t count = 0;
    for (const Group &group : groups) {
        for (std::size_t m = 1; m < group.members.size(); ++m) {
            if (group.members[m].source != group.members[0].source) {
                ++count;
                break;
            }
        }
    }
    return count;
}

void
mergeSourceInto(MergedSchedule &merged,
                const std::vector<MergeSource> &sources, std::size_t s)
{
    panicIf(s >= sources.size(), "mergeSourceInto: source out of range");
    const MergeSource &src = sources[s];
    panicIf(src.jobs == nullptr || src.jobs->logical == nullptr ||
                src.schedule == nullptr || src.plan == nullptr ||
                src.executor == nullptr || src.rng == nullptr,
            "mergeSourceInto: incomplete source");
    fatalIf(!src.executor->supportsExternalSampling(),
            "mergeSourceInto: executor does not support external "
            "sampling streams");
    for (std::size_t g = 0; g < src.schedule->groups.size(); ++g) {
        const ExecutionSchedule::Group &group = src.schedule->groups[g];
        // Exact-match scan: group counts stay small (a handful per
        // program), and comparing (deviceKey, prefixHash) directly
        // sidesteps combined-key collisions entirely.
        std::size_t idx = merged.groups.size();
        for (std::size_t m = 0; m < merged.groups.size(); ++m) {
            if (merged.groups[m].deviceKey == src.deviceKey &&
                merged.groups[m].prefixHash == group.prefixHash) {
                idx = m;
                break;
            }
        }
        if (idx == merged.groups.size())
            merged.groups.push_back({src.deviceKey, group.prefixHash, {}});
        merged.groups[idx].members.push_back({s, g});
    }
}

std::size_t
removeSourceFrom(MergedSchedule &merged, std::size_t s)
{
    std::size_t removed = 0;
    for (MergedSchedule::Group &group : merged.groups) {
        const std::size_t before = group.members.size();
        std::erase_if(group.members,
                      [s](const MergedSchedule::Member &member) {
                          return member.source == s;
                      });
        removed += before - group.members.size();
    }
    std::erase_if(merged.groups, [](const MergedSchedule::Group &group) {
        return group.members.empty();
    });
    return removed;
}

std::vector<ExecutionResult>
executeMergedSchedules(const std::vector<MergeSource> &sources,
                       const MergedSchedule &merged,
                       MergedExecutionStats *stats)
{
    // The detail string is the enabled-source count, so a fault spec
    // can poison multi-program windows ("merge.execute@2") while
    // letting the quarantined single-source retries through.
    std::size_t enabled_sources = 0;
    for (const MergeSource &source : sources) {
        if (source.enabled)
            ++enabled_sources;
    }
    injectFaultPoint("merge.execute", std::to_string(enabled_sources));
    {
        static log::Logger &lg = log::logger("core.pipeline");
        JIGSAW_LOG_DEBUG(lg, "executing merged schedule",
                         log::kv("sources", enabled_sources),
                         log::kv("groups", merged.groups.size()));
    }
    std::vector<ExecutionResult> results(sources.size());
    for (const MergedSchedule::Group &group : merged.groups) {
        for (const MergedSchedule::Member &member : group.members) {
            panicIf(!sources[member.source].enabled,
                    "executeMergedSchedules: merged group references a "
                    "disabled source (removeSourceFrom not called?)");
        }
    }

    // Warm-up: prepare each distinct global spec and each merged
    // group's specs concurrently. All of it is deterministic,
    // shot-independent cache population; no randomness is consumed,
    // so the ordered sampling pass below stays exact. Tasks of one
    // logical program share its single evolution (the executor makes
    // concurrent first lookups wait on it).
    {
        TaskGroup warm;
        std::unordered_map<std::uint64_t, char> seen;
        for (const MergeSource &src : sources) {
            if (!src.enabled)
                continue;
            const std::uint64_t key = combineKeys(
                combineKeys(src.deviceKey,
                            src.jobs->global.physical.structuralHash()),
                src.jobs->logical->hash);
            if (!seen.emplace(key, 1).second)
                continue;
            warm.run([source = &src] {
                source->executor->prepareBatch(
                    source->jobs->global.physical,
                    {globalSpec(*source->jobs, source->plan->globalTrials)});
            });
        }
        for (const MergedSchedule::Group &group : merged.groups) {
            warm.run([&sources, members = &group.members] {
                const MergedDispatch dispatch =
                    buildMergedDispatch(sources, *members);
                dispatch.executor->prepareBatch(*dispatch.base,
                                                dispatch.specs);
            });
        }
        warm.wait();
    }

    // Sampling pass 1: globals, in source order. Every draw comes
    // from the source's private stream, so cross-source order is
    // immaterial; within a source this is its first sampling, exactly
    // as in executeSchedule. Sources sharing a (device, global
    // circuit) pair pool their bound global specs into one
    // multi-program runBatch: a spec keys the same in runBatch as in
    // run(), so the pooled draws are bit-for-bit the draws
    // executeSchedule's run() would make.
    {
        std::vector<std::vector<std::size_t>> pools; ///< Source indices.
        std::unordered_map<std::uint64_t, std::size_t> pool_of;
        for (std::size_t s = 0; s < sources.size(); ++s) {
            if (!sources[s].enabled)
                continue;
            const std::uint64_t key = combineKeys(
                sources[s].deviceKey,
                sources[s].jobs->global.physical.structuralHash());
            const auto [it, inserted] = pool_of.emplace(key, pools.size());
            if (inserted)
                pools.emplace_back();
            pools[it->second].push_back(s);
        }
        const auto specOf = [&sources](std::size_t s) {
            const MergeSource &src = sources[s];
            sim::CpmSpec spec = globalSpec(*src.jobs, src.plan->globalTrials);
            spec.rng = src.rng;
            return spec;
        };
        for (const std::vector<std::size_t> &pool : pools) {
            const MergeSource &first = sources[pool.front()];
            const circuit::QuantumCircuit &global =
                first.jobs->global.physical;
            bool poolable = pool.size() >= 2;
            // The pool key is a combined hash; re-check the actual
            // (executor, device, circuit) identity so a collision —
            // or hand-built sources mixing executors — degrades to
            // the per-source path instead of batching foreign specs.
            for (std::size_t s : pool) {
                poolable =
                    poolable && sources[s].executor == first.executor &&
                    sources[s].deviceKey == first.deviceKey &&
                    sources[s].jobs->global.physical.structuralHash() ==
                        global.structuralHash();
            }
            if (!poolable) {
                for (std::size_t s : pool) {
                    results[s].globalPmf =
                        sources[s]
                            .executor
                            ->run(sources[s].jobs->global.physical, specOf(s))
                            .toPmf();
                }
                continue;
            }
            std::vector<sim::CpmSpec> specs;
            specs.reserve(pool.size());
            for (std::size_t s : pool)
                specs.push_back(specOf(s));
            const std::vector<Histogram> hists =
                first.executor->runBatch(global, specs);
            for (std::size_t k = 0; k < pool.size(); ++k)
                results[pool[k]].globalPmf = hists[k].toPmf();
            if (stats != nullptr) {
                ++stats->pooledGlobalBatches;
                stats->pooledGlobalPrograms += pool.size();
            }
        }
    }
    for (std::size_t s = 0; s < sources.size(); ++s) {
        if (sources[s].enabled)
            results[s].cpmPmfs.assign(sources[s].jobs->cpms.size(),
                                      Pmf(1));
    }

    // Sampling pass 2: merged groups, each one runBatch, in an order
    // that preserves every source's own group order (a source's draws
    // must land in its stream exactly as executeSchedule would issue
    // them). Greedy sweeps dispatch any group whose members are all
    // their source's next unexecuted group; when sources disagree on
    // prefix order (possible with differing subset options), a sweep
    // can stall — then the first group with ready members dispatches
    // just those, preserving per-source order at the cost of one
    // extra batch.
    std::vector<std::size_t> next(sources.size(), 0);
    std::vector<std::vector<MergedSchedule::Member>> pending;
    pending.reserve(merged.groups.size());
    std::size_t remaining = 0;
    for (const MergedSchedule::Group &group : merged.groups) {
        pending.push_back(group.members);
        remaining += group.members.size();
    }
    const auto dispatchMembers =
        [&](const std::vector<MergedSchedule::Member> &members) {
            const MergedDispatch dispatch =
                buildMergedDispatch(sources, members);
            const std::vector<Histogram> hists =
                dispatch.executor->runBatch(*dispatch.base,
                                            dispatch.specs);
            for (std::size_t k = 0; k < hists.size(); ++k) {
                results[dispatch.origin[k].first]
                    .cpmPmfs[dispatch.origin[k].second] =
                    hists[k].toPmf();
            }
            for (const MergedSchedule::Member &member : members)
                next[member.source] = member.group + 1;
            remaining -= members.size();
        };
    const auto isReady = [&](const MergedSchedule::Member &member) {
        return next[member.source] == member.group;
    };
    while (remaining > 0) {
        bool progress = false;
        for (std::vector<MergedSchedule::Member> &members : pending) {
            if (members.empty())
                continue;
            if (!std::all_of(members.begin(), members.end(), isReady))
                continue;
            dispatchMembers(members);
            members.clear();
            progress = true;
        }
        if (progress)
            continue;
        // Order conflict: dispatch the ready members of the first
        // blocked group. At least one pending member is ready (every
        // source's next group is pending somewhere).
        for (std::vector<MergedSchedule::Member> &members : pending) {
            std::vector<MergedSchedule::Member> ready;
            for (const MergedSchedule::Member &member : members) {
                if (isReady(member))
                    ready.push_back(member);
            }
            if (ready.empty())
                continue;
            std::erase_if(members, [&](const auto &member) {
                return isReady(member);
            });
            dispatchMembers(ready);
            progress = true;
            break;
        }
        panicIf(!progress, "executeMergedSchedules: dispatch stalled");
    }
    return results;
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
