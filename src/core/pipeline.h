/**
 * @file
 * The JigSaw run decomposed into explicit stages with typed artifacts.
 *
 * The paper's flow (Section 4) is a pipeline — subset planning, CPM
 * compilation, execution, Bayesian reconstruction — and each stage
 * here is an independently callable function producing an artifact the
 * next stage consumes:
 *
 *     planSubsets        -> SubsetPlan        (what to measure, budget)
 *     compileJobs        -> CompiledJobs      (global + CPM circuits)
 *     buildSchedule      -> ExecutionSchedule (prefix-grouped batches)
 *     executeSchedule    -> ExecutionResult   (global + CPM PMFs)
 *     buildReconstructionInput / reconstructOutput -> output PMF
 *
 * core::JigsawSession drives the stages for one program (resumable,
 * artifacts inspectable for benches and ablations); runJigsaw() is a
 * thin wrapper over a session; core::JigsawService schedules many
 * sessions concurrently, each executing its own schedule. Keeping the stages free functions means each
 * is independently swappable — a different subset planner or a
 * sharded reconstruction backend plugs in without touching the rest.
 */
#ifndef JIGSAW_CORE_PIPELINE_H
#define JIGSAW_CORE_PIPELINE_H

#include <cstdint>
#include <memory>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/transpiler.h"
#include "core/jigsaw.h"
#include "device/device_model.h"
#include "sim/simulators.h"

namespace jigsaw {
namespace core {

/**
 * Stage 1 artifact: the run's subsets and its trial budget split.
 * Pure planning — no compilation or execution state.
 */
struct SubsetPlan
{
    int nMeasured = 0;              ///< Measured bit positions (clbits).
    std::uint64_t totalTrials = 0;  ///< The full budget.
    std::uint64_t globalTrials = 0; ///< Trials spent in global mode.
    std::uint64_t subsetTrials = 0; ///< Sum of perCpmTrials.
    std::vector<Subset> subsets;    ///< One subset per CPM.
    /** Trials per CPM (parallel to subsets; remainder-adjusted, >=1). */
    std::vector<std::uint64_t> perCpmTrials;
};

/**
 * Plan the subsets and trial split for @p logical under @p options.
 * Validates the budget, the global fraction, and — for
 * options.customSubsets — that every subset is non-empty with unique,
 * in-range bit positions (throws std::invalid_argument otherwise).
 */
SubsetPlan planSubsets(const circuit::QuantumCircuit &logical,
                       std::uint64_t total_trials,
                       const JigsawOptions &options);

/** Stage 2 artifact: one compiled CPM with its trial share. */
struct CpmJob
{
    Subset subset;                  ///< Measured bit positions.
    std::vector<int> logicalQubits; ///< Logical qubit per subset bit.
    compiler::CompiledCircuit compiled; ///< The CPM's compilation.
    bool fromGlobal = false; ///< Kept the global mapping (no recompile).
    std::uint64_t trials = 0;
};

/** Stage 2 artifact: the global compilation plus every CPM job. */
struct CompiledJobs
{
    /**
     * The measured logical program. Every schedule spec binds to it,
     * so an executor evolves the program once per job and folds the
     * global's and each CPM's ideal distribution from that one PMF;
     * the compiled circuits supply only the noise.
     */
    std::shared_ptr<const sim::LogicalProgram> logical;
    compiler::CompiledCircuit global;
    std::vector<CpmJob> cpms; ///< Parallel to SubsetPlan::subsets.
    /** @name Batched-recompilation counters (this compile stage).
     *  @{ */
    std::uint64_t cpmRoutingsComputed = 0; ///< Distinct layouts routed.
    std::uint64_t cpmRoutingsReused = 0;   ///< Candidates off the memo.
    /** @} */
};

/**
 * Compile the global circuit (process-wide transpile memo) and every
 * CPM of @p plan. CPMs keep the global mapping (sharing its routed
 * prefix and gate-success probability) unless recompilation finds a
 * strictly better EPS; recompilation runs through the batched
 * CpmRecompiler, which routes each distinct placement once per
 * logical circuit, and lands in the same process-wide memo as
 * transpileCached so repeated runs skip it entirely.
 */
CompiledJobs compileJobs(const circuit::QuantumCircuit &logical,
                         const device::DeviceModel &dev,
                         const SubsetPlan &plan,
                         const JigsawOptions &options);

/**
 * Stage 3 artifact: CPMs grouped by shared gate prefix, one executor
 * batch per group. Every spec is bound to the job's logical program
 * (CpmSpec::logical, with the CPM's subset as its clbits), so however
 * many groups recompilation produced, a simulator evolves the program
 * once and folds each member's ideal marginal from it.
 */
struct ExecutionSchedule
{
    struct Group
    {
        /** Batch against the global physical circuit (all CPMs that
         *  kept the global mapping — keeps the executor's PMF-cache
         *  keys identical to per-CPM execution). */
        bool usesGlobal = false;
        /** When !usesGlobal: CPM index whose compilation is the base. */
        std::size_t baseCpm = 0;
        /** Structural hash of the shared gate prefix (the base
         *  circuit without its measurements): the grouping key. */
        std::uint64_t prefixHash = 0;
        std::vector<sim::CpmSpec> specs; ///< Parallel to members.
        std::vector<std::size_t> members; ///< CPM indices, plan order.
    };
    std::vector<Group> groups;
};

/**
 * Group @p jobs by shared gate prefix (structural hash, measureless)
 * and bind every spec to @p jobs.logical.
 */
ExecutionSchedule buildSchedule(const CompiledJobs &jobs);

/** Stage 3 output: every observed PMF. */
struct ExecutionResult
{
    Pmf globalPmf = Pmf(1); // placeholder until executed
    std::vector<Pmf> cpmPmfs; ///< Parallel to CompiledJobs::cpms.
};

/**
 * Run global mode then every batch group of @p schedule against
 * @p executor. The global is one Executor::run of a spec measuring
 * every clbit of the global circuit, bound to the logical program like
 * the CPM specs. Dispatch order (global first, groups in first-member
 * order) is fixed so a seeded executor's draw stream — and therefore
 * the whole run — is deterministic.
 *
 * With @p rng set, every spec samples from that stream (CpmSpec::rng)
 * instead of the executor's internal generator. A job on an executor
 * shared with other jobs passes its private Rng(seed) here: every
 * cached entry is a deterministic function of (logical program,
 * clbits, circuit, device), so its draws — and its result — are
 * bitwise those of a private executor seeded the same way. The caller
 * must hold @p rng exclusively for the call.
 */
ExecutionResult executeSchedule(sim::Executor &executor,
                                const CompiledJobs &jobs,
                                const ExecutionSchedule &schedule,
                                const SubsetPlan &plan,
                                Rng *rng = nullptr);

/** Stage 4 input: the prior and the evidence, nothing else. */
struct ReconstructionInput
{
    Pmf globalPmf = Pmf(1); // placeholder until executed
    std::vector<Marginal> marginals;
};

/** Pair each CPM's observed PMF with its subset. */
ReconstructionInput buildReconstructionInput(const CompiledJobs &jobs,
                                             const ExecutionResult &result);

/** Multi-layer Bayesian reconstruction of the output PMF. */
Pmf reconstructOutput(const ReconstructionInput &input,
                      const ReconstructionOptions &options);

} // namespace core
} // namespace jigsaw

#endif // JIGSAW_CORE_PIPELINE_H
