/**
 * @file
 * JigsawSession: one program driven through the staged pipeline.
 *
 * A session owns the per-program pipeline state and advances lazily,
 * stage by stage — plan() -> compiled() -> schedule() -> executed() ->
 * output() — each accessor running every missing predecessor first.
 * Benches and ablations can stop at any stage and inspect the typed
 * artifact (e.g. time compilation alone, or swap the reconstruction
 * options after execution); runJigsaw() is simply run() on a fresh
 * session. Sessions are single-threaded objects: no two threads may
 * call into one session concurrently, but a session may be handed
 * from thread to thread between stages when the handoff is externally
 * synchronized — core::JigsawService runs whole sessions on pool
 * tasks, and core::StreamingScheduler advances one session on
 * different pool threads per stage (schedule on one, adoptExecution +
 * reconstruct on another) with its own mutex ordering the handoffs.
 * Stage accessors return references into the session; they stay valid
 * until the session is destroyed, which is what lets a worker-tier
 * request point at a session's artifacts (core/transport.h).
 */
#ifndef JIGSAW_CORE_SESSION_H
#define JIGSAW_CORE_SESSION_H

#include <cstdint>
#include <optional>

#include "core/pipeline.h"

namespace jigsaw {
namespace core {

class JigsawSession
{
  public:
    /** The pipeline stages, in order. */
    enum class Stage
    {
        Created,       ///< Nothing run yet.
        Planned,       ///< SubsetPlan ready.
        Compiled,      ///< CompiledJobs ready.
        Scheduled,     ///< ExecutionSchedule ready.
        Executed,      ///< ExecutionResult ready.
        Reconstructed, ///< Output PMF ready.
    };

    /**
     * The circuit, device, and options are copied so the session can
     * run asynchronously; @p executor is borrowed and must outlive the
     * session. With @p rng set (also borrowed), the execute stage
     * samples from that stream instead of the executor's internal
     * generator (see executeSchedule): how a job on a shared executor
     * keeps its own deterministic draws. Validation happens in the
     * planning stage, not here.
     */
    JigsawSession(circuit::QuantumCircuit logical,
                  device::DeviceModel dev, sim::Executor &executor,
                  std::uint64_t total_trials, JigsawOptions options = {},
                  Rng *rng = nullptr);

    /** Last completed stage. */
    Stage stage() const;

    /** @name Stage accessors (each runs missing predecessors).
     *  @{ */
    const SubsetPlan &plan();
    const CompiledJobs &compiled();
    const ExecutionSchedule &schedule();
    const ExecutionResult &executed();
    const Pmf &output();
    /** @} */

    /**
     * Resume from an externally produced execution stage: adopt
     * @p result as this session's ExecutionResult (advancing through
     * any missing earlier stages first) so reconstruction proceeds
     * without the session's executor ever sampling. This is how the
     * streaming scheduler hands a session the execution a worker ran
     * for it (core/worker.h). The result must cover every compiled
     * CPM (throws std::invalid_argument otherwise); adopting over an
     * already-executed session is rejected the same way.
     */
    void adoptExecution(ExecutionResult result);

    /** Run every remaining stage and assemble the JigsawResult. */
    JigsawResult run();

    /** The program this session runs. */
    const circuit::QuantumCircuit &logical() const { return logical_; }

    /** The device this session compiles for. */
    const device::DeviceModel &device() const { return dev_; }

  private:
    circuit::QuantumCircuit logical_;
    device::DeviceModel dev_;
    sim::Executor &executor_;
    std::uint64_t totalTrials_;
    JigsawOptions options_;
    Rng *rng_;

    std::optional<SubsetPlan> plan_;
    std::optional<CompiledJobs> jobs_;
    std::optional<ExecutionSchedule> schedule_;
    std::optional<ExecutionResult> execution_;
    std::optional<Pmf> output_;
};

} // namespace core
} // namespace jigsaw

#endif // JIGSAW_CORE_SESSION_H
