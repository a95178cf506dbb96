/**
 * @file
 * Transport: the typed execution-backend seam of the streaming
 * scheduler's worker tier.
 *
 * A job's execute stage is a self-contained unit: its compiled
 * artifacts and its executorSeed in, one ExecutionResult back into
 * JigsawSession::adoptExecution. So the scheduler can hand it to a
 * remote executor without touching the pipeline. This header models
 * that hand-off as two explicit port/queue edges, modeled on the typed
 * node/port dataflow idiom rather than ad-hoc calls:
 *
 *     scheduler --send(ExecutionRequest)--> [request queue] --> workers
 *     workers --push(ExecutionResponse)--> [response queue] --tryRecv-->
 *
 * The envelopes are value types: everything a worker needs travels IN
 * the request (the job's artifacts, the executorSeed it rebuilds the
 * draw stream from, the device model executors are built for), and
 * everything the scheduler needs travels back in the response (the
 * ExecutionResult, or a serialized error). A real network transport
 * would serialize exactly these fields; the in-process implementation
 * (core/worker.h) stands in for the wire with shared ownership: the
 * artifact pointers stay valid because the request retains the owning
 * session, which is the in-proc analogue of the serialized payload
 * owning its bytes.
 *
 * Lease protocol: the scheduler dispatches each job under a lease
 * (id, deadline, heartbeat interval) and supervises it — a worker
 * that stops heartbeating (died) or a lease that outlives its
 * deadline (stalled worker, lost response) is revoked and the job
 * re-dispatched; the transport only promises at-most-once delivery of
 * each response to tryRecv(), never execution. Duplicate executions
 * are harmless by construction: every draw comes from a per-request
 * Rng(executorSeed) stream, so any worker, any number of times,
 * produces bitwise-identical results (core/worker.h documents the
 * argument).
 *
 * Fault points: transport.send fires inside send() (the request never
 * reaches the fleet), transport.recv fires inside tryRecv() AFTER the
 * response left the queue (the response is lost in flight; the lease
 * deadline recovers the job). Both plug into JIGSAW_FAULT_SPEC.
 */
#ifndef JIGSAW_CORE_TRANSPORT_H
#define JIGSAW_CORE_TRANSPORT_H

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/session.h"
#include "device/device_model.h"

namespace jigsaw {
namespace core {

/**
 * Request envelope: one job's execute stage dispatched to the worker
 * tier under one lease. It carries no executor and no draw stream:
 * the serving worker binds its own per-device executor plus a fresh
 * Rng(seed), so the job's own stream on the scheduler side is never
 * consumed by remote attempts (what makes lost-lease re-dispatch and
 * local fallback replay the identical draws).
 */
struct ExecutionRequest
{
    std::uint64_t leaseId = 0;
    /** Heartbeat interval the lease was granted under: the worker
     *  fleet must beat at least this often to be considered alive. */
    double heartbeatMs = 0.0;
    /** The job's device; workers build their per-device executors
     *  from this model, keyed by deviceKey. */
    std::shared_ptr<const device::DeviceModel> device;
    std::uint64_t deviceKey = 0; ///< device::DeviceModel::fingerprint().
    /** @name The job's immutable artifacts (owned by session). @{ */
    const CompiledJobs *jobs = nullptr;
    const ExecutionSchedule *schedule = nullptr;
    const SubsetPlan *plan = nullptr;
    /** @} */
    std::uint64_t seed = 0; ///< The job's executorSeed (draw stream).
    /**
     * In-process stand-in for payload ownership: the session the
     * artifact pointers reference. A revoked lease's worker may still
     * be reading them when the scheduler finishes the job another
     * way; retaining the session here keeps that read valid until the
     * stale request itself is destroyed.
     */
    std::shared_ptr<JigsawSession> session;
};

/**
 * Response envelope: one lease's outcome. Errors travel serialized
 * (message + transient flag) rather than as exception_ptr — exactly
 * what a wire format could carry — and the scheduler reconstructs the
 * taxonomy (TransientError vs terminal) on its side.
 */
struct ExecutionResponse
{
    std::uint64_t leaseId = 0;
    std::size_t worker = 0; ///< Index of the worker that served it.
    bool ok = false;
    bool transientError = false; ///< isTransient() of the failure.
    std::string errorMessage;    ///< Non-empty when !ok.
    ExecutionResult result;      ///< Valid only when ok.
    /** Wall milliseconds the worker spent executing the job —
     *  measured at the worker so the scheduler's "execute" trace
     *  spans (obs/trace.h) reflect remote work, not queueing. */
    double executeMs = 0.0;
};

/**
 * The execution-backend seam. Implementations own a worker fleet (or
 * a connection to one); the scheduler owns the lease bookkeeping and
 * never blocks on the transport — send() enqueues, tryRecv() polls,
 * and setResponseSignal() installs the doorbell that wakes the
 * scheduler's dispatcher when a response lands.
 *
 * Thread-safety: all methods may be called concurrently; the signal
 * callback may fire from any worker thread.
 */
class Transport
{
  public:
    virtual ~Transport() = default;

    /**
     * Enqueue @p request toward the fleet (the scheduler->worker
     * edge). Throws when the request cannot be delivered (including
     * an injected transport.send fault); the caller treats any throw
     * as a lost lease.
     */
    virtual void send(ExecutionRequest request) = 0;

    /**
     * Pop one completed response (the worker->scheduler edge), or
     * std::nullopt when the queue is empty. May throw AFTER removing
     * a response from the queue (an injected transport.recv fault):
     * that response is lost in flight, and the scheduler's lease
     * deadline recovers the job.
     */
    virtual std::optional<ExecutionResponse> tryRecv() = 0;

    /** Install (or clear, with nullptr) the callback invoked whenever
     *  a response becomes available. */
    virtual void setResponseSignal(std::function<void()> signal) = 0;

    /** Fleet size, dead workers included. */
    virtual std::size_t workerCount() const = 0;

    /** Workers currently alive (heartbeating). */
    virtual std::size_t liveWorkers() const = 0;

    /**
     * Milliseconds since the worker holding @p lease_id last
     * heartbeat, or std::nullopt while no worker holds it (still
     * queued, already completed, or revoked). The scheduler's lease
     * supervision compares this against heartbeatTimeoutMs to detect
     * worker death.
     */
    virtual std::optional<double>
    msSinceHeartbeat(std::uint64_t lease_id) const = 0;

    /**
     * Revoke @p lease_id: drop its request if still queued and forget
     * its worker assignment. A worker already executing it is NOT
     * interrupted (an in-process thread cannot be safely killed, and
     * a remote worker may be unreachable); its late response is
     * delivered normally and the scheduler discards it as stale.
     */
    virtual void revoke(std::uint64_t lease_id) = 0;
};

/** Reconstruct a failed response's error as the exception the
 *  scheduler's retry taxonomy understands (TransientError when the
 *  response says transient, std::runtime_error otherwise). */
std::exception_ptr responseError(const ExecutionResponse &response);

/** Envelope invariants every implementation may assume: device and
 *  every artifact set. Panics (internal error) on violation — the
 *  scheduler builds requests, so a bad envelope is a bug, not user
 *  input. */
void validateRequest(const ExecutionRequest &request);

} // namespace core
} // namespace jigsaw

#endif // JIGSAW_CORE_TRANSPORT_H
