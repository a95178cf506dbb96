/**
 * @file
 * WorkerPool + InProcTransport: the in-process worker fleet behind
 * the Transport seam (core/transport.h).
 *
 * Each worker is one dedicated thread simulating a remote worker
 * process: it pulls ExecutionRequests off a shared queue, binds the
 * request to its OWN per-device executor (built from the request's
 * device model, cached per worker so recurring circuits keep warm
 * evolution caches, like the scheduler's shared executors) and a
 * fresh Rng(seed) draw stream, runs the regular executeSchedule path
 * and pushes the result back as an ExecutionResponse.
 *
 * Bitwise determinism across the fleet: every cached executor entry
 * is a deterministic function of (circuit, device) and every random
 * draw comes from the request's Rng(executorSeed) stream, so WHICH
 * worker serves a job — or how many times it executes after
 * lost-lease re-dispatch — never changes its result. That is the
 * property that lets the worker tier run in CI under the same
 * bitwise-vs-sequential tests as local execution (tests/
 * test_worker.cpp).
 *
 * Failure model (simulated worker-process death, driven by the
 * JIGSAW_FAULT_SPEC behavioral sites):
 *
 *  - worker.crash: the worker thread exits at request pickup without
 *    responding and its heartbeat stops — the scheduler's lease
 *    supervision sees the missed heartbeats and revokes. The worker
 *    never returns to the fleet (liveWorkers() drops).
 *  - worker.stall@ms: the worker sleeps ms before executing but keeps
 *    heartbeating — only the lease deadline catches it. Its late
 *    response is delivered normally and discarded as stale; the
 *    worker itself returns to the fleet healthy.
 *
 * Heartbeats are emitted by one pool-owned heartbeater thread on
 * behalf of every live worker (the analogue of a worker daemon's
 * process-level heartbeat, which beats while the process lives even
 * when its execution thread is busy) at WorkerOptions::heartbeatMs.
 */
#ifndef JIGSAW_CORE_WORKER_H
#define JIGSAW_CORE_WORKER_H

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/service.h"
#include "core/transport.h"

namespace jigsaw {
namespace sim {
class Executor;
}
namespace core {

/** The fleet: N worker threads over shared request/response queues,
 *  plus the heartbeater. See the file comment for the model. */
class WorkerPool
{
  public:
    explicit WorkerPool(WorkerOptions options);

    /** Joins every thread; queued requests are dropped (their
     *  retained sessions die with them). */
    ~WorkerPool();

    WorkerPool(const WorkerPool &) = delete;
    WorkerPool &operator=(const WorkerPool &) = delete;

    void submit(ExecutionRequest request);
    std::optional<ExecutionResponse> tryPop();
    void setResponseSignal(std::function<void()> signal);
    std::size_t workerCount() const;
    std::size_t liveWorkers() const;
    std::optional<double> msSinceHeartbeat(std::uint64_t lease_id) const;
    void revoke(std::uint64_t lease_id);

  private:
    /** Per-worker state. Heartbeat/liveness are atomics (heartbeater
     *  and supervision poke them lock-free); the executor cache is
     *  touched only by the owning worker thread. */
    struct WorkerState
    {
        std::atomic<std::int64_t> lastBeatNs{0};
        std::atomic<bool> alive{true};
        /** This worker's per-device executors, keyed like the
         *  scheduler's sharedExecutors_ (DeviceModel::fingerprint). */
        std::unordered_map<std::uint64_t,
                           std::shared_ptr<sim::Executor>>
            executors;
    };

    void workerLoop(std::size_t index);
    void heartbeatLoop();
    ExecutionResponse execute(const ExecutionRequest &request,
                              std::size_t index);

    const WorkerOptions options_;

    mutable std::mutex mutex_;
    /** Wakes workers (new request / stop). The heartbeater sleeps on
     *  its own cv so submit's notify_one can never be swallowed by a
     *  thread that ignores the inbox. */
    std::condition_variable cv_;
    std::condition_variable heartbeatCv_; ///< Stop signal only.
    bool stop_ = false;
    std::deque<ExecutionRequest> inbox_;
    std::deque<ExecutionResponse> outbox_;
    /** Which worker holds which lease (erased on completion/revoke). */
    std::unordered_map<std::uint64_t, std::size_t> leaseWorker_;
    std::function<void()> signal_;

    std::vector<std::unique_ptr<WorkerState>> workers_;
    std::vector<std::thread> threads_;
    std::thread heartbeater_;
};

/** The Transport the scheduler builds when WorkerOptions::workers > 0:
 *  a WorkerPool behind the seam, with the transport.send /
 *  transport.recv fault points on the two edges. */
class InProcTransport final : public Transport
{
  public:
    explicit InProcTransport(WorkerOptions options);

    void send(ExecutionRequest request) override;
    std::optional<ExecutionResponse> tryRecv() override;
    void setResponseSignal(std::function<void()> signal) override;
    std::size_t workerCount() const override;
    std::size_t liveWorkers() const override;
    std::optional<double>
    msSinceHeartbeat(std::uint64_t lease_id) const override;
    void revoke(std::uint64_t lease_id) override;

  private:
    WorkerPool pool_;
};

} // namespace core
} // namespace jigsaw

#endif // JIGSAW_CORE_WORKER_H
