/**
 * @file
 * StreamingScheduler: submit/poll job scheduling over JigsawSessions.
 *
 * The one execution path behind JigsawService: submit() serves
 * programs trickling in from concurrent callers, each wanting its
 * result as soon as possible, and a batch JigsawService::run() is
 * submit-all plus drain() over its own handles. Every job executes its
 * own schedule (core::executeSchedule) — there is one dispatch path,
 * dispatchJob, which runs the job on the local pool or as a one-job
 * lease on the worker tier. One scheduler owns:
 *
 *  - a priority-aware admission queue (submit() -> SubmitResult) with
 *    bounded admission: when StreamOptions::maxQueuedJobs caps the
 *    backlog, submits past a class's shed threshold are rejected with
 *    a finite tryLaterAfterMs hint derived from the observed drain
 *    rate (Low sheds first, High last), and sustained backlog shrinks
 *    the merge window toward immediate dispatch until the queue
 *    drains;
 *  - merge windows: prepared jobs sharing a (device, circuit skeleton)
 *    pair wait up to StreamOptions::windowMs (or until windowMaxJobs
 *    join); when the window closes each member enters the dispatch
 *    queue as its own unit. A window only delays dispatch: the shared
 *    executor's caches already evolve each logical program once;
 *  - a dispatch queue with priority classes, waiting-time aging (no
 *    starvation), round-robin across ServiceProgram::tenant tags
 *    inside each aged class (one hot tenant cannot starve the rest),
 *    and an in-flight cap that makes priority meaningful under load;
 *  - fault-tolerant dispatch: a TransientError (common/error.h)
 *    anywhere in a job's pipeline restarts that job from scratch with
 *    capped exponential backoff (StreamOptions::maxRetries). With one
 *    job per execution, a fault fails only the job that raised it. A
 *    job past its ServiceProgram::deadlineMs SLO is expired instead of
 *    dispatched;
 *  - per-device persistent shared executors, so circuits recurring
 *    across jobs keep hitting warm evolution caches;
 *  - an optional worker execution tier behind the Transport seam
 *    (core/transport.h): with StreamOptions::worker.workers > 0 (or a
 *    caller-supplied StreamOptions::transport), jobs on the shared
 *    executors are dispatched to the fleet as LEASES — lease id,
 *    deadline (worker.leaseTimeoutMs), heartbeat interval — and
 *    supervised by the dispatcher. A worker that dies (heartbeat
 *    stops), stalls past the lease deadline, or whose response is
 *    lost to a transport fault has its lease revoked and the job
 *    re-dispatched to another worker; after worker.workerRetries lost
 *    leases (or with no live worker) the job degrades gracefully to
 *    local execution. Lost-lease re-dispatch never charges the job's
 *    transient-retry budget: the job did nothing wrong, the fleet did.
 *
 * Priority::High jobs never wait in a window: they close the window
 * they join, or dispatch window-less.
 *
 * Determinism: a job created with a service-owned executor samples
 * every draw from its own Rng(executorSeed) stream, so its result is
 * bitwise-identical to a sequential runJigsaw with the same inputs —
 * whatever the window composition, submitter interleaving, or pool
 * size. Retries preserve this: a transient failure restarts the whole
 * pipeline (never resumes a half-consumed stream), so the retried job
 * replays the identical draw sequence. That is the contract
 * tests/test_stream.cpp asserts under concurrent submitters and
 * injected faults (common/fault.h).
 *
 * Thread-safety: submit/poll/wait/cancel/release/drain/stats may be
 * called concurrently from any thread. Stage and execution work runs
 * on the shared pool; windowing, dispatch, retry, and expiry
 * decisions are made by one internal dispatcher thread. wait()/
 * drain() (and, on a zero-worker pool, the dispatcher itself) help
 * drain the pool queue, so the scheduler makes progress even on a
 * single-core machine.
 *
 * Retention: a terminal job's heavyweight pipeline state (session,
 * draw stream, executor reference) is released as soon as no task can
 * touch it; its result and latency record stay addressable for
 * poll()/wait() until the caller release()s the handle or, with
 * StreamOptions::resultRetention set, until the result ages out of
 * the delivered-results window (oldest first, after wait() delivered
 * it). Latency distributions live in fixed-bucket histograms
 * (StreamStats::latencyByClass), bounded by construction, so a
 * scheduler can serve an unbounded job stream in bounded memory.
 *
 * Observability: lifecycle transitions (admission, shed, window
 * open/close/resize, lease grant/revoke, retry, expiry) are logged
 * through the "core.scheduler" logger (common/log.h); counters,
 * gauges, and latency histograms are published into the process-wide
 * obs::Registry via a scrape-time collector, optionally served over
 * HTTP (StreamOptions::metricsPort); and per-job pipeline spans are
 * recorded into StreamOptions::trace when set (obs/trace.h).
 */
#ifndef JIGSAW_CORE_SCHEDULER_H
#define JIGSAW_CORE_SCHEDULER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/parallel.h"
#include "common/rng.h"
#include "core/pipeline.h"
#include "core/service.h"
#include "core/transport.h"

namespace jigsaw {

namespace obs {
class MetricsHttpServer; // obs/http.h
} // namespace obs

namespace core {

class StreamingScheduler
{
  public:
    explicit StreamingScheduler(StreamOptions options = {});

    /** Blocks until every submitted job is terminal (drain()). */
    ~StreamingScheduler();

    StreamingScheduler(const StreamingScheduler &) = delete;
    StreamingScheduler &operator=(const StreamingScheduler &) = delete;

    /**
     * Admit @p program into the scheduler and return immediately —
     * or, under bounded admission with the backlog at this class's
     * shed threshold, reject it (SubmitResult::admitted false) with a
     * finite tryLaterAfterMs hint. A program with a caller-supplied
     * executor runs on it, window-less and locally; every other
     * program runs on its device's shared executor, drawing from a
     * private Rng(executorSeed) stream.
     */
    SubmitResult submit(ServiceProgram program,
                        Priority priority = Priority::Normal);

    /**
     * Register @p prototype for compile-once/re-bind iteration
     * (JigsawService::compileParametric documents the contract). The
     * transpile memo is prewarmed with the prototype's global + CPM
     * compilations before the handle is returned, so even the first
     * submitIteration()'s compile stage is pure cache hits.
     */
    ParametricHandle compileParametric(ServiceProgram prototype);

    /**
     * submit() a copy of @p handle's prototype with @p angles re-bound
     * into its circuit. The iteration shares the prototype's skeleton,
     * so its window key, transpile memo entries, and split-prefix
     * evolution states all collide with every other iteration's.
     */
    SubmitResult submitIteration(ParametricHandle handle,
                                 const std::vector<double> &angles,
                                 Priority priority = Priority::Normal);

    /** Status snapshot, or std::nullopt for an unknown handle. */
    std::optional<JobStatus> poll(JobHandle handle) const;

    /**
     * Block until @p handle is terminal. Returns the job's result,
     * rethrows its failure, throws std::runtime_error if it was
     * cancelled or DeadlineExceededError if it expired; throws
     * std::invalid_argument for an unknown (or released) handle.
     * Under StreamOptions::resultRetention, a successful wait()
     * marks the result delivered and may evict the oldest delivered
     * results past the cap.
     */
    JigsawResult wait(JobHandle handle);

    /**
     * Withdraw a job that has not been dispatched yet: queued,
     * preparing, awaiting a retry, sitting in a merge window (its
     * partners are untouched), or awaiting a dispatch slot. Returns
     * true on success, false once the job is executing or terminal
     * (it then runs to completion and poll/wait keep working).
     */
    bool cancel(JobHandle handle);

    /**
     * Drop a terminal job's result and bookkeeping immediately; its
     * handle becomes unknown to poll/wait. Returns false while the
     * job is still live, or when the handle is already unknown.
     */
    bool release(JobHandle handle);

    /**
     * Block until every job submitted so far is terminal. Open merge
     * windows are closed rather than waiting out windowMs, as soon as
     * no queued or preparing job can still join them.
     */
    void drain();

    /**
     * drain() restricted to @p handles: block until each of them is
     * terminal (unknown or released handles count as terminal),
     * closing open windows the same way. JigsawService::run() waits
     * on its batch with this.
     */
    void drain(const std::vector<JobHandle> &handles);

    /** Counter/latency snapshot (thread-safe at any time). */
    StreamStats stats() const;

    /** The metrics endpoint's bound port (resolves an ephemeral
     *  StreamOptions::metricsPort = 0 request), or -1 when no
     *  endpoint is serving. */
    int metricsPort() const;

    /** Options in effect. */
    const StreamOptions &options() const { return options_; }

  private:
    using Clock = std::chrono::steady_clock;

    /** One submitted program and everything it accretes. */
    struct Job
    {
        Job(std::uint64_t id_, Priority priority_, ServiceProgram program_)
            : id(id_), priority(priority_), program(std::move(program_))
        {
        }

        std::uint64_t id;
        Priority priority;
        ServiceProgram program;
        JobState state = JobState::Queued;
        /** Runs on its device's shared executor with its own stream:
         *  only such jobs join windows and go to the worker tier. */
        bool shared = false;
        bool delivered = false; ///< wait() returned this result.
        std::uint32_t attempts = 0; ///< Transient retries consumed.
        std::uint64_t deviceKey = 0; ///< DeviceModel::fingerprint().
        std::uint64_t windowKey = 0; ///< Window compatibility key.
        Clock::time_point submitAt{};
        Clock::time_point dispatchAt{};
        Clock::time_point doneAt{};
        Clock::time_point deadlineAt{}; ///< Unset when no deadlineMs.
        Clock::time_point retryAt{};    ///< Backoff target (retry queue).
        std::shared_ptr<sim::Executor> executor;
        std::unique_ptr<Rng> stream; ///< Shared-executor draw stream.
        /** Shared so a worker-tier ExecutionRequest can retain it: a
         *  revoked lease's stale worker may still be reading the
         *  session's const artifacts after the scheduler released the
         *  job's state (see ExecutionRequest::session). */
        std::shared_ptr<JigsawSession> session;
        std::exception_ptr error;
        std::shared_ptr<JigsawResult> result;
        /** The window this attempt joined (0 = none); stays set after
         *  the window closes, for the trace spans. */
        std::uint64_t windowId = 0;
        /** Trace attempt index (obs::TraceRecorder spans): 0 for the
         *  first pass, bumped on every retry, so a retried job's span
         *  sets stay distinguishable. */
        std::uint32_t traceEpoch = 0;
        Clock::time_point windowStartAt{}; ///< Joined its merge window.
    };

    /** One open merge window (closed windows are gone: their members
     *  wait in the dispatch queue). */
    struct Window
    {
        std::uint64_t id = 0;
        std::uint64_t key = 0;
        Clock::time_point openedAt{};
        Clock::time_point deadline{};
        std::vector<std::uint64_t> jobIds; ///< Members, join order.
    };

    /** One outstanding worker-tier dispatch of a job. Revoking a
     *  lease and granting a fresh one IS the re-dispatch path; the
     *  job itself stays dispatched throughout. */
    struct Lease
    {
        std::uint64_t id = 0;
        std::uint64_t jobId = 0;
        /** Lost leases so far for this job (grants = attempts+1);
         *  past worker.workerRetries the job falls back locally. */
        std::size_t attempts = 0;
        Clock::time_point deadline{};
    };

    /** A prepared job waiting for an in-flight slot. */
    struct ReadyEntry
    {
        std::uint64_t id = 0; ///< Job id.
        Priority cls = Priority::Normal;
        Clock::time_point readySince{};
        std::string tenant; ///< Round-robin share.
    };

    void dispatcherLoop();
    /** The wait loop behind both drain() overloads: every live job
     *  when @p handles is null, else just those. */
    void awaitTerminal(const std::vector<JobHandle> *handles);
    void startPrepare(Job &job);                       // mutex held
    void onPrepared(std::uint64_t job_id, std::exception_ptr error);
    /** Put a prepared job into its merge window, or straight into the
     *  dispatch queue when it waits for no window. */
    void scheduleLocked(Job &job, Clock::time_point now);
    /** Move every member of window @p window_id into the dispatch
     *  queue and drop the window. */
    void closeWindow(std::uint64_t window_id, Clock::time_point now);
    /** Queue @p job for an in-flight slot. */
    void readyLocked(Job &job, Clock::time_point now);
    bool dispatchNext(Clock::time_point now);          // mutex held
    /** The one dispatch path: a lease on the worker tier for a shared
     *  job when a transport exists, else the local pool. */
    void dispatchJob(Job &job, Clock::time_point now); // mutex held
    /** Finish @p job on the local pool: execute it (the no-transport
     *  path and the worker tier's degradation floor) or adopt
     *  @p execution, a worker's result, then reconstruct. */
    void runOnPoolLocked(Job &job,
                         std::shared_ptr<ExecutionResult> execution = {});
    /** Completion of a dispatched job: frees its slot and finishes
     *  it, or routes @p error through retry (mutex held). */
    void finishDispatchedLocked(Job &job, std::exception_ptr error);
    /** finishDispatchedLocked() from a pool completion callback. */
    void onExecuted(std::uint64_t job_id, std::exception_ptr error);
    /** @name Worker tier (all with mutex held). @{ */
    /** Build the ExecutionRequest envelope for @p job. */
    ExecutionRequest buildRequestLocked(Job &job,
                                        std::uint64_t lease_id) const;
    /** Grant (or re-grant, at @p attempts > 0) a lease for @p job;
     *  falls back to runOnPoolLocked once the fleet is dead or
     *  worker.workerRetries leases were lost. */
    void grantLeaseLocked(Job &job, std::size_t attempts,
                          Clock::time_point now);
    /** Revoke leases whose worker died (heartbeat silence) or whose
     *  deadline passed, and re-dispatch their jobs. */
    void superviseLeasesLocked(Clock::time_point now);
    /** Drain transport responses into job completions. */
    void drainTransportLocked();
    /** Earliest lease deadline/heartbeat check the dispatcher must
     *  wake for, or nullopt when no leases are outstanding. */
    std::optional<Clock::time_point>
    nextLeaseEventLocked(Clock::time_point now) const;
    /** @} */
    /** Route a pipeline failure: schedule a transient retry within
     *  budget/deadline, or finish the job as Failed/Expired. */
    void handleJobFailure(Job &job, std::exception_ptr error,
                          Clock::time_point now); // mutex held
    /** Reset a job's pipeline state and queue it for (re)admission at
     *  @p retry_at. */
    void requeueLocked(Job &job, Clock::time_point retry_at);
    /** Withdraw an undispatched job into @p terminal_state (shared by
     *  cancel() and deadline expiry); false once dispatched/terminal. */
    bool withdrawLocked(Job &job, JobState terminal_state,
                        std::exception_ptr error);
    /** Expire backlogged jobs past their deadline. */
    void expireDueJobsLocked(Clock::time_point now);
    void finishJob(Job &job, JobState state,
                   std::exception_ptr error); // mutex held
    void releaseJobState(Job &job);           // mutex held
    /** Record a delivered result and evict past resultRetention. */
    void markDeliveredLocked(Job &job);
    /** Finite backoff hint for a shed submit (drain-rate EWMA). */
    double retryHintMsLocked(std::size_t threshold) const;
    /** windowMs after backlog-pressure shrinking; updates the width
     *  gauge and the shrink counter. */
    double effectiveWindowMsLocked();
    std::size_t inFlightCap() const;
    /** stats() body, for callers already holding mutex_. */
    StreamStats statsLocked() const;
    /** Create/cache this scheduler's registry instruments and its
     *  scrape-time collector (constructor only). */
    void registerMetrics();
    /** Flush stats_ deltas into the registry counters (collector
     *  callback and final flush in the destructor). Deltas, not
     *  set(), keep the process-wide counters monotone across
     *  scheduler lifetimes. */
    void publishMetricsLocked();

    const StreamOptions options_;

    mutable std::mutex mutex_;
    std::condition_variable dispatcherCv_; ///< Wakes the dispatcher.
    std::condition_variable jobCv_;        ///< Wakes wait()/drain().
    bool stopping_ = false;

    std::uint64_t nextJobId_ = 1;
    std::uint64_t nextWindowId_ = 1;
    std::unordered_map<std::uint64_t, std::unique_ptr<Job>> jobs_;
    std::unordered_map<std::uint64_t, std::unique_ptr<Window>> windows_;
    std::vector<std::uint64_t> admission_;     ///< Queued job ids.
    std::vector<std::uint64_t> retryQueue_;    ///< Awaiting backoff.
    std::vector<std::uint64_t> deadlined_;     ///< Jobs with an SLO.
    std::vector<std::uint64_t> scheduleReady_; ///< Prepared, unscheduled.
    std::vector<ReadyEntry> readyQueue_;       ///< Awaiting dispatch.
    std::deque<std::uint64_t> retired_; ///< Delivered, eviction order.
    std::size_t inFlight_ = 0;   ///< Dispatched jobs still running.
    std::size_t preparing_ = 0;  ///< Prepare stages on the pool.
    std::size_t liveJobs_ = 0;   ///< Non-terminal jobs.
    std::size_t backlog_ = 0;    ///< Undispatched live jobs.
    /** @name Round-robin across tenants. @{ */
    std::unordered_set<std::string> tenants_;
    std::vector<std::string> tenantRotation_; ///< First-seen order.
    std::size_t rrCursor_ = 0;     ///< Dispatch's next tenant.
    std::size_t admitCursor_ = 0;  ///< Admission's next tenant.
    /** @} */
    double drainEwmaMs_ = 0.0; ///< EWMA ms between completions.
    Clock::time_point lastCompletionAt_{};
    /** Per-device persistent shared executors. */
    std::unordered_map<std::uint64_t, std::shared_ptr<sim::Executor>>
        sharedExecutors_;
    /** Parametric prototypes by ParametricHandle::id. */
    std::unordered_map<std::uint64_t, ServiceProgram> prototypes_;
    std::uint64_t nextParametricId_ = 1;
    /** Worker tier: null means every job runs locally. */
    std::shared_ptr<Transport> transport_;
    std::unordered_map<std::uint64_t, Lease> leases_; ///< By lease id.
    std::uint64_t nextLeaseId_ = 1;

    StreamStats stats_;

    /** @name Registry wiring: cached instrument pointers (lock-free
     *  to write; the registry mutex is paid once, in the
     *  constructor), the last-published snapshot behind the
     *  delta-flush, and the scrape-time collector id. @{ */
    std::vector<std::pair<obs::Counter *, std::size_t StreamStats::*>>
        counterBindings_;
    std::vector<std::pair<obs::Counter *, std::uint64_t StreamStats::*>>
        cacheBindings_;
    std::array<obs::Histogram *, kPriorityClasses> latencyHist_{};
    std::array<obs::Histogram *, kPriorityClasses> queueWaitHist_{};
    std::array<obs::Histogram *, kPriorityClasses> executeHist_{};
    obs::Gauge *backlogGauge_ = nullptr;
    obs::Gauge *inFlightGauge_ = nullptr;
    obs::Gauge *windowWidthGauge_ = nullptr;
    StreamStats published_; ///< Counter values already flushed.
    std::uint64_t collectorId_ = 0;
    /** Optional loopback HTTP/1.0 endpoint (metricsPort >= 0). */
    std::unique_ptr<obs::MetricsHttpServer> metricsServer_;
    /** @} */

    TaskGroup group_;        ///< All pool work this scheduler owns.
    std::thread dispatcher_; ///< Started last, joined in ~.
};

} // namespace core
} // namespace jigsaw

#endif // JIGSAW_CORE_SCHEDULER_H
