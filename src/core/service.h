/**
 * @file
 * JigsawService: many programs through the pipeline, concurrently.
 *
 * Every program runs through the service's StreamingScheduler
 * (core/scheduler.h), whether it arrives by submit() or in a batch
 * run(). run() is submit-and-wait: it submits every program, closes
 * the open merge windows once no submitted job can still join them,
 * and returns the results in submission order. Each job executes its
 * own schedule. Programs the service builds executors for share one
 * NoisySimulator per device, whose caches evolve each logical program
 * once and build each noisy distribution once, however many jobs run
 * it.
 *
 * Determinism: each such program samples from its own
 * Rng(executorSeed) stream, so every program's result is
 * bitwise-identical to a sequential runJigsaw() with the same inputs,
 * whatever the pool size, completion order or window composition (see
 * core::executeSchedule for the argument). Programs sharing a
 * caller-supplied executor stay data-race-free but interleave its RNG
 * stream nondeterministically.
 */
#ifndef JIGSAW_CORE_SERVICE_H
#define JIGSAW_CORE_SERVICE_H

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/session.h"
#include "obs/registry.h"

namespace jigsaw {

namespace obs {
class TraceRecorder; // obs/trace.h
} // namespace obs

namespace core {

/** One program submitted to the service. */
struct ServiceProgram
{
    ServiceProgram(circuit::QuantumCircuit circuit_,
                   device::DeviceModel device_, std::uint64_t trials_,
                   JigsawOptions options_ = {},
                   std::uint64_t executor_seed = 1234,
                   std::shared_ptr<sim::Executor> executor_ = nullptr)
        : circuit(std::move(circuit_)), device(std::move(device_)),
          trials(trials_), options(std::move(options_)),
          executor(std::move(executor_)), executorSeed(executor_seed)
    {
    }

    circuit::QuantumCircuit circuit;
    device::DeviceModel device;
    std::uint64_t trials;
    JigsawOptions options;
    /**
     * Executor for this program. When null, the service owns the
     * executor choice: programs on one device share a thread-safe
     * NoisySimulator while sampling from a private Rng(executorSeed)
     * stream — the exact draw stream a sequential run would use.
     * Caller-supplied executors are never shared with other programs
     * or shipped to the worker tier (the service cannot know their
     * noise model is shareable); such programs run locally and skip
     * merge windows, at the cost of a nondeterministic RNG
     * interleaving when the caller shares one executor between
     * programs.
     */
    std::shared_ptr<sim::Executor> executor;
    std::uint64_t executorSeed; ///< Seed for the program's draw stream.
    /**
     * Fair-share tag: dispatch runs deficit round-robin across
     * tenants inside each aged priority class, so one hot tenant
     * cannot starve the rest. Empty is the default tenant. Honoured
     * by submit() and run() alike.
     */
    std::string tenant;
    /**
     * SLO: a job still undispatched this many milliseconds after
     * submission is expired (JobState::Expired; wait() and run()
     * throw DeadlineExceededError), including jobs waiting in an open
     * merge window or awaiting a retry. 0 disables the deadline.
     */
    double deadlineMs = 0.0;
};

/** Priority classes for streaming submission (High dispatches first). */
enum class Priority
{
    High = 0,
    Normal = 1,
    Low = 2,
};

/** Number of Priority classes. */
inline constexpr std::size_t kPriorityClasses = 3;

/** Opaque identifier of one streaming job. */
struct JobHandle
{
    std::uint64_t id = 0;
};

/**
 * Opaque identifier of one parametric program compiled once via
 * compileParametric() and re-submitted per iteration with fresh
 * rotation angles via submitIteration() — the iterative-VQA client
 * shape. All iterations share the prototype's skeleton, so they hit
 * the transpile memo (angles re-bound into the cached routing), the
 * executor's split-prefix evolution cache, and one merge-window key.
 */
struct ParametricHandle
{
    std::uint64_t id = 0;
};

/**
 * Outcome of one streaming submit(). With bounded admission
 * (StreamOptions::maxQueuedJobs) a submit can be shed: admitted is
 * false, the handle is empty, and tryLaterAfterMs is a finite
 * backoff hint derived from the scheduler's observed drain rate —
 * after roughly that long the backlog should have drained below this
 * priority class's shed threshold.
 */
struct SubmitResult
{
    bool admitted = false;
    JobHandle handle{};          ///< Valid only when admitted.
    double tryLaterAfterMs = 0.0; ///< Retry hint when shed; else 0.

    explicit operator bool() const { return admitted; }
};

/** Where a streaming job currently is. */
enum class JobState
{
    Queued,    ///< Admitted, waiting for its pipeline stages to start.
    Preparing, ///< Plan/compile/schedule stages running on the pool.
    /** Scheduled: waiting in an open merge window, or (window closed,
     *  or window-less) awaiting a dispatch slot. */
    Windowed,
    Dispatched, ///< Executing (locally or on the worker tier).
    Done,       ///< Result available.
    Failed,     ///< Terminal error; wait() rethrows it.
    Cancelled,  ///< Withdrawn before dispatch; wait() throws.
    /** Missed its ServiceProgram::deadlineMs SLO before dispatch;
     *  wait() throws DeadlineExceededError. */
    Expired,
};

/** Snapshot of one streaming job, returned by poll(). */
struct JobStatus
{
    JobState state = JobState::Queued;
    Priority priority = Priority::Normal;
    /** Transient-failure retries this job has consumed so far. */
    std::uint32_t attempts = 0;
    /** Submit -> dispatch (admission + window wait); 0 until known. */
    double queueWaitMs = 0.0;
    /** Dispatch -> terminal (execute + reconstruct); 0 until known. */
    double executeMs = 0.0;
    /** Submit -> terminal (what the submitter observed); 0 until known. */
    double totalMs = 0.0;
};

class Transport; // core/transport.h

/**
 * Worker execution tier (core/transport.h, core/worker.h): each job's
 * execute stage dispatched as a lease to a fleet of in-process
 * workers, each owning its own per-device executors and rebuilding
 * the job's draw stream from Rng(executorSeed) — results stay
 * bitwise-identical to local execution. The scheduler supervises each
 * lease and degrades gracefully: a lost lease (worker death, stall
 * past the deadline, transport error) is re-dispatched to the fleet
 * up to workerRetries times, then executed locally — an empty or
 * all-dead fleet costs throughput, never correctness, and lost leases
 * never charge the jobs' transient-retry budgets. Jobs with a
 * caller-supplied executor always execute locally.
 */
struct WorkerOptions
{
    /** Fleet size. 0 disables the worker tier entirely (every job
     *  executes locally, the pre-worker behavior). */
    std::size_t workers = 0;
    /** Lease deadline: a job not answered this long after dispatch
     *  is revoked and re-dispatched (catches stalled workers and
     *  responses lost in flight). */
    double leaseTimeoutMs = 60000.0;
    /** Worker heartbeat interval (carried in each lease's request
     *  envelope; the in-process fleet beats at this period). */
    double heartbeatMs = 5.0;
    /** A lease whose worker has not heartbeat for this long is
     *  revoked as worker death (the worker is assumed gone). */
    double heartbeatTimeoutMs = 250.0;
    /** Fleet re-dispatches per job before local fallback. */
    std::size_t workerRetries = 2;
};

/** Streaming-scheduler configuration (JigsawService submit/poll). */
struct StreamOptions
{
    /**
     * How long an open merge window holds the jobs sharing a (circuit
     * skeleton, device) pair before they dispatch, from the moment it
     * opened. Each member still executes on its own: the window only
     * delays dispatch, and the shared executor's caches do the
     * sharing. Priority::High jobs close their window immediately. 0
     * dispatches every job on readiness.
     */
    double windowMs = 5.0;
    /** Close a window once this many jobs joined it. */
    std::size_t windowMaxJobs = 8;
    /**
     * Dispatched-but-unfinished job cap; further dispatches
     * queue in priority order. 0 sizes it to the thread pool
     * (parallelThreads()), which is what makes priority meaningful
     * under load — with unbounded dispatch the pool's FIFO queue
     * decides instead.
     */
    std::size_t maxInFlight = 0;
    /**
     * Fairness aging: a dispatch candidate is promoted one priority
     * class per this many milliseconds spent waiting, so sustained
     * High traffic cannot starve Low jobs. <=0 disables aging.
     */
    double agingMs = 100.0;
    /**
     * Bounded admission: cap on undispatched jobs (queued, preparing,
     * or windowed). A submit that would push the backlog past its
     * class's shed threshold (shedFractions) is rejected with a
     * finite SubmitResult::tryLaterAfterMs hint instead of admitted.
     * 0 admits everything (the pre-robustness behavior). Sustained
     * backlog near the cap also shrinks the effective merge window
     * toward immediate dispatch (latency over merging), restoring it
     * as the queue drains.
     */
    std::size_t maxQueuedJobs = 0;
    /**
     * Per-class shed thresholds as fractions of maxQueuedJobs,
     * indexed by Priority (High, Normal, Low). Class c is shed once
     * the backlog reaches ceil(shedFractions[c] * maxQueuedJobs), so
     * with the defaults Low sheds first and High last — High keeps
     * the full queue. Ignored when maxQueuedJobs is 0.
     */
    std::array<double, kPriorityClasses> shedFractions{1.0, 0.8, 0.6};
    /**
     * Fault tolerance: transient failures (TransientError, e.g. a
     * flaky backend) restart the job's whole pipeline up to this many
     * times with capped exponential backoff. Terminal failures never
     * retry. A full restart replays the job's private draw stream
     * from Rng(executorSeed), so a retried job's result is still
     * bitwise-identical to an undisturbed sequential run.
     */
    std::size_t maxRetries = 3;
    double retryBackoffMs = 1.0;     ///< First-retry backoff.
    double retryBackoffMaxMs = 50.0; ///< Exponential backoff cap.
    /**
     * Result retention: with a non-zero cap, delivered results (jobs
     * whose wait() returned) beyond this many are evicted oldest
     * first, and their handles become unknown. release() evicts
     * eagerly. 0 retains every terminal job for the scheduler's
     * lifetime (the pre-robustness behavior).
     */
    std::size_t resultRetention = 0;
    /**
     * Prometheus metrics endpoint: when >= 0, the scheduler serves
     * the process-wide registry over HTTP/1.0 on 127.0.0.1:<port>
     * for its lifetime (0 picks an ephemeral port; see
     * StreamingScheduler::metricsPort()). -1 (default) binds nothing
     * — metrics stay reachable via JigsawService::metricsText().
     */
    int metricsPort = -1;
    /**
     * Per-job pipeline tracing: when set, every job records one span
     * per (attempt, stage) through plan -> compile -> window ->
     * dispatch -> execute -> reconstruct into this recorder (see
     * obs/trace.h). Null (default) records nothing and costs one
     * pointer test per stage.
     */
    std::shared_ptr<obs::TraceRecorder> trace;
    /** Worker execution tier (see WorkerOptions). Disabled (workers
     *  = 0) by default. */
    WorkerOptions worker;
    /**
     * Execution backend override: when set, jobs dispatch over THIS
     * transport (worker.workers is then ignored); when
     * null and worker.workers > 0, the scheduler builds its own
     * core::InProcTransport fleet. Tests stub this seam to model
     * arbitrary backend pathologies.
     */
    std::shared_ptr<Transport> transport;
};

/** Counters and samples of one streaming scheduler's lifetime. */
struct StreamStats
{
    std::size_t submitted = 0;
    std::size_t completed = 0;
    std::size_t failed = 0;
    std::size_t cancelled = 0;
    std::size_t mergedWindows = 0;  ///< Windows closed with >= 2 jobs.
    /** Jobs that dispatched without a window partner: one-job windows
     *  and window-less jobs. */
    std::size_t loneDispatches = 0;
    std::size_t mergedJobs = 0;     ///< Jobs in windows of >= 2 jobs.
    /** @name Always 0: jobs no longer share an execution. Kept only
     *  for readers of the old merge counters. @{ */
    std::size_t crossProgramGroups = 0;
    std::size_t pooledGlobalPrograms = 0;
    /** @} */
    /** @name Overload / fault-tolerance counters. @{ */
    std::size_t shed = 0;    ///< Submits rejected by bounded admission.
    std::size_t expired = 0; ///< Jobs that missed their deadlineMs SLO.
    std::size_t retries = 0; ///< Transient-failure pipeline restarts.
    /** Merge windows opened with a backlog-shrunk windowMs. */
    std::size_t windowShrinks = 0;
    std::size_t released = 0; ///< Terminal jobs dropped via release().
    std::size_t evicted = 0;  ///< Delivered results evicted (retention).
    /** Shed submits by priority class (exact, not sampled). */
    std::array<std::size_t, kPriorityClasses> shedByClass{};
    /** Completed jobs by priority class (exact, not sampled). */
    std::array<std::size_t, kPriorityClasses> completedByClass{};
    /** Jobs that produced a latency sample (completed + failed): the
     *  histograms' population size. */
    std::size_t jobsObserved = 0;
    /** @} */
    /** @name Worker-tier lease counters (all zero without a worker
     * fleet). A job dispatched to the fleet is covered by exactly one
     * live lease at a time; a lost lease is re-dispatched
     * (redispatches) until workerRetries is exhausted or no worker is
     * alive, then executed locally (localFallbacks) — lost leases
     * never charge the job's retry budget. @{ */
    std::size_t leasesGranted = 0; ///< Requests delivered to the fleet.
    /** Leases revoked at their deadline: a stalled worker or a
     *  response lost in flight (transport.recv). */
    std::size_t leasesExpired = 0;
    /** Leases revoked for worker death (missed heartbeats), a
     *  transport send failure, or a fleet that died under a queued
     *  request. */
    std::size_t leasesRevoked = 0;
    std::size_t redispatches = 0;  ///< Lost-lease re-sends to the fleet.
    /** Worker-tier jobs executed locally instead (dead fleet or
     *  workerRetries exhausted). */
    std::size_t localFallbacks = 0;
    /** Late responses of revoked leases, discarded (their job
     *  already completed another way). */
    std::size_t staleResponses = 0;
    /** Successful job executions per worker index. */
    std::vector<std::size_t> workerCompleted;
    /** @} */
    /** @name Parametric-serving and shared-executor cache counters.
     * The executor counters aggregate this scheduler's per-device
     * shared executors. Process-wide counters (transpile memo, SIMD
     * dispatch) live in obs::ProcessCounters. @{ */
    std::size_t parametricPrograms = 0;   ///< compileParametric() calls.
    std::size_t parametricIterations = 0; ///< submitIteration() calls.
    std::uint64_t executorPmfHits = 0;    ///< Executor PMF-cache hits.
    std::uint64_t executorPmfMisses = 0;  ///< Executor PMF-cache misses.
    /** Skeleton split-prefix evolution cache hits: evolutions that
     *  reused a cached pre-diagonal-tail state and re-applied only
     *  the re-bound diagonal gates. */
    std::uint64_t prefixStateHits = 0;
    std::uint64_t prefixStateMisses = 0; ///< Split prefixes evolved.
    /** @} */
    /**
     * @name Per-class latency histograms of completed/failed jobs
     * (cancelled and expired jobs never ran, so they contribute
     * nothing). Fixed geometric buckets (obs::defaultLatencyBoundsMs)
     * shared with the process-wide registry histograms, so the same
     * percentile is derivable from a scrape delta; memory is bounded
     * by construction (one bucket array per class), which is what
     * replaced the old per-job sample reservoir.
     * @{
     */
    std::array<obs::HistogramData, kPriorityClasses> latencyByClass;
    std::array<obs::HistogramData, kPriorityClasses> queueWaitByClass;
    std::array<obs::HistogramData, kPriorityClasses> executeByClass;
    /** @} */

    /** @name Guarded nearest-rank percentiles, thin views over the
     *  histograms above (0 with no observations; the exact value with
     *  one; otherwise the selected bucket's observed mean, clamped to
     *  the bucket). @{ */
    double latencyPercentileMs(double q) const;
    double latencyPercentileMs(Priority cls, double q) const;
    double queueWaitPercentileMs(Priority cls, double q) const;
    double executePercentileMs(Priority cls, double q) const;
    /** @} */
};

/** Service configuration. */
struct ServiceOptions
{
    /** The scheduler every submit() and run() goes through. */
    StreamOptions stream;
};

/**
 * Sequential reference for the service: the same programs, one
 * runJigsaw after another, each with the caller-supplied executor or
 * else a fresh NoisySimulator seeded with executorSeed. This single
 * definition is what the service's bitwise-equivalence tests and
 * benches compare against.
 */
std::vector<JigsawResult>
runProgramsSequentially(const std::vector<ServiceProgram> &programs);

class StreamingScheduler; // core/scheduler.h

class JigsawService
{
  public:
    explicit JigsawService(ServiceOptions options = {});
    ~JigsawService(); // drains any streaming jobs still in flight

    JigsawService(const JigsawService &) = delete;
    JigsawService &operator=(const JigsawService &) = delete;

    /**
     * Run every program to completion and return their results in
     * submission order: submit() each at Priority::Normal, wait for
     * all of them (closing open merge windows once no submitted job
     * can still join them, as drain() does), then release() every
     * handle so repeated runs retain nothing. Jobs honour tenant and
     * deadlineMs and retry transient errors like any submit(). A
     * program shed by bounded admission fails with TransientError.
     * After all programs finished, rethrows the first failure in
     * submission order. Thread-safe against the streaming calls.
     */
    std::vector<JigsawResult> run(const std::vector<ServiceProgram> &programs);

    /** @name Streaming API (core/scheduler.h does the work).
     *
     * submit() admits one program and returns immediately; every
     * job's result stays bitwise-identical to a sequential runJigsaw
     * with the same inputs. All five calls are
     * thread-safe against each other — concurrent submitters are the
     * intended client shape.
     * @{ */
    /** Admit @p program (or shed it under bounded admission — check
     *  SubmitResult::admitted); the handle is this service's
     *  poll/wait key. */
    SubmitResult submit(ServiceProgram program,
                        Priority priority = Priority::Normal);
    /** Status snapshot, or std::nullopt for an unknown handle. */
    std::optional<JobStatus> poll(JobHandle handle) const;
    /** Block until terminal; returns the result or rethrows the
     *  job's failure (std::runtime_error for a cancelled job,
     *  DeadlineExceededError for an expired one). */
    JigsawResult wait(JobHandle handle);
    /**
     * Compile @p prototype once for iterative re-submission: validates
     * that the circuit carries rotation parameters, prewarms the
     * process-wide transpile memo (global + CPM compilations), and
     * registers the program as this handle's prototype. Iterations
     * then submit via submitIteration() with fresh angles — each pays
     * only an angle re-bind into the cached routing plus the diagonal
     * tail of the evolution, never a recompile. Thread-safe.
     */
    ParametricHandle compileParametric(ServiceProgram prototype);
    /**
     * Submit one iteration of @p handle's prototype with @p angles
     * re-bound into its circuit (flattened gate-order parameter list;
     * the size must equal the prototype's parameterCount()). Behaves
     * exactly like submit() of the re-bound program — same admission,
     * windowing, determinism, and result contract. Throws
     * std::invalid_argument semantics (fatal) for an unknown handle.
     */
    SubmitResult submitIteration(ParametricHandle handle,
                                 const std::vector<double> &angles,
                                 Priority priority = Priority::Normal);
    /** Withdraw a not-yet-dispatched job (true on success). */
    bool cancel(JobHandle handle);
    /** Drop a terminal job's result and bookkeeping; its handle
     *  becomes unknown. False while the job is live (or already
     *  released). */
    bool release(JobHandle handle);
    /** Block until every submitted job is terminal. */
    void drain();
    /** Lifetime counters and latency histograms of every job
     *  submitted or run (snapshot; zero before the first job). */
    StreamStats streamStats() const;
    /** @} */

    /**
     * The process-wide metrics registry rendered as Prometheus text
     * exposition — the same body the optional HTTP endpoint
     * (StreamOptions::metricsPort) serves. Covers the stream
     * counters (shed/expired/retries/eviction/lease), window
     * counters, cache hit rates, and SIMD dispatch totals.
     */
    std::string metricsText() const;

    /** Options in effect. */
    const ServiceOptions &options() const { return options_; }

  private:
    StreamingScheduler &scheduler();

    ServiceOptions options_;
    mutable std::mutex schedulerMutex_; ///< Guards lazy creation only.
    std::unique_ptr<StreamingScheduler> scheduler_;
};

} // namespace core
} // namespace jigsaw

#endif // JIGSAW_CORE_SERVICE_H
