#include "core/scheduler.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/error.h"
#include "common/log.h"
#include "core/worker.h"
#include "obs/exposition.h"
#include "obs/http.h"
#include "obs/trace.h"
#include "sim/simulators.h"

namespace jigsaw {
namespace core {

namespace {

/** The scheduler's named logger (interned once; see common/log.h). */
log::Logger &
schedulerLog()
{
    static log::Logger &instance = log::logger("core.scheduler");
    return instance;
}

/** Registry label values per Priority class, by class index. */
constexpr const char *kClassNames[kPriorityClasses] = {"high", "normal",
                                                       "low"};

/** Milliseconds from @p a to @p b (0 when either is unset). */
double
msBetweenImpl(std::chrono::steady_clock::time_point a,
              std::chrono::steady_clock::time_point b)
{
    if (a.time_since_epoch().count() == 0 ||
        b.time_since_epoch().count() == 0)
        return 0.0;
    return std::chrono::duration<double, std::milli>(b - a).count();
}

/** @p ms as a steady_clock duration (non-negative). */
std::chrono::steady_clock::duration
msDuration(double ms)
{
    return std::chrono::duration_cast<
        std::chrono::steady_clock::duration>(
        std::chrono::duration<double, std::milli>(std::max(ms, 0.0)));
}

/** True when @p point has been assigned (deadlines, retry targets). */
bool
isSet(std::chrono::steady_clock::time_point point)
{
    return point.time_since_epoch().count() != 0;
}

/**
 * Key under which compatible jobs share a merge window. Keyed on the
 * parameter-invariant skeletonHash so parametric iterations of one
 * program — same gates, fresh angles — window together: their compiled
 * prefixes differ only in diagonal-rotation angles, which the shared
 * executor deduplicates via its skeleton split-prefix cache.
 */
std::uint64_t
windowKeyFor(std::uint64_t device_key,
             const circuit::QuantumCircuit &circuit)
{
    return device_key ^
           (circuit.skeletonHash() * 0x9e3779b97f4a7c15ULL);
}

/** Priority class after @p waited_ms of aging (0 = strongest). */
std::size_t
effectiveClass(Priority cls, double waited_ms, double aging_ms)
{
    std::size_t c = static_cast<std::size_t>(cls);
    if (aging_ms > 0.0) {
        const std::size_t promoted =
            static_cast<std::size_t>(waited_ms / aging_ms);
        c = promoted >= c ? 0 : c - promoted;
    }
    return c;
}

/**
 * Round-robin across tenants: the candidate of the first tenant in
 * @p rotation, from @p cursor on, that has one in @p candidate,
 * advancing @p cursor past it; @p none when no tenant has one.
 */
std::size_t
nextTenantCandidate(
    const std::vector<std::string> &rotation, std::size_t &cursor,
    const std::unordered_map<std::string, std::size_t> &candidate,
    std::size_t none)
{
    for (std::size_t step = 0; step < rotation.size(); ++step) {
        const auto it = candidate.find(rotation[cursor++ % rotation.size()]);
        if (it != candidate.end())
            return it->second;
    }
    return none;
}

std::exception_ptr
deadlineError()
{
    return std::make_exception_ptr(DeadlineExceededError(
        "StreamingScheduler: job missed its deadlineMs SLO"));
}

bool
isTerminal(JobState state)
{
    switch (state) {
      case JobState::Done:
      case JobState::Failed:
      case JobState::Cancelled:
      case JobState::Expired:
        return true;
      default:
        return false;
    }
}

} // namespace

StreamingScheduler::StreamingScheduler(StreamOptions options)
    : options_(options)
{
    registerMetrics();
    if (options_.metricsPort >= 0) {
        // The endpoint renders the process-wide registry, which runs
        // this scheduler's collector (and any sibling's) per scrape.
        metricsServer_ = std::make_unique<obs::MetricsHttpServer>(
            options_.metricsPort,
            [] { return obs::renderProcessMetrics(); });
    }
    // Worker tier: a caller-supplied transport wins (the test seam);
    // otherwise worker.workers > 0 builds the in-process fleet. Null
    // means every job runs on the local pool.
    if (options_.transport != nullptr)
        transport_ = options_.transport;
    else if (options_.worker.workers > 0)
        transport_ = std::make_shared<InProcTransport>(options_.worker);
    if (transport_ != nullptr) {
        // The response doorbell: bare notify (no state change), so
        // firing from any worker thread without the lock is fine.
        transport_->setResponseSignal(
            [this] { dispatcherCv_.notify_all(); });
    }
    collectorId_ = obs::Registry::instance().addCollector([this] {
        std::lock_guard<std::mutex> lock(mutex_);
        publishMetricsLocked();
    });
    JIGSAW_LOG_DEBUG(schedulerLog(), "scheduler started",
                     log::kv("workers", options_.worker.workers),
                     log::kv("window_ms", options_.windowMs),
                     log::kv("metrics_port", metricsPort()));
    dispatcher_ = std::thread([this] { dispatcherLoop(); });
}

StreamingScheduler::~StreamingScheduler()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
        // Stopping closes every open window immediately; the
        // dispatcher exits only once all submitted work is terminal
        // (pending retries run without backoff under stopping_).
        const auto now = Clock::now();
        for (auto &[id, window] : windows_)
            window->deadline = now;
    }
    dispatcherCv_.notify_all();
    dispatcher_.join();
    group_.wait(); // completion callbacks all ran; nothing in flight
    if (transport_ != nullptr) {
        // A stale worker (revoked lease, job finished elsewhere)
        // may still be executing: clear the doorbell so it cannot
        // fire into a dying scheduler, then drop the transport — the
        // in-process fleet's destructor joins its worker threads,
        // whose requests retain the sessions they read until then.
        transport_->setResponseSignal(nullptr);
        transport_.reset();
    }
    // Stop serving scrapes, block out any in-flight collector run,
    // then flush the remaining counter deltas so the process-wide
    // totals include this scheduler's last jobs.
    metricsServer_.reset();
    obs::Registry::instance().removeCollector(collectorId_);
    {
        std::lock_guard<std::mutex> lock(mutex_);
        publishMetricsLocked();
    }
}

int
StreamingScheduler::metricsPort() const
{
    return metricsServer_ != nullptr ? metricsServer_->port() : -1;
}

void
StreamingScheduler::registerMetrics()
{
    obs::registerProcessMetrics(); // transpile + SIMD families
    obs::Registry &reg = obs::Registry::instance();
    const auto bind = [&](const char *name, const char *help,
                          std::size_t StreamStats::*member,
                          obs::Labels labels = {}) {
        counterBindings_.emplace_back(
            &reg.counter(name, help, std::move(labels)), member);
    };
    bind("jigsaw_stream_submitted_total",
         "Streaming jobs admitted by submit().",
         &StreamStats::submitted);
    const char *outcomes_help =
        "Terminal streaming jobs by outcome.";
    bind("jigsaw_stream_jobs_total", outcomes_help,
         &StreamStats::completed, {{"outcome", "completed"}});
    bind("jigsaw_stream_jobs_total", outcomes_help,
         &StreamStats::failed, {{"outcome", "failed"}});
    bind("jigsaw_stream_jobs_total", outcomes_help,
         &StreamStats::cancelled, {{"outcome", "cancelled"}});
    bind("jigsaw_stream_jobs_total", outcomes_help,
         &StreamStats::expired, {{"outcome", "expired"}});
    bind("jigsaw_stream_shed_total",
         "Submits rejected by bounded admission.", &StreamStats::shed);
    bind("jigsaw_stream_retries_total",
         "Transient-failure pipeline restarts.", &StreamStats::retries);
    const char *windows_help =
        "Merge windows closed with >= 2 jobs (merged) and jobs "
        "dispatched without a window partner (lone).";
    bind("jigsaw_stream_windows_total", windows_help,
         &StreamStats::mergedWindows, {{"kind", "merged"}});
    bind("jigsaw_stream_windows_total", windows_help,
         &StreamStats::loneDispatches, {{"kind", "lone"}});
    bind("jigsaw_stream_merged_jobs_total",
         "Jobs in merge windows of >= 2 jobs.", &StreamStats::mergedJobs);
    bind("jigsaw_window_resizes_total",
         "Merge windows opened at an adapted width, by direction.",
         &StreamStats::windowShrinks, {{"direction", "shrink"}});
    const char *lease_help = "Worker-tier lease lifecycle events.";
    bind("jigsaw_stream_lease_events_total", lease_help,
         &StreamStats::leasesGranted, {{"event", "granted"}});
    bind("jigsaw_stream_lease_events_total", lease_help,
         &StreamStats::leasesExpired, {{"event", "expired"}});
    bind("jigsaw_stream_lease_events_total", lease_help,
         &StreamStats::leasesRevoked, {{"event", "revoked"}});
    bind("jigsaw_stream_lease_events_total", lease_help,
         &StreamStats::redispatches, {{"event", "redispatched"}});
    bind("jigsaw_stream_lease_events_total", lease_help,
         &StreamStats::localFallbacks, {{"event", "local_fallback"}});
    bind("jigsaw_stream_lease_events_total", lease_help,
         &StreamStats::staleResponses, {{"event", "stale_response"}});
    bind("jigsaw_stream_results_evicted_total",
         "Delivered results evicted under resultRetention.",
         &StreamStats::evicted);
    const char *cache_help =
        "Shared-executor cache events (PMF and split-prefix state).";
    const auto bindCache = [&](const char *cache, const char *result,
                               std::uint64_t StreamStats::*member) {
        cacheBindings_.emplace_back(
            &reg.counter("jigsaw_executor_cache_events_total",
                         cache_help,
                         {{"cache", cache}, {"result", result}}),
            member);
    };
    bindCache("pmf", "hit", &StreamStats::executorPmfHits);
    bindCache("pmf", "miss", &StreamStats::executorPmfMisses);
    bindCache("prefix_state", "hit", &StreamStats::prefixStateHits);
    bindCache("prefix_state", "miss", &StreamStats::prefixStateMisses);
    for (std::size_t cls = 0; cls < kPriorityClasses; ++cls) {
        const obs::Labels labels{{"class", kClassNames[cls]}};
        latencyHist_[cls] = &reg.histogram(
            "jigsaw_stream_latency_ms",
            "Submit-to-terminal latency of completed/failed jobs.",
            obs::defaultLatencyBoundsMs(), labels);
        queueWaitHist_[cls] = &reg.histogram(
            "jigsaw_stream_queue_wait_ms",
            "Submit-to-dispatch wait of completed/failed jobs.",
            obs::defaultLatencyBoundsMs(), labels);
        executeHist_[cls] = &reg.histogram(
            "jigsaw_stream_execute_ms",
            "Dispatch-to-terminal time of completed/failed jobs.",
            obs::defaultLatencyBoundsMs(), labels);
    }
    backlogGauge_ =
        &reg.gauge("jigsaw_stream_backlog_jobs",
                   "Undispatched live jobs (admission backlog).");
    inFlightGauge_ = &reg.gauge("jigsaw_stream_inflight",
                                "Dispatched jobs still running.");
    windowWidthGauge_ =
        &reg.gauge("jigsaw_window_width_ms",
                   "Effective merge-window width after overload "
                   "shrink.");
    windowWidthGauge_->set(std::max(options_.windowMs, 0.0));
}

void
StreamingScheduler::publishMetricsLocked()
{
    const StreamStats now = statsLocked();
    for (const auto &[counter, member] : counterBindings_) {
        if (now.*member > published_.*member)
            counter->add(now.*member - published_.*member);
    }
    for (const auto &[counter, member] : cacheBindings_) {
        if (now.*member > published_.*member)
            counter->add(now.*member - published_.*member);
    }
    published_ = now;
    backlogGauge_->set(static_cast<double>(backlog_));
    inFlightGauge_->set(static_cast<double>(inFlight_));
}

double
StreamingScheduler::retryHintMsLocked(std::size_t threshold) const
{
    // How long until the backlog should have drained below this
    // class's threshold: the excess jobs times the observed
    // per-completion interval. Before any completion exists (cold
    // scheduler) the window length is the only timescale at hand.
    const double per_job =
        drainEwmaMs_ > 0.0 ? drainEwmaMs_
                           : std::max(options_.windowMs, 1.0);
    const double excess =
        static_cast<double>(backlog_ - threshold + 1);
    return std::clamp(excess * per_job, 1.0, 60000.0);
}

SubmitResult
StreamingScheduler::submit(ServiceProgram program, Priority priority)
{
    std::unique_lock<std::mutex> lock(mutex_);
    fatalIf(stopping_, "StreamingScheduler: submit after shutdown");
    if (options_.maxQueuedJobs > 0) {
        const std::size_t cls = static_cast<std::size_t>(priority);
        const double fraction =
            std::clamp(options_.shedFractions[cls], 0.0, 1.0);
        const std::size_t threshold = static_cast<std::size_t>(
            std::ceil(fraction *
                      static_cast<double>(options_.maxQueuedJobs)));
        if (backlog_ >= threshold) {
            ++stats_.shed;
            ++stats_.shedByClass[cls];
            SubmitResult rejected;
            rejected.tryLaterAfterMs = retryHintMsLocked(threshold);
            JIGSAW_LOG_INFO(schedulerLog(), "submit shed",
                            log::kv("class", kClassNames[cls]),
                            log::kv("backlog", backlog_),
                            log::kv("threshold", threshold),
                            log::kv("retry_after_ms",
                                    rejected.tryLaterAfterMs));
            return rejected;
        }
    }
    const std::uint64_t id = nextJobId_++;
    auto job = std::make_unique<Job>(id, priority, std::move(program));
    job->submitAt = Clock::now();
    job->shared = job->program.executor == nullptr;
    if (job->shared) {
        job->deviceKey = job->program.device.fingerprint();
        job->windowKey = windowKeyFor(job->deviceKey, job->program.circuit);
    }
    if (job->program.deadlineMs > 0.0) {
        job->deadlineAt =
            job->submitAt + msDuration(job->program.deadlineMs);
        deadlined_.push_back(id);
    }
    if (tenants_.insert(job->program.tenant).second)
        tenantRotation_.push_back(job->program.tenant);
    jobs_.emplace(id, std::move(job));
    admission_.push_back(id);
    ++liveJobs_;
    ++backlog_;
    ++stats_.submitted;
    lock.unlock();
    dispatcherCv_.notify_all();
    return SubmitResult{true, JobHandle{id}, 0.0};
}

ParametricHandle
StreamingScheduler::compileParametric(ServiceProgram prototype)
{
    fatalIf(prototype.circuit.parameterCount() == 0,
            "compileParametric: circuit carries no rotation "
            "parameters to re-bind");
    // Prewarm the process-wide transpile memo outside the scheduler
    // lock: the prototype's global + CPM compilations land in the
    // same skeleton-keyed entries every iteration will hit. (The
    // executor's evolution caches warm on the first execution — they
    // need bound angles for the diagonal tail.)
    const SubsetPlan plan = planSubsets(
        prototype.circuit, prototype.trials, prototype.options);
    compileJobs(prototype.circuit, prototype.device, plan,
                prototype.options);
    std::lock_guard<std::mutex> lock(mutex_);
    fatalIf(stopping_,
            "StreamingScheduler: compileParametric after shutdown");
    const std::uint64_t id = nextParametricId_++;
    prototypes_.emplace(id, std::move(prototype));
    ++stats_.parametricPrograms;
    return ParametricHandle{id};
}

SubmitResult
StreamingScheduler::submitIteration(ParametricHandle handle,
                                    const std::vector<double> &angles,
                                    Priority priority)
{
    ServiceProgram program = [&] {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = prototypes_.find(handle.id);
        fatalIf(it == prototypes_.end(),
                "submitIteration: unknown parametric handle");
        ++stats_.parametricIterations;
        return it->second; // copy: the prototype stays pristine
    }();
    program.circuit.rebindAngles(angles);
    return submit(std::move(program), priority);
}

std::optional<JobStatus>
StreamingScheduler::poll(JobHandle handle) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(handle.id);
    if (it == jobs_.end())
        return std::nullopt;
    const Job &job = *it->second;
    JobStatus status;
    status.state = job.state;
    status.priority = job.priority;
    status.attempts = job.attempts;
    const auto now = Clock::now();
    switch (job.state) {
      case JobState::Queued:
      case JobState::Preparing:
      case JobState::Windowed:
        status.queueWaitMs = msBetweenImpl(job.submitAt, now);
        break;
      case JobState::Dispatched:
        status.queueWaitMs = msBetweenImpl(job.submitAt, job.dispatchAt);
        status.executeMs = msBetweenImpl(job.dispatchAt, now);
        break;
      default: // terminal
        status.queueWaitMs = msBetweenImpl(
            job.submitAt, job.dispatchAt.time_since_epoch().count()
                              ? job.dispatchAt
                              : job.doneAt);
        status.executeMs = msBetweenImpl(job.dispatchAt, job.doneAt);
        status.totalMs = msBetweenImpl(job.submitAt, job.doneAt);
        break;
    }
    return status;
}

void
StreamingScheduler::markDeliveredLocked(Job &job)
{
    if (job.delivered || options_.resultRetention == 0)
        return;
    job.delivered = true;
    retired_.push_back(job.id);
    while (retired_.size() > options_.resultRetention) {
        const std::uint64_t victim = retired_.front();
        retired_.pop_front();
        jobs_.erase(victim);
        ++stats_.evicted;
    }
}

JigsawResult
StreamingScheduler::wait(JobHandle handle)
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const auto it = jobs_.find(handle.id);
        fatalIf(it == jobs_.end(),
                "StreamingScheduler: wait on unknown (or released) "
                "job handle");
        Job &job = *it->second;
        if (job.state == JobState::Done) {
            // Copy before retention bookkeeping: the eviction sweep
            // may erase this very job.
            JigsawResult result = *job.result;
            markDeliveredLocked(job);
            return result;
        }
        if (job.state == JobState::Failed ||
            job.state == JobState::Expired) {
            const std::exception_ptr error = job.error;
            markDeliveredLocked(job);
            std::rethrow_exception(error);
        }
        if (job.state == JobState::Cancelled) {
            markDeliveredLocked(job);
            throw std::runtime_error(
                "StreamingScheduler: job was cancelled");
        }
        // Help the pool along (mandatory with zero workers), then
        // sleep briefly; finishJob broadcasts jobCv_ on every
        // terminal transition.
        lock.unlock();
        const bool ran = detail::sharedPool().tryRunOneTask();
        lock.lock();
        if (!ran) {
            jobCv_.wait_for(lock, std::chrono::milliseconds(2));
        }
    }
}

bool
StreamingScheduler::withdrawLocked(Job &job, JobState terminal_state,
                                   std::exception_ptr error)
{
    switch (job.state) {
      case JobState::Queued: {
        std::erase(admission_, job.id);
        std::erase(retryQueue_, job.id);
        finishJob(job, terminal_state, error);
        releaseJobState(job); // nothing started; trivially safe
        return true;
      }
      case JobState::Preparing: {
        // The stage task is still running; onPrepared sees the
        // terminal state, discards its outcome, and releases the
        // session (which the task may still be touching right now).
        finishJob(job, terminal_state, error);
        return true;
      }
      case JobState::Windowed: {
        // In its still-open window (partners untouched), or awaiting
        // a dispatch slot.
        const auto wit = windows_.find(job.windowId);
        if (wit != windows_.end()) {
            std::erase(wit->second->jobIds, job.id);
            if (wit->second->jobIds.empty())
                windows_.erase(wit);
        } else {
            std::erase_if(readyQueue_, [&](const ReadyEntry &entry) {
                return entry.id == job.id;
            });
        }
        finishJob(job, terminal_state, error);
        releaseJobState(job);
        return true;
      }
      default:
        return false; // dispatched or already terminal
    }
}

bool
StreamingScheduler::cancel(JobHandle handle)
{
    std::unique_lock<std::mutex> lock(mutex_);
    const auto it = jobs_.find(handle.id);
    if (it == jobs_.end())
        return false;
    if (!withdrawLocked(*it->second, JobState::Cancelled, nullptr))
        return false;
    lock.unlock();
    dispatcherCv_.notify_all();
    return true;
}

bool
StreamingScheduler::release(JobHandle handle)
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = jobs_.find(handle.id);
    if (it == jobs_.end())
        return false;
    if (!isTerminal(it->second->state))
        return false;
    // A cancelled-mid-prepare job's stage task may still be running;
    // onPrepared finds jobs by id and skips missing ones, so erasing
    // here is safe.
    if (it->second->delivered)
        std::erase(retired_, handle.id);
    jobs_.erase(it);
    ++stats_.released;
    return true;
}

void
StreamingScheduler::drain()
{
    awaitTerminal(nullptr);
}

void
StreamingScheduler::drain(const std::vector<JobHandle> &handles)
{
    awaitTerminal(&handles);
}

void
StreamingScheduler::awaitTerminal(const std::vector<JobHandle> *handles)
{
    const auto pending = [&] {
        if (handles == nullptr)
            return liveJobs_ > 0;
        return std::any_of(handles->begin(), handles->end(),
                           [&](JobHandle handle) {
                               const auto it = jobs_.find(handle.id);
                               return it != jobs_.end() &&
                                      !isTerminal(it->second->state);
                           });
    };
    std::unique_lock<std::mutex> lock(mutex_);
    while (pending()) {
        // Close open windows now instead of waiting out windowMs, but
        // only once no queued or preparing job can still join one:
        // closing earlier would split jobs submitted together across
        // windows depending on how fast each one prepared. Re-checked
        // every pass.
        const auto now = Clock::now();
        bool closed_any = false;
        const bool settled = admission_.empty() && preparing_ == 0 &&
                             scheduleReady_.empty();
        for (auto &[id, window] : windows_) {
            if (settled && window->deadline > now) {
                window->deadline = now;
                closed_any = true;
            }
        }
        lock.unlock();
        if (closed_any)
            dispatcherCv_.notify_all();
        const bool ran = detail::sharedPool().tryRunOneTask();
        lock.lock();
        if (!ran)
            jobCv_.wait_for(lock, std::chrono::milliseconds(2));
    }
}

StreamStats
StreamingScheduler::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return statsLocked();
}

StreamStats
StreamingScheduler::statsLocked() const
{
    StreamStats out = stats_;
    for (const auto &[key, executor] : sharedExecutors_) {
        const sim::ExecutorCounters counters = executor->counters();
        out.executorPmfHits += counters.pmfHits;
        out.executorPmfMisses += counters.pmfMisses;
        out.prefixStateHits += counters.prefixStateHits;
        out.prefixStateMisses += counters.prefixStateMisses;
    }
    return out;
}

std::size_t
StreamingScheduler::inFlightCap() const
{
    return options_.maxInFlight > 0 ? options_.maxInFlight
                                    : parallelThreads();
}

double
StreamingScheduler::effectiveWindowMsLocked()
{
    // Overload degradation: when the backlog fills the admission
    // budget, holding jobs in windows stops making sense — shrink the
    // window linearly from full (<= half capacity) to immediate
    // dispatch (>= capacity). Restores by itself as the queue drains.
    // Without an admission bound there is no overload signal, so no
    // shrink applies.
    const double window_ms = std::max(options_.windowMs, 0.0);
    double shrink = 1.0;
    const std::size_t capacity = options_.maxQueuedJobs;
    if (window_ms > 0.0 && capacity > 0) {
        const double utilization = static_cast<double>(backlog_) /
                                   static_cast<double>(capacity);
        if (utilization > 0.5)
            shrink = std::clamp(2.0 * (1.0 - utilization), 0.0, 1.0);
    }
    const double effective = window_ms * shrink;
    windowWidthGauge_->set(effective);
    if (effective < window_ms) {
        ++stats_.windowShrinks;
        JIGSAW_LOG_DEBUG(schedulerLog(), "window width adapted",
                         log::kv("width_ms", effective),
                         log::kv("configured_ms", window_ms));
    }
    return effective;
}

void
StreamingScheduler::startPrepare(Job &job)
{
    job.state = JobState::Preparing;
    if (job.shared) {
        std::shared_ptr<sim::Executor> &shared =
            sharedExecutors_[job.deviceKey];
        if (!shared) {
            // The shared executor's own seed never matters: every
            // draw comes from the jobs' private streams.
            shared = std::make_shared<sim::NoisySimulator>(
                job.program.device,
                sim::NoisySimulatorOptions{
                    .seed = job.program.executorSeed});
        }
        job.executor = shared;
        job.stream = std::make_unique<Rng>(job.program.executorSeed);
    } else {
        job.executor = job.program.executor;
    }
    job.session = std::make_shared<JigsawSession>(
        job.program.circuit, job.program.device, *job.executor,
        job.program.trials, job.program.options, job.stream.get());
    ++preparing_;
    JigsawSession *session = job.session.get();
    const std::uint64_t id = job.id;
    obs::TraceRecorder *trace = options_.trace.get();
    const std::uint32_t epoch = job.traceEpoch;
    group_.run(
        [session, trace, id, epoch] {
            if (trace != nullptr) {
                // Stepwise: the lazy stage accessors let the plan and
                // compile+schedule stages be timed separately.
                const double plan_start = trace->nowMs();
                session->plan();
                const double compile_start = trace->nowMs();
                trace->record(id, epoch, "plan", plan_start,
                              compile_start - plan_start, 0, 0);
                session->schedule();
                trace->record(id, epoch, "compile", compile_start,
                              trace->nowMs() - compile_start, 0, 0);
            } else {
                session->schedule();
            }
        },
        [this, id](std::exception_ptr error) { onPrepared(id, error); });
}

void
StreamingScheduler::onPrepared(std::uint64_t job_id,
                               std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        --preparing_;
        const auto it = jobs_.find(job_id);
        if (it == jobs_.end()) {
            // Withdrawn and release()d while the stage task ran:
            // nothing left to touch.
        } else if (isTerminal(it->second->state)) {
            // Cancelled/expired mid-prepare; the stage outcome is
            // discarded, and with the stage task over the session can
            // go too.
            releaseJobState(*it->second);
        } else if (error) {
            handleJobFailure(*it->second, error, Clock::now());
        } else {
            scheduleReady_.push_back(job_id);
        }
    }
    dispatcherCv_.notify_all();
    jobCv_.notify_all();
}

void
StreamingScheduler::scheduleLocked(Job &job, Clock::time_point now)
{
    job.state = JobState::Windowed;
    Window *window = nullptr;
    if (job.shared) {
        for (auto &[id, candidate] : windows_) {
            if (candidate->key == job.windowKey &&
                candidate->jobIds.size() < options_.windowMaxJobs) {
                window = candidate.get();
                break;
            }
        }
    }
    // High-priority jobs never trade latency for a window: they close
    // the one they join (with whatever has joined so far) or skip it.
    const bool hurry = job.priority == Priority::High || stopping_;
    if (window == nullptr) {
        const double width =
            job.shared && !hurry ? effectiveWindowMsLocked() : 0.0;
        if (width <= 0.0) {
            ++stats_.loneDispatches;
            readyLocked(job, now);
            return;
        }
        auto fresh = std::make_unique<Window>();
        fresh->id = nextWindowId_++;
        fresh->key = job.windowKey;
        fresh->openedAt = now;
        fresh->deadline = now + msDuration(width);
        window = fresh.get();
        windows_.emplace(fresh->id, std::move(fresh));
        JIGSAW_LOG_TRACE(schedulerLog(), "window opened",
                         log::kv("window", window->id),
                         log::kv("key", window->key));
    }
    window->jobIds.push_back(job.id);
    job.windowId = window->id;
    job.windowStartAt = now;
    JIGSAW_LOG_TRACE(schedulerLog(), "job joined window",
                     log::kv("job", job.id),
                     log::kv("window", window->id));
    if (hurry)
        window->deadline = now;
    if (window->jobIds.size() >= options_.windowMaxJobs ||
        window->deadline <= now)
        closeWindow(window->id, now);
}

void
StreamingScheduler::closeWindow(std::uint64_t window_id,
                                Clock::time_point now)
{
    const auto it = windows_.find(window_id);
    const std::vector<std::uint64_t> members =
        std::move(it->second->jobIds);
    JIGSAW_LOG_DEBUG(schedulerLog(), "window closed",
                     log::kv("window", window_id),
                     log::kv("jobs", members.size()),
                     log::kv("waited_ms",
                             msBetweenImpl(it->second->openedAt, now)));
    windows_.erase(it);
    if (members.size() >= 2) {
        ++stats_.mergedWindows;
        stats_.mergedJobs += members.size();
    } else {
        ++stats_.loneDispatches;
    }
    for (const std::uint64_t id : members)
        readyLocked(*jobs_.at(id), now);
}

void
StreamingScheduler::readyLocked(Job &job, Clock::time_point now)
{
    ReadyEntry entry;
    entry.id = job.id;
    entry.cls = job.priority;
    entry.readySince = now;
    entry.tenant = job.program.tenant;
    readyQueue_.push_back(std::move(entry));
}

bool
StreamingScheduler::dispatchNext(Clock::time_point now)
{
    if (readyQueue_.empty() || inFlight_ >= inFlightCap())
        return false;
    // Strongest aged class present anywhere in the queue...
    std::size_t best_class = kPriorityClasses;
    for (const ReadyEntry &entry : readyQueue_) {
        best_class = std::min(
            best_class,
            effectiveClass(entry.cls,
                           msBetweenImpl(entry.readySince, now),
                           options_.agingMs));
    }
    // ...then, inside that class, each tenant's earliest-ready job is
    // its candidate and the round-robin cursor picks among tenants,
    // so a hot tenant cannot starve the rest.
    std::unordered_map<std::string, std::size_t> candidate;
    for (std::size_t i = 0; i < readyQueue_.size(); ++i) {
        const ReadyEntry &entry = readyQueue_[i];
        if (effectiveClass(entry.cls,
                           msBetweenImpl(entry.readySince, now),
                           options_.agingMs) != best_class)
            continue;
        const auto it = candidate.find(entry.tenant);
        if (it == candidate.end() ||
            entry.readySince < readyQueue_[it->second].readySince)
            candidate[entry.tenant] = i;
    }
    const std::size_t pick = nextTenantCandidate(
        tenantRotation_, rrCursor_, candidate, readyQueue_.size());
    panicIf(pick == readyQueue_.size(),
            "dispatch: ready job without tenant");
    Job &job = *jobs_.at(readyQueue_[pick].id);
    readyQueue_.erase(readyQueue_.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    // Last-chance SLO check: a job aged out while it queued for a
    // slot expires here instead of executing past its deadline.
    if (isSet(job.deadlineAt) && job.deadlineAt <= now)
        withdrawLocked(job, JobState::Expired, deadlineError());
    else
        dispatchJob(job, now);
    return true;
}

void
StreamingScheduler::dispatchJob(Job &job, Clock::time_point now)
{
    job.state = JobState::Dispatched;
    job.dispatchAt = now;
    --backlog_;
    ++inFlight_;
    obs::TraceRecorder *trace = options_.trace.get();
    if (trace != nullptr) {
        if (isSet(job.windowStartAt)) {
            trace->record(job.id, job.traceEpoch, "window",
                          trace->toMs(job.windowStartAt),
                          msBetweenImpl(job.windowStartAt, now),
                          job.windowId, 0);
        }
        trace->record(job.id, job.traceEpoch, "dispatch",
                      trace->toMs(now), 0.0, job.windowId, 0);
    }
    JIGSAW_LOG_TRACE(schedulerLog(), "job dispatched",
                     log::kv("job", job.id),
                     log::kv("backend",
                             transport_ != nullptr && job.shared
                                 ? "worker"
                                 : "local"));
    if (transport_ != nullptr && job.shared)
        grantLeaseLocked(job, 0, now);
    else
        runOnPoolLocked(job);
}

void
StreamingScheduler::runOnPoolLocked(
    Job &job, std::shared_ptr<ExecutionResult> execution)
{
    // group_.run only enqueues, so submitting under the lock is safe;
    // the task itself runs unlocked.
    JigsawSession *session = job.session.get();
    std::shared_ptr<JigsawResult> *result_slot = &job.result;
    obs::TraceRecorder *trace = options_.trace.get();
    const std::uint64_t id = job.id;
    const std::uint32_t epoch = job.traceEpoch;
    const std::uint64_t window_id = job.windowId;
    group_.run(
        [session, result_slot, execution, trace, id, epoch, window_id] {
            if (execution != nullptr) {
                session->adoptExecution(std::move(*execution));
            } else if (trace != nullptr) {
                // Executed apart from run() for the span split.
                const double exec_start = trace->nowMs();
                session->executed();
                trace->record(id, epoch, "execute", exec_start,
                              trace->nowMs() - exec_start, window_id, 0);
            }
            const double recon_start =
                trace != nullptr ? trace->nowMs() : 0.0;
            *result_slot = std::make_shared<JigsawResult>(session->run());
            if (trace != nullptr)
                trace->record(id, epoch, "reconstruct", recon_start,
                              trace->nowMs() - recon_start, window_id, 0);
        },
        [this, id](std::exception_ptr error) { onExecuted(id, error); });
}

void
StreamingScheduler::finishDispatchedLocked(Job &job,
                                           std::exception_ptr error)
{
    --inFlight_;
    if (error) {
        handleJobFailure(job, error, Clock::now());
    } else {
        finishJob(job, JobState::Done, nullptr);
        releaseJobState(job);
    }
}

void
StreamingScheduler::onExecuted(std::uint64_t job_id,
                               std::exception_ptr error)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        finishDispatchedLocked(*jobs_.at(job_id), error);
    }
    dispatcherCv_.notify_all();
    jobCv_.notify_all();
}

ExecutionRequest
StreamingScheduler::buildRequestLocked(Job &job,
                                       std::uint64_t lease_id) const
{
    // No executor and no stream: the worker binds its own executor and
    // a fresh Rng(executorSeed), leaving the job's stream untouched
    // for any later local fallback to replay.
    ExecutionRequest request;
    request.leaseId = lease_id;
    request.heartbeatMs = options_.worker.heartbeatMs;
    // Aliases the retained session's device: no copy per request.
    request.device = std::shared_ptr<const device::DeviceModel>(
        job.session, &job.session->device());
    request.deviceKey = job.deviceKey;
    request.jobs = &job.session->compiled();
    request.schedule = &job.session->schedule();
    request.plan = &job.session->plan();
    request.seed = job.program.executorSeed;
    request.session = job.session;
    return request;
}

void
StreamingScheduler::grantLeaseLocked(Job &job, std::size_t attempts,
                                     Clock::time_point now)
{
    for (; attempts <= options_.worker.workerRetries; ++attempts) {
        if (transport_->liveWorkers() == 0)
            break; // dead fleet: straight to the degradation floor
        const std::uint64_t lease_id = nextLeaseId_++;
        try {
            transport_->send(buildRequestLocked(job, lease_id));
        } catch (...) {
            // Send failure (including an injected transport.send
            // fault): the lease never reached the fleet — count it
            // lost and try again. The job's retry budget is never
            // charged for fleet trouble.
            ++stats_.leasesRevoked;
            JIGSAW_LOG_INFO(schedulerLog(), "lease send failed",
                            log::kv("job", job.id),
                            log::kv("attempt", attempts));
            continue;
        }
        Lease lease;
        lease.id = lease_id;
        lease.jobId = job.id;
        lease.attempts = attempts;
        lease.deadline =
            now + msDuration(options_.worker.leaseTimeoutMs);
        leases_.emplace(lease_id, lease);
        ++stats_.leasesGranted;
        if (attempts > 0)
            ++stats_.redispatches;
        JIGSAW_LOG_DEBUG(schedulerLog(),
                         attempts > 0 ? "job re-dispatched"
                                      : "lease granted",
                         log::kv("lease", lease_id),
                         log::kv("job", job.id),
                         log::kv("attempt", attempts));
        return;
    }
    // Graceful degradation: the fleet is dead or burned through
    // workerRetries leases — run the job on the local pool, the path
    // a transportless scheduler always takes.
    ++stats_.localFallbacks;
    JIGSAW_LOG_WARN(schedulerLog(),
                    "worker tier exhausted; job falling back to "
                    "local execution",
                    log::kv("job", job.id),
                    log::kv("lost_leases", attempts),
                    log::kv("live_workers", transport_->liveWorkers()));
    runOnPoolLocked(job);
}

void
StreamingScheduler::superviseLeasesLocked(Clock::time_point now)
{
    if (leases_.empty())
        return;
    struct Lost
    {
        Lease lease;
        bool expired = false; ///< Deadline (vs worker death).
    };
    std::vector<Lost> lost;
    for (const auto &[id, lease] : leases_) {
        const bool expired = now >= lease.deadline;
        bool dead = false;
        if (const auto silence = transport_->msSinceHeartbeat(id)) {
            // A worker holds it: heartbeat silence past the timeout
            // means the worker died mid-job.
            dead = *silence > options_.worker.heartbeatTimeoutMs;
        } else {
            // Unassigned: still queued (the deadline covers slow
            // pickup) — unless no live worker remains to ever take it.
            dead = transport_->liveWorkers() == 0;
        }
        if (expired || dead)
            lost.push_back({lease, expired});
    }
    for (const Lost &entry : lost) {
        leases_.erase(entry.lease.id);
        transport_->revoke(entry.lease.id);
        if (entry.expired)
            ++stats_.leasesExpired;
        else
            ++stats_.leasesRevoked;
        JIGSAW_LOG_WARN(schedulerLog(),
                        entry.expired
                            ? "lease deadline expired; revoking"
                            : "worker lost (heartbeat silence); "
                              "revoking lease",
                        log::kv("lease", entry.lease.id),
                        log::kv("job", entry.lease.jobId),
                        log::kv("attempt", entry.lease.attempts));
        grantLeaseLocked(*jobs_.at(entry.lease.jobId),
                         entry.lease.attempts + 1, now);
    }
}

void
StreamingScheduler::drainTransportLocked()
{
    for (;;) {
        std::optional<ExecutionResponse> response;
        try {
            response = transport_->tryRecv();
        } catch (...) {
            // recv failure (including an injected transport.recv
            // fault): that response is lost in flight; its lease
            // deadline re-dispatches the job.
            continue;
        }
        if (!response)
            return;
        const auto lit = leases_.find(response->leaseId);
        if (lit == leases_.end()) {
            // A revoked lease answering late: the job already
            // completed (or is completing) another way; the envelope
            // is dropped whole, so the duplicate execution is
            // invisible outside this counter.
            ++stats_.staleResponses;
            JIGSAW_LOG_DEBUG(schedulerLog(),
                             "stale lease response dropped",
                             log::kv("lease", response->leaseId),
                             log::kv("worker", response->worker));
            continue;
        }
        Job &job = *jobs_.at(lit->second.jobId);
        const std::uint64_t lease_id = lit->first;
        leases_.erase(lit);
        if (!response->ok) {
            // A job-level failure ON the worker (not a lost lease):
            // the regular retry routing applies, exactly as if the
            // local path had thrown.
            finishDispatchedLocked(job, responseError(*response));
            continue;
        }
        if (stats_.workerCompleted.size() <= response->worker)
            stats_.workerCompleted.resize(response->worker + 1, 0);
        ++stats_.workerCompleted[response->worker];
        obs::TraceRecorder *trace = options_.trace.get();
        if (trace != nullptr) {
            trace->record(job.id, job.traceEpoch, "execute",
                          trace->nowMs() - response->executeMs,
                          response->executeMs, job.windowId, lease_id);
        }
        runOnPoolLocked(job, std::make_shared<ExecutionResult>(
                                 std::move(response->result)));
    }
}

std::optional<StreamingScheduler::Clock::time_point>
StreamingScheduler::nextLeaseEventLocked(Clock::time_point now) const
{
    if (leases_.empty())
        return std::nullopt;
    // Poll cadence for death detection: half the heartbeat timeout
    // keeps worst-case detection latency ~1.5x the timeout without
    // busy-waiting; lease deadlines may be sooner.
    auto next = now + msDuration(std::max(
                          options_.worker.heartbeatTimeoutMs, 1.0) /
                      2.0);
    for (const auto &[id, lease] : leases_) {
        if (lease.deadline < next)
            next = lease.deadline;
    }
    return next;
}

void
StreamingScheduler::requeueLocked(Job &job, Clock::time_point retry_at)
{
    // Full pipeline restart: drop the partially-consumed session,
    // stream, and executor reference so the retried job replays its
    // draws from Rng(executorSeed) — bitwise-identical to a run that
    // was never disturbed.
    const bool was_backlogged = job.state != JobState::Dispatched;
    releaseJobState(job);
    job.result.reset();
    job.error = nullptr;
    job.windowId = 0;
    job.windowStartAt = {};
    ++job.traceEpoch; // the retry's spans form a fresh attempt set
    job.state = JobState::Queued;
    job.retryAt = retry_at;
    if (!was_backlogged)
        ++backlog_;
    retryQueue_.push_back(job.id);
}

void
StreamingScheduler::handleJobFailure(Job &job, std::exception_ptr error,
                                     Clock::time_point now)
{
    if (isTransient(error) &&
        job.attempts < options_.maxRetries) {
        ++job.attempts;
        ++stats_.retries;
        const double backoff = std::min(
            options_.retryBackoffMs *
                std::ldexp(1.0, static_cast<int>(job.attempts) - 1),
            options_.retryBackoffMaxMs);
        JIGSAW_LOG_INFO(schedulerLog(), "transient failure; retrying",
                        log::kv("job", job.id),
                        log::kv("attempt", job.attempts),
                        log::kv("backoff_ms", backoff));
        const auto retry_at =
            stopping_ ? now : now + msDuration(backoff);
        if (isSet(job.deadlineAt) && retry_at >= job.deadlineAt) {
            // The backoff alone would blow the SLO: expire now
            // instead of burning a retry that cannot finish in time.
            finishJob(job, JobState::Expired, deadlineError());
            releaseJobState(job);
            return;
        }
        requeueLocked(job, retry_at);
        return;
    }
    finishJob(job, JobState::Failed, error);
    releaseJobState(job);
}

void
StreamingScheduler::expireDueJobsLocked(Clock::time_point now)
{
    if (deadlined_.empty())
        return;
    std::erase_if(deadlined_, [&](std::uint64_t id) {
        const auto it = jobs_.find(id);
        if (it == jobs_.end())
            return true; // released/evicted
        Job &job = *it->second;
        switch (job.state) {
          case JobState::Queued:
          case JobState::Preparing:
          case JobState::Windowed:
            if (job.deadlineAt <= now) {
                withdrawLocked(job, JobState::Expired,
                               deadlineError());
                return true;
            }
            return false;
          case JobState::Dispatched:
            // Past the point of no return — but a transient failure
            // may requeue it, so keep watching.
            return false;
          default:
            return true; // terminal
        }
    });
}

void
StreamingScheduler::releaseJobState(Job &job)
{
    // A terminal job keeps its result, error, and timestamps for
    // poll()/wait(), but the heavyweight pipeline state — session
    // artifacts, draw stream, executor reference — is dead weight for
    // a long-running service, so each finish site drops it as soon as
    // no pool task can still touch the session. (Cancel-mid-prepare
    // defers to onPrepared.)
    job.session.reset();
    job.stream.reset();
    job.executor.reset();
}

void
StreamingScheduler::finishJob(Job &job, JobState state,
                              std::exception_ptr error)
{
    const JobState prior = job.state;
    job.state = state;
    job.doneAt = Clock::now();
    job.error = error;
    --liveJobs_;
    if (prior == JobState::Queued || prior == JobState::Preparing ||
        prior == JobState::Windowed)
        --backlog_;
    switch (state) {
      case JobState::Done:
        ++stats_.completed;
        ++stats_.completedByClass[static_cast<std::size_t>(
            job.priority)];
        JIGSAW_LOG_TRACE(schedulerLog(), "job done",
                         log::kv("job", job.id),
                         log::kv("attempts", job.attempts));
        break;
      case JobState::Failed:
        ++stats_.failed;
        JIGSAW_LOG_INFO(schedulerLog(), "job failed",
                        log::kv("job", job.id),
                        log::kv("attempts", job.attempts));
        break;
      case JobState::Cancelled:
        ++stats_.cancelled;
        JIGSAW_LOG_DEBUG(schedulerLog(), "job cancelled",
                         log::kv("job", job.id));
        jobCv_.notify_all();
        return; // no latency sample: the job never ran
      case JobState::Expired:
        ++stats_.expired;
        JIGSAW_LOG_INFO(schedulerLog(), "job expired past its SLO",
                        log::kv("job", job.id),
                        log::kv("deadline_ms", job.program.deadlineMs));
        jobCv_.notify_all();
        return; // likewise: it never dispatched
      default:
        panicIf(true, "finishJob: non-terminal state");
    }
    // Completion-interval EWMA: the drain-rate estimate behind shed
    // submits' tryLaterAfterMs hints.
    if (isSet(lastCompletionAt_)) {
        const double interval =
            msBetweenImpl(lastCompletionAt_, job.doneAt);
        drainEwmaMs_ = drainEwmaMs_ > 0.0
                           ? 0.8 * drainEwmaMs_ + 0.2 * interval
                           : interval;
    } else {
        // Cold start: no completion interval exists yet, but this
        // first job's execute latency is a far better drain estimate
        // than the windowMs fallback retryHintMsLocked would use —
        // with a long merge window that fallback overstates the hint
        // by orders of magnitude.
        const double execute_ms =
            msBetweenImpl(job.dispatchAt, job.doneAt);
        if (execute_ms > 0.0)
            drainEwmaMs_ = execute_ms;
    }
    lastCompletionAt_ = job.doneAt;
    const double queue_wait_ms = msBetweenImpl(
        job.submitAt, job.dispatchAt.time_since_epoch().count()
                          ? job.dispatchAt
                          : job.doneAt);
    const double execute_ms = msBetweenImpl(job.dispatchAt, job.doneAt);
    const double total_ms = msBetweenImpl(job.submitAt, job.doneAt);
    // Every job lands in the fixed-bucket histograms — the local
    // per-class copies behind the StreamStats percentile views, and
    // the process-wide registry instruments a scrape reads. Both are
    // bounded by construction, so the double-observe replaces the old
    // sample reservoir without re-introducing per-job memory.
    ++stats_.jobsObserved;
    const std::size_t cls = static_cast<std::size_t>(job.priority);
    stats_.latencyByClass[cls].observe(total_ms);
    stats_.queueWaitByClass[cls].observe(queue_wait_ms);
    stats_.executeByClass[cls].observe(execute_ms);
    latencyHist_[cls]->observe(total_ms);
    queueWaitHist_[cls]->observe(queue_wait_ms);
    executeHist_[cls]->observe(execute_ms);
    jobCv_.notify_all();
}

void
StreamingScheduler::dispatcherLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        const auto now = Clock::now();

        // Expire SLO-missed jobs before they consume anything else.
        expireDueJobsLocked(now);

        // Worker tier: land completed jobs first (a response in
        // hand beats re-dispatching its lease), then revoke leases
        // whose worker died or deadline passed.
        if (transport_ != nullptr) {
            drainTransportLocked();
            superviseLeasesLocked(now);
        }

        // Move due retries (all of them when stopping) into admission.
        if (!retryQueue_.empty()) {
            std::erase_if(retryQueue_, [&](std::uint64_t id) {
                Job &job = *jobs_.at(id);
                if (stopping_ || job.retryAt <= now) {
                    admission_.push_back(id);
                    return true;
                }
                return false;
            });
        }

        // Admit queued jobs into their prepare stage, strongest aged
        // class first (matters when submissions outrun the pool). The
        // prepare gate keeps the pool's FIFO task queue shallow —
        // roughly one prepare in flight per execution slot — so jobs
        // held back wait HERE, where the strongest class is re-picked
        // every pass, instead of in the pool queue, which has no
        // notion of priority. High-class jobs bypass the gate: a
        // fresh High submission must reach the pool without queuing
        // behind the whole backlog's stage work. Inside the class,
        // each tenant's oldest queued job is its candidate and an
        // admission cursor rotates among tenants, as dispatch does, so
        // a hog's backlog cannot fill the gate ahead of a later guest.
        while (!admission_.empty()) {
            const auto class_of = [&](std::uint64_t id) {
                const Job &job = *jobs_.at(id);
                return effectiveClass(job.priority,
                                      msBetweenImpl(job.submitAt, now),
                                      options_.agingMs);
            };
            std::size_t best_class = kPriorityClasses;
            for (const std::uint64_t id : admission_)
                best_class = std::min(best_class, class_of(id));
            if (best_class != 0 && preparing_ >= inFlightCap() + 1)
                break;
            std::unordered_map<std::string, std::size_t> candidate;
            for (std::size_t i = 0; i < admission_.size(); ++i) {
                if (class_of(admission_[i]) == best_class)
                    candidate.try_emplace(
                        jobs_.at(admission_[i])->program.tenant, i);
            }
            const std::size_t best = nextTenantCandidate(
                tenantRotation_, admitCursor_, candidate, admission_.size());
            panicIf(best == admission_.size(),
                    "admission: queued job without tenant");
            Job &job = *jobs_.at(admission_[best]);
            admission_.erase(admission_.begin() +
                             static_cast<std::ptrdiff_t>(best));
            startPrepare(job);
        }

        // Window the jobs whose pipeline stages completed.
        if (!scheduleReady_.empty()) {
            const std::vector<std::uint64_t> ready =
                std::move(scheduleReady_);
            scheduleReady_.clear();
            for (const std::uint64_t id : ready) {
                const auto it = jobs_.find(id);
                if (it == jobs_.end())
                    continue; // withdrawn and released meanwhile
                if (isTerminal(it->second->state)) {
                    // Withdrawn after its prepare stage finished: no
                    // task touches the session any more.
                    releaseJobState(*it->second);
                    continue;
                }
                scheduleLocked(*it->second, now);
            }
        }

        // Close expired windows.
        std::vector<std::uint64_t> due;
        for (const auto &[id, window] : windows_) {
            if (window->deadline <= now)
                due.push_back(id);
        }
        for (const std::uint64_t id : due)
            closeWindow(id, now);

        // Dispatch while slots are free.
        while (dispatchNext(now)) {
        }

        if (stopping_ && liveJobs_ == 0)
            return;

        // On a worker-less pool nothing else drains the task queue
        // when callers only poll(); the dispatcher pitches in.
        if (detail::sharedPool().workerCount() == 0 &&
            (inFlight_ > 0 || preparing_ > 0)) {
            lock.unlock();
            const bool ran = detail::sharedPool().tryRunOneTask();
            lock.lock();
            if (ran)
                continue;
        }

        // Sleep until the next timed event — window deadline, retry
        // backoff, or job SLO — or a notification.
        std::optional<Clock::time_point> next;
        const auto consider = [&next](Clock::time_point at) {
            if (!next || at < *next)
                next = at;
        };
        for (const auto &[id, window] : windows_)
            consider(window->deadline);
        for (const std::uint64_t id : retryQueue_)
            consider(jobs_.at(id)->retryAt);
        for (const std::uint64_t id : deadlined_) {
            const auto it = jobs_.find(id);
            if (it == jobs_.end())
                continue;
            const Job &job = *it->second;
            if (!isTerminal(job.state) &&
                job.state != JobState::Dispatched)
                consider(job.deadlineAt);
        }
        if (const auto lease_event = nextLeaseEventLocked(now))
            consider(*lease_event);
        // Loop again only for work this pass can act on: jobs that
        // prepared while the pool helper above had the lock released,
        // or queued jobs the prepare gate now lets through. Jobs the
        // gate holds back wait for a prepare to finish (onPrepared
        // notifies); looping on them would keep the lock from
        // onPrepared and spin until aging freed them.
        if (!scheduleReady_.empty() ||
            (!admission_.empty() && preparing_ < inFlightCap() + 1))
            continue;
        if (detail::sharedPool().workerCount() == 0 &&
            (inFlight_ > 0 || preparing_ > 0)) {
            dispatcherCv_.wait_for(lock, std::chrono::milliseconds(1));
        } else if (next) {
            dispatcherCv_.wait_until(lock, *next);
        } else {
            dispatcherCv_.wait(lock);
        }
    }
}

} // namespace core
} // namespace jigsaw
