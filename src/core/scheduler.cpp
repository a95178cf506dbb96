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
 * prefixes differ only in diagonal-rotation angles, which the merged
 * executor deduplicates via its skeleton split-prefix cache.
 */
std::uint64_t
windowKeyFor(MergePolicy policy, std::uint64_t device_key,
             const circuit::QuantumCircuit &circuit)
{
    if (policy == MergePolicy::Always)
        return device_key; // mergeSourceInto separates prefixes inside
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
    // means every window runs on the local pool, as before.
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
        for (auto &[id, window] : windows_) {
            if (!window->closed)
                window->deadline = now;
        }
    }
    dispatcherCv_.notify_all();
    dispatcher_.join();
    group_.wait(); // completion callbacks all ran; nothing in flight
    if (transport_ != nullptr) {
        // A stale worker (revoked lease, window finished elsewhere)
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
    bind("jigsaw_stream_quarantined_jobs_total",
         "Jobs re-queued solo after a poisoned merged window.",
         &StreamStats::quarantinedJobs);
    const char *windows_help = "Dispatched execution units by kind.";
    bind("jigsaw_stream_windows_total", windows_help,
         &StreamStats::mergedWindows, {{"kind", "merged"}});
    bind("jigsaw_stream_windows_total", windows_help,
         &StreamStats::loneDispatches, {{"kind", "lone"}});
    bind("jigsaw_stream_merged_jobs_total",
         "Jobs that rode a merged window.", &StreamStats::mergedJobs);
    const char *resize_help =
        "Merge windows opened at an adapted width, by direction.";
    bind("jigsaw_window_resizes_total", resize_help,
         &StreamStats::windowShrinks, {{"direction", "shrink"}});
    bind("jigsaw_window_resizes_total", resize_help,
         &StreamStats::windowGrows, {{"direction", "grow"}});
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
    inFlightGauge_ =
        &reg.gauge("jigsaw_stream_inflight",
                   "Dispatched windows/solo jobs still running.");
    windowWidthGauge_ =
        &reg.gauge("jigsaw_window_width_ms",
                   "Effective merge-window width after overload "
                   "shrink and burst growth.");
    burstScoreGauge_ = &reg.gauge(
        "jigsaw_burst_score",
        "Drain EWMA over arrival EWMA; > 1 means jobs arrive faster "
        "than they drain.");
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
    // Inter-arrival EWMA: the burst detector's numerator-side signal
    // (effectiveWindowMsLocked compares it against the drain EWMA).
    if (isSet(lastSubmitAt_)) {
        const double gap = msBetweenImpl(lastSubmitAt_, job->submitAt);
        arrivalEwmaMs_ = arrivalEwmaMs_ > 0.0
                             ? 0.8 * arrivalEwmaMs_ + 0.2 * gap
                             : gap;
    }
    lastSubmitAt_ = job->submitAt;
    job->mergeEligible = options_.mergePolicy != MergePolicy::Never &&
                         job->program.executor == nullptr;
    if (job->mergeEligible) {
        job->deviceKey = job->program.device.fingerprint();
        job->windowKey = windowKeyFor(options_.mergePolicy,
                                      job->deviceKey,
                                      job->program.circuit);
    }
    if (job->program.deadlineMs > 0.0) {
        job->deadlineAt =
            job->submitAt + msDuration(job->program.deadlineMs);
        deadlined_.push_back(id);
    }
    if (tenantDeficit_.emplace(job->program.tenant, 0.0).second)
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
        if (job.windowSlot == kNoSlot) {
            // A prepared solo job awaiting its dispatch slot (it
            // never joins a window): pull it off the dispatch queue.
            std::erase_if(readyQueue_, [&](const ReadyEntry &entry) {
                return !entry.isWindow && entry.id == job.id;
            });
            finishJob(job, terminal_state, error);
            releaseJobState(job);
            return true;
        }
        // Unwind the job from its (open or closed-but-undispatched)
        // window: members out of the incremental merged schedule,
        // slot disabled so the executor pass skips it.
        const auto wit = windows_.find(job.windowId);
        panicIf(wit == windows_.end(),
                "withdraw: windowed job without window");
        Window &window = *wit->second;
        panicIf(window.dispatched,
                "withdraw: windowed job in dispatched window");
        removeSourceFrom(window.merged, job.windowSlot);
        window.sources[job.windowSlot].enabled = false;
        window.slotJob[job.windowSlot] = 0;
        std::erase(window.jobIds, job.id);
        finishJob(job, terminal_state, error);
        // The disabled slot's MergeSource now dangles into this
        // job's released session/stream, but executeMergedSchedules
        // never dereferences a disabled source (and removeSourceFrom
        // left it no members), so the release is safe.
        releaseJobState(job);
        if (window.jobIds.empty()) {
            std::erase_if(readyQueue_, [&](const ReadyEntry &entry) {
                return entry.isWindow && entry.id == window.id;
            });
            windows_.erase(wit);
        }
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
            if (settled && !window->closed && window->deadline > now) {
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
    // Two opposing adaptive signals compose here, per window opened:
    //
    //  - Overload degradation: when the backlog fills the admission
    //    budget, trading latency for merging stops making sense —
    //    shrink the window linearly from full (<= half capacity) to
    //    immediate dispatch (>= capacity). Restores by itself as the
    //    queue drains. Without an admission bound there is no
    //    overload signal — a deep backlog is then just a batch burst,
    //    where merging is the whole point — so no shrink applies.
    //  - Burst growth: while jobs arrive faster than they drain
    //    (burst score = drain EWMA / arrival EWMA > 1), wider windows
    //    merge best, so the window grows by the score up to
    //    StreamOptions::burstGrowMax. The default cap of 1 only
    //    counteracts the shrink — the window never exceeds its
    //    configured width unless the caller opts in.
    const double window_ms = std::max(options_.windowMs, 0.0);
    double burst_score = 0.0;
    if (arrivalEwmaMs_ > 0.0 && drainEwmaMs_ > 0.0)
        burst_score = drainEwmaMs_ / arrivalEwmaMs_;
    burstScoreGauge_->set(burst_score);
    if (window_ms == 0.0) {
        windowWidthGauge_->set(0.0);
        return 0.0;
    }
    double shrink = 1.0;
    const std::size_t capacity = options_.maxQueuedJobs;
    if (capacity > 0) {
        const double utilization = static_cast<double>(backlog_) /
                                   static_cast<double>(capacity);
        if (utilization > 0.5)
            shrink = std::clamp(2.0 * (1.0 - utilization), 0.0, 1.0);
    }
    const double grow_cap = std::max(options_.burstGrowMax, 1.0);
    const double grow = std::clamp(burst_score, 1.0, grow_cap);
    const double effective =
        window_ms * std::min(shrink * grow, grow_cap);
    if (effective < window_ms)
        ++stats_.windowShrinks;
    else if (effective > window_ms)
        ++stats_.windowGrows;
    windowWidthGauge_->set(effective);
    if (effective != window_ms) {
        JIGSAW_LOG_DEBUG(schedulerLog(), "window width adapted",
                         log::kv("width_ms", effective),
                         log::kv("configured_ms", window_ms),
                         log::kv("burst_score", burst_score),
                         log::kv("shrink", shrink));
    }
    return effective;
}

void
StreamingScheduler::startPrepare(Job &job)
{
    job.state = JobState::Preparing;
    if (job.mergeEligible) {
        std::shared_ptr<sim::Executor> &shared =
            sharedExecutors_[job.deviceKey];
        if (!shared) {
            // The shared executor's own seed never matters: every
            // merged draw comes from the job's private stream.
            shared = std::make_shared<sim::NoisySimulator>(
                job.program.device,
                sim::NoisySimulatorOptions{
                    .seed = job.program.executorSeed});
        }
        job.executor = shared;
        job.stream = std::make_unique<Rng>(job.program.executorSeed);
    } else if (job.program.executor) {
        job.executor = job.program.executor;
    } else {
        job.executor = std::make_shared<sim::NoisySimulator>(
            job.program.device,
            sim::NoisySimulatorOptions{.seed = job.program.executorSeed});
    }
    job.session = std::make_shared<JigsawSession>(
        job.program.circuit, job.program.device, *job.executor,
        job.program.trials, job.program.options);
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
            handleJobFailure(*it->second, error, Clock::now(), false);
        } else if (it->second->mergeEligible) {
            scheduleReady_.push_back(job_id);
        } else {
            Job &job = *it->second;
            job.state = JobState::Windowed; // dispatchable, no window
            ReadyEntry entry;
            entry.id = job_id;
            entry.cls = job.priority;
            entry.readySince = Clock::now();
            entry.tenant = job.program.tenant;
            readyQueue_.push_back(std::move(entry));
        }
    }
    dispatcherCv_.notify_all();
    jobCv_.notify_all();
}

void
StreamingScheduler::joinWindow(Job &job, Clock::time_point now)
{
    Window *window = nullptr;
    if (!job.quarantined) {
        for (auto &[id, candidate] : windows_) {
            if (!candidate->closed && !candidate->exclusive &&
                candidate->key == job.windowKey &&
                candidate->jobIds.size() < options_.windowMaxJobs) {
                window = candidate.get();
                break;
            }
        }
    }
    if (window == nullptr) {
        auto fresh = std::make_unique<Window>();
        fresh->id = nextWindowId_++;
        fresh->key = job.windowKey;
        // A quarantined job must still ride the merged machinery (its
        // draws come from its private stream), but alone: an
        // exclusive window admits no partners for it to poison.
        fresh->exclusive = job.quarantined;
        fresh->openedAt = now;
        fresh->deadline = now + msDuration(effectiveWindowMsLocked());
        window = fresh.get();
        windows_.emplace(fresh->id, std::move(fresh));
        JIGSAW_LOG_TRACE(schedulerLog(), "window opened",
                         log::kv("window", window->id),
                         log::kv("key", window->key),
                         log::kv("exclusive", window->exclusive));
    }
    const std::size_t slot = window->sources.size();
    window->sources.push_back({slot, &job.session->compiled(),
                               &job.session->schedule(),
                               &job.session->plan(), job.deviceKey,
                               job.executor.get(), job.stream.get(),
                               true});
    mergeSourceInto(window->merged, window->sources, slot);
    window->slotJob.push_back(job.id);
    window->jobIds.push_back(job.id);
    window->bestClass = std::min(window->bestClass, job.priority);
    job.state = JobState::Windowed;
    job.windowId = window->id;
    job.windowSlot = slot;
    job.windowStartAt = now;
    JIGSAW_LOG_TRACE(schedulerLog(), "job joined window",
                     log::kv("job", job.id),
                     log::kv("window", window->id),
                     log::kv("slot", slot));
    // High-priority jobs never trade latency for merging: their
    // window closes on the spot (with whatever has joined so far).
    // Quarantined retries close theirs too — they have waited enough.
    if (job.priority == Priority::High || job.quarantined || stopping_)
        window->deadline = now;
    if (window->jobIds.size() >= options_.windowMaxJobs ||
        window->exclusive || window->deadline <= now)
        closeWindow(*window, now);
}

void
StreamingScheduler::closeWindow(Window &window, Clock::time_point now)
{
    if (window.closed)
        return;
    window.closed = true;
    JIGSAW_LOG_DEBUG(schedulerLog(), "window closed",
                     log::kv("window", window.id),
                     log::kv("jobs", window.jobIds.size()),
                     log::kv("waited_ms",
                             msBetweenImpl(window.openedAt, now)));
    ReadyEntry entry;
    entry.isWindow = true;
    entry.id = window.id;
    entry.cls = window.bestClass;
    entry.readySince = now;
    entry.cost = std::max<std::size_t>(window.jobIds.size(), 1);
    entry.tenant = jobs_.at(window.jobIds.front())->program.tenant;
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
    // ...then, inside that class, each tenant's earliest-ready entry
    // is its candidate and deficit round-robin picks among tenants:
    // every visited tenant earns one quantum, a candidate dispatches
    // once its tenant's deficit covers the entry's cost (its window's
    // job count), so a hot tenant pays for big windows while idle
    // tenants' deficits reset. One scan of the rotation per quantum;
    // a candidate always exists in-class, so the sweep terminates
    // within rotation * (windowMaxJobs + 1) visits.
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
    const std::size_t rotation = tenantRotation_.size();
    panicIf(rotation == 0 || candidate.empty(),
            "dispatch: ready entry without tenant");
    const std::size_t max_steps =
        rotation * (options_.windowMaxJobs + 2);
    for (std::size_t step = 0; step < max_steps; ++step) {
        const std::string &tenant =
            tenantRotation_[rrCursor_++ % rotation];
        const auto cit = candidate.find(tenant);
        if (cit == candidate.end()) {
            tenantDeficit_[tenant] = 0.0; // idle tenants bank nothing
            continue;
        }
        double &deficit = tenantDeficit_[tenant];
        const ReadyEntry &entry = readyQueue_[cit->second];
        deficit += 1.0;
        if (deficit + 1e-9 < static_cast<double>(entry.cost))
            continue;
        deficit -= static_cast<double>(entry.cost);
        const ReadyEntry taken = entry;
        readyQueue_.erase(readyQueue_.begin() +
                          static_cast<std::ptrdiff_t>(cit->second));
        // Last-chance SLO check: a job aged out while its unit
        // queued for a slot (or gathered window partners) expires
        // here instead of executing past its deadline.
        if (taken.isWindow) {
            const auto it = windows_.find(taken.id);
            panicIf(it == windows_.end(), "dispatch: window vanished");
            const std::vector<std::uint64_t> members =
                it->second->jobIds;
            for (const std::uint64_t member : members) {
                Job &job = *jobs_.at(member);
                if (isSet(job.deadlineAt) && job.deadlineAt <= now)
                    withdrawLocked(job, JobState::Expired,
                                   deadlineError());
            }
            // Withdrawing the last member erased the window; the
            // freed slot still counts as progress.
            const auto again = windows_.find(taken.id);
            if (again == windows_.end())
                return true;
            dispatchWindow(*again->second, now);
        } else {
            Job &job = *jobs_.at(taken.id);
            if (isSet(job.deadlineAt) && job.deadlineAt <= now) {
                withdrawLocked(job, JobState::Expired, deadlineError());
                return true;
            }
            dispatchSolo(job, now);
        }
        return true;
    }
    panicIf(true, "dispatch: deficit round-robin failed to pick");
    return false;
}

void
StreamingScheduler::dispatchSolo(Job &job, Clock::time_point now)
{
    job.state = JobState::Dispatched;
    job.dispatchAt = now;
    --backlog_;
    ++inFlight_;
    ++stats_.loneDispatches;
    obs::TraceRecorder *trace = options_.trace.get();
    if (trace != nullptr)
        trace->record(job.id, job.traceEpoch, "dispatch",
                      trace->toMs(now), 0.0, 0, 0);
    JIGSAW_LOG_TRACE(schedulerLog(), "solo dispatch",
                     log::kv("job", job.id));
    JigsawSession *session = job.session.get();
    std::shared_ptr<JigsawResult> *result_slot = &job.result;
    const std::uint64_t id = job.id;
    const std::uint32_t epoch = job.traceEpoch;
    group_.run(
        [session, result_slot, trace, id, epoch] {
            if (trace != nullptr) {
                // Stepwise for the span split: executed() runs the
                // execute stage, run() the remaining reconstruction.
                const double exec_start = trace->nowMs();
                session->executed();
                const double recon_start = trace->nowMs();
                trace->record(id, epoch, "execute", exec_start,
                              recon_start - exec_start, 0, 0);
                *result_slot =
                    std::make_shared<JigsawResult>(session->run());
                trace->record(id, epoch, "reconstruct", recon_start,
                              trace->nowMs() - recon_start, 0, 0);
            } else {
                *result_slot =
                    std::make_shared<JigsawResult>(session->run());
            }
        },
        [this, id](std::exception_ptr error) {
            {
                std::lock_guard<std::mutex> lock(mutex_);
                Job &done = *jobs_.at(id);
                --inFlight_;
                if (error) {
                    handleJobFailure(done, error, Clock::now(), false);
                } else {
                    finishJob(done, JobState::Done, nullptr);
                    releaseJobState(done);
                }
            }
            dispatcherCv_.notify_all();
            jobCv_.notify_all();
        });
}

void
StreamingScheduler::dispatchWindow(Window &window, Clock::time_point now)
{
    panicIf(window.jobIds.empty(), "dispatch: empty window");
    window.dispatched = true;
    window.remaining = window.jobIds.size();
    ++inFlight_;
    if (window.jobIds.size() >= 2) {
        ++stats_.mergedWindows;
        stats_.mergedJobs += window.jobIds.size();
    } else {
        ++stats_.loneDispatches;
    }
    obs::TraceRecorder *trace = options_.trace.get();
    for (const std::uint64_t id : window.jobIds) {
        Job &job = *jobs_.at(id);
        job.state = JobState::Dispatched;
        job.dispatchAt = now;
        --backlog_;
        if (trace != nullptr) {
            trace->record(job.id, job.traceEpoch, "window",
                          trace->toMs(job.windowStartAt),
                          msBetweenImpl(job.windowStartAt, now),
                          window.id, 0);
            trace->record(job.id, job.traceEpoch, "dispatch",
                          trace->toMs(now), 0.0, window.id, 0);
        }
    }
    JIGSAW_LOG_DEBUG(schedulerLog(), "window dispatched",
                     log::kv("window", window.id),
                     log::kv("jobs", window.jobIds.size()),
                     log::kv("backend", transport_ != nullptr
                                            ? "worker"
                                            : "local"));
    if (transport_ != nullptr) {
        grantLeaseLocked(window, 0, now);
        return;
    }
    runWindowLocallyLocked(window);
}

void
StreamingScheduler::runWindowLocallyLocked(Window &window)
{
    const std::uint64_t window_id = window.id;
    group_.run([this, window_id] { runWindowTask(window_id); },
               [this, window_id](std::exception_ptr error) {
                   // runWindowTask handles its own errors; anything
                   // reaching here is a scheduler bug surfaced as a
                   // window-wide failure.
                   if (!error)
                       return;
                   std::vector<std::uint64_t> members;
                   {
                       std::lock_guard<std::mutex> lock(mutex_);
                       const auto it = windows_.find(window_id);
                       if (it == windows_.end())
                           return;
                       members = it->second->jobIds;
                       for (const std::uint64_t id : members) {
                           Job &job = *jobs_.at(id);
                           if (job.state == JobState::Dispatched)
                               finishJob(job, JobState::Failed, error);
                       }
                       windows_.erase(it);
                       --inFlight_;
                   }
                   dispatcherCv_.notify_all();
                   jobCv_.notify_all();
               });
}

void
StreamingScheduler::runWindowTask(std::uint64_t window_id)
{
    Window *window = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        window = windows_.at(window_id).get();
    }
    // The window is immutable once dispatched (cancel refuses), so
    // sources/merged are safe to read without the lock.
    MergedExecutionStats exec_stats;
    std::exception_ptr error;
    std::shared_ptr<std::vector<ExecutionResult>> executions;
    const auto execute_start = Clock::now();
    try {
        executions = std::make_shared<std::vector<ExecutionResult>>(
            executeMergedSchedules(window->sources, window->merged,
                                   &exec_stats));
    } catch (...) {
        error = std::current_exception();
    }
    const double execute_ms =
        msBetweenImpl(execute_start, Clock::now());
    {
        std::lock_guard<std::mutex> lock(mutex_);
        completeWindowExecutionLocked(window_id, std::move(executions),
                                      exec_stats, error, execute_ms,
                                      0);
    }
    dispatcherCv_.notify_all();
    jobCv_.notify_all();
}

void
StreamingScheduler::completeWindowExecutionLocked(
    std::uint64_t window_id,
    std::shared_ptr<std::vector<ExecutionResult>> executions,
    const MergedExecutionStats &exec_stats, std::exception_ptr error,
    double execute_ms, std::uint64_t lease_id)
{
    Window &window = *windows_.at(window_id);
    // slotJob is stable once the window dispatched (cancel refuses),
    // so the live set is the same whichever backend executed it, and
    // however many lost leases preceded the completing attempt.
    std::vector<std::pair<std::uint64_t, std::size_t>> live;
    for (std::size_t slot = 0; slot < window.slotJob.size(); ++slot) {
        if (window.slotJob[slot] != 0)
            live.push_back({window.slotJob[slot], slot});
    }
    // Counted once per completed window — lost leases never reach
    // here, so worker re-dispatch cannot inflate the merge counters.
    stats_.crossProgramGroups += window.merged.crossProgramGroups();
    stats_.pooledGlobalBatches += exec_stats.pooledGlobalBatches;
    stats_.pooledGlobalPrograms += exec_stats.pooledGlobalPrograms;
    if (error) {
        // Window poisoning: one bad program must not kill its
        // partners. With >= 2 members each is quarantined for a
        // solo retry (free of retry-budget charge); a job failing
        // alone is handled on its own merits (transient retry
        // within budget, else terminal failure). A window failing
        // ON A WORKER routes through here identically, so quarantine
        // composes with the worker tier.
        const bool quarantine = live.size() >= 2;
        JIGSAW_LOG_WARN(schedulerLog(), "window execution failed",
                        log::kv("window", window_id),
                        log::kv("jobs", live.size()),
                        log::kv("quarantine", quarantine));
        const auto now = Clock::now();
        for (const auto &[id, slot] : live) {
            Job &job = *jobs_.at(id);
            handleJobFailure(job, error, now, quarantine);
        }
        windows_.erase(window_id);
        --inFlight_;
        return;
    }
    // Per-job resume: adopt the split-back execution slice and
    // reconstruct, one pool task per job so reconstructions overlap.
    // (group_.run only enqueues, so submitting under the lock is
    // safe; the tasks themselves run unlocked.)
    obs::TraceRecorder *trace = options_.trace.get();
    const double execute_end =
        trace != nullptr ? trace->nowMs() : 0.0;
    for (const auto &[id, slot] : live) {
        Job &job = *jobs_.at(id);
        if (trace != nullptr)
            trace->record(id, job.traceEpoch, "execute",
                          execute_end - execute_ms, execute_ms,
                          window_id, lease_id);
        JigsawSession *session = job.session.get();
        std::shared_ptr<JigsawResult> *result_slot = &job.result;
        const std::uint32_t epoch = job.traceEpoch;
        group_.run(
            [session, result_slot, executions, slot = slot, trace,
             id = id, epoch, window_id] {
                const double recon_start =
                    trace != nullptr ? trace->nowMs() : 0.0;
                session->adoptExecution(
                    std::move((*executions)[slot]));
                *result_slot =
                    std::make_shared<JigsawResult>(session->run());
                if (trace != nullptr)
                    trace->record(id, epoch, "reconstruct",
                                  recon_start,
                                  trace->nowMs() - recon_start,
                                  window_id, 0);
            },
            [this, id = id, window_id](std::exception_ptr job_error) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    Job &done = *jobs_.at(id);
                    if (job_error) {
                        handleJobFailure(done, job_error, Clock::now(),
                                         false);
                    } else {
                        finishJob(done, JobState::Done, nullptr);
                        releaseJobState(done);
                    }
                    Window &done_window = *windows_.at(window_id);
                    if (--done_window.remaining == 0) {
                        windows_.erase(window_id);
                        --inFlight_;
                    }
                }
                dispatcherCv_.notify_all();
                jobCv_.notify_all();
            });
    }
}

WindowRequest
StreamingScheduler::buildRequestLocked(Window &window,
                                       std::uint64_t lease_id) const
{
    WindowRequest request;
    request.leaseId = lease_id;
    request.heartbeatMs = options_.worker.heartbeatMs;
    request.sources = window.sources;
    request.merged = window.merged;
    request.seeds.resize(window.sources.size(), 0);
    for (std::size_t slot = 0; slot < window.slotJob.size(); ++slot) {
        // Unbind: the worker late-binds its own executor and a fresh
        // Rng(executorSeed) stream, leaving the job's canonical
        // stream untouched for any later local fallback to replay.
        request.sources[slot].executor = nullptr;
        request.sources[slot].rng = nullptr;
        const std::uint64_t job_id = window.slotJob[slot];
        if (job_id == 0)
            continue; // withdrawn slot: stays disabled and unbound
        const Job &job = *jobs_.at(job_id);
        request.seeds[slot] = job.program.executorSeed;
        request.retain.push_back(job.session);
        if (request.device == nullptr)
            request.device = std::make_shared<device::DeviceModel>(
                job.program.device);
    }
    return request;
}

void
StreamingScheduler::grantLeaseLocked(Window &window,
                                     std::size_t attempts,
                                     Clock::time_point now)
{
    for (; attempts <= options_.worker.workerRetries; ++attempts) {
        if (transport_->liveWorkers() == 0)
            break; // dead fleet: straight to the degradation floor
        const std::uint64_t lease_id = nextLeaseId_++;
        try {
            transport_->send(buildRequestLocked(window, lease_id));
        } catch (...) {
            // Send failure (including an injected transport.send
            // fault): the lease never reached the fleet — count it
            // lost and try again. The jobs' retry budget is never
            // charged for fleet trouble.
            ++stats_.leasesRevoked;
            JIGSAW_LOG_INFO(schedulerLog(), "lease send failed",
                            log::kv("window", window.id),
                            log::kv("attempt", attempts));
            continue;
        }
        Lease lease;
        lease.id = lease_id;
        lease.windowId = window.id;
        lease.attempts = attempts;
        lease.deadline =
            now + msDuration(options_.worker.leaseTimeoutMs);
        leases_.emplace(lease_id, lease);
        ++stats_.leasesGranted;
        if (attempts > 0)
            ++stats_.redispatches;
        JIGSAW_LOG_DEBUG(schedulerLog(),
                         attempts > 0 ? "window re-dispatched"
                                      : "lease granted",
                         log::kv("lease", lease_id),
                         log::kv("window", window.id),
                         log::kv("attempt", attempts));
        return;
    }
    // Graceful degradation: the fleet is dead or burned through
    // workerRetries leases — run the window on the local pool, the
    // path a transportless scheduler always takes.
    ++stats_.localFallbacks;
    JIGSAW_LOG_WARN(schedulerLog(),
                    "worker tier exhausted; window falling back to "
                    "local execution",
                    log::kv("window", window.id),
                    log::kv("lost_leases", attempts),
                    log::kv("live_workers", transport_->liveWorkers()));
    runWindowLocallyLocked(window);
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
            // means the worker died mid-window.
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
                        log::kv("window", entry.lease.windowId),
                        log::kv("attempt", entry.lease.attempts));
        const auto wit = windows_.find(entry.lease.windowId);
        panicIf(wit == windows_.end(),
                "lease supervision: window vanished under a lease");
        grantLeaseLocked(*wit->second, entry.lease.attempts + 1, now);
    }
}

void
StreamingScheduler::drainTransportLocked()
{
    for (;;) {
        std::optional<WindowResponse> response;
        try {
            response = transport_->tryRecv();
        } catch (...) {
            // recv failure (including an injected transport.recv
            // fault): that response is lost in flight; its lease
            // deadline re-dispatches the window.
            continue;
        }
        if (!response)
            return;
        const auto lit = leases_.find(response->leaseId);
        if (lit == leases_.end()) {
            // A revoked lease answering late: the window already
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
        const std::uint64_t window_id = lit->second.windowId;
        const std::uint64_t lease_id = lit->first;
        leases_.erase(lit);
        if (response->ok) {
            if (stats_.workerCompleted.size() <= response->worker)
                stats_.workerCompleted.resize(response->worker + 1, 0);
            ++stats_.workerCompleted[response->worker];
            completeWindowExecutionLocked(
                window_id,
                std::make_shared<std::vector<ExecutionResult>>(
                    std::move(response->results)),
                response->execStats, nullptr, response->executeMs,
                lease_id);
        } else {
            // A job-level failure ON the worker (not a lost lease):
            // the regular quarantine/retry routing applies, exactly
            // as if the local path had thrown.
            completeWindowExecutionLocked(window_id, nullptr,
                                          response->execStats,
                                          responseError(*response),
                                          response->executeMs,
                                          lease_id);
        }
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
    job.windowSlot = kNoSlot;
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
                                     Clock::time_point now,
                                     bool quarantine)
{
    if (quarantine && !job.quarantined) {
        // First poisoned window for this job: it may be innocent, so
        // the solo retry costs no retry budget and no backoff. If its
        // exclusive window fails too, the failure is its own and the
        // normal transient/terminal handling below takes over.
        job.quarantined = true;
        ++stats_.quarantinedJobs;
        JIGSAW_LOG_WARN(schedulerLog(), "job quarantined for solo retry",
                        log::kv("job", job.id));
        requeueLocked(job, now);
        return;
    }
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
    // defers to onPrepared; the defensive window-task-failure
    // callback skips the release because member tasks may be live.)
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

        // Worker tier: land completed windows first (a response in
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
        // behind the whole backlog's stage work.
        while (!admission_.empty()) {
            std::size_t best = 0;
            std::size_t best_class = kPriorityClasses;
            for (std::size_t i = 0; i < admission_.size(); ++i) {
                const Job &job = *jobs_.at(admission_[i]);
                const std::size_t cls = effectiveClass(
                    job.priority, msBetweenImpl(job.submitAt, now),
                    options_.agingMs);
                if (cls < best_class) {
                    best = i;
                    best_class = cls;
                }
            }
            if (best_class != 0 && preparing_ >= inFlightCap() + 1)
                break;
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
                Job &job = *jobs_.at(id);
                if (isTerminal(job.state))
                    continue;
                joinWindow(job, now);
            }
        }

        // Close expired windows.
        for (auto &[id, window] : windows_) {
            if (!window->closed && window->deadline <= now)
                closeWindow(*window, now);
        }

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
        for (const auto &[id, window] : windows_) {
            if (!window->closed)
                consider(window->deadline);
        }
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
