#include "core/worker.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>

#include "common/error.h"
#include "common/fault.h"
#include "common/log.h"
#include "common/rng.h"
#include "sim/simulators.h"

namespace jigsaw {
namespace core {

namespace {

log::Logger &
workerLog()
{
    static log::Logger &instance = log::logger("core.worker");
    return instance;
}

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** worker.stall detail -> sleep milliseconds (defaulted and clamped:
 *  a malformed spec should slow a test down, not hang it). */
double
stallMs(const std::string &detail)
{
    double ms = 100.0;
    try {
        if (!detail.empty())
            ms = std::stod(detail);
    } catch (const std::exception &) {
        ms = 100.0;
    }
    return std::clamp(ms, 0.0, 10000.0);
}

} // namespace

WorkerPool::WorkerPool(WorkerOptions options) : options_(options)
{
    fatalIf(options_.workers == 0,
            "WorkerPool: a pool needs at least one worker");
    const std::int64_t now_ns = nowNs();
    workers_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i) {
        workers_.push_back(std::make_unique<WorkerState>());
        workers_.back()->lastBeatNs.store(now_ns,
                                          std::memory_order_relaxed);
    }
    threads_.reserve(options_.workers);
    for (std::size_t i = 0; i < options_.workers; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
    heartbeater_ = std::thread([this] { heartbeatLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    heartbeatCv_.notify_all();
    for (std::thread &thread : threads_) {
        if (thread.joinable())
            thread.join();
    }
    if (heartbeater_.joinable())
        heartbeater_.join();
}

void
WorkerPool::submit(ExecutionRequest request)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        inbox_.push_back(std::move(request));
    }
    cv_.notify_one();
}

std::optional<ExecutionResponse>
WorkerPool::tryPop()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (outbox_.empty())
        return std::nullopt;
    ExecutionResponse response = std::move(outbox_.front());
    outbox_.pop_front();
    return response;
}

void
WorkerPool::setResponseSignal(std::function<void()> signal)
{
    std::lock_guard<std::mutex> lock(mutex_);
    signal_ = std::move(signal);
}

std::size_t
WorkerPool::workerCount() const
{
    return workers_.size();
}

std::size_t
WorkerPool::liveWorkers() const
{
    std::size_t live = 0;
    for (const auto &worker : workers_) {
        if (worker->alive.load(std::memory_order_relaxed))
            ++live;
    }
    return live;
}

std::optional<double>
WorkerPool::msSinceHeartbeat(std::uint64_t lease_id) const
{
    std::size_t index = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        const auto it = leaseWorker_.find(lease_id);
        if (it == leaseWorker_.end())
            return std::nullopt;
        index = it->second;
    }
    const std::int64_t beat =
        workers_[index]->lastBeatNs.load(std::memory_order_relaxed);
    return static_cast<double>(nowNs() - beat) / 1e6;
}

void
WorkerPool::revoke(std::uint64_t lease_id)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto it = inbox_.begin(); it != inbox_.end(); ++it) {
        if (it->leaseId == lease_id) {
            inbox_.erase(it);
            break;
        }
    }
    leaseWorker_.erase(lease_id);
}

void
WorkerPool::workerLoop(std::size_t index)
{
    WorkerState &state = *workers_[index];
    for (;;) {
        ExecutionRequest request;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !inbox_.empty(); });
            if (stop_)
                return;
            if (inbox_.empty())
                continue;
            request = std::move(inbox_.front());
            inbox_.pop_front();
            leaseWorker_[request.leaseId] = index;
        }
        FaultInjector &injector = FaultInjector::instance();
        if (injector.armed()) {
            if (const auto stall =
                    injector.fireBehavioral("worker.stall")) {
                JIGSAW_LOG_WARN(workerLog(), "injected stall",
                                log::kv("worker", index),
                                log::kv("lease", request.leaseId),
                                log::kv("stall_ms", stallMs(*stall)));
                std::this_thread::sleep_for(std::chrono::microseconds(
                    static_cast<std::int64_t>(stallMs(*stall) * 1000.0)));
            }
            if (injector.fireBehavioral("worker.crash")) {
                JIGSAW_LOG_WARN(workerLog(),
                                "injected crash; worker dying",
                                log::kv("worker", index),
                                log::kv("lease", request.leaseId));
                // Simulated process death: no response, and marking
                // the worker dead stops its heartbeats, so the
                // scheduler's lease supervision revokes the lease.
                // leaseWorker_ keeps the assignment on purpose —
                // msSinceHeartbeat() must keep growing for it.
                state.alive.store(false, std::memory_order_relaxed);
                return;
            }
        }
        ExecutionResponse response = execute(request, index);
        std::function<void()> signal;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            leaseWorker_.erase(request.leaseId);
            outbox_.push_back(std::move(response));
            signal = signal_;
        }
        if (signal)
            signal();
    }
}

void
WorkerPool::heartbeatLoop()
{
    const double period_ms = std::clamp(options_.heartbeatMs, 0.5, 1000.0);
    const auto period = std::chrono::microseconds(
        static_cast<std::int64_t>(period_ms * 1000.0));
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(mutex_);
            if (heartbeatCv_.wait_for(lock, period,
                                      [this] { return stop_; }))
                return;
        }
        const std::int64_t now_ns = nowNs();
        for (const auto &worker : workers_) {
            if (worker->alive.load(std::memory_order_relaxed))
                worker->lastBeatNs.store(now_ns,
                                         std::memory_order_relaxed);
        }
    }
}

ExecutionResponse
WorkerPool::execute(const ExecutionRequest &request, std::size_t index)
{
    ExecutionResponse response;
    response.leaseId = request.leaseId;
    response.worker = index;
    const auto execute_start = std::chrono::steady_clock::now();
    try {
        validateRequest(request);
        // Bind the request: this worker's own executor for the job's
        // device, and a fresh Rng(executorSeed) stream. The stream
        // replays the exact draws a sequential runJigsaw would make,
        // so the binding — not the worker — determines the result.
        std::shared_ptr<sim::Executor> &executor =
            workers_[index]->executors[request.deviceKey];
        if (!executor) {
            // The executor's own seed never matters (every draw comes
            // from the request's stream), matching the scheduler's
            // shared-executor convention.
            executor = std::make_shared<sim::NoisySimulator>(
                *request.device,
                sim::NoisySimulatorOptions{.seed = request.seed});
        }
        Rng stream(request.seed);
        response.result = executeSchedule(*executor, *request.jobs,
                                          *request.schedule, *request.plan,
                                          &stream);
        response.ok = true;
    } catch (const std::exception &error) {
        response.ok = false;
        response.transientError = isTransient(std::current_exception());
        response.errorMessage = error.what();
    } catch (...) {
        response.ok = false;
        response.transientError = false;
        response.errorMessage = "worker: unknown execution failure";
    }
    response.executeMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - execute_start)
            .count();
    if (!response.ok)
        JIGSAW_LOG_WARN(workerLog(), "job execution failed",
                        log::kv("worker", index),
                        log::kv("lease", request.leaseId),
                        log::kv("transient", response.transientError),
                        log::kv("error", response.errorMessage));
    return response;
}

InProcTransport::InProcTransport(WorkerOptions options)
    : pool_(options)
{
}

void
InProcTransport::send(ExecutionRequest request)
{
    // Fires before the request reaches the fleet: a send fault means
    // the lease was never delivered.
    injectFaultPoint("transport.send");
    pool_.submit(std::move(request));
}

std::optional<ExecutionResponse>
InProcTransport::tryRecv()
{
    std::optional<ExecutionResponse> response = pool_.tryPop();
    // Fires AFTER the pop: the response is lost in flight, and the
    // lease deadline recovers the job.
    if (response)
        injectFaultPoint("transport.recv");
    return response;
}

void
InProcTransport::setResponseSignal(std::function<void()> signal)
{
    pool_.setResponseSignal(std::move(signal));
}

std::size_t
InProcTransport::workerCount() const
{
    return pool_.workerCount();
}

std::size_t
InProcTransport::liveWorkers() const
{
    return pool_.liveWorkers();
}

std::optional<double>
InProcTransport::msSinceHeartbeat(std::uint64_t lease_id) const
{
    return pool_.msSinceHeartbeat(lease_id);
}

void
InProcTransport::revoke(std::uint64_t lease_id)
{
    pool_.revoke(lease_id);
}

} // namespace core
} // namespace jigsaw
