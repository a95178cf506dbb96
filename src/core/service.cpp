#include "core/service.h"

#include <exception>
#include <string>

#include "common/error.h"
#include "core/scheduler.h"
#include "obs/exposition.h"
#include "sim/simulators.h"

namespace jigsaw {
namespace core {

namespace {

/** Merge every class histogram of @p byClass and take its quantile. */
double
mergedQuantile(
    const std::array<obs::HistogramData, kPriorityClasses> &byClass,
    double q)
{
    obs::HistogramData merged;
    for (const obs::HistogramData &hist : byClass)
        merged.merge(hist);
    return merged.quantile(q);
}

} // namespace

double
StreamStats::latencyPercentileMs(double q) const
{
    return mergedQuantile(latencyByClass, q);
}

double
StreamStats::latencyPercentileMs(Priority cls, double q) const
{
    return latencyByClass[static_cast<std::size_t>(cls)].quantile(q);
}

double
StreamStats::queueWaitPercentileMs(Priority cls, double q) const
{
    return queueWaitByClass[static_cast<std::size_t>(cls)].quantile(q);
}

double
StreamStats::executePercentileMs(Priority cls, double q) const
{
    return executeByClass[static_cast<std::size_t>(cls)].quantile(q);
}

std::vector<JigsawResult>
runProgramsSequentially(const std::vector<ServiceProgram> &programs)
{
    std::vector<JigsawResult> results;
    results.reserve(programs.size());
    for (const ServiceProgram &program : programs) {
        const std::shared_ptr<sim::Executor> executor =
            program.executor
                ? program.executor
                : std::make_shared<sim::NoisySimulator>(
                      program.device, sim::NoisySimulatorOptions{
                                          .seed = program.executorSeed});
        results.push_back(runJigsaw(program.circuit, program.device,
                                    *executor, program.trials,
                                    program.options));
    }
    return results;
}

JigsawService::JigsawService(ServiceOptions options)
    : options_(std::move(options))
{
}

JigsawService::~JigsawService() = default; // scheduler's dtor drains

StreamingScheduler &
JigsawService::scheduler()
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        scheduler_ = std::make_unique<StreamingScheduler>(options_.stream);
    return *scheduler_;
}

SubmitResult
JigsawService::submit(ServiceProgram program, Priority priority)
{
    return scheduler().submit(std::move(program), priority);
}

ParametricHandle
JigsawService::compileParametric(ServiceProgram prototype)
{
    return scheduler().compileParametric(std::move(prototype));
}

SubmitResult
JigsawService::submitIteration(ParametricHandle handle,
                               const std::vector<double> &angles,
                               Priority priority)
{
    return scheduler().submitIteration(handle, angles, priority);
}

std::optional<JobStatus>
JigsawService::poll(JobHandle handle) const
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        return std::nullopt;
    return scheduler_->poll(handle);
}

JigsawResult
JigsawService::wait(JobHandle handle)
{
    {
        // No scheduler means no job was ever submitted: reject the
        // handle without spinning up a dispatcher thread just to ask.
        std::lock_guard<std::mutex> lock(schedulerMutex_);
        fatalIf(scheduler_ == nullptr,
                "JigsawService: wait on unknown job handle");
    }
    return scheduler().wait(handle);
}

bool
JigsawService::cancel(JobHandle handle)
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        return false;
    return scheduler_->cancel(handle);
}

bool
JigsawService::release(JobHandle handle)
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        return false;
    return scheduler_->release(handle);
}

void
JigsawService::drain()
{
    StreamingScheduler *scheduler = nullptr;
    {
        std::lock_guard<std::mutex> lock(schedulerMutex_);
        scheduler = scheduler_.get();
    }
    if (scheduler != nullptr)
        scheduler->drain();
}

StreamStats
JigsawService::streamStats() const
{
    std::lock_guard<std::mutex> lock(schedulerMutex_);
    if (!scheduler_)
        return StreamStats{};
    return scheduler_->stats();
}

std::string
JigsawService::metricsText() const
{
    // The registry is process-wide: a live scheduler's collector (and
    // every other scheduler's) runs inside the render, so this is the
    // same body the HTTP endpoint serves. Deliberately does NOT
    // lazy-create the scheduler — metrics of an idle service are just
    // the process-wide families.
    return obs::renderProcessMetrics();
}

std::vector<JigsawResult>
JigsawService::run(const std::vector<ServiceProgram> &programs)
{
    if (programs.empty())
        return {};
    StreamingScheduler &stream = scheduler();
    std::vector<JobHandle> handles(programs.size()); // id 0: shed
    std::vector<std::exception_ptr> errors(programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const SubmitResult submitted = stream.submit(programs[i]);
        if (submitted) {
            handles[i] = submitted.handle;
        } else {
            errors[i] = std::make_exception_ptr(TransientError(
                "JigsawService::run: program " + std::to_string(i) +
                " shed by bounded admission; retry after " +
                std::to_string(submitted.tryLaterAfterMs) + " ms"));
        }
    }
    stream.drain(handles);
    // Every handle is terminal now, so wait() returns at once. Results
    // are only returned when every program succeeded, so skipping the
    // failed ones cannot misalign them.
    std::vector<JigsawResult> results;
    results.reserve(programs.size());
    for (std::size_t i = 0; i < programs.size(); ++i) {
        if (errors[i])
            continue;
        try {
            results.push_back(stream.wait(handles[i]));
        } catch (...) {
            errors[i] = std::current_exception();
        }
        stream.release(handles[i]);
    }
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace core
} // namespace jigsaw
