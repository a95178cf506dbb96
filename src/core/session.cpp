#include "core/session.h"

#include <utility>

#include "common/error.h"

namespace jigsaw {
namespace core {

JigsawSession::JigsawSession(circuit::QuantumCircuit logical,
                             device::DeviceModel dev,
                             sim::Executor &executor,
                             std::uint64_t total_trials,
                             JigsawOptions options, Rng *rng)
    : logical_(std::move(logical)), dev_(std::move(dev)),
      executor_(executor), totalTrials_(total_trials),
      options_(std::move(options)), rng_(rng)
{
}

JigsawSession::Stage
JigsawSession::stage() const
{
    if (output_)
        return Stage::Reconstructed;
    if (execution_)
        return Stage::Executed;
    if (schedule_)
        return Stage::Scheduled;
    if (jobs_)
        return Stage::Compiled;
    if (plan_)
        return Stage::Planned;
    return Stage::Created;
}

const SubsetPlan &
JigsawSession::plan()
{
    if (!plan_)
        plan_ = planSubsets(logical_, totalTrials_, options_);
    return *plan_;
}

const CompiledJobs &
JigsawSession::compiled()
{
    if (!jobs_)
        jobs_ = compileJobs(logical_, dev_, plan(), options_);
    return *jobs_;
}

const ExecutionSchedule &
JigsawSession::schedule()
{
    if (!schedule_)
        schedule_ = buildSchedule(compiled());
    return *schedule_;
}

const ExecutionResult &
JigsawSession::executed()
{
    if (!execution_) {
        execution_ = executeSchedule(executor_, compiled(), schedule(),
                                     plan(), rng_);
    }
    return *execution_;
}

void
JigsawSession::adoptExecution(ExecutionResult result)
{
    fatalIf(execution_.has_value(),
            "adoptExecution: session already executed");
    schedule(); // run the plan/compile/schedule stages if missing
    fatalIf(result.cpmPmfs.size() != jobs_->cpms.size(),
            "adoptExecution: result does not cover every compiled CPM");
    // An execution of another program (a default-constructed
    // placeholder, or another job's global) would silently poison the
    // reconstruction prior; the global PMF's width is the cheap
    // invariant that catches it.
    fatalIf(result.globalPmf.nQubits() != plan_->nMeasured,
            "adoptExecution: global PMF width does not match the plan");
    execution_ = std::move(result);
}

const Pmf &
JigsawSession::output()
{
    if (!output_) {
        output_ = reconstructOutput(
            buildReconstructionInput(compiled(), executed()),
            options_.reconstruction);
    }
    return *output_;
}

JigsawResult
JigsawSession::run()
{
    output();
    JigsawResult result{*output_,        execution_->globalPmf,
                        jobs_->global,   {},
                        plan_->globalTrials, plan_->subsetTrials};
    result.cpms.reserve(jobs_->cpms.size());
    for (std::size_t i = 0; i < jobs_->cpms.size(); ++i) {
        const CpmJob &job = jobs_->cpms[i];
        result.cpms.push_back({job.subset, job.compiled,
                               execution_->cpmPmfs[i], job.trials});
    }
    return result;
}

} // namespace core
} // namespace jigsaw
