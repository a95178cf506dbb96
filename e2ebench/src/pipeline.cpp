/**
 * @file
 * The two pipeline workloads: one client runs programs one at a time
 * through runJigsaw (a closed loop), so no scheduler is in the path.
 *
 *  - suite-cold: the paper's nine benchmarks x {JigSaw, JigSaw-M} x
 *    {toronto, manhattan} at 32768 trials, 36 jobs per pass. The
 *    transpile memo is cleared and the executor is fresh for every
 *    job, because a new program always pays placement and SABRE;
 *    compilation does most of the work.
 *  - wide-support: GHZ-18, W-18 and Graycode-18 under JigSaw-M on
 *    manhattan at 2^18 trials, resubmitted with fresh executors and
 *    alternating executor seeds. The memo is warmed during set-up, so
 *    evolution, sampling and reconstruction over wide supports do the
 *    work and compilation almost none. 18 qubits rather than 20 give
 *    ~10 jobs per cycle-median instead of 3 per run (a 20-qubit job
 *    takes ~2-3 s); QFTAdj-20 and BV-20 would take 8-30 s and up to
 *    1.8 GB per job.
 *
 * A traced run calls the stages one by one — planSubsets,
 * compileJobs, buildSchedule, Executor::prepare/prepareBatch
 * (evolution), executeSchedule (sampling), then reconstruction, the
 * sequence JigsawSession runs — with a span around each call.
 */
#include <algorithm>
#include <memory>
#include <optional>
#include <thread>
#include <utility>

#include "bench.h"
#include "compiler/transpiler.h"
#include "core/pipeline.h"
#include "device/library.h"
#include "metrics/metrics.h"
#include "obs/exposition.h"
#include "sim/simulators.h"
#include "workloads/registry.h"

namespace e2e {

namespace {

using namespace jigsaw;

struct PipelineJob
{
    std::size_t program = 0; ///< Index into the registry programs.
    std::size_t device = 0;
    core::JigsawOptions options;
    std::uint64_t trials = 0;
    std::uint64_t seed = 0; ///< Executor seed.
};

/** Adds the process-wide counter deltas of a phase to its counts. */
void
addProcessCounters(Phase &phase, const obs::ProcessCounters &delta)
{
    phase.counts["compile.transpile_misses"] +=
        static_cast<double>(delta.transpileCacheMisses);
    phase.counts["compile.transpile_hits"] +=
        static_cast<double>(delta.transpileCacheHits);
    phase.counts["compile.rebinds"] +=
        static_cast<double>(delta.transpileSkeletonRebinds);
    phase.counts["execute.simd_scalar_calls"] +=
        static_cast<double>(delta.simdDispatchScalar);
    phase.counts["execute.simd_avx2_calls"] +=
        static_cast<double>(delta.simdDispatchAvx2);
    phase.counts["execute.simd_avx512_calls"] +=
        static_cast<double>(delta.simdDispatchAvx512);
}

class PipelineWorkload : public Workload
{
  public:
    explicit PipelineWorkload(std::uint64_t seed) : seed_(seed) {}

    void tearDown() override
    {
        jobs_.clear();
        rounds_.clear();
        pstJobs_.clear();
        devices_.clear();
    }

    void computeReferences(ReferenceBook &refs) override;
    Phase run(double seconds) override;
    double pstGain() const override { return pstGain_; }

  protected:
    std::uint64_t seed_;
    std::vector<device::DeviceModel> devices_;
    std::vector<std::unique_ptr<workloads::Workload>> programs_;
    std::vector<PipelineJob> jobs_;
    /** A run cycles through the rounds, whole rounds only, so every
     *  run measures the same job mix in the same order; the seed only
     *  picks executor seeds. */
    std::vector<std::vector<std::size_t>> rounds_;
    /** Jobs whose PST enters pst_gain, one per registry program. */
    std::vector<std::size_t> pstJobs_;
    bool coldCompile_ = false; ///< Clear the transpile memo per job.
    bool traced_ = false;

  private:
    jigsaw::Pmf runStaged(const PipelineJob &job, std::uint64_t trace_job,
                          SteadyClock::time_point epoch, Phase &phase);

    double pstGain_ = 1.0;
};

void
PipelineWorkload::computeReferences(ReferenceBook &refs)
{
    std::vector<Pmf> outputs(jobs_.size(), Pmf(1));
    std::vector<double> baseline_pst(pstJobs_.size(), 0.0);
    std::vector<std::function<void()>> tasks;
    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        tasks.push_back([this, i, &outputs] {
            const PipelineJob &job = jobs_[i];
            const device::DeviceModel &dev = devices_[job.device];
            sim::NoisySimulator executor(dev, {.seed = job.seed});
            outputs[i] =
                core::runJigsaw(programs_[job.program]->circuit(), dev,
                                executor, job.trials, job.options)
                    .output;
        });
    }
    for (std::size_t k = 0; k < pstJobs_.size(); ++k) {
        tasks.push_back([this, k, &baseline_pst] {
            const PipelineJob &job = jobs_[pstJobs_[k]];
            const device::DeviceModel &dev = devices_[job.device];
            sim::NoisySimulator executor(dev, {.seed = job.seed});
            baseline_pst[k] = metrics::pst(
                core::runBaseline(programs_[job.program]->circuit(), dev,
                                  executor, job.trials),
                *programs_[job.program]);
        });
    }
    runConcurrently(tasks, std::max(1u, std::thread::hardware_concurrency()));
    for (std::size_t i = 0; i < jobs_.size(); ++i)
        refs.add(i, outputs[i]);
    std::vector<double> jigsaw_pst;
    for (std::size_t index : pstJobs_) {
        jigsaw_pst.push_back(metrics::pst(
            outputs[index], *programs_[jobs_[index].program]));
    }
    pstGain_ = e2e::pstGain(jigsaw_pst, baseline_pst,
                            1.0 / static_cast<double>(jobs_[0].trials));
}

Phase
PipelineWorkload::run(double seconds)
{
    Phase phase;
    const obs::ProcessCounters counters0 = obs::ProcessCounters::snapshot();
    const double cpu0 = processCpuSeconds();
    const SteadyClock::time_point start = SteadyClock::now();
    std::uint64_t trace_job = 0;
    SegmentTimer segment(phase);
    for (std::size_t r = 0;; r = (r + 1) % rounds_.size()) {
        for (const std::size_t index : rounds_[r]) {
            const PipelineJob &job = jobs_[index];
            if (coldCompile_)
                compiler::clearTranspileCache();
            const SteadyClock::time_point job_start = SteadyClock::now();
            bool ok = false;
            try {
                Pmf output(1);
                if (traced_) {
                    output = runStaged(job, ++trace_job, start, phase);
                } else {
                    const device::DeviceModel &dev = devices_[job.device];
                    sim::NoisySimulator executor(dev, {.seed = job.seed});
                    output = core::runJigsaw(programs_[job.program]->circuit(),
                                             dev, executor, job.trials,
                                             job.options)
                                 .output;
                }
                phase.latencyMs.push_back(
                    msBetween(job_start, SteadyClock::now()));
                phase.outputs.emplace_back(index, pmfDigest(output));
                ok = true;
            } catch (const std::exception &) {
            }
            phase.tally.add(ok ? Outcome::Completed : Outcome::Failed);
        }
        segment.next();
        if (msBetween(start, SteadyClock::now()) >= 1000.0 * seconds)
            break;
    }
    phase.wallS = msBetween(start, SteadyClock::now()) / 1000.0;
    phase.cpuS = processCpuSeconds() - cpu0;
    addProcessCounters(phase,
                       obs::ProcessCounters::snapshot().since(counters0));
    return phase;
}

jigsaw::Pmf
PipelineWorkload::runStaged(const PipelineJob &job, std::uint64_t trace_job,
                            SteadyClock::time_point epoch, Phase &phase)
{
    const circuit::QuantumCircuit &logical = programs_[job.program]->circuit();
    const device::DeviceModel &dev = devices_[job.device];
    const std::uint64_t root = phase.spans.size() + 1;
    const double root_start = msBetween(epoch, SteadyClock::now());
    const auto stage = [&](const char *name, const auto &call) {
        const double lo = msBetween(epoch, SteadyClock::now());
        call();
        phase.spans.push_back({trace_job, phase.spans.size() + 1, root, name,
                               lo, msBetween(epoch, SteadyClock::now())});
    };
    // Span ids are 1 + their index in phase.spans.
    phase.spans.push_back({trace_job, root, 0, "job", root_start, 0.0});
    const std::size_t root_slot = phase.spans.size() - 1;

    sim::NoisySimulator executor(dev, {.seed = job.seed});
    core::SubsetPlan plan;
    stage("plan", [&] {
        plan = core::planSubsets(logical, job.trials, job.options);
    });
    // CompiledJobs has no empty state, hence the optional.
    std::optional<core::CompiledJobs> compiled_slot;
    stage("compile", [&] {
        compiled_slot = core::compileJobs(logical, dev, plan, job.options);
    });
    const core::CompiledJobs &compiled = *compiled_slot;
    core::ExecutionSchedule schedule;
    stage("schedule", [&] { schedule = core::buildSchedule(compiled); });
    stage("evolve", [&] {
        executor.prepare(compiled.global.physical);
        for (const core::ExecutionSchedule::Group &group : schedule.groups) {
            executor.prepareBatch(
                group.usesGlobal
                    ? compiled.global.physical
                    : compiled.cpms[group.baseCpm].compiled.physical,
                group.specs);
        }
    });
    core::ExecutionResult result;
    stage("sample", [&] {
        result = core::executeSchedule(executor, compiled, schedule, plan);
    });
    core::ReconstructionInput input;
    Pmf output(1);
    stage("reconstruct", [&] {
        input = core::buildReconstructionInput(compiled, result);
        output = core::reconstructOutput(input, job.options.reconstruction);
    });
    phase.spans[root_slot].endMs = msBetween(epoch, SteadyClock::now());

    auto &counts = phase.counts;
    counts["compile.cpm_routings_computed"] +=
        static_cast<double>(compiled.cpmRoutingsComputed);
    counts["compile.cpm_routings_reused"] +=
        static_cast<double>(compiled.cpmRoutingsReused);
    double swaps = compiled.global.swapCount;
    for (const core::CpmJob &cpm : compiled.cpms) {
        if (!cpm.fromGlobal)
            swaps += cpm.compiled.swapCount;
    }
    counts["compile.swaps"] += swaps;
    counts["schedule.groups"] += static_cast<double>(schedule.groups.size());
    counts["execute.shots"] += static_cast<double>(plan.totalTrials);
    const sim::ExecutorCounters cache = executor.counters();
    counts["execute.pmf_hits"] += static_cast<double>(cache.pmfHits);
    counts["execute.pmf_misses"] += static_cast<double>(cache.pmfMisses);
    counts["execute.prefix_state_hits"] +=
        static_cast<double>(cache.prefixStateHits);
    counts["execute.prefix_state_misses"] +=
        static_cast<double>(cache.prefixStateMisses);
    counts["execute.base_evolutions"] +=
        static_cast<double>(executor.batchStats().baseEvolutions);
    counts["execute.marginals_served"] +=
        static_cast<double>(executor.batchStats().marginalsServed);
    counts["reconstruct.support"] += static_cast<double>(output.support());
    counts["reconstruct.marginals"] +=
        static_cast<double>(input.marginals.size());
    return output;
}

class SuiteCold : public PipelineWorkload
{
  public:
    using PipelineWorkload::PipelineWorkload;

    void generate() override { programs_ = workloads::paperBenchmarks(); }

    void setUp(bool traced) override
    {
        traced_ = traced;
        coldCompile_ = true;
        devices_ = {device::toronto(), device::manhattan()};
        const std::vector<core::JigsawOptions> schemes = {
            core::JigsawOptions{}, core::jigsawMOptions()};
        for (std::size_t d = 0; d < devices_.size(); ++d) {
            for (std::size_t p = 0; p < programs_.size(); ++p) {
                for (const core::JigsawOptions &scheme : schemes) {
                    pstJobs_.push_back(jobs_.size());
                    jobs_.push_back({p, d, scheme, 32768,
                                     mixSeed(seed_, jobs_.size())});
                }
            }
        }
        std::vector<std::size_t> pass(jobs_.size());
        for (std::size_t i = 0; i < pass.size(); ++i)
            pass[i] = i;
        rounds_ = {pass};
    }
};

class WideSupport : public PipelineWorkload
{
  public:
    using PipelineWorkload::PipelineWorkload;

    /** Executor seeds each program alternates between. */
    static constexpr std::size_t kSeedSlots = 2;

    void generate() override
    {
        for (const char *name : {"GHZ-18", "W-18", "Graycode-18"})
            programs_.push_back(workloads::makeWorkload(name));
    }

    void setUp(bool traced) override
    {
        traced_ = traced;
        coldCompile_ = false;
        devices_ = {device::manhattan()};
        const core::JigsawOptions options = core::jigsawMOptions();
        const std::uint64_t trials = 1ULL << 18;
        for (const auto &program : programs_)
            warmTranspileMemo(program->circuit(), devices_[0], trials, options);
        for (std::size_t slot = 0; slot < kSeedSlots; ++slot) {
            std::vector<std::size_t> round;
            for (std::size_t p = 0; p < programs_.size(); ++p) {
                if (slot == 0)
                    pstJobs_.push_back(jobs_.size());
                round.push_back(jobs_.size());
                jobs_.push_back(
                    {p, 0, options, trials, mixSeed(seed_, jobs_.size())});
            }
            rounds_.push_back(std::move(round));
        }
    }
};

} // namespace

std::unique_ptr<Workload>
makeSuiteCold(std::uint64_t seed)
{
    return std::make_unique<SuiteCold>(seed);
}

std::unique_ptr<Workload>
makeWideSupport(std::uint64_t seed)
{
    return std::make_unique<WideSupport>(seed);
}

} // namespace e2e
