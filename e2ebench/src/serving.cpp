/**
 * @file
 * The two service workloads: jobs go through JigsawService's
 * streaming scheduler (submit / submitIteration / wait / poll) on one
 * device, toronto, at 4096 trials, with a 10 ms merge window and
 * everything else at its default (worker tier off, metrics endpoint
 * off). Both draw from the same 15 (circuit, scheme) pairs: {GHZ-12,
 * BV-12, QFTAdj-10, GHZ-11, BV-11} x {JigSaw without CPM
 * recompilation, JigSaw, JigSaw-M}.
 *
 *  - sweep-closed: one client submits a seed sweep of 4 jobs sharing a
 *    pair, waits for all 4, then submits the next sweep; sweeps rotate
 *    over the pairs. Every sweep shares one merge window, so this is
 *    the steady shape for merge windows and cross-program merged
 *    execution. Sweeps of 8 are left out: they exceed the dispatcher's
 *    prepare gate (pool size + 1 jobs preparing), where the dispatcher
 *    spins holding its mutex until fairness aging (100 ms) releases the
 *    backlog, so a sweep took either ~20 ms or ~130 ms at random and
 *    runs ranged from 38 to 100 jobs/s.
 *  - paced-mix: an open loop at a fixed 20 jobs/s from one generator
 *    thread. Three quarters are one-off jobs from the pairs; one
 *    quarter are submitIteration calls on a 10-qubit Ising ansatz
 *    compiled once with compileParametric (the iterative VQA client).
 *    Priorities and tenants rotate. This is the low-load latency path:
 *    the window timer dominates, windows rarely merge, and compile and
 *    execute are used another way (angle re-binding and split-prefix
 *    state hits). Faster or burstier open loops are left out: at 30
 *    jobs/s the scheduler collapses in some runs, which would make the
 *    workload measure a bimodal outcome rather than a latency.
 *
 * Set-up warms the transpile memo for the 15 pairs, so compilation is a
 * memo hit for the one-offs and an angle re-bind for the iterations.
 *
 * A traced run attaches obs::TraceRecorder through StreamOptions::trace
 * and rebuilds each job's span tree from it, rooted at the job's
 * submit-to-terminal interval.
 */
#include <algorithm>
#include <condition_variable>
#include <deque>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>

#include "bench.h"
#include "core/service.h"
#include "device/library.h"
#include "metrics/metrics.h"
#include "obs/exposition.h"
#include "obs/trace.h"
#include "sim/simulators.h"
#include "workloads/registry.h"

namespace e2e {

namespace {

using namespace jigsaw;

constexpr std::uint64_t kTrials = 4096;
constexpr double kWindowMs = 10.0;

/** A submitted job the client still has to collect. */
struct Pending
{
    core::JobHandle handle;
    std::uint64_t key = 0;
    SteadyClock::time_point sentAt;
    double dueMs = 0.0;  ///< Open loop: when it was due (phase clock).
    double sentMs = 0.0; ///< Open loop: when it was sent (phase clock).
    bool admitted = false;
};

class ServiceWorkload : public Workload
{
  public:
    explicit ServiceWorkload(std::uint64_t seed) : seed_(seed) {}

    void tearDown() override
    {
        service_.reset();
        recorder_.reset();
        oneOffs_.clear();
        schemes_.clear();
        devices_.clear();
    }

    void generate() override
    {
        for (const char *name :
             {"GHZ-12", "BV-12", "QFTAdj-10", "GHZ-11", "BV-11"})
            programs_.push_back(workloads::makeWorkload(name));
        generateClient();
    }

    void setUp(bool traced) override
    {
        devices_ = {device::toronto()};
        core::JigsawOptions no_recompile;
        no_recompile.recompileCpms = false;
        schemes_ = {no_recompile, core::JigsawOptions{},
                    core::jigsawMOptions()};
        // Every (pair, seed slot) program, and a warm transpile memo:
        // a long-running service has compiled its recurring programs.
        for (std::size_t pair = 0; pair < kPairs; ++pair) {
            warmTranspileMemo(programs_[pair / schemes_.size()]->circuit(),
                              devices_[0], kTrials,
                              schemes_[pair % schemes_.size()]);
            for (std::size_t slot = 0; slot < seedSlots(); ++slot) {
                oneOffs_.emplace_back(
                    programs_[pair / schemes_.size()]->circuit(),
                    devices_[0], kTrials, schemes_[pair % schemes_.size()],
                    mixSeed(seed_, oneOffKey(pair, slot)));
            }
        }
        core::ServiceOptions options;
        options.stream.windowMs = kWindowMs;
        if (traced) {
            recorder_ = std::make_shared<obs::TraceRecorder>(1u << 16);
            options.stream.trace = recorder_;
        }
        service_ = std::make_unique<core::JigsawService>(options);
        setUpClient();
    }

    void computeReferences(ReferenceBook &book) override
    {
        std::vector<std::pair<std::uint64_t, core::ServiceProgram>> refs;
        for (std::size_t pair = 0; pair < kPairs; ++pair) {
            for (std::size_t slot = 0; slot < seedSlots(); ++slot)
                refs.emplace_back(oneOffKey(pair, slot),
                                  oneOffs_[pair * seedSlots() + slot]);
        }
        addClientReferences(refs);
        std::vector<Pmf> outputs(refs.size(), Pmf(1));
        std::vector<double> baseline_pst(programs_.size(), 0.0);
        std::vector<std::function<void()>> tasks;
        for (std::size_t i = 0; i < refs.size(); ++i) {
            tasks.push_back([&, i] {
                const core::ServiceProgram &program = refs[i].second;
                sim::NoisySimulator executor(program.device,
                                             {.seed = program.executorSeed});
                outputs[i] = core::runJigsaw(program.circuit, program.device,
                                             executor, program.trials,
                                             program.options)
                                 .output;
            });
        }
        for (std::size_t p = 0; p < programs_.size(); ++p) {
            tasks.push_back([&, p] {
                sim::NoisySimulator executor(devices_[0],
                                             {.seed = mixSeed(seed_, p)});
                baseline_pst[p] = metrics::pst(
                    core::runBaseline(programs_[p]->circuit(), devices_[0],
                                      executor, kTrials),
                    *programs_[p]);
            });
        }
        runConcurrently(tasks, std::max(1u, std::thread::hardware_concurrency()));
        for (std::size_t i = 0; i < refs.size(); ++i)
            book.add(refs[i].first, outputs[i]);
        // pst_gain over the registry pairs, each at its first seed slot
        // (the VQA ansatz has no correct outcome and stays out).
        std::vector<double> jigsaw_pst;
        std::vector<double> base_pst;
        for (std::size_t pair = 0; pair < kPairs; ++pair) {
            const std::size_t p = pair / schemes_.size();
            jigsaw_pst.push_back(
                metrics::pst(outputs[pair * seedSlots()], *programs_[p]));
            base_pst.push_back(baseline_pst[p]);
        }
        pstGain_ = e2e::pstGain(jigsaw_pst, base_pst,
                                1.0 / static_cast<double>(kTrials));
    }

    double pstGain() const override { return pstGain_; }

  protected:
    static constexpr std::size_t kPairs = 15;

    static std::uint64_t oneOffKey(std::size_t pair, std::size_t slot)
    {
        return 1000 * (pair + 1) + slot;
    }

    /** Seed slots per pair: how many distinct executor seeds cycle. */
    virtual std::size_t seedSlots() const = 0;
    /** Client-specific inputs (angle vectors). */
    virtual void generateClient() {}
    /** Client-specific set-up (parametric compiles). */
    virtual void setUpClient() {}
    /** Client-specific reference programs beyond the one-offs. */
    virtual void addClientReferences(
        std::vector<std::pair<std::uint64_t, core::ServiceProgram>> &)
    {
    }

    /** Submit @p program, recording when it was sent. */
    Pending submit(core::ServiceProgram program, core::Priority priority,
                   std::uint64_t key)
    {
        Pending pending;
        pending.key = key;
        pending.sentAt = SteadyClock::now();
        const core::SubmitResult result =
            service_->submit(std::move(program), priority);
        pending.admitted = result.admitted;
        pending.handle = result.handle;
        return pending;
    }

    /**
     * Wait for @p pending, check its output, and account for it:
     * @p latency_ms maps the job's JobStatus to its latency.
     */
    template <typename LatencyFn>
    void collect(const Pending &pending, Phase &phase,
                 const LatencyFn &latency_ms)
    {
        if (!pending.admitted) {
            phase.tally.add(Outcome::Shed);
            return;
        }
        Outcome outcome = Outcome::Failed;
        std::optional<core::JigsawResult> result;
        try {
            result = service_->wait(pending.handle);
        } catch (const std::exception &) {
        }
        const std::optional<core::JobStatus> status =
            service_->poll(pending.handle);
        if (result) {
            outcome = Outcome::Completed;
            phase.outputs.emplace_back(pending.key, pmfDigest(result->output));
        } else if (status && status->state == core::JobState::Expired) {
            outcome = Outcome::Expired;
        }
        phase.tally.add(outcome);
        if (outcome == Outcome::Completed && status) {
            phase.latencyMs.push_back(latency_ms(*status));
            phase.queueWaitMs.push_back(status->queueWaitMs);
            phase.executeMs.push_back(status->executeMs);
        }
        if (recorder_ && result && status)
            traceJob(pending, *status, *result, phase);
        service_->release(pending.handle);
    }

    /** Phase bookkeeping around a client loop. */
    template <typename ClientFn>
    Phase measure(const ClientFn &client)
    {
        Phase phase;
        const obs::ProcessCounters counters0 =
            obs::ProcessCounters::snapshot();
        const double cpu0 = processCpuSeconds();
        const SteadyClock::time_point start = SteadyClock::now();
        client(start, phase);
        phase.wallS = msBetween(start, SteadyClock::now()) / 1000.0;
        phase.cpuS = processCpuSeconds() - cpu0;
        if (recorder_)
            addServiceCounts(phase,
                             obs::ProcessCounters::snapshot().since(counters0));
        return phase;
    }

    std::uint64_t seed_;
    std::vector<device::DeviceModel> devices_;
    std::vector<std::unique_ptr<workloads::Workload>> programs_;
    std::vector<core::JigsawOptions> schemes_;
    /** Pair-major: oneOffs_[pair * seedSlots() + slot]. */
    std::vector<core::ServiceProgram> oneOffs_;
    std::unique_ptr<core::JigsawService> service_;

  private:
    /** The job's recorder spans under a root covering submit..done. */
    void traceJob(const Pending &pending, const core::JobStatus &status,
                  const core::JigsawResult &result, Phase &phase)
    {
        const std::uint64_t job = pending.handle.id;
        const double root_start = recorder_->toMs(pending.sentAt);
        const std::uint64_t root = phase.spans.size() + 1;
        phase.spans.push_back(
            {job, root, 0, "job", root_start, root_start + status.totalMs});
        for (const obs::TraceSpan &span : recorder_->spansFor(job)) {
            phase.spans.push_back({job, phase.spans.size() + 1, root,
                                   span.stage, span.startMs,
                                   span.startMs + span.durationMs});
        }
        double swaps = result.globalCompiled.swapCount;
        for (const core::CpmRecord &cpm : result.cpms)
            swaps += cpm.compiled.swapCount;
        phase.counts["compile.swaps"] += swaps;
        phase.counts["execute.shots"] +=
            static_cast<double>(result.globalTrials + result.subsetTrials);
        phase.counts["reconstruct.support"] +=
            static_cast<double>(result.output.support());
        phase.counts["reconstruct.marginals"] +=
            static_cast<double>(result.cpms.size());
    }

    void addServiceCounts(Phase &phase, const obs::ProcessCounters &delta)
    {
        const core::StreamStats stats = service_->streamStats();
        auto &counts = phase.counts;
        counts["compile.transpile_misses"] +=
            static_cast<double>(delta.transpileCacheMisses);
        counts["compile.transpile_hits"] +=
            static_cast<double>(delta.transpileCacheHits);
        counts["compile.rebinds"] +=
            static_cast<double>(delta.transpileSkeletonRebinds);
        counts["execute.simd_scalar_calls"] +=
            static_cast<double>(delta.simdDispatchScalar);
        counts["execute.simd_avx2_calls"] +=
            static_cast<double>(delta.simdDispatchAvx2);
        counts["execute.simd_avx512_calls"] +=
            static_cast<double>(delta.simdDispatchAvx512);
        counts["execute.pmf_hits"] += static_cast<double>(stats.executorPmfHits);
        counts["execute.pmf_misses"] +=
            static_cast<double>(stats.executorPmfMisses);
        counts["execute.prefix_state_hits"] +=
            static_cast<double>(stats.prefixStateHits);
        counts["execute.prefix_state_misses"] +=
            static_cast<double>(stats.prefixStateMisses);
        counts["serve.merged_jobs"] += static_cast<double>(stats.mergedJobs);
        counts["serve.cross_program_groups"] +=
            static_cast<double>(stats.crossProgramGroups);
        counts["serve.pooled_global_programs"] +=
            static_cast<double>(stats.pooledGlobalPrograms);
        counts["serve.lone_dispatches"] +=
            static_cast<double>(stats.loneDispatches);
        counts["serve.window_shrinks"] +=
            static_cast<double>(stats.windowShrinks);
        counts["serve.retries"] += static_cast<double>(stats.retries);
    }

    std::shared_ptr<obs::TraceRecorder> recorder_;
    double pstGain_ = 1.0;
};

class SweepClosed : public ServiceWorkload
{
  public:
    using ServiceWorkload::ServiceWorkload;

    /** Jobs per sweep, all submitted before the client waits. */
    static constexpr std::size_t kSweep = 4;

    Phase run(double seconds) override
    {
        return measure([&](SteadyClock::time_point start, Phase &phase) {
            // A cycle is one sweep of every pair.
            SegmentTimer segment(phase);
            for (std::size_t s = 0;
                 msBetween(start, SteadyClock::now()) < 1000.0 * seconds;
                 ++s) {
                const std::size_t pair = s % kPairs;
                std::vector<Pending> sweep;
                for (std::size_t j = 0; j < kSweep; ++j) {
                    sweep.push_back(submit(oneOffs_[pair * kSweep + j],
                                           core::Priority::Normal,
                                           oneOffKey(pair, j)));
                }
                for (const Pending &pending : sweep) {
                    collect(pending, phase, [](const core::JobStatus &st) {
                        return st.totalMs;
                    });
                }
                if (s % kPairs == kPairs - 1)
                    segment.next();
            }
        });
    }

  protected:
    std::size_t seedSlots() const override { return kSweep; }
};

/** Ising/QAOA-cost ansatz: an H layer, then an RZZ chain and an RZ
 *  layer, so every parametric gate is diagonal. */
circuit::QuantumCircuit
isingAnsatz(int n, const std::vector<double> &angles)
{
    circuit::QuantumCircuit qc(n);
    for (int q = 0; q < n; ++q)
        qc.h(q);
    std::size_t k = 0;
    for (int q = 0; q + 1 < n; ++q)
        qc.rzz(angles.at(k++), q, q + 1);
    for (int q = 0; q < n; ++q)
        qc.rz(angles.at(k++), q);
    qc.measureAll();
    return qc;
}

class PacedMix : public ServiceWorkload
{
  public:
    using ServiceWorkload::ServiceWorkload;

    static constexpr double kRatePerSecond = 20.0;
    static constexpr int kAnsatzQubits = 10;
    /** Angle vectors the VQA client cycles through. */
    static constexpr std::size_t kAngleSets = 8;

    Phase run(double seconds) override
    {
        // Every arrival, generated before timing starts. The pair and
        // angle rotations are fixed, so every seed offers the same cost
        // profile; the seed picks executor seeds and angles.
        struct Arrival
        {
            bool iteration = false;
            std::size_t index = 0; ///< One-off slot or angle set.
            core::Priority priority = core::Priority::Normal;
            std::uint64_t key = 0;
        };
        const std::size_t n_jobs =
            static_cast<std::size_t>(kRatePerSecond * seconds);
        std::vector<Arrival> arrivals;
        const std::vector<std::string> tenants = {"tenant-a", "tenant-b",
                                                  "tenant-c"};
        std::size_t one_off = 0;
        for (std::size_t i = 0; i < n_jobs; ++i) {
            Arrival arrival;
            arrival.priority =
                static_cast<core::Priority>(i % core::kPriorityClasses);
            if (i % 4 == 3) {
                arrival.iteration = true;
                arrival.index = (i / 4) % kAngleSets;
                arrival.key = iterationKey(arrival.index);
            } else {
                const std::size_t pair = one_off % kPairs;
                const std::size_t slot = (one_off / kPairs) % seedSlots();
                arrival.index = pair * seedSlots() + slot;
                arrival.key = oneOffKey(pair, slot);
                ++one_off;
            }
            arrivals.push_back(arrival);
        }

        return measure([&](SteadyClock::time_point start, Phase &phase) {
            std::mutex mutex;
            std::condition_variable ready;
            std::deque<Pending> sent;
            double lag_max_ms = 0.0;
            std::thread generator([&] {
                const auto period = std::chrono::duration<double>(
                    1.0 / kRatePerSecond);
                for (std::size_t i = 0; i < arrivals.size(); ++i) {
                    const auto due =
                        start + std::chrono::duration_cast<
                                    SteadyClock::duration>(period * i);
                    std::this_thread::sleep_until(due);
                    const Arrival &arrival = arrivals[i];
                    Pending pending;
                    pending.key = arrival.key;
                    pending.sentAt = SteadyClock::now();
                    try {
                        core::SubmitResult result;
                        if (arrival.iteration) {
                            result = service_->submitIteration(
                                vqa_, angleSets_[arrival.index],
                                arrival.priority);
                        } else {
                            core::ServiceProgram program =
                                oneOffs_[arrival.index];
                            program.tenant = tenants[i % tenants.size()];
                            result = service_->submit(std::move(program),
                                                      arrival.priority);
                        }
                        pending.admitted = result.admitted;
                        pending.handle = result.handle;
                    } catch (const std::exception &) {
                        // Counted like a refused submit: attempted, failed.
                        pending.admitted = false;
                    }
                    pending.dueMs = msBetween(start, due);
                    pending.sentMs = msBetween(start, pending.sentAt);
                    std::lock_guard<std::mutex> lock(mutex);
                    lag_max_ms = std::max(lag_max_ms,
                                          pending.sentMs - pending.dueMs);
                    sent.push_back(pending);
                    ready.notify_one();
                }
            });
            for (std::size_t i = 0; i < arrivals.size(); ++i) {
                Pending pending;
                {
                    std::unique_lock<std::mutex> lock(mutex);
                    ready.wait(lock, [&] { return !sent.empty(); });
                    pending = sent.front();
                    sent.pop_front();
                }
                collect(pending, phase, [&](const core::JobStatus &st) {
                    return dueTimeLatencyMs(pending.dueMs, pending.sentMs,
                                            st.totalMs);
                });
            }
            generator.join();
            phase.generatorLagMaxMs = lag_max_ms;
        });
    }

  protected:
    std::size_t seedSlots() const override { return 4; }

    void generateClient() override
    {
        const std::size_t n_angles = 2 * kAnsatzQubits - 1;
        for (std::size_t a = 0; a < kAngleSets; ++a) {
            std::vector<double> angles;
            for (std::size_t i = 0; i < n_angles; ++i) {
                angles.push_back(
                    0.05 + 3.0 * static_cast<double>(
                                     mixSeed(seed_, 100 * a + i) >> 11) /
                               9007199254740992.0);
            }
            angleSets_.push_back(std::move(angles));
        }
    }

    void setUpClient() override
    {
        vqa_ = service_->compileParametric(prototype());
    }

    void addClientReferences(
        std::vector<std::pair<std::uint64_t, core::ServiceProgram>> &refs)
        override
    {
        for (std::size_t a = 0; a < kAngleSets; ++a) {
            core::ServiceProgram program = prototype();
            program.circuit.rebindAngles(angleSets_[a]);
            refs.emplace_back(iterationKey(a), std::move(program));
        }
    }

  private:
    static std::uint64_t iterationKey(std::size_t angle_set)
    {
        return 1'000'000 + angle_set;
    }

    core::ServiceProgram prototype() const
    {
        core::ServiceProgram program(
            isingAnsatz(kAnsatzQubits, angleSets_[0]), devices_[0], kTrials,
            core::JigsawOptions{}, mixSeed(seed_, 424242));
        program.tenant = "vqa";
        return program;
    }

    std::vector<std::vector<double>> angleSets_;
    core::ParametricHandle vqa_;
};

} // namespace

std::unique_ptr<Workload>
makeSweepClosed(std::uint64_t seed)
{
    return std::make_unique<SweepClosed>(seed);
}

std::unique_ptr<Workload>
makePacedMix(std::uint64_t seed)
{
    return std::make_unique<PacedMix>(seed);
}

} // namespace e2e
