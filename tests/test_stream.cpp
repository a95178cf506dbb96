/**
 * @file
 * Streaming-scheduler tests: the submit/poll JigsawService must
 * reproduce sequential runJigsaw bitwise under concurrent submitters
 * and arbitrary window composition, cancellation and expiry must
 * withdraw only their own job from an open merge window, a faulting
 * job must fail only itself, and the guarded percentile views must
 * survive degenerate sample sets. This file joins test_service in the CI ThreadSanitizer
 * leg (run with JIGSAW_THREADS=4 or more to exercise the pool).
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/fault.h"
#include "core/scheduler.h"
#include "obs/registry.h"
#include "core/service.h"
#include "device/library.h"
#include "sim/simulators.h"
#include "workloads/bv.h"
#include "workloads/ghz.h"
#include "workloads/qft.h"

namespace jigsaw {
namespace {

using core::JigsawResult;
using core::JobHandle;
using core::JobState;
using core::Priority;
using core::ServiceProgram;
using core::StreamingScheduler;
using core::StreamOptions;

/** Exact equality: the two PMFs store identical doubles. */
void
expectBitwisePmf(const Pmf &a, const Pmf &b)
{
    ASSERT_EQ(a.nQubits(), b.nQubits());
    ASSERT_EQ(a.support(), b.support());
    for (const auto &[outcome, p] : a.probabilities())
        EXPECT_EQ(p, b.prob(outcome)) << "outcome " << outcome;
}

void
expectBitwiseResult(const JigsawResult &expected,
                    const JigsawResult &actual)
{
    expectBitwisePmf(expected.output, actual.output);
    expectBitwisePmf(expected.globalPmf, actual.globalPmf);
    ASSERT_EQ(expected.cpms.size(), actual.cpms.size());
    for (std::size_t c = 0; c < expected.cpms.size(); ++c) {
        EXPECT_EQ(expected.cpms[c].subset, actual.cpms[c].subset);
        expectBitwisePmf(expected.cpms[c].localPmf,
                         actual.cpms[c].localPmf);
    }
}

/** Poll until @p handle reaches @p state (fails the test on timeout). */
void
pollUntil(const StreamingScheduler &scheduler, JobHandle handle,
          JobState state)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(60);
    for (;;) {
        const auto status = scheduler.poll(handle);
        ASSERT_TRUE(status.has_value());
        if (status->state == state)
            return;
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "timed out waiting for job state "
            << static_cast<int>(state) << " (currently "
            << static_cast<int>(status->state) << ")";
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

/** A mixed batch with duplicated (circuit, device) pairs to merge. */
std::vector<ServiceProgram>
streamPrograms(const device::DeviceModel &dev)
{
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 11);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 22);
    programs.emplace_back(workloads::BernsteinVazirani(6).circuit(), dev,
                          6144, core::JigsawOptions{}, 33);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::jigsawMOptions(), 44);
    core::JigsawOptions no_recomp;
    no_recomp.recompileCpms = false;
    programs.emplace_back(workloads::QftAdjoint(5).circuit(), dev, 4096,
                          no_recomp, 55);
    programs.emplace_back(workloads::BernsteinVazirani(6).circuit(), dev,
                          6144, core::JigsawOptions{}, 66);
    return programs;
}

// ------------------------------------------------- bitwise determinism

TEST(StreamingScheduler, WindowedJobsMatchSequentialBitwise)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = streamPrograms(dev);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 50.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    for (std::size_t i = 0; i < handles.size(); ++i) {
        const JigsawResult result = scheduler.wait(handles[i]);
        expectBitwiseResult(sequential[i], result);
    }
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.submitted, programs.size());
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.jobsObserved, programs.size());
    EXPECT_GE(stats.latencyPercentileMs(0.95),
              stats.latencyPercentileMs(0.5));
}

TEST(StreamingScheduler, ConcurrentSubmittersMatchSequentialBitwise)
{
    // The acceptance test: >= 4 submitter threads pushing programs
    // through one service concurrently, every result bitwise-equal to
    // a sequential runJigsaw whatever the window composition the
    // races produced. Seeds differ across threads so every job is its
    // own draw stream.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (int t = 0; t < 4; ++t) {
        for (const ServiceProgram &base : streamPrograms(dev)) {
            ServiceProgram program = base;
            program.executorSeed += 1000ULL * (t + 1);
            programs.push_back(std::move(program));
        }
    }
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    core::ServiceOptions service_options;
    service_options.stream.windowMs = 20.0;
    core::JigsawService service(service_options);

    const std::size_t per_thread = programs.size() / 4;
    std::vector<JobHandle> handles(programs.size());
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < 4; ++t) {
        submitters.emplace_back([&, t] {
            for (std::size_t i = t * per_thread;
                 i < (t + 1) * per_thread; ++i) {
                const Priority priority = static_cast<Priority>(
                    i % core::kPriorityClasses);
                handles[i] = service.submit(programs[i], priority).handle;
            }
            // Each submitter also waits on (half of) its own jobs, so
            // wait() itself runs concurrently with other submitters.
            for (std::size_t i = t * per_thread;
                 i < t * per_thread + per_thread / 2; ++i)
                service.wait(handles[i]);
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    service.drain();

    for (std::size_t i = 0; i < programs.size(); ++i) {
        const JigsawResult result = service.wait(handles[i]);
        expectBitwiseResult(sequential[i], result);
    }
    const core::StreamStats stats = service.streamStats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed + stats.cancelled, 0u);
    // The duplicated (circuit, device) pairs should have produced at
    // least one genuinely merged window.
    EXPECT_GT(stats.mergedJobs, 0u);
}

TEST(StreamingScheduler, ImmediateDispatchMatchesSequentialBitwise)
{
    // windowMs 0 is submit-and-run-immediately: every job dispatches
    // on readiness, window-less, on the shared executor.
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = streamPrograms(dev);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 0.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();
    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.mergedWindows, 0u);
    EXPECT_EQ(stats.loneDispatches, programs.size());
}

TEST(StreamingScheduler, SameProgramJobsShareOneWindowBitwise)
{
    // Two jobs of one program collect in one merge window, then each
    // executes on its own against the shared executor — which evolves
    // the program once for both — and both stay bitwise-sequential.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 211);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 212);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 60000.0; // held open until drain()
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    for (const JobHandle handle : handles)
        pollUntil(scheduler, handle, JobState::Windowed);
    scheduler.drain();
    for (std::size_t i = 0; i < programs.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));

    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.mergedWindows, 1u);
    EXPECT_EQ(stats.mergedJobs, 2u);
    EXPECT_EQ(stats.loneDispatches, 0u);
    // The second job found every PMF the first one built.
    EXPECT_GT(stats.executorPmfHits, 0u);
}

// ------------------------------------------------------- cancellation

TEST(StreamingScheduler, CancelInsideOpenMergeWindow)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 301);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 302);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 60000.0; // held open until drain()
    options.windowMaxJobs = 8;
    StreamingScheduler scheduler(options);
    const JobHandle kept = scheduler.submit(programs[0]).handle;
    const JobHandle cancelled = scheduler.submit(programs[1]).handle;

    // Both jobs must actually be sitting inside the open window.
    pollUntil(scheduler, kept, JobState::Windowed);
    pollUntil(scheduler, cancelled, JobState::Windowed);

    EXPECT_TRUE(scheduler.cancel(cancelled));
    EXPECT_EQ(scheduler.poll(cancelled)->state, JobState::Cancelled);
    EXPECT_THROW(scheduler.wait(cancelled), std::runtime_error);
    // Cancelling again (or after terminal) reports failure.
    EXPECT_FALSE(scheduler.cancel(cancelled));

    scheduler.drain(); // closes the window; the kept job runs alone
    expectBitwiseResult(sequential[0], scheduler.wait(kept));

    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.mergedWindows, 0u);
    EXPECT_EQ(stats.loneDispatches, 1u);
}

TEST(StreamingScheduler, CancelQueuedAndUnknownHandles)
{
    StreamOptions options;
    options.windowMs = 0.0;
    StreamingScheduler scheduler(options);
    EXPECT_FALSE(scheduler.cancel(JobHandle{9999}));
    EXPECT_FALSE(scheduler.poll(JobHandle{9999}).has_value());
    EXPECT_THROW(scheduler.wait(JobHandle{9999}),
                 std::invalid_argument);
}

// ------------------------------------------------- priority / windows

TEST(StreamingScheduler, HighPriorityClosesItsWindowImmediately)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 401);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 402);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 60000.0;
    StreamingScheduler scheduler(options);
    const JobHandle low =
        scheduler.submit(programs[0], Priority::Low).handle;
    pollUntil(scheduler, low, JobState::Windowed);
    // The High job joins the Low job's open window and closes it on
    // the spot — wait() would otherwise block on the 60 s deadline.
    const JobHandle high =
        scheduler.submit(programs[1], Priority::High).handle;
    expectBitwiseResult(sequential[1], scheduler.wait(high));
    expectBitwiseResult(sequential[0], scheduler.wait(low));

    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.mergedWindows, 1u);
    EXPECT_EQ(stats.mergedJobs, 2u);
    EXPECT_GE(stats.queueWaitPercentileMs(Priority::Low, 0.5),
              stats.queueWaitPercentileMs(Priority::High, 0.5));
}

// ------------------------------------------------------------ failures

TEST(StreamingScheduler, FailuresPropagateThroughWait)
{
    const device::DeviceModel dev = device::toronto();
    StreamOptions options;
    options.windowMs = 0.0;
    StreamingScheduler scheduler(options);
    const JobHandle ok =
        scheduler
            .submit(ServiceProgram(workloads::Ghz(5).circuit(), dev,
                                   4096, core::JigsawOptions{}, 501))
            .handle;
    // A one-trial budget fails in the planning stage.
    const JobHandle bad =
        scheduler
            .submit(ServiceProgram(workloads::Ghz(5).circuit(), dev, 1))
            .handle;
    EXPECT_THROW(scheduler.wait(bad), std::invalid_argument);
    EXPECT_EQ(scheduler.poll(bad)->state, JobState::Failed);
    EXPECT_NO_THROW(scheduler.wait(ok));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 1u);
}

// ------------------------------------- bounded admission and shedding

/** Disarms the process-wide fault injector however the test exits. */
struct FaultGuard
{
    ~FaultGuard() { FaultInjector::instance().clear(); }
};

TEST(StreamingScheduler, ShedsLowBeforeHighWithFiniteHints)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (std::uint64_t seed = 601; seed <= 607; ++seed) {
        programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                              core::JigsawOptions{}, seed);
    }
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 60000.0; // held open: the backlog cannot drain
    options.windowMaxJobs = 16;
    options.maxQueuedJobs = 5; // shed thresholds: Low 3, Normal 4, High 5
    StreamingScheduler scheduler(options);

    // Three Low jobs fill the Low class's share of the queue...
    std::vector<std::pair<std::size_t, JobHandle>> admitted;
    for (std::size_t i = 0; i < 3; ++i) {
        const core::SubmitResult outcome =
            scheduler.submit(programs[i], Priority::Low);
        ASSERT_TRUE(outcome.admitted);
        admitted.emplace_back(i, outcome.handle);
    }
    // ...the fourth Low is shed with a finite, positive retry hint...
    const core::SubmitResult shed_low =
        scheduler.submit(programs[3], Priority::Low);
    EXPECT_FALSE(shed_low.admitted);
    EXPECT_FALSE(static_cast<bool>(shed_low));
    EXPECT_TRUE(std::isfinite(shed_low.tryLaterAfterMs));
    EXPECT_GT(shed_low.tryLaterAfterMs, 0.0);
    // ...while Normal still admits at the same backlog...
    const core::SubmitResult normal =
        scheduler.submit(programs[4], Priority::Normal);
    ASSERT_TRUE(normal.admitted);
    admitted.emplace_back(4, normal.handle);
    // ...the next Normal sheds (backlog 4 >= its threshold)...
    const core::SubmitResult shed_normal =
        scheduler.submit(programs[5], Priority::Normal);
    EXPECT_FALSE(shed_normal.admitted);
    EXPECT_TRUE(std::isfinite(shed_normal.tryLaterAfterMs));
    EXPECT_GT(shed_normal.tryLaterAfterMs, 0.0);
    // ...and High keeps the full queue.
    const core::SubmitResult high =
        scheduler.submit(programs[6], Priority::High);
    ASSERT_TRUE(high.admitted);
    admitted.emplace_back(6, high.handle);

    scheduler.drain();
    for (const auto &[index, handle] : admitted)
        expectBitwiseResult(sequential[index], scheduler.wait(handle));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, admitted.size());
    EXPECT_EQ(stats.shed, 2u);
    EXPECT_EQ(stats.shedByClass[static_cast<std::size_t>(Priority::Low)],
              1u);
    EXPECT_EQ(
        stats.shedByClass[static_cast<std::size_t>(Priority::Normal)],
        1u);
    EXPECT_EQ(
        stats.shedByClass[static_cast<std::size_t>(Priority::High)], 0u);
}

TEST(StreamingScheduler, DrainClearsSheddingBacklog)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (std::uint64_t seed = 1001; seed <= 1004; ++seed) {
        programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                              core::JigsawOptions{}, seed);
    }
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 60000.0;
    // Normal sheds once the backlog hits 3. At half the admission
    // budget the overload shrink stays off, so the held window closes
    // only in drain() however fast the jobs prepare.
    options.maxQueuedJobs = 6;
    options.shedFractions = {1.0, 0.5, 0.5};
    StreamingScheduler scheduler(options);

    std::vector<JobHandle> handles;
    for (std::size_t i = 0; i < 3; ++i) {
        const core::SubmitResult outcome = scheduler.submit(programs[i]);
        ASSERT_TRUE(outcome.admitted);
        handles.push_back(outcome.handle);
    }
    const core::SubmitResult shed = scheduler.submit(programs[3]);
    EXPECT_FALSE(shed.admitted);
    EXPECT_TRUE(std::isfinite(shed.tryLaterAfterMs));
    EXPECT_GT(shed.tryLaterAfterMs, 0.0);

    // Draining dispatches the held window; with the backlog gone the
    // shed program is admitted on resubmission — the hint's contract.
    scheduler.drain();
    const core::SubmitResult retry = scheduler.submit(programs[3]);
    ASSERT_TRUE(retry.admitted);
    handles.push_back(retry.handle);
    scheduler.drain(); // the retry opened a fresh held window: close it

    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.shed, 1u);
}

// ------------------------------------------- deadlines (SLO expiry)

TEST(StreamingScheduler, DeadlineExpiresInsideOpenWindow)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 701);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 702);
    programs[1].deadlineMs = 40.0;
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 60000.0; // the window outlives the deadline
    StreamingScheduler scheduler(options);
    const JobHandle kept = scheduler.submit(programs[0]).handle;
    const JobHandle doomed = scheduler.submit(programs[1]).handle;
    pollUntil(scheduler, kept, JobState::Windowed);

    // The dispatcher expires the deadlined job out of the still-open
    // window on its own clock — no wait() needed to trigger it.
    pollUntil(scheduler, doomed, JobState::Expired);
    EXPECT_THROW(scheduler.wait(doomed), DeadlineExceededError);
    EXPECT_FALSE(scheduler.cancel(doomed)); // already terminal

    // The surviving window partner is untouched by the expiry.
    scheduler.drain();
    expectBitwiseResult(sequential[0], scheduler.wait(kept));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.expired, 1u);
    EXPECT_EQ(stats.failed, 0u);
}

// ------------------------------------- fault injection and retries

TEST(StreamingScheduler, TransientFaultsRetryToBitwiseIdenticalResults)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs = streamPrograms(dev);
    // Reference first: the injector must not see the sequential runs.
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("stage.compile:first=2;executor.run:first=1"));

    StreamOptions options;
    options.windowMs = 0.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();

    // Every fault was absorbed by a full-pipeline restart that replays
    // the job's private draw stream: results stay bitwise-sequential.
    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retries, 3u);
    EXPECT_EQ(FaultInjector::instance().injected(), 3u);
}

TEST(StreamingScheduler, FaultingJobFailsOnlyItself)
{
    // Two jobs share one merge window; the first one's execution
    // faults on every attempt (the rule matches its 4096-shot global
    // run; the partner's draws 3072 shots). It fails after its
    // maxRetries retries, alone: its window partner stays bitwise.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 801);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 6144,
                          core::JigsawOptions{}, 802);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("executor.run@4096:first=4"));

    StreamOptions options;
    options.windowMs = 60000.0;
    options.maxRetries = 3;
    StreamingScheduler scheduler(options);
    const JobHandle failing = scheduler.submit(programs[0]).handle;
    const JobHandle partner = scheduler.submit(programs[1]).handle;
    pollUntil(scheduler, failing, JobState::Windowed);
    pollUntil(scheduler, partner, JobState::Windowed);

    scheduler.drain(); // closes the 2-job window
    EXPECT_THROW(scheduler.wait(failing), TransientError);
    EXPECT_EQ(scheduler.poll(failing)->state, JobState::Failed);
    EXPECT_EQ(scheduler.poll(failing)->attempts, 3u);
    expectBitwiseResult(sequential[1], scheduler.wait(partner));
    EXPECT_EQ(scheduler.poll(partner)->attempts, 0u);
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retries, 3u);
    EXPECT_EQ(stats.mergedWindows, 1u);
    EXPECT_EQ(FaultInjector::instance().injectedAt("executor.run"), 4u);
}

TEST(StreamingScheduler, CancelInsideWindowUnderFaults)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (std::uint64_t seed = 901; seed <= 903; ++seed) {
        programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                              core::JigsawOptions{}, seed);
    }
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("executor.run:first=1"));

    StreamOptions options;
    options.windowMs = 60000.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    for (const JobHandle handle : handles)
        pollUntil(scheduler, handle, JobState::Windowed);

    // Cancellation shrinks the open window to two members; one
    // survivor's execution then faults and is retried on its own, and
    // both survivors still match sequential bitwise.
    EXPECT_TRUE(scheduler.cancel(handles[1]));
    scheduler.drain();
    EXPECT_THROW(scheduler.wait(handles[1]), std::runtime_error);
    expectBitwiseResult(sequential[0], scheduler.wait(handles[0]));
    expectBitwiseResult(sequential[2], scheduler.wait(handles[2]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.retries, 1u);
    EXPECT_EQ(stats.mergedJobs, 2u);
}

TEST(StreamingScheduler, ConcurrentSubmittersWithFaultsStayBitwise)
{
    // The robustness acceptance test: four submitter threads, faults
    // injected across the compile, batch-execute, and reconstruct
    // layers — every surviving job must still be bitwise-identical to
    // its sequential run.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (int t = 0; t < 4; ++t) {
        for (const ServiceProgram &base : streamPrograms(dev)) {
            ServiceProgram program = base;
            program.executorSeed += 2000ULL * (t + 1);
            programs.push_back(std::move(program));
        }
    }
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(parseFaultSpec(
        "stage.compile:first=2;executor.runBatch:first=1;"
        "stage.reconstruct:first=1"));

    core::ServiceOptions service_options;
    service_options.stream.windowMs = 20.0;
    core::JigsawService service(service_options);

    const std::size_t per_thread = programs.size() / 4;
    std::vector<JobHandle> handles(programs.size());
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < 4; ++t) {
        submitters.emplace_back([&, t] {
            for (std::size_t i = t * per_thread;
                 i < (t + 1) * per_thread; ++i) {
                handles[i] =
                    service
                        .submit(programs[i],
                                static_cast<Priority>(
                                    i % core::kPriorityClasses))
                        .handle;
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    service.drain();

    for (std::size_t i = 0; i < programs.size(); ++i)
        expectBitwiseResult(sequential[i], service.wait(handles[i]));
    const core::StreamStats stats = service.streamStats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed + stats.cancelled + stats.expired, 0u);
    // Every rule fires (each job compiles, runs batches and
    // reconstructs), and each fault costs exactly one retry.
    EXPECT_EQ(FaultInjector::instance().injected(), 4u);
    EXPECT_EQ(stats.retries, 4u);
}

// --------------------------------- result retention and stats bounds

TEST(StreamingScheduler, ReleaseAndRetentionBoundDeliveredResults)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (std::uint64_t seed = 1101; seed <= 1104; ++seed) {
        programs.emplace_back(workloads::Ghz(5).circuit(), dev, 4096,
                              core::JigsawOptions{}, seed);
    }

    StreamOptions options;
    options.windowMs = 0.0;
    options.resultRetention = 2;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    // Delivering all four results evicts the two delivered first.
    for (const JobHandle handle : handles)
        scheduler.wait(handle);

    EXPECT_FALSE(scheduler.poll(handles[0]).has_value());
    EXPECT_FALSE(scheduler.poll(handles[1]).has_value());
    EXPECT_THROW(scheduler.wait(handles[0]), std::invalid_argument);
    ASSERT_TRUE(scheduler.poll(handles[2]).has_value());

    // release() evicts eagerly; double-release and unknown are false.
    EXPECT_TRUE(scheduler.release(handles[2]));
    EXPECT_FALSE(scheduler.poll(handles[2]).has_value());
    EXPECT_FALSE(scheduler.release(handles[2]));
    EXPECT_FALSE(scheduler.release(JobHandle{9999}));

    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 4u);
    EXPECT_EQ(stats.evicted, 2u);
    EXPECT_EQ(stats.released, 1u);

    // A live (non-terminal) job cannot be released out from under its
    // waiter — only terminal jobs can.
    StreamOptions held;
    held.windowMs = 60000.0;
    StreamingScheduler held_scheduler(held);
    const JobHandle live = held_scheduler.submit(programs[0]).handle;
    pollUntil(held_scheduler, live, JobState::Windowed);
    EXPECT_FALSE(held_scheduler.release(live));
    EXPECT_TRUE(held_scheduler.cancel(live));
    EXPECT_TRUE(held_scheduler.release(live)); // terminal now
}

TEST(StreamingScheduler, LatencyHistogramsStayBoundedWithExactCounters)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (std::uint64_t seed = 1201; seed <= 1210; ++seed) {
        programs.emplace_back(workloads::Ghz(5).circuit(), dev, 2048,
                              core::JigsawOptions{}, seed);
    }

    StreamOptions options;
    options.windowMs = 0.0;
    StreamingScheduler scheduler(options);
    for (std::size_t i = 0; i < programs.size(); ++i) {
        scheduler.submit(programs[i],
                         static_cast<Priority>(i %
                                               core::kPriorityClasses));
    }
    scheduler.drain();

    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 10u);
    // Every completion lands in the per-class fixed-bucket histograms:
    // no sample is dropped, yet memory is bounded by the bucket count,
    // not the job count — the reservoir this replaced traded one for
    // the other. The class counters stay exact.
    EXPECT_EQ(stats.jobsObserved, 10u);
    std::uint64_t histogrammed = 0;
    for (const obs::HistogramData &h : stats.latencyByClass) {
        histogrammed += h.count;
        if (h.bounds) {
            EXPECT_EQ(h.counts.size(), h.bounds->size() + 1);
        }
    }
    EXPECT_EQ(histogrammed, 10u);
    EXPECT_EQ(
        stats.completedByClass[static_cast<std::size_t>(Priority::High)],
        4u);
    EXPECT_EQ(stats.completedByClass[static_cast<std::size_t>(
                  Priority::Normal)],
              3u);
    EXPECT_EQ(
        stats.completedByClass[static_cast<std::size_t>(Priority::Low)],
        3u);
}

// ------------------------------------------------ tenant fair share

TEST(StreamingScheduler, TenantFairShareAvoidsStarvation)
{
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (std::uint64_t seed = 1301; seed <= 1307; ++seed) {
        programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                              core::JigsawOptions{}, seed);
        programs.back().tenant = seed <= 1306 ? "hog" : "guest";
    }

    StreamOptions options;
    options.windowMs = 0.0;
    options.maxInFlight = 1; // serialize dispatch so order is visible
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program, Priority::Low).handle);
    scheduler.drain();

    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    // The guest submitted LAST, behind six hog jobs. FIFO would
    // dispatch it last; round-robin alternates tenants, so the
    // guest rides out after roughly one hog job while the sixth hog
    // job waits behind the rest of its own tenant's queue.
    const auto guest = scheduler.poll(handles[6]);
    const auto last_hog = scheduler.poll(handles[5]);
    ASSERT_TRUE(guest.has_value());
    ASSERT_TRUE(last_hog.has_value());
    EXPECT_LT(guest->queueWaitMs, last_hog->queueWaitMs);
}

TEST(StreamingScheduler, PrepareGateBacklogDoesNotSpinTheDispatcher)
{
    // With aging off and one execution slot, the prepare gate holds
    // back all but two of these jobs. The dispatcher must sleep until
    // a prepare finishes instead of looping on the held-back backlog
    // while holding the lock it needs to see that prepare finish,
    // which hung this batch forever. The watchdog turns a hang into a
    // failure.
    const device::DeviceModel dev = device::toronto();
    StreamOptions options;
    options.agingMs = 0.0;
    options.maxInFlight = 1;
    // Heap-held and leaked on a hang: destroying a hung scheduler (or
    // the future of the task blocked on it) would block the test.
    auto *scheduler = new StreamingScheduler(options);
    auto *batch = new std::future<std::size_t>(
        std::async(std::launch::async, [scheduler, &dev] {
            for (std::uint64_t seed = 1; seed <= 6; ++seed) {
                scheduler->submit(ServiceProgram(workloads::Ghz(5).circuit(),
                                                 dev, 4096,
                                                 core::JigsawOptions{},
                                                 seed));
            }
            scheduler->drain();
            return scheduler->stats().completed;
        }));
    if (batch->wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
        ADD_FAILURE() << "6 gated jobs did not finish within 30 s: the "
                         "dispatcher spins on the gated backlog";
        // The spinning dispatcher holds the scheduler lock for good,
        // so no orderly teardown can finish: report and exit.
        std::fflush(nullptr);
        std::_Exit(1);
    }
    EXPECT_EQ(batch->get(), 6u);
    delete batch;
    delete scheduler;
}

// -------------------------------------------- percentile degeneracies

TEST(PercentileGuards, EmptySingleAndDegenerateQ)
{
    // StreamStats: empty overall and per-class histogram views.
    core::StreamStats stream_stats;
    EXPECT_EQ(stream_stats.latencyPercentileMs(0.5), 0.0);
    EXPECT_EQ(stream_stats.latencyPercentileMs(Priority::High, 0.95),
              0.0);
    const std::size_t normal =
        static_cast<std::size_t>(Priority::Normal);
    stream_stats.latencyByClass[normal].observe(3.0);
    stream_stats.queueWaitByClass[normal].observe(1.0);
    stream_stats.executeByClass[normal].observe(2.0);
    // A single observation comes back exact through the histogram view
    // (HistogramData::quantile's single-sample guard), both overall
    // (classes merged) and per class.
    EXPECT_EQ(stream_stats.latencyPercentileMs(0.95), 3.0);
    EXPECT_EQ(
        stream_stats.latencyPercentileMs(Priority::Normal, 0.95), 3.0);
    EXPECT_EQ(
        stream_stats.queueWaitPercentileMs(Priority::Normal, 0.5), 1.0);
    EXPECT_EQ(
        stream_stats.executePercentileMs(Priority::Normal, 0.5), 2.0);
    // A class with no samples stays guarded.
    EXPECT_EQ(stream_stats.latencyPercentileMs(Priority::Low, 0.95),
              0.0);
}

} // namespace
} // namespace jigsaw
