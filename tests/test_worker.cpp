/**
 * @file
 * Worker execution tier tests: jobs dispatched as leases over the
 * Transport seam must produce results bitwise-identical to sequential
 * runJigsaw whatever the fleet does — healthy workers, workers
 * crashing mid-job, workers stalling past the lease deadline,
 * transport faults on either edge, or a fleet with no live worker at
 * all (graceful local fallback). Lost leases must never charge a
 * job's transient-retry budget, and a job failing on a worker fails
 * only itself. This file joins test_stream
 * in the CI ThreadSanitizer leg and the fault-matrix step
 * (AmbientFaultMatrix reruns under JIGSAW_FAULT_SPEC).
 */
#include <chrono>
#include <cstdlib>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "common/fault.h"
#include "core/scheduler.h"
#include "core/service.h"
#include "core/transport.h"
#include "core/worker.h"
#include "device/library.h"
#include "workloads/bv.h"
#include "workloads/ghz.h"
#include "workloads/qft.h"

namespace jigsaw {
namespace {

using core::JigsawResult;
using core::JobHandle;
using core::Priority;
using core::ServiceProgram;
using core::StreamingScheduler;
using core::StreamOptions;

/** Disarms the process-wide fault injector however the test exits. */
struct FaultGuard
{
    ~FaultGuard() { FaultInjector::instance().clear(); }
};

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

/** A mixed batch with duplicated (circuit, device) pairs to window. */
std::vector<ServiceProgram>
workerPrograms(const device::DeviceModel &dev, std::uint64_t seed_base)
{
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, seed_base + 1);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, seed_base + 2);
    programs.emplace_back(workloads::BernsteinVazirani(6).circuit(), dev,
                          6144, core::JigsawOptions{}, seed_base + 3);
    programs.emplace_back(workloads::QftAdjoint(5).circuit(), dev, 4096,
                          core::JigsawOptions{}, seed_base + 4);
    return programs;
}

std::size_t
workerCompletedTotal(const core::StreamStats &stats)
{
    return std::accumulate(stats.workerCompleted.begin(),
                           stats.workerCompleted.end(),
                           std::size_t{0});
}

// ------------------------------------------------ healthy fleet

TEST(WorkerTier, MatchesSequentialBitwise)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs =
        workerPrograms(dev, 1000);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 50.0;
    options.worker.workers = 4;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();

    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed, 0u);
    // Every job rode the fleet: one lease each, none lost, nothing
    // fell back to local execution.
    EXPECT_EQ(stats.leasesGranted, programs.size());
    EXPECT_EQ(stats.leasesExpired, 0u);
    EXPECT_EQ(stats.leasesRevoked, 0u);
    EXPECT_EQ(stats.localFallbacks, 0u);
    EXPECT_EQ(workerCompletedTotal(stats), stats.leasesGranted);
}

TEST(WorkerTier, WorkersZeroRunsLocallyWithNoLeases)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs =
        workerPrograms(dev, 1100);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    StreamOptions options;
    options.windowMs = 50.0;
    options.worker.workers = 0; // tier disabled: the pre-worker path
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();

    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.leasesGranted, 0u);
    // localFallbacks counts worker-tier degradations only, not the
    // ordinary transportless path.
    EXPECT_EQ(stats.localFallbacks, 0u);
    EXPECT_TRUE(stats.workerCompleted.empty());
}

// ------------------------------------------- worker death and stalls

TEST(WorkerTier, FourSubmittersWithWorkerCrashesStayBitwise)
{
    // The acceptance test: four submitter threads over a 4-worker
    // fleet with two workers crashing mid-job. The crashed leases
    // are revoked on heartbeat silence and re-dispatched to surviving
    // workers; every job still completes bitwise-identical to its
    // sequential run, with zero failures.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    for (int t = 0; t < 4; ++t) {
        for (const ServiceProgram &base :
             workerPrograms(dev, 3000 + 100ULL * t))
            programs.push_back(base);
    }
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("worker.crash:first=2"));

    StreamOptions options;
    options.windowMs = 10.0;
    options.worker.workers = 4;
    options.worker.heartbeatTimeoutMs = 50.0;
    StreamingScheduler scheduler(options);

    const std::size_t per_thread = programs.size() / 4;
    std::vector<JobHandle> handles(programs.size());
    std::vector<std::thread> submitters;
    for (std::size_t t = 0; t < 4; ++t) {
        submitters.emplace_back([&, t] {
            for (std::size_t i = t * per_thread;
                 i < (t + 1) * per_thread; ++i) {
                handles[i] =
                    scheduler
                        .submit(programs[i],
                                static_cast<Priority>(
                                    i % core::kPriorityClasses))
                        .handle;
            }
        });
    }
    for (std::thread &submitter : submitters)
        submitter.join();
    scheduler.drain();

    for (std::size_t i = 0; i < programs.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed + stats.expired + stats.cancelled, 0u);
    EXPECT_EQ(FaultInjector::instance().injectedAt("worker.crash"), 2u);
    // Both crashed leases were detected as worker death and re-sent;
    // the jobs' retry budgets were never charged for them.
    EXPECT_GE(stats.leasesRevoked, 2u);
    EXPECT_GE(stats.redispatches, 2u);
    EXPECT_EQ(stats.retries, 0u);
}

TEST(WorkerTier, StalledWorkerLeaseExpiresAndRecovers)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs =
        workerPrograms(dev, 4000);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("worker.stall@400:first=1"));

    StreamOptions options;
    options.windowMs = 50.0;
    options.worker.workers = 2;
    options.worker.leaseTimeoutMs = 50.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();

    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed, 0u);
    // The stalled worker kept heartbeating, so only the lease
    // deadline caught it.
    EXPECT_GE(stats.leasesExpired, 1u);
    EXPECT_GE(stats.redispatches + stats.localFallbacks, 1u);
    // Its late response is eventually delivered and discarded whole:
    // the dispatcher counts it stale once the stall ends.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (scheduler.stats().staleResponses == 0) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline)
            << "stale response never surfaced";
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
}

TEST(WorkerTier, AllDeadFleetFallsBackLocally)
{
    // Graceful degradation floor: both workers crash, the fleet is
    // empty, and every remaining job must execute locally with zero
    // failures.
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs =
        workerPrograms(dev, 5000);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("worker.crash:first=2"));

    StreamOptions options;
    options.windowMs = 5.0; // several windows
    options.worker.workers = 2;
    options.worker.heartbeatTimeoutMs = 50.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();

    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed + stats.expired, 0u);
    EXPECT_EQ(FaultInjector::instance().injectedAt("worker.crash"), 2u);
    EXPECT_GE(stats.localFallbacks, 1u);
    EXPECT_GE(stats.leasesRevoked, 2u);
}

// ------------------------------------------------- transport faults

TEST(WorkerTier, TransportFaultsOnBothEdgesRecover)
{
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs =
        workerPrograms(dev, 6000);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("transport.send:first=1;transport.recv:first=1"));

    StreamOptions options;
    options.windowMs = 5.0;
    options.worker.workers = 2;
    // The recv-lost response is only recoverable through the lease
    // deadline; keep it short so the test stays fast.
    options.worker.leaseTimeoutMs = 100.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();

    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed, 0u);
    // The send fault lost a lease before delivery (revoked); the recv
    // fault lost a response in flight (lease expired). Neither
    // charged any job's retry budget.
    EXPECT_GE(stats.leasesRevoked, 1u);
    EXPECT_GE(stats.leasesExpired, 1u);
    EXPECT_EQ(stats.retries, 0u);
    EXPECT_EQ(FaultInjector::instance().injectedAt("transport.send"), 1u);
    EXPECT_EQ(FaultInjector::instance().injectedAt("transport.recv"), 1u);
}

// ----------------------------------------- job faults on a worker

TEST(WorkerTier, WorkerSideJobFaultFailsOnlyItself)
{
    // A job failing ON the worker (a job-level fault inside its
    // execution, not a lost lease) routes through the same retry
    // machinery as a local failure, and charges only itself: the rule
    // matches the first job's 4096-shot global run on every attempt,
    // so it fails after its retries while its window partner (3072
    // shots) completes bitwise.
    const device::DeviceModel dev = device::toronto();
    std::vector<ServiceProgram> programs;
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 8192,
                          core::JigsawOptions{}, 7001);
    programs.emplace_back(workloads::Ghz(6).circuit(), dev, 6144,
                          core::JigsawOptions{}, 7002);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("executor.run@4096:first=4"));

    StreamOptions options;
    options.windowMs = 60000.0; // held open until drain()
    options.maxRetries = 3;
    options.worker.workers = 2;
    StreamingScheduler scheduler(options);
    const JobHandle failing = scheduler.submit(programs[0]).handle;
    const JobHandle partner = scheduler.submit(programs[1]).handle;
    scheduler.drain();

    EXPECT_THROW(scheduler.wait(failing), TransientError);
    EXPECT_EQ(scheduler.poll(failing)->attempts, 3u);
    expectBitwiseResult(sequential[1], scheduler.wait(partner));
    EXPECT_EQ(scheduler.poll(partner)->attempts, 0u);
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 1u);
    EXPECT_EQ(stats.failed, 1u);
    EXPECT_EQ(stats.retries, 3u);
    EXPECT_EQ(stats.mergedWindows, 1u);
    // Every attempt ran on the fleet: 4 for the failing job, 1 for
    // its partner.
    EXPECT_EQ(stats.leasesGranted, 5u);
    EXPECT_EQ(stats.localFallbacks, 0u);
    EXPECT_EQ(FaultInjector::instance().injectedAt("executor.run"), 4u);
}

// -------------------------------------------------- fault matrix

/**
 * CI fault-matrix entry point: when JIGSAW_FAULT_SPEC is set in the
 * environment, rerun the worker-tier bitwise contract under that
 * ambient spec. The sequential reference is computed with the
 * injector DISARMED (a reference run absorbing counted faults would
 * corrupt the comparison), then the env spec is re-armed for the
 * scheduler run. Skipped without the env var so the regular ctest
 * pass is unaffected.
 */
TEST(AmbientFaultMatrix, SurvivorsStayBitwiseUnderEnvSpec)
{
    const char *spec = std::getenv("JIGSAW_FAULT_SPEC");
    if (spec == nullptr || *spec == '\0')
        GTEST_SKIP() << "JIGSAW_FAULT_SPEC not set";

    FaultGuard guard;
    FaultInjector::instance().clear();
    const device::DeviceModel dev = device::toronto();
    const std::vector<ServiceProgram> programs =
        workerPrograms(dev, 8000);
    const std::vector<JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultInjector::instance().configure(parseFaultSpec(spec));
    StreamOptions options;
    options.windowMs = 10.0;
    options.worker.workers = 4;
    options.worker.leaseTimeoutMs = 250.0;
    options.worker.heartbeatTimeoutMs = 50.0;
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles;
    for (const ServiceProgram &program : programs)
        handles.push_back(scheduler.submit(program).handle);
    scheduler.drain();

    for (std::size_t i = 0; i < handles.size(); ++i)
        expectBitwiseResult(sequential[i], scheduler.wait(handles[i]));
    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, programs.size());
    EXPECT_EQ(stats.failed + stats.expired + stats.cancelled, 0u);
}

} // namespace
} // namespace jigsaw
