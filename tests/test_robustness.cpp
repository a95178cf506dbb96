/**
 * @file
 * Robustness and edge-case tests across module boundaries: degenerate
 * JigSaw configurations, extreme calibrations, alternative device
 * families, router parameter extremes, QASM round-trips of the whole
 * benchmark registry, and the deterministic fault-injection machinery
 * (spec grammar, counted/probabilistic rules, error taxonomy).
 */
#include <algorithm>
#include <chrono>
#include <exception>
#include <stdexcept>
#include <string>
#include <thread>

#include <gtest/gtest.h>

#include "circuit/qasm.h"
#include "common/error.h"
#include "common/fault.h"
#include "compiler/sabre.h"
#include "core/jigsaw.h"
#include "core/scheduler.h"
#include "core/service.h"
#include "device/library.h"
#include "metrics/metrics.h"
#include "mitigation/characterize.h"
#include "sim/simulators.h"
#include "workloads/registry.h"

namespace jigsaw {
namespace {

using circuit::QuantumCircuit;
using device::DeviceModel;

/** Disarms the process-wide fault injector however the test exits. */
struct FaultGuard
{
    ~FaultGuard() { FaultInjector::instance().clear(); }
};

TEST(FaultInjection, ParsesSpecGrammar)
{
    const std::vector<FaultRule> rules = parseFaultSpec(
        "executor.run:first=2;executor.run@2:prob=0.25:seed=7:terminal;"
        "stage.plan");
    ASSERT_EQ(rules.size(), 3u);
    EXPECT_EQ(rules[0].site, "executor.run");
    EXPECT_TRUE(rules[0].detail.empty());
    EXPECT_EQ(rules[0].failFirst, 2u);
    EXPECT_EQ(rules[0].probability, 0.0);
    EXPECT_TRUE(rules[0].transient);
    EXPECT_EQ(rules[1].site, "executor.run");
    EXPECT_EQ(rules[1].detail, "2");
    EXPECT_DOUBLE_EQ(rules[1].probability, 0.25);
    EXPECT_EQ(rules[1].seed, 7u);
    EXPECT_FALSE(rules[1].transient);
    EXPECT_EQ(rules[2].site, "stage.plan");
    EXPECT_EQ(rules[2].failFirst, 0u);

    // Empty rules are skipped, not errors (trailing ';' is fine).
    EXPECT_TRUE(parseFaultSpec("").empty());
    EXPECT_TRUE(parseFaultSpec(";;").empty());

    // Malformed specs are rejected loudly.
    EXPECT_THROW(parseFaultSpec(":first=1"), std::invalid_argument);
    EXPECT_THROW(parseFaultSpec("x:bogus=1"), std::invalid_argument);
    EXPECT_THROW(parseFaultSpec("x:first=abc"), std::invalid_argument);
    EXPECT_THROW(parseFaultSpec("x:first="), std::invalid_argument);
    EXPECT_THROW(parseFaultSpec("x:prob=1.5"), std::invalid_argument);
}

TEST(FaultInjection, CountedRulesFireExactlyAndReset)
{
    FaultGuard guard;
    FaultInjector &injector = FaultInjector::instance();
    injector.configure(parseFaultSpec("executor.run:first=3"));
    EXPECT_TRUE(injector.armed());
    std::size_t thrown = 0;
    for (int i = 0; i < 10; ++i) {
        try {
            injectFaultPoint("executor.run");
        } catch (const TransientError &) {
            ++thrown;
        }
    }
    EXPECT_EQ(thrown, 3u);
    EXPECT_EQ(injector.injected(), 3u);
    EXPECT_EQ(injector.injectedAt("executor.run"), 3u);
    EXPECT_EQ(injector.injectedAt("executor.runBatch"), 0u);

    injector.clear();
    EXPECT_FALSE(injector.armed());
    EXPECT_EQ(injector.injected(), 0u);
    EXPECT_NO_THROW(injectFaultPoint("executor.run"));
}

TEST(FaultInjection, DetailMatchingAndTerminalType)
{
    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("executor.run@2:first=2:terminal"));
    // Wrong or missing detail, or the right detail at another site,
    // never matches a detailed rule.
    EXPECT_NO_THROW(injectFaultPoint("executor.run", "3"));
    EXPECT_NO_THROW(injectFaultPoint("executor.run"));
    EXPECT_NO_THROW(injectFaultPoint("executor.runBatch", "2"));
    // A terminal rule throws plain std::runtime_error, never the
    // retryable TransientError subtype.
    bool threw_terminal = false;
    try {
        injectFaultPoint("executor.run", std::uint64_t{2});
    } catch (const TransientError &) {
        FAIL() << "terminal rule threw TransientError";
    } catch (const std::runtime_error &) {
        threw_terminal = true;
    }
    EXPECT_TRUE(threw_terminal);
}

TEST(FaultInjection, IsTransientClassifiesErrors)
{
    EXPECT_TRUE(
        isTransient(std::make_exception_ptr(TransientError("flaky"))));
    EXPECT_FALSE(isTransient(
        std::make_exception_ptr(std::runtime_error("terminal"))));
    EXPECT_FALSE(isTransient(
        std::make_exception_ptr(DeadlineExceededError("late"))));
    EXPECT_FALSE(isTransient(
        std::make_exception_ptr(std::invalid_argument("bad"))));
}

TEST(FaultInjection, InjectedFaultFailsRunJigsawUntilCleared)
{
    FaultGuard guard;
    const auto ghz = workloads::makeWorkload("GHZ-5");
    const DeviceModel dev = device::toronto();
    sim::NoisySimulator executor(dev, {.seed = 93});
    FaultInjector::instance().configure(
        parseFaultSpec("stage.plan:first=1:terminal"));
    EXPECT_THROW(core::runJigsaw(ghz->circuit(), dev, executor, 2048),
                 std::runtime_error);
    FaultInjector::instance().clear();
    EXPECT_NO_THROW(core::runJigsaw(ghz->circuit(), dev, executor, 2048));
}

TEST(FaultInjection, RejectsUnknownSitesNamingTheKnownOnes)
{
    // A typo in JIGSAW_FAULT_SPEC must fail spec parsing loudly, not
    // silently arm a rule that can never fire.
    EXPECT_THROW(parseFaultSpec("stage.compiel:first=1"),
                 std::invalid_argument);
    try {
        parseFaultSpec("worker.crsh:first=2");
        FAIL() << "unknown site accepted";
    } catch (const std::invalid_argument &error) {
        const std::string message = error.what();
        EXPECT_NE(message.find("worker.crsh"), std::string::npos)
            << message;
        EXPECT_NE(message.find("known sites"), std::string::npos)
            << message;
        EXPECT_NE(message.find("worker.crash"), std::string::npos)
            << message;
    }
}

TEST(FaultInjection, KnownSitesCoverEveryInstrumentedPoint)
{
    const std::vector<std::string> &sites =
        FaultInjector::knownSites();
    for (const char *site :
         {"stage.plan", "stage.compile", "stage.reconstruct",
          "executor.run", "executor.runBatch", "transport.send",
          "transport.recv", "worker.crash", "worker.stall"}) {
        EXPECT_NE(std::find(sites.begin(), sites.end(), site),
                  sites.end())
            << site << " missing from knownSites()";
    }
    // Every advertised site round-trips through the spec parser.
    for (const std::string &site : sites)
        EXPECT_NO_THROW(parseFaultSpec(site + ":first=1"));
}

TEST(Robustness, FaultingJobChargesOnlyItsOwnRetries)
{
    // Two jobs of one program share a merge window and the shared
    // executor, but each executes on its own: a fault in one job's
    // execution is retried against that job's budget alone. The rule
    // matches the first job's 4096-shot global run (its detail is the
    // shot count), twice; the second job's global draws 3072 shots.
    // Attempts must be exactly 2 and 0, and both results bitwise.
    const DeviceModel dev = device::toronto();
    const auto ghz = workloads::makeWorkload("GHZ-6");
    std::vector<core::ServiceProgram> programs;
    programs.emplace_back(ghz->circuit(), dev, 8192,
                          core::JigsawOptions{}, 9101);
    programs.emplace_back(ghz->circuit(), dev, 6144,
                          core::JigsawOptions{}, 9102);
    const std::vector<core::JigsawResult> sequential =
        core::runProgramsSequentially(programs);

    FaultGuard guard;
    FaultInjector::instance().configure(
        parseFaultSpec("executor.run@4096:first=2"));

    core::StreamOptions options;
    options.windowMs = 60000.0; // held open until both jobs joined
    core::StreamingScheduler scheduler(options);
    const core::JobHandle first = scheduler.submit(programs[0]).handle;
    const core::JobHandle second = scheduler.submit(programs[1]).handle;
    for (const core::JobHandle handle : {first, second}) {
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(60);
        for (;;) {
            const auto status = scheduler.poll(handle);
            ASSERT_TRUE(status.has_value());
            if (status->state == core::JobState::Windowed)
                break;
            ASSERT_LT(std::chrono::steady_clock::now(), deadline);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    scheduler.drain();

    const core::JigsawResult first_result = scheduler.wait(first);
    const core::JigsawResult second_result = scheduler.wait(second);
    EXPECT_EQ(first_result.output.support(),
              sequential[0].output.support());
    EXPECT_EQ(second_result.output.support(),
              sequential[1].output.support());
    for (const auto &[outcome, p] : sequential[0].output.probabilities())
        EXPECT_EQ(p, first_result.output.prob(outcome));
    for (const auto &[outcome, p] : sequential[1].output.probabilities())
        EXPECT_EQ(p, second_result.output.prob(outcome));

    const core::StreamStats stats = scheduler.stats();
    EXPECT_EQ(stats.completed, 2u);
    EXPECT_EQ(stats.failed, 0u);
    EXPECT_EQ(stats.mergedWindows, 1u);
    EXPECT_EQ(stats.retries, 2u);
    EXPECT_EQ(FaultInjector::instance().injectedAt("executor.run"), 2u);
    const auto first_status = scheduler.poll(first);
    const auto second_status = scheduler.poll(second);
    ASSERT_TRUE(first_status.has_value());
    ASSERT_TRUE(second_status.has_value());
    EXPECT_EQ(first_status->attempts, 2u);
    EXPECT_EQ(second_status->attempts, 0u);
}

TEST(Robustness, ShedHintSeedsFromFirstObservedLatency)
{
    // Cold-start drain estimate: before any completion interval
    // exists, the first completed job's execute latency seeds the
    // EWMA behind tryLaterAfterMs. With a pathological 60-second
    // merge window, the old windowMs fallback would tell a shed
    // caller to come back in a minute; the seeded estimate stays in
    // the (millisecond-scale) region of an actual execution.
    const DeviceModel dev = device::toronto();
    const auto ghz = workloads::makeWorkload("GHZ-6");
    const auto program = [&](std::uint64_t seed) {
        return core::ServiceProgram(ghz->circuit(), dev, 4096,
                                    core::JigsawOptions{}, seed);
    };

    core::StreamOptions options;
    options.windowMs = 60000.0;
    options.maxQueuedJobs = 4; // Normal sheds at 4, Low at 3
    core::StreamingScheduler scheduler(options);

    // High priority closes its window immediately, so this job
    // completes despite the huge windowMs and seeds the estimate.
    scheduler.wait(
        scheduler.submit(program(9301), core::Priority::High).handle);

    // Three Normal jobs park in the (still far-off) merge window...
    std::vector<core::JobHandle> parked;
    for (std::uint64_t seed = 9302; seed <= 9304; ++seed)
        parked.push_back(scheduler.submit(program(seed)).handle);
    // ...which puts the backlog at the Low shed threshold.
    const core::SubmitResult shed =
        scheduler.submit(program(9305), core::Priority::Low);
    EXPECT_FALSE(shed.admitted);
    EXPECT_GT(shed.tryLaterAfterMs, 0.0);
    EXPECT_LT(shed.tryLaterAfterMs, 60000.0)
        << "hint fell back to windowMs despite an observed completion";

    for (const core::JobHandle handle : parked)
        EXPECT_TRUE(scheduler.cancel(handle));
}

TEST(Robustness, FullSizeSubsetDegeneratesToGlobalDuplicate)
{
    // A CPM that measures every qubit is legal: the marginal covers
    // all bits, and reconstruction still returns a valid PMF.
    const auto ghz = workloads::makeWorkload("GHZ-5");
    const DeviceModel dev = device::toronto();
    sim::NoisySimulator executor(dev, {.seed = 91});

    core::JigsawOptions options;
    options.subsetSizes = {5};
    const core::JigsawResult run =
        core::runJigsaw(ghz->circuit(), dev, executor, 4096, options);
    ASSERT_EQ(run.cpms.size(), 1u); // one unique full window
    EXPECT_EQ(run.cpms[0].subset.size(), 5u);
    EXPECT_NEAR(run.output.totalMass(), 1.0, 1e-9);
    EXPECT_GT(metrics::pst(run.output, *ghz), 0.2);
}

TEST(Robustness, OddTrialCountsAccounted)
{
    const auto ghz = workloads::makeWorkload("GHZ-5");
    const DeviceModel dev = device::toronto();
    sim::NoisySimulator executor(dev, {.seed = 92});
    const core::JigsawResult run =
        core::runJigsaw(ghz->circuit(), dev, executor, 12345);
    EXPECT_EQ(run.globalTrials, 6172u); // floor(12345 * 0.5)
    EXPECT_LE(run.globalTrials + run.subsetTrials, 12345u);
}

TEST(Robustness, ExtremeReadoutStillValid)
{
    // A device with near-maximal readout error must not break the
    // pipeline; outputs stay normalized even if useless.
    device::Topology topo = device::linearTopology(4);
    device::Calibration cal(4, 3);
    for (int q = 0; q < 4; ++q) {
        cal.qubit(q).readoutError01 = 0.45;
        cal.qubit(q).readoutError10 = 0.49;
        cal.qubit(q).crosstalkGamma = 0.05; // clamps at 0.5
    }
    const DeviceModel dev("awful", std::move(topo), std::move(cal));
    sim::NoisySimulator executor(dev, {.seed = 93});

    const auto ghz = workloads::makeWorkload("GHZ-4");
    const core::JigsawResult run =
        core::runJigsaw(ghz->circuit(), dev, executor, 4096);
    EXPECT_NEAR(run.output.totalMass(), 1.0, 1e-9);
    for (const auto &[outcome, p] : run.output.probabilities())
        EXPECT_GE(p, 0.0);
}

TEST(Robustness, PerfectDeviceIsNoOp)
{
    // All-zero calibration: JigSaw must not corrupt a clean result.
    device::Topology topo = device::linearTopology(5);
    device::Calibration cal(5, 4);
    const DeviceModel dev("perfect", std::move(topo), std::move(cal));
    sim::NoisySimulator executor(dev, {.seed = 94});

    const auto ghz = workloads::makeWorkload("GHZ-5");
    const core::JigsawResult run =
        core::runJigsaw(ghz->circuit(), dev, executor, 8192);
    EXPECT_GT(metrics::pst(run.output, *ghz), 0.99);
}

TEST(Robustness, SycamoreGridDevicePipeline)
{
    // The grid-topology Sycamore model exercises different routing
    // patterns than heavy-hex; the full pipeline must still win.
    const DeviceModel dev = device::sycamore();
    sim::NoisySimulator executor(dev, {.seed = 95});
    const auto ghz = workloads::makeWorkload("GHZ-10");

    const Pmf baseline =
        core::runBaseline(ghz->circuit(), dev, executor, 16384);
    const core::JigsawResult js =
        core::runJigsaw(ghz->circuit(), dev, executor, 16384);
    EXPECT_GT(metrics::pst(js.output, *ghz),
              metrics::pst(baseline, *ghz));
}

TEST(Robustness, SabreExtremeParameters)
{
    // Zero lookahead and zero decay must still route correctly.
    const device::Topology topo = device::linearTopology(6);
    QuantumCircuit qc(6, 6);
    qc.cx(0, 5).cx(5, 0).cx(2, 4).measureAll();
    std::vector<int> identity{0, 1, 2, 3, 4, 5};
    compiler::SabreOptions options;
    options.lookaheadDepth = 0;
    options.decayStep = 0.0;
    const compiler::RoutedCircuit routed = compiler::sabreRoute(
        qc, topo, compiler::Layout(identity, 6), options);
    for (const circuit::Gate &g : routed.physical.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(topo.areCoupled(g.qubits[0], g.qubits[1]));
        }
    }
    sim::IdealSimulator ideal;
    EXPECT_LT(totalVariationDistance(ideal.idealPmf(qc),
                                     ideal.idealPmf(routed.physical)),
              1e-9);
}

TEST(Robustness, CharacterizeCpmSubset)
{
    // Characterization works for a CPM's 2-qubit measurement set.
    const DeviceModel dev = device::toronto();
    sim::NoisySimulator executor(dev, {.seed = 96});
    const auto ghz = workloads::makeWorkload("GHZ-6");
    const core::JigsawResult run =
        core::runJigsaw(ghz->circuit(), dev, executor, 8192);
    const auto confusion = mitigation::characterizeReadout(
        run.cpms.front().compiled.physical, executor, 20000);
    ASSERT_EQ(confusion.flip0.size(), 2u);
    for (double f : confusion.flip0) {
        EXPECT_GT(f, 0.0);
        EXPECT_LT(f, 0.2);
    }
}

TEST(Robustness, LargeProgramOnManhattan)
{
    // GHZ-20 on the 65-qubit model: routing spills onto extra
    // physical qubits, and the compacted state vector must stay
    // within the simulator's limit while JigSaw still helps.
    const DeviceModel dev = device::manhattan();
    sim::NoisySimulator executor(dev, {.seed = 97});
    const auto ghz = workloads::makeWorkload("GHZ-20");

    const Pmf baseline =
        core::runBaseline(ghz->circuit(), dev, executor, 8192);
    const core::JigsawResult js =
        core::runJigsaw(ghz->circuit(), dev, executor, 8192);
    EXPECT_GT(metrics::pst(js.output, *ghz),
              metrics::pst(baseline, *ghz));
    EXPECT_NEAR(js.output.totalMass(), 1.0, 1e-9);
}

TEST(Robustness, CorrelatedErrorFloorLimitsBaselineNotJigsaw)
{
    // The correlated-pair flips create the error floor that makes
    // trials saturate (Fig 7); reconstruction should claw back part
    // of it. Compare devices differing only in that knob.
    device::Topology topo = device::linearTopology(6);
    device::Calibration clean_cal(6, 5);
    for (int q = 0; q < 6; ++q) {
        clean_cal.qubit(q).readoutError01 = 0.02;
        clean_cal.qubit(q).readoutError10 = 0.03;
    }
    device::Calibration corr_cal = clean_cal;
    corr_cal.setCorrelatedPairError(0.02);

    const DeviceModel clean("clean", topo, std::move(clean_cal));
    const DeviceModel correlated("corr", topo, std::move(corr_cal));
    const auto ghz = workloads::makeWorkload("GHZ-6");

    sim::NoisySimulator clean_exec(clean, {.seed = 98});
    sim::NoisySimulator corr_exec(correlated, {.seed = 98});
    const Pmf base_clean =
        core::runBaseline(ghz->circuit(), clean, clean_exec, 32768);
    const Pmf base_corr =
        core::runBaseline(ghz->circuit(), correlated, corr_exec, 32768);
    // The correlated floor costs baseline PST.
    EXPECT_LT(metrics::pst(base_corr, *ghz),
              metrics::pst(base_clean, *ghz));

    const core::JigsawResult js_corr =
        core::runJigsaw(ghz->circuit(), correlated, corr_exec, 32768);
    EXPECT_GT(metrics::pst(js_corr.output, *ghz),
              metrics::pst(base_corr, *ghz));
}

/** Property: every registry benchmark round-trips through QASM with
 *  identical output distributions. */
class QasmRegistryRoundTrip
    : public ::testing::TestWithParam<const char *>
{
};

TEST_P(QasmRegistryRoundTrip, DistributionPreserved)
{
    const auto workload = workloads::makeWorkload(GetParam());
    const QuantumCircuit &original = workload->circuit();
    const QuantumCircuit parsed =
        circuit::fromQasm(circuit::toQasm(original));

    sim::IdealSimulator ideal;
    EXPECT_LT(totalVariationDistance(ideal.idealPmf(original),
                                     ideal.idealPmf(parsed)),
              1e-9);
    EXPECT_EQ(parsed.countTwoQubitGates(),
              original.countTwoQubitGates());
}

INSTANTIATE_TEST_SUITE_P(Registry, QasmRegistryRoundTrip,
                         ::testing::Values("BV-5", "GHZ-6",
                                           "Graycode-8", "Ising-4",
                                           "QAOA-6 p2", "QFTAdj-5",
                                           "W-5"));

/** Property: every registry benchmark's circuit has terminal
 *  measurements and a normalized ideal PMF. */
class WorkloadWellFormed : public ::testing::TestWithParam<const char *>
{
};

TEST_P(WorkloadWellFormed, TerminalMeasuresAndNormalizedIdeal)
{
    const auto workload = workloads::makeWorkload(GetParam());
    EXPECT_NO_THROW(
        sim::checkTerminalMeasurements(workload->circuit()));
    EXPECT_NEAR(workload->idealPmf().totalMass(), 1.0, 1e-9);
    EXPECT_GT(metrics::pst(workload->idealPmf(), *workload), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Registry, WorkloadWellFormed,
                         ::testing::Values("BV-5", "GHZ-6",
                                           "Graycode-8", "Ising-4",
                                           "QAOA-6 p2", "QFTAdj-5",
                                           "W-5"));

} // namespace
} // namespace jigsaw
