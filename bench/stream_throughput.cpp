/**
 * @file
 * Streaming-scheduler load generator: the 45-program duplicated-
 * circuit workload (5 circuits x 3 JigSaw schemes x 3 seeds) pushed
 * through the submit/poll scheduler twice — submit-and-run-
 * immediately (windowMs 0: every job dispatches on readiness) vs a
 * small merge window — under an open-loop burst or a closed-loop pool
 * of submitter threads. Both runs execute every job on the shared
 * per-device executor. Reports wall time, throughput, window
 * counters, and the
 * per-priority-class latency split (queue-wait vs execute, p50/p95),
 * and verifies the two runs' outputs match bitwise (both are defined
 * to equal sequential runJigsaw).
 *
 * Usage: bench_stream_throughput [--qubits N] [--dups N] [--trials N]
 *            [--window MS] [--submitters K] [--rate JOBS_PER_SEC]
 *            [--workers W] [--overload] [--quick] [--trace FILE]
 *            [--metrics-port P] [--serve-scrapes K]
 *
 *   --submitters 0 (default) is an open-loop burst: every job is
 *     submitted up front, then the scheduler drains. K >= 1 runs K
 *     closed-loop submitter threads, each submitting its next job
 *     only after its previous one completed.
 *   --rate R paces the open-loop burst at R jobs/second (0 = as fast
 *     as possible).
 *   --workers W adds a third run: the windowed configuration with
 *     jobs dispatched to a W-worker execution tier over the
 *     in-process transport (core/worker.h). Reports the lease
 *     counters and the per-worker completion split, and holds the
 *     worker-tier outputs to the same bitwise gate as the local runs.
 *   --overload replaces the immediate-vs-windowed comparison with an
 *     overload scenario: probe capacity, then offer ~2x that against
 *     a small admission bound and gate on High-class p95 staying
 *     within 1.5x its unloaded value while Low sheds with finite
 *     retry hints.
 *   --trace FILE attaches a TraceRecorder (obs/trace.h) to every
 *     comparison run and appends each run's per-job pipeline spans to
 *     FILE as JSON-lines (one object per span).
 *   --metrics-port P serves the process-wide Prometheus exposition on
 *     127.0.0.1:P for the lifetime of the bench (0 picks an ephemeral
 *     port; the bound port is printed). --serve-scrapes K keeps the
 *     process alive after the runs until K scrapes were answered (or
 *     a 60 s timeout) — the hook CI's live-scrape check uses.
 */
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/parallel.h"
#include "compiler/transpiler.h"
#include "core/scheduler.h"
#include "core/service.h"
#include "device/library.h"
#include "obs/exposition.h"
#include "obs/http.h"
#include "obs/trace.h"
#include "workloads/bv.h"
#include "workloads/ghz.h"
#include "workloads/qft.h"

namespace {

using namespace jigsaw;
using core::JigsawResult;
using core::JobHandle;
using core::Priority;
using core::ServiceProgram;
using core::StreamingScheduler;
using core::StreamOptions;

double
msSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The perf suite's duplicated-circuit workload (see
 *  bench_perf_reconstruction's service/cross_program_batching). */
std::vector<ServiceProgram>
duplicatedSuite(int n_qubits, int n_duplicates, std::uint64_t trials)
{
    const device::DeviceModel dev = device::toronto();
    const int w = n_qubits;
    core::JigsawOptions no_recomp;
    no_recomp.recompileCpms = false;
    const std::vector<core::JigsawOptions> schemes = {
        no_recomp, core::JigsawOptions{}, core::jigsawMOptions()};
    const auto make_circuit = [w](int c) -> circuit::QuantumCircuit {
        switch (c) {
          case 0:
            return workloads::Ghz(w).circuit();
          case 1:
            return workloads::BernsteinVazirani(w).circuit();
          case 2:
            return workloads::QftAdjoint(w - 2).circuit();
          case 3:
            return workloads::Ghz(w - 1).circuit();
          default:
            return workloads::BernsteinVazirani(w - 1).circuit();
        }
    };
    std::vector<ServiceProgram> programs;
    for (int dup = 0; dup < n_duplicates; ++dup) {
        for (int c = 0; c < 5; ++c) {
            for (std::size_t s = 0; s < schemes.size(); ++s) {
                programs.emplace_back(
                    make_circuit(c), dev, trials, schemes[s],
                    1000 + 31ULL * static_cast<std::uint64_t>(dup) +
                        7ULL * static_cast<std::uint64_t>(c) + s);
            }
        }
    }
    return programs;
}

struct LoadRun
{
    double wallMs = 0.0;
    std::vector<JigsawResult> results;
    core::StreamStats stats;
};

/** --trace plumbing: one fresh recorder per comparison run (job ids
 *  restart per scheduler, so sharing a recorder would interleave
 *  unrelated jobs under one id), all appended to one JSON-lines
 *  file. */
struct TraceFile
{
    std::ofstream out;
    std::size_t spans = 0;
    std::size_t jobs = 0;

    std::shared_ptr<obs::TraceRecorder>
    attach(StreamOptions &options)
    {
        if (!out.is_open())
            return nullptr;
        auto recorder = std::make_shared<obs::TraceRecorder>();
        options.trace = recorder;
        return recorder;
    }

    void
    flush(const std::shared_ptr<obs::TraceRecorder> &recorder)
    {
        if (!recorder)
            return;
        out << recorder->toJsonLines();
        spans += recorder->totalSpans();
        jobs += recorder->jobIds().size();
    }
};

/** Push @p programs through one scheduler configuration. */
LoadRun
runLoad(const StreamOptions &options,
        const std::vector<ServiceProgram> &programs,
        std::size_t submitters, double rate_per_sec)
{
    StreamingScheduler scheduler(options);
    std::vector<JobHandle> handles(programs.size());
    const auto priorityOf = [](std::size_t i) {
        return static_cast<Priority>(i % core::kPriorityClasses);
    };
    const auto start = std::chrono::steady_clock::now();
    if (submitters == 0) {
        // Open loop: burst (or paced) submission from one thread.
        for (std::size_t i = 0; i < programs.size(); ++i) {
            handles[i] =
                scheduler.submit(programs[i], priorityOf(i)).handle;
            if (rate_per_sec > 0.0) {
                std::this_thread::sleep_for(
                    std::chrono::duration<double>(1.0 / rate_per_sec));
            }
        }
        scheduler.drain();
    } else {
        // Closed loop: each submitter keeps one job in flight.
        std::vector<std::thread> threads;
        for (std::size_t t = 0; t < submitters; ++t) {
            threads.emplace_back([&, t] {
                for (std::size_t i = t; i < programs.size();
                     i += submitters) {
                    handles[i] =
                        scheduler.submit(programs[i], priorityOf(i))
                            .handle;
                    scheduler.wait(handles[i]);
                }
            });
        }
        for (std::thread &thread : threads)
            thread.join();
        scheduler.drain();
    }
    LoadRun run;
    run.wallMs = msSince(start);
    run.results.reserve(programs.size());
    for (const JobHandle handle : handles)
        run.results.push_back(scheduler.wait(handle));
    run.stats = scheduler.stats();
    return run;
}

void
printWorkerCounters(const core::StreamStats &stats)
{
    std::cout << "    leases: " << stats.leasesGranted << " granted, "
              << stats.leasesExpired << " expired, "
              << stats.leasesRevoked << " revoked ("
              << stats.redispatches << " re-dispatches, "
              << stats.localFallbacks << " local fallbacks, "
              << stats.staleResponses << " stale responses)\n";
    std::cout << "    completed by worker:";
    for (std::size_t w = 0; w < stats.workerCompleted.size(); ++w)
        std::cout << (w == 0 ? " " : " / ") << stats.workerCompleted[w];
    if (stats.workerCompleted.empty())
        std::cout << " (none)";
    std::cout << "\n";
}

void
printClassTable(const core::StreamStats &stats)
{
    const char *names[core::kPriorityClasses] = {"high", "normal",
                                                 "low"};
    for (std::size_t c = 0; c < core::kPriorityClasses; ++c) {
        const Priority cls = static_cast<Priority>(c);
        std::cout << "    " << names[c] << ": latency p50 "
                  << stats.latencyPercentileMs(cls, 0.5) << " ms / p95 "
                  << stats.latencyPercentileMs(cls, 0.95)
                  << " ms (queue-wait p50 "
                  << stats.queueWaitPercentileMs(cls, 0.5)
                  << " ms, execute p50 "
                  << stats.executePercentileMs(cls, 0.5) << " ms)\n";
    }
}

/** Overload scenario: probe the windowed scheduler's capacity, take
 *  an unloaded High-class latency reference, then offer ~2x capacity
 *  against a small admission bound. The gate proves shed-vs-queue:
 *  High-class p95 must stay within 1.5x its unloaded value (plus one
 *  head-of-line worst-case service time when the machine has a single
 *  execution slot — non-preemptive execution makes that residual
 *  irreducible there) while the Low class sheds with finite, positive
 *  retry hints. */
int
runOverloadScenario(const std::vector<ServiceProgram> &programs,
                    double window_ms)
{
    // Phase A: capacity probe — an open-loop burst with no admission
    // bound. Its results double as the bitwise reference below.
    StreamOptions windowed;
    windowed.windowMs = window_ms;
    compiler::clearTranspileCache();
    const LoadRun probe = runLoad(windowed, programs, 0, 0.0);
    const double capacity_per_sec =
        1000.0 * static_cast<double>(programs.size()) / probe.wallMs;
    std::cout << "capacity:     " << capacity_per_sec
              << " programs/s (burst probe, " << probe.wallMs
              << " ms)\n";

    // Phase B: unloaded reference — one High job in flight at a time
    // through the same windowed configuration. The p100 doubles as
    // the worst-case service time for the single-slot budget below.
    double high_unloaded_p95 = 0.0;
    double high_unloaded_p100 = 0.0;
    {
        compiler::clearTranspileCache();
        StreamingScheduler scheduler(windowed);
        for (const ServiceProgram &program : programs) {
            scheduler.wait(
                scheduler.submit(program, Priority::High).handle);
        }
        high_unloaded_p95 =
            scheduler.stats().latencyPercentileMs(Priority::High, 0.95);
        high_unloaded_p100 =
            scheduler.stats().latencyPercentileMs(Priority::High, 1.0);
    }
    std::cout << "unloaded:     High p95 " << high_unloaded_p95
              << " ms, p100 " << high_unloaded_p100
              << " ms (closed loop x1)\n";

    // Phase C: several passes over the suite paced at ~2x capacity,
    // mixed priorities, against a bound small enough that the backlog
    // pins at the shed thresholds (Low first, High last — the default
    // shedFractions ladder). Multiple passes give the High class
    // enough latency samples that its p95 is not a single worst
    // arrival.
    StreamOptions bounded = windowed;
    bounded.maxQueuedJobs = 4;
    // Strict-priority SLO configuration: aging would promote stale
    // Low jobs into the High class under sustained overload, putting
    // them ahead of fresh High submissions — exactly the latency
    // coupling this scenario must show the scheduler avoiding. The
    // Low class's recourse under overload is the shed/retry hint, not
    // aging.
    bounded.agingMs = 0.0;
    const double offered_per_sec = 2.0 * capacity_per_sec;
    const std::size_t passes = 4;
    compiler::clearTranspileCache();
    StreamingScheduler scheduler(bounded);
    std::vector<std::pair<std::size_t, JobHandle>> admitted;
    std::array<std::size_t, core::kPriorityClasses> shed{};
    double hint_min = std::numeric_limits<double>::infinity();
    double hint_max = 0.0;
    bool hints_ok = true;
    for (std::size_t j = 0; j < passes * programs.size(); ++j) {
        const std::size_t i = j % programs.size();
        const Priority cls =
            static_cast<Priority>(j % core::kPriorityClasses);
        const core::SubmitResult outcome =
            scheduler.submit(programs[i], cls);
        if (outcome.admitted) {
            admitted.emplace_back(i, outcome.handle);
        } else {
            ++shed[j % core::kPriorityClasses];
            hints_ok = hints_ok &&
                       std::isfinite(outcome.tryLaterAfterMs) &&
                       outcome.tryLaterAfterMs > 0.0;
            hint_min = std::min(hint_min, outcome.tryLaterAfterMs);
            hint_max = std::max(hint_max, outcome.tryLaterAfterMs);
        }
        std::this_thread::sleep_for(
            std::chrono::duration<double>(1.0 / offered_per_sec));
    }
    scheduler.drain();

    // Surviving jobs must still equal the unloaded reference bitwise:
    // overload changes WHETHER a job runs, never WHAT it computes.
    for (const auto &[index, handle] : admitted) {
        const JigsawResult result = scheduler.wait(handle);
        const double drift = totalVariationDistance(
            result.output, probe.results[index].output);
        if (drift != 0.0) {
            std::cerr << "ERROR: overload-surviving output diverged "
                         "from the unloaded reference on program "
                      << index << " (total variation " << drift
                      << ")\n";
            return 1;
        }
    }

    const core::StreamStats stats = scheduler.stats();
    const double high_loaded_p95 =
        stats.latencyPercentileMs(Priority::High, 0.95);
    const double ratio =
        high_unloaded_p95 > 0.0 ? high_loaded_p95 / high_unloaded_p95
                                : 0.0;
    // Budget: 1.5x the unloaded p95. Execution is non-preemptive, so
    // with a single execution slot a High arrival can never interrupt
    // the job in service and its tail irreducibly includes one
    // worst-case service time — a residual that overlaps away as soon
    // as a second slot exists. On single-slot machines the budget
    // therefore adds one unloaded p100 (the measured worst-case
    // service time) for that head-of-line wait.
    const bool single_slot = parallelThreads() <= 1;
    const double budget_ms =
        1.5 * high_unloaded_p95 +
        (single_slot ? high_unloaded_p100 : 0.0);
    std::cout << "overload:     offered " << offered_per_sec
              << " programs/s (~2x capacity), maxQueuedJobs "
              << bounded.maxQueuedJobs << ", " << admitted.size()
              << " admitted / " << stats.shed << " shed\n";
    printClassTable(stats);
    std::cout << "    shed by class: high " << shed[0] << ", normal "
              << shed[1] << ", low " << shed[2] << "\n";
    if (stats.shed > 0) {
        std::cout << "    retry hints: " << hint_min << " ms to "
                  << hint_max << " ms\n";
    }
    std::cout << "    High p95: " << high_loaded_p95
              << " ms loaded vs " << high_unloaded_p95
              << " ms unloaded (ratio " << ratio << ", budget "
              << budget_ms << " ms = 1.5x p95"
              << (single_slot ? " + head-of-line p100, single slot"
                              : "")
              << ")\n";

    const bool p95_ok = high_loaded_p95 <= budget_ms;
    const bool low_shed_ok = shed[2] > 0;
    if (!p95_ok) {
        std::cerr << "FAIL: High-class p95 exceeded its overload "
                     "budget\n";
    }
    if (!low_shed_ok)
        std::cerr << "FAIL: overload never shed a Low-class job\n";
    if (!hints_ok) {
        std::cerr << "FAIL: a shed submission carried a non-finite or "
                     "non-positive retry hint\n";
    }
    std::cout << "overload gate: "
              << (p95_ok && low_shed_ok && hints_ok ? "PASS" : "FAIL")
              << "\n";
    std::cout << "outputs match: yes (bitwise, surviving jobs)\n";
    return p95_ok && low_shed_ok && hints_ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    int n_qubits = 12;
    int n_duplicates = 3;
    std::uint64_t trials = 4096;
    double window_ms = 10.0;
    std::size_t submitters = 0;
    double rate = 0.0;
    std::size_t workers = 0;
    bool overload = false;
    std::string trace_path;
    int metrics_port = -1;
    int serve_scrapes = 0;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--qubits") && i + 1 < argc) {
            n_qubits = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--dups") && i + 1 < argc) {
            n_duplicates = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--trials") && i + 1 < argc) {
            trials = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--window") && i + 1 < argc) {
            window_ms = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--submitters") &&
                   i + 1 < argc) {
            submitters = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--rate") && i + 1 < argc) {
            rate = std::atof(argv[++i]);
        } else if (!std::strcmp(argv[i], "--workers") && i + 1 < argc) {
            workers = static_cast<std::size_t>(
                std::strtoull(argv[++i], nullptr, 10));
        } else if (!std::strcmp(argv[i], "--overload")) {
            overload = true;
        } else if (!std::strcmp(argv[i], "--quick")) {
            n_qubits = 8;
            n_duplicates = 2;
            trials = 2048;
        } else if (!std::strcmp(argv[i], "--trace") && i + 1 < argc) {
            trace_path = argv[++i];
        } else if (!std::strcmp(argv[i], "--metrics-port") &&
                   i + 1 < argc) {
            metrics_port = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--serve-scrapes") &&
                   i + 1 < argc) {
            serve_scrapes = std::atoi(argv[++i]);
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--qubits N] [--dups N] [--trials N]"
                         " [--window MS] [--submitters K]"
                         " [--rate JOBS_PER_SEC] [--workers W]"
                         " [--overload] [--quick] [--trace FILE]"
                         " [--metrics-port P] [--serve-scrapes K]\n";
            return 2;
        }
    }
    if (n_qubits < 6 || n_qubits > 20) {
        std::cerr << "qubit count must be in [6, 20]\n";
        return 2;
    }

    // The endpoint serves the PROCESS-wide registry, so it reports
    // across every scheduler the bench constructs — exactly what a
    // scrape of a long-running server would see.
    std::unique_ptr<obs::MetricsHttpServer> metrics_server;
    if (metrics_port >= 0) {
        metrics_server = std::make_unique<obs::MetricsHttpServer>(
            metrics_port, [] { return obs::renderProcessMetrics(); });
        std::cout << "metrics:      http://127.0.0.1:"
                  << metrics_server->port() << "/metrics\n"
                  << std::flush;
    }
    const auto awaitScrapes = [&] {
        if (!metrics_server || serve_scrapes <= 0)
            return;
        std::cout << "metrics:      serving until " << serve_scrapes
                  << " scrape(s) answered (60 s timeout)\n"
                  << std::flush;
        const auto deadline = std::chrono::steady_clock::now() +
                              std::chrono::seconds(60);
        while (metrics_server->scrapesServed() <
                   static_cast<std::uint64_t>(serve_scrapes) &&
               std::chrono::steady_clock::now() < deadline) {
            std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
        std::cout << "metrics:      " << metrics_server->scrapesServed()
                  << " scrape(s) served\n";
    };
    TraceFile trace;
    if (!trace_path.empty()) {
        trace.out.open(trace_path);
        if (!trace.out) {
            std::cerr << "cannot open trace file " << trace_path << "\n";
            return 2;
        }
    }

    const std::vector<ServiceProgram> programs =
        duplicatedSuite(n_qubits, n_duplicates, trials);
    std::cout << "programs:     " << programs.size() << " (" << n_qubits
              << "-qubit suite, " << trials << " trials each)\n";
    if (overload) {
        const int rc = runOverloadScenario(programs, window_ms);
        awaitScrapes();
        return rc;
    }
    std::cout << "load shape:   "
              << (submitters == 0 ? "open-loop burst" : "closed-loop")
              << (submitters > 0
                      ? " x" + std::to_string(submitters)
                      : (rate > 0.0
                             ? " @ " + std::to_string(rate) + " jobs/s"
                             : ""))
              << "\n";

    // Immediate dispatch: every job dispatches on readiness.
    StreamOptions immediate;
    immediate.windowMs = 0.0;
    const auto immediate_trace = trace.attach(immediate);
    compiler::clearTranspileCache();
    const LoadRun naive = runLoad(immediate, programs, submitters, rate);
    trace.flush(immediate_trace);
    std::cout << "immediate:    " << naive.wallMs << " ms ("
              << 1000.0 * static_cast<double>(programs.size()) /
                     naive.wallMs
              << " programs/s)\n";
    printClassTable(naive.stats);

    // Windowed: compatible jobs wait in merge windows first.
    StreamOptions windowed;
    windowed.windowMs = window_ms;
    const auto windowed_trace = trace.attach(windowed);
    compiler::clearTranspileCache();
    const LoadRun merged =
        runLoad(windowed, programs, submitters, rate);
    trace.flush(windowed_trace);
    std::cout << "windowed:     " << merged.wallMs << " ms ("
              << 1000.0 * static_cast<double>(programs.size()) /
                     merged.wallMs
              << " programs/s, window " << window_ms << " ms)\n";
    printClassTable(merged.stats);
    std::cout << "window counters: " << merged.stats.mergedWindows
              << " merged windows, " << merged.stats.mergedJobs
              << " merged jobs\n";
    std::cout << "speedup:      " << naive.wallMs / merged.wallMs
              << "x (windowed over immediate)\n";

    // Both paths are defined to reproduce sequential runJigsaw
    // bitwise, so they must agree with each other exactly.
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const double drift = totalVariationDistance(
            naive.results[i].output, merged.results[i].output);
        if (drift != 0.0) {
            std::cerr << "ERROR: windowed output diverged from "
                         "immediate dispatch on program "
                      << i << " (total variation " << drift << ")\n";
            return 1;
        }
    }
    std::cout << "outputs match: yes (bitwise)\n";

    if (workers > 0) {
        // Worker tier: the same windowed configuration, but every
        // job travels the transport seam to a worker fleet that binds
        // its own executors. Results are defined to stay
        // bitwise-identical to local execution.
        StreamOptions tiered = windowed;
        tiered.worker.workers = workers;
        const auto tiered_trace = trace.attach(tiered);
        compiler::clearTranspileCache();
        const LoadRun fleet =
            runLoad(tiered, programs, submitters, rate);
        trace.flush(tiered_trace);
        std::cout << "worker tier:  " << fleet.wallMs << " ms ("
                  << 1000.0 * static_cast<double>(programs.size()) /
                         fleet.wallMs
                  << " programs/s, " << workers << " workers)\n";
        printClassTable(fleet.stats);
        printWorkerCounters(fleet.stats);
        for (std::size_t i = 0; i < programs.size(); ++i) {
            const double drift = totalVariationDistance(
                naive.results[i].output, fleet.results[i].output);
            if (drift != 0.0) {
                std::cerr << "ERROR: worker-tier output diverged from "
                             "immediate dispatch on program "
                          << i << " (total variation " << drift
                          << ")\n";
                return 1;
            }
        }
        std::cout << "outputs match: yes (bitwise, worker tier)\n";
    }
    if (trace.out.is_open()) {
        std::cout << "trace:        " << trace.spans << " spans across "
                  << trace.jobs << " jobs -> " << trace_path << "\n";
    }
    awaitScrapes();
    return 0;
}
