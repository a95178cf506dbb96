/**
 * @file
 * Iterative-VQA serving bench: compile-once/re-bind vs cold compile.
 *
 * A variational client iterates one ansatz skeleton with fresh
 * rotation angles per step. The cold path pays the full pipeline each
 * iteration — placement + SABRE + EPS selection, then evolution from
 * scratch (transpile memo cleared, fresh executor, exactly what a
 * serving stack without parametric support does). The parametric path
 * compiles once (JigsawService::compileParametric) and per iteration
 * only re-binds angles into the cached routing and re-applies the
 * diagonal tail on top of the executor's cached split-prefix state
 * (submitIteration). Outputs must be bitwise identical per binding;
 * the report prints per-iteration latency and the cache hit rates.
 *
 * Usage: bench_parametric_vqa [--qubits N] [--iterations K] [--trials T]
 */
#include <chrono>
#include <cstring>
#include <iostream>
#include <vector>

#include "compiler/transpiler.h"
#include "core/jigsaw.h"
#include "core/service.h"
#include "device/library.h"
#include "obs/exposition.h"
#include "sim/simulators.h"

namespace {

using namespace jigsaw;
using circuit::QuantumCircuit;

double
msSince(const std::chrono::steady_clock::time_point &start)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** Ising/QAOA-cost ansatz: H layer, then an RZZ chain + RZ layer —
 *  every parametric gate diagonal, the split-prefix cache's shape. */
QuantumCircuit
isingAnsatz(int n, const std::vector<double> &angles)
{
    QuantumCircuit qc(n);
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

/** The optimizer's angle proposal for one iteration (synthetic). */
std::vector<double>
iterationAngles(int n, int iteration)
{
    std::vector<double> angles;
    angles.reserve(static_cast<std::size_t>(2 * n - 1));
    for (int i = 0; i < 2 * n - 1; ++i) {
        angles.push_back(0.1 * static_cast<double>(iteration + 1) +
                         0.03 * static_cast<double>(i));
    }
    return angles;
}

/** Exact (bitwise) PMF equality. */
bool
pmfsIdentical(const Pmf &a, const Pmf &b)
{
    if (a.nQubits() != b.nQubits() || a.support() != b.support())
        return false;
    for (const auto &[outcome, p] : a.probabilities()) {
        if (p != b.prob(outcome))
            return false;
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    int n_qubits = 10;
    int iterations = 8;
    std::uint64_t trials = 1024;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--qubits") && i + 1 < argc) {
            n_qubits = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--iterations") && i + 1 < argc) {
            iterations = std::atoi(argv[++i]);
        } else if (!std::strcmp(argv[i], "--trials") && i + 1 < argc) {
            trials = static_cast<std::uint64_t>(std::atoll(argv[++i]));
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--qubits N] [--iterations K] [--trials T]\n";
            return 2;
        }
    }
    if (n_qubits < 4 || n_qubits > 20 || iterations < 2) {
        std::cerr << "qubit count must be in [4, 20], iterations >= 2\n";
        return 2;
    }

    const device::DeviceModel dev = device::toronto();
    std::cerr << "parametric VQA serving: " << n_qubits
              << "-qubit Ising ansatz, " << iterations
              << " iterations, " << trials << " trials, "
              << dev.name() << "\n";

    // --- Cold path: full pipeline per iteration -------------------
    std::vector<Pmf> cold_outputs;
    std::vector<double> cold_ms;
    for (int it = 0; it < iterations; ++it) {
        compiler::clearTranspileCache();
        sim::NoisySimulator executor(dev, {.seed = 1234});
        const auto start = std::chrono::steady_clock::now();
        cold_outputs.push_back(
            core::runJigsaw(isingAnsatz(n_qubits,
                                        iterationAngles(n_qubits, it)),
                            dev, executor, trials)
                .output);
        cold_ms.push_back(msSince(start));
    }

    // --- Parametric path: compile once, re-bind per iteration ------
    compiler::clearTranspileCache();
    const std::uint64_t hits0 = compiler::transpileCacheHits();
    const std::uint64_t misses0 = compiler::transpileCacheMisses();

    core::ServiceOptions options;
    options.stream.windowMs = 0.0; // latency benchmark: no merge wait
    core::JigsawService service(options);

    const auto compile_start = std::chrono::steady_clock::now();
    const core::ParametricHandle handle = service.compileParametric(
        core::ServiceProgram(
            isingAnsatz(n_qubits, iterationAngles(n_qubits, 0)), dev,
            trials));
    const double compile_ms = msSince(compile_start);

    const obs::ProcessCounters iter_counters0 =
        obs::ProcessCounters::snapshot();

    std::vector<Pmf> warm_outputs;
    std::vector<double> warm_ms;
    for (int it = 0; it < iterations; ++it) {
        const auto start = std::chrono::steady_clock::now();
        const core::SubmitResult submitted = service.submitIteration(
            handle, iterationAngles(n_qubits, it));
        if (!submitted.admitted) {
            std::cerr << "ERROR: iteration " << it << " was shed\n";
            return 1;
        }
        warm_outputs.push_back(service.wait(submitted.handle).output);
        warm_ms.push_back(msSince(start));
    }

    // --- Identity and cache accounting ----------------------------
    for (int it = 0; it < iterations; ++it) {
        if (!pmfsIdentical(cold_outputs[static_cast<std::size_t>(it)],
                           warm_outputs[static_cast<std::size_t>(it)])) {
            std::cerr << "ERROR: iteration " << it
                      << " diverged from its cold-compile run\n";
            return 1;
        }
    }

    const obs::ProcessCounters iter_counters =
        obs::ProcessCounters::snapshot().since(iter_counters0);
    const std::uint64_t iter_hits = iter_counters.transpileCacheHits;
    const std::uint64_t iter_misses = iter_counters.transpileCacheMisses;
    const core::StreamStats stats = service.streamStats();

    double cold_total = 0.0, warm_total = 0.0;
    double cold_tail = 0.0, warm_tail = 0.0; // iterations 2..K
    for (int it = 0; it < iterations; ++it) {
        cold_total += cold_ms[static_cast<std::size_t>(it)];
        warm_total += warm_ms[static_cast<std::size_t>(it)];
        if (it > 0) {
            cold_tail += cold_ms[static_cast<std::size_t>(it)];
            warm_tail += warm_ms[static_cast<std::size_t>(it)];
        }
    }
    const double transpile_hit_pct =
        iter_hits + iter_misses > 0
            ? 100.0 * static_cast<double>(iter_hits) /
                  static_cast<double>(iter_hits + iter_misses)
            : 0.0;
    const double prefix_hit_pct =
        stats.prefixStateHits + stats.prefixStateMisses > 0
            ? 100.0 * static_cast<double>(stats.prefixStateHits) /
                  static_cast<double>(stats.prefixStateHits +
                                      stats.prefixStateMisses)
            : 0.0;

    std::cout << "  compile-once: " << compile_ms << " ms (prewarm: "
              << (compiler::transpileCacheHits() - hits0) << " hits / "
              << (compiler::transpileCacheMisses() - misses0)
              << " misses lifetime so far)\n";
    for (int it = 0; it < iterations; ++it) {
        std::cout << "  iteration " << it << ": cold "
                  << cold_ms[static_cast<std::size_t>(it)]
                  << " ms -> parametric "
                  << warm_ms[static_cast<std::size_t>(it)] << " ms\n";
    }
    std::cout << "  total: " << cold_total << " ms -> " << warm_total
              << " ms (" << cold_total / warm_total << "x; iterations "
              << "2+: " << cold_tail / warm_tail << "x)\n"
              << "  transpile during iterations: " << iter_hits
              << " hits / " << iter_misses << " misses ("
              << transpile_hit_pct << "% hit rate, "
              << iter_counters.transpileSkeletonRebinds << " rebinds)\n"
              << "  split-prefix states: " << stats.prefixStateHits
              << " hits / " << stats.prefixStateMisses << " misses ("
              << prefix_hit_pct << "% hit rate)\n"
              << "  outputs: bitwise-identical to cold compiles\n";

    if (iter_misses != 0) {
        std::cerr << "ERROR: expected zero transpiles during "
                     "iterations (prewarmed skeleton), got "
                  << iter_misses << "\n";
        return 1;
    }
    return 0;
}
