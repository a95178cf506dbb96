/**
 * @file
 * Service-mode throughput: the evaluation sweep's JigSaw runs (three
 * schemes per device x workload cell) pushed through the concurrent
 * JigsawService — the schemes sharing a (circuit, device) pair share
 * the service's per-device executor caches — against the same
 * programs run sequentially. Verifies the outputs match bitwise and reports the
 * service speedup, programs/second, and per-program latency
 * percentiles (see docs/performance.md).
 *
 * Usage: bench_service_throughput [--trials N] [--seed S] [--qaoa]
 *                                 [--no-compare] [--quick]
 */
#include <cstdlib>
#include <cstring>
#include <iostream>

#include "suite_runner.h"

int
main(int argc, char **argv)
{
    std::uint64_t trials = 16384;
    std::uint64_t seed = 7;
    bool qaoa_only = false;
    bool compare = true;
    for (int i = 1; i < argc; ++i) {
        if (!std::strcmp(argv[i], "--trials") && i + 1 < argc) {
            trials = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--seed") && i + 1 < argc) {
            seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (!std::strcmp(argv[i], "--qaoa")) {
            qaoa_only = true;
        } else if (!std::strcmp(argv[i], "--no-compare")) {
            compare = false;
        } else if (!std::strcmp(argv[i], "--quick")) {
            trials = 4096;
            qaoa_only = true;
        } else {
            std::cerr << "usage: " << argv[0]
                      << " [--trials N] [--seed S] [--qaoa]"
                         " [--no-compare] [--quick]\n";
            return 2;
        }
    }

    const jigsaw::bench::ServiceSuiteRun run =
        jigsaw::bench::runEvaluationSuiteService(trials, seed, qaoa_only,
                                                 false, compare);

    std::cout << "programs:            " << run.programs << "\n";
    if (compare) {
        std::cout << "sequential wall ms:  " << run.sequentialMs << "\n";
    }
    std::cout << "service wall ms:     " << run.serviceMs << "\n";
    if (compare) {
        std::cout << "service speedup:     " << run.speedup() << "x\n";
    }
    std::cout << "throughput:          " << run.programsPerSecond()
              << " programs/s\n";
    std::cout << "latency p50:         " << run.latencyP50Ms << " ms\n";
    std::cout << "latency p95:         " << run.latencyP95Ms << " ms\n";
    std::cout << "merged programs:     " << run.mergedPrograms << "\n";
    if (compare) {
        std::cout << "outputs match:       "
                  << (run.outputsMatch ? "yes (bitwise)" : "NO") << "\n";
        if (!run.outputsMatch) {
            std::cerr << "ERROR: service outputs diverged from "
                         "sequential runJigsaw\n";
            return 1;
        }
    }
    return 0;
}
