/**
 * @file
 * Compiler tests: layout bookkeeping, SABRE routing invariants
 * (coupling-validity and semantic equivalence under random circuits
 * and topologies), noise-aware placement, transpiler selection, CPM
 * recompilation rules, and EDM ensembles.
 */
#include <algorithm>
#include <limits>
#include <numeric>
#include <set>

#include <gtest/gtest.h>

#include "common/error.h"
#include "compiler/placement.h"
#include "compiler/sabre.h"
#include "compiler/transpiler.h"
#include "device/library.h"
#include "sim/eps.h"
#include "sim/simulators.h"
#include "workloads/registry.h"

namespace jigsaw {
namespace compiler {
namespace {

using circuit::Gate;
using circuit::GateType;
using circuit::QuantumCircuit;
using device::DeviceModel;
using device::Topology;

Layout
identityLayout(int n_logical, int n_physical)
{
    std::vector<int> v(static_cast<std::size_t>(n_logical));
    for (int i = 0; i < n_logical; ++i)
        v[static_cast<std::size_t>(i)] = i;
    return Layout(std::move(v), n_physical);
}

// ---------------------------------------------------------------- layout

TEST(LayoutTest, Bidirectional)
{
    Layout layout({3, 1, 0}, 4);
    EXPECT_EQ(layout.nLogical(), 3);
    EXPECT_EQ(layout.nPhysical(), 4);
    EXPECT_EQ(layout.physicalOf(0), 3);
    EXPECT_EQ(layout.logicalOf(3), 0);
    EXPECT_EQ(layout.logicalOf(2), -1);
}

TEST(LayoutTest, SwapPhysical)
{
    Layout layout({0, 1}, 3);
    layout.swapPhysical(1, 2); // logical 1 moves to physical 2
    EXPECT_EQ(layout.physicalOf(1), 2);
    EXPECT_EQ(layout.logicalOf(1), -1);
    EXPECT_EQ(layout.logicalOf(2), 1);
    layout.swapPhysical(0, 2); // logical 0 <-> logical 1
    EXPECT_EQ(layout.physicalOf(0), 2);
    EXPECT_EQ(layout.physicalOf(1), 0);
}

TEST(LayoutTest, RejectsDuplicates)
{
    EXPECT_THROW(Layout({0, 0}, 3), std::invalid_argument);
    EXPECT_THROW(Layout({0, 5}, 3), std::invalid_argument);
}

// ----------------------------------------------------------------- sabre

TEST(Sabre, NoSwapWhenAdjacent)
{
    const Topology topo = device::linearTopology(3);
    QuantumCircuit qc(3, 3);
    qc.h(0).cx(0, 1).cx(1, 2).measureAll();
    const RoutedCircuit routed =
        sabreRoute(qc, topo, identityLayout(3, 3));
    EXPECT_EQ(routed.swapCount, 0);
    EXPECT_EQ(routed.physical.countTwoQubitGates(), 2);
}

TEST(Sabre, InsertsSwapForDistantPair)
{
    const Topology topo = device::linearTopology(3);
    QuantumCircuit qc(3, 3);
    qc.cx(0, 2).measureAll();
    const RoutedCircuit routed =
        sabreRoute(qc, topo, identityLayout(3, 3));
    EXPECT_GE(routed.swapCount, 1);
    // All two-qubit gates must now sit on coupling edges.
    for (const Gate &g : routed.physical.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(topo.areCoupled(g.qubits[0], g.qubits[1]));
        }
    }
}

TEST(Sabre, MeasurementsFollowFinalLayout)
{
    const Topology topo = device::linearTopology(3);
    QuantumCircuit qc(3, 3);
    qc.cx(0, 2).measureAll();
    const RoutedCircuit routed =
        sabreRoute(qc, topo, identityLayout(3, 3));
    const std::vector<int> measured = routed.physical.measuredQubits();
    for (int c = 0; c < 3; ++c)
        EXPECT_EQ(measured[static_cast<std::size_t>(c)],
                  routed.finalLayout.physicalOf(c));
}

TEST(Sabre, RejectsNonTerminalMeasurement)
{
    const Topology topo = device::linearTopology(2);
    QuantumCircuit qc(2, 2);
    qc.measure(0, 0).h(0);
    EXPECT_THROW(sabreRoute(qc, topo, identityLayout(2, 2)),
                 std::invalid_argument);
}

/**
 * Property: routing preserves semantics. The routed circuit, executed
 * noiselessly, must produce the same output distribution (over
 * classical bits) as the logical circuit.
 */
class SabreEquivalence : public ::testing::TestWithParam<int>
{
};

TEST_P(SabreEquivalence, RoutedCircuitSameDistribution)
{
    Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919);
    const int n = 4 + static_cast<int>(rng.uniformInt(0, 2));

    // Random topology: ring plus a chord, always connected.
    std::vector<device::Edge> edges;
    const int n_phys = n + 2;
    for (int q = 0; q < n_phys; ++q)
        edges.emplace_back(q, (q + 1) % n_phys);
    edges.emplace_back(0, n_phys / 2);
    const Topology topo(n_phys, std::move(edges));

    QuantumCircuit qc(n, n);
    for (int step = 0; step < 25; ++step) {
        const int kind = static_cast<int>(rng.uniformInt(0, 3));
        const int a = static_cast<int>(rng.uniformInt(0, n - 1));
        int b = static_cast<int>(rng.uniformInt(0, n - 1));
        if (b == a)
            b = (a + 1) % n;
        switch (kind) {
          case 0: qc.h(a); break;
          case 1: qc.rx(rng.uniform(0, 2 * M_PI), a); break;
          case 2: qc.cx(a, b); break;
          default: qc.rzz(rng.uniform(0, 2 * M_PI), a, b); break;
        }
    }
    qc.measureAll();

    const RoutedCircuit routed =
        sabreRoute(qc, topo, identityLayout(n, n_phys));

    // Coupling validity.
    for (const Gate &g : routed.physical.gates()) {
        if (g.isTwoQubit()) {
            ASSERT_TRUE(topo.areCoupled(g.qubits[0], g.qubits[1]));
        }
    }

    // Semantic equivalence through the noiseless executor.
    sim::IdealSimulator ideal;
    const Pmf expected = ideal.idealPmf(qc);
    const Pmf actual = ideal.idealPmf(routed.physical);
    EXPECT_LT(totalVariationDistance(expected, actual), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SabreEquivalence, ::testing::Range(1, 13));

// ------------------------------------------------------------- placement

TEST(Placement, RankedStartsPreferGoodQubits)
{
    const DeviceModel dev = device::toronto();
    const std::vector<int> starts = rankedStartQubits(dev, true);
    EXPECT_EQ(starts.size(), 27u);
    // All distinct.
    std::set<int> unique(starts.begin(), starts.end());
    EXPECT_EQ(unique.size(), 27u);
}

TEST(Placement, GreedyProducesValidLayout)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(8, 8);
    qc.h(0);
    for (int q = 0; q + 1 < 8; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();
    const Layout layout = greedyPlacement(qc, dev, 12, true);
    EXPECT_EQ(layout.nLogical(), 8);
    std::set<int> used;
    for (int l = 0; l < 8; ++l)
        used.insert(layout.physicalOf(l));
    EXPECT_EQ(used.size(), 8u);
}

TEST(Placement, ChainNeighborsPlacedNearby)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(6, 6);
    for (int q = 0; q + 1 < 6; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();
    const Layout layout = greedyPlacement(qc, dev, 12, true);
    // Interacting neighbors should be within a couple of hops.
    for (int q = 0; q + 1 < 6; ++q) {
        EXPECT_LE(dev.topology().distance(layout.physicalOf(q),
                                          layout.physicalOf(q + 1)),
                  2);
    }
}

TEST(Placement, RejectsOversizedProgram)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(28, 28);
    qc.h(0);
    EXPECT_THROW(greedyPlacement(qc, dev, 0, true),
                 std::invalid_argument);
}

TEST(Placement, IsolatedQubitsStayInTheStartComponent)
{
    // Two components {0,1,2} and {3,4,5}. Logical 2 has no partners,
    // so only the anchor decides its qubit: it must stay next to the
    // start, never jump to the component the start cannot reach.
    Topology topo(6, {{0, 1}, {1, 2}, {3, 4}, {4, 5}});
    device::Calibration cal(6, 4);
    const DeviceModel dev("split", std::move(topo), std::move(cal));
    QuantumCircuit qc(3, 3);
    qc.cx(0, 1);
    qc.h(2);
    qc.measureAll();
    for (bool aware : {true, false}) {
        const Layout layout = greedyPlacement(qc, dev, 0, aware);
        EXPECT_EQ(layout.physicalOf(0), 0);
        EXPECT_EQ(layout.physicalOf(1), 1);
        EXPECT_EQ(layout.physicalOf(2), 2);
        for (int start = 0; start < 6; ++start) {
            const Layout placed = greedyPlacement(qc, dev, start, aware);
            for (int l = 0; l < 3; ++l) {
                EXPECT_GE(dev.topology().distance(start,
                                                  placed.physicalOf(l)),
                          0);
            }
        }
    }
}

// ------------------------------------------- frozen placement reference

/*
 * Verbatim copy of greedyPlacement as it was before PlacementContext
 * (per-call interaction matrix, per-pair incident-edge error). Kept
 * as an executable specification; do not optimize. It predates the
 * start-component anchor fix, which only changes placements on
 * disconnected coupling maps, so it is compared on connected devices.
 */
namespace reference {

double
incidentEdgeError(const device::DeviceModel &dev, int p)
{
    const device::Topology &topo = dev.topology();
    const auto &neighbors = topo.neighbors(p);
    if (neighbors.empty())
        return 1.0;
    double total = 0.0;
    for (int nb : neighbors)
        total += dev.calibration().edgeError(topo.edgeIndex(p, nb));
    return total / static_cast<double>(neighbors.size());
}

constexpr double errorToHops = 10.0;

Layout
greedyPlacement(const circuit::QuantumCircuit &logical,
                const device::DeviceModel &dev, int start_physical,
                bool noise_aware)
{
    const device::Topology &topo = dev.topology();
    const int n_logical = logical.nQubits();
    fatalIf(n_logical > topo.nQubits(),
            "greedyPlacement: program larger than device");

    // Interaction weights and the set of measured logical qubits.
    std::vector<std::vector<double>> weight(
        static_cast<std::size_t>(n_logical),
        std::vector<double>(static_cast<std::size_t>(n_logical), 0.0));
    std::vector<bool> is_measured(static_cast<std::size_t>(n_logical),
                                  false);
    for (const circuit::Gate &g : logical.gates()) {
        if (g.isTwoQubit()) {
            weight[static_cast<std::size_t>(g.qubits[0])]
                  [static_cast<std::size_t>(g.qubits[1])] += 1.0;
            weight[static_cast<std::size_t>(g.qubits[1])]
                  [static_cast<std::size_t>(g.qubits[0])] += 1.0;
        } else if (g.isMeasure()) {
            is_measured[static_cast<std::size_t>(g.qubits[0])] = true;
        }
    }

    // Place logical qubits in order of total interaction weight.
    std::vector<int> logical_order(static_cast<std::size_t>(n_logical));
    std::iota(logical_order.begin(), logical_order.end(), 0);
    std::vector<double> total_weight(static_cast<std::size_t>(n_logical),
                                     0.0);
    for (int l = 0; l < n_logical; ++l) {
        total_weight[static_cast<std::size_t>(l)] = std::accumulate(
            weight[static_cast<std::size_t>(l)].begin(),
            weight[static_cast<std::size_t>(l)].end(), 0.0);
    }
    std::sort(logical_order.begin(), logical_order.end(),
              [&total_weight](int a, int b) {
                  const double wa = total_weight[static_cast<std::size_t>(a)];
                  const double wb = total_weight[static_cast<std::size_t>(b)];
                  if (wa != wb)
                      return wa > wb;
                  return a < b;
              });

    std::vector<int> physical_of(static_cast<std::size_t>(n_logical), -1);
    std::vector<bool> used(static_cast<std::size_t>(topo.nQubits()), false);

    auto qubit_cost = [&](int l, int p) {
        double c = 0.0;
        if (noise_aware) {
            c += errorToHops * incidentEdgeError(dev, p);
            if (is_measured[static_cast<std::size_t>(l)]) {
                c += errorToHops *
                     dev.calibration().qubit(p).meanReadoutError();
            }
        }
        return c;
    };

    bool first = true;
    for (int l : logical_order) {
        if (first) {
            fatalIf(start_physical < 0 ||
                    start_physical >= topo.nQubits(),
                    "greedyPlacement: invalid start qubit");
            physical_of[static_cast<std::size_t>(l)] = start_physical;
            used[static_cast<std::size_t>(start_physical)] = true;
            first = false;
            continue;
        }
        double best_cost = std::numeric_limits<double>::infinity();
        int best_p = -1;
        for (int p = 0; p < topo.nQubits(); ++p) {
            if (used[static_cast<std::size_t>(p)])
                continue;
            double c = qubit_cost(l, p);
            bool reachable = true;
            for (int m = 0; m < n_logical; ++m) {
                const double w = weight[static_cast<std::size_t>(l)]
                                       [static_cast<std::size_t>(m)];
                const int pm = physical_of[static_cast<std::size_t>(m)];
                if (w <= 0.0 || pm < 0)
                    continue;
                const int d = topo.distance(p, pm);
                if (d < 0) {
                    reachable = false;
                    break;
                }
                c += w * static_cast<double>(d - 1);
            }
            if (!reachable)
                continue;
            // Anchor isolated qubits near the start to keep the
            // program in one region of the device.
            if (c == qubit_cost(l, p)) {
                c += 0.01 * static_cast<double>(
                                topo.distance(p, start_physical));
            }
            if (c < best_cost) {
                best_cost = c;
                best_p = p;
            }
        }
        fatalIf(best_p < 0, "greedyPlacement: no physical qubit available");
        physical_of[static_cast<std::size_t>(l)] = best_p;
        used[static_cast<std::size_t>(best_p)] = true;
    }

    return Layout(std::move(physical_of), topo.nQubits());
}

} // namespace reference

TEST(PlacementReference, ContextMatchesFrozenGreedyPlacement)
{
    // One context per (program, device) must place exactly like the
    // per-call original for every start, both placement families, and
    // every measured set a CPM can ask for: all, none, and windows.
    const auto suite = workloads::paperBenchmarks();
    for (const DeviceModel &dev : {device::toronto(), device::manhattan()}) {
        for (const auto &workload : suite) {
            const QuantumCircuit &logical = workload->circuit();
            const std::vector<int> qubit_of_clbit = logical.measuredQubits();
            const int n_measured = static_cast<int>(qubit_of_clbit.size());

            // (reference input circuit, measured mask) pairs.
            std::vector<std::pair<QuantumCircuit, std::vector<bool>>> cases;
            cases.emplace_back(logical, measuredMask(logical));
            cases.emplace_back(
                logical.withoutMeasurements(),
                std::vector<bool>(
                    static_cast<std::size_t>(logical.nQubits()), false));
            for (int size : {2, 3}) {
                for (int first : {size - 2, n_measured / 2 + size - 2}) {
                    std::vector<int> lqs;
                    std::vector<bool> mask(
                        static_cast<std::size_t>(logical.nQubits()), false);
                    for (int k = 0; k < size; ++k) {
                        const int q = qubit_of_clbit[static_cast<std::size_t>(
                            (first + k) % n_measured)];
                        lqs.push_back(q);
                        mask[static_cast<std::size_t>(q)] = true;
                    }
                    cases.emplace_back(logical.withMeasurementSubset(lqs),
                                       std::move(mask));
                }
            }

            const PlacementContext context(logical, dev);
            for (bool aware : {true, false}) {
                for (int start : rankedStartQubits(dev, aware)) {
                    for (const auto &[circuit, mask] : cases) {
                        EXPECT_EQ(context.place(start, aware, mask)
                                      .logicalToPhysical(),
                                  reference::greedyPlacement(circuit, dev,
                                                             start, aware)
                                      .logicalToPhysical())
                            << workload->name() << " on " << dev.name()
                            << " start " << start << " aware " << aware;
                    }
                }
            }
        }
    }
}

// ------------------------------------------------------------ transpiler

TEST(Transpiler, ProducesRoutedCircuit)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(10, 10);
    qc.h(0);
    for (int q = 0; q + 1 < 10; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();

    const CompiledCircuit compiled = transpile(qc, dev);
    EXPECT_EQ(compiled.physical.nQubits(), 27);
    for (const Gate &g : compiled.physical.gates()) {
        if (g.isTwoQubit()) {
            EXPECT_TRUE(dev.topology().areCoupled(g.qubits[0],
                                                  g.qubits[1]));
        }
    }
    EXPECT_GT(compiled.eps, 0.0);
    EXPECT_LE(compiled.eps, 1.0);
    EXPECT_NEAR(compiled.eps,
                compiled.gateSuccess * compiled.measurementSuccess,
                1e-12);
}

TEST(Transpiler, NoiseAwareBeatsOrEqualsNaive)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(8, 8);
    qc.h(0);
    for (int q = 0; q + 1 < 8; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();

    TranspileOptions naive;
    naive.noiseAware = false;
    const CompiledCircuit aware = transpile(qc, dev);
    const CompiledCircuit blind = transpile(qc, dev, naive);
    EXPECT_GE(aware.eps, blind.eps - 1e-12);
}

TEST(Transpiler, CpmRecompilationRespectsSwapBudgetAndReadout)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(10, 10);
    qc.h(0);
    for (int q = 0; q + 1 < 10; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();

    const CompiledCircuit global = transpile(qc, dev);

    const QuantumCircuit cpm_logical = qc.withMeasurementSubset({4, 5});
    TranspileOptions cpm_options;
    cpm_options.maxSwaps = global.swapCount;
    const CompiledCircuit cpm = transpile(cpm_logical, dev, cpm_options);

    // Per the no-extra-SWAP rule.
    EXPECT_LE(cpm.swapCount, global.swapCount);

    // Measuring 2 qubits must read far better than measuring all 10
    // under the global compilation (fewer flips + less crosstalk).
    EXPECT_GT(cpm.measurementSuccess, global.measurementSuccess);

    // The CPM's overall EPS must also beat the global program's
    // (same gates, two instead of ten measurements).
    EXPECT_GT(cpm.eps, global.eps);
}

TEST(Transpiler, EnsembleDiverse)
{
    const DeviceModel dev = device::toronto();
    QuantumCircuit qc(6, 6);
    qc.h(0);
    for (int q = 0; q + 1 < 6; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();

    const std::vector<CompiledCircuit> ensemble =
        transpileEnsemble(qc, dev, 4);
    EXPECT_EQ(ensemble.size(), 4u);

    // Initial layouts must differ pairwise.
    for (std::size_t i = 0; i < ensemble.size(); ++i) {
        for (std::size_t j = i + 1; j < ensemble.size(); ++j) {
            EXPECT_NE(ensemble[i].initialLayout.logicalToPhysical(),
                      ensemble[j].initialLayout.logicalToPhysical());
        }
    }
    // Sorted by EPS descending (best mapping first).
    for (std::size_t i = 0; i + 1 < ensemble.size(); ++i)
        EXPECT_GE(ensemble[i].eps, ensemble[i + 1].eps - 1e-9);
}

TEST(Transpiler, WorksOnManhattan)
{
    const DeviceModel dev = device::manhattan();
    QuantumCircuit qc(14, 14);
    qc.h(0);
    for (int q = 0; q + 1 < 14; ++q)
        qc.cx(q, q + 1);
    qc.measureAll();
    const CompiledCircuit compiled = transpile(qc, dev);
    EXPECT_EQ(compiled.physical.nQubits(), 65);
    sim::IdealSimulator ideal;
    const Pmf pmf = ideal.idealPmf(compiled.physical);
    EXPECT_NEAR(pmf.prob(0), 0.5, 1e-9);
}

} // namespace
} // namespace compiler
} // namespace jigsaw
