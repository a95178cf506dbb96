#include "compiler/placement.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/error.h"

namespace jigsaw {
namespace compiler {

namespace {

/** Average two-qubit error over the edges incident to @p p. */
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

/** Converts an error rate into coupling-distance units for blending
 *  with the hop-count term of the placement cost. */
constexpr double errorToHops = 10.0;

} // namespace

std::vector<int>
rankedStartQubits(const device::DeviceModel &dev, bool noise_aware)
{
    const device::Topology &topo = dev.topology();
    std::vector<int> order(static_cast<std::size_t>(topo.nQubits()));
    std::iota(order.begin(), order.end(), 0);

    std::vector<double> cost(order.size());
    for (int p = 0; p < topo.nQubits(); ++p) {
        const double degree =
            static_cast<double>(topo.neighbors(p).size());
        double c = -0.1 * degree;
        if (noise_aware) {
            c += 5.0 * incidentEdgeError(dev, p) +
                 2.0 * dev.calibration().qubit(p).meanReadoutError();
        }
        cost[static_cast<std::size_t>(p)] = c;
    }

    std::sort(order.begin(), order.end(), [&cost](int a, int b) {
        const double ca = cost[static_cast<std::size_t>(a)];
        const double cb = cost[static_cast<std::size_t>(b)];
        if (ca != cb)
            return ca < cb;
        return a < b;
    });
    return order;
}

PlacementContext::PlacementContext(const circuit::QuantumCircuit &logical,
                                   const device::DeviceModel &dev)
    : nLogical_(logical.nQubits()), nPhysical_(dev.nQubits())
{
    fatalIf(nLogical_ > nPhysical_,
            "greedyPlacement: program larger than device");
    const device::Topology &topo = dev.topology();
    const auto n_physical = static_cast<std::size_t>(nPhysical_);

    edgeCost_.resize(n_physical);
    readoutCost_.resize(n_physical);
    distance_.resize(n_physical * n_physical);
    for (int p = 0; p < nPhysical_; ++p) {
        const auto row = static_cast<std::size_t>(p);
        edgeCost_[row] = errorToHops * incidentEdgeError(dev, p);
        readoutCost_[row] =
            errorToHops * dev.calibration().qubit(p).meanReadoutError();
        const std::vector<int> &distances = topo.distanceRow(p);
        std::copy(distances.begin(), distances.end(),
                  distance_.begin() +
                      static_cast<std::ptrdiff_t>(row * n_physical));
    }

    // Interaction weights.
    const auto n_logical = static_cast<std::size_t>(nLogical_);
    std::vector<std::vector<double>> weight(
        n_logical, std::vector<double>(n_logical, 0.0));
    for (const circuit::Gate &g : logical.gates()) {
        if (g.isTwoQubit()) {
            weight[static_cast<std::size_t>(g.qubits[0])]
                  [static_cast<std::size_t>(g.qubits[1])] += 1.0;
            weight[static_cast<std::size_t>(g.qubits[1])]
                  [static_cast<std::size_t>(g.qubits[0])] += 1.0;
        }
    }

    // Place logical qubits in order of total interaction weight.
    order_.resize(n_logical);
    std::iota(order_.begin(), order_.end(), 0);
    std::vector<double> total_weight(n_logical, 0.0);
    partners_.resize(n_logical);
    for (std::size_t l = 0; l < n_logical; ++l) {
        total_weight[l] =
            std::accumulate(weight[l].begin(), weight[l].end(), 0.0);
        for (std::size_t m = 0; m < n_logical; ++m) {
            if (weight[l][m] > 0.0)
                partners_[l].emplace_back(static_cast<int>(m), weight[l][m]);
        }
    }
    std::sort(order_.begin(), order_.end(), [&total_weight](int a, int b) {
        const double wa = total_weight[static_cast<std::size_t>(a)];
        const double wb = total_weight[static_cast<std::size_t>(b)];
        if (wa != wb)
            return wa > wb;
        return a < b;
    });
}

Layout
PlacementContext::place(int start_physical, bool noise_aware,
                        const std::vector<bool> &measured) const
{
    fatalIf(static_cast<int>(measured.size()) != nLogical_,
            "greedyPlacement: measured mask does not match the program");
    const auto n_physical = static_cast<std::size_t>(nPhysical_);
    std::vector<int> physical_of(static_cast<std::size_t>(nLogical_), -1);
    std::vector<bool> used(n_physical, false);

    const int *start_row = nullptr;
    for (int l : order_) {
        if (!start_row) {
            fatalIf(start_physical < 0 || start_physical >= nPhysical_,
                    "greedyPlacement: invalid start qubit");
            physical_of[static_cast<std::size_t>(l)] = start_physical;
            used[static_cast<std::size_t>(start_physical)] = true;
            start_row = &distance_[static_cast<std::size_t>(start_physical) *
                                   n_physical];
            continue;
        }
        const bool l_measured = measured[static_cast<std::size_t>(l)];
        const auto &partners = partners_[static_cast<std::size_t>(l)];
        double best_cost = std::numeric_limits<double>::infinity();
        int best_p = -1;
        for (int p = 0; p < nPhysical_; ++p) {
            const auto pi = static_cast<std::size_t>(p);
            if (used[pi])
                continue;
            double base = 0.0;
            if (noise_aware) {
                base += edgeCost_[pi];
                if (l_measured)
                    base += readoutCost_[pi];
            }
            const int *row = &distance_[pi * n_physical];
            double c = base;
            bool reachable = true;
            for (const auto &[m, w] : partners) {
                const int pm = physical_of[static_cast<std::size_t>(m)];
                if (pm < 0)
                    continue;
                const int d = row[static_cast<std::size_t>(pm)];
                if (d < 0) {
                    reachable = false;
                    break;
                }
                c += w * static_cast<double>(d - 1);
            }
            if (!reachable)
                continue;
            // Anchor isolated qubits near the start to keep the
            // program in one region of the device — never in a
            // component the start cannot reach.
            if (c == base) {
                const int d_start = start_row[pi];
                if (d_start < 0)
                    continue;
                c += 0.01 * static_cast<double>(d_start);
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

    return Layout(std::move(physical_of), nPhysical_);
}

std::vector<bool>
measuredMask(const circuit::QuantumCircuit &logical)
{
    std::vector<bool> measured(static_cast<std::size_t>(logical.nQubits()),
                               false);
    for (const circuit::Gate &g : logical.gates()) {
        if (g.isMeasure())
            measured[static_cast<std::size_t>(g.qubits[0])] = true;
    }
    return measured;
}

Layout
greedyPlacement(const circuit::QuantumCircuit &logical,
                const device::DeviceModel &dev, int start_physical,
                bool noise_aware)
{
    return PlacementContext(logical, dev)
        .place(start_physical, noise_aware, measuredMask(logical));
}

} // namespace compiler
} // namespace jigsaw
