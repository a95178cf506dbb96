/**
 * @file
 * Device connectivity: coupling maps and shortest-path distances.
 */
#ifndef JIGSAW_DEVICE_TOPOLOGY_H
#define JIGSAW_DEVICE_TOPOLOGY_H

#include <utility>
#include <vector>

namespace jigsaw {
namespace device {

/** An undirected qubit-coupling edge. */
using Edge = std::pair<int, int>;

/**
 * Undirected coupling graph of a quantum device with precomputed
 * all-pairs shortest-path distances (used by SABRE's heuristic).
 */
class Topology
{
  public:
    /** Build from a qubit count and an undirected edge list. */
    Topology(int n_qubits, std::vector<Edge> edges);

    /** Number of physical qubits. */
    int nQubits() const { return nQubits_; }

    /** Undirected coupling edges (each listed once, a < b). */
    const std::vector<Edge> &edges() const { return edges_; }

    /** Physical qubits adjacent to @p q. */
    const std::vector<int> &neighbors(int q) const;

    /** True when @p a and @p b share a coupling edge. */
    bool areCoupled(int a, int b) const;

    /** Hop distance between @p a and @p b (BFS; -1 if disconnected). */
    int distance(int a, int b) const;

    /** Hop distances from @p a to every qubit (distance(a, .)). */
    const std::vector<int> &distanceRow(int a) const;

    /** True when every qubit can reach every other qubit. */
    bool isConnected() const;

    /** Index of the edge (a, b) in edges(); -1 when not coupled. */
    int edgeIndex(int a, int b) const;

  private:
    void computeDistances();

    int nQubits_;
    std::vector<Edge> edges_;
    std::vector<std::vector<int>> adjacency_;
    std::vector<std::vector<int>> distance_;
};

/** Simple path a-b-c-...; useful for tests. */
Topology linearTopology(int n_qubits);

/** Full rows x cols grid with nearest-neighbor coupling. */
Topology gridTopology(int rows, int cols);

/**
 * IBM heavy-hex lattice in the 27-qubit Falcon arrangement (the
 * layout of IBMQ-Toronto, IBMQ-Paris, IBMQ-Montreal, ...).
 */
Topology heavyHex27();

/**
 * IBM heavy-hex lattice in the 65-qubit Hummingbird arrangement (the
 * layout of IBMQ-Manhattan): five rows of 10-11 qubits joined by
 * three bridge qubits between consecutive rows.
 */
Topology heavyHex65();

} // namespace device
} // namespace jigsaw

#endif // JIGSAW_DEVICE_TOPOLOGY_H
