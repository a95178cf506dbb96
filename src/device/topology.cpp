#include "device/topology.h"

#include <algorithm>
#include <queue>

#include "common/error.h"

namespace jigsaw {
namespace device {

Topology::Topology(int n_qubits, std::vector<Edge> edges)
    : nQubits_(n_qubits), edges_(std::move(edges))
{
    fatalIf(n_qubits < 1, "Topology: need at least one qubit");
    adjacency_.resize(static_cast<std::size_t>(n_qubits));
    for (auto &e : edges_) {
        if (e.first > e.second)
            std::swap(e.first, e.second);
        fatalIf(e.first < 0 || e.second >= n_qubits || e.first == e.second,
                "Topology: invalid edge");
        adjacency_[static_cast<std::size_t>(e.first)].push_back(e.second);
        adjacency_[static_cast<std::size_t>(e.second)].push_back(e.first);
    }
    std::sort(edges_.begin(), edges_.end());
    for (auto &adj : adjacency_)
        std::sort(adj.begin(), adj.end());
    computeDistances();
}

const std::vector<int> &
Topology::neighbors(int q) const
{
    fatalIf(q < 0 || q >= nQubits_, "Topology: qubit out of range");
    return adjacency_[static_cast<std::size_t>(q)];
}

bool
Topology::areCoupled(int a, int b) const
{
    if (a > b)
        std::swap(a, b);
    return std::binary_search(edges_.begin(), edges_.end(), Edge{a, b});
}

int
Topology::distance(int a, int b) const
{
    fatalIf(a < 0 || a >= nQubits_ || b < 0 || b >= nQubits_,
            "Topology: qubit out of range");
    return distance_[static_cast<std::size_t>(a)]
                    [static_cast<std::size_t>(b)];
}

const std::vector<int> &
Topology::distanceRow(int a) const
{
    fatalIf(a < 0 || a >= nQubits_, "Topology: qubit out of range");
    return distance_[static_cast<std::size_t>(a)];
}

bool
Topology::isConnected() const
{
    for (int q = 1; q < nQubits_; ++q) {
        if (distance(0, q) < 0)
            return false;
    }
    return true;
}

int
Topology::edgeIndex(int a, int b) const
{
    if (a > b)
        std::swap(a, b);
    const auto it = std::lower_bound(edges_.begin(), edges_.end(),
                                     Edge{a, b});
    if (it == edges_.end() || *it != Edge{a, b})
        return -1;
    return static_cast<int>(it - edges_.begin());
}

void
Topology::computeDistances()
{
    const auto n = static_cast<std::size_t>(nQubits_);
    distance_.assign(n, std::vector<int>(n, -1));
    for (int src = 0; src < nQubits_; ++src) {
        auto &dist = distance_[static_cast<std::size_t>(src)];
        dist[static_cast<std::size_t>(src)] = 0;
        std::queue<int> frontier;
        frontier.push(src);
        while (!frontier.empty()) {
            const int u = frontier.front();
            frontier.pop();
            for (int v : adjacency_[static_cast<std::size_t>(u)]) {
                if (dist[static_cast<std::size_t>(v)] < 0) {
                    dist[static_cast<std::size_t>(v)] =
                        dist[static_cast<std::size_t>(u)] + 1;
                    frontier.push(v);
                }
            }
        }
    }
}

Topology
linearTopology(int n_qubits)
{
    std::vector<Edge> edges;
    for (int q = 0; q + 1 < n_qubits; ++q)
        edges.emplace_back(q, q + 1);
    return Topology(n_qubits, std::move(edges));
}

Topology
gridTopology(int rows, int cols)
{
    fatalIf(rows < 1 || cols < 1, "gridTopology: invalid shape");
    std::vector<Edge> edges;
    auto id = [cols](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r) {
        for (int c = 0; c < cols; ++c) {
            if (c + 1 < cols)
                edges.emplace_back(id(r, c), id(r, c + 1));
            if (r + 1 < rows)
                edges.emplace_back(id(r, c), id(r + 1, c));
        }
    }
    return Topology(rows * cols, std::move(edges));
}

Topology
heavyHex27()
{
    // The 27-qubit Falcon heavy-hex arrangement used by IBMQ-Toronto
    // and IBMQ-Paris (28 coupling edges).
    std::vector<Edge> edges = {
        {0, 1},   {1, 2},   {1, 4},   {2, 3},   {3, 5},   {4, 7},
        {5, 8},   {6, 7},   {7, 10},  {8, 9},   {8, 11},  {10, 12},
        {11, 14}, {12, 13}, {12, 15}, {13, 14}, {14, 16}, {15, 18},
        {16, 19}, {17, 18}, {18, 21}, {19, 20}, {19, 22}, {21, 23},
        {22, 25}, {23, 24}, {24, 25}, {25, 26},
    };
    return Topology(27, std::move(edges));
}

Topology
heavyHex65()
{
    // 65-qubit Hummingbird heavy-hex arrangement (IBMQ-Manhattan
    // style): rows 0-9, 13-23, 27-37, 41-51, 55-64 joined by bridge
    // qubits {10,11,12}, {24,25,26}, {38,39,40}, {52,53,54}.
    std::vector<Edge> edges;
    auto chain = [&edges](int first, int last) {
        for (int q = first; q < last; ++q)
            edges.emplace_back(q, q + 1);
    };
    chain(0, 9);    // row 0: 10 qubits
    chain(13, 23);  // row 1: 11 qubits
    chain(27, 37);  // row 2: 11 qubits
    chain(41, 51);  // row 3: 11 qubits
    chain(55, 64);  // row 4: 10 qubits

    // Bridges alternate their attachment offsets row to row, which is
    // what gives the heavy-hex lattice its staggered hexagons.
    edges.emplace_back(0, 10);
    edges.emplace_back(4, 11);
    edges.emplace_back(8, 12);
    edges.emplace_back(10, 13);
    edges.emplace_back(11, 17);
    edges.emplace_back(12, 21);

    edges.emplace_back(15, 24);
    edges.emplace_back(19, 25);
    edges.emplace_back(23, 26);
    edges.emplace_back(24, 29);
    edges.emplace_back(25, 33);
    edges.emplace_back(26, 37);

    edges.emplace_back(27, 38);
    edges.emplace_back(31, 39);
    edges.emplace_back(35, 40);
    edges.emplace_back(38, 41);
    edges.emplace_back(39, 45);
    edges.emplace_back(40, 49);

    edges.emplace_back(43, 52);
    edges.emplace_back(47, 53);
    edges.emplace_back(51, 54);
    edges.emplace_back(52, 56);
    edges.emplace_back(53, 60);
    edges.emplace_back(54, 64);

    return Topology(65, std::move(edges));
}

} // namespace device
} // namespace jigsaw
