/**
 * @file
 * Batched CPM recompilation (ROADMAP: "Batched CPM recompilation").
 *
 * JigSaw recompiles one Circuit with Partial Measurements per subset
 * (Section 4.2.2). Every CPM of a run shares the logical circuit's
 * gate prefix — the candidates differ only in placement and in which
 * qubits are measured — and SABRE routing depends only on that prefix
 * and the initial layout, never on the measurement set (measurements
 * are emitted against the final layout after routing). A full
 * transpile() per CPM therefore re-routes the same (prefix, layout)
 * pairs over and over: the distance-only placement family is even
 * measurement-independent, so its layouts repeat across every subset.
 *
 * CpmRecompiler exploits this: it builds the placement tables and the
 * distance-only placements once, routes the measureless prefix once
 * per distinct initial layout (memoized), computes the gate-success
 * probability once per routing, and per subset only places the
 * noise-aware family and scores each candidate's readout success from
 * its final layout. Only the winner's physical circuit is built. The
 * selected CompiledCircuit is identical to what transpile() would
 * return for the CPM circuit with the same options.
 */
#ifndef JIGSAW_COMPILER_CPM_BATCH_H
#define JIGSAW_COMPILER_CPM_BATCH_H

#include <cstdint>
#include <map>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/placement.h"
#include "compiler/transpiler.h"
#include "device/device_model.h"

namespace jigsaw {
namespace compiler {

/**
 * Recompiles the CPMs of one logical circuit, sharing SABRE routing
 * state across every subset's placement candidates.
 *
 * Not thread-safe: each concurrent session owns its own instance (the
 * routing memo is per-logical-circuit, so there is nothing to share
 * across programs).
 */
class CpmRecompiler
{
  public:
    /**
     * @p logical is the fully measured program; @p options should
     * already carry the CPM rules (maxSwaps = the global compilation's
     * SWAP count). The device is copied so the recompiler owns its
     * lifetime.
     */
    CpmRecompiler(const circuit::QuantumCircuit &logical,
                  device::DeviceModel dev, TranspileOptions options);

    /**
     * Compile the CPM measuring @p logical_qubits (classical bits
     * 0..k-1, in the order given). Returns the same candidate
     * transpile(logical.withMeasurementSubset(logical_qubits), dev,
     * options) would select.
     */
    CompiledCircuit recompile(const std::vector<int> &logical_qubits);

    /** SABRE routings actually computed (distinct initial layouts). */
    std::uint64_t routingsComputed() const { return routingsComputed_; }

    /** Placement candidates served from the routing memo. */
    std::uint64_t routingsReused() const { return routingsReused_; }

  private:
    /** One routed prefix: everything measurement-independent. */
    struct RoutedPrefix
    {
        circuit::QuantumCircuit physical; ///< Routed gates, no measures.
        Layout initialLayout;             ///< Placement it was routed from.
        Layout finalLayout;               ///< Layout after the last gate.
        int swapCount;                    ///< SWAPs inserted by routing.
        double gateSuccess;               ///< Gate-only success prob.
    };

    const RoutedPrefix &routedFor(const Layout &initial);

    circuit::QuantumCircuit logicalPrefix_; ///< Measures stripped.
    device::DeviceModel dev_;
    TranspileOptions options_;
    std::vector<int> starts_; ///< Placement seeds (already truncated).
    PlacementContext placement_;
    /** Distance-only placement per start: measurement-independent. */
    std::vector<Layout> tightByStart_;
    std::map<std::vector<int>, RoutedPrefix> routedByLayout_;
    std::uint64_t routingsComputed_ = 0;
    std::uint64_t routingsReused_ = 0;
};

} // namespace compiler
} // namespace jigsaw

#endif // JIGSAW_COMPILER_CPM_BATCH_H
