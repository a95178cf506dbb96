/**
 * @file
 * Noise-aware initial placement.
 *
 * Logical qubits are placed greedily in order of interaction weight;
 * each placement minimizes a blend of (a) coupling distance to already
 * placed interaction partners and (b) calibrated error rates of the
 * physical qubit — readout error counting only for logical qubits the
 * circuit actually measures. The latter is what lets a recompiled CPM
 * pull its few measured qubits onto the device's best readout qubits
 * (paper Section 4.2.2) while leaving unmeasured qubits free.
 */
#ifndef JIGSAW_COMPILER_PLACEMENT_H
#define JIGSAW_COMPILER_PLACEMENT_H

#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "compiler/layout.h"
#include "device/device_model.h"

namespace jigsaw {
namespace compiler {

/**
 * Physical start qubits ordered by desirability (low local error and
 * high connectivity first when @p noise_aware, otherwise connectivity
 * only). Used to seed diverse placement candidates.
 */
std::vector<int> rankedStartQubits(const device::DeviceModel &dev,
                                   bool noise_aware);

/**
 * Everything greedy placement reads that depends only on the program's
 * two-qubit gates and the device: per-physical-qubit incident-edge and
 * mean readout error, per-logical interaction partners, the placement
 * order, and the hop-distance matrix. Built once per (program prefix,
 * device) and shared by every start qubit and measurement subset. Owns
 * copies of all device data, so it never dangles when the device it
 * was built from moves.
 */
class PlacementContext
{
  public:
    /** Measurements in @p logical are ignored; pass the measured set
     *  to place() instead. */
    PlacementContext(const circuit::QuantumCircuit &logical,
                     const device::DeviceModel &dev);

    /**
     * Greedy placement anchored at @p start_physical. @p measured
     * (indexed by logical qubit) selects whose readout error counts
     * when @p noise_aware; distance-only placement ignores it.
     */
    Layout place(int start_physical, bool noise_aware,
                 const std::vector<bool> &measured) const;

  private:
    int nLogical_;
    int nPhysical_;
    std::vector<double> edgeCost_;    ///< errorToHops x incident edge error.
    std::vector<double> readoutCost_; ///< errorToHops x mean readout error.
    /** Per logical qubit: (partner, interaction weight), by partner. */
    std::vector<std::vector<std::pair<int, double>>> partners_;
    std::vector<int> order_;    ///< Logical qubits, heaviest first.
    std::vector<int> distance_; ///< Row-major hop distances (-1: none).
};

/** Mask of the logical qubits @p logical measures. */
std::vector<bool> measuredMask(const circuit::QuantumCircuit &logical);

/**
 * Greedy placement of @p logical onto @p dev anchored at
 * @p start_physical (a one-shot PlacementContext).
 */
Layout greedyPlacement(const circuit::QuantumCircuit &logical,
                       const device::DeviceModel &dev, int start_physical,
                       bool noise_aware);

} // namespace compiler
} // namespace jigsaw

#endif // JIGSAW_COMPILER_PLACEMENT_H
