/**
 * @file
 * Expected Probability of Success (EPS) of a scheduled circuit.
 *
 * EPS is the product of per-operation success probabilities computed
 * from the device calibration (paper Section 4.1, following Nishio et
 * al.). The noise-aware placement maximizes it, and the fast noise
 * model uses its gate-only part as a depolarizing strength.
 */
#ifndef JIGSAW_SIM_EPS_H
#define JIGSAW_SIM_EPS_H

#include <vector>

#include "circuit/circuit.h"
#include "device/device_model.h"

namespace jigsaw {
namespace sim {

/**
 * Product of (1 - gate error) over all unitary gates of the routed
 * @p qc. Two-qubit errors come from the coupling edge; SWAP counts as
 * three CX, RZZ as two CX plus one RZ. Every two-qubit gate must sit
 * on a coupling edge (i.e. @p qc must already be routed).
 */
double gateSuccessProbability(const circuit::QuantumCircuit &qc,
                              const device::DeviceModel &dev);

/**
 * Product of (1 - effective readout error) over all measurements of
 * @p qc, using the state-averaged rate and including measurement
 * crosstalk for the number of simultaneous measurements in @p qc.
 */
double measurementSuccessProbability(const circuit::QuantumCircuit &qc,
                                     const device::DeviceModel &dev);

/**
 * measurementSuccessProbability of a circuit whose measurement gates
 * target @p physical_qubits, in this order — the readout term of a
 * routed prefix scored for a measurement subset without building the
 * measured circuit.
 */
double measurementSuccessProbability(const std::vector<int> &physical_qubits,
                                     const device::DeviceModel &dev);

/** Full EPS: gate success times measurement success. */
double expectedProbabilityOfSuccess(const circuit::QuantumCircuit &qc,
                                    const device::DeviceModel &dev);

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_EPS_H
