#include "sim/eps.h"

#include "common/error.h"

namespace jigsaw {
namespace sim {

using circuit::Gate;
using circuit::GateType;

double
gateSuccessProbability(const circuit::QuantumCircuit &qc,
                       const device::DeviceModel &dev)
{
    const device::Topology &topo = dev.topology();
    const device::Calibration &cal = dev.calibration();
    double success = 1.0;
    for (const Gate &g : qc.gates()) {
        if (g.isMeasure() || g.type == GateType::BARRIER)
            continue;
        if (g.isSingleQubit()) {
            success *= 1.0 - cal.qubit(g.qubits[0]).error1q;
            continue;
        }
        const int e = topo.edgeIndex(g.qubits[0], g.qubits[1]);
        fatalIf(e < 0,
                "gateSuccessProbability: two-qubit gate not on a coupling "
                "edge; route the circuit first");
        const double e2 = cal.edgeError(e);
        switch (g.type) {
          case GateType::SWAP:
            // A SWAP lowers to three CX on hardware.
            success *= (1.0 - e2) * (1.0 - e2) * (1.0 - e2);
            break;
          case GateType::RZZ:
          case GateType::CP: {
            // RZZ and CP both lower to CX - RZ - CX.
            const double e1 = cal.qubit(g.qubits[1]).error1q;
            success *= (1.0 - e2) * (1.0 - e2) * (1.0 - e1);
            break;
          }
          default:
            success *= 1.0 - e2;
            break;
        }
    }
    return success;
}

double
measurementSuccessProbability(const circuit::QuantumCircuit &qc,
                              const device::DeviceModel &dev)
{
    std::vector<int> measured;
    for (const Gate &g : qc.gates()) {
        if (g.isMeasure())
            measured.push_back(g.qubits[0]);
    }
    return measurementSuccessProbability(measured, dev);
}

double
measurementSuccessProbability(const std::vector<int> &physical_qubits,
                              const device::DeviceModel &dev)
{
    const device::Calibration &cal = dev.calibration();
    const int simultaneous = static_cast<int>(physical_qubits.size());
    double success = 1.0;
    for (int q : physical_qubits) {
        const double e0 = cal.effectiveReadoutError(q, simultaneous, 0);
        const double e1 = cal.effectiveReadoutError(q, simultaneous, 1);
        success *= 1.0 - 0.5 * (e0 + e1);
    }
    return success;
}

double
expectedProbabilityOfSuccess(const circuit::QuantumCircuit &qc,
                             const device::DeviceModel &dev)
{
    return gateSuccessProbability(qc, dev) *
           measurementSuccessProbability(qc, dev);
}

} // namespace sim
} // namespace jigsaw
