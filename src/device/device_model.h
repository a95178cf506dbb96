/**
 * @file
 * DeviceModel bundles a topology with its calibration.
 */
#ifndef JIGSAW_DEVICE_DEVICE_MODEL_H
#define JIGSAW_DEVICE_DEVICE_MODEL_H

#include <cstdint>
#include <string>
#include <utility>

#include "device/calibration.h"
#include "device/topology.h"

namespace jigsaw {
namespace device {

/**
 * A named quantum device: coupling graph plus error calibration.
 * Instances are immutable after construction and cheap to share by
 * const reference.
 */
class DeviceModel
{
  public:
    /** Assemble a device from its parts. */
    DeviceModel(std::string name, Topology topology, Calibration calibration);

    /** Device name, e.g. "ibmq-toronto". */
    const std::string &name() const { return name_; }

    /** Coupling graph. */
    const Topology &topology() const { return topology_; }

    /** Error calibration. */
    const Calibration &calibration() const { return calibration_; }

    /** Number of physical qubits. */
    int nQubits() const { return topology_.nQubits(); }

    /**
     * Content hash over the name, coupling graph, and every
     * calibration value (exact double bit patterns). Two devices with
     * equal fingerprints produce identical noise derivations for
     * identical circuits, which is what the streaming scheduler keys
     * executor sharing on.
     */
    std::uint64_t fingerprint() const;

  private:
    std::string name_;
    Topology topology_;
    Calibration calibration_;
};

} // namespace device
} // namespace jigsaw

#endif // JIGSAW_DEVICE_DEVICE_MODEL_H
