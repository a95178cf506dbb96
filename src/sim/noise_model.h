/**
 * @file
 * Measurement-error channel.
 *
 * Models the three readout phenomena the paper characterizes:
 *  - per-qubit asymmetric bit flips (reading |1> fails more often
 *    than |0> because the qubit relaxes during the readout pulse),
 *  - measurement crosstalk (effective error grows with the number of
 *    simultaneous measurements, Section 3.1),
 *  - correlated flips between adjacent simultaneously-measured qubits
 *    (the correlated-error floor that makes PST saturate with trials,
 *    Figure 7).
 */
#ifndef JIGSAW_SIM_NOISE_MODEL_H
#define JIGSAW_SIM_NOISE_MODEL_H

#include <utility>
#include <vector>

#include "circuit/circuit.h"
#include "common/bitops.h"
#include "common/histogram.h"
#include "common/rng.h"
#include "device/device_model.h"

namespace jigsaw {
namespace sim {

/**
 * The stochastic readout channel for one compiled circuit, built once
 * from the device calibration and the circuit's measurement set.
 * Channel mode folds it into the exact output distribution
 * (noisyOutcomeDistribution); trajectory mode applies it to each
 * sampled outcome.
 */
class MeasurementChannel
{
  public:
    /**
     * Build the channel for the measurements of @p physical_circuit
     * (a routed circuit over physical qubits) on @p dev. Classical
     * bit c of an outcome corresponds to the physical qubit measured
     * into clbit c.
     */
    MeasurementChannel(const circuit::QuantumCircuit &physical_circuit,
                       const device::DeviceModel &dev);

    /**
     * The channel of measuring physical qubit @p measured[c] into
     * clbit c, all at once, on @p dev: the channel of any circuit
     * whose measurements are exactly these, without building it.
     */
    MeasurementChannel(const std::vector<int> &measured,
                       const device::DeviceModel &dev);

    /** Corrupt one ideal outcome with readout noise. */
    BasisState apply(BasisState ideal, Rng &rng) const;

    /** Flip probability of clbit @p c when the true bit is @p bit. */
    double flipProbability(int c, int bit) const;

    /** Number of classical bits covered. */
    int nClbits() const { return static_cast<int>(flip0_.size()); }

    /** Pairs of clbits subject to correlated flips. */
    const std::vector<std::pair<int, int>> &correlatedPairs() const
    {
        return correlatedPairs_;
    }

    /** Correlated-pair flip probability. */
    double correlatedError() const { return correlatedError_; }

  private:
    MeasurementChannel(const std::vector<int> &measured, int simultaneous,
                       const device::DeviceModel &dev);

    std::vector<double> flip0_; ///< P(flip | true bit 0), per clbit.
    std::vector<double> flip1_; ///< P(flip | true bit 1), per clbit.
    std::vector<std::pair<int, int>> correlatedPairs_;
    double correlatedError_ = 0.0;
};

/** Widest outcome register noisyOutcomeDistribution builds densely. */
constexpr int kMaxDenseClbits = 24;

/**
 * The channel-mode output distribution P' = C * R * G * P over all
 * 2^k outcomes of the k-bit @p ideal PMF P, as a dense vector indexed
 * by outcome:
 *  - G, the gate-failure mixture: with weight 1 - @p gate_ok every bit
 *    flips independently with probability @p gate_bit_flip;
 *  - R, the asymmetric per-clbit readout flips of @p readout;
 *  - C, the correlated-pair flips of @p readout.
 * @p gate_ok = 1 skips G and a null @p readout skips R and C. Each
 * bit or pair is one stochasticPair pass over the returned vector,
 * the only buffer the build allocates, so the cost is
 * O((2k + pairs) * 2^k); passes run tile by tile in cache and skip
 * blocks still at +0, with the same bits as one full pass after
 * another. Throws std::invalid_argument when k exceeds
 * kMaxDenseClbits.
 */
std::vector<double> noisyOutcomeDistribution(const Pmf &ideal,
                                             double gate_ok,
                                             double gate_bit_flip,
                                             const MeasurementChannel *readout);

/** The kMaxDenseClbits check, naming @p n_clbits in the message. */
void checkDenseWidth(int n_clbits);

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_NOISE_MODEL_H
