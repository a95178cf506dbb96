#include "sim/noise_model.h"

#include <memory>
#include <string>

#include "common/error.h"

namespace jigsaw {
namespace sim {

namespace {

/**
 * Readout-style flip of clbit @p c over the dense distribution of
 * @p size outcomes at @p v: a true 0 reads 1 with probability @p f0,
 * a true 1 reads 0 with @p f1.
 */
void
flipPass(double *v, std::size_t size, int c, double f0, double f1)
{
    const std::size_t stride = std::size_t{1} << c;
    const double keep0 = 1.0 - f0;
    const double keep1 = 1.0 - f1;
    for (std::size_t base = 0; base < size; base += 2 * stride) {
        double *lo = v + base;
        double *hi = lo + stride;
        for (std::size_t j = 0; j < stride; ++j) {
            const double a = lo[j];
            const double b = hi[j];
            lo[j] = keep0 * a + f1 * b;
            hi[j] = f0 * a + keep1 * b;
        }
    }
}

/**
 * Correlated flip of clbits @p a < @p b with probability @p e. Outcome
 * x (bit a clear) trades mass with x ^ mask; inside one block of
 * 2^a outcomes neither bit changes, so both sides stay contiguous.
 */
void
pairPass(std::vector<double> &v, int a, int b, double e)
{
    const std::size_t stride = std::size_t{1} << a;
    const std::size_t mask = stride | (std::size_t{1} << b);
    const double keep = 1.0 - e;
    for (std::size_t base = 0; base < v.size(); base += 2 * stride) {
        double *x = v.data() + base;
        double *y = v.data() + (base ^ mask);
        for (std::size_t j = 0; j < stride; ++j) {
            const double p = x[j];
            const double q = y[j];
            x[j] = keep * p + e * q;
            y[j] = e * p + keep * q;
        }
    }
}

} // namespace

MeasurementChannel::MeasurementChannel(
    const circuit::QuantumCircuit &physical_circuit,
    const device::DeviceModel &dev)
    : MeasurementChannel(physical_circuit.measuredQubits(),
                         physical_circuit.countMeasurements(), dev)
{
}

MeasurementChannel::MeasurementChannel(const std::vector<int> &measured,
                                       const device::DeviceModel &dev)
    : MeasurementChannel(measured, static_cast<int>(measured.size()), dev)
{
}

MeasurementChannel::MeasurementChannel(const std::vector<int> &measured,
                                       int simultaneous,
                                       const device::DeviceModel &dev)
{
    const device::Calibration &cal = dev.calibration();
    flip0_.resize(measured.size(), 0.0);
    flip1_.resize(measured.size(), 0.0);
    for (std::size_t c = 0; c < measured.size(); ++c) {
        const int q = measured[c];
        fatalIf(q < 0, "MeasurementChannel: unused classical bit in "
                       "measured circuit");
        flip0_[c] = cal.effectiveReadoutError(q, simultaneous, 0);
        flip1_[c] = cal.effectiveReadoutError(q, simultaneous, 1);
    }

    // Correlated flips act on clbit pairs whose physical qubits are
    // coupled and measured together.
    for (std::size_t a = 0; a < measured.size(); ++a) {
        for (std::size_t b = a + 1; b < measured.size(); ++b) {
            if (dev.topology().areCoupled(measured[a], measured[b])) {
                correlatedPairs_.emplace_back(static_cast<int>(a),
                                              static_cast<int>(b));
            }
        }
    }
    correlatedError_ = cal.correlatedPairError();
}

BasisState
MeasurementChannel::apply(BasisState ideal, Rng &rng) const
{
    BasisState out = ideal;
    for (std::size_t c = 0; c < flip0_.size(); ++c) {
        const int bit = getBit(ideal, static_cast<int>(c));
        const double p = bit ? flip1_[c] : flip0_[c];
        if (rng.bernoulli(p))
            out = flipBit(out, static_cast<int>(c));
    }
    for (const auto &[a, b] : correlatedPairs_) {
        if (rng.bernoulli(correlatedError_)) {
            out = flipBit(out, a);
            out = flipBit(out, b);
        }
    }
    return out;
}

double
MeasurementChannel::flipProbability(int c, int bit) const
{
    fatalIf(c < 0 || c >= nClbits(),
            "MeasurementChannel: clbit out of range");
    return bit ? flip1_[static_cast<std::size_t>(c)]
               : flip0_[static_cast<std::size_t>(c)];
}

void
checkDenseWidth(int n_clbits)
{
    if (n_clbits > kMaxDenseClbits) {
        fatalIf(true, "channel-mode sampling builds a dense distribution "
                      "over at most " +
                          std::to_string(kMaxDenseClbits) +
                          " classical bits; this circuit has " +
                          std::to_string(n_clbits));
    }
}

std::vector<double>
noisyOutcomeDistribution(const Pmf &ideal, double gate_ok,
                         double gate_bit_flip,
                         const MeasurementChannel *readout)
{
    const int k = ideal.nQubits();
    checkDenseWidth(k);
    fatalIf(readout != nullptr && readout->nClbits() != k,
            "noisyOutcomeDistribution: readout channel width mismatch");
    std::vector<double> p(std::size_t{1} << k, 0.0);
    for (const auto &[outcome, w] : ideal.probabilities()) {
        fatalIf(outcome >= p.size(),
                "noisyOutcomeDistribution: outcome out of range");
        p[outcome] = w;
    }
    if (gate_ok < 1.0) {
        // The failed branch is every bit flipped in turn. Bit 0 is
        // flipped out of place, from P into the branch (flipPass's
        // expressions at c = 0), so P is never copied.
        const std::size_t size = p.size();
        const auto failed = std::make_unique_for_overwrite<double[]>(size);
        const double keep = 1.0 - gate_bit_flip;
        for (std::size_t x = 0; x < size; x += 2) {
            const double a = p[x];
            const double b = p[x + 1];
            failed[x] = keep * a + gate_bit_flip * b;
            failed[x + 1] = gate_bit_flip * a + keep * b;
        }
        for (int c = 1; c < k; ++c)
            flipPass(failed.get(), size, c, gate_bit_flip, gate_bit_flip);
        const double fail = 1.0 - gate_ok;
        for (std::size_t i = 0; i < p.size(); ++i)
            p[i] = gate_ok * p[i] + fail * failed[i];
    }
    if (readout != nullptr) {
        for (int c = 0; c < k; ++c) {
            flipPass(p.data(), p.size(), c, readout->flipProbability(c, 0),
                     readout->flipProbability(c, 1));
        }
        if (readout->correlatedError() > 0.0) {
            for (const auto &[a, b] : readout->correlatedPairs())
                pairPass(p, a, b, readout->correlatedError());
        }
    }
    return p;
}

} // namespace sim
} // namespace jigsaw
