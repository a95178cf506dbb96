#include "sim/reference_kernels.h"

#include <cmath>
#include <utility>

#include "common/bitops.h"
#include "common/error.h"
#include "sim/statevector.h"

namespace jigsaw {
namespace sim {

using circuit::Gate;
using circuit::GateType;

namespace {

using Amp = std::complex<double>;

void
naiveApply1q(std::vector<Amp> &amps, const Amp m[2][2], int q)
{
    const BasisState mask = 1ULL << q;
    const BasisState dim = amps.size();
    for (BasisState base = 0; base < dim; ++base) {
        if (base & mask)
            continue;
        const Amp a0 = amps[base];
        const Amp a1 = amps[base | mask];
        amps[base] = m[0][0] * a0 + m[0][1] * a1;
        amps[base | mask] = m[1][0] * a0 + m[1][1] * a1;
    }
}

void
naiveApplyGate(std::vector<Amp> &amps, const Gate &gate)
{
    if (gate.type == GateType::BARRIER)
        return;
    if (gate.isSingleQubit()) {
        Amp m[2][2];
        gateMatrix1q(gate, m);
        naiveApply1q(amps, m, gate.qubits[0]);
        return;
    }

    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    const BasisState dim = amps.size();
    switch (gate.type) {
      case GateType::CX: {
        const BasisState cmask = 1ULL << a;
        const BasisState tmask = 1ULL << b;
        for (BasisState base = 0; base < dim; ++base) {
            if ((base & cmask) && !(base & tmask))
                std::swap(amps[base], amps[base | tmask]);
        }
        return;
      }
      case GateType::CZ: {
        const BasisState mask = (1ULL << a) | (1ULL << b);
        for (BasisState base = 0; base < dim; ++base) {
            if ((base & mask) == mask)
                amps[base] = -amps[base];
        }
        return;
      }
      case GateType::CP: {
        const Amp i(0.0, 1.0);
        const Amp phase = std::exp(i * gate.params.at(0));
        const BasisState mask = (1ULL << a) | (1ULL << b);
        for (BasisState base = 0; base < dim; ++base) {
            if ((base & mask) == mask)
                amps[base] *= phase;
        }
        return;
      }
      case GateType::SWAP: {
        const BasisState ma = 1ULL << a;
        const BasisState mb = 1ULL << b;
        for (BasisState base = 0; base < dim; ++base) {
            if ((base & ma) && !(base & mb))
                std::swap(amps[base], amps[(base ^ ma) | mb]);
        }
        return;
      }
      case GateType::RZZ: {
        const Amp i(0.0, 1.0);
        const double half = gate.params.at(0) / 2.0;
        const Amp even = std::exp(-i * half);
        const Amp odd = std::exp(i * half);
        const BasisState ma = 1ULL << a;
        const BasisState mb = 1ULL << b;
        for (BasisState base = 0; base < dim; ++base) {
            const bool b0 = base & ma;
            const bool b1 = base & mb;
            amps[base] *= (b0 == b1) ? even : odd;
        }
        return;
      }
      default:
        panicIf(true, "referenceEvolve: unhandled two-qubit gate");
    }
}

} // namespace

std::vector<Amp>
referenceEvolve(const circuit::QuantumCircuit &qc)
{
    fatalIf(qc.nQubits() < 1 || qc.nQubits() > 28,
            "referenceEvolve: qubit count must be in [1, 28]");
    std::vector<Amp> amps(1ULL << qc.nQubits(), Amp(0.0, 0.0));
    amps[0] = Amp(1.0, 0.0);
    for (const Gate &g : qc.gates()) {
        if (!g.isMeasure())
            naiveApplyGate(amps, g);
    }
    return amps;
}

Pmf
referenceMeasurementPmf(const circuit::QuantumCircuit &qc,
                        const std::vector<int> &qubits, double threshold)
{
    fatalIf(qubits.empty(), "referenceMeasurementPmf: empty qubit list");
    const std::vector<Amp> amps = referenceEvolve(qc);
    Pmf::Entries entries;
    for (BasisState basis = 0; basis < amps.size(); ++basis) {
        const double p = std::norm(amps[basis]);
        if (p > 0.0)
            entries.emplace_back(extractBits(basis, qubits), p);
    }
    Pmf pmf(static_cast<int>(qubits.size()), std::move(entries));
    pmf.prune(threshold);
    return pmf;
}

} // namespace sim
} // namespace jigsaw
