#include "sim/kernel_ops.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/error.h"

namespace jigsaw {
namespace sim {

using circuit::Gate;
using circuit::GateType;

namespace {

constexpr double invSqrt2 = 0.70710678118654752440;

using Amp = std::complex<double>;
using U64 = std::uint64_t;

template <class... Fs> struct Overloaded : Fs...
{
    using Fs::operator()...;
};
template <class... Fs> Overloaded(Fs...) -> Overloaded<Fs...>;

inline bool
isZero(const Amp &a)
{
    return a.real() == 0.0 && a.imag() == 0.0;
}

inline bool
isOne(const Amp &a)
{
    return a.real() == 1.0 && a.imag() == 0.0;
}

/** The CX/SWAP/CP/CZ quad strides of qubits @p a and @p b. */
std::pair<U64, U64>
quadStrides(int a, int b)
{
    const U64 ma = 1ULL << a;
    const U64 mb = 1ULL << b;
    return a < b ? std::pair{ma, mb} : std::pair{mb, ma};
}

/**
 * A run of CP/CZ gates sharing one qubit is a tensor-product diagonal
 * on the target's 1-stratum: the phase of an amplitude is the product
 * of the per-control phases whose bit is set. Build that product as a
 * table over the control bits (doubling once per control).
 */
StratumTableOp
stratumTableOp(int target, std::vector<std::pair<int, Amp>> controls)
{
    std::sort(controls.begin(), controls.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    // Duplicate controls multiply into one tensor factor.
    std::vector<std::pair<int, Amp>> unique;
    for (const auto &[q, phase] : controls) {
        if (!unique.empty() && unique.back().first == q) {
            unique.back().second *= phase;
            continue;
        }
        unique.push_back({q, phase});
    }

    StratumTableOp op{1ULL << target, 0, {1.0}, {0.0}};
    op.tabRe.reserve(1ULL << unique.size());
    op.tabIm.reserve(1ULL << unique.size());
    for (const auto &[q, phase] : unique) {
        op.controls |= 1ULL << q;
        const std::size_t half = op.tabRe.size();
        for (std::size_t t = 0; t < half; ++t) {
            op.tabRe.push_back(op.tabRe[t] * phase.real() -
                               op.tabIm[t] * phase.imag());
            op.tabIm.push_back(op.tabRe[t] * phase.imag() +
                               op.tabIm[t] * phase.real());
        }
    }
    return op;
}

/** The op of the 2x2 matrix @p m on qubit @p q (diagonal if it is). */
KernelOp
matrixOp(const Amp m[2][2], int q)
{
    const U64 stride = 1ULL << q;
    if (isZero(m[0][1]) && isZero(m[1][0])) {
        // Diagonal gate: in-place phase multiply, no pair traffic.
        return Diagonal1qOp{stride, m[0][0], m[1][1], isOne(m[0][0])};
    }
    return Matrix1qOp{
        stride,
        {{m[0][0].real(), m[0][1].real(), m[1][0].real(), m[1][1].real()},
         {m[0][0].imag(), m[0][1].imag(), m[1][0].imag(),
          m[1][1].imag()}}};
}

} // namespace

const SimOptions &
simOptions()
{
    static const SimOptions opts = [] {
        SimOptions o;
        if (const char *s = std::getenv("JIGSAW_PHASE_TABLE_MAX_QUBITS")) {
            char *end = nullptr;
            const long v = std::strtol(s, &end, 10);
            if (end != s && *end == '\0')
                o.phaseTableMaxQubits = static_cast<int>(
                    std::clamp(v, 1L, 24L));
        }
        return o;
    }();
    return opts;
}

void
gateMatrix1q(const Gate &gate, Amp m[2][2])
{
    const Amp i(0.0, 1.0);
    switch (gate.type) {
      case GateType::H:
        m[0][0] = invSqrt2;
        m[0][1] = invSqrt2;
        m[1][0] = invSqrt2;
        m[1][1] = -invSqrt2;
        return;
      case GateType::X:
        m[0][0] = 0;
        m[0][1] = 1;
        m[1][0] = 1;
        m[1][1] = 0;
        return;
      case GateType::Y:
        m[0][0] = 0;
        m[0][1] = -i;
        m[1][0] = i;
        m[1][1] = 0;
        return;
      case GateType::Z:
        m[0][0] = 1;
        m[0][1] = 0;
        m[1][0] = 0;
        m[1][1] = -1;
        return;
      case GateType::S:
        m[0][0] = 1;
        m[0][1] = 0;
        m[1][0] = 0;
        m[1][1] = i;
        return;
      case GateType::SDG:
        m[0][0] = 1;
        m[0][1] = 0;
        m[1][0] = 0;
        m[1][1] = -i;
        return;
      case GateType::T:
        m[0][0] = 1;
        m[0][1] = 0;
        m[1][0] = 0;
        m[1][1] = std::exp(i * (M_PI / 4.0));
        return;
      case GateType::TDG:
        m[0][0] = 1;
        m[0][1] = 0;
        m[1][0] = 0;
        m[1][1] = std::exp(-i * (M_PI / 4.0));
        return;
      case GateType::RX: {
        const double half = gate.params.at(0) / 2.0;
        m[0][0] = std::cos(half);
        m[0][1] = -i * std::sin(half);
        m[1][0] = -i * std::sin(half);
        m[1][1] = std::cos(half);
        return;
      }
      case GateType::RY: {
        const double half = gate.params.at(0) / 2.0;
        m[0][0] = std::cos(half);
        m[0][1] = -std::sin(half);
        m[1][0] = std::sin(half);
        m[1][1] = std::cos(half);
        return;
      }
      case GateType::RZ: {
        const double half = gate.params.at(0) / 2.0;
        m[0][0] = std::exp(-i * half);
        m[0][1] = 0;
        m[1][0] = 0;
        m[1][1] = std::exp(i * half);
        return;
      }
      case GateType::U3: {
        const double theta = gate.params.at(0);
        const double phi = gate.params.at(1);
        const double lambda = gate.params.at(2);
        m[0][0] = std::cos(theta / 2.0);
        m[0][1] = -std::exp(i * lambda) * std::sin(theta / 2.0);
        m[1][0] = std::exp(i * phi) * std::sin(theta / 2.0);
        m[1][1] = std::exp(i * (phi + lambda)) * std::cos(theta / 2.0);
        return;
      }
      default:
        panicIf(true, "gateMatrix1q: not a single-qubit gate");
    }
}

std::uint64_t
kernelStrides(const KernelOp &op)
{
    return std::visit(
        Overloaded{
            [](const Matrix1qOp &o) { return o.stride; },
            [](const Diagonal1qOp &o) { return o.stride; },
            [](const QuadPhaseOp &o) { return o.sLo | o.sHi; },
            [](const QuadSwapOp &o) { return o.sLo | o.sHi; },
            [](const PhasePairOp &) { return U64{0}; },
            [](const StratumTableOp &o) { return o.target; },
            [](const PhaseTableOp &) { return U64{0}; },
        },
        op);
}

void
runKernel(const KernelOp &op, const simd::KernelTable &K, double *re,
          double *im, std::uint64_t lo, std::uint64_t hi)
{
    std::visit(
        Overloaded{
            [&](const Matrix1qOp &o) {
                K.apply1q(re, im, o.stride, lo, hi, o.m);
            },
            [&](const Diagonal1qOp &o) {
                K.apply1qDiag(re, im, o.stride, lo, hi, o.d0.real(),
                              o.d0.imag(), o.d1.real(), o.d1.imag(),
                              o.d0IsOne);
            },
            [&](const QuadPhaseOp &o) {
                K.quadPhase(re, im, o.sLo, o.sHi, o.setMask, lo, hi,
                            o.phase.real(), o.phase.imag());
            },
            [&](const QuadSwapOp &o) {
                K.quadSwap(re, im, o.sLo, o.sHi, o.maskA, o.maskB, lo, hi);
            },
            [&](const PhasePairOp &o) {
                K.phasePair(re, im, o.q0, o.q1, lo, hi, o.even.real(),
                            o.even.imag(), o.odd.real(), o.odd.imag());
            },
            [&](const StratumTableOp &o) {
                K.stratumPhaseTable(re, im, o.target, o.controls,
                                    o.tabRe.data(), o.tabIm.data(), lo,
                                    hi);
            },
            [&](const PhaseTableOp &o) {
                K.phaseTable(re, im, o.mask, o.tabRe.data(),
                             o.tabIm.data(), lo, hi);
            },
        },
        op);
}

void
lowerGate(const Gate &gate, const KernelSink &sink)
{
    fatalIf(gate.isMeasure(), "StateVector: cannot apply MEASURE");
    if (gate.type == GateType::BARRIER)
        return;

    if (gate.isSingleQubit()) {
        Amp m[2][2];
        gateMatrix1q(gate, m);
        sink(matrixOp(m, gate.qubits[0]));
        return;
    }

    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    const auto [s_lo, s_hi] = quadStrides(a, b);
    const U64 ma = 1ULL << a;
    const U64 mb = 1ULL << b;
    const Amp i(0.0, 1.0);
    switch (gate.type) {
      case GateType::CX:
        // Permutation gate: swap the (control=1, target=0) stratum
        // with its target-flipped partner.
        sink(QuadSwapOp{s_lo, s_hi, ma, ma | mb});
        return;
      case GateType::CZ:
        // Diagonal: multiply only the both-bits-set stratum.
        sink(QuadPhaseOp{s_lo, s_hi, ma | mb, Amp(-1.0, 0.0)});
        return;
      case GateType::CP:
        sink(QuadPhaseOp{s_lo, s_hi, ma | mb,
                         std::exp(i * gate.params.at(0))});
        return;
      case GateType::SWAP:
        sink(QuadSwapOp{s_lo, s_hi, ma, mb});
        return;
      case GateType::RZZ: {
        // Diagonal two-qubit phase: "even" applies where bits agree,
        // "odd" where they differ.
        const double half = gate.params.at(0) / 2.0;
        sink(PhasePairOp{a, b, std::exp(-i * half), std::exp(i * half)});
        return;
      }
      default:
        panicIf(true, "StateVector: unhandled two-qubit gate");
    }
}

void
lowerCircuit(const circuit::QuantumCircuit &qc, const SimOptions &options,
             const KernelSink &sink)
{
    const int n_qubits = qc.nQubits();

    // Fuse pending single-qubit gates per qubit: consecutive 1q gates
    // on one qubit compose into a single 2x2 matrix (1q gates on
    // distinct qubits commute, so per-qubit accumulation is exact),
    // flushed only when a two-qubit gate touches the qubit or the
    // circuit ends.
    struct Mat2
    {
        Amp m[2][2];
    };
    std::vector<Mat2> pending(static_cast<std::size_t>(n_qubits));
    std::vector<bool> has(static_cast<std::size_t>(n_qubits), false);

    const auto flush = [&](int q) {
        const auto uq = static_cast<std::size_t>(q);
        if (!has[uq])
            return;
        sink(matrixOp(pending[uq].m, q));
        has[uq] = false;
    };

    // Runs of CP/CZ gates sharing one qubit are all diagonal, so they
    // commute and compose into a single tensor-product phase pass
    // (stratumTableOp). Runs longer than the cap (each gate past the
    // first adds one control qubit to the table) are split so the
    // phase table stays cache-resident.
    const std::size_t kMaxFusedPhases =
        static_cast<std::size_t>(options.phaseTableMaxQubits);
    const auto isPhaseGate = [](const Gate &g) {
        return g.type == GateType::CP || g.type == GateType::CZ;
    };
    const auto phaseOf = [](const Gate &g) {
        if (g.type == GateType::CZ)
            return Amp(-1.0, 0.0);
        return std::exp(Amp(0.0, 1.0) * g.params.at(0));
    };

    // General diagonal runs — RZ/RZZ mixed with CP/CZ, the QAOA and
    // Ising layer shape — commute as a group and compose into one
    // phase table over the involved qubits, applied in a single
    // full-register pass (PhaseTableOp). The qubit cap keeps the
    // table cache-resident; the gate cap bounds the table build.
    const int kMaxFusedDiagQubits = options.phaseTableMaxQubits;
    const std::size_t kMaxFusedDiagGates = options.maxFusedDiagGates;
    const auto isDiag1q = [](const Gate &g) {
        switch (g.type) {
          case GateType::Z:
          case GateType::S:
          case GateType::SDG:
          case GateType::T:
          case GateType::TDG:
          case GateType::RZ:
            return true;
          default:
            return false;
        }
    };
    const auto isDiag2q = [](const Gate &g) {
        return g.type == GateType::CZ || g.type == GateType::CP ||
               g.type == GateType::RZZ;
    };

    const std::vector<Gate> &gs = qc.gates();
    for (std::size_t gi = 0; gi < gs.size(); ++gi) {
        const Gate &g = gs[gi];
        if (g.isMeasure() || g.type == GateType::BARRIER)
            continue;
        if (g.isSingleQubit()) {
            const auto uq = static_cast<std::size_t>(g.qubits[0]);
            Amp m[2][2];
            gateMatrix1q(g, m);
            if (!has[uq]) {
                for (int r = 0; r < 2; ++r)
                    for (int c = 0; c < 2; ++c)
                        pending[uq].m[r][c] = m[r][c];
                has[uq] = true;
                continue;
            }
            const Mat2 acc = pending[uq];
            for (int r = 0; r < 2; ++r) {
                for (int c = 0; c < 2; ++c) {
                    pending[uq].m[r][c] = m[r][0] * acc.m[0][c] +
                                          m[r][1] * acc.m[1][c];
                }
            }
            continue;
        }
        if (isPhaseGate(g)) {
            // Extend the run while every gate shares a surviving
            // common qubit; barriers do not break it.
            int cand0 = g.qubits[0];
            int cand1 = g.qubits[1];
            std::vector<std::size_t> run = {gi};
            std::size_t gj = gi + 1;
            for (; gj < gs.size() && run.size() < kMaxFusedPhases; ++gj) {
                const Gate &h = gs[gj];
                if (h.type == GateType::BARRIER)
                    continue;
                if (!isPhaseGate(h))
                    break;
                const bool has0 = cand0 >= 0 && (h.qubits[0] == cand0 ||
                                                 h.qubits[1] == cand0);
                const bool has1 = cand1 >= 0 && (h.qubits[0] == cand1 ||
                                                 h.qubits[1] == cand1);
                if (!has0 && !has1)
                    break;
                if (!has0)
                    cand0 = -1;
                if (!has1)
                    cand1 = -1;
                run.push_back(gj);
            }
            if (run.size() >= 2) {
                const int target = cand0 >= 0 ? cand0 : cand1;
                std::vector<std::pair<int, Amp>> controls;
                controls.reserve(run.size());
                for (std::size_t gk : run) {
                    const Gate &h = gs[gk];
                    const int other = h.qubits[0] == target
                                          ? h.qubits[1]
                                          : h.qubits[0];
                    controls.push_back({other, phaseOf(h)});
                    flush(other);
                }
                flush(target);
                sink(stratumTableOp(target, std::move(controls)));
                gi = run.back();
                continue;
            }
        }
        if (isDiag2q(g)) {
            // Scan the maximal contiguous diagonal run from here:
            // two-qubit diagonals plus interleaved single-qubit
            // diagonals, while the involved-qubit count fits the cap.
            // (Runs the common-qubit CP/CZ pass above already took
            // never reach this point.)
            U64 mask = 0;
            int n_bits = 0;
            std::size_t n_two_qubit = 0;
            double unfused_cost = 0.0;
            std::vector<std::size_t> drun;
            for (std::size_t gj = gi;
                 gj < gs.size() && drun.size() < kMaxFusedDiagGates;
                 ++gj) {
                const Gate &h = gs[gj];
                if (h.type == GateType::BARRIER)
                    continue;
                const bool diag2 = isDiag2q(h);
                if (!diag2 && !isDiag1q(h))
                    break;
                U64 hmask = 0;
                for (int q : h.qubits)
                    hmask |= 1ULL << q;
                const int new_bits = std::popcount(hmask & ~mask);
                if (n_bits + new_bits > kMaxFusedDiagQubits)
                    break;
                mask |= hmask;
                n_bits += new_bits;
                drun.push_back(gj);
                if (diag2) {
                    ++n_two_qubit;
                    // Sweep fractions the unfused path would pay:
                    // CP/CZ touch a quarter of the amplitudes, RZZ
                    // all of them. 1q diagonals ride along for free
                    // (they would fuse into pending 2x2s anyway).
                    unfused_cost +=
                        h.type == GateType::RZZ ? 1.0 : 0.25;
                }
            }
            // Fuse when one full-register pass beats the unfused
            // sweeps it replaces.
            if (n_two_qubit >= options.diagFuseMinTwoQubit &&
                unfused_cost > options.diagFuseCostThreshold) {
                const std::size_t tsize = 1ULL << n_bits;
                PhaseTableOp op{mask, std::vector<double>(tsize, 1.0),
                                std::vector<double>(tsize, 0.0)};
                std::vector<double> &tab_re = op.tabRe;
                std::vector<double> &tab_im = op.tabIm;
                const auto bitOf = [mask](int q) {
                    return std::popcount(mask & ((1ULL << q) - 1));
                };
                const auto mulAt = [&](std::size_t t, Amp f) {
                    const double tr = tab_re[t], ti = tab_im[t];
                    tab_re[t] = tr * f.real() - ti * f.imag();
                    tab_im[t] = tr * f.imag() + ti * f.real();
                };
                for (std::size_t gk : drun) {
                    const Gate &h = gs[gk];
                    if (h.isSingleQubit()) {
                        Amp m1[2][2];
                        gateMatrix1q(h, m1);
                        const int b = bitOf(h.qubits[0]);
                        for (std::size_t t = 0; t < tsize; ++t)
                            mulAt(t, m1[(t >> b) & 1][(t >> b) & 1]);
                        continue;
                    }
                    const int ba = bitOf(h.qubits[0]);
                    const int bb = bitOf(h.qubits[1]);
                    if (h.type == GateType::RZZ) {
                        const Amp i(0.0, 1.0);
                        const double half = h.params.at(0) / 2.0;
                        const Amp even = std::exp(-i * half);
                        const Amp odd = std::exp(i * half);
                        for (std::size_t t = 0; t < tsize; ++t) {
                            const bool differ =
                                (((t >> ba) ^ (t >> bb)) & 1) != 0;
                            mulAt(t, differ ? odd : even);
                        }
                        continue;
                    }
                    const Amp phase = phaseOf(h);
                    for (std::size_t t = 0; t < tsize; ++t) {
                        if (((t >> ba) & 1) != 0 && ((t >> bb) & 1) != 0)
                            mulAt(t, phase);
                    }
                }
                for (int q = 0; q < n_qubits; ++q) {
                    if ((mask >> q) & 1)
                        flush(q);
                }
                sink(std::move(op));
                gi = drun.back();
                continue;
            }
        }
        for (int q : g.qubits)
            flush(q);
        lowerGate(g, sink);
    }
    for (int q = 0; q < n_qubits; ++q)
        flush(q);
}

} // namespace sim
} // namespace jigsaw
