#include "sim/statevector.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>

#include "common/error.h"
#include "common/parallel.h"
#include "common/simd.h"

namespace jigsaw {
namespace sim {

using circuit::Gate;
using circuit::GateType;

namespace {

constexpr double invSqrt2 = 0.70710678118654752440;

using Amp = StateVector::Amplitude;

/**
 * Below this many loop iterations a kernel runs serially: the
 * thread-pool handoff costs more than the loop itself.
 */
constexpr std::size_t kGrain = 1ULL << 14;

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

StateVector::StateVector(int n_qubits) : nQubits_(n_qubits)
{
    fatalIf(n_qubits < 1 || n_qubits > 28,
            "StateVector: qubit count must be in [1, 28]");
    re_.assign(1ULL << n_qubits, 0.0);
    im_.assign(1ULL << n_qubits, 0.0);
    re_[0] = 1.0;
}

void
StateVector::apply1q(const Amplitude m[2][2], int q)
{
    const BasisState stride = 1ULL << q;
    const std::size_t pairs = re_.size() >> 1;
    double *re = re_.data();
    double *im = im_.data();
    const simd::KernelTable &K = simd::activeKernels();

    if (isZero(m[0][1]) && isZero(m[1][0])) {
        // Diagonal gate: in-place phase multiply, no pair traffic.
        const Amplitude d0 = m[0][0];
        const Amplitude d1 = m[1][1];
        const bool d0_is_one = isOne(d0);
        parallelFor(0, pairs, kGrain, [=, &K](std::size_t lo,
                                              std::size_t hi) {
            K.apply1qDiag(re, im, stride, lo, hi, d0.real(), d0.imag(),
                          d1.real(), d1.imag(), d0_is_one);
        });
        return;
    }

    const simd::Mat2Split ms = {
        {m[0][0].real(), m[0][1].real(), m[1][0].real(), m[1][1].real()},
        {m[0][0].imag(), m[0][1].imag(), m[1][0].imag(), m[1][1].imag()},
    };
    parallelFor(0, pairs, kGrain, [=, &K](std::size_t lo, std::size_t hi) {
        K.apply1q(re, im, stride, lo, hi, ms);
    });
}

void
StateVector::applyCx(int control, int target)
{
    // Permutation gate: swap the (control=1, target=0) stratum with
    // its target-flipped partner; one touch per moved amplitude.
    const BasisState cmask = 1ULL << control;
    const BasisState tmask = 1ULL << target;
    const BasisState s_lo = control < target ? cmask : tmask;
    const BasisState s_hi = control < target ? tmask : cmask;
    const std::size_t quads = re_.size() >> 2;
    double *re = re_.data();
    double *im = im_.data();
    const simd::KernelTable &K = simd::activeKernels();
    parallelFor(0, quads, kGrain, [=, &K](std::size_t lo, std::size_t hi) {
        K.quadSwap(re, im, s_lo, s_hi, cmask, cmask | tmask, lo, hi);
    });
}

void
StateVector::applyControlledPhase(Amplitude phase, int qa, int qb)
{
    // Diagonal: multiply only the both-bits-set stratum.
    const BasisState ma = 1ULL << qa;
    const BasisState mb = 1ULL << qb;
    const BasisState s_lo = qa < qb ? ma : mb;
    const BasisState s_hi = qa < qb ? mb : ma;
    const std::size_t quads = re_.size() >> 2;
    double *re = re_.data();
    double *im = im_.data();
    const simd::KernelTable &K = simd::activeKernels();
    parallelFor(0, quads, kGrain, [=, &K](std::size_t lo, std::size_t hi) {
        K.quadPhase(re, im, s_lo, s_hi, ma | mb, lo, hi, phase.real(),
                    phase.imag());
    });
}

void
StateVector::applySwap(int qa, int qb)
{
    const BasisState ma = 1ULL << qa;
    const BasisState mb = 1ULL << qb;
    const BasisState s_lo = qa < qb ? ma : mb;
    const BasisState s_hi = qa < qb ? mb : ma;
    const std::size_t quads = re_.size() >> 2;
    double *re = re_.data();
    double *im = im_.data();
    const simd::KernelTable &K = simd::activeKernels();
    parallelFor(0, quads, kGrain, [=, &K](std::size_t lo, std::size_t hi) {
        K.quadSwap(re, im, s_lo, s_hi, ma, mb, lo, hi);
    });
}

void
StateVector::applyControlledPhaseRun(
    int target, const std::vector<std::pair<int, Amplitude>> &controls)
{
    // A run of CP/CZ gates sharing one qubit is a tensor-product
    // diagonal on the target's 1-stratum: the phase of an amplitude is
    // the product of the per-control phases whose bit is set. Build
    // that product as a table over the control bits (doubling once per
    // control) and apply it in a single pass over the stratum.
    std::vector<std::pair<int, Amplitude>> sorted = controls;
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    // Duplicate controls multiply into one tensor factor.
    std::vector<std::pair<int, Amplitude>> unique;
    for (const auto &[q, phase] : sorted) {
        if (!unique.empty() && unique.back().first == q) {
            unique.back().second *= phase;
            continue;
        }
        unique.push_back({q, phase});
    }

    std::vector<double> tab_re(1, 1.0);
    std::vector<double> tab_im(1, 0.0);
    tab_re.reserve(1ULL << unique.size());
    tab_im.reserve(1ULL << unique.size());
    BasisState control_mask = 0;
    for (const auto &[q, phase] : unique) {
        control_mask |= 1ULL << q;
        const std::size_t half = tab_re.size();
        for (std::size_t t = 0; t < half; ++t) {
            tab_re.push_back(tab_re[t] * phase.real() -
                             tab_im[t] * phase.imag());
            tab_im.push_back(tab_re[t] * phase.imag() +
                             tab_im[t] * phase.real());
        }
    }

    const BasisState q_mask = 1ULL << target;
    const std::size_t pairs = re_.size() >> 1;
    double *re = re_.data();
    double *im = im_.data();
    const double *tr = tab_re.data();
    const double *ti = tab_im.data();
    const simd::KernelTable &K = simd::activeKernels();
    parallelFor(0, pairs, kGrain, [=, &K](std::size_t lo, std::size_t hi) {
        K.stratumPhaseTable(re, im, q_mask, control_mask, tr, ti, lo, hi);
    });
}

void
StateVector::applyDiagonalRun(BasisState mask,
                              const std::vector<double> &tab_re,
                              const std::vector<double> &tab_im)
{
    const std::size_t dim = re_.size();
    double *re = re_.data();
    double *im = im_.data();
    const double *tr = tab_re.data();
    const double *ti = tab_im.data();
    const simd::KernelTable &K = simd::activeKernels();
    parallelFor(0, dim, kGrain, [=, &K](std::size_t lo, std::size_t hi) {
        K.phaseTable(re, im, mask, tr, ti, lo, hi);
    });
}

void
StateVector::applyPhasePair(Amplitude even, Amplitude odd, int q0, int q1)
{
    // Diagonal two-qubit phase: "even" applies where bits agree,
    // "odd" where they differ (the RZZ structure).
    const std::size_t dim = re_.size();
    double *re = re_.data();
    double *im = im_.data();
    const simd::KernelTable &K = simd::activeKernels();
    parallelFor(0, dim, kGrain, [=, &K](std::size_t lo, std::size_t hi) {
        K.phasePair(re, im, q0, q1, lo, hi, even.real(), even.imag(),
                    odd.real(), odd.imag());
    });
}

void
StateVector::applyGate(const Gate &gate)
{
    fatalIf(gate.isMeasure(), "StateVector: cannot apply MEASURE");
    if (gate.type == GateType::BARRIER)
        return;

    if (gate.isSingleQubit()) {
        Amplitude m[2][2];
        gateMatrix1q(gate, m);
        apply1q(m, gate.qubits[0]);
        return;
    }

    const int a = gate.qubits[0];
    const int b = gate.qubits[1];
    switch (gate.type) {
      case GateType::CX:
        applyCx(a, b);
        return;
      case GateType::CZ:
        applyControlledPhase(Amplitude(-1.0, 0.0), a, b);
        return;
      case GateType::CP: {
        const Amplitude i(0.0, 1.0);
        applyControlledPhase(std::exp(i * gate.params.at(0)), a, b);
        return;
      }
      case GateType::SWAP:
        applySwap(a, b);
        return;
      case GateType::RZZ: {
        const Amplitude i(0.0, 1.0);
        const double half = gate.params.at(0) / 2.0;
        applyPhasePair(std::exp(-i * half), std::exp(i * half), a, b);
        return;
      }
      default:
        panicIf(true, "StateVector: unhandled two-qubit gate");
    }
}

void
StateVector::applyCircuit(const circuit::QuantumCircuit &qc)
{
    applyCircuit(qc, simOptions());
}

void
StateVector::applyCircuit(const circuit::QuantumCircuit &qc,
                          const SimOptions &options)
{
    fatalIf(qc.nQubits() != nQubits_,
            "StateVector: circuit qubit count mismatch");

    // Fuse pending single-qubit gates per qubit: consecutive 1q gates
    // on one qubit compose into a single 2x2 matrix (1q gates on
    // distinct qubits commute, so per-qubit accumulation is exact),
    // flushed only when a two-qubit gate touches the qubit or the
    // circuit ends.
    struct Mat2
    {
        Amplitude m[2][2];
    };
    std::vector<Mat2> pending(static_cast<std::size_t>(nQubits_));
    std::vector<bool> has(static_cast<std::size_t>(nQubits_), false);

    const auto flush = [&](int q) {
        const auto uq = static_cast<std::size_t>(q);
        if (!has[uq])
            return;
        apply1q(pending[uq].m, q);
        has[uq] = false;
    };

    // Runs of CP/CZ gates sharing one qubit are all diagonal, so they
    // commute and compose into a single tensor-product phase pass
    // (applyControlledPhaseRun). Runs longer than the cap (each gate
    // past the first adds one control qubit to the table) are split
    // so the phase table stays cache-resident.
    const std::size_t kMaxFusedPhases =
        static_cast<std::size_t>(options.phaseTableMaxQubits);
    const auto isPhaseGate = [](const Gate &g) {
        return g.type == GateType::CP || g.type == GateType::CZ;
    };
    const auto phaseOf = [](const Gate &g) {
        if (g.type == GateType::CZ)
            return Amplitude(-1.0, 0.0);
        return std::exp(Amplitude(0.0, 1.0) * g.params.at(0));
    };

    // General diagonal runs — RZ/RZZ mixed with CP/CZ, the QAOA and
    // Ising layer shape — commute as a group and compose into one
    // phase table over the involved qubits, applied in a single
    // full-register pass (applyDiagonalRun). The qubit cap keeps the
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
            Amplitude m[2][2];
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
                std::vector<std::pair<int, Amplitude>> controls;
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
                applyControlledPhaseRun(target, controls);
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
            BasisState mask = 0;
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
                BasisState hmask = 0;
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
                std::vector<double> tab_re(tsize, 1.0);
                std::vector<double> tab_im(tsize, 0.0);
                const auto bitOf = [mask](int q) {
                    return std::popcount(mask & ((1ULL << q) - 1));
                };
                const auto mulAt = [&](std::size_t t, Amplitude f) {
                    const double tr = tab_re[t], ti = tab_im[t];
                    tab_re[t] = tr * f.real() - ti * f.imag();
                    tab_im[t] = tr * f.imag() + ti * f.real();
                };
                for (std::size_t gk : drun) {
                    const Gate &h = gs[gk];
                    if (h.isSingleQubit()) {
                        Amplitude m1[2][2];
                        gateMatrix1q(h, m1);
                        const int b = bitOf(h.qubits[0]);
                        for (std::size_t t = 0; t < tsize; ++t)
                            mulAt(t, m1[(t >> b) & 1][(t >> b) & 1]);
                        continue;
                    }
                    const int ba = bitOf(h.qubits[0]);
                    const int bb = bitOf(h.qubits[1]);
                    if (h.type == GateType::RZZ) {
                        const Amplitude i(0.0, 1.0);
                        const double half = h.params.at(0) / 2.0;
                        const Amplitude even = std::exp(-i * half);
                        const Amplitude odd = std::exp(i * half);
                        for (std::size_t t = 0; t < tsize; ++t) {
                            const bool differ =
                                (((t >> ba) ^ (t >> bb)) & 1) != 0;
                            mulAt(t, differ ? odd : even);
                        }
                        continue;
                    }
                    const Amplitude phase = phaseOf(h);
                    for (std::size_t t = 0; t < tsize; ++t) {
                        if (((t >> ba) & 1) != 0 && ((t >> bb) & 1) != 0)
                            mulAt(t, phase);
                    }
                }
                for (int q = 0; q < nQubits_; ++q) {
                    if ((mask >> q) & 1)
                        flush(q);
                }
                applyDiagonalRun(mask, tab_re, tab_im);
                gi = drun.back();
                continue;
            }
        }
        for (int q : g.qubits)
            flush(q);
        applyGate(g);
    }
    for (int q = 0; q < nQubits_; ++q)
        flush(q);
}

StateVector::Amplitude
StateVector::amplitude(BasisState basis) const
{
    fatalIf(basis >= re_.size(), "StateVector: basis out of range");
    return Amplitude(re_[basis], im_[basis]);
}

double
StateVector::probability(BasisState basis) const
{
    return std::norm(amplitude(basis));
}

double
StateVector::norm() const
{
    return simd::activeKernels().norm2(re_.data(), im_.data(), 0,
                                       re_.size());
}

Pmf
StateVector::measurementPmf(const std::vector<int> &qubits,
                            double threshold) const
{
    fatalIf(qubits.empty(), "measurementPmf: empty qubit list");
    Pmf pmf(static_cast<int>(qubits.size()));
    const double *re = re_.data();
    const double *im = im_.data();
    const std::size_t dim = re_.size();
    const auto prob = [&](BasisState basis) {
        return re[basis] * re[basis] + im[basis] * im[basis];
    };

    // Full-register measurement (the exactOutputPmf case): every basis
    // state is its own outcome, in ascending order, so each surviving
    // entry appends once. Entries cannot accumulate here, so the
    // threshold filters at insert time and no prune() pass is needed.
    bool identity = static_cast<int>(qubits.size()) == nQubits_;
    for (std::size_t j = 0; identity && j < qubits.size(); ++j)
        identity = qubits[j] == static_cast<int>(j);
    if (identity) {
        // Size the entries for the exact surviving support (a GHZ
        // state keeps 2 of 2^n).
        std::size_t support = 0;
        for (BasisState basis = 0; basis < dim; ++basis)
            support += prob(basis) >= threshold;
        pmf.reserve(support);
        for (BasisState basis = 0; basis < dim; ++basis) {
            const double p = prob(basis);
            if (p >= threshold)
                pmf.set(basis, p);
        }
        return pmf;
    }

    // A subset (or permutation): each key sums its terms in basis
    // order, as the reference does. A state with many non-zero
    // amplitudes per key folds into a dense 2^k scratch (2^k <= dim
    // with distinct qubits); a sparse one collects its terms and sorts
    // once, so the scratch never outgrows the terms.
    fatalIf(qubits.size() > static_cast<std::size_t>(nQubits_),
            "measurementPmf: more qubits than the register");
    std::size_t terms = 0;
    for (BasisState basis = 0; basis < dim; ++basis)
        terms += prob(basis) > 0.0;
    const std::size_t slots = std::size_t{1} << qubits.size();
    if (slots > std::max<std::size_t>(4 * terms, 1024)) {
        Pmf::Entries entries;
        entries.reserve(terms);
        for (BasisState basis = 0; basis < dim; ++basis) {
            const double p = prob(basis);
            if (p > 0.0)
                entries.emplace_back(extractBits(basis, qubits), p);
        }
        Pmf sparse(static_cast<int>(qubits.size()), std::move(entries));
        sparse.prune(threshold);
        return sparse;
    }
    std::vector<double> sum(slots, 0.0);
    for (BasisState basis = 0; basis < dim; ++basis) {
        const double p = prob(basis);
        if (p > 0.0)
            sum[extractBits(basis, qubits)] += p;
    }
    for (std::size_t key = 0; key < slots; ++key)
        if (sum[key] > 0.0 && sum[key] >= threshold)
            pmf.set(key, sum[key]);
    return pmf;
}

void
StateVector::applyPauli(int pauli, int q)
{
    static const GateType types[] = {GateType::X, GateType::Y, GateType::Z};
    fatalIf(pauli < 1 || pauli > 3, "applyPauli: pauli must be 1..3");
    applyGate({types[pauli - 1], {q}, {}, -1});
}

} // namespace sim
} // namespace jigsaw
