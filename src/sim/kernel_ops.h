/**
 * @file
 * Lowering of gates and circuits to amplitude-kernel calls.
 *
 * Every state-vector update is one call of a simd::KernelTable entry
 * over an index range. A KernelOp is such a call with its operands
 * but without its range: StateVector picks the ranges (one block, or
 * one group of blocks, at a time), and a full-register replay —
 * runKernel(op, K, re, im, 0, kernelExtent(op, n)) for each op in
 * order — is the unblocked evolution the blocked one must reproduce
 * bit for bit.
 *
 * lowerCircuit holds the gate-fusion decisions: consecutive 1q gates
 * on one qubit compose into a single 2x2 matrix, runs of CP/CZ gates
 * sharing a qubit into one stratum phase table, and general diagonal
 * runs (RZ/RZZ mixed with CP/CZ — the QAOA and Ising layer shape)
 * into one full-register phase table. Diagonal 2x2 matrices lower to
 * the in-place phase kernel and CX/SWAP to index-mapped swaps.
 */
#ifndef JIGSAW_SIM_KERNEL_OPS_H
#define JIGSAW_SIM_KERNEL_OPS_H

#include <bit>
#include <complex>
#include <cstdint>
#include <functional>
#include <variant>
#include <vector>

#include "circuit/circuit.h"
#include "common/simd.h"

namespace jigsaw {
namespace sim {

/**
 * Tunables for lowerCircuit's gate-fusion decisions. The defaults
 * reproduce the historical constants; simOptions() layers environment
 * overrides on top once per process. Tests and benches construct
 * their own to probe a specific fusion shape.
 */
struct SimOptions
{
    /**
     * Cap on the qubits one fused phase table may span — both the
     * CP/CZ common-qubit runs (control count) and the general
     * diagonal runs (involved-qubit count). The table holds 2^cap
     * complex entries, so this is the cache-residency knob: 12 keeps
     * the table at 64 KiB (two 32 KiB component arrays), L2-resident
     * on everything we target. Environment override:
     * JIGSAW_PHASE_TABLE_MAX_QUBITS (clamped to [1, 24]).
     */
    int phaseTableMaxQubits = 12;

    /** Cap on the gates composed into one diagonal-run table build
     *  (bounds the build cost, which is serial). */
    std::size_t maxFusedDiagGates = 64;

    /**
     * Fuse a general diagonal run only when the unfused sweeps it
     * replaces cost more than this many full-register passes (RZZ
     * counts 1.0, CP/CZ 0.25). Raising it biases toward the cheaper
     * specialized kernels; 0 fuses every eligible run.
     */
    double diagFuseCostThreshold = 1.0;

    /** Minimum two-qubit diagonals in a run before fusing pays. */
    std::size_t diagFuseMinTwoQubit = 2;
};

/**
 * Process-wide simulation options: the defaults above with
 * environment overrides applied, resolved once at first use.
 */
const SimOptions &simOptions();

/** Fill @p m with the 2x2 unitary of the single-qubit @p gate. */
void gateMatrix1q(const circuit::Gate &gate, std::complex<double> m[2][2]);

/** KernelTable::apply1q: a general 2x2 matrix on the pairs of @p stride. */
struct Matrix1qOp
{
    std::uint64_t stride;
    simd::Mat2Split m;
};

/** KernelTable::apply1qDiag: diag(d0, d1) on the pairs of @p stride. */
struct Diagonal1qOp
{
    std::uint64_t stride;
    std::complex<double> d0;
    std::complex<double> d1;
    bool d0IsOne; ///< The 0-stratum is left untouched.
};

/** KernelTable::quadPhase: @p phase on the @p setMask stratum (CP/CZ). */
struct QuadPhaseOp
{
    std::uint64_t sLo;
    std::uint64_t sHi;
    std::uint64_t setMask;
    std::complex<double> phase;
};

/** KernelTable::quadSwap: strata @p maskA and @p maskB trade (CX/SWAP). */
struct QuadSwapOp
{
    std::uint64_t sLo;
    std::uint64_t sHi;
    std::uint64_t maskA;
    std::uint64_t maskB;
};

/** KernelTable::phasePair: the RZZ phases on qubits @p q0, @p q1. */
struct PhasePairOp
{
    int q0;
    int q1;
    std::complex<double> even;
    std::complex<double> odd;
};

/** KernelTable::stratumPhaseTable: a fused CP/CZ run on @p target's
 *  1-stratum, indexed by the @p controls bits. */
struct StratumTableOp
{
    std::uint64_t target;
    std::uint64_t controls;
    std::vector<double> tabRe;
    std::vector<double> tabIm;
};

/** KernelTable::phaseTable: a fused diagonal run indexed by @p mask. */
struct PhaseTableOp
{
    std::uint64_t mask;
    std::vector<double> tabRe;
    std::vector<double> tabIm;
};

/** One KernelTable call without its index range. */
using KernelOp = std::variant<Matrix1qOp, Diagonal1qOp, QuadPhaseOp,
                              QuadSwapOp, PhasePairOp, StratumTableOp,
                              PhaseTableOp>;

/**
 * The strides of @p op's index space, OR'd: the amplitude-index bits
 * its kernel inserts zeros at (one bit for the pair kernels, two for
 * the quad kernels, none for the kernels indexed by amplitude).
 */
std::uint64_t kernelStrides(const KernelOp &op);

/** Kernel indices covering a whole register of @p n_qubits. */
inline std::uint64_t
kernelExtent(const KernelOp &op, int n_qubits)
{
    return std::uint64_t{1}
           << (n_qubits - std::popcount(kernelStrides(op)));
}

/** Run @p op with table @p K over kernel indices [lo, hi). */
void runKernel(const KernelOp &op, const simd::KernelTable &K, double *re,
               double *im, std::uint64_t lo, std::uint64_t hi);

/** Receives the ops of a lowering, in application order. */
using KernelSink = std::function<void(KernelOp &&)>;

/** Lower one unitary gate, unfused (BARRIER lowers to nothing). */
void lowerGate(const circuit::Gate &gate, const KernelSink &sink);

/** Lower every unitary gate of @p qc (measures skipped), fused. */
void lowerCircuit(const circuit::QuantumCircuit &qc,
                  const SimOptions &options, const KernelSink &sink);

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_KERNEL_OPS_H
