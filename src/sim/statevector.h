/**
 * @file
 * Exact state-vector simulator.
 *
 * Holds 2^n complex amplitudes and applies gates in place. Practical
 * up to ~24 qubits, which covers every benchmark in the paper (the
 * largest is Graycode-18).
 *
 * Amplitudes are stored split (structure-of-arrays: one real and one
 * imaginary double array) so the hot loops run through the SIMD
 * kernel table in common/simd.h. Gates reach the state as KernelOps
 * (sim/kernel_ops.h), which also holds the gate fusion.
 *
 * The register is evolved in blocks of 2^kBlockBits amplitudes and
 * a per-block occupancy bitmap marks the blocks that may hold a
 * non-zero amplitude (block 0 only, at |0...0>). An op whose strides
 * all lie inside a block is queued; a run of such ops is then applied
 * block by block, to occupied blocks only, so each block goes through
 * the whole run while it is in cache. An op striding across blocks
 * (a gate on a high qubit) runs per group of blocks that differ only
 * in its high bits, skips groups with no occupied block, and moves
 * occupancy: a mixing op ORs it over the group, a block permutation
 * (X/Y on a high qubit, CX/SWAP on high qubits only) permutes it, and
 * a diagonal op leaves it. Reads visit occupied blocks only. Every
 * amplitude goes through the same kernels in the same order as one
 * full-register call per op, so the non-zero amplitudes are bit for
 * bit those of an unblocked evolution; block-aligned ranges also make
 * them independent of the thread-pool size.
 *
 * The amplitude arrays are calloc'd, so pages of blocks the evolution
 * never occupies are never written and, for an allocation the C
 * library maps fresh, never faulted in. A copy allocates the same way
 * and copies the occupied blocks only; the rest are zero on both
 * sides.
 */
#ifndef JIGSAW_SIM_STATEVECTOR_H
#define JIGSAW_SIM_STATEVECTOR_H

#include <complex>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <span>
#include <vector>

#include "circuit/circuit.h"
#include "common/histogram.h"
#include "sim/kernel_ops.h"

namespace jigsaw {
namespace sim {

/**
 * The quantum state of an n-qubit register, initialized to |0...0>.
 */
class StateVector
{
  public:
    using Amplitude = std::complex<double>;

    /**
     * log2 of the amplitudes per block (16 KiB of split amplitudes,
     * L1-resident), chosen by the sweep in docs/performance.md.
     * A register of at most this many qubits is one block and
     * applies each op at once.
     */
    static constexpr int kBlockBits = 10;

    /** Construct |0...0> over @p n_qubits qubits. */
    explicit StateVector(int n_qubits);

    /** A deep copy: same amplitudes and occupancy. */
    StateVector(const StateVector &other);
    StateVector(StateVector &&) noexcept = default;
    StateVector &operator=(StateVector &&) noexcept = default;

    /** Number of qubits. */
    int nQubits() const { return nQubits_; }

    /** Apply a unitary gate (MEASURE is rejected, BARRIER ignored). */
    void applyGate(const circuit::Gate &gate);

    /** Apply every unitary gate of @p qc in order (measures skipped),
     *  fusing runs per the process-wide simOptions(). */
    void applyCircuit(const circuit::QuantumCircuit &qc);

    /** As above with explicit fusion tunables. */
    void applyCircuit(const circuit::QuantumCircuit &qc,
                      const SimOptions &options);

    /** Amplitude of basis state @p basis. */
    Amplitude amplitude(BasisState basis) const;

    /** Born probability of basis state @p basis. */
    double probability(BasisState basis) const;

    /** Sum of |amplitude|^2 (1 up to round-off for a valid state). */
    double norm() const;

    /**
     * Distribution of measurement outcomes over the given qubits:
     * bit j of each outcome key is qubit @p qubits[j]. Entries below
     * @p threshold are dropped to keep the PMF sparse.
     */
    Pmf measurementPmf(const std::vector<int> &qubits,
                       double threshold = 1e-14) const;

    /** Apply a Pauli operator (X=1, Y=2, Z=3) to qubit @p q. */
    void applyPauli(int pauli, int q);

    /** Real amplitude components, indexed by basis state. */
    std::span<const double> reals() const { return {re_.get(), dim()}; }

    /** Imaginary amplitude components, indexed by basis state. */
    std::span<const double> imags() const { return {im_.get(), dim()}; }

  private:
    struct FreeDeleter
    {
        void operator()(double *p) const { std::free(p); }
    };
    /** calloc'd doubles: all +0, the pages mapped on first write. */
    using Storage = std::unique_ptr<double[], FreeDeleter>;

    /** @p n zeroed doubles; throws std::bad_alloc on failure. */
    static Storage zeroedStorage(std::size_t n);

    /** Number of amplitudes, 2^n. */
    std::size_t dim() const { return std::size_t{1} << nQubits_; }

    /** Queue @p op on @p run, or flush @p run and apply @p op per
     *  block group when it strides across blocks (a one-block
     *  register applies it at once). */
    void enqueue(KernelOp &&op, std::vector<KernelOp> &run);
    /** Apply the queued block-local @p run to occupied blocks; clears
     *  it. */
    void applyRun(std::vector<KernelOp> &run);
    /** Apply @p op, which strides across blocks, per block group. */
    void applyGrouped(const KernelOp &op);
    /** Call @p fn(lo, hi) on each occupied block's amplitude range
     *  in ascending order (each block when @p every). */
    template <typename Fn> void forEachBlock(bool every, Fn &&fn) const;

    int nQubits_;
    int blockBits_; ///< log2 amplitudes per block: min(n, kBlockBits).
    Storage re_;
    Storage im_;
    /** Per block: 1 if it may hold a non-zero amplitude. */
    std::vector<std::uint8_t> occupied_;
};

} // namespace sim
} // namespace jigsaw

#endif // JIGSAW_SIM_STATEVECTOR_H
