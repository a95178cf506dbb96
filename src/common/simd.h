/**
 * @file
 * Split-complex (structure-of-arrays) amplitude kernels, and the one
 * real-valued outcome-distribution kernel, with SIMD dispatch.
 *
 * The state vector stores real and imaginary parts in two separate
 * double arrays so 4-wide AVX2 lanes map directly onto amplitude
 * components (no interleaved-complex shuffling in the inner loop).
 * Every hot amplitude loop is expressed as a kernel over a pair/quad
 * index range. The channel-mode outcome distribution P'
 * (sim::noisyOutcomeDistribution) runs through the same table: its
 * gate-failure flips, readout flips and correlated-pair flips are all
 * one stochasticPair kernel over a dense real vector. Each kernel has
 * interchangeable implementations:
 *
 *  - scalar (src/common/simd.cpp): portable C++, always compiled, the
 *    golden fallback;
 *  - AVX2+FMA (src/common/simd_avx2.cpp): compiled with -mavx2 -mfma
 *    when the compiler supports it and the JIGSAW_NO_SIMD CMake
 *    option is off;
 *  - AVX-512 (src/common/simd_avx512.cpp): 8-lane kernels compiled
 *    with -mavx512f -mavx512dq under the same CMake gate, deferring
 *    to the AVX2 (or scalar) table for strides too short for a full
 *    512-bit lane.
 *
 * Selection happens once at process start: the widest table that was
 * compiled in and that the CPU reports support for wins (AVX-512 over
 * AVX2 over scalar), unless the JIGSAW_NO_SIMD environment variable
 * is set to a non-zero value, which forces scalar. All tables produce
 * identical distributions (asserted by test_perf_equivalence), so the
 * choice is purely a speed matter.
 */
#ifndef JIGSAW_COMMON_SIMD_H
#define JIGSAW_COMMON_SIMD_H

#include <cstdint>

namespace jigsaw {
namespace simd {

/**
 * Spread the low bits of @p x upward so the bit at the position of
 * @p stride (a power of two) is zero: the enumeration primitive for
 * visiting each strided amplitude pair exactly once.
 */
inline std::uint64_t
insertZero(std::uint64_t x, std::uint64_t stride)
{
    return ((x & ~(stride - 1)) << 1) | (x & (stride - 1));
}

/** A 2x2 complex matrix split into components, row-major m00..m11. */
struct Mat2Split
{
    double re[4];
    double im[4];
};

/**
 * A real 2x2 matrix, row-major m[0]..m[3]: the column-stochastic map
 * of one outcome-distribution pass.
 */
struct Mat2Real
{
    double m[4];
};

/**
 * One implementation of every kernel. All kernels operate on
 * split real/imaginary arrays and cover the half-open index range
 * [k_lo, k_hi) so callers can shard them across the thread pool;
 * disjoint ranges touch disjoint amplitudes.
 */
struct KernelTable
{
    /** Implementation name ("scalar" or "avx2") for diagnostics. */
    const char *name;

    /**
     * General 2x2 unitary over amplitude pairs: for each pair index k,
     * i0 = insertZero(k, stride), i1 = i0 | stride, and (a[i0], a[i1])
     * is replaced by m * (a[i0], a[i1]).
     */
    void (*apply1q)(double *re, double *im, std::uint64_t stride,
                    std::uint64_t k_lo, std::uint64_t k_hi,
                    const Mat2Split &m);

    /**
     * Diagonal 2x2: multiply the 0-stratum by d0 and the 1-stratum by
     * d1. When @p d0_is_one the 0-stratum is untouched (Z/S/T/RZ).
     */
    void (*apply1qDiag)(double *re, double *im, std::uint64_t stride,
                        std::uint64_t k_lo, std::uint64_t k_hi,
                        double d0_re, double d0_im, double d1_re,
                        double d1_im, bool d0_is_one);

    /**
     * Multiply the quad stratum a[insertZero2(k) | set_mask] by the
     * phase (p_re, p_im); insertZero2 spreads k over both strides.
     */
    void (*quadPhase)(double *re, double *im, std::uint64_t s_lo,
                      std::uint64_t s_hi, std::uint64_t set_mask,
                      std::uint64_t k_lo, std::uint64_t k_hi, double p_re,
                      double p_im);

    /** Swap a[insertZero2(k) | mask_a] with a[insertZero2(k) | mask_b]. */
    void (*quadSwap)(double *re, double *im, std::uint64_t s_lo,
                     std::uint64_t s_hi, std::uint64_t mask_a,
                     std::uint64_t mask_b, std::uint64_t k_lo,
                     std::uint64_t k_hi);

    /**
     * RZZ structure: multiply a[k] by `even` where bits q0 and q1 of k
     * agree and by `odd` where they differ, over k in [k_lo, k_hi).
     */
    void (*phasePair)(double *re, double *im, int q0, int q1,
                      std::uint64_t k_lo, std::uint64_t k_hi,
                      double even_re, double even_im, double odd_re,
                      double odd_im);

    /**
     * Fused controlled-phase run: for every stratum element index k in
     * [k_lo, k_hi), i = insertZero(k, q_mask) | q_mask (the target-
     * bit-set stratum) is multiplied by table[t] where t gathers the
     * bits of i selected by @p control_mask (ascending bit order —
     * the PEXT operation). The table has 2^popcount(control_mask)
     * complex entries and encodes the tensor product of the fused
     * gates' per-control phases. q_mask must not be in control_mask.
     */
    void (*stratumPhaseTable)(double *re, double *im,
                              std::uint64_t q_mask,
                              std::uint64_t control_mask,
                              const double *tab_re, const double *tab_im,
                              std::uint64_t k_lo, std::uint64_t k_hi);

    /**
     * Full-register diagonal phase table: every amplitude index k in
     * [k_lo, k_hi) is multiplied by table[t] where t gathers the bits
     * of k selected by @p mask (ascending bit order — PEXT). The
     * table has 2^popcount(mask) complex entries and encodes the
     * product of the phases of a fused run of diagonal gates (RZ/RZZ/
     * CP/CZ/Z/S/T...) over the masked qubits — the stratumPhaseTable
     * structure without the target-stratum restriction, which a run
     * containing RZ or RZZ needs because those gates phase *every*
     * stratum of their qubits.
     */
    void (*phaseTable)(double *re, double *im, std::uint64_t mask,
                       const double *tab_re, const double *tab_im,
                       std::uint64_t k_lo, std::uint64_t k_hi);

    /** Sum of re[i]^2 + im[i]^2 over [lo, hi). */
    double (*norm2)(const double *re, const double *im, std::uint64_t lo,
                    std::uint64_t hi);

    /**
     * Stochastic 2x2 over the partner pairs of a dense real vector:
     * for every i in [lo, hi) whose bit a (the lowest set bit of
     * @p mask) is clear, with j = i ^ mask,
     *   v[i] = m[0] * v[i] + m[1] * v[j],
     *   v[j] = m[2] * v[i] + m[3] * v[j]   (both from the old values),
     * each product and sum rounded on its own, so every table yields
     * the same bits. A one-bit mask is a bit flip (readout or
     * gate-failure), a two-bit mask a correlated pair flip. The
     * partner j may lie outside [lo, hi); pairs are visited once, from
     * their bit-a-clear end.
     */
    void (*stochasticPair)(double *v, std::uint64_t mask, std::uint64_t lo,
                           std::uint64_t hi, const Mat2Real &m);
};

/** The portable scalar kernels (always available). */
const KernelTable &scalarKernels();

/**
 * The AVX2 kernels, or nullptr when this build has no AVX2 translation
 * unit (JIGSAW_NO_SIMD build, or a compiler without -mavx2).
 */
const KernelTable *avx2Kernels();

/**
 * The AVX-512 kernels, or nullptr when this build has no AVX-512
 * translation unit (JIGSAW_NO_SIMD build, or a compiler without
 * -mavx512f -mavx512dq). Callers must still check cpuid before
 * routing work here — activeKernels() does.
 */
const KernelTable *avx512Kernels();

/**
 * The table every StateVector uses, resolved once: the widest of
 * AVX-512 / AVX2 that was compiled in and that this CPU supports, and
 * scalar otherwise or when the JIGSAW_NO_SIMD environment variable is
 * set.
 */
const KernelTable &activeKernels();

/** @name Kernel-backend dispatch counters.
 *
 * Process-wide relaxed-atomic counts of kernel invocations per
 * (kernel, backend) pair, incremented by the backend that actually
 * executes the loop body — an AVX-512 entry that defers a short
 * stride to AVX2 or scalar counts under the table that ran, so the
 * counters answer "did the wide path actually execute?" (the gather
 * phase tables in particular). One invocation is one kernel call,
 * typically a thread-pool chunk of >= 2^14 elements, so the counting
 * cost is noise. Snapshots surface through ExecutorCounters,
 * obs::ProcessCounters and the JIGSAW_SUITE_TIMINGS_JSON export.
 * @{ */

/** Kernel identifiers, one per KernelTable entry. */
enum Kernel : int
{
    kApply1q = 0,
    kApply1qDiag,
    kQuadPhase,
    kQuadSwap,
    kPhasePair,
    kStratumPhaseTable,
    kPhaseTable,
    kNorm2,
    kStochasticPair,
    kKernelCount
};

/** Backend identifiers (which table's implementation ran). */
enum Backend : int
{
    kBackendScalar = 0,
    kBackendAvx2,
    kBackendAvx512,
    kBackendCount
};

/** Short stable name for JSON keys ("phase_table", ...). */
const char *kernelName(int kernel);

/** Short stable name ("scalar", "avx2", "avx512"). */
const char *backendName(int backend);

/** A snapshot of the process-wide dispatch counts. */
struct DispatchCounters
{
    std::uint64_t counts[kKernelCount][kBackendCount] = {};

    /** Total invocations that ran under @p backend. */
    std::uint64_t backendTotal(int backend) const
    {
        std::uint64_t total = 0;
        for (int k = 0; k < kKernelCount; ++k)
            total += counts[k][backend];
        return total;
    }

    /** Element-wise difference against an earlier snapshot. */
    DispatchCounters since(const DispatchCounters &earlier) const
    {
        DispatchCounters delta;
        for (int k = 0; k < kKernelCount; ++k)
            for (int b = 0; b < kBackendCount; ++b)
                delta.counts[k][b] =
                    counts[k][b] - earlier.counts[k][b];
        return delta;
    }
};

/** Snapshot the counters (relaxed loads; safe concurrent to kernels). */
DispatchCounters dispatchCounters();

/** Zero the counters (bench/test isolation; not thread-fenced). */
void resetDispatchCounters();

namespace detail {
/** Record one invocation; called by the backend that runs the loop. */
void countDispatch(int kernel, int backend);
} // namespace detail
/** @} */

} // namespace simd
} // namespace jigsaw

#endif // JIGSAW_COMMON_SIMD_H
