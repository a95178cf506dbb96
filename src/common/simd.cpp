/**
 * @file
 * Portable scalar kernels and the one-time backend selection.
 */
#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdlib>

namespace jigsaw {
namespace simd {

namespace {

using U64 = std::uint64_t;

/** The process-wide (kernel, backend) invocation counts. */
std::atomic<std::uint64_t> g_dispatch[kKernelCount][kBackendCount];

constexpr const char *kKernelNames[kKernelCount] = {
    "apply1q",
    "apply1q_diag",
    "quad_phase",
    "quad_swap",
    "phase_pair",
    "stratum_phase_table",
    "phase_table",
    "norm2",
    "stochastic_pair",
};

constexpr const char *kBackendNames[kBackendCount] = {
    "scalar",
    "avx2",
    "avx512",
};

inline U64
insertZero2(U64 k, U64 s_lo, U64 s_hi)
{
    return insertZero(insertZero(k, s_lo), s_hi);
}

void
scalarApply1q(double *re, double *im, U64 stride, U64 k_lo, U64 k_hi,
              const Mat2Split &m)
{
    detail::countDispatch(kApply1q, kBackendScalar);
    for (U64 k = k_lo; k < k_hi; ++k) {
        const U64 i0 = insertZero(k, stride);
        const U64 i1 = i0 | stride;
        const double a0r = re[i0], a0i = im[i0];
        const double a1r = re[i1], a1i = im[i1];
        re[i0] = m.re[0] * a0r - m.im[0] * a0i + m.re[1] * a1r -
                 m.im[1] * a1i;
        im[i0] = m.re[0] * a0i + m.im[0] * a0r + m.re[1] * a1i +
                 m.im[1] * a1r;
        re[i1] = m.re[2] * a0r - m.im[2] * a0i + m.re[3] * a1r -
                 m.im[3] * a1i;
        im[i1] = m.re[2] * a0i + m.im[2] * a0r + m.re[3] * a1i +
                 m.im[3] * a1r;
    }
}

void
scalarApply1qDiag(double *re, double *im, U64 stride, U64 k_lo, U64 k_hi,
                  double d0r, double d0i, double d1r, double d1i,
                  bool d0_is_one)
{
    detail::countDispatch(kApply1qDiag, kBackendScalar);
    for (U64 k = k_lo; k < k_hi; ++k) {
        const U64 i0 = insertZero(k, stride);
        const U64 i1 = i0 | stride;
        if (!d0_is_one) {
            const double a0r = re[i0], a0i = im[i0];
            re[i0] = d0r * a0r - d0i * a0i;
            im[i0] = d0r * a0i + d0i * a0r;
        }
        const double a1r = re[i1], a1i = im[i1];
        re[i1] = d1r * a1r - d1i * a1i;
        im[i1] = d1r * a1i + d1i * a1r;
    }
}

void
scalarQuadPhase(double *re, double *im, U64 s_lo, U64 s_hi, U64 set_mask,
                U64 k_lo, U64 k_hi, double p_re, double p_im)
{
    detail::countDispatch(kQuadPhase, kBackendScalar);
    for (U64 k = k_lo; k < k_hi; ++k) {
        const U64 i = insertZero2(k, s_lo, s_hi) | set_mask;
        const double ar = re[i], ai = im[i];
        re[i] = p_re * ar - p_im * ai;
        im[i] = p_re * ai + p_im * ar;
    }
}

void
scalarQuadSwap(double *re, double *im, U64 s_lo, U64 s_hi, U64 mask_a,
               U64 mask_b, U64 k_lo, U64 k_hi)
{
    detail::countDispatch(kQuadSwap, kBackendScalar);
    for (U64 k = k_lo; k < k_hi; ++k) {
        const U64 base = insertZero2(k, s_lo, s_hi);
        const U64 ia = base | mask_a;
        const U64 ib = base | mask_b;
        const double tr = re[ia], ti = im[ia];
        re[ia] = re[ib];
        im[ia] = im[ib];
        re[ib] = tr;
        im[ib] = ti;
    }
}

void
scalarPhasePair(double *re, double *im, int q0, int q1, U64 k_lo, U64 k_hi,
                double even_re, double even_im, double odd_re,
                double odd_im)
{
    detail::countDispatch(kPhasePair, kBackendScalar);
    const double pr[2] = {even_re, odd_re};
    const double pi[2] = {even_im, odd_im};
    for (U64 k = k_lo; k < k_hi; ++k) {
        const U64 bit = ((k >> q0) ^ (k >> q1)) & 1ULL;
        const double ar = re[k], ai = im[k];
        re[k] = pr[bit] * ar - pi[bit] * ai;
        im[k] = pr[bit] * ai + pi[bit] * ar;
    }
}

/** Gather the bits of @p x selected by @p mask (ascending; PEXT). */
inline U64
extractByMask(U64 x, U64 mask)
{
    U64 r = 0;
    int j = 0;
    while (mask != 0) {
        const U64 low = mask & (~mask + 1);
        if ((x & low) != 0)
            r |= 1ULL << j;
        ++j;
        mask ^= low;
    }
    return r;
}

void
scalarStratumPhaseTable(double *re, double *im, U64 q_mask,
                        U64 control_mask, const double *tab_re,
                        const double *tab_im, U64 k_lo, U64 k_hi)
{
    detail::countDispatch(kStratumPhaseTable, kBackendScalar);
    if (control_mask < q_mask &&
        (control_mask & (control_mask + 1)) == 0) {
        // Contiguous low controls: the table index is just the low
        // bits of the stratum index, so each q_mask-aligned block
        // walks the table in order (block length == table size).
        for (U64 k = k_lo; k < k_hi; ++k) {
            const U64 i = insertZero(k, q_mask) | q_mask;
            const U64 t = i & control_mask;
            const double ar = re[i], ai = im[i];
            re[i] = tab_re[t] * ar - tab_im[t] * ai;
            im[i] = tab_re[t] * ai + tab_im[t] * ar;
        }
        return;
    }
    for (U64 k = k_lo; k < k_hi; ++k) {
        const U64 i = insertZero(k, q_mask) | q_mask;
        const U64 t = extractByMask(i, control_mask);
        const double ar = re[i], ai = im[i];
        re[i] = tab_re[t] * ar - tab_im[t] * ai;
        im[i] = tab_re[t] * ai + tab_im[t] * ar;
    }
}

void
scalarPhaseTable(double *re, double *im, U64 mask, const double *tab_re,
                 const double *tab_im, U64 k_lo, U64 k_hi)
{
    detail::countDispatch(kPhaseTable, kBackendScalar);
    if ((mask & (mask + 1)) == 0) {
        // Contiguous low mask: the table index is just the low bits
        // of the amplitude index, so the table is walked in order.
        for (U64 k = k_lo; k < k_hi; ++k) {
            const U64 t = k & mask;
            const double ar = re[k], ai = im[k];
            re[k] = tab_re[t] * ar - tab_im[t] * ai;
            im[k] = tab_re[t] * ai + tab_im[t] * ar;
        }
        return;
    }
    for (U64 k = k_lo; k < k_hi; ++k) {
        const U64 t = extractByMask(k, mask);
        const double ar = re[k], ai = im[k];
        re[k] = tab_re[t] * ar - tab_im[t] * ai;
        im[k] = tab_re[t] * ai + tab_im[t] * ar;
    }
}

double
scalarNorm2(const double *re, const double *im, U64 lo, U64 hi)
{
    detail::countDispatch(kNorm2, kBackendScalar);
    double total = 0.0;
    for (U64 i = lo; i < hi; ++i)
        total += re[i] * re[i] + im[i] * im[i];
    return total;
}

void
scalarStochasticPair(double *v, U64 mask, U64 lo, U64 hi, const Mat2Real &m)
{
    detail::countDispatch(kStochasticPair, kBackendScalar);
    // Indices with bit a clear come in runs of s = 2^a, each paired
    // with the contiguous run at i ^ mask (mask has no bit below a).
    const U64 s = mask & (~mask + 1);
    U64 i = (lo & s) != 0 ? (lo | (s - 1)) + 1 : lo;
    for (; i < hi; i = (i | (s - 1)) + 1 + s) {
        const U64 n = std::min(hi, (i | (s - 1)) + 1) - i;
        double *x = v + i;
        double *y = v + (i ^ mask);
        for (U64 j = 0; j < n; ++j) {
            const double a = x[j];
            const double b = y[j];
            x[j] = m.m[0] * a + m.m[1] * b;
            y[j] = m.m[2] * a + m.m[3] * b;
        }
    }
}

const KernelTable scalarTable = {
    "scalar",
    scalarApply1q,
    scalarApply1qDiag,
    scalarQuadPhase,
    scalarQuadSwap,
    scalarPhasePair,
    scalarStratumPhaseTable,
    scalarPhaseTable,
    scalarNorm2,
    scalarStochasticPair,
};

bool
simdDisabledByEnv()
{
    const char *env = std::getenv("JIGSAW_NO_SIMD");
    return env != nullptr && env[0] != '\0' && !(env[0] == '0' &&
                                                 env[1] == '\0');
}

} // namespace

const KernelTable &
scalarKernels()
{
    return scalarTable;
}

const char *
kernelName(int kernel)
{
    return kernel >= 0 && kernel < kKernelCount ? kKernelNames[kernel]
                                                : "unknown";
}

const char *
backendName(int backend)
{
    return backend >= 0 && backend < kBackendCount
               ? kBackendNames[backend]
               : "unknown";
}

DispatchCounters
dispatchCounters()
{
    DispatchCounters snapshot;
    for (int k = 0; k < kKernelCount; ++k)
        for (int b = 0; b < kBackendCount; ++b)
            snapshot.counts[k][b] =
                g_dispatch[k][b].load(std::memory_order_relaxed);
    return snapshot;
}

void
resetDispatchCounters()
{
    for (auto &row : g_dispatch)
        for (auto &cell : row)
            cell.store(0, std::memory_order_relaxed);
}

namespace detail {

void
countDispatch(int kernel, int backend)
{
    g_dispatch[kernel][backend].fetch_add(1, std::memory_order_relaxed);
}

} // namespace detail

#ifndef JIGSAW_HAVE_AVX2
const KernelTable *
avx2Kernels()
{
    return nullptr;
}
#endif

#ifndef JIGSAW_HAVE_AVX512
const KernelTable *
avx512Kernels()
{
    return nullptr;
}
#endif

const KernelTable &
activeKernels()
{
    static const KernelTable *active = [] {
        if (simdDisabledByEnv())
            return &scalarTable;
#if defined(__GNUC__) || defined(__clang__)
        // The AVX-512 table also executes PEXT (and may defer to the
        // AVX2 table), so BMI2 must be present too.
        const KernelTable *avx512 = avx512Kernels();
        if (avx512 != nullptr && __builtin_cpu_supports("avx512f") &&
            __builtin_cpu_supports("avx512dq") &&
            __builtin_cpu_supports("bmi2")) {
            return avx512;
        }
        const KernelTable *avx2 = avx2Kernels();
        if (avx2 != nullptr && __builtin_cpu_supports("avx2") &&
            __builtin_cpu_supports("bmi2")) {
            return avx2;
        }
#endif
        return &scalarTable;
    }();
    return *active;
}

} // namespace simd
} // namespace jigsaw
