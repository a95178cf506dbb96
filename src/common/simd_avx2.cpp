/**
 * @file
 * AVX2+FMA amplitude kernels over split real/imaginary arrays.
 *
 * This translation unit is compiled with -mavx2 -mfma (see the
 * top-level CMakeLists.txt) and is excluded entirely when the
 * JIGSAW_NO_SIMD option is on, so the rest of the library stays
 * buildable for the baseline x86-64 target; activeKernels() only
 * routes here after a runtime cpuid check.
 *
 * Addressing: pair strides >= 4 give contiguous 4-lane runs inside
 * each stride block; strides 1 and 2 are handled with in-register
 * deinterleave shuffles so the low-qubit gates vectorize too. Quad
 * kernels vectorize contiguous runs when the smaller stride is >= 4
 * and defer to the scalar table otherwise.
 */
#include "common/simd.h"

#ifdef JIGSAW_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace jigsaw {
namespace simd {

namespace {

using U64 = std::uint64_t;

inline U64
insertZero2(U64 k, U64 s_lo, U64 s_hi)
{
    return insertZero(insertZero(k, s_lo), s_hi);
}

/** (ar, ai) *= (cr, ci), 4 complex values per call. */
inline void
complexScale4(__m256d &ar, __m256d &ai, __m256d cr, __m256d ci)
{
    const __m256d nr = _mm256_fnmadd_pd(ci, ai, _mm256_mul_pd(cr, ar));
    const __m256d ni = _mm256_fmadd_pd(ci, ar, _mm256_mul_pd(cr, ai));
    ar = nr;
    ai = ni;
}

/**
 * Per-lane table-index stream for the gather phase tables — the
 * 4-lane analogue of the AVX-512 version. With the base amplitude
 * index 4-aligned, the low two bits of each lane's index equal the
 * lane number, so PEXT(index, mask) splits into a per-lane constant
 * (PEXT(lane, mask & 3), precomputed) OR'd with one scalar PEXT of
 * the high mask bits per 4 amplitudes; the table lookup becomes one
 * vgatherqpd per component.
 */
struct LaneIndexStream4
{
    __m256i lane;   ///< PEXT(lane, mask & 3), lane = 0..3.
    U64 mask_hi;    ///< mask & ~3.
    unsigned pc_lo; ///< popcount(mask & 3).

    explicit LaneIndexStream4(U64 mask)
        : mask_hi(mask & ~3ULL),
          pc_lo(static_cast<unsigned>(
              __builtin_popcountll(mask & 3ULL)))
    {
        alignas(32) long long lanes[4];
        for (long long l = 0; l < 4; ++l)
            lanes[l] = static_cast<long long>(
                _pext_u64(static_cast<U64>(l), mask & 3ULL));
        lane = _mm256_load_si256(reinterpret_cast<const __m256i *>(lanes));
    }

    /** Table indices of the 4 amplitudes at 4-aligned index @p i0. */
    __m256i indices(U64 i0) const
    {
        const U64 base = _pext_u64(i0, mask_hi) << pc_lo;
        return _mm256_or_si256(
            lane, _mm256_set1_epi64x(static_cast<long long>(base)));
    }
};

/** Gather table[idx] and multiply 4 contiguous amplitudes by it. */
inline void
gatherScale4(double *re, double *im, const double *tab_re,
             const double *tab_im, __m256i idx)
{
    // Masked form with an explicit zero source: same full-lane
    // gather, but avoids the undefined pass-through operand of the
    // unmasked intrinsic (and the -Wmaybe-uninitialized noise GCC
    // emits for it).
    const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    const __m256d cr = _mm256_mask_i64gather_pd(_mm256_setzero_pd(),
                                                tab_re, idx, ones, 8);
    const __m256d ci = _mm256_mask_i64gather_pd(_mm256_setzero_pd(),
                                                tab_im, idx, ones, 8);
    __m256d ar = _mm256_loadu_pd(re);
    __m256d ai = _mm256_loadu_pd(im);
    complexScale4(ar, ai, cr, ci);
    _mm256_storeu_pd(re, ar);
    _mm256_storeu_pd(im, ai);
}

/** Multiply the @p n complex values at (re, im) by (cr, ci). */
inline void
scaleRun(double *re, double *im, U64 n, __m256d cr, __m256d ci, double sr,
         double si)
{
    U64 v = 0;
    for (; v + 4 <= n; v += 4) {
        __m256d ar = _mm256_loadu_pd(re + v);
        __m256d ai = _mm256_loadu_pd(im + v);
        complexScale4(ar, ai, cr, ci);
        _mm256_storeu_pd(re + v, ar);
        _mm256_storeu_pd(im + v, ai);
    }
    for (; v < n; ++v) {
        const double r = re[v], i = im[v];
        re[v] = sr * r - si * i;
        im[v] = sr * i + si * r;
    }
}

/**
 * Visit every pair (i0 = insertZero(k, stride), i1 = i0 | stride) for
 * k in [k_lo, k_hi): @p vec transforms four pairs held in registers,
 * @p scal transforms one pair in memory. Strides 1 and 2 are gathered
 * with shuffles; larger strides load contiguous runs directly.
 */
template <typename VecOp, typename ScalOp>
inline void
forPairs(double *re, double *im, U64 stride, U64 k_lo, U64 k_hi,
         VecOp vec, ScalOp scal)
{
    if (stride == 1) {
        U64 k = k_lo;
        for (; k + 4 <= k_hi; k += 4) {
            double *pr = re + 2 * k;
            double *pi = im + 2 * k;
            const __m256d v0r = _mm256_loadu_pd(pr);
            const __m256d v1r = _mm256_loadu_pd(pr + 4);
            const __m256d v0i = _mm256_loadu_pd(pi);
            const __m256d v1i = _mm256_loadu_pd(pi + 4);
            const __m256d t0r = _mm256_permute2f128_pd(v0r, v1r, 0x20);
            const __m256d t1r = _mm256_permute2f128_pd(v0r, v1r, 0x31);
            const __m256d t0i = _mm256_permute2f128_pd(v0i, v1i, 0x20);
            const __m256d t1i = _mm256_permute2f128_pd(v0i, v1i, 0x31);
            __m256d a0r = _mm256_unpacklo_pd(t0r, t1r);
            __m256d a1r = _mm256_unpackhi_pd(t0r, t1r);
            __m256d a0i = _mm256_unpacklo_pd(t0i, t1i);
            __m256d a1i = _mm256_unpackhi_pd(t0i, t1i);
            vec(a0r, a0i, a1r, a1i);
            const __m256d u0r = _mm256_unpacklo_pd(a0r, a1r);
            const __m256d u1r = _mm256_unpackhi_pd(a0r, a1r);
            const __m256d u0i = _mm256_unpacklo_pd(a0i, a1i);
            const __m256d u1i = _mm256_unpackhi_pd(a0i, a1i);
            _mm256_storeu_pd(pr, _mm256_permute2f128_pd(u0r, u1r, 0x20));
            _mm256_storeu_pd(pr + 4,
                             _mm256_permute2f128_pd(u0r, u1r, 0x31));
            _mm256_storeu_pd(pi, _mm256_permute2f128_pd(u0i, u1i, 0x20));
            _mm256_storeu_pd(pi + 4,
                             _mm256_permute2f128_pd(u0i, u1i, 0x31));
        }
        for (; k < k_hi; ++k)
            scal(2 * k, 2 * k + 1);
        return;
    }
    if (stride == 2) {
        U64 k = k_lo;
        for (; k < k_hi && (k & 3ULL) != 0; ++k) {
            const U64 i0 = insertZero(k, 2);
            scal(i0, i0 | 2);
        }
        // k = 4m maps pairs k..k+3 onto the 8 contiguous amplitudes
        // [8m, 8m + 8): the low half of each load is the 0-stratum.
        for (; k + 4 <= k_hi; k += 4) {
            double *pr = re + 2 * k;
            double *pi = im + 2 * k;
            const __m256d v0r = _mm256_loadu_pd(pr);
            const __m256d v1r = _mm256_loadu_pd(pr + 4);
            const __m256d v0i = _mm256_loadu_pd(pi);
            const __m256d v1i = _mm256_loadu_pd(pi + 4);
            __m256d a0r = _mm256_permute2f128_pd(v0r, v1r, 0x20);
            __m256d a1r = _mm256_permute2f128_pd(v0r, v1r, 0x31);
            __m256d a0i = _mm256_permute2f128_pd(v0i, v1i, 0x20);
            __m256d a1i = _mm256_permute2f128_pd(v0i, v1i, 0x31);
            vec(a0r, a0i, a1r, a1i);
            _mm256_storeu_pd(pr, _mm256_permute2f128_pd(a0r, a1r, 0x20));
            _mm256_storeu_pd(pr + 4,
                             _mm256_permute2f128_pd(a0r, a1r, 0x31));
            _mm256_storeu_pd(pi, _mm256_permute2f128_pd(a0i, a1i, 0x20));
            _mm256_storeu_pd(pi + 4,
                             _mm256_permute2f128_pd(a0i, a1i, 0x31));
        }
        for (; k < k_hi; ++k) {
            const U64 i0 = insertZero(k, 2);
            scal(i0, i0 | 2);
        }
        return;
    }
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end =
            std::min(k_hi, (k & ~(stride - 1)) + stride);
        U64 i0 = insertZero(k, stride);
        for (; k + 4 <= block_end; k += 4, i0 += 4) {
            __m256d a0r = _mm256_loadu_pd(re + i0);
            __m256d a1r = _mm256_loadu_pd(re + i0 + stride);
            __m256d a0i = _mm256_loadu_pd(im + i0);
            __m256d a1i = _mm256_loadu_pd(im + i0 + stride);
            vec(a0r, a0i, a1r, a1i);
            _mm256_storeu_pd(re + i0, a0r);
            _mm256_storeu_pd(re + i0 + stride, a1r);
            _mm256_storeu_pd(im + i0, a0i);
            _mm256_storeu_pd(im + i0 + stride, a1i);
        }
        for (; k < block_end; ++k, ++i0)
            scal(i0, i0 | stride);
    }
}

void
avx2Apply1q(double *re, double *im, U64 stride, U64 k_lo, U64 k_hi,
            const Mat2Split &m)
{
    detail::countDispatch(kApply1q, kBackendAvx2);
    const __m256d m00r = _mm256_set1_pd(m.re[0]);
    const __m256d m00i = _mm256_set1_pd(m.im[0]);
    const __m256d m01r = _mm256_set1_pd(m.re[1]);
    const __m256d m01i = _mm256_set1_pd(m.im[1]);
    const __m256d m10r = _mm256_set1_pd(m.re[2]);
    const __m256d m10i = _mm256_set1_pd(m.im[2]);
    const __m256d m11r = _mm256_set1_pd(m.re[3]);
    const __m256d m11i = _mm256_set1_pd(m.im[3]);
    forPairs(
        re, im, stride, k_lo, k_hi,
        [&](__m256d &a0r, __m256d &a0i, __m256d &a1r, __m256d &a1i) {
            __m256d n0r = _mm256_mul_pd(m00r, a0r);
            n0r = _mm256_fnmadd_pd(m00i, a0i, n0r);
            n0r = _mm256_fmadd_pd(m01r, a1r, n0r);
            n0r = _mm256_fnmadd_pd(m01i, a1i, n0r);
            __m256d n0i = _mm256_mul_pd(m00r, a0i);
            n0i = _mm256_fmadd_pd(m00i, a0r, n0i);
            n0i = _mm256_fmadd_pd(m01r, a1i, n0i);
            n0i = _mm256_fmadd_pd(m01i, a1r, n0i);
            __m256d n1r = _mm256_mul_pd(m10r, a0r);
            n1r = _mm256_fnmadd_pd(m10i, a0i, n1r);
            n1r = _mm256_fmadd_pd(m11r, a1r, n1r);
            n1r = _mm256_fnmadd_pd(m11i, a1i, n1r);
            __m256d n1i = _mm256_mul_pd(m10r, a0i);
            n1i = _mm256_fmadd_pd(m10i, a0r, n1i);
            n1i = _mm256_fmadd_pd(m11r, a1i, n1i);
            n1i = _mm256_fmadd_pd(m11i, a1r, n1i);
            a0r = n0r;
            a0i = n0i;
            a1r = n1r;
            a1i = n1i;
        },
        [&](U64 i0, U64 i1) {
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
        });
}

void
avx2Apply1qDiag(double *re, double *im, U64 stride, U64 k_lo, U64 k_hi,
                double d0r, double d0i, double d1r, double d1i,
                bool d0_is_one)
{
    detail::countDispatch(kApply1qDiag, kBackendAvx2);
    const __m256d v0r = _mm256_set1_pd(d0r);
    const __m256d v0i = _mm256_set1_pd(d0i);
    const __m256d v1r = _mm256_set1_pd(d1r);
    const __m256d v1i = _mm256_set1_pd(d1i);
    if (stride >= 4) {
        // Each stratum is a contiguous run per block; when d0 is the
        // identity the 0-stratum is never even loaded.
        U64 k = k_lo;
        while (k < k_hi) {
            const U64 block_end =
                std::min(k_hi, (k & ~(stride - 1)) + stride);
            const U64 i0 = insertZero(k, stride);
            const U64 n = block_end - k;
            if (!d0_is_one)
                scaleRun(re + i0, im + i0, n, v0r, v0i, d0r, d0i);
            scaleRun(re + (i0 | stride), im + (i0 | stride), n, v1r, v1i,
                     d1r, d1i);
            k = block_end;
        }
        return;
    }
    forPairs(
        re, im, stride, k_lo, k_hi,
        [&](__m256d &a0r, __m256d &a0i, __m256d &a1r, __m256d &a1i) {
            if (!d0_is_one)
                complexScale4(a0r, a0i, v0r, v0i);
            complexScale4(a1r, a1i, v1r, v1i);
        },
        [&](U64 i0, U64 i1) {
            if (!d0_is_one) {
                const double ar = re[i0], ai = im[i0];
                re[i0] = d0r * ar - d0i * ai;
                im[i0] = d0r * ai + d0i * ar;
            }
            const double ar = re[i1], ai = im[i1];
            re[i1] = d1r * ar - d1i * ai;
            im[i1] = d1r * ai + d1i * ar;
        });
}

/**
 * Multiply the @p n odd-offset complex values of the window at
 * (re, im) by (cr, ci): touched elements sit at offsets 1, 3, 5, ...
 */
inline void
scaleOddLanes(double *re, double *im, U64 n, __m256d cr, __m256d ci,
              double sr, double si)
{
    U64 j = 0;
    for (; j + 4 <= n; j += 4) {
        double *pr = re + 2 * j;
        double *pi = im + 2 * j;
        const __m256d v0r = _mm256_loadu_pd(pr);
        const __m256d v1r = _mm256_loadu_pd(pr + 4);
        const __m256d v0i = _mm256_loadu_pd(pi);
        const __m256d v1i = _mm256_loadu_pd(pi + 4);
        const __m256d t0r = _mm256_permute2f128_pd(v0r, v1r, 0x20);
        const __m256d t1r = _mm256_permute2f128_pd(v0r, v1r, 0x31);
        const __m256d t0i = _mm256_permute2f128_pd(v0i, v1i, 0x20);
        const __m256d t1i = _mm256_permute2f128_pd(v0i, v1i, 0x31);
        const __m256d evr = _mm256_unpacklo_pd(t0r, t1r);
        __m256d odr = _mm256_unpackhi_pd(t0r, t1r);
        const __m256d evi = _mm256_unpacklo_pd(t0i, t1i);
        __m256d odi = _mm256_unpackhi_pd(t0i, t1i);
        complexScale4(odr, odi, cr, ci);
        const __m256d u0r = _mm256_unpacklo_pd(evr, odr);
        const __m256d u1r = _mm256_unpackhi_pd(evr, odr);
        const __m256d u0i = _mm256_unpacklo_pd(evi, odi);
        const __m256d u1i = _mm256_unpackhi_pd(evi, odi);
        _mm256_storeu_pd(pr, _mm256_permute2f128_pd(u0r, u1r, 0x20));
        _mm256_storeu_pd(pr + 4, _mm256_permute2f128_pd(u0r, u1r, 0x31));
        _mm256_storeu_pd(pi, _mm256_permute2f128_pd(u0i, u1i, 0x20));
        _mm256_storeu_pd(pi + 4, _mm256_permute2f128_pd(u0i, u1i, 0x31));
    }
    for (; j < n; ++j) {
        const U64 i = 2 * j + 1;
        const double ar = re[i], ai = im[i];
        re[i] = sr * ar - si * ai;
        im[i] = sr * ai + si * ar;
    }
}

/**
 * Multiply the upper halves of @p m 4-double blocks at (re, im) by
 * (cr, ci): touched elements sit at offsets 2, 3, 6, 7, 10, 11, ...
 */
inline void
scaleHighPairs(double *re, double *im, U64 m, __m256d cr, __m256d ci,
               double sr, double si)
{
    U64 b = 0;
    for (; b + 2 <= m; b += 2) {
        double *pr = re + 4 * b;
        double *pi = im + 4 * b;
        const __m256d v0r = _mm256_loadu_pd(pr);
        const __m256d v1r = _mm256_loadu_pd(pr + 4);
        const __m256d v0i = _mm256_loadu_pd(pi);
        const __m256d v1i = _mm256_loadu_pd(pi + 4);
        const __m256d lor = _mm256_permute2f128_pd(v0r, v1r, 0x20);
        __m256d hir = _mm256_permute2f128_pd(v0r, v1r, 0x31);
        const __m256d loi = _mm256_permute2f128_pd(v0i, v1i, 0x20);
        __m256d hii = _mm256_permute2f128_pd(v0i, v1i, 0x31);
        complexScale4(hir, hii, cr, ci);
        _mm256_storeu_pd(pr, _mm256_permute2f128_pd(lor, hir, 0x20));
        _mm256_storeu_pd(pr + 4, _mm256_permute2f128_pd(lor, hir, 0x31));
        _mm256_storeu_pd(pi, _mm256_permute2f128_pd(loi, hii, 0x20));
        _mm256_storeu_pd(pi + 4, _mm256_permute2f128_pd(loi, hii, 0x31));
    }
    for (; b < m; ++b) {
        for (U64 i = 4 * b + 2; i < 4 * b + 4; ++i) {
            const double ar = re[i], ai = im[i];
            re[i] = sr * ar - si * ai;
            im[i] = sr * ai + si * ar;
        }
    }
}

void
avx2QuadPhase(double *re, double *im, U64 s_lo, U64 s_hi, U64 set_mask,
              U64 k_lo, U64 k_hi, double p_re, double p_im)
{
    if (s_lo < 4 && (set_mask & s_lo) == 0) {
        // The low-stride fast paths assume the low stride bit is part
        // of set_mask (true for every controlled-phase caller).
        scalarKernels().quadPhase(re, im, s_lo, s_hi, set_mask, k_lo,
                                  k_hi, p_re, p_im);
        return;
    }
    detail::countDispatch(kQuadPhase, kBackendAvx2);
    const __m256d cr = _mm256_set1_pd(p_re);
    const __m256d ci = _mm256_set1_pd(p_im);
    if (s_lo == 1) {
        // Touched indices advance by 2 inside each s_hi block, so a
        // block is the odd lanes of one contiguous window.
        const U64 run = s_hi >> 1; // quads per block, >= 2
        U64 k = k_lo;
        while (k < k_hi) {
            const U64 block_end = std::min(k_hi, (k & ~(run - 1)) + run);
            const U64 first = insertZero2(k, 1, s_hi) | set_mask;
            scaleOddLanes(re + (first - 1), im + (first - 1),
                          block_end - k, cr, ci, p_re, p_im);
            k = block_end;
        }
        return;
    }
    if (s_lo == 2) {
        // Touched indices are the top halves of consecutive 4-double
        // blocks inside each s_hi block (bit 1 set, bit 0 free).
        const U64 run = s_hi >> 1; // quads per block, even, >= 2
        U64 k = k_lo;
        while (k < k_hi) {
            // Align to a 4-block boundary (k even) scalar-first.
            if ((k & 1ULL) != 0) {
                const U64 i = insertZero2(k, 2, s_hi) | set_mask;
                const double ar = re[i], ai = im[i];
                re[i] = p_re * ar - p_im * ai;
                im[i] = p_re * ai + p_im * ar;
                ++k;
                continue;
            }
            const U64 block_end = std::min(k_hi, (k & ~(run - 1)) + run);
            const U64 whole = (block_end - k) >> 1; // full 4-blocks
            const U64 first = insertZero2(k, 2, s_hi) | set_mask;
            scaleHighPairs(re + (first - 2), im + (first - 2), whole, cr,
                           ci, p_re, p_im);
            k += whole << 1;
            if (k < block_end) { // odd trailing quad
                const U64 i = insertZero2(k, 2, s_hi) | set_mask;
                const double ar = re[i], ai = im[i];
                re[i] = p_re * ar - p_im * ai;
                im[i] = p_re * ai + p_im * ar;
                ++k;
            }
        }
        return;
    }
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end = std::min(k_hi, (k & ~(s_lo - 1)) + s_lo);
        const U64 i = insertZero2(k, s_lo, s_hi) | set_mask;
        scaleRun(re + i, im + i, block_end - k, cr, ci, p_re, p_im);
        k = block_end;
    }
}

void
avx2QuadSwap(double *re, double *im, U64 s_lo, U64 s_hi, U64 mask_a,
             U64 mask_b, U64 k_lo, U64 k_hi)
{
    if (s_lo < 4) {
        scalarKernels().quadSwap(re, im, s_lo, s_hi, mask_a, mask_b, k_lo,
                                 k_hi);
        return;
    }
    detail::countDispatch(kQuadSwap, kBackendAvx2);
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end = std::min(k_hi, (k & ~(s_lo - 1)) + s_lo);
        const U64 base = insertZero2(k, s_lo, s_hi);
        const U64 n = block_end - k;
        for (double *arr : {re, im}) {
            double *pa = arr + (base | mask_a);
            double *pb = arr + (base | mask_b);
            U64 v = 0;
            for (; v + 4 <= n; v += 4) {
                const __m256d va = _mm256_loadu_pd(pa + v);
                const __m256d vb = _mm256_loadu_pd(pb + v);
                _mm256_storeu_pd(pa + v, vb);
                _mm256_storeu_pd(pb + v, va);
            }
            for (; v < n; ++v)
                std::swap(pa[v], pb[v]);
        }
        k = block_end;
    }
}

void
avx2PhasePair(double *re, double *im, int q0, int q1, U64 k_lo, U64 k_hi,
              double even_re, double even_im, double odd_re, double odd_im)
{
    if (q0 < 2 || q1 < 2) {
        scalarKernels().phasePair(re, im, q0, q1, k_lo, k_hi, even_re,
                                  even_im, odd_re, odd_im);
        return;
    }
    detail::countDispatch(kPhasePair, kBackendAvx2);
    // The XOR of bits q0 and q1 is constant over runs of length
    // 2^min(q0, q1) >= 4, so each run is one phase multiply.
    const U64 run = 1ULL << std::min(q0, q1);
    const __m256d cr[2] = {_mm256_set1_pd(even_re),
                           _mm256_set1_pd(odd_re)};
    const __m256d ci[2] = {_mm256_set1_pd(even_im),
                           _mm256_set1_pd(odd_im)};
    const double sr[2] = {even_re, odd_re};
    const double si[2] = {even_im, odd_im};
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 run_end = std::min(k_hi, (k & ~(run - 1)) + run);
        const U64 bit = ((k >> q0) ^ (k >> q1)) & 1ULL;
        scaleRun(re + k, im + k, run_end - k, cr[bit], ci[bit], sr[bit],
                 si[bit]);
        k = run_end;
    }
}

void
avx2StratumPhaseTable(double *re, double *im, U64 q_mask,
                      U64 control_mask, const double *tab_re,
                      const double *tab_im, U64 k_lo, U64 k_hi)
{
    detail::countDispatch(kStratumPhaseTable, kBackendAvx2);
    if (control_mask < q_mask &&
        (control_mask & (control_mask + 1)) == 0) {
        // Contiguous low controls (the QFT shape): within each
        // q_mask-aligned stratum block the table index equals the low
        // bits of the amplitude index, so runs multiply element-wise
        // against contiguous table slices — pure vector loads.
        U64 k = k_lo;
        const U64 tsize = control_mask + 1;
        while (k < k_hi) {
            const U64 block_end =
                q_mask >= 4 ? std::min(k_hi, (k & ~(q_mask - 1)) + q_mask)
                            : k + 1;
            U64 i = insertZero(k, q_mask) | q_mask;
            U64 n = block_end - k;
            while (n > 0) {
                const U64 t0 = i & control_mask;
                const U64 chunk = std::min(n, tsize - t0);
                U64 v = 0;
                for (; v + 4 <= chunk; v += 4) {
                    __m256d ar = _mm256_loadu_pd(re + i + v);
                    __m256d ai = _mm256_loadu_pd(im + i + v);
                    const __m256d cr = _mm256_loadu_pd(tab_re + t0 + v);
                    const __m256d ci = _mm256_loadu_pd(tab_im + t0 + v);
                    complexScale4(ar, ai, cr, ci);
                    _mm256_storeu_pd(re + i + v, ar);
                    _mm256_storeu_pd(im + i + v, ai);
                }
                for (; v < chunk; ++v) {
                    const double xr = re[i + v], xi = im[i + v];
                    re[i + v] = tab_re[t0 + v] * xr - tab_im[t0 + v] * xi;
                    im[i + v] = tab_re[t0 + v] * xi + tab_im[t0 + v] * xr;
                }
                i += chunk;
                n -= chunk;
            }
            k = block_end;
        }
        return;
    }
    if (q_mask < 4) {
        // Sub-lane stratum blocks: no contiguous 4-run of touched
        // amplitudes exists, so the per-element PEXT loop stands.
        for (U64 k = k_lo; k < k_hi; ++k) {
            const U64 i = insertZero(k, q_mask) | q_mask;
            const U64 t = _pext_u64(i, control_mask);
            const double ar = re[i], ai = im[i];
            re[i] = tab_re[t] * ar - tab_im[t] * ai;
            im[i] = tab_re[t] * ai + tab_im[t] * ar;
        }
        return;
    }
    // Scattered controls: within each q_mask-aligned block the
    // touched amplitudes run contiguously from a 4-aligned start
    // (q_mask >= 4), so the vectorized-PEXT index stream plus
    // vgatherqpd replaces the per-element scalar PEXT loop.
    const LaneIndexStream4 stream(control_mask);
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end = std::min(k_hi, (k & ~(q_mask - 1)) + q_mask);
        U64 i = insertZero(k, q_mask) | q_mask;
        for (; k < block_end && (i & 3ULL) != 0; ++k, ++i) {
            const U64 t = _pext_u64(i, control_mask);
            const double ar = re[i], ai = im[i];
            re[i] = tab_re[t] * ar - tab_im[t] * ai;
            im[i] = tab_re[t] * ai + tab_im[t] * ar;
        }
        for (; k + 4 <= block_end; k += 4, i += 4)
            gatherScale4(re + i, im + i, tab_re, tab_im,
                         stream.indices(i));
        for (; k < block_end; ++k, ++i) {
            const U64 t = _pext_u64(i, control_mask);
            const double ar = re[i], ai = im[i];
            re[i] = tab_re[t] * ar - tab_im[t] * ai;
            im[i] = tab_re[t] * ai + tab_im[t] * ar;
        }
    }
}

void
avx2PhaseTable(double *re, double *im, U64 mask, const double *tab_re,
               const double *tab_im, U64 k_lo, U64 k_hi)
{
    detail::countDispatch(kPhaseTable, kBackendAvx2);
    if ((mask & (mask + 1)) == 0) {
        // Contiguous low mask: the table index is the low bits of the
        // amplitude index, so amplitudes multiply element-wise against
        // contiguous table slices — pure vector loads.
        const U64 tsize = mask + 1;
        U64 k = k_lo;
        while (k < k_hi) {
            const U64 t0 = k & mask;
            const U64 chunk = std::min(k_hi - k, tsize - t0);
            U64 v = 0;
            for (; v + 4 <= chunk; v += 4) {
                __m256d ar = _mm256_loadu_pd(re + k + v);
                __m256d ai = _mm256_loadu_pd(im + k + v);
                const __m256d cr = _mm256_loadu_pd(tab_re + t0 + v);
                const __m256d ci = _mm256_loadu_pd(tab_im + t0 + v);
                complexScale4(ar, ai, cr, ci);
                _mm256_storeu_pd(re + k + v, ar);
                _mm256_storeu_pd(im + k + v, ai);
            }
            for (; v < chunk; ++v) {
                const double xr = re[k + v], xi = im[k + v];
                re[k + v] = tab_re[t0 + v] * xr - tab_im[t0 + v] * xi;
                im[k + v] = tab_re[t0 + v] * xi + tab_im[t0 + v] * xr;
            }
            k += chunk;
        }
        return;
    }
    const U64 low = mask & (~mask + 1);
    if (low >= 4) {
        // The table index is constant over each low-aligned run of
        // `low` amplitudes: one broadcast phase multiply per run.
        U64 k = k_lo;
        while (k < k_hi) {
            const U64 run_end = std::min(k_hi, (k & ~(low - 1)) + low);
            const U64 t = _pext_u64(k, mask);
            scaleRun(re + k, im + k, run_end - k,
                     _mm256_set1_pd(tab_re[t]), _mm256_set1_pd(tab_im[t]),
                     tab_re[t], tab_im[t]);
            k = run_end;
        }
        return;
    }
    // Scattered mask with table-index bits inside the lane: the
    // vectorized-PEXT index stream plus vgatherqpd replaces the
    // per-element scalar PEXT loop (head/tail stay scalar so the
    // 4-lane base index is always 4-aligned).
    const LaneIndexStream4 stream(mask);
    U64 k = k_lo;
    for (; k < k_hi && (k & 3ULL) != 0; ++k) {
        const U64 t = _pext_u64(k, mask);
        const double ar = re[k], ai = im[k];
        re[k] = tab_re[t] * ar - tab_im[t] * ai;
        im[k] = tab_re[t] * ai + tab_im[t] * ar;
    }
    for (; k + 4 <= k_hi; k += 4)
        gatherScale4(re + k, im + k, tab_re, tab_im, stream.indices(k));
    for (; k < k_hi; ++k) {
        const U64 t = _pext_u64(k, mask);
        const double ar = re[k], ai = im[k];
        re[k] = tab_re[t] * ar - tab_im[t] * ai;
        im[k] = tab_re[t] * ai + tab_im[t] * ar;
    }
}

double
avx2Norm2(const double *re, const double *im, U64 lo, U64 hi)
{
    detail::countDispatch(kNorm2, kBackendAvx2);
    __m256d acc = _mm256_setzero_pd();
    U64 i = lo;
    for (; i + 4 <= hi; i += 4) {
        const __m256d r = _mm256_loadu_pd(re + i);
        const __m256d m = _mm256_loadu_pd(im + i);
        acc = _mm256_fmadd_pd(r, r, acc);
        acc = _mm256_fmadd_pd(m, m, acc);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < hi; ++i)
        total += re[i] * re[i] + im[i] * im[i];
    return total;
}

/** One pair of the stochastic 2x2 with the scalar expressions. */
inline void
stochasticPairAt(double *v, U64 i, U64 mask, const Mat2Real &m)
{
    const U64 j = i ^ mask;
    const double a = v[i];
    const double b = v[j];
    v[i] = m.m[0] * a + m.m[1] * b;
    v[j] = m.m[2] * a + m.m[3] * b;
}

/** Lane l of the result is lane l ^ @p low of @p x (low < 4). */
inline __m256d
partnerLanes(__m256d x, U64 low)
{
    if ((low & 2) != 0)
        x = _mm256_permute2f128_pd(x, x, 0x01);
    if ((low & 1) != 0)
        x = _mm256_permute_pd(x, 0x5);
    return x;
}

void
avx2StochasticPair(double *v, U64 mask, U64 lo, U64 hi, const Mat2Real &m)
{
    detail::countDispatch(kStochasticPair, kBackendAvx2);
    const U64 s = mask & (~mask + 1);
    const __m256d m0 = _mm256_set1_pd(m.m[0]);
    const __m256d m1 = _mm256_set1_pd(m.m[1]);
    const __m256d m2 = _mm256_set1_pd(m.m[2]);
    const __m256d m3 = _mm256_set1_pd(m.m[3]);
    if (s >= 4) {
        // Runs of s >= 4 indices with bit a clear, each paired with
        // the contiguous run at i ^ mask.
        U64 i = (lo & s) != 0 ? (lo | (s - 1)) + 1 : lo;
        for (; i < hi; i = (i | (s - 1)) + 1 + s) {
            const U64 n = std::min(hi, (i | (s - 1)) + 1) - i;
            double *x = v + i;
            double *y = v + (i ^ mask);
            U64 j = 0;
            for (; j + 4 <= n; j += 4) {
                const __m256d a = _mm256_loadu_pd(x + j);
                const __m256d b = _mm256_loadu_pd(y + j);
                _mm256_storeu_pd(x + j, _mm256_add_pd(_mm256_mul_pd(m0, a),
                                                      _mm256_mul_pd(m1, b)));
                _mm256_storeu_pd(y + j, _mm256_add_pd(_mm256_mul_pd(m2, a),
                                                      _mm256_mul_pd(m3, b)));
            }
            for (; j < n; ++j)
                stochasticPairAt(v, i + j, mask, m);
        }
        return;
    }
    // Strides 1 and 2: index i0 + l of a 4-aligned vector pairs with
    // lane l ^ low of the vector at i0 ^ high.
    const U64 low = mask & 3ULL;
    const U64 high = mask & ~3ULL;
    alignas(32) long long lanes[4];
    for (U64 l = 0; l < 4; ++l)
        lanes[l] = (l & s) == 0 ? -1 : 0;
    const __m256i clear =
        _mm256_load_si256(reinterpret_cast<const __m256i *>(lanes));
    const __m256d clear_pd = _mm256_castsi256_pd(clear);
    U64 i = lo;
    for (; i < hi && (i & 3ULL) != 0; ++i)
        if ((i & s) == 0)
            stochasticPairAt(v, i, mask, m);
    // A bit-a-clear lane takes m[0] * self + m[1] * partner, a set
    // lane m[3] * self + m[2] * partner: the same two products as its
    // pair's second row, summed.
    const __m256d self = _mm256_blendv_pd(m3, m0, clear_pd);
    const __m256d other = _mm256_blendv_pd(m2, m1, clear_pd);
    const __m256i set = _mm256_xor_si256(clear, _mm256_set1_epi64x(-1));
    for (; i + 4 <= hi; i += 4) {
        if (high == 0) {
            const __m256d x = _mm256_loadu_pd(v + i);
            // Both ends in one vector.
            _mm256_storeu_pd(v + i,
                             _mm256_add_pd(_mm256_mul_pd(self, x),
                                           _mm256_mul_pd(other,
                                                         partnerLanes(
                                                             x, low))));
            continue;
        }
        // With both vectors in range, the one at i & ~high does every
        // pair between them.
        const U64 j = i ^ high;
        const bool both = j >= lo && j + 4 <= hi;
        if (both && (i & high) != 0)
            continue;
        const __m256d x = _mm256_loadu_pd(v + i);
        const __m256d y = _mm256_loadu_pd(v + j);
        const __m256d xp = partnerLanes(x, low);
        const __m256d yp = partnerLanes(y, low);
        if (both) {
            _mm256_storeu_pd(v + i, _mm256_add_pd(_mm256_mul_pd(self, x),
                                                  _mm256_mul_pd(other, yp)));
            _mm256_storeu_pd(v + j, _mm256_add_pd(_mm256_mul_pd(self, y),
                                                  _mm256_mul_pd(other, xp)));
            continue;
        }
        // Only x's keyed lanes are in range: its clear lanes pair with
        // y's set lanes; the other lanes belong to pairs keyed in y.
        _mm256_maskstore_pd(v + i, clear,
                            _mm256_add_pd(_mm256_mul_pd(m0, x),
                                          _mm256_mul_pd(m1, yp)));
        _mm256_maskstore_pd(v + j, set,
                            _mm256_add_pd(_mm256_mul_pd(m2, xp),
                                          _mm256_mul_pd(m3, y)));
    }
    for (; i < hi; ++i)
        if ((i & s) == 0)
            stochasticPairAt(v, i, mask, m);
}

const KernelTable avx2Table = {
    "avx2",
    avx2Apply1q,
    avx2Apply1qDiag,
    avx2QuadPhase,
    avx2QuadSwap,
    avx2PhasePair,
    avx2StratumPhaseTable,
    avx2PhaseTable,
    avx2Norm2,
    avx2StochasticPair,
};

} // namespace

const KernelTable *
avx2Kernels()
{
    return &avx2Table;
}

} // namespace simd
} // namespace jigsaw

#endif // JIGSAW_HAVE_AVX2
