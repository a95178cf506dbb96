/**
 * @file
 * AVX-512 amplitude kernels over split real/imaginary arrays.
 *
 * This translation unit is compiled with -mavx512f -mavx512dq (see the
 * top-level CMakeLists.txt) and is excluded entirely when the
 * JIGSAW_NO_SIMD option is on; activeKernels() only routes here after
 * a runtime cpuid check for avx512f + avx512dq.
 *
 * Addressing: pair/quad strides >= 8 give contiguous 8-lane runs
 * inside each stride block, which is where 512-bit lanes pay off.
 * Shorter strides would need in-register deinterleave shuffles that
 * cost more than they save at this width, so those cases defer to the
 * next-widest compiled table (AVX2 when present, scalar otherwise) —
 * legal because any CPU reporting avx512f also reports avx2. The
 * real-valued stochasticPair kernel is the exception: one permute per
 * vector lines up its stride-1, 2 and 4 partners, so it handles every
 * stride itself.
 */
#include "common/simd.h"

#ifdef JIGSAW_HAVE_AVX512

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

/** The table short-stride cases defer to (resolved once). */
inline const KernelTable &
narrowFallback()
{
    static const KernelTable &table =
        avx2Kernels() != nullptr ? *avx2Kernels() : scalarKernels();
    return table;
}

/**
 * Per-lane table-index stream for the gather phase tables. With the
 * 8-lane base amplitude index 8-aligned, the low three bits of each
 * lane's index equal the lane number, so the PEXT of the index under
 * the (scattered) mask splits into a per-lane constant —
 * PEXT(lane, mask & 7), precomputed once into a vector — OR'd with a
 * per-block part, PEXT(base, mask & ~7) shifted past the low
 * popcount: one scalar PEXT per 8 amplitudes instead of 8, and the
 * table lookup itself becomes one vpgatherqpd per component.
 */
struct LaneIndexStream
{
    __m512i lane;   ///< PEXT(lane, mask & 7), lane = 0..7.
    U64 mask_hi;    ///< mask & ~7.
    unsigned pc_lo; ///< popcount(mask & 7).

    explicit LaneIndexStream(U64 mask)
        : mask_hi(mask & ~7ULL),
          pc_lo(static_cast<unsigned>(
              __builtin_popcountll(mask & 7ULL)))
    {
        alignas(64) long long lanes[8];
        for (long long l = 0; l < 8; ++l)
            lanes[l] = static_cast<long long>(
                _pext_u64(static_cast<U64>(l), mask & 7ULL));
        lane = _mm512_load_si512(lanes);
    }

    /** Table indices of the 8 amplitudes at 8-aligned index @p i0. */
    __m512i indices(U64 i0) const
    {
        const U64 base = _pext_u64(i0, mask_hi) << pc_lo;
        return _mm512_or_epi64(
            lane, _mm512_set1_epi64(static_cast<long long>(base)));
    }
};

/** (ar, ai) *= (cr, ci), 8 complex values per call. */
inline void
complexScale8(__m512d &ar, __m512d &ai, __m512d cr, __m512d ci)
{
    const __m512d nr = _mm512_fnmadd_pd(ci, ai, _mm512_mul_pd(cr, ar));
    const __m512d ni = _mm512_fmadd_pd(ci, ar, _mm512_mul_pd(cr, ai));
    ar = nr;
    ai = ni;
}

/** Gather table[idx] and multiply 8 contiguous amplitudes by it. */
inline void
gatherScale8(double *re, double *im, const double *tab_re,
             const double *tab_im, __m512i idx)
{
    // Masked form with an explicit zero source: same full-lane
    // gather, but avoids the undefined pass-through operand of the
    // unmasked intrinsic (and the -Wmaybe-uninitialized noise GCC
    // emits for it).
    const __m512d cr = _mm512_mask_i64gather_pd(
        _mm512_setzero_pd(), 0xFF, idx, tab_re, 8);
    const __m512d ci = _mm512_mask_i64gather_pd(
        _mm512_setzero_pd(), 0xFF, idx, tab_im, 8);
    __m512d ar = _mm512_loadu_pd(re);
    __m512d ai = _mm512_loadu_pd(im);
    complexScale8(ar, ai, cr, ci);
    _mm512_storeu_pd(re, ar);
    _mm512_storeu_pd(im, ai);
}

/** Multiply the @p n complex values at (re, im) by (cr, ci). */
inline void
scaleRun(double *re, double *im, U64 n, __m512d cr, __m512d ci, double sr,
         double si)
{
    U64 v = 0;
    for (; v + 8 <= n; v += 8) {
        __m512d ar = _mm512_loadu_pd(re + v);
        __m512d ai = _mm512_loadu_pd(im + v);
        complexScale8(ar, ai, cr, ci);
        _mm512_storeu_pd(re + v, ar);
        _mm512_storeu_pd(im + v, ai);
    }
    for (; v < n; ++v) {
        const double r = re[v], i = im[v];
        re[v] = sr * r - si * i;
        im[v] = sr * i + si * r;
    }
}

void
avx512Apply1q(double *re, double *im, U64 stride, U64 k_lo, U64 k_hi,
              const Mat2Split &m)
{
    if (stride < 8) {
        narrowFallback().apply1q(re, im, stride, k_lo, k_hi, m);
        return;
    }
    detail::countDispatch(kApply1q, kBackendAvx512);
    const __m512d m00r = _mm512_set1_pd(m.re[0]);
    const __m512d m00i = _mm512_set1_pd(m.im[0]);
    const __m512d m01r = _mm512_set1_pd(m.re[1]);
    const __m512d m01i = _mm512_set1_pd(m.im[1]);
    const __m512d m10r = _mm512_set1_pd(m.re[2]);
    const __m512d m10i = _mm512_set1_pd(m.im[2]);
    const __m512d m11r = _mm512_set1_pd(m.re[3]);
    const __m512d m11i = _mm512_set1_pd(m.im[3]);
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end = std::min(k_hi, (k & ~(stride - 1)) + stride);
        U64 i0 = insertZero(k, stride);
        for (; k + 8 <= block_end; k += 8, i0 += 8) {
            __m512d a0r = _mm512_loadu_pd(re + i0);
            __m512d a1r = _mm512_loadu_pd(re + i0 + stride);
            __m512d a0i = _mm512_loadu_pd(im + i0);
            __m512d a1i = _mm512_loadu_pd(im + i0 + stride);
            __m512d n0r = _mm512_mul_pd(m00r, a0r);
            n0r = _mm512_fnmadd_pd(m00i, a0i, n0r);
            n0r = _mm512_fmadd_pd(m01r, a1r, n0r);
            n0r = _mm512_fnmadd_pd(m01i, a1i, n0r);
            __m512d n0i = _mm512_mul_pd(m00r, a0i);
            n0i = _mm512_fmadd_pd(m00i, a0r, n0i);
            n0i = _mm512_fmadd_pd(m01r, a1i, n0i);
            n0i = _mm512_fmadd_pd(m01i, a1r, n0i);
            __m512d n1r = _mm512_mul_pd(m10r, a0r);
            n1r = _mm512_fnmadd_pd(m10i, a0i, n1r);
            n1r = _mm512_fmadd_pd(m11r, a1r, n1r);
            n1r = _mm512_fnmadd_pd(m11i, a1i, n1r);
            __m512d n1i = _mm512_mul_pd(m10r, a0i);
            n1i = _mm512_fmadd_pd(m10i, a0r, n1i);
            n1i = _mm512_fmadd_pd(m11r, a1i, n1i);
            n1i = _mm512_fmadd_pd(m11i, a1r, n1i);
            _mm512_storeu_pd(re + i0, n0r);
            _mm512_storeu_pd(re + i0 + stride, n1r);
            _mm512_storeu_pd(im + i0, n0i);
            _mm512_storeu_pd(im + i0 + stride, n1i);
        }
        for (; k < block_end; ++k, ++i0) {
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
}

void
avx512Apply1qDiag(double *re, double *im, U64 stride, U64 k_lo, U64 k_hi,
                  double d0r, double d0i, double d1r, double d1i,
                  bool d0_is_one)
{
    if (stride < 8) {
        narrowFallback().apply1qDiag(re, im, stride, k_lo, k_hi, d0r, d0i,
                                     d1r, d1i, d0_is_one);
        return;
    }
    detail::countDispatch(kApply1qDiag, kBackendAvx512);
    const __m512d v0r = _mm512_set1_pd(d0r);
    const __m512d v0i = _mm512_set1_pd(d0i);
    const __m512d v1r = _mm512_set1_pd(d1r);
    const __m512d v1i = _mm512_set1_pd(d1i);
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end = std::min(k_hi, (k & ~(stride - 1)) + stride);
        const U64 i0 = insertZero(k, stride);
        const U64 n = block_end - k;
        if (!d0_is_one)
            scaleRun(re + i0, im + i0, n, v0r, v0i, d0r, d0i);
        scaleRun(re + (i0 | stride), im + (i0 | stride), n, v1r, v1i, d1r,
                 d1i);
        k = block_end;
    }
}

void
avx512QuadPhase(double *re, double *im, U64 s_lo, U64 s_hi, U64 set_mask,
                U64 k_lo, U64 k_hi, double p_re, double p_im)
{
    if (s_lo < 8) {
        narrowFallback().quadPhase(re, im, s_lo, s_hi, set_mask, k_lo,
                                   k_hi, p_re, p_im);
        return;
    }
    detail::countDispatch(kQuadPhase, kBackendAvx512);
    const __m512d cr = _mm512_set1_pd(p_re);
    const __m512d ci = _mm512_set1_pd(p_im);
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end = std::min(k_hi, (k & ~(s_lo - 1)) + s_lo);
        const U64 i = insertZero2(k, s_lo, s_hi) | set_mask;
        scaleRun(re + i, im + i, block_end - k, cr, ci, p_re, p_im);
        k = block_end;
    }
}

void
avx512QuadSwap(double *re, double *im, U64 s_lo, U64 s_hi, U64 mask_a,
               U64 mask_b, U64 k_lo, U64 k_hi)
{
    if (s_lo < 8) {
        narrowFallback().quadSwap(re, im, s_lo, s_hi, mask_a, mask_b,
                                  k_lo, k_hi);
        return;
    }
    detail::countDispatch(kQuadSwap, kBackendAvx512);
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end = std::min(k_hi, (k & ~(s_lo - 1)) + s_lo);
        const U64 base = insertZero2(k, s_lo, s_hi);
        const U64 n = block_end - k;
        for (double *arr : {re, im}) {
            double *pa = arr + (base | mask_a);
            double *pb = arr + (base | mask_b);
            U64 v = 0;
            for (; v + 8 <= n; v += 8) {
                const __m512d va = _mm512_loadu_pd(pa + v);
                const __m512d vb = _mm512_loadu_pd(pb + v);
                _mm512_storeu_pd(pa + v, vb);
                _mm512_storeu_pd(pb + v, va);
            }
            for (; v < n; ++v)
                std::swap(pa[v], pb[v]);
        }
        k = block_end;
    }
}

void
avx512PhasePair(double *re, double *im, int q0, int q1, U64 k_lo, U64 k_hi,
                double even_re, double even_im, double odd_re,
                double odd_im)
{
    if (q0 < 3 || q1 < 3) {
        narrowFallback().phasePair(re, im, q0, q1, k_lo, k_hi, even_re,
                                   even_im, odd_re, odd_im);
        return;
    }
    detail::countDispatch(kPhasePair, kBackendAvx512);
    // The XOR of bits q0 and q1 is constant over runs of length
    // 2^min(q0, q1) >= 8, so each run is one phase multiply.
    const U64 run = 1ULL << std::min(q0, q1);
    const __m512d cr[2] = {_mm512_set1_pd(even_re),
                           _mm512_set1_pd(odd_re)};
    const __m512d ci[2] = {_mm512_set1_pd(even_im),
                           _mm512_set1_pd(odd_im)};
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
avx512StratumPhaseTable(double *re, double *im, U64 q_mask,
                        U64 control_mask, const double *tab_re,
                        const double *tab_im, U64 k_lo, U64 k_hi)
{
    if (control_mask < q_mask &&
        (control_mask & (control_mask + 1)) == 0) {
        detail::countDispatch(kStratumPhaseTable, kBackendAvx512);
        // Contiguous low controls (the QFT shape): within each
        // q_mask-aligned stratum block the table index equals the low
        // bits of the amplitude index, so runs multiply element-wise
        // against contiguous table slices — pure vector loads.
        U64 k = k_lo;
        const U64 tsize = control_mask + 1;
        while (k < k_hi) {
            const U64 block_end =
                q_mask >= 8 ? std::min(k_hi, (k & ~(q_mask - 1)) + q_mask)
                            : k + 1;
            U64 i = insertZero(k, q_mask) | q_mask;
            U64 n = block_end - k;
            while (n > 0) {
                const U64 t0 = i & control_mask;
                const U64 chunk = std::min(n, tsize - t0);
                U64 v = 0;
                for (; v + 8 <= chunk; v += 8) {
                    __m512d ar = _mm512_loadu_pd(re + i + v);
                    __m512d ai = _mm512_loadu_pd(im + i + v);
                    const __m512d cr = _mm512_loadu_pd(tab_re + t0 + v);
                    const __m512d ci = _mm512_loadu_pd(tab_im + t0 + v);
                    complexScale8(ar, ai, cr, ci);
                    _mm512_storeu_pd(re + i + v, ar);
                    _mm512_storeu_pd(im + i + v, ai);
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
    if (q_mask < 8) {
        // Scattered controls over sub-lane stratum blocks: the
        // touched amplitudes are not contiguous 8-runs, so the
        // 4-lane AVX2 gather (or scalar) handles it.
        narrowFallback().stratumPhaseTable(re, im, q_mask, control_mask,
                                           tab_re, tab_im, k_lo, k_hi);
        return;
    }
    // Scattered controls: within each q_mask-aligned block the
    // touched amplitudes run contiguously and the block start is
    // 8-aligned (q_mask >= 8), so the vectorized-PEXT index stream
    // plus vpgatherqpd replaces the per-element scalar PEXT loop.
    detail::countDispatch(kStratumPhaseTable, kBackendAvx512);
    const LaneIndexStream stream(control_mask);
    U64 k = k_lo;
    while (k < k_hi) {
        const U64 block_end = std::min(k_hi, (k & ~(q_mask - 1)) + q_mask);
        U64 i = insertZero(k, q_mask) | q_mask;
        for (; k < block_end && (i & 7ULL) != 0; ++k, ++i) {
            const U64 t = _pext_u64(i, control_mask);
            const double ar = re[i], ai = im[i];
            re[i] = tab_re[t] * ar - tab_im[t] * ai;
            im[i] = tab_re[t] * ai + tab_im[t] * ar;
        }
        for (; k + 8 <= block_end; k += 8, i += 8)
            gatherScale8(re + i, im + i, tab_re, tab_im,
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
avx512PhaseTable(double *re, double *im, U64 mask, const double *tab_re,
                 const double *tab_im, U64 k_lo, U64 k_hi)
{
    detail::countDispatch(kPhaseTable, kBackendAvx512);
    if ((mask & (mask + 1)) == 0) {
        // Contiguous low mask: amplitudes multiply element-wise
        // against contiguous table slices.
        const U64 tsize = mask + 1;
        U64 k = k_lo;
        while (k < k_hi) {
            const U64 t0 = k & mask;
            const U64 chunk = std::min(k_hi - k, tsize - t0);
            U64 v = 0;
            for (; v + 8 <= chunk; v += 8) {
                __m512d ar = _mm512_loadu_pd(re + k + v);
                __m512d ai = _mm512_loadu_pd(im + k + v);
                const __m512d cr = _mm512_loadu_pd(tab_re + t0 + v);
                const __m512d ci = _mm512_loadu_pd(tab_im + t0 + v);
                complexScale8(ar, ai, cr, ci);
                _mm512_storeu_pd(re + k + v, ar);
                _mm512_storeu_pd(im + k + v, ai);
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
    if (low >= 8) {
        // The table index is constant over each low-aligned run of
        // `low` amplitudes: one broadcast phase multiply per run.
        U64 k = k_lo;
        while (k < k_hi) {
            const U64 run_end = std::min(k_hi, (k & ~(low - 1)) + low);
            const U64 t = _pext_u64(k, mask);
            scaleRun(re + k, im + k, run_end - k,
                     _mm512_set1_pd(tab_re[t]), _mm512_set1_pd(tab_im[t]),
                     tab_re[t], tab_im[t]);
            k = run_end;
        }
        return;
    }
    // Scattered mask with table-index bits inside the lane: the
    // vectorized-PEXT index stream plus vpgatherqpd replaces the
    // per-element scalar PEXT loop (head/tail stay scalar so the
    // 8-lane base index is always 8-aligned).
    const LaneIndexStream stream(mask);
    U64 k = k_lo;
    for (; k < k_hi && (k & 7ULL) != 0; ++k) {
        const U64 t = _pext_u64(k, mask);
        const double ar = re[k], ai = im[k];
        re[k] = tab_re[t] * ar - tab_im[t] * ai;
        im[k] = tab_re[t] * ai + tab_im[t] * ar;
    }
    for (; k + 8 <= k_hi; k += 8)
        gatherScale8(re + k, im + k, tab_re, tab_im, stream.indices(k));
    for (; k < k_hi; ++k) {
        const U64 t = _pext_u64(k, mask);
        const double ar = re[k], ai = im[k];
        re[k] = tab_re[t] * ar - tab_im[t] * ai;
        im[k] = tab_re[t] * ai + tab_im[t] * ar;
    }
}

double
avx512Norm2(const double *re, const double *im, U64 lo, U64 hi)
{
    detail::countDispatch(kNorm2, kBackendAvx512);
    __m512d acc = _mm512_setzero_pd();
    U64 i = lo;
    for (; i + 8 <= hi; i += 8) {
        const __m512d r = _mm512_loadu_pd(re + i);
        const __m512d m = _mm512_loadu_pd(im + i);
        acc = _mm512_fmadd_pd(r, r, acc);
        acc = _mm512_fmadd_pd(m, m, acc);
    }
    alignas(64) double lanes[8];
    _mm512_store_pd(lanes, acc);
    double total = 0.0;
    for (double lane : lanes)
        total += lane;
    for (; i < hi; ++i)
        total += re[i] * re[i] + im[i] * im[i];
    return total;
}

/**
 * Lane l of the result is lane idx[l] of @p x. The zero-masking form
 * with a full mask is the same permute without the undefined
 * pass-through operand of the unmasked intrinsic (and GCC's
 * -Wmaybe-uninitialized noise about it).
 */
inline __m512d
permuteLanes(__m512i idx, __m512d x)
{
    return _mm512_maskz_permutexvar_pd(0xFF, idx, x);
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

void
avx512StochasticPair(double *v, U64 mask, U64 lo, U64 hi, const Mat2Real &m)
{
    detail::countDispatch(kStochasticPair, kBackendAvx512);
    const U64 s = mask & (~mask + 1);
    const __m512d m0 = _mm512_set1_pd(m.m[0]);
    const __m512d m1 = _mm512_set1_pd(m.m[1]);
    const __m512d m2 = _mm512_set1_pd(m.m[2]);
    const __m512d m3 = _mm512_set1_pd(m.m[3]);
    if (s >= 8) {
        // Runs of s >= 8 indices with bit a clear, each paired with
        // the contiguous run at i ^ mask.
        U64 i = (lo & s) != 0 ? (lo | (s - 1)) + 1 : lo;
        for (; i < hi; i = (i | (s - 1)) + 1 + s) {
            const U64 n = std::min(hi, (i | (s - 1)) + 1) - i;
            double *x = v + i;
            double *y = v + (i ^ mask);
            U64 j = 0;
            for (; j + 8 <= n; j += 8) {
                const __m512d a = _mm512_loadu_pd(x + j);
                const __m512d b = _mm512_loadu_pd(y + j);
                _mm512_storeu_pd(x + j, _mm512_add_pd(_mm512_mul_pd(m0, a),
                                                      _mm512_mul_pd(m1, b)));
                _mm512_storeu_pd(y + j, _mm512_add_pd(_mm512_mul_pd(m2, a),
                                                      _mm512_mul_pd(m3, b)));
            }
            for (; j < n; ++j)
                stochasticPairAt(v, i + j, mask, m);
        }
        return;
    }
    // Strides 1, 2 and 4: index i0 + l of an 8-aligned vector pairs
    // with lane l ^ low of the vector at i0 ^ high, so one in-register
    // permute lines every partner up.
    const U64 low = mask & 7ULL;
    const U64 high = mask & ~7ULL;
    const __m512i partner = _mm512_set_epi64(
        static_cast<long long>(7 ^ low), static_cast<long long>(6 ^ low),
        static_cast<long long>(5 ^ low), static_cast<long long>(4 ^ low),
        static_cast<long long>(3 ^ low), static_cast<long long>(2 ^ low),
        static_cast<long long>(1 ^ low), static_cast<long long>(0 ^ low));
    __mmask8 clear = 0;
    for (U64 l = 0; l < 8; ++l)
        if ((l & s) == 0)
            clear = static_cast<__mmask8>(clear | (1U << l));
    U64 i = lo;
    for (; i < hi && (i & 7ULL) != 0; ++i)
        if ((i & s) == 0)
            stochasticPairAt(v, i, mask, m);
    // A bit-a-clear lane takes m[0] * self + m[1] * partner, a set
    // lane m[3] * self + m[2] * partner: the same two products as its
    // pair's second row, summed.
    const __m512d self = _mm512_mask_blend_pd(clear, m3, m0);
    const __m512d other = _mm512_mask_blend_pd(clear, m2, m1);
    const __mmask8 set = static_cast<__mmask8>(~clear);
    for (; i + 8 <= hi; i += 8) {
        if (high == 0) {
            const __m512d x = _mm512_loadu_pd(v + i);
            // Both ends in one vector.
            _mm512_storeu_pd(v + i,
                             _mm512_add_pd(_mm512_mul_pd(self, x),
                                           _mm512_mul_pd(other,
                                                         permuteLanes(
                                                             partner, x))));
            continue;
        }
        // With both vectors in range, the one at i & ~high does every
        // pair between them.
        const U64 j = i ^ high;
        const bool both = j >= lo && j + 8 <= hi;
        if (both && (i & high) != 0)
            continue;
        const __m512d x = _mm512_loadu_pd(v + i);
        const __m512d y = _mm512_loadu_pd(v + j);
        const __m512d xp = permuteLanes(partner, x);
        const __m512d yp = permuteLanes(partner, y);
        if (both) {
            _mm512_storeu_pd(v + i, _mm512_add_pd(_mm512_mul_pd(self, x),
                                                  _mm512_mul_pd(other, yp)));
            _mm512_storeu_pd(v + j, _mm512_add_pd(_mm512_mul_pd(self, y),
                                                  _mm512_mul_pd(other, xp)));
            continue;
        }
        // Only x's keyed lanes are in range: its clear lanes pair with
        // y's set lanes; the other lanes belong to pairs keyed in y.
        _mm512_mask_storeu_pd(v + i, clear,
                              _mm512_add_pd(_mm512_mul_pd(m0, x),
                                            _mm512_mul_pd(m1, yp)));
        _mm512_mask_storeu_pd(v + j, set,
                              _mm512_add_pd(_mm512_mul_pd(m2, xp),
                                            _mm512_mul_pd(m3, y)));
    }
    for (; i < hi; ++i)
        if ((i & s) == 0)
            stochasticPairAt(v, i, mask, m);
}

const KernelTable avx512Table = {
    "avx512",
    avx512Apply1q,
    avx512Apply1qDiag,
    avx512QuadPhase,
    avx512QuadSwap,
    avx512PhasePair,
    avx512StratumPhaseTable,
    avx512PhaseTable,
    avx512Norm2,
    avx512StochasticPair,
};

} // namespace

const KernelTable *
avx512Kernels()
{
    return &avx512Table;
}

} // namespace simd
} // namespace jigsaw

#endif // JIGSAW_HAVE_AVX512
