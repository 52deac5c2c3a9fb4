#include "nn/backend_avx2.hpp"

#if defined(__AVX2__) && defined(__FMA__) && (defined(__GNUC__) || defined(__clang__))

#include <immintrin.h>

#include <cstddef>

#include "nn/backend_scalar.hpp"

namespace dlpic::nn {

namespace {

// ---------------------------------------------------------------------------
// Vector PIC stencils. Four particles per step; int32 node indices (the node
// count fits int32 by Grid1D construction), weights evaluated with the exact
// scalar formulas and operation order. Loop tails delegate to the scalar
// shape templates, so every PIC kernel here is bitwise identical to the
// scalar backend.

/// wrap_near for a vector of indices at most one box outside [0, n).
inline __m128i wrap_near32(__m128i i, __m128i n) {
  const __m128i neg = _mm_cmplt_epi32(i, _mm_setzero_si128());
  i = _mm_add_epi32(i, _mm_and_si128(neg, n));
  const __m128i lt = _mm_cmplt_epi32(i, n);
  return _mm_sub_epi32(i, _mm_andnot_si128(lt, n));
}

struct NgpStencil {
  static constexpr int support = 1;
  __m128i node[1];
  __m256d w[1];
  NgpStencil(__m256d xi, __m128i n) {
    const __m256d fl = _mm256_floor_pd(_mm256_add_pd(xi, _mm256_set1_pd(0.5)));
    node[0] = wrap_near32(_mm256_cvttpd_epi32(fl), n);
    w[0] = _mm256_set1_pd(1.0);
  }
};

struct CicStencil {
  static constexpr int support = 2;
  __m128i node[2];
  __m256d w[2];
  CicStencil(__m256d xi, __m128i n) {
    const __m256d fl = _mm256_floor_pd(xi);
    const __m128i i = _mm256_cvttpd_epi32(fl);
    node[0] = wrap_near32(i, n);
    node[1] = wrap_near32(_mm_add_epi32(i, _mm_set1_epi32(1)), n);
    const __m256d frac = _mm256_sub_pd(xi, fl);
    w[0] = _mm256_sub_pd(_mm256_set1_pd(1.0), frac);
    w[1] = frac;
  }
};

struct TscStencil {
  static constexpr int support = 3;
  __m128i node[3];
  __m256d w[3];
  TscStencil(__m256d xi, __m128i n) {
    const __m256d fl = _mm256_floor_pd(_mm256_add_pd(xi, _mm256_set1_pd(0.5)));
    const __m128i i = _mm256_cvttpd_epi32(fl);
    node[0] = wrap_near32(_mm_sub_epi32(i, _mm_set1_epi32(1)), n);
    node[1] = wrap_near32(i, n);
    node[2] = wrap_near32(_mm_add_epi32(i, _mm_set1_epi32(1)), n);
    const __m256d d = _mm256_sub_pd(xi, fl);
    const __m256d half = _mm256_set1_pd(0.5);
    const __m256d dm = _mm256_sub_pd(half, d);   // 0.5 - d
    const __m256d dp = _mm256_add_pd(half, d);   // 0.5 + d
    // Scalar order: 0.5*(0.5-d)*(0.5-d) evaluates left to right.
    w[0] = _mm256_mul_pd(_mm256_mul_pd(half, dm), dm);
    w[1] = _mm256_sub_pd(_mm256_set1_pd(0.75), _mm256_mul_pd(d, d));
    w[2] = _mm256_mul_pd(_mm256_mul_pd(half, dp), dp);
  }
};

/// Gathers and weight-sums one stencil: matches the scalar gather_at
/// accumulation exactly (acc starts at +0.0 and adds E*w in ascending node
/// order with no FMA — starting from the first product instead would flip
/// the sign bit when E[node]*w is -0.0, since 0.0 + -0.0 == +0.0). The
/// gather is the masked form with an all-lanes mask and a zero source: the
/// same vgatherdpd as _mm256_i32gather_pd, whose undefined source operand
/// GCC reports as -Wmaybe-uninitialized.
template <class St>
inline __m256d gather_stencil(const double* E, const St& st) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d all = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  __m256d acc = zero;
  for (int s = 0; s < St::support; ++s)
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_mask_i32gather_pd(zero, E, st.node[s], all, 8), st.w[s]));
  return acc;
}

template <class St, pic::Shape S>
void gather_range_avx2(const double* E, const double* x, double* out, size_t lo,
                       size_t hi, double inv_dx, long ncells) {
  const __m128i n = _mm_set1_epi32(static_cast<int>(ncells));
  const __m256d vinv = _mm256_set1_pd(inv_dx);
  size_t p = lo;
  for (; p + 4 <= hi; p += 4) {
    const __m256d xi = _mm256_mul_pd(_mm256_loadu_pd(x + p), vinv);
    _mm256_storeu_pd(out + p, gather_stencil(E, St(xi, n)));
  }
  backend_detail::gather_range<S>(E, x, out, p, hi, inv_dx, ncells);
}

template <class St, pic::Shape S>
void stagger_range_avx2(const double* E, const double* x, double* v, size_t lo,
                        size_t hi, double inv_dx, long ncells, double qm_half_dt) {
  const __m128i n = _mm_set1_epi32(static_cast<int>(ncells));
  const __m256d vinv = _mm256_set1_pd(inv_dx);
  const __m256d vqm = _mm256_set1_pd(qm_half_dt);
  size_t p = lo;
  for (; p + 4 <= hi; p += 4) {
    const __m256d xi = _mm256_mul_pd(_mm256_loadu_pd(x + p), vinv);
    const __m256d Ep = gather_stencil(E, St(xi, n));
    _mm256_storeu_pd(v + p, _mm256_add_pd(_mm256_loadu_pd(v + p), _mm256_mul_pd(vqm, Ep)));
  }
  backend_detail::stagger_range<S>(E, x, v, p, hi, inv_dx, ncells, qm_half_dt);
}

/// pic::wrap_periodic on four lanes when every lane lies in (-L, 2L), where
/// it is one exact add or subtract: x on [0, L), x - L on [L, 2L), x + L on
/// (-L, 0) with the >= L fix-up. Returns false, leaving `out` unset, when a
/// lane is -L, NaN, inf or further out; the caller then wraps the quad with
/// the scalar function, whose fmod covers those lanes.
inline bool wrap_periodic_near(__m256d x, __m256d len, __m256d& out) {
  const __m256d zero = _mm256_setzero_pd();
  const __m256d up = _mm256_sub_pd(x, len);
  // x > -L, and x - L < L (false for x >= 2L without forming 2L); both
  // compares are false on NaN.
  const __m256d near = _mm256_and_pd(_mm256_cmp_pd(x, _mm256_sub_pd(zero, len), _CMP_GT_OQ),
                                     _mm256_cmp_pd(up, len, _CMP_LT_OQ));
  if (_mm256_movemask_pd(near) != 0xF) return false;
  __m256d dn = _mm256_add_pd(x, len);
  dn = _mm256_blendv_pd(dn, _mm256_sub_pd(dn, len), _mm256_cmp_pd(dn, len, _CMP_GE_OQ));
  const __m256d y = _mm256_blendv_pd(x, up, _mm256_cmp_pd(x, len, _CMP_GE_OQ));
  out = _mm256_blendv_pd(y, dn, _mm256_cmp_pd(x, zero, _CMP_LT_OQ));
  return true;
}

template <class St, pic::Shape S>
void leapfrog_range_avx2(const double* E, double* x, double* v, size_t lo, size_t hi,
                         double inv_dx, long ncells, double qm_dt, double dt,
                         double length) {
  const __m128i n = _mm_set1_epi32(static_cast<int>(ncells));
  const __m256d vinv = _mm256_set1_pd(inv_dx);
  const __m256d vqm = _mm256_set1_pd(qm_dt);
  const __m256d vdt = _mm256_set1_pd(dt);
  const __m256d vlen = _mm256_set1_pd(length);
  size_t p = lo;
  for (; p + 4 <= hi; p += 4) {
    const __m256d xv = _mm256_loadu_pd(x + p);
    const __m256d xi = _mm256_mul_pd(xv, vinv);
    const __m256d Ep = gather_stencil(E, St(xi, n));
    const __m256d vn = _mm256_add_pd(_mm256_loadu_pd(v + p), _mm256_mul_pd(vqm, Ep));
    _mm256_storeu_pd(v + p, vn);
    const __m256d xn = _mm256_add_pd(xv, _mm256_mul_pd(vn, vdt));
    __m256d wrapped;
    if (wrap_periodic_near(xn, vlen, wrapped)) {
      _mm256_storeu_pd(x + p, wrapped);
    } else {
      alignas(32) double xs[4];
      _mm256_store_pd(xs, xn);
      for (int lane = 0; lane < 4; ++lane) x[p + lane] = pic::wrap_periodic(xs[lane], length);
    }
  }
  backend_detail::leapfrog_range<S>(E, x, v, p, hi, inv_dx, ncells, qm_dt, dt, length);
}

template <class St, pic::Shape S>
void deposit_range_avx2(double* buf, const double* x, size_t lo, size_t hi,
                        double inv_dx, long ncells, double value) {
  const __m128i n = _mm_set1_epi32(static_cast<int>(ncells));
  const __m256d vinv = _mm256_set1_pd(inv_dx);
  size_t p = lo;
  for (; p + 4 <= hi; p += 4) {
    const __m256d xi = _mm256_mul_pd(_mm256_loadu_pd(x + p), vinv);
    const St st(xi, n);
    alignas(16) int idx[St::support][4];
    alignas(32) double w[St::support][4];
    for (int s = 0; s < St::support; ++s) {
      _mm_store_si128(reinterpret_cast<__m128i*>(idx[s]), st.node[s]);
      _mm256_store_pd(w[s], st.w[s]);
    }
    // Scatter serially in ascending particle order — identical to the
    // scalar loop, so per-worker deposit buffers stay bitwise reproducible.
    for (int lane = 0; lane < 4; ++lane)
      for (int s = 0; s < St::support; ++s)
        buf[static_cast<size_t>(idx[s][lane])] += value * w[s][lane];
  }
  backend_detail::deposit_range<S>(buf, x, p, hi, inv_dx, ncells, value);
}

// ---------------------------------------------------------------------------
// Int8 GEMM building blocks. Codes are in [-127, 127] (never -128, enforced
// by the quantizer's clamp), so |a| fits an unsigned byte and a pairwise
// maddubs product is at most 2 * 127 * 127 = 32258 < 32767 — no saturation.
// The signed x signed product a*b is computed as |a| * sign(b, a): maddubs
// wants one unsigned operand, and transferring a's sign onto b keeps the
// exact integer value. madd_epi16 against ones widens the 16 int16 pairwise
// sums into 8 exact int32 lanes.

/// Sum of the 8 int32 lanes (exact; order irrelevant for integers).
inline int32_t hsum_epi32(__m256i v) {
  __m128i s = _mm_add_epi32(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(1, 0, 3, 2)));
  s = _mm_add_epi32(s, _mm_shuffle_epi32(s, _MM_SHUFFLE(2, 3, 0, 1)));
  return _mm_cvtsi128_si32(s);
}

/// One 32-wide quadword of the int8 dot product: acc += sum_over_32(a * b)
/// spread across 8 int32 lanes.
inline __m256i dot_i8_step(__m256i acc, __m256i va, __m256i vb) {
  const __m256i prod16 = _mm256_maddubs_epi16(_mm256_abs_epi8(va), _mm256_sign_epi8(vb, va));
  return _mm256_add_epi32(acc, _mm256_madd_epi16(prod16, _mm256_set1_epi16(1)));
}

/// Full int8 dot product of two k-contiguous rows (vector body + exact
/// scalar tail). Used by the gemm_int8 edge loops.
inline int32_t dot_i8_avx2(const int8_t* a, const int8_t* b, size_t k) {
  __m256i acc = _mm256_setzero_si256();
  size_t p = 0;
  for (; p + 32 <= k; p += 32)
    acc = dot_i8_step(acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)),
                      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + p)));
  int32_t s = hsum_epi32(acc);
  for (; p < k; ++p) s += static_cast<int32_t>(a[p]) * static_cast<int32_t>(b[p]);
  return s;
}

// ---------------------------------------------------------------------------
// Int16 GEMM building blocks. Codes are in [-32767, 32767] (never -32768),
// so one madd_epi16 pair sum is at most 2 * 32767^2 = 2147352578 < 2^31 - 1
// — exact int32 with no saturation. Each pairwise int32 is widened to int64
// before accumulating, which keeps the whole dot product exact for any k
// the callers' kQuantizedGemmInt16MaxDepth bound admits.

/// Sum of the 4 int64 lanes (exact; order irrelevant for integers).
inline int64_t hsum_epi64(__m256i v) {
  __m128i s = _mm_add_epi64(_mm256_castsi256_si128(v), _mm256_extracti128_si256(v, 1));
  s = _mm_add_epi64(s, _mm_unpackhi_epi64(s, s));
  return _mm_cvtsi128_si64(s);
}

/// One 16-wide step of the int16 dot product: acc (4 int64 lanes) += the
/// step's 8 exact pairwise int32 sums, widened before accumulation.
inline __m256i dot_i16_step(__m256i acc, __m256i va, __m256i vb) {
  const __m256i pair32 = _mm256_madd_epi16(va, vb);
  const __m256i lo = _mm256_cvtepi32_epi64(_mm256_castsi256_si128(pair32));
  const __m256i hi = _mm256_cvtepi32_epi64(_mm256_extracti128_si256(pair32, 1));
  return _mm256_add_epi64(acc, _mm256_add_epi64(lo, hi));
}

/// Full int16 dot product of two k-contiguous rows (vector body + exact
/// scalar tail). Used by the gemm_int16 edge loops.
inline int64_t dot_i16_avx2(const int16_t* a, const int16_t* b, size_t k) {
  __m256i acc = _mm256_setzero_si256();
  size_t p = 0;
  for (; p + 16 <= k; p += 16)
    acc = dot_i16_step(acc, _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a + p)),
                       _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b + p)));
  int64_t s = hsum_epi64(acc);
  for (; p < k; ++p) s += static_cast<int64_t>(a[p]) * static_cast<int64_t>(b[p]);
  return s;
}

// ---------------------------------------------------------------------------
// In-place B^T GEMM for a few rows (gemm_block_bt). B^T rows j.. hold output
// columns contiguously in k, so four weight rows give a 4-column vector per
// p only after a transpose: 2-wide loads at (p, p+1) from rows j..j+3, paired
// by insertf128 into [r0 | r2] and [r1 | r3], split by unpacklo/hi into the
// column vectors at p and p+1. Each transposed strip feeds up to three rows of A.

/// C[r][j .. j+4G) += sum_p A[r][p] * Bt[(j+c)*ldb + p] for R rows: 4G
/// columns, R*G accumulators, one explicit FMA per p in ascending order from
/// 0 — the packed gemm_block's per-element sequence.
template <int R, int G>
inline void bt_strip(size_t j, size_t kb, const double* const* a, const double* Bt,
                     size_t ldb, double* const* c) {
  __m256d acc[R][G];
  for (int r = 0; r < R; ++r)
    for (int g = 0; g < G; ++g) acc[r][g] = _mm256_setzero_pd();
  const double* rows[4 * G];
  for (int t = 0; t < 4 * G; ++t) rows[t] = Bt + (j + static_cast<size_t>(t)) * ldb;
  size_t p = 0;
  for (; p + 2 <= kb; p += 2) {
    for (int g = 0; g < G; ++g) {
      const double* const* q = rows + 4 * g;
      const __m256d v02 = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(q[0] + p)), _mm_loadu_pd(q[2] + p), 1);
      const __m256d v13 = _mm256_insertf128_pd(
          _mm256_castpd128_pd256(_mm_loadu_pd(q[1] + p)), _mm_loadu_pd(q[3] + p), 1);
      const __m256d b0 = _mm256_unpacklo_pd(v02, v13);  // column values at p
      const __m256d b1 = _mm256_unpackhi_pd(v02, v13);  // ... and at p + 1
      for (int r = 0; r < R; ++r) {
        acc[r][g] = _mm256_fmadd_pd(_mm256_broadcast_sd(a[r] + p), b0, acc[r][g]);
        acc[r][g] = _mm256_fmadd_pd(_mm256_broadcast_sd(a[r] + p + 1), b1, acc[r][g]);
      }
    }
  }
  if (p < kb) {
    for (int g = 0; g < G; ++g) {
      const double* const* q = rows + 4 * g;
      const __m256d b0 = _mm256_setr_pd(q[0][p], q[1][p], q[2][p], q[3][p]);
      for (int r = 0; r < R; ++r)
        acc[r][g] = _mm256_fmadd_pd(_mm256_broadcast_sd(a[r] + p), b0, acc[r][g]);
    }
  }
  for (int r = 0; r < R; ++r)
    for (int g = 0; g < G; ++g)
      _mm256_storeu_pd(c[r] + j + 4 * g,
                       _mm256_add_pd(_mm256_loadu_pd(c[r] + j + 4 * g), acc[r][g]));
}

/// R rows of gemm_block_bt: 16-column strips, then 4-column strips, then
/// the scalar tail columns with gemm_block's unfused mul+add.
template <int R>
void bt_rows(size_t nb, size_t kb, const double* Apanel, const double* Bt, size_t ldb,
             double* C, size_t ldc) {
  const double* a[R];
  double* c[R];
  for (int r = 0; r < R; ++r) {
    a[r] = Apanel + static_cast<size_t>(r) * kb;
    c[r] = C + static_cast<size_t>(r) * ldc;
  }
  size_t j = 0;
  for (; j + 16 <= nb; j += 16) bt_strip<R, 4>(j, kb, a, Bt, ldb, c);
  for (; j + 4 <= nb; j += 4) bt_strip<R, 1>(j, kb, a, Bt, ldb, c);
  for (; j < nb; ++j) {
    const double* b = Bt + j * ldb;
    for (int r = 0; r < R; ++r) {
      double acc = 0;
      for (size_t p = 0; p < kb; ++p) acc += a[r][p] * b[p];
      c[r][j] += acc;
    }
  }
}

// ---------------------------------------------------------------------------
// The backend.

class Avx2Backend final : public ScalarBackend {
 public:
  [[nodiscard]] const char* name() const override { return "avx2"; }

  // 8-column FMA micro-kernel over 4-row register sub-tiles (11 live ymm:
  // 8 accumulators + 2 B vectors + 1 A broadcast). Remainders fall back to
  // the plain accumulate loops.
  void gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                  const double* Bpanel, double* C, size_t ldc) const override {
    size_t i = 0;
    for (; i + 4 <= mb; i += 4) {
      const double* a0 = Apanel + (i + 0) * kb;
      const double* a1 = Apanel + (i + 1) * kb;
      const double* a2 = Apanel + (i + 2) * kb;
      const double* a3 = Apanel + (i + 3) * kb;
      size_t j = 0;
      for (; j + 8 <= nb; j += 8) {
        __m256d c00 = _mm256_setzero_pd(), c01 = _mm256_setzero_pd();
        __m256d c10 = _mm256_setzero_pd(), c11 = _mm256_setzero_pd();
        __m256d c20 = _mm256_setzero_pd(), c21 = _mm256_setzero_pd();
        __m256d c30 = _mm256_setzero_pd(), c31 = _mm256_setzero_pd();
        for (size_t p = 0; p < kb; ++p) {
          const double* brow = Bpanel + p * nb + j;
          const __m256d b0 = _mm256_loadu_pd(brow);
          const __m256d b1 = _mm256_loadu_pd(brow + 4);
          __m256d av = _mm256_set1_pd(a0[p]);
          c00 = _mm256_fmadd_pd(av, b0, c00);
          c01 = _mm256_fmadd_pd(av, b1, c01);
          av = _mm256_set1_pd(a1[p]);
          c10 = _mm256_fmadd_pd(av, b0, c10);
          c11 = _mm256_fmadd_pd(av, b1, c11);
          av = _mm256_set1_pd(a2[p]);
          c20 = _mm256_fmadd_pd(av, b0, c20);
          c21 = _mm256_fmadd_pd(av, b1, c21);
          av = _mm256_set1_pd(a3[p]);
          c30 = _mm256_fmadd_pd(av, b0, c30);
          c31 = _mm256_fmadd_pd(av, b1, c31);
        }
        double* c0 = C + (i + 0) * ldc + j;
        double* c1 = C + (i + 1) * ldc + j;
        double* c2 = C + (i + 2) * ldc + j;
        double* c3 = C + (i + 3) * ldc + j;
        _mm256_storeu_pd(c0, _mm256_add_pd(_mm256_loadu_pd(c0), c00));
        _mm256_storeu_pd(c0 + 4, _mm256_add_pd(_mm256_loadu_pd(c0 + 4), c01));
        _mm256_storeu_pd(c1, _mm256_add_pd(_mm256_loadu_pd(c1), c10));
        _mm256_storeu_pd(c1 + 4, _mm256_add_pd(_mm256_loadu_pd(c1 + 4), c11));
        _mm256_storeu_pd(c2, _mm256_add_pd(_mm256_loadu_pd(c2), c20));
        _mm256_storeu_pd(c2 + 4, _mm256_add_pd(_mm256_loadu_pd(c2 + 4), c21));
        _mm256_storeu_pd(c3, _mm256_add_pd(_mm256_loadu_pd(c3), c30));
        _mm256_storeu_pd(c3 + 4, _mm256_add_pd(_mm256_loadu_pd(c3 + 4), c31));
      }
      for (; j + 4 <= nb; j += 4) {
        __m256d c0 = _mm256_setzero_pd(), c1 = _mm256_setzero_pd();
        __m256d c2 = _mm256_setzero_pd(), c3 = _mm256_setzero_pd();
        for (size_t p = 0; p < kb; ++p) {
          const __m256d b0 = _mm256_loadu_pd(Bpanel + p * nb + j);
          c0 = _mm256_fmadd_pd(_mm256_set1_pd(a0[p]), b0, c0);
          c1 = _mm256_fmadd_pd(_mm256_set1_pd(a1[p]), b0, c1);
          c2 = _mm256_fmadd_pd(_mm256_set1_pd(a2[p]), b0, c2);
          c3 = _mm256_fmadd_pd(_mm256_set1_pd(a3[p]), b0, c3);
        }
        double* r0 = C + (i + 0) * ldc + j;
        double* r1 = C + (i + 1) * ldc + j;
        double* r2 = C + (i + 2) * ldc + j;
        double* r3 = C + (i + 3) * ldc + j;
        _mm256_storeu_pd(r0, _mm256_add_pd(_mm256_loadu_pd(r0), c0));
        _mm256_storeu_pd(r1, _mm256_add_pd(_mm256_loadu_pd(r1), c1));
        _mm256_storeu_pd(r2, _mm256_add_pd(_mm256_loadu_pd(r2), c2));
        _mm256_storeu_pd(r3, _mm256_add_pd(_mm256_loadu_pd(r3), c3));
      }
      for (; j < nb; ++j) {
        for (size_t ii = i; ii < i + 4; ++ii) {
          double acc = 0;
          const double* a = Apanel + ii * kb;
          for (size_t p = 0; p < kb; ++p) acc += a[p] * Bpanel[p * nb + j];
          C[ii * ldc + j] += acc;
        }
      }
    }
    for (; i < mb; ++i) {
      const double* a = Apanel + i * kb;
      size_t j = 0;
      for (; j + 4 <= nb; j += 4) {
        __m256d c0 = _mm256_setzero_pd();
        for (size_t p = 0; p < kb; ++p)
          c0 = _mm256_fmadd_pd(_mm256_set1_pd(a[p]), _mm256_loadu_pd(Bpanel + p * nb + j), c0);
        double* r = C + i * ldc + j;
        _mm256_storeu_pd(r, _mm256_add_pd(_mm256_loadu_pd(r), c0));
      }
      for (; j < nb; ++j) {
        double acc = 0;
        for (size_t p = 0; p < kb; ++p) acc += a[p] * Bpanel[p * nb + j];
        C[i * ldc + j] += acc;
      }
    }
  }

  // Rows in groups of up to three: 3 rows x 4 column groups is 12
  // accumulators, the most the 16 ymm registers hold beside the strip.
  void gemm_block_bt(size_t mb, size_t nb, size_t kb, const double* Apanel,
                     const double* Bt, size_t ldb, double* C, size_t ldc) const override {
    size_t i = 0;
    for (; i + 3 <= mb; i += 3) bt_rows<3>(nb, kb, Apanel + i * kb, Bt, ldb, C + i * ldc, ldc);
    if (mb - i == 2) bt_rows<2>(nb, kb, Apanel + i * kb, Bt, ldb, C + i * ldc, ldc);
    if (mb - i == 1) bt_rows<1>(nb, kb, Apanel + i * kb, Bt, ldb, C + i * ldc, ldc);
  }

  // 4-row x 2-column register tile over 32-wide k steps (8 int32
  // accumulators + 2 B vectors + 1 A vector live), mirroring the f64
  // micro-kernel's 4-row structure. Per 32-step each int32 lane gains at
  // most 4 * 127^2 = 64516, so lane overflow needs k > ~1M — far beyond the
  // kQuantizedGemmMaxDepth bound callers enforce. Remainders use the shared
  // single-dot helper; everything is exact integer arithmetic, so this
  // kernel is bitwise identical to the scalar reference.
  void gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                 const double* a_scales, const int8_t* Bq, const double* b_scales,
                 double* C, size_t ldc) const override {
    size_t i = 0;
    for (; i + 4 <= mb; i += 4) {
      const int8_t* a0 = Aq + (i + 0) * kb;
      const int8_t* a1 = Aq + (i + 1) * kb;
      const int8_t* a2 = Aq + (i + 2) * kb;
      const int8_t* a3 = Aq + (i + 3) * kb;
      size_t j = 0;
      for (; j + 2 <= nb; j += 2) {
        const int8_t* b0 = Bq + (j + 0) * kb;
        const int8_t* b1 = Bq + (j + 1) * kb;
        __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
        __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
        __m256i c20 = _mm256_setzero_si256(), c21 = _mm256_setzero_si256();
        __m256i c30 = _mm256_setzero_si256(), c31 = _mm256_setzero_si256();
        size_t p = 0;
        for (; p + 32 <= kb; p += 32) {
          const __m256i vb0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0 + p));
          const __m256i vb1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b1 + p));
          __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + p));
          c00 = dot_i8_step(c00, va, vb0);
          c01 = dot_i8_step(c01, va, vb1);
          va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + p));
          c10 = dot_i8_step(c10, va, vb0);
          c11 = dot_i8_step(c11, va, vb1);
          va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a2 + p));
          c20 = dot_i8_step(c20, va, vb0);
          c21 = dot_i8_step(c21, va, vb1);
          va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a3 + p));
          c30 = dot_i8_step(c30, va, vb0);
          c31 = dot_i8_step(c31, va, vb1);
        }
        int32_t s[4][2] = {{hsum_epi32(c00), hsum_epi32(c01)},
                           {hsum_epi32(c10), hsum_epi32(c11)},
                           {hsum_epi32(c20), hsum_epi32(c21)},
                           {hsum_epi32(c30), hsum_epi32(c31)}};
        for (; p < kb; ++p) {
          const int32_t bb0 = b0[p], bb1 = b1[p];
          s[0][0] += a0[p] * bb0; s[0][1] += a0[p] * bb1;
          s[1][0] += a1[p] * bb0; s[1][1] += a1[p] * bb1;
          s[2][0] += a2[p] * bb0; s[2][1] += a2[p] * bb1;
          s[3][0] += a3[p] * bb0; s[3][1] += a3[p] * bb1;
        }
        for (size_t r = 0; r < 4; ++r) {
          C[(i + r) * ldc + j + 0] =
              (a_scales[i + r] * b_scales[j + 0]) * static_cast<double>(s[r][0]);
          C[(i + r) * ldc + j + 1] =
              (a_scales[i + r] * b_scales[j + 1]) * static_cast<double>(s[r][1]);
        }
      }
      for (; j < nb; ++j) {
        const int8_t* b = Bq + j * kb;
        C[(i + 0) * ldc + j] =
            (a_scales[i + 0] * b_scales[j]) * static_cast<double>(dot_i8_avx2(a0, b, kb));
        C[(i + 1) * ldc + j] =
            (a_scales[i + 1] * b_scales[j]) * static_cast<double>(dot_i8_avx2(a1, b, kb));
        C[(i + 2) * ldc + j] =
            (a_scales[i + 2] * b_scales[j]) * static_cast<double>(dot_i8_avx2(a2, b, kb));
        C[(i + 3) * ldc + j] =
            (a_scales[i + 3] * b_scales[j]) * static_cast<double>(dot_i8_avx2(a3, b, kb));
      }
    }
    for (; i < mb; ++i) {
      const int8_t* a = Aq + i * kb;
      for (size_t j = 0; j < nb; ++j) {
        C[i * ldc + j] = (a_scales[i] * b_scales[j]) *
                         static_cast<double>(dot_i8_avx2(a, Bq + j * kb, kb));
      }
    }
  }

  // 2-row x 2-column register tile over 16-wide k steps (4 int64
  // accumulators + 2 B vectors + 1 A vector plus the madd/widen temporaries
  // live). Everything is exact integer arithmetic, so this kernel is
  // bitwise identical to the scalar reference in backend.cpp.
  void gemm_int16(size_t mb, size_t nb, size_t kb, const int16_t* Aq,
                  const double* a_scales, const int16_t* Bq, const double* b_scales,
                  double* C, size_t ldc) const override {
    size_t i = 0;
    for (; i + 2 <= mb; i += 2) {
      const int16_t* a0 = Aq + (i + 0) * kb;
      const int16_t* a1 = Aq + (i + 1) * kb;
      size_t j = 0;
      for (; j + 2 <= nb; j += 2) {
        const int16_t* b0 = Bq + (j + 0) * kb;
        const int16_t* b1 = Bq + (j + 1) * kb;
        __m256i c00 = _mm256_setzero_si256(), c01 = _mm256_setzero_si256();
        __m256i c10 = _mm256_setzero_si256(), c11 = _mm256_setzero_si256();
        size_t p = 0;
        for (; p + 16 <= kb; p += 16) {
          const __m256i vb0 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b0 + p));
          const __m256i vb1 = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(b1 + p));
          __m256i va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a0 + p));
          c00 = dot_i16_step(c00, va, vb0);
          c01 = dot_i16_step(c01, va, vb1);
          va = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(a1 + p));
          c10 = dot_i16_step(c10, va, vb0);
          c11 = dot_i16_step(c11, va, vb1);
        }
        int64_t s[2][2] = {{hsum_epi64(c00), hsum_epi64(c01)},
                           {hsum_epi64(c10), hsum_epi64(c11)}};
        for (; p < kb; ++p) {
          const int64_t bb0 = b0[p], bb1 = b1[p];
          s[0][0] += a0[p] * bb0; s[0][1] += a0[p] * bb1;
          s[1][0] += a1[p] * bb0; s[1][1] += a1[p] * bb1;
        }
        for (size_t r = 0; r < 2; ++r) {
          C[(i + r) * ldc + j + 0] =
              (a_scales[i + r] * b_scales[j + 0]) * static_cast<double>(s[r][0]);
          C[(i + r) * ldc + j + 1] =
              (a_scales[i + r] * b_scales[j + 1]) * static_cast<double>(s[r][1]);
        }
      }
      for (; j < nb; ++j) {
        const int16_t* b = Bq + j * kb;
        C[(i + 0) * ldc + j] =
            (a_scales[i + 0] * b_scales[j]) * static_cast<double>(dot_i16_avx2(a0, b, kb));
        C[(i + 1) * ldc + j] =
            (a_scales[i + 1] * b_scales[j]) * static_cast<double>(dot_i16_avx2(a1, b, kb));
      }
    }
    for (; i < mb; ++i) {
      const int16_t* a = Aq + i * kb;
      for (size_t j = 0; j < nb; ++j) {
        C[i * ldc + j] = (a_scales[i] * b_scales[j]) *
                         static_cast<double>(dot_i16_avx2(a, Bq + j * kb, kb));
      }
    }
  }

  [[nodiscard]] PicGatherFn pic_gather(int shape) const override {
    switch (shape) {
      case 0: return &gather_range_avx2<NgpStencil, pic::Shape::NGP>;
      case 1: return &gather_range_avx2<CicStencil, pic::Shape::CIC>;
      default: return &gather_range_avx2<TscStencil, pic::Shape::TSC>;
    }
  }

  [[nodiscard]] PicStaggerFn pic_stagger(int shape) const override {
    switch (shape) {
      case 0: return &stagger_range_avx2<NgpStencil, pic::Shape::NGP>;
      case 1: return &stagger_range_avx2<CicStencil, pic::Shape::CIC>;
      default: return &stagger_range_avx2<TscStencil, pic::Shape::TSC>;
    }
  }

  [[nodiscard]] PicLeapfrogFn pic_leapfrog(int shape) const override {
    switch (shape) {
      case 0: return &leapfrog_range_avx2<NgpStencil, pic::Shape::NGP>;
      case 1: return &leapfrog_range_avx2<CicStencil, pic::Shape::CIC>;
      default: return &leapfrog_range_avx2<TscStencil, pic::Shape::TSC>;
    }
  }

  [[nodiscard]] PicDepositFn pic_deposit(int shape) const override {
    switch (shape) {
      case 0: return &deposit_range_avx2<NgpStencil, pic::Shape::NGP>;
      case 1: return &deposit_range_avx2<CicStencil, pic::Shape::CIC>;
      default: return &deposit_range_avx2<TscStencil, pic::Shape::TSC>;
    }
  }
};

}  // namespace

const KernelBackend* avx2_backend() {
  // The backend is compiled in; still require the running CPU to report
  // AVX2+FMA before handing it out.
  static const bool supported =
      __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
  static const Avx2Backend backend;
  return supported ? &backend : nullptr;
}

}  // namespace dlpic::nn

#else  // no AVX2/FMA in this build: the scalar backend serves everything.

namespace dlpic::nn {

const KernelBackend* avx2_backend() { return nullptr; }

}  // namespace dlpic::nn

#endif
