#pragma once
/// \file backend.hpp
/// Pluggable compute-kernel backend: one vtable of the hot inner loops that
/// pay for a SIMD implementation — the f64 GEMM micro-kernels behind
/// math::gemm (dense layers, im2col convolutions; packed panels, or a
/// transposed B read in place below 16 rows), the int8/int16 quantized
/// GEMMs, and the PIC gather/stagger/leapfrog/deposit ranges. Everything
/// else (activations, optimizer updates, the MSE body, bias adds, FFT
/// butterflies) is a plain loop beside its one caller. Three
/// implementations ship: a portable scalar backend (backend_scalar.*), an
/// AVX2+FMA backend (backend_avx2.*) and an AVX-512 VNNI backend
/// (backend_avx512.*) — the SIMD files are compiled with per-file target
/// flags on x86-64 and selected at runtime via cpuid.
///
/// Selection rules:
///  - default_backend() resolves once per process from the DLPIC_BACKEND
///    environment variable: "scalar", "avx2", "avx512" (the latter two fall
///    back to scalar with a warning when the CPU or build lacks them), or
///    "auto"/unset (avx512 when available, else avx2, else scalar).
///  - active_backend() is the thread's current backend: a ScopedBackend
///    override when one is in scope, otherwise the process default.
///    ExecutionContext::set_backend() pins a context to a backend; the GEMM
///    layers (Dense, Conv2D) apply it through ScopedBackend, mirroring the
///    worker-cap plumbing.
///  - Kernels that fan out over the thread pool must capture the backend
///    pointer BEFORE dispatching (thread-locals do not propagate to pool
///    workers); every routed call site in this repo does.
///
/// Determinism contract: within one backend, results are bitwise invariant
/// under the worker count (all reductions keep fixed k-/block-order). The
/// quantized GEMMs and the PIC kernels are bitwise identical across
/// backends (exact integer sums; the PIC stencils mirror the scalar
/// operation order), while the f64 GEMM may differ in low bits (the AVX2
/// micro-kernel uses FMA). tests/nn/test_backend_parity.cpp enforces both
/// properties.
///
/// This header deliberately depends on nothing but <cstddef>/<cstdint> so
/// the lower layers (math, pic) can include it without cycles.

#include <cstddef>
#include <cstdint>

namespace dlpic::nn {

/// Largest k the int8 GEMM kernels accept: every dot product accumulates in
/// one int32, and with codes clamped to [-127, 127] the worst case is
/// k * 127^2, so k must satisfy k * 16129 <= 2^31 - 1.
inline constexpr size_t kQuantizedGemmMaxDepth = 133144;

/// Largest k the int16 GEMM kernels accept. The int64 accumulator itself is
/// nowhere near overflow, but the dequantization casts the sum to double:
/// bounding k * 32767^2 <= 2^53 (k <= 2^23) keeps that conversion exact, so
/// the int16 tier's bitwise and accuracy contracts never hinge on int64 ->
/// double rounding.
inline constexpr size_t kQuantizedGemmInt16MaxDepth = size_t(1) << 23;

/// Abstract kernel backend. Granularity: one virtual call per *range* (a
/// GEMM panel or a particle range), never per element, so dispatch cost is
/// immeasurable against the loop bodies.
class KernelBackend {
 public:
  virtual ~KernelBackend() = default;

  /// Stable identifier ("scalar", "avx2") — recorded in BENCH_*.json.
  [[nodiscard]] virtual const char* name() const = 0;

  // ------------------------------------------------------------- GEMM ----
  /// C (mb x nb, row stride ldc) += Apanel * Bpanel over packed panels:
  /// Apanel is mb x kb with row i at i*kb (alpha pre-applied by the packer),
  /// Bpanel is kb x nb with row p at p*nb. The k-order per output element is
  /// ascending p for every implementation, which keeps GEMM results
  /// batch-size- and worker-count-invariant.
  virtual void gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                          const double* Bpanel, double* C, size_t ldc) const = 0;

  /// gemm_block with op(B) read in place instead of from a packed panel:
  /// element (p, j) of the kb x nb block is Bt[j*ldb + p], i.e. row j of
  /// B^T (a Dense weight row) holds column j contiguously. math::gemm uses
  /// it for trans_b on row blocks of fewer than 16 rows, where transposing
  /// B into a panel costs more than it saves (the measured crossover is in
  /// linalg.cpp). Every output element
  /// sees the same operations in the same order as in gemm_block — a sum
  /// from 0 over ascending p (fused only on the columns j < (nb & ~3) that
  /// gemm_block covers with vectors), then C += sum — so the two entries
  /// are bitwise interchangeable within one backend.
  virtual void gemm_block_bt(size_t mb, size_t nb, size_t kb, const double* Apanel,
                             const double* Bt, size_t ldb, double* C,
                             size_t ldc) const = 0;

  /// Quantized inner-product panel, OVERWRITING C (mb x nb, row stride ldc):
  ///   C[i,j] = (a_scales[i] * b_scales[j]) * sum_p Aq[i*kb+p] * Bq[j*kb+p]
  /// Both operands are row-major with k contiguous (Bq is the transposed
  /// layout of gemm_block's RHS) and hold codes in [-127, 127] — never -128,
  /// which the AVX2 abs/sign kernel relies on to rule out maddubs
  /// saturation. The dot products are exact int32 sums (callers bound kb by
  /// kQuantizedGemmMaxDepth) and every implementation dequantizes with this
  /// exact expression, so the int8 path is bitwise identical across
  /// backends, worker counts and batch sizes.
  virtual void gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                         const double* a_scales, const int8_t* Bq,
                         const double* b_scales, double* C, size_t ldc) const = 0;

  /// Int16 sibling of gemm_int8 (same layout, OVERWRITES C): codes are in
  /// [-32767, 32767] — never -32768, so a pairwise int16 madd product fits
  /// int32 exactly (2 * 32767^2 < 2^31) — and the dot products accumulate
  /// in exact int64 (vectorized kernels widen each pairwise int32 before
  /// accumulating). Callers bound kb by kQuantizedGemmInt16MaxDepth, which
  /// also makes the final int64 -> double dequantization cast exact; every
  /// implementation is therefore bitwise identical. The base implementation
  /// is the scalar reference (a plain widened dot).
  virtual void gemm_int16(size_t mb, size_t nb, size_t kb, const int16_t* Aq,
                          const double* a_scales, const int16_t* Bq,
                          const double* b_scales, double* C, size_t ldc) const;

  // ------------------------------------------------------- PIC kernels ----
  // Shape index matches pic::Shape: 0 = NGP, 1 = CIC, 2 = TSC (kept as an
  // int so this header does not depend on the pic layer). The functions are
  // plain pointers: the PIC drivers fetch them once per call and invoke them
  // from parallel chunk bodies with zero virtual dispatch in the loop.

  /// out[p] = field gathered at x[p]*inv_dx for p in [lo, hi).
  using PicGatherFn = void (*)(const double* E, const double* x, double* out, size_t lo,
                               size_t hi, double inv_dx, long ncells);
  /// v[p] += qm_half_dt * gather(x[p]) for p in [lo, hi) — the half-step
  /// velocity stagger.
  using PicStaggerFn = void (*)(const double* E, const double* x, double* v, size_t lo,
                                size_t hi, double inv_dx, long ncells, double qm_half_dt);
  /// Fused kick+drift: v[p] += qm_dt*gather(x[p]); x[p] = wrap(x[p]+v[p]*dt)
  /// into [0, length). The wrap equals the formula y = fmod(x, L); if (y < 0)
  /// y += L; if (y >= L) y -= L; bit for bit (pic::wrap_periodic), and fmod
  /// runs only for positions outside (-L, 2L).
  using PicLeapfrogFn = void (*)(const double* E, double* x, double* v, size_t lo,
                                 size_t hi, double inv_dx, long ncells, double qm_dt,
                                 double dt, double length);
  /// buf[stencil nodes of x[p]] += value * weights, scattered in ascending
  /// particle order (callers pass per-worker private buffers; the fixed
  /// scatter order keeps the ordered reduction worker-count-invariant).
  using PicDepositFn = void (*)(double* buf, const double* x, size_t lo, size_t hi,
                                double inv_dx, long ncells, double value);

  [[nodiscard]] virtual PicGatherFn pic_gather(int shape) const = 0;
  [[nodiscard]] virtual PicStaggerFn pic_stagger(int shape) const = 0;
  [[nodiscard]] virtual PicLeapfrogFn pic_leapfrog(int shape) const = 0;
  [[nodiscard]] virtual PicDepositFn pic_deposit(int shape) const = 0;
};

/// The portable scalar backend (always available).
const KernelBackend& scalar_backend();

/// The AVX2+FMA backend, or nullptr when the build or the CPU lacks it.
const KernelBackend* avx2_backend();

/// The AVX-512 VNNI backend (vpdpbusd int8 GEMM, everything else delegated
/// to the AVX2 backend), or nullptr when the build or the CPU lacks
/// AVX512VNNI+BW+VL. Bitwise identical to avx2 on every kernel: the f64
/// GEMM, int16 GEMM and PIC paths literally run the AVX2 code, and the int8
/// kernel is exact integer arithmetic.
const KernelBackend* avx512_backend();

/// Process default resolved once from DLPIC_BACKEND (see file header).
const KernelBackend& default_backend();

/// The calling thread's backend: innermost ScopedBackend override when one
/// is active, otherwise default_backend().
const KernelBackend& active_backend();

/// Looks a backend up by name ("scalar" | "avx2" | "avx512"); nullptr when
/// unknown or unavailable on this host.
const KernelBackend* backend_by_name(const char* name);

/// RAII thread-local backend override (the mechanism behind per-
/// ExecutionContext backend policy). A null pointer is a no-op — the
/// current selection stays active — so callers can plumb "nullptr =
/// inherit" knobs through unconditionally. Nestable.
class ScopedBackend {
 public:
  explicit ScopedBackend(const KernelBackend* backend);
  ~ScopedBackend();
  ScopedBackend(const ScopedBackend&) = delete;
  ScopedBackend& operator=(const ScopedBackend&) = delete;

 private:
  const KernelBackend* previous_;
};

}  // namespace dlpic::nn
