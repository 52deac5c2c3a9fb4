#pragma once
/// \file fft_plan.hpp
/// Plan-based FFT engine for the spectral field solve.
///
/// An FftPlan precomputes everything a transform of one size ever needs —
/// twiddle tables, the bit-reversal permutation, the stage schedule, and
/// (for non-power-of-two sizes) the Bluestein chirp and its transformed
/// convolution kernel — so the per-call work is nothing but table-driven
/// butterflies. The inner loops (radix-2 / fused radix-4 stages and the
/// pointwise complex products) are plain scalar loops private to
/// fft_plan.cpp — the FFT depends on no kernel backend. They are compiled
/// without FP contraction, so spectra are bit-identical across the radix-4
/// / radix-2-only schedules.
///
/// Plan shapes:
///  * power-of-two n — iterative Cooley–Tukey: bit-reversal permutation,
///    one multiply-free len == 2 stage, then fused radix-4 passes (each
///    exactly two radix-2 stages, so the fusion is a memory-pass
///    optimization, not a numerical change), with a single radix-2 stage
///    when log2(n) is odd.
///  * any other n — Bluestein's algorithm: the length-n DFT becomes a
///    circular convolution of length m = next_pow2(2n-1) executed with the
///    power-of-two machinery above. O(n log n) for every size; the old
///    O(n²) direct-DFT fallback is gone.
///
/// Real transforms: rfft/irfft use the half-size complex trick for even n
/// (an n-point real transform rides on an n/2-point complex FFT) and the
/// full complex path for odd n. The spectrum layout is the usual
/// real-transform packing: bins 0..n/2 (spectrum_size() = n/2 + 1 entries),
/// bin 0 and — for even n — bin n/2 having zero imaginary part.
///
/// Plan lifetime: plans are immutable after construction and therefore
/// shareable between threads; get_fft_plan() interns them in a process-wide
/// size-keyed cache that lives until exit. Transform calls on a constructed
/// plan never allocate (per-thread scratch for the Bluestein/odd-size paths
/// is grow-only), which is what keeps the steady-state PIC field solve
/// allocation-free at every grid size. First-use planning is covered by the
/// fault-injection site "fft_plan.create".

#include <complex>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dlpic::math {

using cplx = std::complex<double>;

/// Immutable transform plan for one size. Construct directly for an owned
/// plan or share through get_fft_plan(); every member function is const and
/// thread-safe.
class FftPlan {
 public:
  /// Builds the plan (twiddles, permutation, stage schedule; Bluestein
  /// tables for non-power-of-two sizes). Throws std::invalid_argument for
  /// n == 0.
  explicit FftPlan(size_t n);

  /// Transform size.
  [[nodiscard]] size_t size() const { return n_; }
  /// Number of packed real-spectrum bins, n/2 + 1.
  [[nodiscard]] size_t spectrum_size() const { return n_ / 2 + 1; }
  /// True when the size is a power of two (pure Cooley–Tukey schedule).
  [[nodiscard]] bool pow2() const { return pow2_; }

  /// In-place forward transform (engineering sign, e^{-i 2π jk/n}) of n
  /// complex elements.
  void forward(cplx* data) const;
  /// In-place inverse transform including the 1/n normalization.
  void inverse(cplx* data) const;

  /// Real-to-complex forward transform: n reals in, spectrum_size() bins
  /// out, identical to bins 0..n/2 of the complex transform of `in`.
  /// `out` must not alias `in`.
  void rfft(const double* in, cplx* out) const;
  /// Inverse of rfft including the 1/n normalization: spectrum_size() bins
  /// in (conjugate symmetry of the missing bins is implied), n reals out.
  /// `out` must not alias `in`.
  void irfft(const cplx* in, double* out) const;

  /// Test hook: the forward transform executed with every fused radix-4
  /// pass split back into its two radix-2 stages (same tables). The
  /// fused schedule must match this bitwise; only meaningful for pow2().
  void forward_radix2_only(cplx* data) const;

 private:
  // One butterfly pass of the power-of-two schedule. Twiddle offsets index
  // tw_fwd_/tw_inv_ (same layout): a radix-2 pass owns len/2 interleaved
  // entries; a fused radix-4 pass owns 3q (twA | twB | twC, q = len/4).
  struct Pass {
    size_t len;
    bool radix4;
    size_t tw_offset;
  };

  void build_pow2_schedule();
  void build_bluestein();
  void execute(double* data, bool inverse_tables) const;
  void bluestein_run(double* data, const std::vector<double>& chirp,
                     const std::vector<double>& fb, double scale) const;

  size_t n_;
  bool pow2_;
  std::vector<uint32_t> bitrev_;       // j = bitrev_[i]; swap when i < j
  std::vector<Pass> passes_;
  std::vector<double> tw_fwd_;         // interleaved forward twiddles
  std::vector<double> tw_inv_;         // conjugate layout-identical tables
  std::vector<double> rtw_fwd_;        // rfft unpack twiddles w^k, k <= h/2
  std::vector<double> rtw_inv_;        // irfft repack twiddles w^{-k}
  // Bluestein tables (empty for pow2 plans): chirp c_j (n entries), and the
  // transformed convolution kernel FFT_m(b) for each direction (m entries).
  std::vector<double> chirp_fwd_;
  std::vector<double> chirp_inv_;
  std::vector<double> fb_fwd_;
  std::vector<double> fb_inv_;
  const FftPlan* half_ = nullptr;      // even n: the n/2 plan rfft rides on
  const FftPlan* inner_ = nullptr;     // Bluestein: the size-m pow2 plan
};

/// Interns the plan for size n in the process-wide cache and returns it.
/// Thread-safe; the returned reference lives until process exit. First-use
/// planning passes the fault-injection point "fft_plan.create" (allocation
/// faults during planning leave the cache unchanged).
const FftPlan& get_fft_plan(size_t n);

/// Number of distinct sizes currently interned (diagnostics/tests).
size_t fft_plan_cache_size();

}  // namespace dlpic::math
