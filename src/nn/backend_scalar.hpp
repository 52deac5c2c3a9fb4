#pragma once
/// \file backend_scalar.hpp
/// The portable scalar KernelBackend plus the shape-templated PIC range
/// kernels it is built from. The range templates live here (not in the .cpp)
/// so the AVX2 backend reuses them verbatim for loop tails and for shapes it
/// does not vectorize — which is what keeps the two backends bitwise
/// identical on the PIC path.
///
/// Only backend implementation files include this header; everything else
/// goes through the KernelBackend interface in backend.hpp.

#include <cstddef>

#include "nn/backend.hpp"
#include "pic/shape_kernels.hpp"

namespace dlpic::nn {

namespace backend_detail {

template <pic::Shape S>
void gather_range(const double* E, const double* x, double* out, size_t lo, size_t hi,
                  double inv_dx, long ncells) {
  for (size_t p = lo; p < hi; ++p)
    out[p] = pic::gather_at<S>(E, x[p] * inv_dx, ncells);
}

template <pic::Shape S>
void stagger_range(const double* E, const double* x, double* v, size_t lo, size_t hi,
                   double inv_dx, long ncells, double qm_half_dt) {
  for (size_t p = lo; p < hi; ++p)
    v[p] += qm_half_dt * pic::gather_at<S>(E, x[p] * inv_dx, ncells);
}

template <pic::Shape S>
void leapfrog_range(const double* E, double* x, double* v, size_t lo, size_t hi,
                    double inv_dx, long ncells, double qm_dt, double dt, double length) {
  for (size_t p = lo; p < hi; ++p) {
    const double Ep = pic::gather_at<S>(E, x[p] * inv_dx, ncells);
    v[p] += qm_dt * Ep;
    x[p] = pic::wrap_periodic(x[p] + v[p] * dt, length);
  }
}

template <pic::Shape S>
void deposit_range(double* buf, const double* x, size_t lo, size_t hi, double inv_dx,
                   long ncells, double value) {
  for (size_t p = lo; p < hi; ++p)
    pic::scatter_at<S>(buf, x[p] * inv_dx, ncells, value);
}

}  // namespace backend_detail

/// Portable reference backend: a blocked 4x4 register-tile f64 GEMM
/// micro-kernel, plain widened-dot int8 (and, inherited from KernelBackend,
/// int16) GEMMs, and the shape-templated PIC range kernels above. Non-final:
/// the AVX2 backend derives from it, overriding every kernel with a SIMD
/// version that keeps this reference's results (bitwise, except the f64
/// GEMM's FMA rounding).
class ScalarBackend : public KernelBackend {
 public:
  [[nodiscard]] const char* name() const override { return "scalar"; }

  void gemm_block(size_t mb, size_t nb, size_t kb, const double* Apanel,
                  const double* Bpanel, double* C, size_t ldc) const override;

  void gemm_block_bt(size_t mb, size_t nb, size_t kb, const double* Apanel,
                     const double* Bt, size_t ldb, double* C, size_t ldc) const override;

  void gemm_int8(size_t mb, size_t nb, size_t kb, const int8_t* Aq,
                 const double* a_scales, const int8_t* Bq, const double* b_scales,
                 double* C, size_t ldc) const override;

  [[nodiscard]] PicGatherFn pic_gather(int shape) const override;
  [[nodiscard]] PicStaggerFn pic_stagger(int shape) const override;
  [[nodiscard]] PicLeapfrogFn pic_leapfrog(int shape) const override;
  [[nodiscard]] PicDepositFn pic_deposit(int shape) const override;
};

}  // namespace dlpic::nn
