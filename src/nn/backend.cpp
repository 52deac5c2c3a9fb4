#include "nn/backend.hpp"

#include <string>

#include "util/env.hpp"
#include "util/log.hpp"

namespace dlpic::nn {

// Reference int16 kernel: a plain widened dot per output element. The
// accumulation is exact integer arithmetic (and the int64 sum fits a double
// exactly under the kQuantizedGemmInt16MaxDepth bound), so the compiler is
// free to vectorize this loop without changing a single bit of the result.
void KernelBackend::gemm_int16(size_t mb, size_t nb, size_t kb, const int16_t* Aq,
                               const double* a_scales, const int16_t* Bq,
                               const double* b_scales, double* C, size_t ldc) const {
  for (size_t i = 0; i < mb; ++i) {
    const int16_t* a = Aq + i * kb;
    for (size_t j = 0; j < nb; ++j) {
      const int16_t* b = Bq + j * kb;
      int64_t acc = 0;
      for (size_t p = 0; p < kb; ++p)
        acc += static_cast<int64_t>(a[p]) * static_cast<int64_t>(b[p]);
      C[i * ldc + j] = (a_scales[i] * b_scales[j]) * static_cast<double>(acc);
    }
  }
}

// ---------------------------------------------------------------------------
// Selection.

namespace {

thread_local const KernelBackend* t_active_backend = nullptr;

const KernelBackend* resolve_default() {
  const std::string request = util::env_string_or("DLPIC_BACKEND", "auto");
  if (request == "scalar") return &scalar_backend();
  if (request == "avx2") {
    if (const KernelBackend* be = avx2_backend()) return be;
    DLPIC_LOG_WARN(
        "DLPIC_BACKEND=avx2 but this build/CPU has no AVX2 backend; "
        "falling back to scalar");
    return &scalar_backend();
  }
  if (request == "avx512") {
    if (const KernelBackend* be = avx512_backend()) return be;
    DLPIC_LOG_WARN(
        "DLPIC_BACKEND=avx512 but this build/CPU has no AVX-512 VNNI backend; "
        "falling back to scalar");
    return &scalar_backend();
  }
  if (!request.empty() && request != "auto")
    DLPIC_LOG_WARN(
        "unknown DLPIC_BACKEND '%s' (want scalar|avx2|avx512|auto); using auto",
        request.c_str());
  if (const KernelBackend* be = avx512_backend()) return be;
  if (const KernelBackend* be = avx2_backend()) return be;
  return &scalar_backend();
}

}  // namespace

const KernelBackend& default_backend() {
  static const KernelBackend* backend = resolve_default();
  return *backend;
}

const KernelBackend& active_backend() {
  return t_active_backend != nullptr ? *t_active_backend : default_backend();
}

const KernelBackend* backend_by_name(const char* name) {
  if (name == nullptr) return nullptr;
  const std::string n(name);
  if (n == "scalar") return &scalar_backend();
  if (n == "avx2") return avx2_backend();
  if (n == "avx512") return avx512_backend();
  return nullptr;
}

ScopedBackend::ScopedBackend(const KernelBackend* backend) : previous_(t_active_backend) {
  if (backend != nullptr) t_active_backend = backend;
}

ScopedBackend::~ScopedBackend() { t_active_backend = previous_; }

}  // namespace dlpic::nn
