#include "nn/quantize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>
#include <type_traits>

#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/residual.hpp"
#include "nn/sequential.hpp"
#include "util/parallel.hpp"

namespace dlpic::nn {

namespace {

// Output-tile shape of the quantized GEMM drivers. Smaller than the f64
// GEMM's blocks: there is no packing pass (both operands are already
// k-contiguous), so the tile only has to bound the working set of integer
// rows touched per task and expose enough tasks for small serving batches.
constexpr size_t kQBlockM = 32;
constexpr size_t kQBlockN = 64;

/// Round to nearest with halves away from zero — std::llround semantics for
/// the |v| <= 2^51 domain every scaled code lives in (|x * inv| <= a few
/// Limit), but inlineable arithmetic instead of a libm call: the add of
/// +/-0.5 is exact below 2^51, so the truncating cast lands on the llround
/// result independent of the FP rounding environment, which the bitwise-
/// reproducibility contract needs.
template <long long Limit>
long long round_code(double v) {
  long long code = static_cast<long long>(v + (v < 0.0 ? -0.5 : 0.5));
  return std::max(-Limit, std::min(Limit, code));
}

/// Quantizes one row with scale `s` (s > 0) into codes clamped to
/// [-Limit, Limit]. WithErr additionally returns the codes' round-trip
/// squared error — the precise path's selection metric; the fast path
/// skips it (the hot per-batch / per-image cost in quantized serving).
template <typename Code, long long Limit, bool WithErr>
double quantize_row(const double* x, size_t cols, double s, Code* q) {
  const double inv = 1.0 / s;
  double err = 0.0;
  for (size_t c = 0; c < cols; ++c) {
    const long long code = round_code<Limit>(x[c] * inv);
    q[c] = static_cast<Code>(code);
    if constexpr (WithErr) {
      const double d = x[c] - s * static_cast<double>(code);
      err += d * d;
    }
  }
  return err;
}

double row_absmax(const double* x, size_t cols) {
  double m = 0.0;
  for (size_t c = 0; c < cols; ++c) m = std::max(m, std::fabs(x[c]));
  return m;
}

/// Shared fast-path body: scale = absmax / Limit, one quantize pass per row.
template <typename Code, long long Limit>
void quantize_rows_fast_impl(const double* src, size_t rows, size_t cols, Code* q,
                             double* scales) {
  for (size_t r = 0; r < rows; ++r) {
    const double* x = src + r * cols;
    Code* qr = q + r * cols;
    const double absmax = row_absmax(x, cols);
    if (absmax == 0.0) {
      scales[r] = 0.0;
      std::memset(qr, 0, cols * sizeof(Code));
      continue;
    }
    const double s = absmax / static_cast<double>(Limit);
    scales[r] = s;
    (void)quantize_row<Code, Limit, false>(x, cols, s, qr);
  }
}

}  // namespace

const char* precision_name(Precision p) {
  switch (p) {
    case Precision::kInt8: return "int8";
    case Precision::kInt16: return "int16";
    default: return "f64";
  }
}

Precision precision_from_name(const std::string& name) {
  if (name == "f64") return Precision::kF64;
  if (name == "int8") return Precision::kInt8;
  if (name == "int16") return Precision::kInt16;
  throw std::invalid_argument("precision_from_name: unknown precision '" + name +
                              "' (want f64|int16|int8)");
}

void quantize_rows_fast(const double* src, size_t rows, size_t cols, int8_t* q,
                        double* scales) {
  quantize_rows_fast_impl<int8_t, 127>(src, rows, cols, q, scales);
}

void quantize_rows_fast_i16(const double* src, size_t rows, size_t cols, int16_t* q,
                            double* scales) {
  quantize_rows_fast_impl<int16_t, 32767>(src, rows, cols, q, scales);
}

void quantize_rows_precise(const double* src, size_t rows, size_t cols,
                           QuantizedMatrix& out) {
  // Candidate scales absmax/127 .. absmax/96 — a finer grid (smaller scale)
  // trades clipping of the largest entries against resolution for the rest;
  // keep whichever minimizes this row's round-trip error. t = 127 runs
  // first so the fast path's result is the tie-breaking baseline.
  constexpr long long kLimit = 127, kTMin = 96;
  out.rows = rows;
  out.cols = cols;
  out.q.resize(rows * cols);
  out.scales.resize(rows);
  std::vector<int8_t> trial(cols);
  for (size_t r = 0; r < rows; ++r) {
    const double* x = src + r * cols;
    int8_t* qr = out.q.data() + r * cols;
    const double absmax = row_absmax(x, cols);
    if (absmax == 0.0) {
      out.scales[r] = 0.0;
      std::memset(qr, 0, cols);
      continue;
    }
    double best_s = absmax / static_cast<double>(kLimit);
    double best_err = quantize_row<int8_t, kLimit, true>(x, cols, best_s, qr);
    for (long long t = kLimit - 1; t >= kTMin && best_err > 0.0; --t) {
      const double s = absmax / static_cast<double>(t);
      const double err = quantize_row<int8_t, kLimit, true>(x, cols, s, trial.data());
      if (err < best_err) {
        best_err = err;
        best_s = s;
        std::memcpy(qr, trial.data(), cols);
      }
    }
    out.scales[r] = best_s;
  }
}

namespace {

/// Shared 2D-tile dispatch of both quantized GEMM drivers: resolve the
/// backend on the calling thread and capture it (tile bodies run on pool
/// workers, where the thread-local selection is not in scope), then hand
/// each output tile to one task.
template <typename Kernel>
void quantized_gemm_tiles(size_t m, size_t n, Kernel&& kernel) {
  if (m == 0 || n == 0) return;
  const size_t m_blocks = (m + kQBlockM - 1) / kQBlockM;
  const size_t n_blocks = (n + kQBlockN - 1) / kQBlockN;
  util::parallel_for_chunks(
      0, m_blocks * n_blocks,
      [&](size_t tile_lo, size_t tile_hi) {
        for (size_t t = tile_lo; t < tile_hi; ++t) {
          const size_t i0 = (t / n_blocks) * kQBlockM;
          const size_t j0 = (t % n_blocks) * kQBlockN;
          kernel(i0, j0, std::min(kQBlockM, m - i0), std::min(kQBlockN, n - j0));
        }
      },
      /*grain=*/1);
}

}  // namespace

void quantized_gemm(size_t m, size_t n, size_t k, const int8_t* Aq,
                    const double* a_scales, const int8_t* Bq, const double* b_scales,
                    double* C, size_t ldc) {
  if (k > kQuantizedGemmMaxDepth)
    throw std::invalid_argument(
        "quantized_gemm: k = " + std::to_string(k) + " exceeds the int32 " +
        "accumulator bound kQuantizedGemmMaxDepth = " +
        std::to_string(kQuantizedGemmMaxDepth));
  const KernelBackend* backend = &active_backend();
  quantized_gemm_tiles(m, n, [&](size_t i0, size_t j0, size_t mb, size_t nb) {
    backend->gemm_int8(mb, nb, k, Aq + i0 * k, a_scales + i0, Bq + j0 * k,
                       b_scales + j0, C + i0 * ldc + j0, ldc);
  });
}

void quantized_gemm_i16(size_t m, size_t n, size_t k, const int16_t* Aq,
                        const double* a_scales, const int16_t* Bq,
                        const double* b_scales, double* C, size_t ldc) {
  if (k > kQuantizedGemmInt16MaxDepth)
    throw std::invalid_argument(
        "quantized_gemm_i16: k = " + std::to_string(k) + " exceeds the exact-" +
        "double bound kQuantizedGemmInt16MaxDepth = " +
        std::to_string(kQuantizedGemmInt16MaxDepth));
  const KernelBackend* backend = &active_backend();
  quantized_gemm_tiles(m, n, [&](size_t i0, size_t j0, size_t mb, size_t nb) {
    backend->gemm_int16(mb, nb, k, Aq + i0 * k, a_scales + i0, Bq + j0 * k,
                        b_scales + j0, C + i0 * ldc + j0, ldc);
  });
}

namespace {

/// Reduction depth of a layer's quantized GEMM, or 0 for layer types whose
/// forward is precision-independent (elementwise / reshaping / pooling).
/// Returns SIZE_MAX for types with no quantized path at all.
size_t quantized_gemm_depth(const Layer& layer) {
  if (const auto* dense = dynamic_cast<const Dense*>(&layer)) return dense->in_features();
  if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
    const Conv2DConfig& c = conv->config();
    return c.in_channels * c.kernel_h * c.kernel_w;
  }
  if (const auto* res = dynamic_cast<const ResidualDense*>(&layer))
    return std::max(res->inner().in_features(), res->outer().in_features());
  const std::string t = layer.type();
  if (t == "relu" || t == "leaky_relu" || t == "tanh" || t == "flatten" ||
      t == "reshape4" || t == "maxpool2d")
    return 0;  // runs on the dequantized f64 activations unchanged
  return SIZE_MAX;
}

}  // namespace

void validate_quantizable(const Sequential& model, Precision precision,
                          const std::string& model_name) {
  if (!is_quantized(precision)) return;
  const size_t bound = precision == Precision::kInt8 ? kQuantizedGemmMaxDepth
                                                     : kQuantizedGemmInt16MaxDepth;
  for (size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& layer = model.layer(i);
    const size_t depth = quantized_gemm_depth(layer);
    if (depth == SIZE_MAX)
      throw std::invalid_argument(
          "validate_quantizable: model '" + model_name + "' layer " +
          std::to_string(i) + " (" + layer.type() + ") has no " +
          precision_name(precision) + " path");
    if (depth > bound)
      throw std::invalid_argument(
          "validate_quantizable: model '" + model_name + "' layer " +
          std::to_string(i) + " (" + layer.type() + ") has reduction depth " +
          std::to_string(depth) + " exceeding the " + precision_name(precision) +
          " accumulator bound " + std::to_string(bound));
  }
}

template <typename Code>
void QuantizedWeightCache::put(const void* key, const double* rows, size_t nrows,
                               size_t ncols) {
  QuantizedRows<Code>& entry = std::get<Entries<Code>>(entries_)[key];
  if constexpr (std::is_same_v<Code, int8_t>) {
    quantize_rows_precise(rows, nrows, ncols, entry);
  } else {
    entry.rows = nrows;
    entry.cols = ncols;
    entry.q.resize(nrows * ncols);
    entry.scales.resize(nrows);
    quantize_rows_fast_i16(rows, nrows, ncols, entry.q.data(), entry.scales.data());
  }
}

template void QuantizedWeightCache::put<int8_t>(const void*, const double*, size_t, size_t);
template void QuantizedWeightCache::put<int16_t>(const void*, const double*, size_t, size_t);

void QuantizedWeightCache::build(const Sequential& model, Precision precision) {
  const auto add = [&](const void* key, const double* rows, size_t nrows,
                       size_t ncols) {
    if (precision == Precision::kInt16)
      put<int16_t>(key, rows, nrows, ncols);
    else
      put<int8_t>(key, rows, nrows, ncols);
  };
  for (size_t i = 0; i < model.layer_count(); ++i) {
    const Layer& layer = model.layer(i);
    if (const auto* dense = dynamic_cast<const Dense*>(&layer)) {
      add(dense, dense->weight().data(), dense->out_features(), dense->in_features());
    } else if (const auto* conv = dynamic_cast<const Conv2D*>(&layer)) {
      const Conv2DConfig& c = conv->config();
      add(conv, conv->weight().data(), c.out_channels,
          c.in_channels * c.kernel_h * c.kernel_w);
    } else if (const auto* res = dynamic_cast<const ResidualDense*>(&layer)) {
      const Dense& inner = res->inner();
      const Dense& outer = res->outer();
      add(&inner, inner.weight().data(), inner.out_features(), inner.in_features());
      add(&outer, outer.weight().data(), outer.out_features(), outer.in_features());
    }
  }
}

template <typename Code>
const QuantizedRows<Code>& cached_weights(const QuantizedWeightCache* cache,
                                          const void* key, size_t rows, size_t cols,
                                          const char* layer) {
  const char* width = std::is_same_v<Code, int8_t> ? "int8" : "int16";
  const QuantizedRows<Code>* entry = cache != nullptr ? cache->find<Code>(key) : nullptr;
  if (entry == nullptr) {
    const std::string why =
        cache == nullptr ? std::string("the context has no QuantizedWeightCache attached")
                         : std::string("the attached cache has no ") + width +
                               " entry for this layer";
    throw std::logic_error(std::string(layer) + "::forward: " + width +
                           " precision reads weight codes from a QuantizedWeightCache "
                           "built at " + width + ", but " + why);
  }
  if (entry->rows != rows || entry->cols != cols)
    throw std::logic_error(std::string(layer) +
                           "::forward: quantized weight cache shape mismatch");
  return *entry;
}

template const QuantizedRows<int8_t>& cached_weights<int8_t>(const QuantizedWeightCache*,
                                                             const void*, size_t, size_t,
                                                             const char*);
template const QuantizedRows<int16_t>& cached_weights<int16_t>(const QuantizedWeightCache*,
                                                               const void*, size_t, size_t,
                                                               const char*);

}  // namespace dlpic::nn
