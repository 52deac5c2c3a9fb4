#pragma once
/// \file quantize.hpp
/// Per-row symmetric quantization (int8 and int16 tiers) and the quantized
/// GEMM drivers — the reduced-precision inference paths behind the
/// KernelBackend seam.
///
/// Scheme (the dlibx qmat idiom): every row is quantized independently with
/// its own scale s so q[i] = clamp(round(x[i] / s), -Q, Q) and
/// x[i] ~= s * q[i], with Q = 127 for int8 and Q = 32767 for int16. Static
/// operands (layer weights) are quantized once, into a QuantizedWeightCache
/// — int8 through the *precise* path (a small scale search minimizing the
/// round-trip error), int16 through the fast path, whose 15-bit grid leaves
/// a search almost nothing to gain — while dynamic operands (activations,
/// im2col columns) use the *fast* path, s = row_absmax / Q, a single pass
/// per row. A quantized layer forward never quantizes its own weights: it
/// reads them from the context's cache and throws std::logic_error when the
/// cache has no entry for it. The GEMMs accumulate exact integer dot
/// products (int32 for int8 codes, int64 for int16 codes) and dequantize
/// with per-row LHS x per-row RHS scales:
///
///   C[i,j] = (a_scales[i] * b_scales[j]) * sum_p Aq[i,p] * Bq[j,p]
///
/// Determinism contract: integer sums are exact and the dequantization
/// expression is fixed, so int8 AND int16 results are bitwise identical
/// across backends, worker counts and batch sizes — a *stronger*
/// reproducibility guarantee than the f64 path (which is bitwise only
/// within one backend). Accuracy versus the f64 reference is a budgeted
/// contract, not bitwise, and int16 sits strictly between f64 and int8 on
/// the accuracy/throughput ladder (tests/nn/test_quantize.cpp pins the
/// bitwise, budget and monotonicity properties).
///
/// Values never reach the type minimum (-128 / -32768): the clamp to
/// [-Q, Q] is what lets the AVX2 kernel use the abs/sign + maddubs trick
/// and the AVX-512 kernel use abs/mask-negate + vpdpbusd without
/// saturation, and keeps every int16 madd pair within int32.

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "nn/backend.hpp"

namespace dlpic::nn {

class Sequential;

/// Numeric precision an ExecutionContext (and hence every Dense/Conv2D
/// forward it runs) executes at. kF64 is the full-precision reference; the
/// quantized tiers route GEMMs through the integer kernels (inference
/// only). The ladder: f64 (exact, 1x) > int16 (tight budget, ~1.5-2x GEMM)
/// > int8 (looser budget, ~2-4x GEMM).
enum class Precision : uint8_t {
  kF64 = 0,   ///< full-precision double GEMM (training + inference)
  kInt8 = 1,  ///< per-row dynamic int8 GEMM (inference only)
  kInt16 = 2, ///< per-row dynamic int16 GEMM (inference only)
};

/// True for the integer inference tiers (kInt8, kInt16).
[[nodiscard]] constexpr bool is_quantized(Precision p) {
  return p != Precision::kF64;
}

/// Stable identifier ("f64", "int8", "int16") — recorded in BENCH_*.json
/// context.
[[nodiscard]] const char* precision_name(Precision p);

/// Parses "f64" | "int8" | "int16"; throws std::invalid_argument on
/// anything else.
[[nodiscard]] Precision precision_from_name(const std::string& name);

/// A row-major matrix of integer codes with one dequantization scale per
/// row: original[r][c] ~= scales[r] * q[r * cols + c].
template <typename Code>
struct QuantizedRows {
  size_t rows = 0;
  size_t cols = 0;
  std::vector<Code> q;         ///< rows * cols codes in [-Q, Q]
  std::vector<double> scales;  ///< one scale per row (0.0 for all-zero rows)
};
using QuantizedMatrix = QuantizedRows<int8_t>;     ///< Q = 127
using QuantizedMatrix16 = QuantizedRows<int16_t>;  ///< Q = 32767

/// Fast per-row int8 quantization (one pass per row, scale = absmax / 127)
/// into caller-provided storage: `q` holds rows*cols values, `scales` one
/// entry per row. The runtime path for dynamic activations — callers stage
/// `q` and `scales` in grow-only workspace scratch so steady state
/// allocates nothing. An all-zero row quantizes to scale 0 with all-zero
/// codes.
void quantize_rows_fast(const double* src, size_t rows, size_t cols, int8_t* q,
                        double* scales);

/// Fast per-row int16 quantization (scale = absmax / 32767) — the int16
/// tier's analogue of quantize_rows_fast, same storage contract. Also what
/// QuantizedWeightCache uses for int16 weight entries.
void quantize_rows_fast_i16(const double* src, size_t rows, size_t cols, int16_t* q,
                            double* scales);

/// Precise per-row int8 quantization: searches a small set of candidate
/// scales (absmax / t for t near 127) and keeps the one minimizing the
/// row's round-trip squared error. ~30x the cost of the fast path — meant
/// for static weights quantized once, when a weight cache is built.
void quantize_rows_precise(const double* src, size_t rows, size_t cols,
                           QuantizedMatrix& out);

/// C (m x n, row stride ldc, overwritten) = diag(a_scales) (Aq Bq^T)
/// diag(b_scales): Aq is m x k row-major, Bq is n x k row-major (both
/// k-contiguous, so no packing pass is needed), C[i,j] dequantizes the exact
/// int32 dot product of Aq row i and Bq row j. Parallel over 2D output tiles
/// with the backend captured on the calling thread (same dispatch shape as
/// math::gemm); every tile is owned by one task and the sums are exact, so
/// the result is bitwise invariant under the worker count AND the backend.
/// Throws std::invalid_argument when k > kQuantizedGemmMaxDepth (int32
/// accumulator overflow bound).
void quantized_gemm(size_t m, size_t n, size_t k, const int8_t* Aq,
                    const double* a_scales, const int8_t* Bq, const double* b_scales,
                    double* C, size_t ldc);

/// Int16 variant of quantized_gemm: same layout, dispatch and bitwise
/// contracts, exact int64 accumulation behind KernelBackend::gemm_int16.
/// Throws std::invalid_argument when k > kQuantizedGemmInt16MaxDepth (the
/// bound keeping the int64 sum exactly representable in a double).
void quantized_gemm_i16(size_t m, size_t n, size_t k, const int16_t* Aq,
                        const double* a_scales, const int16_t* Bq,
                        const double* b_scales, double* C, size_t ldc);

/// Throws std::invalid_argument when `model` cannot run at `precision`:
/// a GEMM-bearing layer (dense / conv2d / residual_dense) whose reduction
/// depth exceeds the precision's accumulator bound, or a layer type with
/// neither a quantized GEMM path nor a precision-independent forward. The
/// message names `model_name`, the offending layer (index + type) and the
/// violated bound. kF64 accepts every model. ModelRegistry::add calls this
/// so misconfigured bundles fail at registration, not mid-batch.
void validate_quantizable(const Sequential& model, Precision precision,
                          const std::string& model_name);

/// Quantized static weights of a model, keyed by layer address: int8
/// entries precise-quantized, int16 entries fast-quantized. Built once per
/// model and precision (ModelBundle does it at registration, DlFieldSolver
/// at its first quantized inference) and read lock-free by every forward.
/// The entries are a snapshot: a later write to the model's weights is not
/// seen until the cache is rebuilt. Dense/Conv2D quantized forwards take
/// their weight codes only from here (see cached_weights()).
class QuantizedWeightCache {
 public:
  /// Quantizes one [nrows x ncols] weight matrix at Code width under `key`
  /// (replacing any previous entry at that width). `key` is the owning
  /// layer's address. Instantiated for int8_t and int16_t.
  template <typename Code>
  void put(const void* key, const double* rows, size_t nrows, size_t ncols);

  /// Walks `model` and put()s every GEMM weight matrix — each Dense, each
  /// Conv2D filter matrix ([oc, ic*kh*kw], already k-contiguous), and the
  /// dense pair inside each ResidualDense block — keyed by layer address,
  /// at the code width `precision` selects (int16 for kInt16, else int8).
  /// Read-only on the model.
  void build(const Sequential& model, Precision precision = Precision::kInt8);

  /// The Code-width entry for `key`, or nullptr. Safe to call concurrently
  /// with other readers; not with put()/build()/clear().
  template <typename Code>
  [[nodiscard]] const QuantizedRows<Code>* find(const void* key) const {
    const auto& map = std::get<Entries<Code>>(entries_);
    const auto it = map.find(key);
    return it != map.end() ? &it->second : nullptr;
  }

  void clear() {
    std::get<0>(entries_).clear();
    std::get<1>(entries_).clear();
  }
  [[nodiscard]] size_t size() const {
    return std::get<0>(entries_).size() + std::get<1>(entries_).size();
  }
  [[nodiscard]] bool empty() const { return size() == 0; }

 private:
  template <typename Code>
  using Entries = std::unordered_map<const void*, QuantizedRows<Code>>;
  std::tuple<Entries<int8_t>, Entries<int16_t>> entries_;
};

/// The Code-width weight codes of the [rows x cols] matrix owned by `key`,
/// as a quantized forward of layer type `layer` reads them. Throws
/// std::logic_error, naming `layer` and the precision, when `cache` is
/// null, holds no entry for `key` at this width, or holds one of another
/// shape. Instantiated for int8_t and int16_t.
template <typename Code>
const QuantizedRows<Code>& cached_weights(const QuantizedWeightCache* cache,
                                          const void* key, size_t rows, size_t cols,
                                          const char* layer);

}  // namespace dlpic::nn
