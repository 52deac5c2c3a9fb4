#include "math/fft_plan.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>
#include <numbers>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "util/fault_injection.hpp"

namespace dlpic::math {

namespace {

/// e^{-2πi k/N} with exact values at quadrant multiples, so unit twiddles
/// are exactly (±1, 0) / (0, ±1) and never leak a ±epsilon into butterflies
/// that contract-wise multiply by them.
std::pair<double, double> unit_root(size_t k, size_t N) {
  const size_t r = k % N;
  if ((4 * r) % N == 0) {
    switch ((4 * r) / N) {
      case 0: return {1.0, 0.0};
      case 1: return {0.0, -1.0};
      case 2: return {-1.0, 0.0};
      default: return {0.0, 1.0};
    }
  }
  const double ang =
      -2.0 * std::numbers::pi * static_cast<double>(r) / static_cast<double>(N);
  return {std::cos(ang), std::sin(ang)};
}

size_t log2_of_pow2(size_t n) {
  size_t lg = 0;
  while ((size_t(1) << lg) < n) ++lg;
  return lg;
}

size_t next_pow2(size_t n) {
  size_t m = 1;
  while (m < n) m <<= 1;
  return m;
}

// Butterfly kernels over interleaved complex doubles (re at 2i, im at
// 2i+1; `n` counts complex elements). Every complex product is computed as
// re = vr*wr - vi*wi, im = vr*wi + vi*wr with no FMA: the library is
// compiled with -ffp-contract=off, and under GCC this file also without
// auto-vectorization (CMakeLists.txt), so spectra are bit-identical across
// the radix-4 / radix-2-only schedules on every -march.

/// One radix-2 Cooley-Tukey stage in place: for every block of `len`,
/// butterfly (u, v) pairs split at len/2 with v scaled by tw[k] (len/2
/// interleaved entries).
void radix2_pass(size_t n, size_t len, const double* tw, double* data) {
  const size_t half = len / 2;
  if (len == 2) {
    // The only twiddle is exactly 1: skip the multiply so signed zeros in
    // the input can never flip sign through a `* 0.0` term.
    for (size_t i = 0; i < n; i += 2) {
      double* p = data + 2 * i;
      const double ur = p[0], ui = p[1];
      const double vr = p[2], vi = p[3];
      p[0] = ur + vr;
      p[1] = ui + vi;
      p[2] = ur - vr;
      p[3] = ui - vi;
    }
    return;
  }
  for (size_t i = 0; i < n; i += len) {
    double* base = data + 2 * i;
    for (size_t k = 0; k < half; ++k) {
      const double wr = tw[2 * k], wi = tw[2 * k + 1];
      double* u = base + 2 * k;
      double* v = base + 2 * (k + half);
      const double vr = v[0] * wr - v[1] * wi;
      const double vi = v[0] * wi + v[1] * wr;
      const double ur = u[0], ui = u[1];
      u[0] = ur + vr;
      u[1] = ui + vi;
      v[0] = ur - vr;
      v[1] = ui - vi;
    }
  }
}

/// Two fused radix-2 stages (spans len/2 then len): 4-point butterflies at
/// strides q = len/4 using three interleaved twiddle tables of q entries
/// each — twA = tw_{len/2}[0..q), twB = tw_len[0..q), twC = tw_len[q..2q).
/// Bitwise identical to radix2_pass(len/2) followed by radix2_pass(len) on
/// the same tables (q == 1 therefore skips the twA multiply like a len == 2
/// stage).
void radix4_pass(size_t n, size_t len, const double* twA, const double* twB,
                 const double* twC, double* data) {
  const size_t q = len / 4;
  for (size_t i = 0; i < n; i += len) {
    double* base = data + 2 * i;
    for (size_t k = 0; k < q; ++k) {
      double* p0 = base + 2 * k;
      double* p1 = base + 2 * (k + q);
      double* p2 = base + 2 * (k + 2 * q);
      double* p3 = base + 2 * (k + 3 * q);
      // Stage len/2: butterflies (p0, p1) and (p2, p3) with twiddle twA[k].
      double t1r, t1i, t3r, t3i;
      if (q == 1) {
        // twA is the unit twiddle of a len == 2 stage: no multiply.
        t1r = p1[0], t1i = p1[1];
        t3r = p3[0], t3i = p3[1];
      } else {
        const double ar = twA[2 * k], ai = twA[2 * k + 1];
        t1r = p1[0] * ar - p1[1] * ai;
        t1i = p1[0] * ai + p1[1] * ar;
        t3r = p3[0] * ar - p3[1] * ai;
        t3i = p3[0] * ai + p3[1] * ar;
      }
      const double u0r = p0[0] + t1r, u0i = p0[1] + t1i;
      const double u1r = p0[0] - t1r, u1i = p0[1] - t1i;
      const double u2r = p2[0] + t3r, u2i = p2[1] + t3i;
      const double u3r = p2[0] - t3r, u3i = p2[1] - t3i;
      // Stage len: butterflies (u0, u2) with twB[k] and (u1, u3) with twC[k].
      const double br = twB[2 * k], bi = twB[2 * k + 1];
      const double v2r = u2r * br - u2i * bi;
      const double v2i = u2r * bi + u2i * br;
      const double cr = twC[2 * k], ci = twC[2 * k + 1];
      const double v3r = u3r * cr - u3i * ci;
      const double v3i = u3r * ci + u3i * cr;
      p0[0] = u0r + v2r;
      p0[1] = u0i + v2i;
      p1[0] = u1r + v3r;
      p1[1] = u1i + v3i;
      p2[0] = u0r - v2r;
      p2[1] = u0i - v2i;
      p3[0] = u1r - v3r;
      p3[1] = u1i - v3i;
    }
  }
}

/// Pointwise complex product out[i] = a[i] * b[i] over n interleaved
/// complex elements (the Bluestein chirp/convolution multiplies). out may
/// alias a.
void cplx_mul(size_t n, const double* a, const double* b, double* out) {
  for (size_t i = 0; i < n; ++i) {
    const double ar = a[2 * i], ai = a[2 * i + 1];
    const double br = b[2 * i], bi = b[2 * i + 1];
    out[2 * i] = ar * br - ai * bi;
    out[2 * i + 1] = ar * bi + ai * br;
  }
}

// Per-thread grow-only scratch. The Bluestein convolution buffer is safe to
// share across plans because the inner transform is always a power of two
// (it can never re-enter bluestein_run); the full-spectrum buffer serves the
// odd-size real transforms. Grow-only keeps steady-state transforms at any
// fixed set of sizes allocation-free.
double* bluestein_scratch(size_t doubles) {
  thread_local std::vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

double* full_spectrum_scratch(size_t doubles) {
  thread_local std::vector<double> buf;
  if (buf.size() < doubles) buf.resize(doubles);
  return buf.data();
}

}  // namespace

FftPlan::FftPlan(size_t n) : n_(n), pow2_(n >= 1 && (n & (n - 1)) == 0) {
  if (n == 0) throw std::invalid_argument("FftPlan: size must be positive");
  if (pow2_)
    build_pow2_schedule();
  else
    build_bluestein();
  if (n % 2 == 0) {
    // rfft/irfft ride on the half-size complex plan; the unpack twiddles
    // w^k = e^{-2πik/n} cover k in [0, n/2).
    half_ = &get_fft_plan(n / 2);
    const size_t h = n / 2;
    rtw_fwd_.reserve(2 * h);
    rtw_inv_.reserve(2 * h);
    for (size_t k = 0; k < h; ++k) {
      const auto [c, s] = unit_root(k, n);
      rtw_fwd_.push_back(c);
      rtw_fwd_.push_back(s);
      rtw_inv_.push_back(c);
      rtw_inv_.push_back(-s);
    }
  }
}

void FftPlan::build_pow2_schedule() {
  const size_t lg = log2_of_pow2(n_);
  bitrev_.resize(n_);
  bitrev_[0] = 0;
  for (size_t i = 1; i < n_; ++i)
    bitrev_[i] = static_cast<uint32_t>((bitrev_[i >> 1] >> 1) |
                                       ((i & 1) << (lg - 1)));
  if (n_ < 2) return;

  auto append_radix2 = [&](size_t len) {
    const size_t offset = tw_fwd_.size();
    for (size_t k = 0; k < len / 2; ++k) {
      const auto [c, s] = unit_root(k, len);
      tw_fwd_.push_back(c);
      tw_fwd_.push_back(s);
      tw_inv_.push_back(c);
      tw_inv_.push_back(-s);
    }
    passes_.push_back({len, false, offset});
  };
  auto append_radix4 = [&](size_t span) {
    const size_t q = span / 4;
    const size_t offset = tw_fwd_.size();
    auto push = [&](size_t k, size_t N) {
      const auto [c, s] = unit_root(k, N);
      tw_fwd_.push_back(c);
      tw_fwd_.push_back(s);
      tw_inv_.push_back(c);
      tw_inv_.push_back(-s);
    };
    for (size_t k = 0; k < q; ++k) push(k, span / 2);      // twA
    for (size_t k = 0; k < q; ++k) push(k, span);          // twB
    for (size_t k = 0; k < q; ++k) push(k + q, span);      // twC
    passes_.push_back({span, true, offset});
  };

  // The len == 2 stage is always its own multiply-free pass; the remaining
  // lg-1 stages (4..n) run as fused radix-4 passes, with one leading
  // radix-2 stage when that count is odd.
  passes_.push_back({2, false, 0});
  size_t len = 4;
  if ((lg - 1) % 2 == 1) {
    append_radix2(4);
    len = 8;
  }
  for (; 2 * len <= n_; len <<= 2) append_radix4(2 * len);
}

void FftPlan::build_bluestein() {
  // X_k = c_k * sum_j (x_j c_j) b_{k-j} with chirp c_j = e^{-iπ j²/n} and
  // b_j = conj(c_j): a circular convolution of length m = next_pow2(2n-1),
  // precomputed in the frequency domain. The inverse transform is the same
  // machinery with conjugated chirps.
  const size_t m = next_pow2(2 * n_ - 1);
  inner_ = &get_fft_plan(m);

  chirp_fwd_.resize(2 * n_);
  chirp_inv_.resize(2 * n_);
  for (size_t j = 0; j < n_; ++j) {
    // c_j = e^{-iπ j²/n} = e^{-2πi (j² mod 2n)/(2n)}; reduce before the
    // float cast so the angle stays exact at large j.
    const size_t r = ((j % (2 * n_)) * (j % (2 * n_))) % (2 * n_);
    const auto [c, s] = unit_root(r, 2 * n_);
    chirp_fwd_[2 * j] = c;
    chirp_fwd_[2 * j + 1] = s;
    chirp_inv_[2 * j] = c;
    chirp_inv_[2 * j + 1] = -s;
  }

  auto build_fb = [&](const std::vector<double>& chirp, std::vector<double>& fb) {
    // b_j = conj(c_j) wrapped symmetrically: b_0 at 0, b_j also at m - j.
    fb.assign(2 * m, 0.0);
    for (size_t j = 0; j < n_; ++j) {
      const double br = chirp[2 * j];
      const double bi = -chirp[2 * j + 1];
      fb[2 * j] = br;
      fb[2 * j + 1] = bi;
      if (j != 0) {
        fb[2 * (m - j)] = br;
        fb[2 * (m - j) + 1] = bi;
      }
    }
    inner_->forward(reinterpret_cast<cplx*>(fb.data()));
  };
  build_fb(chirp_fwd_, fb_fwd_);
  build_fb(chirp_inv_, fb_inv_);
}

void FftPlan::execute(double* data, bool inverse_tables) const {
  for (size_t i = 0; i < n_; ++i) {
    const size_t j = bitrev_[i];
    if (i < j) {
      std::swap(data[2 * i], data[2 * j]);
      std::swap(data[2 * i + 1], data[2 * j + 1]);
    }
  }
  const std::vector<double>& tw = inverse_tables ? tw_inv_ : tw_fwd_;
  for (const Pass& p : passes_) {
    const double* t = tw.data() + p.tw_offset;
    if (p.radix4) {
      const size_t q = p.len / 4;
      radix4_pass(n_, p.len, t, t + 2 * q, t + 4 * q, data);
    } else {
      radix2_pass(n_, p.len, t, data);
    }
  }
}

void FftPlan::bluestein_run(double* data, const std::vector<double>& chirp,
                            const std::vector<double>& fb, double scale) const {
  const size_t m = inner_->size();
  double* a = bluestein_scratch(2 * m);
  cplx_mul(n_, data, chirp.data(), a);
  std::fill(a + 2 * n_, a + 2 * m, 0.0);
  inner_->forward(reinterpret_cast<cplx*>(a));
  cplx_mul(m, a, fb.data(), a);
  inner_->inverse(reinterpret_cast<cplx*>(a));
  cplx_mul(n_, a, chirp.data(), data);
  if (scale != 1.0)
    for (size_t i = 0; i < 2 * n_; ++i) data[i] *= scale;
}

void FftPlan::forward(cplx* data) const {
  double* d = reinterpret_cast<double*>(data);
  if (pow2_)
    execute(d, /*inverse_tables=*/false);
  else
    bluestein_run(d, chirp_fwd_, fb_fwd_, 1.0);
}

void FftPlan::inverse(cplx* data) const {
  double* d = reinterpret_cast<double*>(data);
  const double inv_n = 1.0 / static_cast<double>(n_);
  if (pow2_) {
    execute(d, /*inverse_tables=*/true);
    for (size_t i = 0; i < 2 * n_; ++i) d[i] *= inv_n;
  } else {
    bluestein_run(d, chirp_inv_, fb_inv_, inv_n);
  }
}

void FftPlan::forward_radix2_only(cplx* data) const {
  if (!pow2_) {
    forward(data);
    return;
  }
  double* d = reinterpret_cast<double*>(data);
  for (size_t i = 0; i < n_; ++i) {
    const size_t j = bitrev_[i];
    if (i < j) {
      std::swap(d[2 * i], d[2 * j]);
      std::swap(d[2 * i + 1], d[2 * j + 1]);
    }
  }
  for (const Pass& p : passes_) {
    const double* t = tw_fwd_.data() + p.tw_offset;
    if (p.radix4) {
      // The fused tables are exactly the two stages' radix-2 tables: twA is
      // the len/2 table, twB|twC concatenate to the len table.
      const size_t q = p.len / 4;
      radix2_pass(n_, p.len / 2, t, d);
      radix2_pass(n_, p.len, t + 2 * q, d);
    } else {
      radix2_pass(n_, p.len, t, d);
    }
  }
}

void FftPlan::rfft(const double* in, cplx* out) const {
  double* o = reinterpret_cast<double*>(out);
  if (n_ % 2 != 0) {
    // Odd size: full complex transform in per-thread scratch, keep bins
    // 0..n/2.
    double* full = full_spectrum_scratch(2 * n_);
    for (size_t j = 0; j < n_; ++j) {
      full[2 * j] = in[j];
      full[2 * j + 1] = 0.0;
    }
    forward(reinterpret_cast<cplx*>(full));
    std::memcpy(o, full, 2 * spectrum_size() * sizeof(double));
    return;
  }
  // Even size: the interleaved packing z_j = x_{2j} + i x_{2j+1} is the
  // input array reinterpreted, so the "pack" is a copy into the output
  // buffer, transformed in place by the half-size plan.
  const size_t h = n_ / 2;
  std::memcpy(o, in, n_ * sizeof(double));
  half_->forward(out);
  // Unpack Z into the real spectrum: with E_k = (Z_k + conj(Z_{h-k}))/2 and
  // O_k = (Z_k - conj(Z_{h-k}))/(2i), X_k = E_k + w^k O_k and
  // X_{h-k} = conj(E_k - w^k O_k), where w = e^{-2πi/n}.
  const double z0r = o[0], z0i = o[1];
  o[0] = z0r + z0i;
  o[1] = 0.0;
  o[2 * h] = z0r - z0i;
  o[2 * h + 1] = 0.0;
  for (size_t k = 1; 2 * k <= h; ++k) {
    const double ar = o[2 * k], ai = o[2 * k + 1];              // Z_k
    const double br = o[2 * (h - k)], bi = o[2 * (h - k) + 1];  // Z_{h-k}
    const double er = 0.5 * (ar + br);
    const double ei = 0.5 * (ai - bi);
    const double or_ = 0.5 * (ai + bi);
    const double oi = -0.5 * (ar - br);
    const double wr = rtw_fwd_[2 * k], wi = rtw_fwd_[2 * k + 1];
    const double wor = or_ * wr - oi * wi;
    const double woi = or_ * wi + oi * wr;
    o[2 * k] = er + wor;
    o[2 * k + 1] = ei + woi;
    o[2 * (h - k)] = er - wor;
    o[2 * (h - k) + 1] = -(ei - woi);
  }
}

void FftPlan::irfft(const cplx* in, double* out) const {
  const double* s = reinterpret_cast<const double*>(in);
  if (n_ % 2 != 0) {
    // Odd size: rebuild the conjugate-symmetric full spectrum and run the
    // complex inverse in per-thread scratch.
    double* full = full_spectrum_scratch(2 * n_);
    const size_t h = n_ / 2;
    for (size_t k = 0; k <= h; ++k) {
      full[2 * k] = s[2 * k];
      full[2 * k + 1] = s[2 * k + 1];
    }
    for (size_t k = 1; k <= h; ++k) {
      full[2 * (n_ - k)] = s[2 * k];
      full[2 * (n_ - k) + 1] = -s[2 * k + 1];
    }
    inverse(reinterpret_cast<cplx*>(full));
    for (size_t j = 0; j < n_; ++j) out[j] = full[2 * j];
    return;
  }
  // Even size: repack the spectrum into the half-size signal Z_k = E_k +
  // i O_k (E_k = (X_k + conj(X_{h-k}))/2, O_k = (X_k - conj(X_{h-k})) *
  // w^{-k} / 2), inverse-transform in place, and the interleaved result IS
  // the real output. The half plan's 1/h and the /2 here give exactly 1/n.
  const size_t h = n_ / 2;
  for (size_t k = 0; k < h; ++k) {
    const double ar = s[2 * k], ai = s[2 * k + 1];              // X_k
    const double br = s[2 * (h - k)], bi = s[2 * (h - k) + 1];  // X_{h-k}
    const double er = 0.5 * (ar + br);
    const double ei = 0.5 * (ai - bi);
    const double dr = 0.5 * (ar - br);
    const double di = 0.5 * (ai + bi);
    const double wr = rtw_inv_[2 * k], wi = rtw_inv_[2 * k + 1];
    const double or_ = dr * wr - di * wi;
    const double oi = dr * wi + di * wr;
    out[2 * k] = er - oi;       // Re(E + iO)
    out[2 * k + 1] = ei + or_;  // Im(E + iO)
  }
  half_->inverse(reinterpret_cast<cplx*>(out));
}

// ---------------------------------------------------------------------------
// Process-wide plan cache. Grow-only and deliberately leaked: interned plans
// are handed out by reference, so the map must outlive every static/thread
// consumer. A plan is fully constructed before insertion, so an injected
// planning fault (or a real bad_alloc) leaves the cache unchanged.

namespace {

std::mutex g_plan_cache_mutex;

std::unordered_map<size_t, std::unique_ptr<FftPlan>>& plan_cache() {
  static auto* cache = new std::unordered_map<size_t, std::unique_ptr<FftPlan>>();
  return *cache;
}

}  // namespace

const FftPlan& get_fft_plan(size_t n) {
  {
    std::lock_guard<std::mutex> lock(g_plan_cache_mutex);
    auto it = plan_cache().find(n);
    if (it != plan_cache().end()) return *it->second;
  }
  // Miss: plan outside the lock (construction may recurse into the cache
  // for half-size/Bluestein inner plans). Concurrent first users may race
  // to build the same size; try_emplace keeps exactly one.
  util::fault_point(util::FaultSite::kFftPlanCreate);
  auto plan = std::make_unique<FftPlan>(n);
  std::lock_guard<std::mutex> lock(g_plan_cache_mutex);
  auto [it, inserted] = plan_cache().try_emplace(n, std::move(plan));
  return *it->second;
}

size_t fft_plan_cache_size() {
  std::lock_guard<std::mutex> lock(g_plan_cache_mutex);
  return plan_cache().size();
}

}  // namespace dlpic::math
