/// \file test_backend_parity.cpp
/// KernelBackend contract tests. Cross-backend: the AVX2 f64 GEMM agrees
/// with scalar within a tight relative tolerance (FMA may change low bits),
/// while the int8/int16 GEMMs (exact integer sums) and the PIC kernels (the
/// scalar operation order without FMA) are BITWISE identical to scalar.
/// Within each backend: results are bitwise invariant under the worker
/// count (1/2/8), exercised at several pool widths in one process via
/// ThreadPool::resize.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "math/linalg.hpp"
#include "math/rng.hpp"
#include "nn/backend.hpp"
#include "nn/conv2d.hpp"
#include "nn/dense.hpp"
#include "nn/execution_context.hpp"
#include "nn/loss.hpp"
#include "nn/model_zoo.hpp"
#include "nn/optimizer.hpp"
#include "nn/quantize.hpp"
#include "nn/sequential.hpp"
#include "phase_space/binner.hpp"
#include "pic/deposit.hpp"
#include "pic/gather.hpp"
#include "pic/loader.hpp"
#include "pic/mover.hpp"
#include "util/parallel.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace dlpic;

// Declares `avx2` in the test body; skips the test on scalar-only hosts.
#define SKIP_WITHOUT_AVX2()                                                  \
  const nn::KernelBackend* avx2 = nn::avx2_backend();                        \
  if (avx2 == nullptr) GTEST_SKIP() << "AVX2 backend unavailable on this host/build"

// Declares `avx512` in the test body; skips on hosts/builds without the
// AVX-512 VNNI feature set (the backend self-gates on cpuid).
#define SKIP_WITHOUT_AVX512()                                                \
  const nn::KernelBackend* avx512 = nn::avx512_backend();                    \
  if (avx512 == nullptr)                                                     \
  GTEST_SKIP() << "AVX-512 VNNI backend unavailable on this host/build"

nn::Tensor random_tensor(std::vector<size_t> shape, uint64_t seed) {
  math::Rng rng(seed);
  nn::Tensor t(std::move(shape));
  for (size_t i = 0; i < t.size(); ++i) t[i] = rng.uniform(-1, 1);
  return t;
}

std::vector<double> random_vec(size_t n, uint64_t seed, double lo = -1, double hi = 1) {
  math::Rng rng(seed);
  std::vector<double> v(n);
  for (auto& x : v) x = rng.uniform(lo, hi);
  return v;
}

// ---------------------------------------------------------------------------
// Selection plumbing.

TEST(BackendSelection, ScalarAlwaysAvailableAndNamed) {
  EXPECT_STREQ(nn::scalar_backend().name(), "scalar");
  EXPECT_EQ(nn::backend_by_name("scalar"), &nn::scalar_backend());
  EXPECT_EQ(nn::backend_by_name("avx2"), nn::avx2_backend());
  EXPECT_EQ(nn::backend_by_name("avx512"), nn::avx512_backend());
  EXPECT_EQ(nn::backend_by_name("no-such-backend"), nullptr);
}

TEST(BackendSelection, Avx512NamedAndDelegatesF64Kernels) {
  SKIP_WITHOUT_AVX512();
  SKIP_WITHOUT_AVX2();
  EXPECT_STREQ(avx512->name(), "avx512");
  // The VNNI backend overrides only gemm_int8: the f64 GEMMs delegate to
  // the AVX2 backend, so its panels are BITWISE the AVX2 results (same
  // code runs), not merely close.
  const size_t mb = 7, nb = 13, kb = 29;
  const auto A = random_vec(mb * kb, 151, -2, 2);
  const auto B = random_vec(kb * nb, 152, -2, 2);
  auto a = random_vec(mb * nb, 153);
  auto b = a;
  avx2->gemm_block(mb, nb, kb, A.data(), B.data(), a.data(), nb);
  avx512->gemm_block(mb, nb, kb, A.data(), B.data(), b.data(), nb);
  EXPECT_EQ(a, b);
  // Same for the in-place B^T entry (B read as nb rows of kb).
  avx2->gemm_block_bt(mb, nb, kb, A.data(), B.data(), kb, a.data(), nb);
  avx512->gemm_block_bt(mb, nb, kb, A.data(), B.data(), kb, b.data(), nb);
  EXPECT_EQ(a, b);
}

TEST(BackendSelection, ScopedBackendOverridesAndRestores) {
  const nn::KernelBackend& before = nn::active_backend();
  {
    nn::ScopedBackend scope(&nn::scalar_backend());
    EXPECT_EQ(&nn::active_backend(), &nn::scalar_backend());
    {
      nn::ScopedBackend inner(nullptr);  // null = inherit, not reset
      EXPECT_EQ(&nn::active_backend(), &nn::scalar_backend());
    }
  }
  EXPECT_EQ(&nn::active_backend(), &before);
}

TEST(BackendSelection, ContextPinsBackend) {
  nn::ExecutionContext ctx;
  EXPECT_EQ(ctx.backend(), nullptr);
  ctx.set_backend(&nn::scalar_backend());
  EXPECT_EQ(&ctx.resolved_backend(), &nn::scalar_backend());
}

// ---------------------------------------------------------------------------
// GEMM: avx2 within tight relative tolerance of scalar (FMA bits differ).

void gemm_with(const nn::KernelBackend* be, bool ta, bool tb, size_t m, size_t n,
               size_t k, double alpha, const std::vector<double>& A,
               const std::vector<double>& B, double beta, std::vector<double>& C) {
  nn::ScopedBackend scope(be);
  const size_t lda = ta ? m : k;
  const size_t ldb = tb ? k : n;
  math::gemm(ta, tb, m, n, k, alpha, A.data(), lda, B.data(), ldb, beta, C.data(), n);
}

TEST(BackendParity, GemmAllTransposeCombosWithinUlps) {
  SKIP_WITHOUT_AVX2();
  // Odd sizes cover every micro-kernel remainder path; k spans two panels.
  const size_t m = 67, n = 93, k = 301;
  const auto A = random_vec(m * k, 1);
  const auto B = random_vec(k * n, 2);
  for (const bool ta : {false, true}) {
    for (const bool tb : {false, true}) {
      auto Cs = random_vec(m * n, 3);
      auto Cv = Cs;
      gemm_with(&nn::scalar_backend(), ta, tb, m, n, k, 1.3, A, B, 0.7, Cs);
      gemm_with(avx2, ta, tb, m, n, k, 1.3, A, B, 0.7, Cv);
      for (size_t i = 0; i < Cs.size(); ++i) {
        // FMA removes one rounding per multiply-add: error grows like
        // k * eps relative to the accumulated magnitude.
        const double tol = 1e-12 * (std::abs(Cs[i]) + 1.0);
        ASSERT_NEAR(Cs[i], Cv[i], tol) << "ta=" << ta << " tb=" << tb << " i=" << i;
      }
    }
  }
}

TEST(BackendParity, TransposedBSmallMInPlaceEqualsPackedRows) {
  // math::gemm reads a transposed B in place below 16 rows (gemm_block_bt)
  // and packs it from 16 rows up (gemm_block). Within one backend each row
  // must come out with the same bits either way, or a batch-1 Dense
  // forward would differ from the same sample inside a larger batch. The
  // row counts cover the AVX2 3-row groups and the scalar 4-row tiles with
  // every remainder; the sizes cover the 16- and 4-column strips, the
  // scalar tail columns, odd k (the unpaired last p) and k across the
  // 256-deep k-blocks.
  std::vector<const nn::KernelBackend*> backends{&nn::scalar_backend()};
  if (nn::avx2_backend() != nullptr) backends.push_back(nn::avx2_backend());
  if (nn::avx512_backend() != nullptr) backends.push_back(nn::avx512_backend());
  constexpr size_t kPackedRows = 16;
  for (const nn::KernelBackend* be : backends) {
    for (const size_t n : {1, 3, 4, 5, 15, 16, 17, 63, 64, 65, 130}) {
      for (const size_t k : {1, 2, 3, 255, 256, 257, 1000}) {
        const auto A = random_vec(kPackedRows * k, 11 + k);
        const auto Bt = random_vec(n * k, 12 + n);  // n rows of k: B^T
        const auto C0 = random_vec(kPackedRows * n, 13);
        for (const double alpha : {1.0, 1.3}) {
          for (const double beta : {0.0, 0.7}) {
            auto packed = C0;
            gemm_with(be, false, true, kPackedRows, n, k, alpha, A, Bt, beta, packed);
            for (const size_t m : {1, 2, 3, 4, 5, 6, 7, 15}) {
              std::vector<double> in_place(C0.begin(), C0.begin() + m * n);
              gemm_with(be, false, true, m, n, k, alpha, A, Bt, beta, in_place);
              ASSERT_EQ(std::memcmp(in_place.data(), packed.data(), m * n * sizeof(double)), 0)
                  << be->name() << " m=" << m << " n=" << n << " k=" << k
                  << " alpha=" << alpha << " beta=" << beta;
            }
          }
        }
      }
    }
  }
}

TEST(BackendParity, Int8GemmBitwiseAcrossTileRemainders) {
  SKIP_WITHOUT_AVX2();
  // Unlike the f64 GEMM (FMA reassociation => ulp tolerance above), the
  // int8 kernel's contract is BITWISE: exact int32 sums, one shared dequant
  // expression. Sizes exercise the AVX2 4x2 tile remainders, the k%32
  // tails, and (when present) the AVX-512 kernel's 64-wide steps and tails.
  const nn::KernelBackend* avx512 = nn::avx512_backend();  // may be null
  for (const size_t m : {size_t{1}, size_t{4}, size_t{7}}) {
    for (const size_t n : {size_t{1}, size_t{2}, size_t{9}}) {
      for (const size_t k :
           {size_t{1}, size_t{31}, size_t{32}, size_t{63}, size_t{64}, size_t{97},
            size_t{200}}) {
        const auto Af = random_vec(m * k, 71 + m, -2, 2);
        const auto Bf = random_vec(n * k, 72 + n, -2, 2);
        std::vector<int8_t> Aq(m * k), Bq(n * k);
        std::vector<double> sa(m), sb(n);
        nn::quantize_rows_fast(Af.data(), m, k, Aq.data(), sa.data());
        nn::quantize_rows_fast(Bf.data(), n, k, Bq.data(), sb.data());
        std::vector<double> Cs(m * n), Cv(m * n);
        nn::scalar_backend().gemm_int8(m, n, k, Aq.data(), sa.data(), Bq.data(),
                                       sb.data(), Cs.data(), n);
        avx2->gemm_int8(m, n, k, Aq.data(), sa.data(), Bq.data(), sb.data(),
                        Cv.data(), n);
        ASSERT_EQ(Cs, Cv) << "m=" << m << " n=" << n << " k=" << k;
        if (avx512 != nullptr) {
          std::vector<double> Cz(m * n);
          avx512->gemm_int8(m, n, k, Aq.data(), sa.data(), Bq.data(), sb.data(),
                            Cz.data(), n);
          ASSERT_EQ(Cs, Cz) << "avx512 m=" << m << " n=" << n << " k=" << k;
        }
      }
    }
  }
}

TEST(BackendParity, Int8GemmVnniExtremesBitwise) {
  SKIP_WITHOUT_AVX512();
  // The vpdpbusd rewrite (|a| * sign-transfer(b, a)) must handle the code
  // extremes and zeros exactly: all-±127 operands with zeros sprinkled in,
  // at a depth covering several 64-wide steps plus a tail.
  const size_t m = 5, n = 3, k = 200;
  std::vector<int8_t> A(m * k), B(n * k);
  math::Rng rng(153);
  auto extreme = [&rng]() -> int8_t {
    const double u = rng.uniform(0, 1);
    if (u < 0.2) return 0;
    return u < 0.6 ? int8_t{-127} : int8_t{127};
  };
  for (auto& v : A) v = extreme();
  for (auto& v : B) v = extreme();
  const std::vector<double> sa(m, 1.0), sb(n, 1.0);
  std::vector<double> Cs(m * n), Cz(m * n);
  nn::scalar_backend().gemm_int8(m, n, k, A.data(), sa.data(), B.data(), sb.data(),
                                 Cs.data(), n);
  avx512->gemm_int8(m, n, k, A.data(), sa.data(), B.data(), sb.data(), Cz.data(), n);
  EXPECT_EQ(Cs, Cz);
}

TEST(BackendParity, Int16GemmBitwiseAcrossTileRemainders) {
  SKIP_WITHOUT_AVX2();
  // Same bitwise contract as the int8 kernel: exact int64 sums, shared
  // dequant. Sizes exercise the AVX2 2x2 tile remainders and k%16 tails,
  // with all-±32767 rows hitting the pairwise-madd ceiling.
  for (const size_t m : {size_t{1}, size_t{2}, size_t{5}}) {
    for (const size_t n : {size_t{1}, size_t{2}, size_t{9}}) {
      for (const size_t k : {size_t{1}, size_t{15}, size_t{16}, size_t{49}}) {
        const auto Af = random_vec(m * k, 75 + m, -2, 2);
        const auto Bf = random_vec(n * k, 76 + n, -2, 2);
        std::vector<int16_t> Aq(m * k), Bq(n * k);
        std::vector<double> sa(m), sb(n);
        nn::quantize_rows_fast_i16(Af.data(), m, k, Aq.data(), sa.data());
        nn::quantize_rows_fast_i16(Bf.data(), n, k, Bq.data(), sb.data());
        for (size_t p = 0; p < k; ++p) Aq[p] = (p % 2 == 0) ? 32767 : -32767;
        std::vector<double> Cs(m * n), Cv(m * n);
        nn::scalar_backend().gemm_int16(m, n, k, Aq.data(), sa.data(), Bq.data(),
                                        sb.data(), Cs.data(), n);
        avx2->gemm_int16(m, n, k, Aq.data(), sa.data(), Bq.data(), sb.data(),
                         Cv.data(), n);
        ASSERT_EQ(Cs, Cv) << "m=" << m << " n=" << n << " k=" << k;
      }
    }
  }
}

TEST(BackendParity, DenseAndConvForwardBackwardWithinUlps) {
  SKIP_WITHOUT_AVX2();
  math::Rng rng(11);
  nn::Dense dense(37, 29, rng);
  nn::Conv2DConfig ccfg;
  ccfg.in_channels = 3;
  ccfg.out_channels = 5;
  nn::Conv2D conv(ccfg, rng);
  auto xd = random_tensor({9, 37}, 21);
  auto gd = random_tensor({9, 29}, 22);
  auto xc = random_tensor({3, 3, 9, 9}, 23);
  auto gc = random_tensor({3, 5, 9, 9}, 24);

  auto run = [&](const nn::KernelBackend* be, nn::Tensor& dw, nn::Tensor& cw) {
    nn::ExecutionContext ctx(0, be);
    dense.zero_grad();
    conv.zero_grad();
    nn::Tensor yd = dense.forward(ctx, xd, true);
    nn::Tensor gid = dense.backward(ctx, gd);
    nn::Tensor yc = conv.forward(ctx, xc, true);
    nn::Tensor gic = conv.backward(ctx, gc);
    dw = *dense.params()[0].grad;
    cw = *conv.params()[0].grad;
    // Concatenate the outputs we compare into one flat tensor list.
    std::vector<double> all;
    all.insert(all.end(), yd.data(), yd.data() + yd.size());
    all.insert(all.end(), gid.data(), gid.data() + gid.size());
    all.insert(all.end(), yc.data(), yc.data() + yc.size());
    all.insert(all.end(), gic.data(), gic.data() + gic.size());
    return all;
  };

  nn::Tensor dws, cws, dwv, cwv;
  const auto scalar = run(&nn::scalar_backend(), dws, cws);
  const auto vec = run(avx2, dwv, cwv);
  ASSERT_EQ(scalar.size(), vec.size());
  for (size_t i = 0; i < scalar.size(); ++i)
    ASSERT_NEAR(scalar[i], vec[i], 1e-12 * (std::abs(scalar[i]) + 1.0)) << "i=" << i;
  for (size_t i = 0; i < dws.size(); ++i)
    ASSERT_NEAR(dws[i], dwv[i], 1e-12 * (std::abs(dws[i]) + 1.0));
  for (size_t i = 0; i < cws.size(); ++i)
    ASSERT_NEAR(cws[i], cwv[i], 1e-12 * (std::abs(cws[i]) + 1.0));
}

// ---------------------------------------------------------------------------
// PIC kernels: bitwise identical across backends for every shape.

pic::Species parity_species(const pic::Grid1D& grid, size_t count) {
  math::Rng rng(99);
  pic::TwoStreamParams p;
  p.v0 = 0.2;
  p.vth = 0.01;
  return pic::load_two_stream(grid, count, p, rng);
}

TEST(BackendParity, PicGatherLeapfrogDepositBitwisePerShape) {
  SKIP_WITHOUT_AVX2();
  const pic::Grid1D grid(64, 2.0534);
  math::Rng rng(7);
  std::vector<double> E(64);
  for (auto& e : E) e = rng.uniform(-0.05, 0.05);
  // Signed-zero corner: the gather accumulator must start at +0.0 exactly
  // like the scalar loop, or an E*w product of -0.0 flips the output bit.
  E[0] = -0.0;
  E[7] = 0.0;

  for (const auto shape : {pic::Shape::NGP, pic::Shape::CIC, pic::Shape::TSC}) {
    auto run = [&](const nn::KernelBackend* be) {
      nn::ScopedBackend scope(be);
      auto species = parity_species(grid, 4006);  // not a multiple of 4: vector tail
      std::vector<double> Ep;
      pic::gather_to_particles(grid, shape, E, species, Ep);
      pic::stagger_velocities_back(grid, shape, E, species, 0.2);
      for (int step = 0; step < 3; ++step)
        pic::leapfrog_step(grid, shape, E, species, 0.2);
      auto rho = grid.make_field();
      pic::deposit_charge(grid, shape, species, rho);
      return std::make_tuple(Ep, species.x(), species.v(), rho);
    };
    const auto scalar = run(&nn::scalar_backend());
    const auto vec = run(avx2);
    EXPECT_EQ(std::get<0>(scalar), std::get<0>(vec)) << pic::shape_name(shape);
    EXPECT_EQ(std::get<1>(scalar), std::get<1>(vec)) << pic::shape_name(shape);
    EXPECT_EQ(std::get<2>(scalar), std::get<2>(vec)) << pic::shape_name(shape);
    EXPECT_EQ(std::get<3>(scalar), std::get<3>(vec)) << pic::shape_name(shape);
  }
}

// ---------------------------------------------------------------------------
// Periodic wrap. Every position wrap (both leapfrog kernels, Grid1D and the
// binner) must return bit for bit what the literal fmod formula returns,
// including the edges where its exact fast path hands over to fmod.

double fmod_wrap(double x, double length) {
  double y = std::fmod(x, length);
  if (y < 0.0) y += length;
  if (y >= length) y -= length;
  return y;
}

std::vector<uint64_t> bits(const std::vector<double>& v) {
  std::vector<uint64_t> out(v.size());
  for (size_t i = 0; i < v.size(); ++i) out[i] = std::bit_cast<uint64_t>(v[i]);
  return out;
}

std::vector<double> wrap_edge_values(double L) {
  const double inf = std::numeric_limits<double>::infinity();
  const double below_L = std::nextafter(L, 0.0);
  const double two_L = 2.0 * L;  // inf when L is near DBL_MAX
  return {std::nextafter(-L, -inf), -L, std::nextafter(-L, 0.0), -0.5 * L,
          -0.0, 0.0,
          -0.25 * (L - below_L),  // x + L rounds to L
          -std::numeric_limits<double>::denorm_min(),
          0.5 * L, below_L, L, std::nextafter(L, inf), 1.5 * L,
          std::nextafter(two_L, 0.0), two_L, std::nextafter(two_L, inf),
          1e3 * L, -1e3 * L,
          std::numeric_limits<double>::quiet_NaN(), inf, -inf};
}

/// Particles whose drift (x = -0.0, v = target, dt = 1, zero field, q/m < 0
/// so the kick adds -0.0) lands exactly on `target`: each edge value fills
/// one quad on its own and one mixed with in-box, below-box and above-box
/// lanes, and the first three repeat as a scalar tail.
std::vector<double> wrap_targets(double L) {
  const auto edges = wrap_edge_values(L);
  std::vector<double> t;
  for (const double e : edges) t.insert(t.end(), {e, e, e, e, e, 0.3 * L, -0.3 * L, 1.3 * L});
  t.insert(t.end(), edges.begin(), edges.begin() + 3);
  return t;
}

TEST(BackendParity, LeapfrogWrapMatchesFmodFormulaAtEdges) {
  std::vector<const nn::KernelBackend*> backends{&nn::scalar_backend()};
  if (const nn::KernelBackend* avx2 = nn::avx2_backend()) backends.push_back(avx2);
  for (const double L : {2.0534, 0.75 * DBL_MAX}) {
    const pic::Grid1D grid(64, L);
    const auto targets = wrap_targets(L);
    std::vector<double> expected(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) expected[i] = fmod_wrap(targets[i], L);

    std::vector<double> via_grid(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) via_grid[i] = grid.wrap_position(targets[i]);
    EXPECT_EQ(bits(expected), bits(via_grid)) << "Grid1D::wrap_position, L = " << L;

    const std::vector<double> E(64, 0.0);
    for (const nn::KernelBackend* be : backends) {
      for (const auto shape : {pic::Shape::NGP, pic::Shape::CIC, pic::Shape::TSC}) {
        nn::ScopedBackend scope(be);
        pic::Species species("e", -1.0, 1.0);
        for (const double t : targets) species.add(-0.0, t);
        pic::leapfrog_step(grid, shape, E, species, 1.0);
        EXPECT_EQ(bits(expected), bits(species.x()))
            << be->name() << " " << pic::shape_name(shape) << ", L = " << L;
      }
    }

    // The binner wraps raw positions itself: each finite target lands in the
    // bin of its wrapped value.
    phase_space::BinnerConfig cfg;
    cfg.length = L;
    cfg.order = phase_space::BinningOrder::NGP;
    const phase_space::PhaseSpaceBinner binner(cfg);
    for (size_t i = 0; i < targets.size(); ++i) {
      if (!std::isfinite(targets[i])) continue;
      EXPECT_EQ(binner.bin({targets[i]}, {0.0}), binner.bin({expected[i]}, {0.0}))
          << "binner at x = " << targets[i] << ", L = " << L;
    }
  }
}

TEST(BackendParity, LeapfrogBoundaryCrossingsBitwiseUnderAlternatingField) {
  std::vector<const nn::KernelBackend*> backends{&nn::scalar_backend()};
  if (const nn::KernelBackend* avx2 = nn::avx2_backend()) backends.push_back(avx2);
  constexpr int kSteps = 300;
  for (const double L : {2.0534, 0.75 * DBL_MAX}) {
    const pic::Grid1D grid(64, L);
    // dt = 1 and q/m = -1 keep every product exact, so the NGP reference
    // below is the kernel's arithmetic whatever the compiler contracts.
    // A uniform field of alternating sign flips every velocity between
    // (0, 0.3L) and (-0.3L, 0): |v| stays small enough not to overflow near
    // DBL_MAX, and particles cross both boundaries on most steps.
    const double E0 = 0.3 * L;
    math::Rng rng(11);
    std::vector<double> x0(4006), v0(4006);  // not a multiple of 4: vector tail
    for (auto& x : x0) x = rng.uniform(0.0, 1.0) * L;
    for (auto& v : v0) v = rng.uniform(0.0, 0.3) * L;
    const auto field = [&](int step) { return std::vector<double>(64, step % 2 ? -E0 : E0); };

    std::vector<double> x_ref = x0, v_ref = v0;
    size_t left = 0, right = 0;
    for (int step = 0; step < kSteps; ++step) {
      const double Ep = field(step)[0];
      for (size_t p = 0; p < x_ref.size(); ++p) {
        v_ref[p] += -1.0 * Ep;
        const double drifted = x_ref[p] + v_ref[p] * 1.0;
        left += drifted < 0.0;
        right += drifted >= L;
        x_ref[p] = fmod_wrap(drifted, L);
      }
    }
    EXPECT_GT(left, 50'000u) << "L = " << L;
    EXPECT_GT(right, 50'000u) << "L = " << L;

    for (const auto shape : {pic::Shape::NGP, pic::Shape::CIC, pic::Shape::TSC}) {
      std::vector<std::vector<double>> xs;
      for (const nn::KernelBackend* be : backends) {
        nn::ScopedBackend scope(be);
        pic::Species species("e", -1.0, 1.0);
        for (size_t p = 0; p < x0.size(); ++p) species.add(x0[p], v0[p]);
        for (int step = 0; step < kSteps; ++step)
          pic::leapfrog_step(grid, shape, field(step), species, 1.0);
        if (shape == pic::Shape::NGP) {
          EXPECT_EQ(bits(x_ref), bits(species.x())) << be->name() << ", L = " << L;
          EXPECT_EQ(bits(v_ref), bits(species.v())) << be->name() << ", L = " << L;
        }
        xs.push_back(species.x());
      }
      for (size_t b = 1; b < xs.size(); ++b)
        EXPECT_EQ(bits(xs[0]), bits(xs[b]))
            << backends[b]->name() << " " << pic::shape_name(shape) << ", L = " << L;
    }
  }
}

// ---------------------------------------------------------------------------
// Worker-count invariance *within* each backend: a full training step and a
// parallel deposit must be bitwise identical at widths 1/2/8. The global
// pool is resized mid-test so the widths run against real worker threads.

std::vector<double> train_step_result(const nn::KernelBackend* be, size_t width) {
  util::ScopedMaxWorkers cap(width);
  nn::ExecutionContext ctx(0, be);
  nn::MlpSpec spec;
  spec.input_dim = 48;
  spec.output_dim = 8;
  spec.hidden = 32;
  spec.depth = 2;
  spec.seed = 5;
  nn::Sequential model = nn::build_mlp(spec);
  nn::MSELoss loss;
  nn::Adam adam(1e-3);
  auto params = model.params();
  auto x = random_tensor({16, 48}, 61);
  auto y = random_tensor({16, 8}, 62);
  std::vector<double> out;
  for (int step = 0; step < 3; ++step) {
    const nn::Tensor& pred = model.forward(ctx, x, true);
    out.push_back(loss.forward(pred, y));
    for (auto& p : params) p.grad->zero();
    model.backward(ctx, loss.backward());
    adam.step(params);
  }
  for (const auto& p : params)
    out.insert(out.end(), p.value->data(), p.value->data() + p.value->size());
  return out;
}

std::vector<double> deposit_result(const nn::KernelBackend* be, size_t width) {
  util::ScopedMaxWorkers cap(width);
  nn::ScopedBackend scope(be);
  const pic::Grid1D grid(64, 2.0534);
  auto species = parity_species(grid, 50'000);  // several deposit chunks
  auto rho = grid.make_field();
  pic::deposit_charge(grid, pic::Shape::CIC, species, rho);
  return rho;
}

TEST(BackendInvariance, WorkerCountInvariantWithinEachBackend) {
  std::vector<const nn::KernelBackend*> backends{&nn::scalar_backend()};
  if (const nn::KernelBackend* avx2 = nn::avx2_backend()) backends.push_back(avx2);

  // Exercise the widths against an actually multi-threaded pool, resized
  // once here and restored below (PR satellite: ThreadPool::resize).
  util::ThreadPool::global().resize(4);
  for (const nn::KernelBackend* be : backends) {
    const auto train1 = train_step_result(be, 1);
    const auto deposit1 = deposit_result(be, 1);
    for (const size_t width : {size_t{2}, size_t{8}}) {
      // NN kernels: bitwise identical at every width (GEMM tiles own their
      // k-order; elementwise kernels are pure maps; MSE reduces over fixed
      // blocks).
      EXPECT_EQ(train1, train_step_result(be, width))
          << be->name() << " training step changed bits at width " << width;
      // Deposit: the per-worker-buffer reduction is deterministic FOR a
      // width (bitwise re-runnable) and round-off-close across widths —
      // the pre-backend contract, unchanged by backend choice.
      const auto deposit_w = deposit_result(be, width);
      EXPECT_EQ(deposit_w, deposit_result(be, width))
          << be->name() << " deposit not reproducible at width " << width;
      ASSERT_EQ(deposit1.size(), deposit_w.size());
      for (size_t i = 0; i < deposit_w.size(); ++i)
        EXPECT_NEAR(deposit1[i], deposit_w[i], 1e-12)
            << be->name() << " deposit drifted at width " << width << " node " << i;
    }
  }
  util::ThreadPool::global().resize(0);
}

}  // namespace
