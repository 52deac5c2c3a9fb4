#pragma once
/// \file linalg.hpp
/// Dense BLAS-like kernels backing the neural-network library.
///
/// GEMM is the performance core of both MLP training (dense layers) and the
/// CNN (im2col + GEMM convolution). The implementation is a cache-blocked,
/// register-tiled kernel parallelized over the 2D grid of output tiles with
/// parallel_for_chunks, so both tall and flat matrices scale across
/// workers. All matrices are row-major.

#include <cstddef>
#include <vector>

namespace dlpic::math {

/// C[m x n] = alpha * op(A) * op(B) + beta * C, row-major.
/// op is identity or transpose per the trans_a / trans_b flags.
/// A is (m x k) when !trans_a, (k x m) when trans_a (likewise for B).
void gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k, double alpha,
          const double* A, size_t lda, const double* B, size_t ldb, double beta,
          double* C, size_t ldc);

/// Convenience GEMM over contiguous row-major matrices with natural strides.
void gemm(bool trans_a, bool trans_b, size_t m, size_t n, size_t k, double alpha,
          const std::vector<double>& A, const std::vector<double>& B, double beta,
          std::vector<double>& C);

/// y = alpha * A x + beta * y with A row-major (m x n).
void gemv(size_t m, size_t n, double alpha, const double* A, const double* x,
          double beta, double* y);

/// B = A^T for row-major A (m x n) -> B (n x m).
void transpose(size_t m, size_t n, const double* A, double* B);

}  // namespace dlpic::math
