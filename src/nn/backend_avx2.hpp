#pragma once
/// \file backend_avx2.hpp
/// AVX2+FMA kernel backend. The implementation file is compiled with
/// -mavx2 -mfma on x86-64 (see CMakeLists); on other targets, or with
/// compilers lacking the flags, avx2_backend() resolves to nullptr and the
/// scalar backend serves everything.
///
/// Numerics: the f64 GEMM micro-kernel uses FMA (bits may differ from
/// scalar within a tight ULP bound); the int8/int16 GEMMs are exact integer
/// arithmetic, and the PIC stencils mirror the scalar operation order
/// without FMA (their loop tails literally call the scalar shape
/// templates), so both are bitwise identical to the scalar backend.

#include "nn/backend.hpp"

namespace dlpic::nn {

// The concrete class is private to backend_avx2.cpp; the accessor in
// backend.hpp (avx2_backend()) is the whole public surface.

}  // namespace dlpic::nn
