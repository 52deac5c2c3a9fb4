#pragma once
/// \file grid.hpp
/// One-dimensional periodic grid for the electrostatic PIC method.
///
/// Fields (charge density rho, potential phi, electric field E) live on the
/// `ncells` grid nodes x_i = i*dx, i = 0..ncells-1, with periodic wrap-around
/// x_N == x_0. All PIC quantities in this project are dimensionless with
/// the electron plasma frequency omega_p = 1 and vacuum permittivity
/// epsilon_0 = 1 (paper §III).

#include <cmath>
#include <cstddef>
#include <vector>

namespace dlpic::pic {

/// Periodic wrap of a position into [0, L), L = length > 0. The result is
/// bit for bit that of the formula
///   y = fmod(x, L); if (y < 0) y += L; if (y >= L) y -= L;
/// but fmod runs only outside (-L, 2L): for -L (where fmod returns -0.0),
/// NaN, inf and anything further out. Inside, fmod is exact and the formula
/// reduces to one add or subtract: x on [0, L); x - L on [L, 2L), exact by
/// Sterbenz; x + L on (-L, 0), then the >= L fix-up for a tiny negative x
/// whose x + L rounds to L. The [L, 2L) test is x - L < L, so no 2L bound
/// can overflow. Every periodic position wrap in the library (Grid1D, the
/// mover kernels, the phase-space binner) is this function.
inline double wrap_periodic(double x, double length) {
  if (x >= 0.0 && x < length) return x;
  if (x > -length && x < 0.0) {
    const double y = x + length;
    return y >= length ? y - length : y;
  }
  if (x >= length && x - length < length) return x - length;
  double y = std::fmod(x, length);
  if (y < 0.0) y += length;
  if (y >= length) y -= length;
  return y;
}

/// Geometry and indexing of the periodic 1D grid.
class Grid1D {
 public:
  /// Creates a grid of `ncells` nodes spanning [0, length).
  /// Throws std::invalid_argument for ncells < 2 or non-positive length.
  Grid1D(size_t ncells, double length);

  [[nodiscard]] size_t ncells() const { return ncells_; }
  [[nodiscard]] double length() const { return length_; }
  [[nodiscard]] double dx() const { return dx_; }

  /// Node coordinate x_i = i*dx.
  [[nodiscard]] double node_position(size_t i) const { return static_cast<double>(i) * dx_; }

  /// Periodic node index (handles any int offset, e.g. -1 or ncells+1).
  [[nodiscard]] size_t wrap_node(long i) const {
    const long n = static_cast<long>(ncells_);
    long m = i % n;
    if (m < 0) m += n;
    return static_cast<size_t>(m);
  }

  /// Maps a particle position into [0, length) (wrap_periodic).
  [[nodiscard]] double wrap_position(double x) const { return wrap_periodic(x, length_); }

  /// Allocates a node field initialized to zero.
  [[nodiscard]] std::vector<double> make_field() const {
    return std::vector<double>(ncells_, 0.0);
  }

  /// Wavenumber of Fourier mode m on this grid: k_m = 2*pi*m / length.
  [[nodiscard]] double mode_wavenumber(size_t m) const;

 private:
  size_t ncells_;
  double length_;
  double dx_;
};

}  // namespace dlpic::pic
