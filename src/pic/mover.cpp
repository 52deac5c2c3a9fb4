#include "pic/mover.hpp"

#include <stdexcept>

#include "nn/backend.hpp"
#include "util/parallel.hpp"

namespace dlpic::pic {

namespace {

constexpr size_t kMoverGrain = 8192;

}  // namespace

void leapfrog_step(const Grid1D& grid, Shape shape, const std::vector<double>& E,
                   Species& species, double dt) {
  if (E.size() != grid.ncells())
    throw std::invalid_argument("leapfrog_step: field size mismatch");
  // Fused gather + kick + drift from the active backend: one streaming pass
  // over the particle arrays instead of a gather pass plus a push pass.
  const auto fn = nn::active_backend().pic_leapfrog(static_cast<int>(shape));
  const double qm_dt = species.charge_over_mass() * dt;
  const double inv_dx = 1.0 / grid.dx();
  const long n = static_cast<long>(grid.ncells());
  const double length = grid.length();
  const double* Ed = E.data();
  double* x = species.x().data();
  double* v = species.v().data();
  util::parallel_for_chunks(
      0, species.size(),
      [&](size_t lo, size_t hi) { fn(Ed, x, v, lo, hi, inv_dx, n, qm_dt, dt, length); },
      kMoverGrain);
}

void stagger_velocities_back(const Grid1D& grid, Shape shape, const std::vector<double>& E,
                             Species& species, double dt) {
  if (E.size() != grid.ncells())
    throw std::invalid_argument("stagger_velocities_back: field size mismatch");
  const auto fn = nn::active_backend().pic_stagger(static_cast<int>(shape));
  const double qm_half_dt = -0.5 * species.charge_over_mass() * dt;
  const double inv_dx = 1.0 / grid.dx();
  const long n = static_cast<long>(grid.ncells());
  const double* Ed = E.data();
  const double* x = species.x().data();
  double* v = species.v().data();
  util::parallel_for_chunks(
      0, species.size(),
      [&](size_t lo, size_t hi) { fn(Ed, x, v, lo, hi, inv_dx, n, qm_half_dt); },
      kMoverGrain);
}

}  // namespace dlpic::pic
