#pragma once
/// \file mover.hpp
/// Leap-frog particle mover (paper §II, Eqs. 1–2):
///   v^{n+1/2} = v^{n-1/2} + (q/m) E^n(x^n) dt
///   x^{n+1}   = x^n + v^{n+1/2} dt
/// Positions wrap periodically after the push.

#include <vector>

#include "pic/grid.hpp"
#include "pic/shape.hpp"
#include "pic/species.hpp"

namespace dlpic::pic {

/// One combined kick-drift step: gather E at x^n, kick v, drift x.
void leapfrog_step(const Grid1D& grid, Shape shape, const std::vector<double>& E,
                   Species& species, double dt);

/// Initializes the leap-frog stagger: rewinds velocities by dt/2 using the
/// initial field so that v lives at t = -dt/2 (standard explicit PIC setup).
void stagger_velocities_back(const Grid1D& grid, Shape shape, const std::vector<double>& E,
                             Species& species, double dt);

}  // namespace dlpic::pic
