#include <gtest/gtest.h>

#include <cmath>
#include <numbers>

#include "pic/mover.hpp"

namespace {

using namespace dlpic::pic;

TEST(Mover, FreeStreamingAdvancesPositions) {
  Grid1D g(16, 4.0);
  Species s("e", -1.0, 1.0);
  s.add(1.0, 0.5);
  s.add(3.9, 0.5);  // will wrap
  std::vector<double> E(16, 0.0);
  leapfrog_step(g, Shape::CIC, E, s, 0.4);
  EXPECT_NEAR(s.x()[0], 1.2, 1e-14);
  EXPECT_NEAR(s.x()[1], 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(s.v()[0], 0.5);  // no field, no kick
}

TEST(Mover, StaggerRewindsHalfStep) {
  Grid1D g(16, 4.0);
  Species s("e", -1.0, 1.0);  // q/m = -1
  s.add(2.0, 1.0);
  std::vector<double> E(16, 0.2);
  stagger_velocities_back(g, Shape::CIC, E, s, 0.2);
  // v -= 0.5 * (q/m) * E * dt = -0.5 * (-1) * 0.2 * 0.2 = +0.02
  EXPECT_NEAR(s.v()[0], 1.02, 1e-14);
}

TEST(Mover, HarmonicOscillatorEnergyBoundedByLeapfrog) {
  // A single electron in the field of a fixed ion background oscillates at
  // omega_p; leap-frog keeps the oscillation bounded (symplectic).
  // We emulate the restoring force with E(x) = (x - L/2) (linear in x).
  const size_t n = 256;
  Grid1D g(n, 2.0);
  std::vector<double> E(n);
  for (size_t i = 0; i < n; ++i) E[i] = g.node_position(i) - 1.0;
  Species s("e", -1.0, 1.0);
  s.add(1.2, 0.0);  // displaced by 0.2 from the center

  const double dt = 0.05;
  double max_x = 0.0;
  for (int step = 0; step < 2000; ++step) {
    leapfrog_step(g, Shape::CIC, E, s, dt);
    max_x = std::max(max_x, std::abs(s.x()[0] - 1.0));
  }
  // Amplitude stays near the initial displacement: no secular growth.
  EXPECT_LT(max_x, 0.25);
  EXPECT_GT(max_x, 0.15);
}

TEST(Mover, TwoParticlePeriodMatchesPlasmaFrequency) {
  // Symmetric pair oscillation sanity check: leap-frog with the exact
  // linear restoring field E = x - L/2 gives period 2*pi (omega = 1).
  const size_t n = 512;
  Grid1D g(n, 2.0);
  std::vector<double> E(n);
  for (size_t i = 0; i < n; ++i) E[i] = g.node_position(i) - 1.0;
  Species s("e", -1.0, 1.0);
  s.add(1.1, 0.0);

  const double dt = 0.01;
  // Initialize the stagger so velocity sits at t = -dt/2.
  stagger_velocities_back(g, Shape::CIC, E, s, dt);
  double prev = s.x()[0] - 1.0;
  int crossings = 0;
  double first_crossing = -1.0, last_crossing = -1.0;
  for (int step = 1; step < 4000; ++step) {
    leapfrog_step(g, Shape::CIC, E, s, dt);
    const double cur = s.x()[0] - 1.0;
    if (prev > 0 && cur <= 0) {  // downward zero crossing: once per period
      const double t = step * dt;
      if (crossings == 0) first_crossing = t;
      last_crossing = t;
      ++crossings;
    }
    prev = cur;
  }
  ASSERT_GE(crossings, 3);
  const double period = (last_crossing - first_crossing) / (crossings - 1);
  EXPECT_NEAR(period, 2.0 * std::numbers::pi, 0.03);
}

}  // namespace
