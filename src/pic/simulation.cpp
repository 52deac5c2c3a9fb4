#include "pic/simulation.hpp"

#include <stdexcept>

#include "math/rng.hpp"
#include "pic/deposit.hpp"
#include "pic/efield.hpp"
#include "pic/mover.hpp"
#include "pic/sorter.hpp"
#include "util/parallel.hpp"

namespace dlpic::pic {

void TraditionalFieldStage::solve(const Grid1D& grid, const Species& electrons,
                                  std::vector<double>& E) {
  // Uniform neutralizing background: cancels the mean electron density
  // (electron charge q = -L/N, so mean rho_e = -1 and background = +1).
  background = -electrons.charge() * static_cast<double>(electrons.size()) / grid.length();
  rho.assign(grid.ncells(), 0.0);
  deposit_charge(grid, shape, electrons, rho);
  for (auto& r : rho) r += background;
  poisson->solve(grid, rho, phi);
  (spectral_efield ? efield_from_phi_spectral : efield_from_phi)(grid, phi, E);
}

PicLoop::PicLoop(const SimulationConfig& config, std::unique_ptr<FieldStage> stage,
                 size_t sort_interval)
    : config_(config),
      grid_(config.ncells, config.length),
      electrons_("electrons", -1.0, 1.0),  // placeholder, replaced below
      stage_(std::move(stage)),
      sort_interval_(sort_interval) {
  if (config.dt <= 0.0) throw std::invalid_argument("PicLoop: dt must be positive");
  // Per-run worker cap, scoped so one simulation's setting cannot leak into
  // other work in the process (training GEMMs, other sims).
  util::ScopedMaxWorkers workers(config.nthreads);

  math::Rng rng(config.seed);
  electrons_ = load_two_stream(grid_, config.total_particles(), config.beams, rng);
  E_ = grid_.make_field();
  history_.reserve(config.nsteps + 1);  // steady-state steps never reallocate

  stage_->solve(grid_, electrons_, E_);
  stagger_velocities_back(grid_, config.shape, E_, electrons_, config.dt);
  record();
}

void PicLoop::step() {
  util::ScopedMaxWorkers workers(config_.nthreads);
  // Cache-locality restore before the push: as the instability mixes phase
  // space, particles drift apart in memory.
  if (sort_interval_ > 0 && steps_taken_ > 0 && steps_taken_ % sort_interval_ == 0)
    sort_by_cell(grid_, electrons_);
  leapfrog_step(grid_, config_.shape, E_, electrons_, config_.dt);
  stage_->solve(grid_, electrons_, E_);
  time_ += config_.dt;
  ++steps_taken_;
  record();
  if (observer_) observer_(*this);
}

void PicLoop::run(size_t n) {
  if (n == 0) n = config_.nsteps > steps_taken_ ? config_.nsteps - steps_taken_ : 0;
  for (; n > 0; --n) step();
}

}  // namespace dlpic::pic
