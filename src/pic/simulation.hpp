#pragma once
/// \file simulation.hpp
/// Explicit electrostatic PIC (paper §II, Fig. 1): gather -> leap-frog push
/// -> field stage -> diagnostics, repeated for nsteps. Defaults reproduce the
/// paper's configuration: 64 cells, L = 2*pi/3.06, 1000 electrons/cell,
/// dt = 0.2, q/m = -1, motionless neutralizing proton background.

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "pic/diagnostics.hpp"
#include "pic/grid.hpp"
#include "pic/history.hpp"
#include "pic/loader.hpp"
#include "pic/poisson.hpp"
#include "pic/shape.hpp"
#include "pic/species.hpp"

namespace dlpic::pic {

/// Full configuration of a PIC run.
struct SimulationConfig {
  size_t ncells = 64;                 ///< grid cells (paper: 64)
  double length = 2.0 * 3.14159265358979323846 / 3.06;  ///< box size (paper: 2*pi/3.06)
  size_t particles_per_cell = 1000;   ///< electrons per cell (paper: 1000)
  double dt = 0.2;                    ///< time step (paper: 0.2)
  size_t nsteps = 200;                ///< steps (paper: 200, t_end = 40)
  TwoStreamParams beams;              ///< two-stream initial condition
  Shape shape = Shape::CIC;           ///< interpolation/deposition order
  std::string solver = "spectral";    ///< Poisson solver name
  bool spectral_efield = false;       ///< E = -grad phi spectrally vs central diff
  uint64_t seed = 1234;               ///< RNG seed (loading noise)
  size_t nthreads = 0;                ///< worker cap for the hot loops; 0 keeps the
                                      ///< process default (DLPIC_THREADS env / hardware)
  size_t sort_interval = 25;          ///< re-sort particles by cell every k steps
                                      ///< for cache locality (0 disables sorting)

  [[nodiscard]] size_t total_particles() const { return ncells * particles_per_cell; }
};

/// The stage of a PIC cycle that turns particles into E (size ncells).
class FieldStage {
 public:
  virtual ~FieldStage() = default;
  virtual void solve(const Grid1D& grid, const Species& electrons, std::vector<double>& E) = 0;
};

/// The traditional field stage: charge deposition plus the neutralizing
/// background, Poisson solve, E = -grad phi. `rho`, `phi` and `background`
/// hold the values of the last solve.
struct TraditionalFieldStage final : FieldStage {
  explicit TraditionalFieldStage(const SimulationConfig& config)
      : shape(config.shape),
        spectral_efield(config.spectral_efield),
        poisson(make_poisson_solver(config.solver)) {}
  void solve(const Grid1D& grid, const Species& electrons, std::vector<double>& E) override;

  Shape shape;
  bool spectral_efield;
  std::unique_ptr<PoissonSolver> poisson;
  std::vector<double> rho, phi;
  double background = 0.0;
};

/// One PIC cycle for both methods. Owns the grid, particles, E and history.
class PicLoop {
 public:
  /// Loads particles, solves the initial field, rewinds velocities by dt/2
  /// (leap-frog stagger) and records step 0. Particles are counting-sorted
  /// by cell every `sort_interval` steps (0 never sorts).
  PicLoop(const SimulationConfig& config, std::unique_ptr<FieldStage> stage,
          size_t sort_interval);

  /// Advances one full PIC cycle and records diagnostics.
  void step();
  /// Runs `n` steps (default: the configured nsteps remaining).
  void run(size_t n = 0);

  [[nodiscard]] const Grid1D& grid() const { return grid_; }
  [[nodiscard]] const Species& electrons() const { return electrons_; }
  [[nodiscard]] const std::vector<double>& efield() const { return E_; }
  [[nodiscard]] const History& history() const { return history_; }
  [[nodiscard]] double time() const { return time_; }
  [[nodiscard]] size_t steps_taken() const { return steps_taken_; }
  [[nodiscard]] const SimulationConfig& config() const { return config_; }

 protected:
  /// Sets the observer called after each step, seen as the concrete type.
  template <class Sim>
  void observe(std::function<void(const Sim&)> obs) {
    observer_ = [obs = std::move(obs)](const PicLoop& s) {
      if (obs) obs(static_cast<const Sim&>(s));
    };
  }
  [[nodiscard]] const FieldStage& stage() const { return *stage_; }

 private:
  void record() { history_.record(compute_diagnostics(grid_, electrons_, E_, time_)); }

  SimulationConfig config_;
  Grid1D grid_;
  Species electrons_;
  std::unique_ptr<FieldStage> stage_;
  size_t sort_interval_;
  std::vector<double> E_;
  History history_;
  double time_ = 0.0;
  size_t steps_taken_ = 0;
  std::function<void(const PicLoop&)> observer_;
};

/// Traditional PIC: the loop with the traditional field stage.
class TraditionalPic : public PicLoop {
 public:
  explicit TraditionalPic(const SimulationConfig& config)
      : PicLoop(config, std::make_unique<TraditionalFieldStage>(config),
                config.sort_interval) {}

  /// Called after each step with the post-step state; used by the
  /// training-data generator to harvest (phase space, E) pairs.
  using Observer = std::function<void(const TraditionalPic&)>;
  void set_observer(Observer obs) { observe<TraditionalPic>(std::move(obs)); }

  [[nodiscard]] const std::vector<double>& rho() const { return field().rho; }
  [[nodiscard]] const std::vector<double>& phi() const { return field().phi; }
  /// Ion background charge density (uniform, neutralizing).
  [[nodiscard]] double background_density() const { return field().background; }

 private:
  [[nodiscard]] const TraditionalFieldStage& field() const {
    return static_cast<const TraditionalFieldStage&>(stage());
  }
};

}  // namespace dlpic::pic
