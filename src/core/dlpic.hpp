#pragma once
/// \file dlpic.hpp
/// The DL-based PIC method (paper §III, Fig. 2): pic::PicLoop's gather,
/// leap-frog mover and diagnostics, with the deposition + Poisson stage
/// replaced by phase-space binning plus one DL field-solver inference.
///
/// DL-PIC does not use SimulationConfig::solver and ::spectral_efield (there
/// is no Poisson solve), nor ::sort_interval: it never sorts. A sort reorders
/// the particle array and so the floating-point order of binning and
/// diagnostics; turning it on needs its own physics check.

#include <memory>

#include "core/dl_field_solver.hpp"
#include "pic/simulation.hpp"

namespace dlpic::core {

/// DL-based PIC simulation: the traditional loop with the DL field stage,
/// so the two methods are directly comparable in experiments.
class DlPicSimulation : public pic::PicLoop {
 public:
  /// The solver's binner box must match the simulation box, and the model
  /// output size must equal the grid cell count.
  DlPicSimulation(const pic::SimulationConfig& config, std::shared_ptr<DlFieldSolver> solver);

  using Observer = std::function<void(const DlPicSimulation&)>;
  void set_observer(Observer obs) { observe<DlPicSimulation>(std::move(obs)); }

  [[nodiscard]] DlFieldSolver& field_solver() { return *solver_; }

 private:
  std::shared_ptr<DlFieldSolver> solver_;
};

}  // namespace dlpic::core
