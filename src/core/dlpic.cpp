#include "core/dlpic.hpp"

#include <cmath>
#include <stdexcept>

namespace dlpic::core {

namespace {

/// The DL field stage: bins the phase space straight into the solver's
/// workspace, normalizes it and copies one forward pass into E.
class DlFieldStage final : public pic::FieldStage {
 public:
  DlFieldStage(const pic::SimulationConfig& config, DlFieldSolver* solver) : solver_(solver) {
    if (solver_ == nullptr) throw std::invalid_argument("DlPicSimulation: null field solver");
    const auto& bc = solver_->binner_config();
    if (std::abs(bc.length - config.length) > 1e-12 * config.length)
      throw std::invalid_argument("DlPicSimulation: solver binner box != simulation box");
    if (solver_->model().output_shape({1, bc.nx * bc.nv}).back() != config.ncells)
      throw std::invalid_argument("DlPicSimulation: model output size != grid cells");
  }

  void solve(const pic::Grid1D&, const pic::Species& electrons, std::vector<double>& E) override {
    solver_->solve(electrons, E);
  }

 private:
  DlFieldSolver* solver_;  // owned by the simulation
};

}  // namespace

DlPicSimulation::DlPicSimulation(const pic::SimulationConfig& config,
                                 std::shared_ptr<DlFieldSolver> solver)
    : pic::PicLoop(config, std::make_unique<DlFieldStage>(config, solver.get()),
                   /*sort_interval=*/0),
      solver_(std::move(solver)) {}

}  // namespace dlpic::core
