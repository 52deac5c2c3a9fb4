#pragma once
/// \file dl_field_solver.hpp
/// The paper's DL electric-field solver (§III, Fig. 2–3): bins the electron
/// phase space into a 2D histogram, min–max normalizes it, and runs one
/// network inference to produce the electric field on the grid — replacing
/// charge deposition + Poisson solve + gradient of the traditional method.

#include <string>
#include <vector>

#include "data/normalizer.hpp"
#include "nn/sequential.hpp"
#include "phase_space/binner.hpp"
#include "pic/species.hpp"

namespace dlpic::core {

/// Bundles the trained network, the input normalizer and the phase-space
/// binner geometry into a deployable field solver. Solves are synchronous,
/// on the solver's own execution context. To serve the same network to
/// concurrent clients, register model() and &normalizer() on a
/// serve::InferenceServer with add_model() (input width binner_config()'s
/// nx * nv); served rows are bitwise equal to solve_histogram(). The solver
/// must then outlive the server and must not be moved while it serves.
class DlFieldSolver {
 public:
  /// Takes ownership of the trained model. The normalizer must be fitted on
  /// the same histogram distribution the model was trained with.
  DlFieldSolver(nn::Sequential model, data::MinMaxNormalizer normalizer,
                phase_space::BinnerConfig binner_config);

  /// The destination's context points at the destination's weight cache.
  DlFieldSolver(DlFieldSolver&& other) noexcept;
  DlFieldSolver& operator=(DlFieldSolver&& other) noexcept;
  DlFieldSolver(const DlFieldSolver&) = delete;
  DlFieldSolver& operator=(const DlFieldSolver&) = delete;
  ~DlFieldSolver() = default;

  /// Predicts E on the grid from the particle phase space.
  /// The output size equals the model's output dimension (grid cells).
  [[nodiscard]] std::vector<double> solve(const pic::Species& electrons);

  /// In-place solve(): bins straight into the solver's workspace and copies
  /// the prediction into `E`, so a steady-state call allocates nothing once
  /// `E` has the output size.
  void solve(const pic::Species& electrons, std::vector<double>& E);

  /// Predicts E from an already-binned raw (unnormalized) histogram.
  /// Inference runs on the solver's own execution context, so the per-step
  /// hot path of a DL-PIC run reuses one workspace instead of allocating
  /// activations every cycle.
  [[nodiscard]] std::vector<double> solve_histogram(const std::vector<double>& histogram);

  /// The solver's reusable inference context. Set its precision to kInt8
  /// or kInt16 to run the in-loop solves quantized: the first inference at
  /// a quantized precision — and the first after the precision changes —
  /// quantizes the model's weights into the solver's own
  /// nn::QuantizedWeightCache and points the context at it. The cache is a
  /// snapshot of the weights at that build (as a serving bundle's is at
  /// registration): a later write to model() is not seen by quantized
  /// solves.
  [[nodiscard]] nn::ExecutionContext& context() { return ctx_; }

  [[nodiscard]] const phase_space::BinnerConfig& binner_config() const {
    return binner_.config();
  }
  [[nodiscard]] const data::MinMaxNormalizer& normalizer() const { return normalizer_; }
  [[nodiscard]] nn::Sequential& model() { return model_; }

  /// Serializes the full solver bundle (model + normalizer + binner).
  void save(const std::string& path) const;

  /// Loads a bundle written by save().
  static DlFieldSolver load(const std::string& path);

 private:
  /// The histogram staging tensor in the solver's workspace.
  nn::Tensor& staged_input();
  /// Normalizes the histogram staged in `x` in place and runs the forward,
  /// (re)building the weight cache first when the context's precision is
  /// quantized and differs from the cache's.
  const nn::Tensor& infer(nn::Tensor& x);

  nn::Sequential model_;
  data::MinMaxNormalizer normalizer_;
  phase_space::PhaseSpaceBinner binner_;
  nn::ExecutionContext ctx_;
  nn::QuantizedWeightCache weight_cache_;
  nn::Precision cache_precision_ = nn::Precision::kF64;  // kF64: not built
};

}  // namespace dlpic::core
