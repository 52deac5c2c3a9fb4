#pragma once
/// \file dl_field_solver.hpp
/// The paper's DL electric-field solver (§III, Fig. 2–3): bins the electron
/// phase space into a 2D histogram, min–max normalizes it, and runs one
/// network inference to produce the electric field on the grid — replacing
/// charge deposition + Poisson solve + gradient of the traditional method.

#include <future>
#include <memory>
#include <string>

#include "data/normalizer.hpp"
#include "nn/sequential.hpp"
#include "phase_space/binner.hpp"
#include "pic/species.hpp"
#include "serve/inference_server.hpp"

namespace dlpic::core {

/// Bundles the trained network, the input normalizer and the phase-space
/// binner geometry into a deployable field solver.
class DlFieldSolver {
 public:
  /// Takes ownership of the trained model. The normalizer must be fitted on
  /// the same histogram distribution the model was trained with.
  DlFieldSolver(nn::Sequential model, data::MinMaxNormalizer normalizer,
                phase_space::BinnerConfig binner_config);

  /// Moving a solver stops any serving session first (a private server
  /// holds references into the moved-from object); restart serving on the
  /// destination if needed. Moving a solver while it is registered on a
  /// SHARED server — or move-assigning over one — is a hard error: the
  /// registration cannot be withdrawn, so the shared server would keep
  /// serving from the moved-from model. Both operations detect an active
  /// shared registration and std::terminate with a diagnostic instead of
  /// corrupting the live bundle. Shut the shared server down first. The
  /// destination's context points at the destination's weight cache.
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

  /// Starts (or restarts with a new config) the serving-backed mode: a
  /// private serve::InferenceServer over this solver's model and normalizer
  /// that coalesces concurrent solve_async() calls into batched forward
  /// passes. Returns the running server (also reachable via server()). The
  /// solver must outlive the serving session and must not be moved while
  /// serving.
  serve::InferenceServer& start_serving(const serve::ServerConfig& config = {});

  /// Multi-model mode: registers this solver's model + normalizer as a
  /// named bundle on a caller-owned shared server (one server, several
  /// field-solver bundles behind one worker pool) and routes solve_async()
  /// through it. A thin registration: the shared server keeps its own
  /// workers, queue and per-model stats; this solver only remembers its
  /// model id. Returns that id. The solver must outlive `shared` (the
  /// registration cannot be withdrawn) and must not be moved while
  /// registered. Stops any previous serving mode first.
  size_t start_serving(serve::InferenceServer& shared, std::string name,
                       const serve::ModelConfig& config = {});

  /// Drains in-flight requests and stops a private serving backend, or
  /// detaches from a shared one (whose bundle stays registered and
  /// servable — only this solver's routing is dropped). No-op when not
  /// serving.
  void stop_serving();

  /// True while the serving backend is up (private or shared).
  [[nodiscard]] bool serving() const {
    return server_ != nullptr || shared_server_ != nullptr;
  }

  /// The serving backend solve_async() routes through (private or shared),
  /// or nullptr when not serving.
  [[nodiscard]] serve::InferenceServer* server() {
    return server_ != nullptr ? server_.get() : shared_server_;
  }

  /// The bundle id this solver serves under (meaningful while serving).
  [[nodiscard]] size_t serving_model_id() const { return model_id_; }

  /// Asynchronous solve_histogram() through the serving backend: submits
  /// the raw (unnormalized) histogram on `priority`'s lane, optionally with
  /// an absolute expiry `deadline` (the future fails with
  /// serve::DeadlineExpired when inference has not started by then), and
  /// resolves to the predicted E. Served results are bitwise identical to
  /// the synchronous path. Throws std::runtime_error when serving has not
  /// been started.
  std::future<std::vector<double>> solve_async(
      std::vector<double> histogram, serve::Priority priority = serve::Priority::kBulk,
      std::chrono::steady_clock::time_point deadline = serve::kNoDeadline);

  /// Asynchronous solve(): bins the phase space, then submits it.
  std::future<std::vector<double>> solve_async(
      const pic::Species& electrons, serve::Priority priority = serve::Priority::kBulk,
      std::chrono::steady_clock::time_point deadline = serve::kNoDeadline);

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
  /// Terminates with a diagnostic when this solver is registered on a
  /// shared server (the move guard; see the move ctor docs).
  void ensure_unregistered(const char* what) const noexcept;

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
  std::unique_ptr<serve::InferenceServer> server_;     // non-null in private mode
  serve::InferenceServer* shared_server_ = nullptr;    // non-null in shared mode
  size_t model_id_ = 0;                                // bundle id while serving
};

}  // namespace dlpic::core
