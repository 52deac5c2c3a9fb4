#include "core/dl_field_solver.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/binary_io.hpp"

namespace dlpic::core {

namespace {
constexpr uint32_t kBundleMagic = 0x444c4653;  // "DLFS"
constexpr uint32_t kBundleVersion = 1;

// The Sequential save/load API works on paths; bundle the three parts as
// (header, binner, normalizer) + a model blob in a sibling region by
// serializing the model to <path>.model. Keeping two files avoids
// duplicating the Sequential registry here.
std::string model_path_for(const std::string& path) { return path + ".model"; }
}  // namespace

DlFieldSolver::DlFieldSolver(nn::Sequential model, data::MinMaxNormalizer normalizer,
                             phase_space::BinnerConfig binner_config)
    : model_(std::move(model)), normalizer_(normalizer), binner_(binner_config) {
  if (!normalizer_.fitted())
    throw std::invalid_argument("DlFieldSolver: normalizer must be fitted");
  // Validate that the model accepts the binner's histogram size.
  const size_t input_dim = binner_.size();
  (void)model_.output_shape({1, input_dim});  // throws when incompatible
}

DlFieldSolver::DlFieldSolver(DlFieldSolver&& other) noexcept
    : model_(std::move(other.model_)),
      normalizer_(other.normalizer_),
      binner_(std::move(other.binner_)),
      ctx_(std::move(other.ctx_)),
      weight_cache_(std::move(other.weight_cache_)),
      cache_precision_(std::exchange(other.cache_precision_, nn::Precision::kF64)) {
  // The cache keys are layer addresses, which survive the model move; only
  // the moved context still points at other's cache.
  ctx_.set_weight_cache(&weight_cache_);
}

DlFieldSolver& DlFieldSolver::operator=(DlFieldSolver&& other) noexcept {
  if (this == &other) return *this;
  model_ = std::move(other.model_);
  normalizer_ = other.normalizer_;
  binner_ = std::move(other.binner_);
  ctx_ = std::move(other.ctx_);
  weight_cache_ = std::move(other.weight_cache_);
  cache_precision_ = std::exchange(other.cache_precision_, nn::Precision::kF64);
  ctx_.set_weight_cache(&weight_cache_);
  return *this;
}

std::vector<double> DlFieldSolver::solve(const pic::Species& electrons) {
  std::vector<double> E;
  solve(electrons, E);
  return E;
}

void DlFieldSolver::solve(const pic::Species& electrons, std::vector<double>& E) {
  nn::Tensor& x = staged_input();
  binner_.bin(electrons, x.vec());
  const nn::Tensor& y = infer(x);
  E.assign(y.data(), y.data() + y.size());
}

nn::Tensor& DlFieldSolver::staged_input() {
  // One staging buffer for every per-step call, so repeated solves reuse
  // one buffer set end to end.
  return ctx_.workspace().tensor(this, 0, {1, binner_.size()});
}

const nn::Tensor& DlFieldSolver::infer(nn::Tensor& x) {
  normalizer_.apply(x.vec());
  const nn::Precision precision = ctx_.precision();
  if (nn::is_quantized(precision) && precision != cache_precision_) {
    weight_cache_.clear();
    weight_cache_.build(model_, precision);
    cache_precision_ = precision;
    ctx_.set_weight_cache(&weight_cache_);
  }
  return model_.predict(ctx_, x);
}

std::vector<double> DlFieldSolver::solve_histogram(const std::vector<double>& histogram) {
  if (histogram.size() != binner_.size())
    throw std::invalid_argument("DlFieldSolver: histogram size mismatch");
  nn::Tensor& x = staged_input();
  std::copy(histogram.begin(), histogram.end(), x.data());
  return infer(x).vec();
}

void DlFieldSolver::save(const std::string& path) const {
  util::BinaryWriter w(path);
  w.write_u32(kBundleMagic);
  w.write_u32(kBundleVersion);
  const auto& bc = binner_.config();
  w.write_u64(bc.nx);
  w.write_u64(bc.nv);
  w.write_f64(bc.length);
  w.write_f64(bc.vmin);
  w.write_f64(bc.vmax);
  w.write_u32(bc.order == phase_space::BinningOrder::NGP ? 0u : 1u);
  normalizer_.save(w);
  w.flush();
  model_.save(model_path_for(path));
}

DlFieldSolver DlFieldSolver::load(const std::string& path) {
  util::BinaryReader r(path);
  if (r.read_u32() != kBundleMagic)
    throw std::runtime_error("DlFieldSolver::load: bad magic in " + path);
  if (r.read_u32() != kBundleVersion)
    throw std::runtime_error("DlFieldSolver::load: unsupported version in " + path);
  phase_space::BinnerConfig bc;
  bc.nx = r.read_u64();
  bc.nv = r.read_u64();
  bc.length = r.read_f64();
  bc.vmin = r.read_f64();
  bc.vmax = r.read_f64();
  const uint32_t order = r.read_u32();
  if (order > 1)
    throw std::runtime_error("DlFieldSolver::load: bad binning order " +
                             std::to_string(order) + " in " + path);
  bc.order = order == 0 ? phase_space::BinningOrder::NGP : phase_space::BinningOrder::CIC;
  auto normalizer = data::MinMaxNormalizer::load(r);
  auto model = nn::Sequential::load_file(model_path_for(path));
  return DlFieldSolver(std::move(model), normalizer, bc);
}

}  // namespace dlpic::core
