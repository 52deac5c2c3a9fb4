#include "nn/optimizer.hpp"

#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"

namespace dlpic::nn {

namespace {
void check_state(std::vector<Tensor>& state, const std::vector<Param>& params) {
  if (state.empty()) {
    state.reserve(params.size());
    for (const auto& p : params) state.emplace_back(p.value->shape());
    return;
  }
  if (state.size() != params.size())
    throw std::invalid_argument("Optimizer: parameter list changed between steps");
  for (size_t i = 0; i < params.size(); ++i)
    if (!state[i].same_shape(*params[i].value))
      throw std::invalid_argument("Optimizer: parameter shape changed between steps");
}
}  // namespace

SGD::SGD(double lr, double momentum) : lr_(lr), momentum_(momentum) {
  if (!(lr > 0.0)) throw std::invalid_argument("SGD: lr must be positive");
  if (momentum < 0.0 || momentum >= 1.0)
    throw std::invalid_argument("SGD: momentum must be in [0, 1)");
}

void SGD::step(const std::vector<Param>& params) {
  check_state(velocity_, params);
  for (size_t i = 0; i < params.size(); ++i) {
    double* w = params[i].value->data();
    const double* g = params[i].grad->data();
    double* vel = velocity_[i].data();
    const size_t n = params[i].value->size();
    // Elementwise update: parallel chunks are disjoint, so the result is
    // independent of the worker count.
    if (momentum_ > 0.0) {
      util::parallel_for_chunks(
          0, n,
          [&](size_t lo, size_t hi) {
            for (size_t j = lo; j < hi; ++j) {
              vel[j] = momentum_ * vel[j] - lr_ * g[j];
              w[j] += vel[j];
            }
          },
          detail::kElemGrain);
    } else {
      util::parallel_for_chunks(
          0, n,
          [&](size_t lo, size_t hi) {
            for (size_t j = lo; j < hi; ++j) w[j] -= lr_ * g[j];
          },
          detail::kElemGrain);
    }
  }
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  if (!(lr > 0.0)) throw std::invalid_argument("Adam: lr must be positive");
  if (beta1 < 0.0 || beta1 >= 1.0 || beta2 < 0.0 || beta2 >= 1.0)
    throw std::invalid_argument("Adam: betas must be in [0, 1)");
}

void Adam::step(const std::vector<Param>& params) {
  check_state(m_, params);
  check_state(v_, params);
  ++t_;
  const double bc1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
  for (size_t i = 0; i < params.size(); ++i) {
    double* w = params[i].value->data();
    const double* g = params[i].grad->data();
    double* m = m_[i].data();
    double* v = v_[i].data();
    const size_t n = params[i].value->size();
    // Elementwise update: parallel chunks are disjoint, so the result is
    // independent of the worker count.
    util::parallel_for_chunks(
        0, n,
        [&](size_t lo, size_t hi) {
          for (size_t j = lo; j < hi; ++j) {
            m[j] = beta1_ * m[j] + (1.0 - beta1_) * g[j];
            v[j] = beta2_ * v[j] + (1.0 - beta2_) * g[j] * g[j];
            const double mhat = m[j] / bc1;
            const double vhat = v[j] / bc2;
            w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
          }
        },
        detail::kElemGrain);
  }
}

}  // namespace dlpic::nn
