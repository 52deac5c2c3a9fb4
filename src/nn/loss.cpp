#include "nn/loss.hpp"

#include <cmath>
#include <stdexcept>

#include "util/parallel.hpp"

namespace dlpic::nn {

namespace {

void require_same_shape(const Tensor& a, const Tensor& b, const char* who) {
  if (!a.same_shape(b))
    throw std::invalid_argument(std::string(who) + ": shape mismatch " + a.shape_string() +
                                " vs " + b.shape_string());
  if (a.empty()) throw std::invalid_argument(std::string(who) + ": empty tensors");
}

// Grain of the elementwise (non-reducing) loss loops.
constexpr size_t kElemGrain = 1 << 14;

}  // namespace

double MSELoss::forward(const Tensor& pred, const Tensor& target) {
  require_same_shape(pred, target, "MSELoss");
  diff_.resize(pred.shape().data(), pred.shape().size());
  double* d = diff_.data();
  const double* p = pred.data();
  const double* t = target.data();
  // Fixed-block ordered reduction: bitwise identical for every worker count
  // (each block sums in ascending index order over the fixed
  // kOrderedReduceBlock ranges).
  const double acc = util::ordered_block_sum(diff_.size(), [=](size_t lo, size_t hi) {
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      d[i] = p[i] - t[i];
      s += d[i] * d[i];
    }
    return s;
  });
  return acc / static_cast<double>(diff_.size());
}

const Tensor& MSELoss::backward() {
  if (diff_.empty()) throw std::runtime_error("MSELoss::backward before forward");
  grad_.resize(diff_.shape().data(), diff_.shape().size());
  const double scale = 2.0 / static_cast<double>(diff_.size());
  const double* d = diff_.data();
  double* g = grad_.data();
  util::parallel_for_chunks(
      0, grad_.size(),
      [=](size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i) g[i] = d[i] * scale;
      },
      kElemGrain);
  return grad_;
}

double mae_metric(const Tensor& pred, const Tensor& target) {
  require_same_shape(pred, target, "mae_metric");
  const double* p = pred.data();
  const double* t = target.data();
  const double acc = util::ordered_block_sum(pred.size(), [=](size_t lo, size_t hi) {
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) s += std::abs(p[i] - t[i]);
    return s;
  });
  return acc / static_cast<double>(pred.size());
}

double max_error_metric(const Tensor& pred, const Tensor& target) {
  require_same_shape(pred, target, "max_error_metric");
  const double* p = pred.data();
  const double* t = target.data();
  return util::ordered_block_max(pred.size(), 0.0, [=](size_t lo, size_t hi) {
    double m = 0.0;
    for (size_t i = lo; i < hi; ++i) m = std::max(m, std::abs(p[i] - t[i]));
    return m;
  });
}

double mse_metric(const Tensor& pred, const Tensor& target) {
  require_same_shape(pred, target, "mse_metric");
  const double* p = pred.data();
  const double* t = target.data();
  const double acc = util::ordered_block_sum(pred.size(), [=](size_t lo, size_t hi) {
    double s = 0.0;
    for (size_t i = lo; i < hi; ++i) {
      const double d = p[i] - t[i];
      s += d * d;
    }
    return s;
  });
  return acc / static_cast<double>(pred.size());
}

}  // namespace dlpic::nn
