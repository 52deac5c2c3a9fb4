#include "nn/trainer.hpp"

#include <algorithm>
#include <stdexcept>

#include "nn/loss.hpp"
#include "util/log.hpp"
#include "util/timer.hpp"

namespace dlpic::nn {

Trainer::Trainer(TrainConfig config) : config_(config) {
  if (config_.epochs == 0) throw std::invalid_argument("Trainer: epochs must be > 0");
  if (config_.batch_size == 0) throw std::invalid_argument("Trainer: batch_size must be > 0");
}

std::vector<EpochStats> Trainer::fit(Sequential& model, Optimizer& optimizer,
                                     const Dataset& train, const Dataset* val,
                                     const EpochCallback& on_epoch, ExecutionContext* ctx) {
  if (train.size() == 0) throw std::invalid_argument("Trainer::fit: empty training set");

  ExecutionContext local_ctx;
  ExecutionContext& ec = ctx != nullptr ? *ctx : local_ctx;

  math::Rng shuffle_rng(config_.shuffle_seed);
  DataLoader loader(train, config_.batch_size, shuffle_rng, /*shuffle=*/true);
  MSELoss loss;
  std::vector<EpochStats> history;
  history.reserve(config_.epochs);

  // Parameter list cached once: layers are stable for the whole fit, and
  // rebuilding the (name-carrying) list per batch would allocate.
  auto params = model.params();

  double best_val = 1e300;
  size_t bad_epochs = 0;

  for (size_t epoch = 0; epoch < config_.epochs; ++epoch) {
    util::Timer timer;
    loader.reset();
    double loss_sum = 0.0;
    size_t batches = 0;
    Tensor x, y;
    while (loader.next(x, y)) {
      const Tensor& pred = model.forward(ec, x, /*training=*/true);
      loss_sum += loss.forward(pred, y);
      for (auto& p : params) p.grad->zero();
      model.backward(ec, loss.backward());
      optimizer.step(params);
      ++batches;
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.train_loss = batches > 0 ? loss_sum / static_cast<double>(batches) : 0.0;
    if (val != nullptr && val->size() > 0) stats.validation = evaluate(model, *val, 256, &ec);
    stats.seconds = timer.seconds();
    history.push_back(stats);

    if (config_.verbose)
      DLPIC_LOG_INFO("epoch %zu/%zu: train mse %.3e, val mae %.3e (%.1fs)", epoch + 1,
                     config_.epochs, stats.train_loss, stats.validation.mae, stats.seconds);
    if (on_epoch) on_epoch(stats);

    if (config_.patience > 0 && val != nullptr && val->size() > 0) {
      if (stats.validation.mse < best_val - config_.min_delta) {
        best_val = stats.validation.mse;
        bad_epochs = 0;
      } else if (++bad_epochs >= config_.patience) {
        if (config_.verbose)
          DLPIC_LOG_INFO("early stop at epoch %zu (patience %zu)", epoch + 1,
                         config_.patience);
        break;
      }
    }
  }
  return history;
}

Metrics Trainer::evaluate(Sequential& model, const Dataset& data, size_t batch_size,
                          ExecutionContext* ctx) {
  if (data.size() == 0) throw std::invalid_argument("Trainer::evaluate: empty dataset");
  ExecutionContext local_ctx;
  ExecutionContext& ec = ctx != nullptr ? *ctx : local_ctx;
  Metrics m;
  m.samples = data.size();
  double se_sum = 0.0, ae_sum = 0.0;
  size_t elements = 0;

  math::Rng unused_rng(0);
  DataLoader loader(data, batch_size, unused_rng, /*shuffle=*/false);
  Tensor x, y;
  while (loader.next(x, y)) {
    const Tensor& pred = model.predict(ec, x);
    if (!pred.same_shape(y))
      throw std::runtime_error("Trainer::evaluate: model output shape " +
                               pred.shape_string() + " != target " + y.shape_string());
    for (size_t i = 0; i < pred.size(); ++i) {
      const double d = pred[i] - y[i];
      se_sum += d * d;
      ae_sum += std::abs(d);
      m.max_error = std::max(m.max_error, std::abs(d));
    }
    elements += pred.size();
  }
  m.mse = se_sum / static_cast<double>(elements);
  m.mae = ae_sum / static_cast<double>(elements);
  return m;
}

}  // namespace dlpic::nn
