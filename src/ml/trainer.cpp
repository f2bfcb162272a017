#include "ml/trainer.hpp"

#include <algorithm>
#include <numeric>

#include "common/timer.hpp"

namespace sickle::ml {

void TensorDataset::push(Tensor input, Tensor target) {
  if (!inputs_.empty()) {
    SICKLE_CHECK_MSG(input.shape() == inputs_.front().shape() &&
                         target.shape() == targets_.front().shape(),
                     "all dataset examples must share shapes");
  }
  inputs_.push_back(std::move(input));
  targets_.push_back(std::move(target));
}

std::pair<Tensor, Tensor> TensorDataset::batch(
    std::span<const std::size_t> indices) const {
  SICKLE_CHECK_MSG(!indices.empty() && !inputs_.empty(),
                   "cannot build an empty batch");
  auto in_shape = inputs_.front().shape();
  auto tg_shape = targets_.front().shape();
  in_shape.insert(in_shape.begin(), indices.size());
  tg_shape.insert(tg_shape.begin(), indices.size());
  Tensor in(in_shape), tg(tg_shape);
  const std::size_t in_sz = inputs_.front().size();
  const std::size_t tg_sz = targets_.front().size();
  for (std::size_t b = 0; b < indices.size(); ++b) {
    const std::size_t i = indices[b];
    std::copy_n(inputs_.at(i).raw(), in_sz, in.raw() + b * in_sz);
    std::copy_n(targets_.at(i).raw(), tg_sz, tg.raw() + b * tg_sz);
  }
  return {std::move(in), std::move(tg)};
}

double evaluate(Module& model, const TensorDataset& data,
                std::span<const std::size_t> indices,
                std::size_t batch_size) {
  if (indices.empty()) return 0.0;
  double total = 0.0;
  std::size_t count = 0;
  for (std::size_t b = 0; b < indices.size(); b += batch_size) {
    const std::size_t e = std::min(indices.size(), b + batch_size);
    const auto [in, tg] =
        data.batch(indices.subspan(b, e - b));
    const Tensor pred = model.forward(in);
    total += mse_loss(pred, tg).value * static_cast<double>(e - b);
    count += e - b;
  }
  return total / static_cast<double>(count);
}

TrainReport fit(Module& model, const TensorDataset& data,
                const TrainConfig& cfg) {
  SICKLE_CHECK_MSG(data.size() >= 2, "dataset too small to split");
  TrainReport report;
  Timer timer;
  report.parameters = model.num_parameters();

  // Deterministic 90:10 split.
  Rng split_rng(cfg.seed, /*stream=*/0x51);
  std::vector<std::size_t> order(data.size());
  std::iota(order.begin(), order.end(), 0);
  split_rng.shuffle(std::span<std::size_t>(order));
  const auto n_test = std::max<std::size_t>(
      1, static_cast<std::size_t>(cfg.test_fraction *
                                  static_cast<double>(data.size())));
  const std::size_t n_train = data.size() - n_test;
  std::vector<std::size_t> train_idx(order.begin(),
                                     order.begin() + n_train);
  std::vector<std::size_t> test_idx(order.begin() + n_train, order.end());

  Adam opt(model.parameters(), cfg.lr);
  opt.set_precision(cfg.precision);
  ReduceLROnPlateau scheduler(opt, /*factor=*/0.5, cfg.patience);

  Rng epoch_rng(cfg.seed, /*stream=*/0xE9);
  for (std::size_t epoch = 0; epoch < cfg.epochs; ++epoch) {
    epoch_rng.shuffle(std::span<std::size_t>(train_idx));
    double epoch_loss = 0.0;
    std::size_t steps = 0;
    for (std::size_t b = 0; b < n_train; b += cfg.batch) {
      const std::size_t e = std::min(n_train, b + cfg.batch);
      const auto [in, tg] = data.batch(
          std::span<const std::size_t>(train_idx.data() + b, e - b));
      opt.zero_grad();
      const Tensor pred = model.forward(in);
      const LossResult loss = mse_loss(pred, tg);
      model.backward(loss.grad);
      opt.step();

      epoch_loss += loss.value;
      ++steps;
      report.energy.add_flops(model.flops());
      report.energy.add_bytes(
          static_cast<double>(in.size() + tg.size()) * sizeof(float) * 3.0);
    }
    epoch_loss /= static_cast<double>(std::max<std::size_t>(1, steps));
    report.epoch_losses.push_back(epoch_loss);
    scheduler.step(epoch_loss);
  }

  report.final_train_loss =
      report.epoch_losses.empty() ? 0.0 : report.epoch_losses.back();
  report.test_loss = evaluate(model, data,
                              std::span<const std::size_t>(test_idx),
                              cfg.batch);
  report.seconds = timer.seconds();
  report.energy.add_seconds(report.seconds);
  return report;
}

}  // namespace sickle::ml
