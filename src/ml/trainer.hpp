// Training loop (the paper's train.py equivalent).
//
// Features mirrored from the reference setup: Adam with lr = 1e-3,
// ReduceLROnPlateau (patience 20), train/test split (default 90:10),
// batched minibatches, precision emulation (--precision), and energy
// accounting for every step.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

#include "energy/energy.hpp"
#include "ml/loss.hpp"
#include "ml/module.hpp"
#include "ml/optim.hpp"

namespace sickle::ml {

/// In-memory supervised dataset: per-example tensors (no batch axis).
class TensorDataset {
 public:
  void push(Tensor input, Tensor target);
  [[nodiscard]] std::size_t size() const noexcept { return inputs_.size(); }
  [[nodiscard]] const Tensor& input(std::size_t i) const {
    return inputs_.at(i);
  }
  [[nodiscard]] const Tensor& target(std::size_t i) const {
    return targets_.at(i);
  }

  /// Stack examples [indices] into batch tensors (prepends a batch axis).
  [[nodiscard]] std::pair<Tensor, Tensor> batch(
      std::span<const std::size_t> indices) const;

 private:
  std::vector<Tensor> inputs_;
  std::vector<Tensor> targets_;
};

struct TrainConfig {
  std::size_t epochs = 100;
  std::size_t batch = 16;
  double lr = 1e-3;
  std::size_t patience = 20;     ///< ReduceLROnPlateau patience
  double test_fraction = 0.1;    ///< 90:10 split as in the paper
  Precision precision = Precision::kFp32;
  std::uint64_t seed = 0;
};

struct TrainReport {
  std::vector<double> epoch_losses;  ///< mean train loss per epoch
  double final_train_loss = 0.0;
  double test_loss = 0.0;            ///< "Evaluation on test set"
  double seconds = 0.0;
  std::size_t parameters = 0;
  energy::EnergyCounter energy;
};

/// Train `model` on `data`.
TrainReport fit(Module& model, const TensorDataset& data,
                const TrainConfig& cfg);

/// Mean MSE of the model over the given examples.
[[nodiscard]] double evaluate(Module& model, const TensorDataset& data,
                              std::span<const std::size_t> indices,
                              std::size_t batch_size = 16);

}  // namespace sickle::ml
