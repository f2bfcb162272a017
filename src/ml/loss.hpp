// Loss functions.
#pragma once

#include "ml/tensor.hpp"

namespace sickle::ml {

/// Mean squared error; grad is dLoss/dPred (mean reduction).
struct LossResult {
  double value = 0.0;
  Tensor grad;
};

[[nodiscard]] LossResult mse_loss(const Tensor& pred, const Tensor& target);

}  // namespace sickle::ml
