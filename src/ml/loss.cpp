#include "ml/loss.hpp"

#include "common/error.hpp"

namespace sickle::ml {

LossResult mse_loss(const Tensor& pred, const Tensor& target) {
  SICKLE_CHECK_MSG(pred.size() == target.size(), "loss size mismatch");
  LossResult out;
  out.grad = Tensor(pred.shape());
  const double inv_n = 1.0 / static_cast<double>(pred.size());
  double acc = 0.0;
  for (std::size_t i = 0; i < pred.size(); ++i) {
    const double d = static_cast<double>(pred[i]) - target[i];
    acc += d * d;
    out.grad[i] = static_cast<float>(2.0 * d * inv_n);
  }
  out.value = acc * inv_n;
  return out;
}

}  // namespace sickle::ml
