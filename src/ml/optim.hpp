// Optimizer and LR scheduling.
//
// The paper trains with Adam (lr = 0.001) plus ReduceLROnPlateau
// (patience = 20); both are reproduced here. Precision emulation
// (fp16/bf16 weight rounding after each step) implements the paper's
// --precision flag without mixed-precision hardware.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "ml/module.hpp"

namespace sickle::ml {

/// Weight storage precision emulation.
enum class Precision { kFp32, kFp16, kBf16 };

/// Round a float to the nearest value representable at `precision`.
[[nodiscard]] float quantize(float x, Precision precision) noexcept;

/// Adam with bias correction and the usual betas (0.9, 0.999) and eps
/// (1e-8); after each step the weights are rounded to the set precision.
class Adam {
 public:
  Adam(std::vector<Param*> params, double lr);
  void step();
  void zero_grad() {
    for (Param* p : params_) p->grad.zero();
  }

  [[nodiscard]] double lr() const noexcept { return lr_; }
  void set_lr(double lr) noexcept { lr_ = lr; }
  void set_precision(Precision p) noexcept { precision_ = p; }

 private:
  std::vector<Param*> params_;
  double lr_;
  Precision precision_ = Precision::kFp32;
  std::size_t t_ = 0;
  std::vector<Tensor> m_, v_;
};

/// Reduce LR by `factor` after `patience` epochs without improvement.
class ReduceLROnPlateau {
 public:
  ReduceLROnPlateau(Adam& opt, double factor = 0.5,
                    std::size_t patience = 20, double min_lr = 1e-6);

  /// Call once per epoch with the monitored loss; returns true if the LR
  /// was reduced this call.
  bool step(double loss);

 private:
  Adam& opt_;
  double factor_;
  std::size_t patience_;
  double min_lr_;
  double best_ = 1e30;
  std::size_t bad_epochs_ = 0;
};

}  // namespace sickle::ml
