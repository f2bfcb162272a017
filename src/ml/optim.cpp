#include "ml/optim.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace sickle::ml {

float quantize(float x, Precision precision) noexcept {
  switch (precision) {
    case Precision::kFp32:
      return x;
    case Precision::kBf16: {
      // bf16: keep the top 16 bits of the IEEE-754 representation
      // (round-to-nearest-even on the truncated half).
      std::uint32_t bits;
      std::memcpy(&bits, &x, 4);
      const std::uint32_t rounding = 0x7FFFu + ((bits >> 16) & 1u);
      bits = (bits + rounding) & 0xFFFF0000u;
      float out;
      std::memcpy(&out, &bits, 4);
      return out;
    }
    case Precision::kFp16: {
      // Emulate binary16 range/precision: clamp to +-65504 and round the
      // significand to 10 bits.
      if (std::isnan(x)) return x;
      const float clamped = std::clamp(x, -65504.0f, 65504.0f);
      if (clamped == 0.0f) return 0.0f;
      int exp;
      const float frac = std::frexp(clamped, &exp);
      const float scale = 1024.0f;  // 2^10 significand bits
      return std::ldexp(std::round(frac * 2.0f * scale) / (2.0f * scale),
                        exp);
    }
  }
  return x;
}

namespace {
constexpr double kBeta1 = 0.9;
constexpr double kBeta2 = 0.999;
constexpr double kEps = 1e-8;
}  // namespace

Adam::Adam(std::vector<Param*> params, double lr)
    : params_(std::move(params)), lr_(lr) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (const Param* p : params_) {
    m_.emplace_back(Tensor::zeros(p->value.shape()));
    v_.emplace_back(Tensor::zeros(p->value.shape()));
  }
}

void Adam::step() {
  ++t_;
  const double bc1 = 1.0 - std::pow(kBeta1, static_cast<double>(t_));
  const double bc2 = 1.0 - std::pow(kBeta2, static_cast<double>(t_));
  const auto b1 = static_cast<float>(kBeta1);
  const auto b2 = static_cast<float>(kBeta2);
  const auto alpha = static_cast<float>(lr_ * std::sqrt(bc2) / bc1);
  const auto eps = static_cast<float>(kEps);
  for (std::size_t i = 0; i < params_.size(); ++i) {
    auto val = params_[i]->value.data();
    const auto grad = params_[i]->grad.data();
    auto m = m_[i].data();
    auto v = v_[i].data();
    for (std::size_t j = 0; j < val.size(); ++j) {
      m[j] = b1 * m[j] + (1.0f - b1) * grad[j];
      v[j] = b2 * v[j] + (1.0f - b2) * grad[j] * grad[j];
      val[j] -= alpha * m[j] / (std::sqrt(v[j]) + eps);
    }
  }
  if (precision_ == Precision::kFp32) return;
  for (Param* p : params_) {
    for (auto& x : p->value.data()) x = quantize(x, precision_);
  }
}

ReduceLROnPlateau::ReduceLROnPlateau(Adam& opt, double factor,
                                     std::size_t patience, double min_lr)
    : opt_(opt), factor_(factor), patience_(patience), min_lr_(min_lr) {}

bool ReduceLROnPlateau::step(double loss) {
  if (loss < best_ - 1e-12) {
    best_ = loss;
    bad_epochs_ = 0;
    return false;
  }
  if (++bad_epochs_ <= patience_) return false;
  bad_epochs_ = 0;
  const double next = std::max(opt_.lr() * factor_, min_lr_);
  const bool reduced = next < opt_.lr();
  opt_.set_lr(next);
  return reduced;
}

}  // namespace sickle::ml
