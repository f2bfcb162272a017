// Finite-difference gradient checking for Module backward passes.
//
// Loss is a fixed random linear functional of the output, L = sum c_i y_i,
// so dL/dy = c exactly and any mismatch is the layer's fault. Tensors are
// float, so tolerances are loose-ish (1e-2 relative with 1e-3 absolute
// floor) and probes use a subset of elements for large layers.
#pragma once

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.hpp"
#include "ml/module.hpp"

namespace sickle::ml::testing {

struct GradCheckOptions {
  float eps = 1e-2f;          ///< central-difference step
  double rtol = 2e-2;
  double atol = 2e-3;
  std::size_t max_probes = 64;  ///< elements probed per tensor
};

inline double linear_loss(const Tensor& y, const Tensor& coeff) {
  double acc = 0.0;
  for (std::size_t i = 0; i < y.size(); ++i) {
    acc += static_cast<double>(y[i]) * coeff[i];
  }
  return acc;
}

/// Check dL/dInput and every dL/dParam of `module` at `input`.
inline void check_gradients(Module& module, const Tensor& input,
                            std::uint64_t seed = 1234,
                            GradCheckOptions opts = {}) {
  Rng rng(seed);

  Tensor x = input;
  Tensor y = module.forward(x);
  Tensor coeff = Tensor::randn(y.shape(), rng, 1.0f);

  module.zero_grad();
  Tensor analytic_dx = module.backward(coeff);

  auto probe_indices = [&](std::size_t n) {
    std::vector<std::size_t> idx;
    if (n <= opts.max_probes) {
      for (std::size_t i = 0; i < n; ++i) idx.push_back(i);
    } else {
      idx = rng.sample_without_replacement(n, opts.max_probes);
    }
    return idx;
  };

  auto expect_close = [&](double analytic, double numeric,
                          const std::string& what, std::size_t i) {
    const double tol =
        opts.atol + opts.rtol * std::max(std::abs(analytic),
                                         std::abs(numeric));
    EXPECT_NEAR(analytic, numeric, tol)
        << what << " gradient mismatch at element " << i;
  };

  // Input gradient.
  for (const std::size_t i : probe_indices(x.size())) {
    const float saved = x[i];
    x[i] = saved + opts.eps;
    const double lp = linear_loss(module.forward(x), coeff);
    x[i] = saved - opts.eps;
    const double lm = linear_loss(module.forward(x), coeff);
    x[i] = saved;
    expect_close(analytic_dx[i], (lp - lm) / (2.0 * opts.eps), "input", i);
  }

  // Parameter gradients. Note: backward() above accumulated them once.
  for (Param* p : module.parameters()) {
    for (const std::size_t i : probe_indices(p->value.size())) {
      const float saved = p->value[i];
      p->value[i] = saved + opts.eps;
      const double lp = linear_loss(module.forward(x), coeff);
      p->value[i] = saved - opts.eps;
      const double lm = linear_loss(module.forward(x), coeff);
      p->value[i] = saved;
      expect_close(p->grad[i], (lp - lm) / (2.0 * opts.eps), p->name, i);
    }
  }
}

}  // namespace sickle::ml::testing
