// Module interface: explicit-backprop neural network layers.
//
// Every layer caches what it needs during forward() and implements
// backward() returning the gradient with respect to its input while
// accumulating parameter gradients. Each module names what it owns once,
// in its constructor: own(param) for its parameters and child(module) for
// its sub-modules. parameters() walks that one list, and the default
// flops() sums the children in registration order; leaves override
// flops(). Registration stores pointers into the module, so modules are
// never copied or moved.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "ml/tensor.hpp"

namespace sickle::ml {

/// A learnable parameter: value and accumulated gradient.
struct Param {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Param(std::string n, Tensor v)
      : name(std::move(n)), value(std::move(v)),
        grad(Tensor::zeros(value.shape())) {}
};

class Module {
 public:
  Module() = default;
  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;
  virtual ~Module() = default;

  /// Forward pass; caches activations needed by backward.
  virtual Tensor forward(const Tensor& input) = 0;

  /// Backward pass for the most recent forward() call. Accumulates into
  /// parameter gradients and returns dLoss/dInput.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// This module's own parameters, then each child's, in registration
  /// order.
  [[nodiscard]] std::vector<Param*> parameters() {
    std::vector<Param*> out = params_;
    for (Module* c : children_) {
      const auto p = c->parameters();
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

  /// Approximate FLOPs of one forward+backward for the most recent input
  /// (energy accounting; 0 for cheap elementwise layers is acceptable).
  [[nodiscard]] virtual double flops() const {
    double total = 0.0;
    for (const Module* c : children_) total += c->flops();
    return total;
  }

  [[nodiscard]] virtual std::string name() const = 0;

  /// Total scalar parameter count.
  [[nodiscard]] std::size_t num_parameters() {
    std::size_t n = 0;
    for (const Param* p : parameters()) n += p->value.size();
    return n;
  }

  void zero_grad() {
    for (Param* p : parameters()) p->grad.zero();
  }

 protected:
  void own(Param& p) { params_.push_back(&p); }
  void child(Module& m) { children_.push_back(&m); }

 private:
  std::vector<Param*> params_;
  std::vector<Module*> children_;
};

}  // namespace sickle::ml
