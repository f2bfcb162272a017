// Minimal dense tensor for the training stack.
//
// The paper trains with PyTorch; offline we implement the needed subset
// from scratch. Tensor is a reference-free owning container (row-major,
// float32 — matching the paper's training precision) with just the ops the
// layers need. Autograd is explicit: every Module implements its own
// backward pass, which keeps the stack small and auditable.
#pragma once

#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"

namespace sickle::ml {

class Tensor {
 public:
  Tensor() = default;
  explicit Tensor(std::vector<std::size_t> shape);
  Tensor(std::vector<std::size_t> shape, std::vector<float> data);

  [[nodiscard]] const std::vector<std::size_t>& shape() const noexcept {
    return shape_;
  }
  [[nodiscard]] std::size_t rank() const noexcept { return shape_.size(); }
  [[nodiscard]] std::size_t size() const noexcept { return data_.size(); }
  [[nodiscard]] std::size_t dim(std::size_t i) const {
    SICKLE_CHECK(i < shape_.size());
    return shape_[i];
  }

  [[nodiscard]] std::span<float> data() noexcept { return data_; }
  [[nodiscard]] std::span<const float> data() const noexcept { return data_; }
  [[nodiscard]] float* raw() noexcept { return data_.data(); }
  [[nodiscard]] const float* raw() const noexcept { return data_.data(); }

  float& operator[](std::size_t i) noexcept { return data_[i]; }
  float operator[](std::size_t i) const noexcept { return data_[i]; }

  /// Reinterpret with a new shape of identical total size.
  [[nodiscard]] Tensor reshaped(std::vector<std::size_t> shape) const;

  void fill(float value) noexcept;
  void zero() noexcept { fill(0.0f); }

  [[nodiscard]] std::string shape_str() const;

  static Tensor zeros(std::vector<std::size_t> shape);
  /// He/Glorot-style scaled Gaussian init.
  static Tensor randn(std::vector<std::size_t> shape, Rng& rng,
                      float stddev = 1.0f);

 private:
  std::vector<std::size_t> shape_;
  std::vector<float> data_;
};

/// C = A(mxk) * B(kxn), row-major. `accumulate` adds into C.
void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            bool accumulate = false);

/// C = A(mxk) * B^T where B is (n x k).
///
/// Arithmetic contract: each output is summed over p in order from 0.0f,
/// then added to C, so every C[i, j] gets the same IEEE operations as the
/// one-output loop. Full 4-row x 8-column tiles run their 8 columns as
/// SIMD lanes over a transposed copy of B, kept in per-thread scratch
/// that only grows. Rows and columns outside the tiles run the one-output
/// loop, so a single row (batch-1 serving) never transposes B.
void matmul_bt(std::span<const float> a, std::span<const float> b,
               std::span<float> c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false);

/// C = A^T(k x m -> m x k view) * B(k x n) — i.e. C(m x n) = sum_k A[k,m]*B[k,n].
void matmul_at(std::span<const float> a, std::span<const float> b,
               std::span<float> c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate = false);

/// FLOPs of a matmul (2*m*k*n) — used by the energy model.
[[nodiscard]] constexpr double matmul_flops(std::size_t m, std::size_t k,
                                            std::size_t n) noexcept {
  return 2.0 * static_cast<double>(m) * static_cast<double>(k) *
         static_cast<double>(n);
}

}  // namespace sickle::ml
