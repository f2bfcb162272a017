#include "ml/tensor.hpp"

#include <algorithm>
#include <numeric>
#include <sstream>

namespace sickle::ml {

namespace {
std::size_t shape_size(const std::vector<std::size_t>& shape) {
  std::size_t n = 1;
  for (const std::size_t d : shape) n *= d;
  return n;
}
}  // namespace

Tensor::Tensor(std::vector<std::size_t> shape)
    : shape_(std::move(shape)), data_(shape_size(shape_), 0.0f) {}

Tensor::Tensor(std::vector<std::size_t> shape, std::vector<float> data)
    : shape_(std::move(shape)), data_(std::move(data)) {
  SICKLE_CHECK_MSG(data_.size() == shape_size(shape_),
                   "tensor data does not match shape");
}

Tensor Tensor::reshaped(std::vector<std::size_t> shape) const {
  SICKLE_CHECK_MSG(shape_size(shape) == size(),
                   "reshape changes element count");
  return Tensor(std::move(shape), data_);
}

void Tensor::fill(float value) noexcept {
  std::fill(data_.begin(), data_.end(), value);
}

std::string Tensor::shape_str() const {
  std::ostringstream os;
  os << '[';
  for (std::size_t i = 0; i < shape_.size(); ++i) {
    if (i) os << ", ";
    os << shape_[i];
  }
  os << ']';
  return os.str();
}

Tensor Tensor::zeros(std::vector<std::size_t> shape) {
  return Tensor(std::move(shape));
}

Tensor Tensor::randn(std::vector<std::size_t> shape, Rng& rng, float stddev) {
  Tensor t(std::move(shape));
  for (auto& x : t.data()) {
    x = static_cast<float>(rng.normal()) * stddev;
  }
  return t;
}

void matmul(std::span<const float> a, std::span<const float> b,
            std::span<float> c, std::size_t m, std::size_t k, std::size_t n,
            bool accumulate) {
  SICKLE_CHECK(a.size() >= m * k && b.size() >= k * n && c.size() >= m * n);
  if (!accumulate) std::fill(c.begin(), c.begin() + m * n, 0.0f);
  // ikj loop order: unit-stride inner loop over both B and C.
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t p = 0; p < k; ++p) {
      const float aip = a[i * k + p];
      if (aip == 0.0f) continue;
      const float* brow = b.data() + p * n;
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += aip * brow[j];
    }
  }
}

namespace {

// matmul_bt computes tiles of kTileRows x kTileCols outputs, each lane one
// output column, over B transposed to k x n.
constexpr std::size_t kTileRows = 4;
constexpr std::size_t kTileCols = 8;

// The transposed B, per thread so that concurrent trainings share nothing.
// It only grows, so a shape seen once allocates nothing again.
thread_local std::vector<float> t_bt;

/// Rows [i0, i1) x columns [j0, j1) of C += A * B^T, one output at a time.
void matmul_bt_rows(const float* a, const float* b, float* c, std::size_t k,
                    std::size_t n, std::size_t i0, std::size_t i1,
                    std::size_t j0, std::size_t j1) {
  for (std::size_t i = i0; i < i1; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = j0; j < j1; ++j) {
      const float* brow = b + j * k;
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) acc += arow[p] * brow[p];
      c[i * n + j] += acc;
    }
  }
}

}  // namespace

void matmul_bt(std::span<const float> a, std::span<const float> b,
               std::span<float> c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) {
  SICKLE_CHECK(a.size() >= m * k && b.size() >= n * k && c.size() >= m * n);
  if (!accumulate) std::fill(c.begin(), c.begin() + m * n, 0.0f);
  // Full tiles; a single row or a narrow B never pays for the transpose.
  const bool tiled = m >= kTileRows && n >= kTileCols;
  const std::size_t mt = tiled ? m - m % kTileRows : 0;
  const std::size_t nt = tiled ? n - n % kTileCols : 0;
  if (tiled) {
    if (t_bt.size() < k * nt) t_bt.resize(k * nt);
    float* bt = t_bt.data();
    for (std::size_t j = 0; j < nt; ++j) {
      for (std::size_t p = 0; p < k; ++p) bt[p * nt + j] = b[j * k + p];
    }
    for (std::size_t i0 = 0; i0 < mt; i0 += kTileRows) {
      const float* arow = a.data() + i0 * k;
      for (std::size_t j0 = 0; j0 < nt; j0 += kTileCols) {
        // Each output sums its products over p in order from 0.0f, as the
        // one-output loop does, then is added to C.
        float acc[kTileRows][kTileCols] = {};
        for (std::size_t p = 0; p < k; ++p) {
          const float* brow = bt + p * nt + j0;
#pragma GCC unroll 4
          for (std::size_t r = 0; r < kTileRows; ++r) {
            const float arp = arow[r * k + p];
#pragma omp simd
            for (std::size_t l = 0; l < kTileCols; ++l) {
              acc[r][l] += arp * brow[l];
            }
          }
        }
        for (std::size_t r = 0; r < kTileRows; ++r) {
          float* crow = c.data() + (i0 + r) * n + j0;
          for (std::size_t l = 0; l < kTileCols; ++l) crow[l] += acc[r][l];
        }
      }
    }
  }
  // What the tiles leave: the columns past nt of the tiled rows, then
  // every column of the rows past mt.
  matmul_bt_rows(a.data(), b.data(), c.data(), k, n, 0, mt, nt, n);
  matmul_bt_rows(a.data(), b.data(), c.data(), k, n, mt, m, 0, n);
}

void matmul_at(std::span<const float> a, std::span<const float> b,
               std::span<float> c, std::size_t m, std::size_t k,
               std::size_t n, bool accumulate) {
  SICKLE_CHECK(a.size() >= k * m && b.size() >= k * n && c.size() >= m * n);
  if (!accumulate) std::fill(c.begin(), c.begin() + m * n, 0.0f);
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a.data() + p * m;
    const float* brow = b.data() + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float api = arow[i];
      if (api == 0.0f) continue;
      float* crow = c.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += api * brow[j];
    }
  }
}

}  // namespace sickle::ml
