// Structured-grid field containers.
//
// A Snapshot is one time instance of a multi-variable field on a regular
// grid (the unit every DNS dataset in Table 1 decomposes into); a Dataset
// is a time-ordered sequence of snapshots plus naming metadata. 2D cases
// use nz = 1. Storage is z-fastest row-major: idx = (ix*ny + iy)*nz + iz.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"

namespace sickle::field {

/// Grid extents. nz == 1 denotes a 2D grid.
struct GridShape {
  std::size_t nx = 1;
  std::size_t ny = 1;
  std::size_t nz = 1;

  [[nodiscard]] std::size_t size() const noexcept { return nx * ny * nz; }
  [[nodiscard]] bool is_2d() const noexcept { return nz == 1; }
  [[nodiscard]] std::size_t index(std::size_t ix, std::size_t iy,
                                  std::size_t iz) const noexcept {
    return (ix * ny + iy) * nz + iz;
  }
  bool operator==(const GridShape&) const = default;
};

/// One scalar variable on a grid.
class Field {
 public:
  Field(std::string name, GridShape shape)
      : name_(std::move(name)), shape_(shape), data_(shape.size(), 0.0) {}
  Field(std::string name, GridShape shape, std::vector<double> data)
      : name_(std::move(name)), shape_(shape), data_(std::move(data)) {
    SICKLE_CHECK_MSG(data_.size() == shape_.size(),
                     "field data does not match grid size");
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] const GridShape& shape() const noexcept { return shape_; }
  [[nodiscard]] std::span<const double> data() const noexcept { return data_; }
  [[nodiscard]] std::span<double> data() noexcept { return data_; }

  [[nodiscard]] double at(std::size_t ix, std::size_t iy,
                          std::size_t iz = 0) const noexcept {
    return data_[shape_.index(ix, iy, iz)];
  }
  double& at(std::size_t ix, std::size_t iy, std::size_t iz = 0) noexcept {
    return data_[shape_.index(ix, iy, iz)];
  }

 private:
  std::string name_;
  GridShape shape_;
  std::vector<double> data_;
};

/// One time instance holding multiple named variables on a shared grid.
class Snapshot {
 public:
  Snapshot(GridShape shape, double time = 0.0) : shape_(shape), time_(time) {}

  [[nodiscard]] const GridShape& shape() const noexcept { return shape_; }
  [[nodiscard]] double time() const noexcept { return time_; }

  /// Add a variable; name must be unique within the snapshot. The
  /// returned reference stays valid across later add() calls (fields live
  /// in a deque, so growth never relocates them) — generators rely on
  /// holding several field references while filling them point by point.
  Field& add(std::string name);
  Field& add(std::string name, std::vector<double> data);

  [[nodiscard]] bool has(const std::string& name) const noexcept;
  [[nodiscard]] const Field& get(const std::string& name) const;
  [[nodiscard]] Field& get(const std::string& name);

  [[nodiscard]] std::size_t num_fields() const noexcept {
    return fields_.size();
  }
  [[nodiscard]] std::vector<std::string> names() const;

  /// In-memory footprint of the payload, in bytes (for Table 1 / storage
  /// accounting).
  [[nodiscard]] std::size_t bytes() const noexcept {
    return num_fields() * shape_.size() * sizeof(double);
  }

 private:
  GridShape shape_;
  double time_;
  // Deque, not vector: add() hands out long-lived Field references, and
  // deque growth never relocates existing elements. With a vector, the
  // second add() invalidated every earlier reference — an ASan-visible
  // use-after-free that only worked at -O2 because the optimizer hoisted
  // the data pointer past the invalidation.
  std::deque<Field> fields_;
  std::map<std::string, std::size_t> index_;
};

/// A labeled time series of snapshots (one of the paper's Table 1 rows).
class Dataset {
 public:
  explicit Dataset(std::string label) : label_(std::move(label)) {}

  void push(Snapshot snapshot);

  [[nodiscard]] const std::string& label() const noexcept { return label_; }
  [[nodiscard]] std::size_t num_snapshots() const noexcept {
    return snapshots_.size();
  }
  [[nodiscard]] const Snapshot& snapshot(std::size_t t) const {
    SICKLE_CHECK(t < snapshots_.size());
    return snapshots_[t];
  }
  [[nodiscard]] Snapshot& snapshot(std::size_t t) {
    SICKLE_CHECK(t < snapshots_.size());
    return snapshots_[t];
  }
  [[nodiscard]] const GridShape& shape() const {
    SICKLE_CHECK_MSG(!snapshots_.empty(), "dataset has no snapshots");
    return snapshots_.front().shape();
  }
  [[nodiscard]] std::size_t bytes() const noexcept;

 private:
  std::string label_;
  std::vector<Snapshot> snapshots_;
};

}  // namespace sickle::field
