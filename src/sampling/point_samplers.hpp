/// @file point_samplers.hpp
/// @brief Phase-2 point samplers (the paper's X* methods) and their
/// registry.
///
/// Each sampler selects a subset of points inside one hypercube. The
/// framework is pluggable (contribution C1): samplers register by name in a
/// process-wide registry, and the pipeline instantiates them from config
/// strings ("random", "uips", "maxent", ...).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "energy/energy.hpp"
#include "field/hypercube.hpp"

namespace sickle::sampling {

/// Shared knobs for point selection.
struct SamplerContext {
  /// Variables forming the phase space (the paper's input_vars); must be a
  /// subset of the cube's variables.
  std::vector<std::string> phase_variables;
  /// Variable MaxEnt clusters on (the paper's cluster_var / KCV column).
  std::string cluster_var;
  std::size_t num_samples = 1024;   ///< points to keep per cube
  std::size_t num_clusters = 20;    ///< MaxEnt k
  std::size_t pdf_bins = 10;        ///< UIPS bins per phase-space axis
  energy::EnergyCounter* energy = nullptr;  ///< optional work tally
};

/// Interface: select local point indices (0..cube.points()-1).
class PointSampler {
 public:
  virtual ~PointSampler() = default;
  [[nodiscard]] virtual std::string name() const = 0;
  [[nodiscard]] virtual std::vector<std::size_t> select(
      const field::Hypercube& cube, const SamplerContext& ctx,
      Rng& rng) const = 0;
};

/// Uniform random sampling without replacement (the paper's baseline).
class RandomSampler final : public PointSampler {
 public:
  [[nodiscard]] std::string name() const override { return "random"; }
  [[nodiscard]] std::vector<std::size_t> select(const field::Hypercube& cube,
                                                const SamplerContext& ctx,
                                                Rng& rng) const override;
};

/// Keep every point ("full" — the densest feasible baseline).
class FullSampler final : public PointSampler {
 public:
  [[nodiscard]] std::string name() const override { return "full"; }
  [[nodiscard]] std::vector<std::size_t> select(const field::Hypercube& cube,
                                                const SamplerContext& ctx,
                                                Rng& rng) const override;
};

/// Stratified sampling: equal-width bins of cluster_var as strata,
/// proportional allocation. This is also the MaxEnt ablation with entropy
/// weighting disabled.
class StratifiedSampler final : public PointSampler {
 public:
  [[nodiscard]] std::string name() const override { return "stratified"; }
  [[nodiscard]] std::vector<std::size_t> select(const field::Hypercube& cube,
                                                const SamplerContext& ctx,
                                                Rng& rng) const override;
};

/// Latin hypercube sampling over the cube's spatial lattice: each of the k
/// strata along every axis contains exactly one selected slab coordinate.
class LatinHypercubeSampler final : public PointSampler {
 public:
  [[nodiscard]] std::string name() const override { return "lhs"; }
  [[nodiscard]] std::vector<std::size_t> select(const field::Hypercube& cube,
                                                const SamplerContext& ctx,
                                                Rng& rng) const override;
};

/// Uniform-in-phase-space (UIPS, Hassanaly et al. 2023): estimate the
/// phase-space density with a binned PDF and draw points with probability
/// proportional to 1/density, flattening the sampled distribution.
class UipsSampler final : public PointSampler {
 public:
  [[nodiscard]] std::string name() const override { return "uips"; }
  [[nodiscard]] std::vector<std::size_t> select(const field::Hypercube& cube,
                                                const SamplerContext& ctx,
                                                Rng& rng) const override;
};

/// MaxEnt point selection (the paper's Xmaxent): cluster on cluster_var,
/// build per-cluster PMFs, KL adjacency (Eq. 2), node strengths, then
/// allocate samples across clusters proportionally to strength.
class MaxEntSampler final : public PointSampler {
 public:
  [[nodiscard]] std::string name() const override { return "maxent"; }
  [[nodiscard]] std::vector<std::size_t> select(const field::Hypercube& cube,
                                                const SamplerContext& ctx,
                                                Rng& rng) const override;
};

/// Registry (pluggable architecture). Built-ins are pre-registered; user
/// samplers can be added at runtime.
class SamplerRegistry {
 public:
  using Factory = std::function<std::unique_ptr<PointSampler>()>;

  static SamplerRegistry& instance();

  void register_sampler(const std::string& name, Factory factory);
  [[nodiscard]] std::unique_ptr<PointSampler> create(
      const std::string& name) const;
  [[nodiscard]] std::vector<std::string> names() const;

 private:
  SamplerRegistry();
  std::map<std::string, Factory> factories_;
};

/// Weighted sampling without replacement (Efraimidis–Spirakis exponential
/// keys): returns k indices drawn from weights > 0 without replacement.
/// Shared by UIPS and the hypercube selector; exposed for tests.
[[nodiscard]] std::vector<std::size_t> weighted_sample_without_replacement(
    std::span<const double> weights, std::size_t k, Rng& rng);

}  // namespace sickle::sampling
