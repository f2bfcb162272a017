#include "sickle/dataset_zoo.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"
#include "common/mathx.hpp"
#include "flow/combustion.hpp"
#include "flow/cylinder.hpp"
#include "flow/spectral_turbulence.hpp"
#include "sickle/errors.hpp"

namespace sickle {

namespace {

std::size_t scaled_pow2(std::size_t base, double scale) {
  return next_pow2(static_cast<std::size_t>(
      std::max(1.0, std::round(static_cast<double>(base) * scale))));
}

}  // namespace

std::vector<std::string> dataset_labels() {
  return {"TC2D", "OF2D", "SST-P1F4", "SST-P1F100", "GESTS-2048",
          "GESTS-8192"};
}

ProducerBundle make_dataset_producer(const std::string& label,
                                     std::uint64_t seed, double scale) {
  // Every extent below is derived from `scale`; NaN fails both tests.
  if (!(scale > 0.0 && scale <= kMaxDatasetScale)) {
    throw ConfigError(
        {{"shared.scale", "shared scale must be in (0, 8192]", ""}});
  }
  ProducerBundle b;
  if (label == "TC2D") {
    flow::CombustionParams p;
    p.seed = seed;
    // Floor at 1: a tiny positive scale must degrade to the smallest
    // grid, not a zero-extent one (SST/GESTS get this from scaled_pow2).
    p.nx = std::max<std::size_t>(
        1, static_cast<std::size_t>(632 * std::sqrt(scale)));
    p.ny = p.nx;
    b.producer = std::make_unique<flow::CombustionProducer>(p);
    b.name = "TC2D";
    b.input_vars = {"C", "Cvar"};
    b.output_vars = {};
    // std::string temporary dodges a GCC 12 -Wrestrict false positive on
    // single-char const char* assignment (PR105580).
    b.cluster_var = std::string("C");
    b.paper_size = "31MB (400k points, 1 step)";
  } else if (label == "OF2D") {
    flow::CylinderWakeParams p;
    p.seed = seed;
    b.producer = std::make_unique<flow::CylinderWakeProducer>(p);
    b.name = "OF2D";
    b.input_vars = {"u", "v"};
    b.output_vars = {"p"};
    b.cluster_var = "wz";  // the paper's Fig. 3 clusters OF2D on vorticity
    b.paper_size = "300MB (10800 points, 100 steps)";
  } else if (label == "SST-P1F4") {
    flow::StratifiedParams p;
    p.seed = seed;
    p.nx = scaled_pow2(64, scale);
    p.ny = scaled_pow2(64, scale);
    p.nz = scaled_pow2(32, scale);
    p.snapshots = 8;
    b.producer = std::make_unique<flow::StratifiedProducer>(p);
    b.name = "SST";
    b.input_vars = {"u", "v", "w", "rho"};
    b.output_vars = {"p"};
    b.cluster_var = "pv";
    b.paper_size = "376GB (512x512x256, 125 steps)";
  } else if (label == "SST-P1F100") {
    flow::StratifiedParams p;
    p.seed = seed + 1;
    // F100 is the strongly stratified, strongly forced ensemble member:
    // flatter (pancaked) and more intermittent than F4.
    p.nx = scaled_pow2(128, scale);
    p.ny = scaled_pow2(32, scale);
    p.nz = scaled_pow2(128, scale);
    p.anisotropy = 8.0;
    p.vertical_damping = 0.2;
    p.intermittency = 0.9;
    p.snapshots = 4;
    b.producer = std::make_unique<flow::StratifiedProducer>(p);
    b.name = "SST-P1F100";
    b.input_vars = {"rho"};
    b.output_vars = {"eps"};
    b.cluster_var = "rho";
    b.paper_size = "5TB (4096x1024x4096, 10 steps)";
  } else if (label == "GESTS-2048") {
    flow::IsotropicParams p;
    p.seed = seed;
    p.n = scaled_pow2(64, scale);
    b.producer = std::make_unique<flow::IsotropicProducer>(p);
    b.name = "GESTS";
    b.input_vars = {"u", "v", "w", "eps"};
    b.output_vars = {"p"};
    b.cluster_var = "enstrophy";
    b.paper_size = "188GB (2048^3, 1 step)";
  } else if (label == "GESTS-8192") {
    flow::IsotropicParams p;
    p.seed = seed + 2;
    p.n = scaled_pow2(128, scale);  // the "large" isotropic case
    b.producer = std::make_unique<flow::IsotropicProducer>(p);
    b.name = "GESTS";
    b.input_vars = {"u", "v", "w", "eps"};
    b.output_vars = {"p"};
    b.cluster_var = "enstrophy";
    b.paper_size = "12TB (8192^3, 1 step)";
  } else {
    throw RuntimeError("unknown dataset label: " + label);
  }
  return b;
}

DatasetBundle materialize_bundle(ProducerBundle& bundle) {
  DatasetBundle b;
  b.data = flow::materialize(*bundle.producer, bundle.name);
  b.scalar_target = bundle.producer->scalar_target();
  bundle.producer.reset();  // drained, and single-use
  b.input_vars = bundle.input_vars;
  b.output_vars = bundle.output_vars;
  b.cluster_var = bundle.cluster_var;
  b.paper_size = bundle.paper_size;
  return b;
}

DatasetBundle make_dataset(const std::string& label, std::uint64_t seed,
                           double scale) {
  ProducerBundle pb = make_dataset_producer(label, seed, scale);
  return materialize_bundle(pb);
}

}  // namespace sickle
