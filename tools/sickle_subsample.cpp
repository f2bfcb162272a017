// sickle_subsample — the paper's `subsample.py case.yaml` (task T1).
//
//   sickle_subsample case.yaml [--ranks N] [--output samples.skl]
//
// N is a decimal integer from 1 to 512. Any other N, an unknown option or
// a missing value prints the usage and exits 2.
//
// Loads and checks the case config, generates the configured dataset's
// first snapshot, runs the two-phase sampling pipeline on it (optionally
// SPMD over N simulated ranks), writes the sparse subset, and prints the
// energy lines the paper's post-processing greps for ("CPU Energy",
// "Elapsed Time").
#include <charconv>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "io/snapshot_io.hpp"
#include "parallel/world.hpp"
#include "sampling/pipeline.hpp"
#include "sickle/config_driver.hpp"
#include "sickle/dataset_zoo.hpp"

namespace {

/// Each simulated rank is a thread; bench_fig7_scalability simulates at
/// most this many.
constexpr std::size_t kMaxRanks = 512;

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s case.yaml [--ranks N] [--output samples.skl]\n"
               "  N: a decimal integer from 1 to %zu\n",
               argv0, kMaxRanks);
  return 2;
}

/// A --ranks value: a decimal integer from 1 to kMaxRanks, nothing else.
std::optional<std::size_t> parse_ranks(const char* text) {
  const char* end = text + std::strlen(text);
  std::size_t value = 0;
  const auto [ptr, ec] = std::from_chars(text, end, value);
  if (ec != std::errc() || ptr != end || value < 1 || value > kMaxRanks) {
    return std::nullopt;
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace sickle;
  if (argc < 2) return usage(argv[0]);
  std::size_t ranks = 1;
  std::string output = "samples.skl";
  // Checked before any config is loaded or any rank thread starts.
  for (int i = 2; i < argc; ++i) {
    const bool has_value = i + 1 < argc;
    if (has_value && std::strcmp(argv[i], "--ranks") == 0) {
      const auto parsed = parse_ranks(argv[++i]);
      if (!parsed) return usage(argv[0]);
      ranks = *parsed;
    } else if (has_value && std::strcmp(argv[i], "--output") == 0) {
      output = argv[++i];
    } else {
      return usage(argv[0]);
    }
  }

  try {
    const Config cfg = Config::load(argv[1]);
    const std::string label = dataset_label_from_config(cfg);
    std::printf("dataset: %s\n", label.c_str());
    const obs::ObsOptions oo = obs_options_from_config(cfg);
    obs::apply(oo);
    // Parsed first, so a typo fails before any snapshot is generated.
    auto pl = pipeline_from_config(cfg);
    ProducerBundle bundle = make_dataset_producer(
        label, static_cast<std::uint64_t>(cfg.get_int("shared", "seed", 42)),
        dataset_scale_from_config(cfg));
    if (pl.input_vars.empty()) pl.input_vars = bundle.input_vars;
    if (pl.output_vars.empty()) pl.output_vars = bundle.output_vars;
    if (pl.cluster_var.empty()) pl.cluster_var = bundle.cluster_var;
    // Only snapshot 0 is sampled, so only snapshot 0 is generated.
    const field::Snapshot snapshot = *bundle.producer->next();

    sampling::PipelineResult result;
    if (ranks <= 1) {
      result = run_pipeline(snapshot, pl);
    } else {
      World world(ranks);
      world.run([&](Comm& comm) {
        auto local = run_pipeline(snapshot, pl, comm);
        if (comm.is_root()) result = std::move(local);
      });
    }

    const auto merged = result.merged();
    io::SampleFile file;
    file.variables = merged.variables;
    file.indices.assign(merged.indices.begin(), merged.indices.end());
    file.features = merged.features;
    const std::size_t bytes = io::save_samples(file, output);

    std::printf("sampled %zu points from %zu cubes -> %s (%zu bytes)\n",
                merged.points(), result.cubes.size(), output.c_str(),
                bytes);
    std::printf("Elapsed Time: %.3f s\n", result.sampling_seconds);
    std::printf("CPU Energy: %.6f kJ\n",
                result.energy.projected_kilojoules());
    std::printf("%s\n", result.energy.report().c_str());
    if (oo.enabled) {
      const std::string table = obs::summary_table();
      if (!table.empty()) {
        std::printf("metrics summary:\n%s", table.c_str());
      }
      obs::finalize(oo);
      if (!oo.trace_path.empty()) {
        std::printf("trace written: %s\n", oo.trace_path.c_str());
      }
      if (!oo.metrics_path.empty()) {
        std::printf("metrics written: %s\n", oo.metrics_path.c_str());
      }
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
