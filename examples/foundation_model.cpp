// Foundation-model training on intelligently sampled turbulence
// (the Fig. 9 pipeline in example form).
//
// Runs the full SICKLE case: MaxEnt subsampling of a stratified DNS
// substitute, then training the multiscale adaptive (MATEY-like)
// foundation model to reconstruct the pressure field from the sampled
// inputs, with energy accounting throughout.
#include <cstdio>

#include "sickle/case.hpp"

int main() {
  using namespace sickle;

  std::printf("generating SST-P1F4 (scaled)...\n");
  const DatasetBundle bundle = make_dataset("SST-P1F4", /*seed=*/42);

  CaseConfig cfg;
  cfg.pipeline.cube = {8, 8, 8};
  cfg.pipeline.hypercube_method = "maxent";
  cfg.pipeline.point_method = "maxent";
  cfg.pipeline.num_hypercubes = 12;
  cfg.pipeline.num_samples = 51;  // 10% rate
  cfg.pipeline.num_clusters = 8;
  cfg.pipeline.seed = 21;
  cfg.arch = "Foundation";
  cfg.model_dim = 32;
  cfg.model_heads = 4;
  cfg.model_layers = 2;
  cfg.train.epochs = 25;
  cfg.train.batch = 8;
  cfg.train.lr = 1e-3;
  cfg.train.patience = 10;

  std::printf("running subsample -> train -> evaluate...\n");
  const CaseReport report = run_case(bundle, cfg);

  std::printf("\nresults:\n");
  std::printf("  sampled points:      %zu\n", report.sampled_points);
  std::printf("  sampling time:       %.3f s\n",
              report.metrics.at("case.ingest_seconds") +
                  report.metrics.at("case.selection_seconds") +
                  report.metrics.at("case.sampling_seconds"));
  std::printf("  model parameters:    %zu\n", report.train.parameters);
  std::printf("  final train loss:    %.5f\n",
              report.train.final_train_loss);
  std::printf("  Evaluation on test set: %.5f\n", report.train.test_loss);
  std::printf("  sampling energy:     %.4f kJ\n",
              report.sampling_kilojoules);
  std::printf("  training energy:     %.4f kJ\n",
              report.training_kilojoules);
  std::printf("  Total Energy Consumed: %.4f kJ\n",
              report.total_kilojoules());
  return 0;
}
