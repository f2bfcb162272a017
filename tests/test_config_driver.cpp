// Tests: YAML-subset case configuration -> pipeline/case configs.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "sickle/case.hpp"
#include "sickle/config_driver.hpp"
#include "sickle/dataset_zoo.hpp"

namespace sickle {
namespace {

const char* kCaseYaml = R"(
shared:
  dataset: SST-P1F4
  input_vars: [u, v, w, rho]
  output_vars: [p]
  cluster_var: pv
  seed: 7

subsample:
  hypercubes: maxent
  method: uips
  num_hypercubes: 12
  num_samples: 3277
  num_clusters: 20
  nxsl: 32
  nysl: 32
  nzsl: 32

train:
  epochs: 1000
  batch: 16
  arch: MLP_transformer
  window: 2
  precision: bf16
)";

TEST(ConfigDriver, DatasetLabel) {
  const auto cfg = Config::parse(kCaseYaml);
  EXPECT_EQ(dataset_label_from_config(cfg), "SST-P1F4");
}

TEST(ConfigDriver, PipelineMapping) {
  const auto cfg = Config::parse(kCaseYaml);
  const auto pl = pipeline_from_config(cfg);
  EXPECT_EQ(pl.cube.ex, 32u);
  EXPECT_EQ(pl.cube.ez, 32u);
  EXPECT_EQ(pl.hypercube_method, "maxent");
  EXPECT_EQ(pl.point_method, "uips");
  EXPECT_EQ(pl.num_hypercubes, 12u);
  EXPECT_EQ(pl.num_samples, 3277u);
  EXPECT_EQ(pl.num_clusters, 20u);
  EXPECT_EQ(pl.input_vars,
            (std::vector<std::string>{"u", "v", "w", "rho"}));
  EXPECT_EQ(pl.output_vars, (std::vector<std::string>{"p"}));
  EXPECT_EQ(pl.cluster_var, "pv");
  EXPECT_EQ(pl.seed, 7u);
}

TEST(ConfigDriver, CaseMapping) {
  const auto cfg = Config::parse(kCaseYaml);
  const auto cc = case_from_config(cfg);
  EXPECT_EQ(cc.arch, "MLP_Transformer");
  EXPECT_EQ(cc.window, 2u);
  EXPECT_EQ(cc.train.epochs, 1000u);
  EXPECT_EQ(cc.train.batch, 16u);
  EXPECT_EQ(cc.train.patience, 20u);  // the paper's default
  EXPECT_EQ(cc.train.precision, ml::Precision::kBf16);
}

TEST(ConfigDriver, DefaultsWhenSectionsSparse) {
  const auto cfg = Config::parse("shared:\n  dataset: GESTS-2048\n");
  const auto cc = case_from_config(cfg);
  EXPECT_EQ(cc.pipeline.cube.ex, 8u);
  EXPECT_EQ(cc.train.epochs, 1000u);
  EXPECT_EQ(cc.train.lr, 1e-3);
  EXPECT_TRUE(cc.pipeline.input_vars.empty());  // filled from the bundle
}

TEST(ConfigDriver, ThreadsKnob) {
  // Default: serial.
  EXPECT_EQ(pipeline_from_config(Config::parse("shared:\n  seed: 1\n"))
                .threads,
            1u);
  const auto cfg = Config::parse(R"(
subsample:
  threads: 4
)");
  EXPECT_EQ(pipeline_from_config(cfg).threads, 4u);
  // 0 = all hardware threads; negatives are config errors.
  EXPECT_EQ(pipeline_from_config(Config::parse(
                "subsample:\n  threads: 0\n"))
                .threads,
            0u);
  EXPECT_THROW(pipeline_from_config(Config::parse(
                   "subsample:\n  threads: -2\n")),
               RuntimeError);
}

TEST(ConfigDriver, ArchNormalization) {
  EXPECT_EQ(normalize_arch("lstm"), "LSTM");
  EXPECT_EQ(normalize_arch("LSTM"), "LSTM");
  EXPECT_EQ(normalize_arch("MLP_transformer"), "MLP_Transformer");
  EXPECT_EQ(normalize_arch("CNN_Transformer"), "CNN_Transformer");
  EXPECT_EQ(normalize_arch("matey"), "Foundation");
  EXPECT_THROW(normalize_arch("gpt4"), RuntimeError);
}

TEST(ConfigDriver, StoreMapping) {
  const auto cfg = Config::parse(R"(
shared:
  dataset: SST-P1F4
store:
  backend: skl2
  codec: quant
  tolerance: 1e-3
  chunk: 16
  chunk_z: 8
  cache_mb: 8
)");
  const auto cc = case_from_config(cfg);
  EXPECT_EQ(cc.backend, "skl2");
  EXPECT_EQ(cc.store.codec, "quant");
  EXPECT_DOUBLE_EQ(cc.store.tolerance, 1e-3);
  EXPECT_EQ(cc.store.chunk.nx, 16u);
  EXPECT_EQ(cc.store.chunk.ny, 16u);
  EXPECT_EQ(cc.store.chunk.nz, 8u);
  EXPECT_EQ(cc.store.cache_bytes, 8u << 20);
}

TEST(ConfigDriver, SeriesBackendTemporalAndSpillMapping) {
  const auto cfg = Config::parse(R"(
shared:
  dataset: SST-P1F4
store:
  backend: series
  codec: delta
  write_budget_mb: 4
  spill_dir: /scratch/spills
temporal:
  num_snapshots: 12
  variable: T
  bins: 64
)");
  const auto cc = case_from_config(cfg);
  EXPECT_EQ(cc.backend, "series");
  EXPECT_EQ(cc.store.write_budget_bytes, 4u << 20);
  EXPECT_EQ(cc.spill_dir, "/scratch/spills");
  EXPECT_TRUE(cc.temporal.enabled());
  EXPECT_EQ(cc.temporal.num_snapshots, 12u);
  EXPECT_EQ(cc.temporal.variable, "T");
  EXPECT_EQ(cc.temporal.bins, 64u);

  // Absent sections: temporal stage disabled, system temp spill.
  const auto defaults =
      case_from_config(Config::parse("shared:\n  dataset: OF2D\n"));
  EXPECT_FALSE(defaults.temporal.enabled());
  EXPECT_TRUE(defaults.spill_dir.empty());
  EXPECT_EQ(defaults.store.write_budget_bytes, 8u << 20);

  EXPECT_THROW(case_from_config(Config::parse(
                   "store:\n  write_budget_mb: 0\n")),
               RuntimeError);
  EXPECT_THROW(case_from_config(Config::parse(
                   "temporal:\n  bins: 0\n")),
               RuntimeError);
  EXPECT_THROW(case_from_config(Config::parse(
                   "temporal:\n  num_snapshots: -1\n")),
               RuntimeError);
}

TEST(ConfigDriver, StoreDefaultsAndErrors) {
  const auto defaults =
      case_from_config(Config::parse("shared:\n  dataset: OF2D\n"));
  EXPECT_EQ(defaults.backend, "memory");
  EXPECT_EQ(defaults.store.codec, "delta");
  EXPECT_EQ(defaults.store.chunk.nx, 32u);

  EXPECT_THROW(case_from_config(Config::parse(
                   "store:\n  backend: s3\n")),
               RuntimeError);
  EXPECT_THROW(case_from_config(Config::parse(
                   "store:\n  codec: lz77\n")),
               RuntimeError);
#ifndef SICKLE_HAS_ZSTD
  // A registered-but-not-compiled-in codec must fail at config time too.
  EXPECT_THROW(case_from_config(Config::parse(
                   "store:\n  codec: zstd\n")),
               RuntimeError);
#endif
  EXPECT_THROW(case_from_config(Config::parse(
                   "store:\n  chunk: 0\n")),
               RuntimeError);
  EXPECT_THROW(case_from_config(Config::parse(
                   "store:\n  cache_mb: -1\n")),
               RuntimeError);
}

TEST(ConfigDriver, IngestModeAndScaleMapping) {
  const auto cfg = Config::parse(R"(
shared:
  dataset: SST-P1F4
  scale: 0.5
store:
  backend: series
  ingest: Streaming
)");
  EXPECT_EQ(case_from_config(cfg).ingest, "streaming");
  EXPECT_DOUBLE_EQ(dataset_scale_from_config(cfg), 0.5);

  const auto defaults =
      case_from_config(Config::parse("shared:\n  dataset: OF2D\n"));
  EXPECT_EQ(defaults.ingest, "materialize");
  EXPECT_DOUBLE_EQ(
      dataset_scale_from_config(Config::parse("shared:\n  dataset: OF2D\n")),
      1.0);

  EXPECT_THROW(case_from_config(Config::parse(
                   "store:\n  ingest: teleport\n")),
               RuntimeError);
  // Past 8192 a grid extent passes 2^20: the point count wraps, or the
  // power-of-two rounding never ends. Each bad scale is one typed issue on
  // shared.scale, from the parser and from the zoo, before any producer
  // (which allocates its grid) is built.
  auto issue_field = [](auto&& call) -> std::string {
    try {
      call();
    } catch (const ConfigError& e) {
      return e.issues().size() == 1 ? e.issues()[0].field : e.what();
    }
    return "accepted";
  };
  for (const char* bad : {"0", "-2", "1e5", "2e17", "1e300", "inf", "nan"}) {
    const auto bad_cfg =
        Config::parse(std::string("shared:\n  scale: ") + bad + "\n");
    EXPECT_EQ(issue_field([&] { (void)dataset_scale_from_config(bad_cfg); }),
              "shared.scale")
        << bad;
    const double scale = bad_cfg.get_double("shared", "scale");
    EXPECT_EQ(issue_field([&] {
                (void)make_dataset_producer("SST-P1F100", 1, scale);
              }),
              "shared.scale")
        << bad;
  }
  EXPECT_DOUBLE_EQ(dataset_scale_from_config(Config::parse(
                       "shared:\n  scale: 8192\n")),
                   kMaxDatasetScale);
}

TEST(ConfigDriver, BadPrecisionThrows) {
  const auto cfg = Config::parse(
      "shared:\n  dataset: OF2D\ntrain:\n  precision: int3\n");
  EXPECT_THROW(case_from_config(cfg), RuntimeError);
}

TEST(ConfigDriver, EndToEndTinyCase) {
  // The shipped contrib config shape, shrunk: config -> case -> run.
  const auto cfg = Config::parse(R"(
shared:
  dataset: SST-P1F4
  seed: 3
subsample:
  hypercubes: random
  method: maxent
  num_hypercubes: 3
  num_samples: 51
  num_clusters: 5
  nxsl: 8
  nysl: 8
  nzsl: 8
train:
  epochs: 2
  batch: 4
  arch: MLP_transformer
  dim: 16
  heads: 2
)");
  const DatasetBundle bundle = make_dataset("SST-P1F4", 3, 0.5);
  const auto report = run_case(bundle, case_from_config(cfg));
  EXPECT_GT(report.sampled_points, 0u);
  EXPECT_TRUE(std::isfinite(report.train.test_loss));
}

TEST(ConfigDriver, ValidateIsEmptyForGoodConfig) {
  const auto cfg = Config::parse(kCaseYaml);
  EXPECT_TRUE(case_from_config(cfg).validate().empty());
}

TEST(ConfigDriver, ValidateCollectsEveryIssueAtOnce) {
  CaseConfig cc;
  cc.backend = "floppy";
  cc.ingest = "teleport";
  cc.arch = "Perceptron9000";
  cc.window = 0;
  cc.store.codec = "middle-out";
  cc.train.lr = 0.0;
  cc.train.test_fraction = 1.5;
  cc.pipeline.point_method = "maxnet";
  cc.pipeline.hypercube_method = "maxnet";
  // Cubes no model trains on: an edge of 6 does not decode (nxsl), and
  // nysl 16 is anisotropic.
  cc.pipeline.cube = {6, 16, 6};
  const auto issues = cc.validate();
  EXPECT_GE(issues.size(), 11u);
  std::vector<std::string> fields;
  for (const auto& issue : issues) {
    fields.push_back(issue.field);
    EXPECT_FALSE(issue.message.empty()) << issue.field;
  }
  for (const char* field :
       {"store.backend", "store.ingest", "train.arch", "train.window",
        "store.codec", "train.lr", "train.test_frac", "subsample.method",
        "subsample.hypercubes", "subsample.nxsl", "subsample.nysl"}) {
    EXPECT_NE(std::find(fields.begin(), fields.end(), field), fields.end())
        << field;
  }

  // Every cube model checks its own edge rule: Foundation splits the cube
  // into patches of edge max(2, E/4), so 6 is fine there and 13 is not.
  CaseConfig foundation;
  foundation.arch = "Foundation";
  foundation.pipeline.cube = {6, 6, 6};
  EXPECT_TRUE(foundation.validate().empty());
  foundation.pipeline.cube = {13, 13, 13};
  ASSERT_EQ(foundation.validate().size(), 1u);
  EXPECT_EQ(foundation.validate()[0].field, "subsample.nxsl");

  // LSTM fits sensor windows, not cubes (sickle_train's drag path), so its
  // cube edges are never checked.
  CaseConfig drag;
  drag.arch = "LSTM";
  drag.pipeline.cube = {6, 16, 6};
  EXPECT_TRUE(drag.validate().empty());
}

TEST(ConfigDriver, ValidateRejectsHeadsThatDoNotDivideDim) {
  // Attention splits the model dim across its heads, so a dim of 30 with
  // 4 heads is rejected before any snapshot is generated; LSTM has no
  // attention and keeps accepting it.
  for (const char* arch : {"MLP_Transformer", "CNN_Transformer",
                           "Foundation", "LSTM"}) {
    CaseConfig cc;
    cc.arch = arch;
    cc.pipeline.cube = {8, 8, 8};
    cc.model_dim = 30;
    cc.model_heads = 4;
    const auto issues = cc.validate();
    if (cc.arch == "LSTM") {
      EXPECT_TRUE(issues.empty()) << arch;
      continue;
    }
    ASSERT_EQ(issues.size(), 1u) << arch;
    EXPECT_EQ(issues[0].field, "train.heads") << arch;
    EXPECT_NE(issues[0].message.find("30"), std::string::npos)
        << issues[0].message;
    EXPECT_NE(issues[0].message.find("4 heads"), std::string::npos)
        << issues[0].message;
    cc.model_heads = 5;
    EXPECT_TRUE(cc.validate().empty()) << arch;
  }

  // The parser merges the issue into its one ConfigError.
  const auto cfg = Config::parse(R"(
shared:
  dataset: SST-P1F4
  input_vars: [u, v, w, rho]
  output_vars: [p]
  cluster_var: pv
subsample:
  nxsl: 8
  nysl: 8
  nzsl: 8
train:
  arch: CNN_transformer
  dim: 30
  heads: 4
)");
  try {
    (void)case_from_config(cfg);
    FAIL() << "dim 30 with 4 heads was accepted";
  } catch (const ConfigError& e) {
    ASSERT_EQ(e.issues().size(), 1u) << e.what();
    EXPECT_EQ(e.issues()[0].field, "train.heads");
  }
}

TEST(ConfigDriver, PipelineFromConfigRejectsUnknownMethods) {
  // sickle_subsample parses with pipeline_from_config before it generates
  // anything, so a method typo must fail there, under the field names
  // validate() uses.
  const auto cfg = Config::parse(R"(
subsample:
  hypercubes: maxnet
  method: maxnet
)");
  try {
    (void)pipeline_from_config(cfg);
    FAIL() << "pipeline_from_config accepted unknown sampling methods";
  } catch (const ConfigError& e) {
    std::vector<std::string> fields;
    for (const auto& issue : e.issues()) fields.push_back(issue.field);
    EXPECT_EQ(fields, (std::vector<std::string>{"subsample.hypercubes",
                                                "subsample.method"}));
  }
}

TEST(ConfigDriver, CaseFromConfigReportsFullIssueList) {
  // One parse, one throw, EVERY problem named: bad sampling methods + bad
  // arch + bad codec + bad precision all surface in a single ConfigError
  // instead of fix-one-rerun-find-the-next.
  const auto cfg = Config::parse(R"(
shared:
  dataset: SST-P1F4
subsample:
  hypercubes: maxnet
  method: maxnet
store:
  backend: series
  codec: middle-out
train:
  arch: Perceptron9000
  precision: int3
)");
  try {
    (void)case_from_config(cfg);
    FAIL() << "case_from_config accepted an invalid config";
  } catch (const ConfigError& e) {
    std::vector<std::string> fields;
    for (const auto& issue : e.issues()) fields.push_back(issue.field);
    for (const char* field : {"store.codec", "train.arch", "train.precision",
                              "subsample.method", "subsample.hypercubes"}) {
      EXPECT_NE(std::find(fields.begin(), fields.end(), field), fields.end())
          << field << " missing from: " << e.what();
    }
    // The aggregate message carries each field for log greppability.
    EXPECT_NE(std::string(e.what()).find("store.codec"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("train.arch"), std::string::npos);
  }
}

TEST(ConfigDriver, NegativeSizesAreConfigIssues) {
  // A negative size must not wrap to ~2^64 on its way to size_t: every
  // bad size is named in the one ConfigError, at parse time.
  const auto cfg = Config::parse(R"(
shared:
  dataset: SST-P1F4
subsample:
  num_hypercubes: -3
  num_samples: -1
  num_clusters: 0
  pdf_bins: -2
train:
  patience: -1
)");
  const auto fields_of = [](const ConfigError& e) {
    std::vector<std::string> fields;
    for (const auto& issue : e.issues()) fields.push_back(issue.field);
    return fields;
  };
  const std::vector<std::string> sizes{
      "subsample.num_hypercubes", "subsample.num_samples",
      "subsample.num_clusters", "subsample.pdf_bins"};
  try {
    (void)case_from_config(cfg);
    FAIL() << "case_from_config accepted negative sizes";
  } catch (const ConfigError& e) {
    const auto fields = fields_of(e);
    for (const auto& field : sizes) {
      EXPECT_NE(std::find(fields.begin(), fields.end(), field), fields.end())
          << field << " missing from: " << e.what();
    }
    EXPECT_NE(std::find(fields.begin(), fields.end(), "train.patience"),
              fields.end())
        << e.what();
  }
  // The pipeline-only entry point names the same four sizes at once.
  try {
    (void)pipeline_from_config(cfg);
    FAIL() << "pipeline_from_config accepted negative sizes";
  } catch (const ConfigError& e) {
    EXPECT_EQ(fields_of(e), sizes);
  }
  // Zero patience stays valid.
  EXPECT_EQ(case_from_config(Config::parse("train:\n  patience: 0\n"))
                .train.patience,
            0u);
}

TEST(ConfigDriver, InferenceSizesMustBePositive) {
  // probes and min_hidden become size_t: a non-positive value is named in
  // one ConfigError instead of wrapping to ~2^64.
  try {
    (void)inference_from_config(
        Config::parse("inference:\n  probes: 0\n  min_hidden: -2\n"));
    FAIL() << "inference_from_config accepted non-positive sizes";
  } catch (const ConfigError& e) {
    std::vector<std::string> fields;
    for (const auto& issue : e.issues()) fields.push_back(issue.field);
    EXPECT_EQ(fields, (std::vector<std::string>{"inference.probes",
                                                "inference.min_hidden"}));
  }
  const auto io = inference_from_config(
      Config::parse("inference:\n  probes: 1\n  min_hidden: 1\n"));
  EXPECT_TRUE(io.enabled);
  EXPECT_EQ(io.probes, 1u);
  EXPECT_EQ(io.min_hidden, 1u);
}

TEST(ConfigDriver, ConfigErrorIsARuntimeError) {
  const auto cfg = Config::parse("shared:\n  dataset: OF2D\n  scale: -1\n");
  EXPECT_THROW((void)dataset_scale_from_config(cfg), ConfigError);
  EXPECT_THROW((void)dataset_scale_from_config(cfg), RuntimeError);
}

}  // namespace
}  // namespace sickle
