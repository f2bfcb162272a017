// Micro-kernel benchmarks (google-benchmark): the hot paths every
// experiment runs through — FFT, k-means, histograms, samplers, cube
// scoring, codecs, matmul. Besides the console table, a run writes
// BENCH_kernels.json (ns/op, throughput, thread count, git sha); compare
// against the committed baseline in bench/baselines/ (docs/PERF.md).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <regex>
#include <string>
#include <thread>
#include <utility>

#include "bench_util.hpp"
#include "cluster/kmeans.hpp"
#include "common/rng.hpp"
#include "common/timer.hpp"
#include "fft/fft.hpp"
#include "field/field_source.hpp"
#include "flow/spectral_turbulence.hpp"
#include "ml/attention.hpp"
#include "ml/conv3d.hpp"
#include "ml/tensor.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/thread_pool.hpp"
#include "sampling/cube_scoring.hpp"
#include "sampling/pipeline.hpp"
#include "sampling/point_samplers.hpp"
#include "sampling/temporal.hpp"
#include "stats/entropy.hpp"
#include "stats/histogram.hpp"
#include "store/chunk_layout.hpp"
#include "store/codec.hpp"
#include "store/series_store.hpp"
#include "store/snapshot_store.hpp"

namespace {

using namespace sickle;

// The FFT rows alternate forward and inverse transforms so the buffer
// stays finite. Forward transforms alone grow it by up to n per call: a
// 32^3 buffer overflowed to inf/NaN after 137 of them, and the rest of a
// run then timed non-finite arithmetic (std::complex's multiply falls
// back to a libgcc call on NaN results).
void BM_Fft1D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(1);
  std::vector<fft::cplx> data(n);
  for (auto& x : data) x = fft::cplx(rng.normal(), 0.0);
  bool inverse = false;
  for (auto _ : state) {
    fft::transform(std::span<fft::cplx>(data), inverse);
    inverse = !inverse;
    benchmark::DoNotOptimize(data.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_Fft1D)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 18);

void BM_Fft3D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(2);
  std::vector<fft::cplx> data(n * n * n);
  for (auto& x : data) x = fft::cplx(rng.normal(), 0.0);
  bool inverse = false;
  for (auto _ : state) {
    fft::transform_3d(std::span<fft::cplx>(data), n, n, n, inverse);
    inverse = !inverse;
    benchmark::DoNotOptimize(data.data());
  }
}
BENCHMARK(BM_Fft3D)->Arg(16)->Arg(32);

void BM_MiniBatchKMeans(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.normal();
  cluster::KMeansOptions opts;
  opts.k = 20;
  opts.max_iterations = 20;
  for (auto _ : state) {
    Rng r(4);
    auto result = cluster::minibatch_kmeans(data, opts, r);
    benchmark::DoNotOptimize(result.inertia);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_MiniBatchKMeans)->Arg(1 << 12)->Arg(1 << 15);

// The samplers' fit (50 iterations of 1,024 draws) at the ledger's (n, k):
// a served cube (512, 3), a curate-series cube (512, 8) and the phase-1
// subsample (65,536, 8). Items are draws.
void BM_MiniBatchKMeans1D(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(3);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.normal();
  cluster::KMeansOptions opts;
  opts.k = static_cast<std::size_t>(state.range(1));
  opts.max_iterations = 50;
  opts.batch_size = 1024;
  for (auto _ : state) {
    Rng r(4);
    auto result = cluster::minibatch_kmeans(data, opts, r);
    benchmark::DoNotOptimize(result.centroids.data());
    benchmark::DoNotOptimize(result.labels.data());
    benchmark::DoNotOptimize(result.inertia);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(opts.max_iterations *
                                               std::min(opts.batch_size, n)));
}
BENCHMARK(BM_MiniBatchKMeans1D)
    ->Args({512, 3})
    ->Args({512, 8})
    ->Args({65536, 8});

void BM_Histogram(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(5);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.normal();
  for (auto _ : state) {
    auto h = stats::Histogram::fit(data, 100);
    benchmark::DoNotOptimize(h.total());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_Histogram)->Arg(1 << 14)->Arg(1 << 18);

field::Hypercube bench_cube(std::size_t n) {
  field::Hypercube cube;
  cube.variables = {"a", "b", "cv"};
  cube.values.resize(3);
  Rng rng(6);
  for (std::size_t i = 0; i < n; ++i) {
    cube.indices.push_back(i);
    cube.values[0].push_back(rng.normal());
    cube.values[1].push_back(rng.normal());
    cube.values[2].push_back(rng.normal());
  }
  return cube;
}

template <typename SamplerT>
void BM_Sampler(benchmark::State& state) {
  const auto cube = bench_cube(32 * 32 * 32);
  sampling::SamplerContext ctx;
  ctx.phase_variables = {"a", "b"};
  ctx.cluster_var = "cv";
  ctx.num_samples = 3277;  // the paper's 10% of 32^3
  ctx.num_clusters = 20;
  SamplerT sampler;
  std::uint64_t seed = 0;
  for (auto _ : state) {
    Rng rng(++seed);
    auto sel = sampler.select(cube, ctx, rng);
    benchmark::DoNotOptimize(sel.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          cube.points());
}
BENCHMARK_TEMPLATE(BM_Sampler, sampling::RandomSampler);
BENCHMARK_TEMPLATE(BM_Sampler, sampling::StratifiedSampler);
BENCHMARK_TEMPLATE(BM_Sampler, sampling::UipsSampler);
BENCHMARK_TEMPLATE(BM_Sampler, sampling::MaxEntSampler);

// ------------------------------------------------------------ cube scoring
//
// The selector hot path the fused scoring engine serves: 64^3 grid, 8^3
// cube tiling (512 cubes), k = 8 clusters. "Fused" is the shipping path:
// assign_batch -> integer counts -> blocked strengths from precomputed
// log rows, run serial so the record isolates the kernel itself. Its
// acceptance number against the pre-engine path is recorded in PERF.md.

struct CubeScoringFixture {
  field::Snapshot snap{{64, 64, 64}, 0.0};
  field::CubeTiling tiling{{64, 64, 64}, {8, 8, 8}};
  cluster::KMeansResult clusters;

  CubeScoringFixture() {
    auto& f = snap.add("cv");
    Rng rng(8);
    std::size_t i = 0;
    for (auto& x : f.data()) {
      x = std::sin(0.003 * static_cast<double>(i++)) + 0.25 * rng.normal();
    }
    cluster::KMeansOptions opts;
    opts.k = 8;
    opts.max_iterations = 20;
    Rng fit_rng(9);
    clusters = cluster::minibatch_kmeans(std::span<const double>(f.data()),
                                         opts, fit_rng);
  }

  static const CubeScoringFixture& instance() {
    static CubeScoringFixture fx;
    return fx;
  }
};

void BM_CubeScoringFused(benchmark::State& state) {
  const auto& fx = CubeScoringFixture::instance();
  const field::SnapshotSource src(fx.snap);
  for (auto _ : state) {
    const auto counts = sampling::count_cube_labels(src, fx.tiling,
                                                    fx.clusters, "cv");
    const auto pmfs = sampling::pmfs_from_counts(
        std::span<const std::uint32_t>(counts), fx.clusters.k,
        fx.tiling.spec().points());
    auto strengths = sampling::kl_node_strengths(
        std::span<const double>(pmfs), fx.tiling.count(), fx.clusters.k);
    benchmark::DoNotOptimize(strengths.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          fx.snap.shape().size());
}
BENCHMARK(BM_CubeScoringFused);

// ------------------------------------------------------------ KL strengths
//
// The Eq. 2 node-strength reduction in isolation, on synthetic [n x k]
// PMF matrices: "Row" is the blockwise O(n·k)-per-row kernel over
// precomputed logs (O(n²·k) for all rows); "Algebraic" is the
// column-log-sum identity Σ_j KL(p_i||p_j) = Σ_b p_i[b]·(n·log p_i[b] −
// S[b]), O(n·k) total. Equivalence is test-asserted in test_stats; the
// records here pin the asymptotic win (and make a regression back to the
// quadratic form impossible to miss). The 100k-cube arg runs only the
// algebraic form — the row kernel would take minutes there, which is the
// point.

std::vector<double> bench_pmfs(std::size_t n, std::size_t k) {
  Rng rng(12);
  std::vector<double> pmfs(n * k);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = 0.0;
    for (std::size_t b = 0; b < k; ++b) {
      const double v = rng.uniform();
      pmfs[i * k + b] = v;
      sum += v;
    }
    for (std::size_t b = 0; b < k; ++b) pmfs[i * k + b] /= sum;
  }
  return pmfs;
}

void BM_KlStrengthsRow(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 8;
  const auto pmfs = bench_pmfs(n, k);
  const auto logs = stats::log_pmf_rows(pmfs, n, k);
  std::vector<double> strengths(n);
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      strengths[i] = stats::kl_row_strength(pmfs, logs, n, k, i);
    }
    benchmark::DoNotOptimize(strengths.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * k));
}
BENCHMARK(BM_KlStrengthsRow)->Arg(512)->Arg(4096);

void BM_KlStrengthsAlgebraic(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const std::size_t k = 8;
  const auto pmfs = bench_pmfs(n, k);
  const auto logs = stats::log_pmf_rows(pmfs, n, k);
  std::vector<double> strengths(n);
  for (auto _ : state) {
    const auto col_sums = stats::log_col_sums(logs, n, k);
    for (std::size_t i = 0; i < n; ++i) {
      strengths[i] =
          stats::kl_row_strength_fast(pmfs, logs, col_sums, n, k, i);
    }
    benchmark::DoNotOptimize(strengths.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * n * k));
}
BENCHMARK(BM_KlStrengthsAlgebraic)->Arg(512)->Arg(4096)->Arg(100000);

// ------------------------------------------------------------ SIMD kernels
//
// The histogram's `#pragma omp simd` loop, paired with a scalar reference
// row so the committed BENCH_kernels.json records what vectorization buys
// on the runner's ISA. The shipping path is the library call; the
// ScalarRef twin re-states the same arithmetic as a plain serial loop.
// BM_AssignBatch1D times the selector's 1-D labeling, a per-point scan.

void BM_HistogramAccumulate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.normal();
  const auto ref = stats::Histogram::fit(data, 100);
  for (auto _ : state) {
    stats::Histogram h(ref.lo(), ref.hi(), 100);
    h.add(std::span<const double>(data));
    benchmark::DoNotOptimize(h.total());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_HistogramAccumulate)->Arg(1 << 16);

void BM_HistogramAccumulateScalarRef(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(10);
  std::vector<double> data(n);
  for (auto& x : data) x = rng.normal();
  const auto ref = stats::Histogram::fit(data, 100);
  for (auto _ : state) {
    std::vector<std::uint64_t> counts(100, 0);
    for (const double x : data) ++counts[ref.bin_of(x)];
    benchmark::DoNotOptimize(counts.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n * sizeof(double)));
}
BENCHMARK(BM_HistogramAccumulateScalarRef)->Arg(1 << 16);

void BM_AssignBatch1D(benchmark::State& state) {
  const auto& fx = CubeScoringFixture::instance();
  const auto& values = fx.snap.get("cv").data();
  std::vector<std::uint32_t> labels(values.size());
  for (auto _ : state) {
    fx.clusters.assign_batch(std::span<const double>(values),
                             std::span<std::uint32_t>(labels));
    benchmark::DoNotOptimize(labels.data());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size()));
}
BENCHMARK(BM_AssignBatch1D);

std::vector<double> codec_bench_values(std::size_t n) {
  // f32-native smooth data: the case gorilla's window logic targets.
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = 300.0 + std::sin(0.01 * static_cast<double>(i));
    v[i] = static_cast<double>(static_cast<float>(x));
  }
  return v;
}

/// Full-precision turbulence, the data the store-backed cases spill: one
/// 32^3 velocity field (2^15 values), where gorilla's XOR windows are
/// wide and the stream slightly expands.
const std::vector<double>& full_double_values() {
  static const std::vector<double> values = [] {
    flow::SpectralTurbulenceParams p;
    p.nx = p.ny = p.nz = 32;
    p.seed = 3;
    flow::SpectralTurbulenceProducer producer(p);
    const auto ds = flow::materialize(producer, "spectral");
    const auto u = ds.snapshot(0).get("u").data();
    return std::vector<double>(u.begin(), u.end());
  }();
  return values;
}

constexpr char kF32Native[] = "f32_native";
constexpr char kFullDouble[] = "full_double";

template <const char* Data>
std::vector<double> codec_input() {
  return Data == kFullDouble ? full_double_values()
                             : codec_bench_values(1 << 15);
}

template <const char* Name, const char* Data = kF32Native>
void BM_CodecEncode(benchmark::State& state) {
  const auto codec = store::make_codec(Name);
  const auto values = codec_input<Data>();
  for (auto _ : state) {
    auto block = codec->encode(values);
    benchmark::DoNotOptimize(block.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size() *
                                               sizeof(double)));
}

template <const char* Name, const char* Data = kF32Native>
void BM_CodecDecode(benchmark::State& state) {
  const auto codec = store::make_codec(Name);
  const auto values = codec_input<Data>();
  const auto block = codec->encode(values);
  for (auto _ : state) {
    auto out = codec->decode(block, values.size());
    benchmark::DoNotOptimize(out.data());
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(values.size() *
                                               sizeof(double)));
}

constexpr char kDelta[] = "delta";
constexpr char kGorilla[] = "gorilla";
constexpr char kQuant[] = "quant";
BENCHMARK_TEMPLATE(BM_CodecEncode, kDelta);
BENCHMARK_TEMPLATE(BM_CodecEncode, kGorilla);
BENCHMARK_TEMPLATE(BM_CodecDecode, kDelta);
BENCHMARK_TEMPLATE(BM_CodecDecode, kGorilla);
BENCHMARK_TEMPLATE2(BM_CodecEncode, kDelta, kFullDouble);
BENCHMARK_TEMPLATE2(BM_CodecEncode, kGorilla, kFullDouble);
BENCHMARK_TEMPLATE2(BM_CodecEncode, kQuant, kFullDouble);
BENCHMARK_TEMPLATE2(BM_CodecDecode, kDelta, kFullDouble);
BENCHMARK_TEMPLATE2(BM_CodecDecode, kGorilla, kFullDouble);
BENCHMARK_TEMPLATE2(BM_CodecDecode, kQuant, kFullDouble);

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(7);
  ml::Tensor a = ml::Tensor::randn({n, n}, rng);
  ml::Tensor b = ml::Tensor::randn({n, n}, rng);
  ml::Tensor c({n, n});
  for (auto _ : state) {
    ml::matmul(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.raw());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * n *
                          n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128);

// The training kernels at the shapes the ledger runs. Every input comes
// from run-time random data, and every result goes to DoNotOptimize.

/// `/1` is the LSTM batch-1 input projection (k 270, n 64), the
/// single-row path; `/1024` is attention's 1024 x 32 x 32 projection.
void BM_MatmulBt(benchmark::State& state) {
  const auto m = static_cast<std::size_t>(state.range(0));
  const std::size_t k = m == 1 ? 270 : 32;
  const std::size_t n = m == 1 ? 64 : 32;
  Rng rng(8);
  ml::Tensor a = ml::Tensor::randn({m, k}, rng);
  ml::Tensor b = ml::Tensor::randn({n, k}, rng);
  ml::Tensor c({m, n});
  for (auto _ : state) {
    ml::matmul_bt(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.raw());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 2 * m *
                          k * n);
}
BENCHMARK(BM_MatmulBt)->Arg(1)->Arg(1024);

/// Times a layer's forward, or its backward for one cached forward.
template <bool kBackward, typename Layer>
void run_layer(benchmark::State& state, Layer& layer, const ml::Tensor& x,
               Rng& rng) {
  ml::Tensor y = layer.forward(x);
  const ml::Tensor g = ml::Tensor::randn(y.shape(), rng);
  for (auto _ : state) {
    if constexpr (kBackward) {
      y = layer.backward(g);
    } else {
      y = layer.forward(x);
    }
    benchmark::DoNotOptimize(y.raw());
    benchmark::ClobberMemory();
  }
}

/// train-dense's attention: batch 16, 64 tokens, dim 32, 4 heads.
template <bool kBackward>
void BM_Attention(benchmark::State& state) {
  Rng rng(9);
  ml::MultiHeadSelfAttention attn(32, 4, rng);
  const ml::Tensor x = ml::Tensor::randn({16, 64, 32}, rng);
  run_layer<kBackward>(state, attn, x, rng);
}
void BM_AttentionForward(benchmark::State& state) {
  BM_Attention<false>(state);
}
void BM_AttentionBackward(benchmark::State& state) {
  BM_Attention<true>(state);
}
BENCHMARK(BM_AttentionForward);
BENCHMARK(BM_AttentionBackward);

/// train-dense's first convolution: batch 16, 4 -> 8 channels, k3 s2 p1
/// over 8^3.
template <bool kBackward>
void BM_Conv3D(benchmark::State& state) {
  Rng rng(10);
  ml::Conv3D conv(4, 8, 3, 2, 1, rng);
  const ml::Tensor x = ml::Tensor::randn({16, 4, 8, 8, 8}, rng);
  run_layer<kBackward>(state, conv, x, rng);
}
void BM_Conv3DForward(benchmark::State& state) { BM_Conv3D<false>(state); }
void BM_Conv3DBackward(benchmark::State& state) { BM_Conv3D<true>(state); }
BENCHMARK(BM_Conv3DForward);
BENCHMARK(BM_Conv3DBackward);

/// The decoder's upsampling at batch 16 and edge 8: `/1` is up1 (8 -> 4
/// channels, 2^3 -> 4^3), `/2` is up2 (4 -> 1 channel, 4^3 -> 8^3).
template <bool kBackward>
void BM_ConvTranspose3D(benchmark::State& state) {
  const bool up1 = state.range(0) == 1;
  const std::size_t cin = up1 ? 8 : 4;
  const std::size_t edge = up1 ? 2 : 4;
  Rng rng(11);
  ml::ConvTranspose3D up(cin, up1 ? 4 : 1, 4, 2, 1, rng);
  const ml::Tensor x = ml::Tensor::randn({16, cin, edge, edge, edge}, rng);
  run_layer<kBackward>(state, up, x, rng);
}
void BM_ConvTranspose3DForward(benchmark::State& state) {
  BM_ConvTranspose3D<false>(state);
}
void BM_ConvTranspose3DBackward(benchmark::State& state) {
  BM_ConvTranspose3D<true>(state);
}
BENCHMARK(BM_ConvTranspose3DForward)->Arg(1)->Arg(2);
BENCHMARK(BM_ConvTranspose3DBackward)->Arg(1)->Arg(2);

/// The ROADMAP multi-core item: on runners with more than one CPU, record
/// a threads=1 vs threads=N wall-clock row for the full two-phase
/// sampling pipeline into BENCH_kernels.json, so the first real multi-core
/// machine that runs the bench captures the `threads:` speedup. Single-CPU
/// runners (like the 1-core reference container) skip the row — a
/// "speedup" there would only measure pool overhead.
void record_pipeline_threads_row(sickle::bench::JsonReport* report) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    std::printf("pipeline threads row: skipped (1 hardware thread)\n");
    return;
  }
  const auto& fx = CubeScoringFixture::instance();
  sampling::PipelineConfig cfg;
  cfg.cube = {8, 8, 8};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 64;
  cfg.num_samples = 51;
  cfg.num_clusters = 8;
  cfg.input_vars = {"cv"};
  cfg.cluster_var = "cv";

  auto run_with = [&](std::size_t threads) {
    cfg.threads = threads;
    Timer timer;
    const auto result = run_pipeline(fx.snap, cfg);
    benchmark::DoNotOptimize(result.cubes.data());
    return timer.seconds();
  };
  (void)run_with(1);  // warm-up: fault in the fixture and code paths
  const double serial_seconds = run_with(1);
  const double pooled_seconds = run_with(0);  // 0 = all hardware threads
  report->add("pipeline_threads_scaling",
              {{"threads_1_seconds", serial_seconds},
               {"threads_n_seconds", pooled_seconds},
               {"threads_n", static_cast<double>(hw)},
               {"speedup", serial_seconds / pooled_seconds}});
  std::printf("pipeline threads row: 1 thread %.3fs, %u threads %.3fs "
              "(%.2fx)\n",
              serial_seconds, hw, pooled_seconds,
              serial_seconds / pooled_seconds);
}

/// Write a synthetic one-variable SKL3 series for the store-path rows:
/// 48^3 grid, 16^3 chunks (27 blocks/snapshot), per-snapshot phase drift
/// so temporal selection has real novelty structure to rank.
void write_bench_series(const std::string& path, std::size_t snapshots,
                        const char* codec) {
  store::StoreOptions opts;
  opts.chunk = {16, 16, 16};
  opts.codec = codec;
  store::SeriesWriter writer(path, opts);
  for (std::size_t t = 0; t < snapshots; ++t) {
    field::Snapshot snap({48, 48, 48}, static_cast<double>(t));
    auto& f = snap.add("cv");
    Rng rng(100 + t);
    std::size_t i = 0;
    for (auto& x : f.data()) {
      x = std::sin(0.003 * static_cast<double>(i++) +
                   0.37 * static_cast<double>(t)) +
          0.25 * rng.normal();
    }
    writer.append(snap);
  }
  (void)writer.close();
}

/// A sealed series with its index histograms hidden and its ranges
/// visible — what a source carrying ranges only gives temporal selection,
/// which then seeds from a full coarse-histogram scan of the payload.
class RangesOnlySeries final : public field::SeriesSource {
 public:
  explicit RangesOnlySeries(const store::SeriesReader& series)
      : series_(series) {}
  [[nodiscard]] std::size_t num_snapshots() const override {
    return series_.num_snapshots();
  }
  [[nodiscard]] const field::FieldSource& source(
      std::size_t t) const override {
    return series_.source(t);
  }
  [[nodiscard]] double time(std::size_t t) const override {
    return series_.time(t);
  }
  [[nodiscard]] std::optional<field::VarRange> value_range(
      std::size_t t, const std::string& var) const override {
    return series_.value_range(t, var);
  }

 private:
  const store::SeriesReader& series_;
};

/// The single-pass selection acceptance row: temporal selection on a
/// sealed series through its index-resident coarse histograms (zero
/// payload decodes before candidate refinement — m snapshot scans) vs the
/// same series with its histograms hidden (one full coarse-histogram scan
/// over all n snapshots, then the m-candidate refinement). With n = 16
/// and k = 2 (m = 4 candidates) the payload I/O drops 5x, so CI gates the
/// recorded speedup at >= 2x — far above noise, far below the I/O ratio.
/// This row is I/O-count-driven, not parallelism-driven, so it runs (and
/// is gated) on single-CPU runners too.
void record_selection_single_pass(sickle::bench::JsonReport* report) {
  namespace fs = std::filesystem;
  const auto dir = fs::temp_directory_path() / "sickle_bench_selection";
  fs::create_directories(dir);
  const std::string path = (dir / "sel.skl3").string();
  constexpr std::size_t kSnapshots = 16;
  write_bench_series(path, kSnapshots, "delta");

  sampling::TemporalConfig tc;
  tc.variable = "cv";
  tc.num_snapshots = 2;  // m = 2k = 4 candidates < n = 16
  tc.bins = 64;

  auto select_seconds = [&](bool hide_histograms) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 3; ++r) {
      // A fresh reader per repeat: every run pays the cold-store decode
      // pattern the visible summaries dictate, never a warm block cache.
      const store::SeriesReader reader(path, /*cache_bytes=*/64u << 20);
      const RangesOnlySeries ranges_only(reader);
      const field::SeriesSource& series =
          hide_histograms ? static_cast<const field::SeriesSource&>(ranges_only)
                          : reader;
      Timer timer;
      const auto selected = sampling::select_snapshots(series, tc);
      benchmark::DoNotOptimize(selected.data());
      best = std::min(best, timer.seconds());
    }
    return best;
  };
  (void)select_seconds(true);  // warm-up: page cache + code paths
  const double ranges_only_seconds = select_seconds(true);
  const double indexed_seconds = select_seconds(false);
  fs::remove_all(dir);

  const double speedup = ranges_only_seconds / indexed_seconds;
  report->add("selection_single_pass",
              {{"ranges_only_seconds", ranges_only_seconds},
               {"indexed_seconds", indexed_seconds},
               {"snapshots", static_cast<double>(kSnapshots)},
               {"candidates", 4.0},
               {"speedup", speedup}});
  std::printf("selection single-pass row: ranges only %.4fs, indexed %.4fs "
              "(%.2fx)\n",
              ranges_only_seconds, indexed_seconds, speedup);
}

/// The four-lane checksum acceptance row: one write wave's encoded blocks
/// (8 MiB of full-precision turbulence, the default write budget, in 16^3
/// gorilla blocks as the curate-series spill writes them) hashed one
/// block at a time with fnv1a64 and four at a time with fnv1a64_many.
/// Both give the same checksums; the gain is instruction-level
/// parallelism on one thread (four multiply chains in flight instead of
/// one), so the row runs, and CI gates it at >= 2x, on single-CPU runners
/// too.
void record_block_checksum_lanes(sickle::bench::JsonReport* report) {
  flow::SpectralTurbulenceParams p;
  p.nx = p.ny = p.nz = 64;
  p.seed = 5;
  flow::SpectralTurbulenceProducer producer(p);
  const auto ds = flow::materialize(producer, "spectral");
  const auto& snap = ds.snapshot(0);
  const store::ChunkLayout layout(snap.shape(), {16, 16, 16});
  const store::GorillaCodec codec;
  std::vector<std::vector<std::uint8_t>> blocks;
  std::size_t bytes = 0;
  for (const auto& name : snap.names()) {
    for (std::size_t c = 0; c < layout.count(); ++c) {
      blocks.push_back(codec.encode(store::extract_chunk(
          snap.get(name).data(), snap.shape(), layout.box(c))));
      bytes += blocks.back().size();
    }
  }
  const std::vector<std::span<const std::uint8_t>> views(blocks.begin(),
                                                         blocks.end());
  std::vector<std::uint64_t> single(views.size());
  std::vector<std::uint64_t> lanes(views.size());
  double per_block_seconds = std::numeric_limits<double>::infinity();
  double four_lane_seconds = std::numeric_limits<double>::infinity();
  for (int r = 0; r < 7; ++r) {
    Timer per_block;
    for (std::size_t i = 0; i < views.size(); ++i) {
      single[i] = store::fnv1a64(views[i]);
    }
    benchmark::DoNotOptimize(single.data());
    per_block_seconds = std::min(per_block_seconds, per_block.seconds());
    Timer four_lane;
    store::fnv1a64_many(views, lanes);
    benchmark::DoNotOptimize(lanes.data());
    four_lane_seconds = std::min(four_lane_seconds, four_lane.seconds());
  }
  if (single != lanes) {
    std::fprintf(stderr, "block_checksum_lanes: checksums differ\n");
    std::exit(1);
  }
  const double speedup = per_block_seconds / four_lane_seconds;
  report->add("block_checksum_lanes",
              {{"per_block_seconds", per_block_seconds},
               {"four_lane_seconds", four_lane_seconds},
               {"blocks", static_cast<double>(views.size())},
               {"bytes", static_cast<double>(bytes)},
               {"speedup", speedup}});
  std::printf("block checksum lanes row: %zu blocks (%.1f MB), per block "
              "%.4fs, four lanes %.4fs (%.2fx)\n",
              views.size(), static_cast<double>(bytes) / 1e6,
              per_block_seconds, four_lane_seconds, speedup);
}

/// The async-readahead acceptance row: a cold sequential scan over every
/// block of a gorilla series (serial bit-unpacking — the decode-bound
/// worst case readahead targets) with prefetch off vs depth 8 on a
/// hardware-sized pool. Off, every decode runs on the demand thread; on,
/// workers decode ahead of the consumer, so the scan approaches
/// decode-throughput x workers. Values are bit-identical either way
/// (test-asserted); this row records what the overlap buys in wall
/// clock, CI-gated at >= 1.3x. Single-CPU runners skip: with one
/// hardware thread prefetch tasks and the consumer share a core, and the
/// row would measure scheduling overhead, not overlap.
void record_prefetch_streaming_scan(sickle::bench::JsonReport* report) {
  namespace fs = std::filesystem;
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    std::printf("prefetch scan row: skipped (1 hardware thread)\n");
    return;
  }
  const auto dir = fs::temp_directory_path() / "sickle_bench_prefetch";
  fs::create_directories(dir);
  const std::string path = (dir / "scan.skl3").string();
  constexpr std::size_t kSnapshots = 12;
  write_bench_series(path, kSnapshots, "gorilla");

  ThreadPool pool(hw);
  constexpr std::size_t kDepth = 8;
  auto scan_seconds = [&](std::size_t depth) {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 3; ++r) {
      store::ReaderOptions ro;
      ro.cache_bytes = 256u << 20;  // never evict: one decode per block
      ro.prefetch_depth = depth;
      ro.pool = &pool;
      const store::SeriesReader reader(path, ro);
      const std::size_t nchunks = reader.layout().count();
      Timer timer;
      double acc = 0.0;
      for (std::size_t t = 0; t < reader.num_snapshots(); ++t) {
        for (std::size_t c = 0; c < nchunks; ++c) {
          acc += (*reader.chunk(t, 0, c))[0];
        }
      }
      benchmark::DoNotOptimize(acc);
      best = std::min(best, timer.seconds());
    }
    return best;
  };
  (void)scan_seconds(0);  // warm-up: page cache + code paths
  const double off_seconds = scan_seconds(0);
  const double on_seconds = scan_seconds(kDepth);
  fs::remove_all(dir);

  const double speedup = off_seconds / on_seconds;
  report->add("prefetch_streaming_scan",
              {{"prefetch_off_seconds", off_seconds},
               {"prefetch_on_seconds", on_seconds},
               {"depth", static_cast<double>(kDepth)},
               {"pool_threads", static_cast<double>(hw)},
               {"speedup", speedup}});
  std::printf("prefetch scan row: off %.4fs, depth-%zu %.4fs (%.2fx)\n",
              off_seconds, kDepth, on_seconds, speedup);
}

/// The nested-parallelism acceptance row: an outer parallel_for whose
/// bodies each run an inner parallel_for — the shape that deadlocks or
/// serializes on a pool whose waits block, and that TaskGroup::wait's
/// helping (a waiting worker runs queued tasks) makes compose. Recorded
/// against the same arithmetic as plain nested serial loops; CI gates
/// speedup > 1 (any real win proves nesting neither deadlocks nor
/// serializes).
/// Single-CPU runners skip — one worker can only interleave.
void record_nested_parallel_for(sickle::bench::JsonReport* report) {
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw <= 1) {
    std::printf("nested parallel_for row: skipped (1 hardware thread)\n");
    return;
  }
  constexpr std::size_t kOuter = 8;
  constexpr std::size_t kInner = 1 << 16;
  std::vector<double> sums(kOuter, 0.0);

  auto serial_seconds = [&] {
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 3; ++r) {
      Timer timer;
      for (std::size_t i = 0; i < kOuter; ++i) {
        double s = 0.0;
        for (std::size_t j = 0; j < kInner; ++j) {
          const double x = 0.001 * static_cast<double>(j + i);
          s += std::sin(x) * std::cos(0.5 * x);
        }
        sums[i] = s;
      }
      benchmark::DoNotOptimize(sums.data());
      best = std::min(best, timer.seconds());
    }
    return best;
  };
  auto nested_seconds = [&] {
    ThreadPool pool(hw);
    double best = std::numeric_limits<double>::infinity();
    for (int r = 0; r < 3; ++r) {
      Timer timer;
      parallel_for(
          kOuter,
          [&](std::size_t i) {
            std::vector<double> partial(kInner);
            parallel_for(
                kInner,
                [&, i](std::size_t j) {
                  const double x = 0.001 * static_cast<double>(j + i);
                  partial[j] = std::sin(x) * std::cos(0.5 * x);
                },
                &pool, /*grain=*/4096);
            double s = 0.0;
            for (const double x : partial) s += x;
            sums[i] = s;
          },
          &pool, /*grain=*/1);
      benchmark::DoNotOptimize(sums.data());
      best = std::min(best, timer.seconds());
    }
    return best;
  };
  const double serial = serial_seconds();
  const double nested = nested_seconds();
  const double speedup = serial / nested;
  report->add("nested_parallel_for",
              {{"serial_seconds", serial},
               {"nested_seconds", nested},
               {"pool_threads", static_cast<double>(hw)},
               {"speedup", speedup}});
  std::printf("nested parallel_for row: serial %.4fs, %u threads %.4fs "
              "(%.2fx)\n",
              serial, hw, nested, speedup);
}

/// The obs-overhead acceptance row: the same streaming sampling pipeline
/// run with the observability layer globally off vs on, interleaved
/// min-of-N so both sides see the same thermal/noise envelope. The store-
/// backed path is the worst case for span density (one store.load_chunk +
/// codec.decode pair per cache miss on top of the stage spans), so its
/// ratio bounds every other workload. One pipeline takes well under a
/// second, too short for a min-of-5 ratio to resolve 3% through host
/// noise, so each timed sample repeats it until the sample lasts at least
/// kSampleSeconds (the count is set once after warm-up, then fixed for
/// both sides). tools/check_obs_overhead.py gates the committed baseline's
/// ratio at 3%.
void record_obs_overhead_row(sickle::bench::JsonReport* report) {
  namespace fs = std::filesystem;
  const auto& fx = CubeScoringFixture::instance();
  const auto dir = fs::temp_directory_path() / "sickle_obs_overhead";
  fs::create_directories(dir);
  const std::string path = (dir / "obs.skl2").string();
  store::StoreOptions opts;
  opts.chunk = {16, 16, 16};
  opts.codec = "delta";
  (void)store::write_store(fx.snap, path, opts);

  sampling::PipelineConfig cfg;
  cfg.cube = {8, 8, 8};
  cfg.hypercube_method = "maxent";
  cfg.point_method = "maxent";
  cfg.num_hypercubes = 32;
  cfg.num_samples = 51;
  cfg.num_clusters = 8;
  cfg.input_vars = {"cv"};
  cfg.cluster_var = "cv";

  auto run_once = [&] {
    // A fresh reader with a deliberately small cache keeps chunk loads
    // (and therefore trace events) in the timed region every repeat.
    const store::ChunkReader reader(path, /*cache_bytes=*/1u << 20);
    Timer timer;
    const auto result = sampling::run_pipeline_streaming(reader, cfg);
    benchmark::DoNotOptimize(result.cubes.data());
    return timer.seconds();
  };

  constexpr int kRepeats = 5;
  constexpr double kSampleSeconds = 2.0;
  const bool was_enabled = obs::enabled();
  obs::set_enabled(false);
  (void)run_once();  // warm-up: fault in code paths and the page cache
  // Run warm pipelines for kSampleSeconds; a sample then repeats the
  // pipeline as often as the fastest of them fits into kSampleSeconds.
  double fastest = std::numeric_limits<double>::infinity();
  for (double filled = 0.0; filled < kSampleSeconds;) {
    const double seconds = run_once();
    fastest = std::min(fastest, seconds);
    filled += seconds;
  }
  const int per_sample = static_cast<int>(std::ceil(kSampleSeconds / fastest));
  auto run_sample = [&] {
    double seconds = 0.0;
    for (int r = 0; r < per_sample; ++r) seconds += run_once();
    return seconds;
  };
  double disabled_s = std::numeric_limits<double>::infinity();
  double enabled_s = std::numeric_limits<double>::infinity();
  for (int i = 0; i < kRepeats; ++i) {
    obs::set_enabled(false);
    disabled_s = std::min(disabled_s, run_sample());
    obs::set_enabled(true);
    enabled_s = std::min(enabled_s, run_sample());
  }
  obs::set_enabled(was_enabled);
  obs::Tracer::instance().clear();
  obs::MetricsRegistry::global().reset();
  fs::remove_all(dir);

  const double ratio = enabled_s / disabled_s;
  report->add("obs_overhead_pipeline",
              {{"disabled_seconds", disabled_s},
               {"enabled_seconds", enabled_s},
               {"pipelines_per_sample", static_cast<double>(per_sample)},
               {"overhead_ratio", ratio}});
  std::printf("obs overhead row: disabled %.4fs, enabled %.4fs per sample "
              "of %d pipelines (%.3fx, min of %d interleaved)\n",
              disabled_s, enabled_s, per_sample, ratio, kRepeats);
}

/// Console output as usual, plus every non-aggregate run collected into a
/// bench::JsonReport (ns/op, items/s, bytes/s, thread count). Runs are
/// folded per benchmark name via add_sample, so
/// `--benchmark_repetitions=N` yields one record per kernel carrying the
/// median plus min/max dispersion instead of N duplicate records.
class JsonCollectingReporter : public benchmark::ConsoleReporter {
 public:
  explicit JsonCollectingReporter(sickle::bench::JsonReport* out)
      : out_(out) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    ConsoleReporter::ReportRuns(runs);
    for (const Run& run : runs) {
      if (!run.aggregate_name.empty()) continue;
      const std::string name = run.benchmark_name();
      const double iters =
          run.iterations > 0 ? static_cast<double>(run.iterations) : 1.0;
      out_->add_sample(name, "ns_per_op",
                       run.real_accumulated_time / iters * 1e9);
      out_->add_sample(name, "threads", static_cast<double>(run.threads));
      for (const char* counter : {"items_per_second", "bytes_per_second"}) {
        if (const auto it = run.counters.find(counter);
            it != run.counters.end()) {
          out_->add_sample(name, counter, static_cast<double>(it->second));
        }
      }
    }
  }

 private:
  sickle::bench::JsonReport* out_;
};

/// Whether --benchmark_filter selects the record row `name`, matched the
/// way google-benchmark matches its own rows: an empty filter or "all"
/// selects every row, a leading '-' negates, and the rest is an extended
/// regex searched for in the name. A filter that does not compile selects
/// nothing, as it selects no google-benchmark row.
bool filter_selects(const std::string& name) {
  std::string spec = benchmark::GetBenchmarkFilter();
  if (spec.empty() || spec == "all") return true;
  const bool negate = spec.front() == '-';
  if (negate) spec.erase(0, 1);
  try {
    return std::regex_search(name, std::regex(spec, std::regex::extended)) !=
           negate;
  } catch (const std::regex_error&) {
    return false;
  }
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our --json_out=PATH flag before google-benchmark sees (and
  // rejects) it.
  std::string json_path = "BENCH_kernels.json";
  int argc_out = 0;
  std::vector<char*> args;
  for (int i = 0; i < argc; ++i) {
    constexpr const char* kFlag = "--json_out=";
    if (std::strncmp(argv[i], kFlag, std::strlen(kFlag)) == 0) {
      json_path = argv[i] + std::strlen(kFlag);
    } else {
      args.push_back(argv[i]);
      ++argc_out;
    }
  }
  benchmark::Initialize(&argc_out, args.data());
  if (benchmark::ReportUnrecognizedArguments(argc_out, args.data())) {
    return 1;
  }
  sickle::bench::JsonReport report("bench_kernels");
  JsonCollectingReporter reporter(&report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  const std::pair<const char*, void (*)(sickle::bench::JsonReport*)>
      records[] = {
          {"pipeline_threads_scaling", record_pipeline_threads_row},
          {"selection_single_pass", record_selection_single_pass},
          {"block_checksum_lanes", record_block_checksum_lanes},
          {"prefetch_streaming_scan", record_prefetch_streaming_scan},
          {"nested_parallel_for", record_nested_parallel_for},
          {"obs_overhead_pipeline", record_obs_overhead_row},
      };
  for (const auto& [name, record] : records) {
    if (filter_selects(name)) record(&report);
  }
  report.write(json_path);
  benchmark::Shutdown();
  return 0;
}
