// Unit tests: SKS1 sample-set storage.
#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "field/field.hpp"
#include "io/snapshot_io.hpp"

namespace sickle::io {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("sickle_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  std::filesystem::path dir_;
};

TEST_F(IoTest, SamplesRoundTrip) {
  SampleFile s;
  s.variables = {"u", "v"};
  s.indices = {3, 17, 255};
  s.features = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  save_samples(s, path("samples.skl"));
  const auto loaded = load_samples(path("samples.skl"));
  EXPECT_EQ(loaded.variables, s.variables);
  EXPECT_EQ(loaded.indices, s.indices);
  EXPECT_EQ(loaded.features, s.features);
}

TEST_F(IoTest, SampleFileIsSmallerThanSnapshot) {
  field::Snapshot snap({32, 32, 1});
  Rng rng(2);
  for (const char* name : {"u", "v"}) {
    auto& f = snap.add(name);
    for (auto& x : f.data()) x = rng.normal();
  }
  const std::size_t full = snap.bytes();

  SampleFile s;
  s.variables = {"u", "v"};
  // 10% subsample.
  for (std::size_t i = 0; i < 102; ++i) {
    s.indices.push_back(i * 10);
    s.features.push_back(0.0);
    s.features.push_back(0.0);
  }
  const std::size_t sampled = save_samples(s, path("sub.skl"));
  EXPECT_LT(sampled * 5, full);  // well under 20% of the dense payload
}

TEST_F(IoTest, LoadMissingFileThrows) {
  EXPECT_THROW(load_samples(path("missing.skl")), RuntimeError);
}

TEST_F(IoTest, WrongMagicThrows) {
  {
    std::ofstream f(path("bad.skl"), std::ios::binary);
    f << "NOTSKLDATA";
  }
  EXPECT_THROW(load_samples(path("bad.skl")), RuntimeError);
}

TEST_F(IoTest, TruncatedFileThrows) {
  SampleFile s;
  s.variables = {"u", "v"};
  s.indices = {3, 17, 255};
  s.features = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0};
  const std::size_t full = save_samples(s, path("whole.skl"));
  // Cut inside the header, the variable names, the indices and the
  // features in turn.
  for (const std::size_t cut : {std::size_t{10}, std::size_t{23},
                                std::size_t{40}, full - 1}) {
    std::filesystem::copy_file(
        path("whole.skl"), path("trunc.skl"),
        std::filesystem::copy_options::overwrite_existing);
    std::filesystem::resize_file(path("trunc.skl"), cut);
    EXPECT_THROW(load_samples(path("trunc.skl")), RuntimeError) << cut;
  }
}

TEST_F(IoTest, CraftedSampleCountFailsTyped) {
  // A 33-byte file whose header claims far more points than it holds:
  // the reader must refuse it before sizing a vector from the count.
  for (const std::uint64_t n : {std::uint64_t{1} << 40,
                                std::uint64_t{1} << 62}) {
    {
      std::ofstream f(path("crafted.skl"), std::ios::binary);
      const std::uint64_t nvars = 1, index = 0;
      const std::uint32_t name_len = 1;
      f.write("SKS1", 4);
      f.write(reinterpret_cast<const char*>(&n), sizeof n);
      f.write(reinterpret_cast<const char*>(&nvars), sizeof nvars);
      f.write(reinterpret_cast<const char*>(&name_len), sizeof name_len);
      f.write("u", 1);
      f.write(reinterpret_cast<const char*>(&index), sizeof index);
    }
    ASSERT_EQ(file_bytes(path("crafted.skl")), 33u);
    EXPECT_THROW(load_samples(path("crafted.skl")), RuntimeError) << n;
  }
}

TEST_F(IoTest, MismatchedFeatureCountRejected) {
  SampleFile s;
  s.variables = {"u"};
  s.indices = {1, 2};
  s.features = {1.0};  // should be 2
  EXPECT_THROW(save_samples(s, path("bad2.skl")), CheckError);
}

TEST_F(IoTest, FileBytesOfMissingIsZero) {
  EXPECT_EQ(file_bytes(path("nope")), 0u);
}

}  // namespace
}  // namespace sickle::io
