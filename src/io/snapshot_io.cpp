#include "io/snapshot_io.hpp"

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <span>

#include "common/error.hpp"

namespace sickle::io {

namespace {

constexpr char kSamplesMagic[4] = {'S', 'K', 'S', '1'};

template <typename T>
void write_pod(std::ofstream& f, const T& v) {
  f.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::ifstream& f) {
  T v{};
  f.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!f) throw RuntimeError("truncated .skl file");
  return v;
}

void write_string(std::ofstream& f, const std::string& s) {
  write_pod<std::uint32_t>(f, static_cast<std::uint32_t>(s.size()));
  f.write(s.data(), static_cast<std::streamsize>(s.size()));
}

std::string read_string(std::ifstream& f) {
  const auto len = read_pod<std::uint32_t>(f);
  SICKLE_CHECK_MSG(len < (1u << 20), "implausible string length in .skl");
  std::string s(len, '\0');
  f.read(s.data(), len);
  if (!f) throw RuntimeError("truncated .skl file");
  return s;
}

void write_doubles(std::ofstream& f, std::span<const double> v) {
  f.write(reinterpret_cast<const char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(double)));
}

void read_doubles(std::ifstream& f, std::span<double> v) {
  f.read(reinterpret_cast<char*>(v.data()),
         static_cast<std::streamsize>(v.size() * sizeof(double)));
  if (!f) throw RuntimeError("truncated .skl file");
}

/// Eight-byte words between the read position and the end of the file.
std::uint64_t words_left(std::ifstream& f) {
  const auto pos = f.tellg();
  f.seekg(0, std::ios::end);
  const auto left = static_cast<std::uint64_t>(f.tellg() - pos);
  f.seekg(pos);
  if (!f) throw RuntimeError("unreadable .skl file");
  return left / sizeof(std::uint64_t);
}

}  // namespace

std::size_t save_samples(const SampleFile& samples, const std::string& path) {
  SICKLE_CHECK(samples.features.size() ==
               samples.indices.size() * samples.variables.size());
  std::ofstream f(path, std::ios::binary);
  if (!f) throw RuntimeError("cannot open for write: " + path);
  f.write(kSamplesMagic, 4);
  write_pod<std::uint64_t>(f, samples.indices.size());
  write_pod<std::uint64_t>(f, samples.variables.size());
  for (const auto& v : samples.variables) write_string(f, v);
  f.write(reinterpret_cast<const char*>(samples.indices.data()),
          static_cast<std::streamsize>(samples.indices.size() *
                                       sizeof(std::uint64_t)));
  write_doubles(f, samples.features);
  f.flush();
  if (!f) throw RuntimeError("error writing: " + path);
  return file_bytes(path);
}

SampleFile load_samples(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw RuntimeError("cannot open for read: " + path);
  char magic[4];
  f.read(magic, 4);
  if (!f || std::memcmp(magic, kSamplesMagic, 4) != 0) {
    throw RuntimeError("not a .skl sample file: " + path);
  }
  SampleFile out;
  const auto n = read_pod<std::uint64_t>(f);
  const auto nvars = read_pod<std::uint64_t>(f);
  SICKLE_CHECK_MSG(nvars < 1024, "implausible variable count");
  out.variables.reserve(nvars);
  for (std::uint64_t i = 0; i < nvars; ++i) {
    out.variables.push_back(read_string(f));
  }
  // Check the header's counts against the bytes the file still holds
  // before sizing anything from them: n indices and n * nvars features
  // are n * (1 + nvars) eight-byte words. Dividing cannot overflow.
  if (n > words_left(f) / (1 + nvars)) {
    throw RuntimeError("sample file counts more points than it holds: " +
                       path);
  }
  out.indices.resize(n);
  f.read(reinterpret_cast<char*>(out.indices.data()),
         static_cast<std::streamsize>(n * sizeof(std::uint64_t)));
  if (!f) throw RuntimeError("truncated sample file");
  out.features.resize(n * nvars);
  read_doubles(f, out.features);
  return out;
}

std::size_t file_bytes(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<std::size_t>(size);
}

}  // namespace sickle::io
