// Whole-file byte helpers shared by the container test suites.
#pragma once

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

namespace sickle::store::testing {

/// Every byte of the file at `p`.
inline std::vector<std::uint8_t> read_bytes(const std::string& p) {
  std::ifstream f(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
}

/// Replace the file at `p` with exactly `bytes`.
inline void write_bytes(const std::string& p,
                        const std::vector<std::uint8_t>& bytes) {
  std::ofstream f(p, std::ios::binary | std::ios::trunc);
  f.write(reinterpret_cast<const char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
}

/// XOR the byte at `offset` of the file at `p` with `mask`, in place.
inline void flip_byte(const std::string& p, std::size_t offset,
                      std::uint8_t mask) {
  std::fstream f(p, std::ios::binary | std::ios::in | std::ios::out);
  f.seekg(static_cast<std::streamoff>(offset));
  char b = 0;
  f.read(&b, 1);
  b = static_cast<char>(b ^ static_cast<char>(mask));
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(&b, 1);
}

}  // namespace sickle::store::testing
