#include "util/serial.h"

#include <algorithm>

namespace fgp::util {

namespace {

constexpr std::uint64_t kFnvOffsetBasis = 14695981039346656037ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

/// Continues an FNV-1a chain in state `h` over [data, data + n).
std::uint64_t fnv1a_extend(std::uint64_t h, const std::uint8_t* data,
                           std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    h ^= data[i];
    h *= kFnvPrime;
  }
  return h;
}

}  // namespace

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n) {
  return fnv1a_extend(kFnvOffsetBasis, data, n);
}

std::array<std::uint64_t, 4> fnv1a_x4(
    const std::array<const std::uint8_t*, 4>& data,
    const std::array<std::size_t, 4>& n) {
  const std::size_t common = std::min({n[0], n[1], n[2], n[3]});
  const std::uint8_t* const p0 = data[0];
  const std::uint8_t* const p1 = data[1];
  const std::uint8_t* const p2 = data[2];
  const std::uint8_t* const p3 = data[3];
  std::uint64_t h0 = kFnvOffsetBasis;
  std::uint64_t h1 = kFnvOffsetBasis;
  std::uint64_t h2 = kFnvOffsetBasis;
  std::uint64_t h3 = kFnvOffsetBasis;
  for (std::size_t i = 0; i < common; ++i) {
    h0 = (h0 ^ p0[i]) * kFnvPrime;
    h1 = (h1 ^ p1[i]) * kFnvPrime;
    h2 = (h2 ^ p2[i]) * kFnvPrime;
    h3 = (h3 ^ p3[i]) * kFnvPrime;
  }
  std::array<std::uint64_t, 4> out{h0, h1, h2, h3};
  for (std::size_t k = 0; k < 4; ++k)
    if (n[k] > common)
      out[k] = fnv1a_extend(out[k], data[k] + common, n[k] - common);
  return out;
}

}  // namespace fgp::util
