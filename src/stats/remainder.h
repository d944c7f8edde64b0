// x mod n for a divisor fixed ahead of many draws, without a divide.
#pragma once

#include <cstdint>

namespace vbr::stats {

/// x % n for one fixed n >= 1, equal to the `%` result for every x.
///
/// With m = floor((2^64 - 1) / n), the estimate q = floor(x * m / 2^64) is
/// floor(x / n) or one less: m * n <= 2^64 - 1 gives q <= x / n, and
/// m * n > 2^64 - 1 - n gives x * m / 2^64 > x / n - x / 2^64 > x / n - 1,
/// so q > x / n - 2. Hence 0 <= x - q * n < 2n, and one conditional
/// subtraction of n leaves the exact remainder. No step overflows:
/// q * n <= x.
class ExactRemainder {
 public:
  explicit ExactRemainder(std::uint64_t n) : n_(n), m_(~std::uint64_t{0} / n) {}

  [[nodiscard]] std::uint64_t operator()(std::uint64_t x) const {
    __extension__ using u128 = unsigned __int128;
    const auto q = static_cast<std::uint64_t>((u128{x} * m_) >> 64);
    const std::uint64_t r = x - q * n_;
    return r >= n_ ? r - n_ : r;
  }

 private:
  std::uint64_t n_;
  std::uint64_t m_;
};

}  // namespace vbr::stats
