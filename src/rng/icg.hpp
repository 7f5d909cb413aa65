// Inversive Congruential Generator (ICG) with power-of-two modulus.
//
// The paper's data generator (Section 5.1) uses "a better random number
// generator called the Inversive Congruential Generator [6] as long
// sequences of Unix random number generators (LCGs) exhibit regular
// behavior by falling into specific planes".  Reference [6] is
// J. Eichenauer-Herrmann & H. Grothe, "A new inversive congruential
// pseudorandom number generator with power of two modulus", ACM TOMACS 2(1),
// 1992.
//
// The recurrence over the odd residues modulo m = 2^e is
//
//     x_{n+1} = a * inv(x_n) + b   (mod 2^e)
//
// where inv(x) is the multiplicative inverse of the odd integer x modulo
// 2^e.  With a ≡ 1 (mod 4) and b ≡ 2 (mod 4) the generator achieves the
// maximal period m/2 over the odd residues (Eichenauer-Herrmann & Grothe,
// Theorem 1).  Unlike LCGs, successive k-tuples of inversive generators do
// not concentrate on a small family of hyperplanes — exactly the defect the
// paper works around (see LcgRandom and tests/rng_test.cpp's plane
// diagnostic).
#pragma once

#include <cstdint>

#include "common/error.hpp"

namespace mafia {

/// Multiplicative inverse of the odd integer `x` modulo 2^64, computed with
/// Newton–Hensel iteration: each step doubles the number of correct low
/// bits, so five steps from a 5-bit seed inverse reach 64 bits.
[[nodiscard]] constexpr std::uint64_t inverse_pow2(std::uint64_t x) {
  // x * 3 XOR 2 gives the inverse modulo 2^5 for odd x (folklore seed).
  std::uint64_t inv = (x * 3) ^ 2;  // 5 bits
  inv *= 2 - x * inv;               // 10 bits
  inv *= 2 - x * inv;               // 20 bits
  inv *= 2 - x * inv;               // 40 bits
  inv *= 2 - x * inv;               // 80 -> 64 bits
  return inv;
}

/// Inversive congruential pseudorandom number generator modulo 2^64.
///
/// Satisfies the C++ UniformRandomBitGenerator requirements, so it can be
/// plugged into <random> distributions, although the library's own
/// distribution helpers (rng/distributions.hpp) are preferred for
/// reproducibility across standard libraries.
class IcgRandom {
 public:
  using result_type = std::uint64_t;

  /// Constructs the generator from a seed; any seed value is accepted and
  /// mapped onto the odd-residue orbit.
  explicit IcgRandom(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

  /// Re-seeds the generator.  The state must be odd; the parameters below
  /// (a ≡ 1 mod 4, b ≡ 2 mod 4) give the maximal period 2^63.
  void reseed(std::uint64_t seed) {
    state_ = (seed << 1) | 1ull;  // force odd
    // Decorrelate trivially related seeds (0,1,2,...) by burning a few steps.
    for (int i = 0; i < 4; ++i) (void)next();
  }

  /// Next 64-bit output: x <- a * inv(x) + b (mod 2^64).
  std::uint64_t next() {
    state_ = kA * inverse_pow2(state_) + kB;
    state_ |= 1ull;  // keep the orbit on odd residues despite b even: a*inv is
                     // odd, +b (even) keeps it odd; the OR is a no-op guard.
    return state_ * 0x2545f4914f6cdd1dull;  // output scrambling (splitmix-style)
  }

  std::uint64_t operator()() { return next(); }

  static constexpr std::uint64_t min() { return 0; }
  static constexpr std::uint64_t max() { return ~0ull; }

  /// Current internal state (odd residue) — exposed for tests.
  [[nodiscard]] std::uint64_t state() const { return state_; }

 private:
  // a = 1 (mod 4), b = 2 (mod 4): maximal period (Theorem 1 of [6]).
  static constexpr std::uint64_t kA = 0xdeece66d00000001ull;
  static constexpr std::uint64_t kB = 0x000000000000000eull;
  static_assert(kA % 4 == 1 && kB % 4 == 2);
  std::uint64_t state_;
};

}  // namespace mafia
