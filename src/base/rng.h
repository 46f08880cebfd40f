// Deterministic random number generation.
//
// Every stochastic element of the simulation (network jitter, message loss,
// client think times) draws from an Rng seeded from the experiment config, so
// a run is exactly reproducible from its seed.
#ifndef SRC_BASE_RNG_H_
#define SRC_BASE_RNG_H_

#include <cmath>
#include <cstdint>

namespace camelot {

// SplitMix64 / xoshiro256** — small, fast, and with well-understood statistics.
class Rng {
 public:
  explicit Rng(uint64_t seed) {
    // SplitMix64 expansion of the seed into the xoshiro state.
    uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  uint64_t Next() {
    const uint64_t result = Rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = Rotl(state_[3], 45);
    return result;
  }

  // Uniform in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  // Uniform integer in [0, bound).
  uint64_t NextBounded(uint64_t bound) { return bound == 0 ? 0 : Next() % bound; }

  bool NextBool(double p_true) { return NextDouble() < p_true; }

  // Exponential with the given mean (>= 0).
  double NextExponential(double mean) {
    double u = NextDouble();
    if (u <= 0.0) {
      u = 1e-300;
    }
    return -mean * std::log(1.0 - u);
  }

  // A fresh generator derived from this one; use to give each component its own
  // stream so adding draws in one component does not perturb another.
  Rng Fork() { return Rng(Next() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t state_[4] = {};
};

}  // namespace camelot

#endif  // SRC_BASE_RNG_H_
