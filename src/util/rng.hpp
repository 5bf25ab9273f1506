// Deterministic pseudo-random number generation for reproducible experiments.
//
// Every stochastic component in the library (stimulus generation, placement
// annealing, weight initialization, dataset sampling, measurement noise) draws
// from a Rng seeded explicitly, so whole experiments replay bit-for-bit.
#pragma once

#include <cstdint>
#include <vector>

namespace powergear::util {

/// xoshiro256** generator seeded via splitmix64. Small, fast, and good enough
/// statistical quality for simulation workloads; not cryptographic.
class Rng {
public:
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull) { reseed(seed); }

    /// Re-initialize the state from a 64-bit seed (splitmix64 expansion).
    void reseed(std::uint64_t seed);

    /// Next raw 64-bit value.
    std::uint64_t next_u64();

    /// Uniform 32-bit value.
    std::uint32_t next_u32() { return static_cast<std::uint32_t>(next_u64() >> 32); }

    /// Uniform integer in [0, bound). bound must be > 0.
    std::uint64_t next_below(std::uint64_t bound);

    /// Uniform integer in [lo, hi] inclusive.
    std::int64_t next_range(std::int64_t lo, std::int64_t hi);

    /// Uniform double in [0, 1).
    double next_double();

    /// Uniform float in [lo, hi).
    float next_float(float lo, float hi);

    /// Bernoulli draw with probability p of returning true.
    bool next_bool(double p = 0.5) { return next_double() < p; }

    /// Fisher-Yates shuffle of an index-addressable container.
    template <typename T>
    void shuffle(std::vector<T>& v) {
        for (std::size_t i = v.size(); i > 1; --i) {
            std::size_t j = static_cast<std::size_t>(next_below(i));
            std::swap(v[i - 1], v[j]);
        }
    }

private:
    std::uint64_t s_[4]{};
};

/// Stateless 64-bit mix: maps (seed, salt) to a well-distributed value.
/// Used for per-entity deterministic jitter (e.g. measurement noise per
/// sample id) where carrying an Rng would couple unrelated call sites.
std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b);

/// Deterministic jitter in [-amplitude, +amplitude] derived from (seed, salt).
double hash_jitter(std::uint64_t seed, std::uint64_t salt, double amplitude);

} // namespace powergear::util
