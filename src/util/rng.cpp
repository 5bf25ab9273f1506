#include "util/rng.hpp"

#include <cmath>

namespace powergear::util {

namespace {

std::uint64_t splitmix64(std::uint64_t& x) {
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::uint64_t rotl(std::uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

} // namespace

void Rng::reseed(std::uint64_t seed) {
    std::uint64_t x = seed;
    for (auto& s : s_) s = splitmix64(x);
    // Avoid the (astronomically unlikely) all-zero state.
    if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

std::uint64_t Rng::next_u64() {
    const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
    const std::uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = rotl(s_[3], 45);
    return result;
}

std::uint64_t Rng::next_below(std::uint64_t bound) {
    // Rejection-free multiply-shift; bias is negligible for simulation use.
    return static_cast<std::uint64_t>(
        (static_cast<unsigned __int128>(next_u64()) * bound) >> 64);
}

std::int64_t Rng::next_range(std::int64_t lo, std::int64_t hi) {
    return lo + static_cast<std::int64_t>(
                    next_below(static_cast<std::uint64_t>(hi - lo + 1)));
}

double Rng::next_double() {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
}

float Rng::next_float(float lo, float hi) {
    return lo + static_cast<float>(next_double()) * (hi - lo);
}

double Rng::next_gaussian() {
    double u1 = next_double();
    double u2 = next_double();
    if (u1 < 1e-300) u1 = 1e-300;
    return std::sqrt(-2.0 * std::log(u1)) * std::cos(2.0 * M_PI * u2);
}

std::uint64_t hash_mix(std::uint64_t a, std::uint64_t b) {
    std::uint64_t x = a ^ (b + 0x9e3779b97f4a7c15ull + (a << 6) + (a >> 2));
    return splitmix64(x);
}

double hash_jitter(std::uint64_t seed, std::uint64_t salt, double amplitude) {
    const std::uint64_t h = hash_mix(seed, salt);
    const double unit = static_cast<double>(h >> 11) * 0x1.0p-53; // [0,1)
    return (2.0 * unit - 1.0) * amplitude;
}

} // namespace powergear::util
