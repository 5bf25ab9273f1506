// Small statistics helpers shared across model evaluation and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace powergear::util {

/// Mean of a vector; 0 for empty input.
double mean(const std::vector<double>& v);

/// Mean absolute percentage error: mean(|pred - truth| / |truth|) * 100.
/// Entries with |truth| < eps are skipped to avoid division blowup.
double mape(const std::vector<double>& pred, const std::vector<double>& truth,
            double eps = 1e-9);

/// Population Hamming weight of a 32-bit value, in SWAR arithmetic.
/// std::popcount compiles to a libgcc call (__popcountdi2) on the baseline
/// x86-64 target, which has no POPCNT; this form inlines and vectorises.
constexpr int popcount32(std::uint32_t v) {
    v -= (v >> 1) & 0x55555555u;
    v = (v & 0x33333333u) + ((v >> 2) & 0x33333333u);
    v = (v + (v >> 4)) & 0x0f0f0f0fu;
    return static_cast<int>((v * 0x01010101u) >> 24);
}

} // namespace powergear::util
