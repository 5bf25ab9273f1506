// Small statistics helpers shared across model evaluation and benches.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace powergear::util {

/// Mean of a vector; 0 for empty input.
double mean(const std::vector<double>& v);

/// Mean absolute percentage error (%): 100/n * sum |pred - truth| / |truth|
/// over the n entries with |truth| >= 1e-9; entries below that are skipped
/// (board power labels are never near zero), and 0 is returned when none
/// remain. Each term is computed in the element type and the terms are
/// summed in double in index order, so float callers (model estimates
/// against float labels) get exactly the float-term / double-sum result.
/// Throws std::invalid_argument on a size mismatch. Defined for T = float
/// and T = double.
template <typename T = double>
double mape(const std::vector<T>& pred, const std::vector<T>& truth);

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
