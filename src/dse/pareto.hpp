// Pareto-frontier computation for latency/power design space exploration.
// Both objectives are minimized.
//
// `pareto_front` is the brute-force oracle: recompute-from-scratch, O(n log n)
// per call, used by tests and by the iterative explorer (dse::Explorer).
// The streaming explorer maintains the same frontier incrementally through
// dse::ParetoArchive (src/dse/pareto/archive.hpp), which is property-tested
// for bit-identical output against this oracle.
#pragma once

#include <cstdint>
#include <vector>

namespace powergear::dse {

/// One design point in objective space (plus its identity in the space).
/// `index` is 64-bit so it can carry a raw directive-space index (mixed-radix
/// spaces overflow 32 bits long before they stop fitting in a stream).
struct Point {
    double latency = 0.0;
    double power = 0.0;
    std::int64_t index = -1; ///< design identity (e.g. index into the space)
};

/// True iff `a` dominates `b` (<= on both objectives, < on at least one).
bool dominates(const Point& a, const Point& b);

/// Deterministic total order: (latency, power, index) ascending. This is the
/// tie-break contract shared by the oracle and the incremental archive — of
/// several points with equal objectives, the lowest index survives.
bool point_less(const Point& a, const Point& b);

/// Non-dominated subset, sorted by ascending latency. Exactly-equal
/// (latency, power) duplicates are deduplicated; the survivor is the point
/// with the lowest index, independent of input order.
std::vector<Point> pareto_front(const std::vector<Point>& points);

} // namespace powergear::dse
