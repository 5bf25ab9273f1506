#include "dse/pareto/archive.hpp"

#include <cmath>
#include <iterator>

namespace powergear::dse {

bool ParetoArchive::insert(const Point& p) {
    if (!std::isfinite(p.latency) || !std::isfinite(p.power)) return false;
    auto at = front_.lower_bound(p.latency);
    // Predecessor probe: the nearest frontier point at strictly lower
    // latency has the lowest power among all of them (invariant), so one
    // comparison decides dominance by the entire lower-latency side.
    if (at != front_.begin()) {
        const auto pred = std::prev(at);
        if (pred->second.power <= p.power) return false;
    }
    if (at != front_.end() && at->first == p.latency) {
        Point& q = at->second;
        if (p.power > q.power || (p.power == q.power && p.index >= q.index))
            return false;
        const bool improved = p.power < q.power;
        q = p;
        if (!improved) return true; // equal objectives, lower index wins
        ++at;
    } else {
        at = std::next(front_.emplace_hint(at, p.latency, p));
    }
    // Erase the successors p now dominates (higher latency, power >= p's).
    // Each archived point is erased at most once over the whole stream, so
    // this loop is amortized O(1) per insert.
    while (at != front_.end() && at->second.power >= p.power)
        at = front_.erase(at);
    return true;
}

std::vector<Point> ParetoArchive::front() const {
    // Keys are unique latencies in ascending order, so map order already is
    // (latency, power, index) order.
    std::vector<Point> out;
    out.reserve(front_.size());
    for (const auto& [lat, pt] : front_) out.push_back(pt);
    return out;
}

} // namespace powergear::dse
