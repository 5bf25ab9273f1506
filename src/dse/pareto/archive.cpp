#include "dse/pareto/archive.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace powergear::dse {

namespace {

/// First epsilon level engaged when a max_size cap forces escalation and no
/// explicit epsilon was configured. Power of two, so repeated doubling
/// stays exactly representable.
constexpr double kFirstEpsilon = 1.0 / 1024.0;

/// Grid floor: objectives are physical (cycles, watts) and non-negative;
/// zero would put log() at -inf, so values are clamped to this before
/// boxing. Points this small are indistinguishable from zero anyway.
constexpr double kGridFloor = 1e-300;

} // namespace

ParetoArchive::ParetoArchive(ArchiveConfig cfg) : cfg_(cfg) {
    if (!std::isfinite(cfg_.epsilon) || cfg_.epsilon < 0.0)
        throw std::invalid_argument(
            "ParetoArchive: epsilon must be finite and >= 0");
    if (cfg_.epsilon > 0.0) {
        eps_ = cfg_.epsilon;
        coverage_ = 1.0 + eps_;
    }
}

std::size_t ParetoArchive::size() const {
    return eps_ == 0.0 ? exact_.size() : grid_.size();
}

bool ParetoArchive::insert(const Point& p) {
    if (!std::isfinite(p.latency) || !std::isfinite(p.power)) return false;
    ++inserted_;
    const bool changed = eps_ == 0.0 ? insert_exact(p) : insert_grid(p);
    if (changed) enforce_cap();
    return changed;
}

bool ParetoArchive::insert_exact(const Point& p) {
    auto at = exact_.lower_bound(p.latency);
    // Predecessor probe: the nearest frontier point at strictly lower
    // latency has the lowest power among all of them (invariant), so one
    // comparison decides dominance by the entire lower-latency side.
    if (at != exact_.begin()) {
        const auto pred = std::prev(at);
        if (pred->second.power <= p.power) return false;
    }
    if (at != exact_.end() && at->first == p.latency) {
        Point& q = at->second;
        if (p.power > q.power || (p.power == q.power && p.index >= q.index))
            return false;
        const bool improved = p.power < q.power;
        q = p;
        if (!improved) return true; // equal objectives, lower index wins
        ++at;
    } else {
        at = std::next(exact_.emplace_hint(at, p.latency, p));
    }
    // Erase the successors p now dominates (higher latency, power >= p's).
    // Each archived point is erased at most once over the whole stream, so
    // this loop is amortized O(1) per insert.
    while (at != exact_.end() && at->second.power >= p.power)
        at = exact_.erase(at);
    return true;
}

std::int64_t ParetoArchive::cell(double v) const {
    const double clamped = std::max(v, kGridFloor);
    return static_cast<std::int64_t>(
        std::floor(std::log(clamped) / std::log1p(eps_)));
}

bool ParetoArchive::insert_grid(const Point& p) {
    // Same algorithm as insert_exact, on (1+eps)-box coordinates: dominance
    // is decided between boxes, and a box keeps the (latency, power,
    // index)-minimal point it has seen as its representative so the final
    // frontier is independent of insertion order.
    const std::int64_t lat_cell = cell(p.latency);
    const std::int64_t pow_cell = cell(p.power);
    auto at = grid_.lower_bound(lat_cell);
    if (at != grid_.begin()) {
        const auto pred = std::prev(at);
        if (pred->second.power_cell <= pow_cell) return false;
    }
    if (at != grid_.end() && at->first == lat_cell) {
        Box& box = at->second;
        if (pow_cell > box.power_cell) return false;
        if (pow_cell == box.power_cell) {
            if (!point_less(p, box.rep)) return false;
            box.rep = p;
            return true;
        }
        box.power_cell = pow_cell;
        box.rep = p;
        ++at;
    } else {
        at = std::next(grid_.emplace_hint(at, lat_cell, Box{pow_cell, p}));
    }
    while (at != grid_.end() && at->second.power_cell >= pow_cell)
        at = grid_.erase(at);
    return true;
}

void ParetoArchive::escalate() {
    std::vector<Point> kept;
    kept.reserve(size());
    if (eps_ == 0.0) {
        for (const auto& [lat, pt] : exact_) kept.push_back(pt);
        exact_.clear();
        eps_ = std::max(cfg_.epsilon, kFirstEpsilon);
    } else {
        for (const auto& [lat_cell, box] : grid_) kept.push_back(box.rep);
        grid_.clear();
        eps_ *= 2.0;
    }
    // A point dropped at the previous level was within the old factor of a
    // survivor; that survivor may itself be dropped now, so the bound
    // compounds multiplicatively per level.
    coverage_ *= 1.0 + eps_;
    for (const Point& p : kept) insert_grid(p);
}

void ParetoArchive::enforce_cap() {
    if (cfg_.max_size == 0) return;
    // Each doubling of epsilon roughly halves the number of distinguishable
    // latency boxes, so this terminates (in the limit the grid collapses to
    // a single box).
    while (size() > cfg_.max_size) escalate();
}

std::vector<Point> ParetoArchive::front() const {
    std::vector<Point> out;
    out.reserve(size());
    if (eps_ == 0.0) {
        for (const auto& [lat, pt] : exact_) out.push_back(pt);
    } else {
        for (const auto& [lat_cell, box] : grid_) out.push_back(box.rep);
    }
    std::sort(out.begin(), out.end(), point_less);
    return out;
}

} // namespace powergear::dse
