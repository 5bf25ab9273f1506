// Incremental Pareto archive for streaming design space exploration.
//
// The streaming explorer (DESIGN.md §14) pushes 10^5..10^6 points through a
// frontier that must stay queryable after every insert. Recomputing
// `pareto_front` from scratch is O(n^2) over a stream; ParetoArchive keeps
// the 2-D (latency, power) frontier in a std::map keyed by latency with the
// invariant "power strictly decreases as latency increases", so one insert
// costs O(log n) for the predecessor dominance probe plus amortized O(1)
// for erasing newly-dominated successors (each point is erased at most
// once).
//
// Exact mode (epsilon == 0) is bit-identical to the `pareto_front` oracle,
// including the lowest-index tie-break for exactly-equal points — the
// property suite in tests/test_dse.cpp asserts frontier equality and
// insertion-order invariance against randomized streams.
//
// Epsilon mode (epsilon > 0, or escalated via `max_size`) is the
// bounded-memory fallback: objective space is cut into multiplicative
// (1+eps) boxes on a log grid and dominance is decided between boxes, so
// the archive holds at most one representative per non-dominated box and
// its size is bounded by the number of distinguishable latency levels,
// independent of stream length (Laumanns et al., ε-dominance archiving).
// The in-box representative is the (latency, power, index)-minimal point,
// which keeps epsilon mode insertion-order invariant too. When a `max_size`
// cap is set and the box frontier still outgrows it, epsilon doubles and
// the archive regrids in place; `coverage_bound()` reports the accumulated
// multiplicative quality factor (every dropped point is within that factor
// of a surviving representative on both objectives).
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "dse/pareto.hpp"

namespace powergear::dse {

struct ArchiveConfig {
    /// Relative box width of the ε-dominance grid; 0 selects exact mode.
    double epsilon = 0.0;
    /// Size cap (0 = unbounded). When the frontier outgrows the cap the
    /// archive switches to / coarsens epsilon mode until it fits.
    std::size_t max_size = 0;
};

class ParetoArchive {
public:
    explicit ParetoArchive(ArchiveConfig cfg = {});

    /// Stream one point in. Returns true when the archive changed — the
    /// point entered the frontier (possibly evicting dominated points or
    /// replacing an equal point of higher index). Non-finite coordinates
    /// are rejected (returns false) so NaN/inf can never poison the
    /// dominance order. Insert order does not affect the final frontier.
    bool insert(const Point& p);

    /// Current frontier, sorted by (latency, power, index) ascending. In
    /// exact mode this equals pareto_front() of every point ever inserted.
    std::vector<Point> front() const;

    std::size_t size() const;
    bool empty() const { return size() == 0; }

    /// Total insert() calls (accepted or not, excluding rejected non-finite
    /// points), for stream accounting.
    std::uint64_t inserted() const { return inserted_; }

    /// Current grid width: 0 in exact mode, otherwise the (possibly
    /// escalated) epsilon.
    double epsilon() const { return eps_; }

    /// Multiplicative quality bound: 1.0 in exact mode; after escalation,
    /// the product of (1 + eps_level) over every grid level applied, i.e.
    /// every point ever inserted is within this factor of some surviving
    /// representative on both objectives.
    double coverage_bound() const { return coverage_; }

    const ArchiveConfig& config() const { return cfg_; }

private:
    bool insert_exact(const Point& p);
    bool insert_grid(const Point& p);
    /// Box coordinate of a value on the current log grid.
    std::int64_t cell(double v) const;
    /// Coarsen epsilon (first engage, then double) and rebuild the grid.
    void escalate();
    void enforce_cap();

    ArchiveConfig cfg_;
    double eps_ = 0.0;
    double coverage_ = 1.0;
    std::uint64_t inserted_ = 0;

    /// Exact mode: latency -> point, power strictly decreasing in key order.
    std::map<double, Point> exact_;
    /// Epsilon mode: latency box -> (power box, representative), power box
    /// strictly decreasing in key order.
    struct Box {
        std::int64_t power_cell = 0;
        Point rep;
    };
    std::map<std::int64_t, Box> grid_;
};

} // namespace powergear::dse
