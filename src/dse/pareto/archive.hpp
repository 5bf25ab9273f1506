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
// The archive is exact: its frontier is bit-identical to the `pareto_front`
// oracle, including the lowest-index tie-break for exactly-equal points —
// the property suite in tests/test_dse.cpp asserts frontier equality and
// insertion-order invariance against randomized streams. Memory is bounded
// by the space itself: the archive holds at most one point per distinct
// latency.
#pragma once

#include <map>
#include <vector>

#include "dse/pareto.hpp"

namespace powergear::dse {

class ParetoArchive {
public:
    /// Stream one point in. Returns true when the archive changed — the
    /// point entered the frontier (possibly evicting dominated points or
    /// replacing an equal point of higher index). Non-finite coordinates
    /// are rejected (returns false) so NaN/inf can never poison the
    /// dominance order. Insert order does not affect the final frontier.
    bool insert(const Point& p);

    /// Current frontier, sorted by (latency, power, index) ascending; equals
    /// pareto_front() of every point ever inserted.
    std::vector<Point> front() const;

    std::size_t size() const { return front_.size(); }
    bool empty() const { return front_.empty(); }

private:
    /// latency -> point, power strictly decreasing in key order.
    std::map<double, Point> front_;
};

} // namespace powergear::dse
