// Switching-activity extraction (paper Eq. 2 and Eq. 3).
//
// Given the interpreter's per-instruction value traces and an elaborated
// design, the oracle answers: for any hardware operator instance, what value
// sequence does it produce, and what sequence does it consume per operand?
// From those sequences it computes
//   SA = sum_i HD(v_i, v_{i-1}) / L      (Eq. 2, Hamming-distance toggles)
//   AR = #changes / L                    (Eq. 3, activation rate)
// where L is the scheduled design latency in cycles. Unrolled replicas see
// the iteration subsequence they execute (replica r of an f-way unrolled
// loop handles iterations congruent to r mod f), so activity features are
// directive-dependent even though the IR trace is shared.
//
// Evaluation is lazy and scans each trace once. The trace of an instruction
// is read as strided segments: an odometer over the enclosing loops steps
// once per innermost run, and within a run execution j belongs to replica
// base + j % u (u the innermost unroll; the innermost stride is 1). Runs
// merge while the base replica stays the same and u divides the segment so
// far, which on every design-space point (only innermost loops unroll) makes
// the whole trace one segment where replica d's stream is vals[d],
// vals[d+u], .... The first produced() of an instruction folds every segment
// into all its replicas with branch-free toggle sums (compile-time u for 1,
// 2, 4, 8) and the inline popcount of util/stats.hpp. A pin whose
// producer chain equals or prefixes the consumer's reuses the producer
// replica's stats with no scan: the consumed stream is the produced one with
// each value held m times (m = 1 on a shared chain; else the consumer
// replica's iteration count in the deeper loops), so SA/AR are equal and
// events scale by m. That needs full-length traces (product of the trips),
// which the interpreter always records; other pins (escaping values) are
// scanned value by value once per (instr, operand) for all replicas.
// tests/activity_ref.* keeps the original per-replica algorithm as the
// parity oracle.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "hls/elaborate.hpp"
#include "sim/interpreter.hpp"

namespace powergear::sim {

/// Directional activity statistics over one value stream.
struct DirStats {
    double sa = 0.0;  ///< switching activity: total Hamming distance / L
    double ar = 0.0;  ///< activation rate: value-change count / L
    int events = 0;   ///< stream length (executions observed)
};

class ActivityOracle {
public:
    /// Throws std::invalid_argument when a loop nest is deeper than
    /// kMaxChainDepth.
    ActivityOracle(const ir::Function& fn, const hls::ElabGraph& elab,
                   const Trace& trace, std::int64_t latency_cycles);

    /// Value stream produced by operator instance `op_id`.
    std::vector<std::uint32_t> produced_sequence(int op_id) const;

    /// Value stream consumed by `op_id` through its `operand_index`-th input.
    std::vector<std::uint32_t> consumed_sequence(int op_id, int operand_index) const;

    DirStats produced(int op_id) const;
    DirStats consumed(int op_id, int operand_index) const;

    /// Stats over an arbitrary stream (exposed for tests and the board model).
    static DirStats stats_of(const std::vector<std::uint32_t>& stream,
                             std::int64_t latency);

    std::int64_t latency() const { return latency_; }

    /// Deepest loop nesting the oracle supports (Polybench needs 3).
    static constexpr int kMaxChainDepth = 16;

private:
    struct ChainInfo {
        std::vector<int> loops;   ///< outermost first
        std::vector<int> trips;
        std::vector<int> unrolls;
        std::vector<int> span;    ///< span[k] = product of unrolls[k..]; span[depth] = 1
        bool full = false;        ///< trace length == product of trips

        /// Unroll of the innermost loop (1 outside any loop).
        int inner_unroll() const { return unrolls.empty() ? 1 : unrolls.back(); }
    };

    /// Visit the trace of `instr` in order as segments (start, length,
    /// base replica, outer loop coordinates): execution start + j belongs
    /// to replica base + j % u. Unmerged, each segment is one innermost run
    /// and the coordinates are its enclosing loops'; merged, runs that
    /// continue the replica cycle join and the coordinates are not meaningful.
    template <typename Fn>
    void segments(int instr, bool merge, Fn&& visit) const;

    /// Visit the executions of `instr` in trace order as
    /// (execution index, loop coordinates, replica).
    template <typename Fn>
    void walk(int instr, Fn&& visit) const;

    /// Visit (consumer replica, value) for every execution of `instr`,
    /// reading operand `operand_index` from its producer's trace.
    template <typename Fn>
    void visit_consumed(int instr, int operand_index, Fn&& visit) const;

    const ir::Function& fn_;
    const hls::ElabGraph& elab_;
    const Trace& trace_;
    std::int64_t latency_;
    std::vector<ChainInfo> chains_; ///< per instruction
    std::vector<int> consumed_base_; ///< per instruction: first consumed_ slot
    mutable std::vector<std::optional<DirStats>> produced_;  ///< per op
    /// Scanned pins: slot consumed_base_[instr] + operand * reps + replica.
    mutable std::vector<std::optional<DirStats>> consumed_;
};

} // namespace powergear::sim
