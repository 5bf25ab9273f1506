// Reference oracle for sim::ActivityOracle (test-only).
//
// The activity-extraction algorithm as it stood before the single-pass
// oracle in src/sim: per-replica execution-index lists built with div/mod
// per trace element, one scan per (op) and per (op, operand), and the three
// pin mappings (same loop chain, enclosing-loop prefix, general projection
// with final-iteration resolution) applied element by element. Kept
// verbatim so parity tests can demand bit-identical DirStats and sequences
// from the library on every pin.
//
// Interface matches sim/activity.hpp. Unlike the library it does not check
// the loop-nest depth: callers keep nests within kMaxChainDepth.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "hls/elaborate.hpp"
#include "sim/activity.hpp"
#include "sim/interpreter.hpp"

namespace powergear::sim::ref {

using sim::DirStats;

class ActivityOracle {
public:
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

private:
    /// Deepest loop nesting the oracle supports (Polybench needs 3).
    static constexpr int kMaxChainDepth = 16;

    struct ChainInfo {
        std::vector<int> loops;   ///< outermost first
        std::vector<int> trips;
        std::vector<int> unrolls;
    };

    /// Decompose execution index s into loop coordinates (caller buffer).
    void coords_of(const ChainInfo& ci, std::int64_t s, int* coords) const;
    /// Replica handled at coordinates (coord % unroll digits composed).
    int replica_at(const ChainInfo& ci, const int* coords) const;

    /// Execution indices handled by (instr, replica); built lazily.
    const std::vector<std::int64_t>& executions(int instr, int replica) const;

    /// Iterate the execution indices of (instr, replica) without
    /// materializing a list for the unreplicated common case.
    template <typename Fn>
    void for_each_execution(int instr, int replica, Fn&& visit) const;

    /// Stream the values consumed via one pin without materializing them.
    template <typename Fn>
    void visit_consumed(int op_id, int operand_index, Fn&& visit) const;

    const ir::Function& fn_;
    const hls::ElabGraph& elab_;
    const Trace& trace_;
    std::int64_t latency_;
    std::vector<ChainInfo> chains_; ///< per instruction
    mutable std::vector<std::vector<std::vector<std::int64_t>>> exec_cache_;
    mutable std::vector<std::optional<DirStats>> produced_cache_;
    mutable std::map<std::pair<int, int>, DirStats> consumed_cache_;
};

} // namespace powergear::sim::ref
