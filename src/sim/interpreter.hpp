// IR interpreter with per-instruction value tracing.
//
// Plays the role of the paper's instrumented-IR executable: the kernel runs
// on concrete stimuli and every SSA variable's value is recorded per
// execution. The traces feed Eq. (2)/(3) switching-activity extraction and
// the gate-level activity accounting of the synthetic board.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/ir.hpp"

namespace powergear::sim {

/// Recorded execution history. For value-producing instructions the entries
/// are results; for stores they are the written values; empty for Ret.
struct Trace {
    std::vector<std::vector<std::uint32_t>> values; ///< per instruction id
    std::int64_t executed_ops = 0;                  ///< dynamic op count

    const std::vector<std::uint32_t>& of(int instr) const {
        return values.at(static_cast<std::size_t>(instr));
    }
};

/// Executes one Function. Arrays persist across run() calls so multi-phase
/// kernels (init loop + compute loops) behave like the C reference.
///
/// The constructor lowers the loop-region tree once into a flat op program
/// (resolved operand slots, result masks, sign-extension shifts, GEP index
/// tables, LoopBegin/LoopEnd jumps) and sizes every instruction's trace
/// stream exactly; run() executes that program as one non-recursive loop.
class Interpreter {
public:
    explicit Interpreter(const ir::Function& fn);
    /// The interpreter keeps a reference to `fn`; binding a temporary would
    /// dangle, so rvalues are rejected at compile time.
    explicit Interpreter(ir::Function&&) = delete;

    /// Fill an array's backing store (size must match the declaration).
    void set_array(int array_id, std::vector<std::uint32_t> data);
    const std::vector<std::uint32_t>& array(int array_id) const;

    /// Execute the function once. When `record` is set, returns the full
    /// per-instruction value trace (required for activity extraction).
    Trace run(bool record = true);

private:
    enum class Kind : std::uint8_t;

    /// One lowered operation. `a`, `b`, `c` are operand slots, except: a
    /// Const holds its value in `a`; memory ops hold their array in `c`, and
    /// a fused GepLoad/GepStore its GEP's slot in `a`; LoopBegin/LoopEnd
    /// hold the induction variable, trip count and jump target in `a`, `b`,
    /// `c` and their iteration counter's index in `dst`.
    struct Op {
        Kind kind{};
        std::uint8_t sh0 = 0, sh1 = 0; ///< operand sign-extension shifts
        std::uint32_t mask = 0;        ///< result mask
        std::int32_t dst = 0;          ///< result slot = instruction id
        std::int32_t a = 0, b = 0, c = 0;
        std::int32_t gep = 0;          ///< first GepIndex of an address
        std::int32_t rank = 0;         ///< its number of indices
        std::uint32_t aux = 0;         ///< GEP result mask of a fused pair
    };
    struct GepIndex {
        std::int32_t operand;
        std::uint32_t dim;
    };

    void lower(const std::vector<ir::BodyItem>& body, std::int64_t mult,
               std::vector<bool>& open_loops);
    bool lower_instr(int id, bool fused);

    const ir::Function& fn_;
    std::vector<std::vector<std::uint32_t>> memory_; ///< per array
    std::vector<Op> program_;
    std::vector<GepIndex> gep_indices_;
    std::vector<std::int64_t> stream_sizes_; ///< per instruction id
    std::int64_t executed_ops_ = 0;
    std::int32_t num_loop_slots_ = 0;
};

} // namespace powergear::sim
