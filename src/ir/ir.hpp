// Miniature HLS intermediate representation.
//
// This IR plays the role of the LLVM IR + loop structure that Vivado HLS
// exposes to PowerGear's graph construction flow. It is SSA-valued inside a
// loop-region tree: each function holds a flat instruction pool, a tree of
// counted loops, and a top-level statement list interleaving instructions and
// loop entries. Memory is modelled with explicit array declarations accessed
// through GetElementPtr/Load/Store, matching the alloca/getelementptr pattern
// PowerGear's buffer-insertion pass matches on.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace powergear::ir {

/// Instruction opcodes. A deliberately small LLVM-flavoured set sufficient
/// for the Polybench kernels and synthetic loop nests.
enum class Opcode : std::uint8_t {
    Const,   ///< integer literal (imm holds the value)
    IndVar,  ///< loop induction variable (one per loop; value = iteration)
    Add, Sub, Mul, Div, Rem,
    And, Or, Xor, Shl, LShr, AShr,
    ICmp,    ///< integer comparison; imm holds the predicate
    Select,  ///< operands = {cond, true_val, false_val}
    Trunc, ZExt, SExt,
    Alloca,          ///< declares storage for an internal array (array field)
    GetElementPtr,   ///< address computation; operands = indices
    Load,            ///< operands = {gep}
    Store,           ///< operands = {gep, value}
    Ret,             ///< optional terminator (no result)
};

/// ICmp predicates (imm field of an ICmp instruction).
enum class Pred : std::int64_t { EQ = 0, NE, SLT, SLE, SGT, SGE };

/// Human-readable opcode mnemonic ("add", "getelementptr", ...).
const char* opcode_name(Opcode op);

/// True for value-producing opcodes (everything except Store/Ret/Alloca).
bool has_result(Opcode op);

/// Arithmetic (A) vs non-arithmetic (N) classification used by the graph
/// construction flow for relation typing (A->A, A->N, N->A, N->N).
bool is_arithmetic(Opcode op);

/// Memory-access opcodes (Alloca/GetElementPtr/Load/Store).
bool is_memory(Opcode op);

/// Cast / bit-manipulation opcodes that graph trimming bypasses.
bool is_trivial_cast(Opcode op);

/// Number of distinct opcodes (for one-hot feature encoding).
int opcode_count();

/// Declared array (or scalar register when dims is empty).
struct ArrayDecl {
    std::string name;
    std::vector<int> dims;   ///< empty => scalar register (FF, not BRAM)
    int bitwidth = 32;
    bool is_external = false; ///< function I/O buffer (no alloca in body)

    /// Total element count (1 for scalar registers).
    std::int64_t num_elements() const {
        std::int64_t n = 1;
        for (int d : dims) n *= d;
        return n;
    }
    bool is_register() const { return dims.empty(); }
};

/// One SSA instruction. Identified by its index in Function::instrs.
struct Instr {
    Opcode op = Opcode::Const;
    int bitwidth = 32;             ///< result width in bits
    std::vector<int> operands;     ///< ids of operand instructions
    int array = -1;                ///< ArrayDecl index for memory opcodes
    std::int64_t imm = 0;          ///< Const value / ICmp predicate
    int parent_loop = -1;          ///< enclosing Loop index (-1 = top level)
    std::string name;              ///< optional debug name
};

/// Statement inside a loop body or the function top level.
struct BodyItem {
    enum class Kind : std::uint8_t { Instruction, ChildLoop };
    Kind kind = Kind::Instruction;
    int index = -1; ///< instruction id or Loop index depending on kind
};

/// A counted loop with a compile-time trip count (Polybench loops are affine
/// with static bounds, matching the HLS design-space setting of the paper).
struct Loop {
    std::string name;
    int trip_count = 1;
    int indvar = -1;              ///< id of the IndVar instruction
    int parent = -1;              ///< parent Loop index (-1 = top level)
    std::vector<BodyItem> body;
};

/// A single HLS function (kernel).
struct Function {
    std::string name;
    std::vector<ArrayDecl> arrays;
    std::vector<Instr> instrs;
    std::vector<Loop> loops;
    std::vector<BodyItem> top;

    const Instr& instr(int id) const { return instrs.at(static_cast<std::size_t>(id)); }
    Instr& instr(int id) { return instrs.at(static_cast<std::size_t>(id)); }
    const Loop& loop(int id) const { return loops.at(static_cast<std::size_t>(id)); }

    /// Statement list of a region: the loop body for `loop_id >= 0`, the
    /// function top level for -1. The region view the CFG builder and the
    /// dataflow passes (src/analysis/dataflow) walk.
    const std::vector<BodyItem>& region(int loop_id) const {
        return loop_id < 0 ? top : loop(loop_id).body;
    }

    /// Ids of the instructions that are direct statements of a region
    /// (child-loop bodies excluded), in statement order.
    std::vector<int> region_instrs(int loop_id) const;

    /// True when `loop_id` contains no child loops.
    bool is_innermost(int loop_id) const;

    /// Ids of loops with no children, in declaration order.
    std::vector<int> innermost_loops() const;
};

/// A module groups functions (one per kernel in this reproduction).
struct Module {
    std::string name;
    std::vector<Function> functions;
};

} // namespace powergear::ir
