#include "sim/interpreter.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"

namespace powergear::sim {

using ir::Opcode;

/// Lowered operation kinds: the value-producing IR opcodes (ICmp split by
/// predicate; Trunc, ZExt and IndVar folded into a masked Copy), GepLoad and
/// GepStore for a GEP fused with the access right after it, and loop
/// control. Alloca and Ret lower to nothing.
enum class Interpreter::Kind : std::uint8_t {
    Const, Copy, Add, Sub, Mul, Div, Rem, And, Or, Xor, Shl, LShr, AShr,
    Eq, Ne, Slt, Sle, Sgt, Sge, Select, SExt,
    Gep, Load, Store, GepLoad, GepStore,
    LoopBegin, LoopEnd,
};

namespace {

std::uint32_t mask_of(int bw) {
    return bw >= 32 ? 0xffffffffu : ((1u << bw) - 1u);
}

/// Shift pair that sign-extends a `bw`-bit value held in 32 bits.
std::uint8_t sign_shift(int bw) {
    return static_cast<std::uint8_t>(32 - std::min(bw, 32));
}

std::int32_t sext(std::uint32_t v, std::uint8_t shift) {
    return static_cast<std::int32_t>(v << shift) >> shift;
}

[[noreturn]] void malformed(int id, const std::string& what) {
    throw std::invalid_argument("Interpreter: instr %" + std::to_string(id) +
                                ": " + what);
}

} // namespace

Interpreter::Interpreter(const ir::Function& fn) : fn_(fn) {
    memory_.resize(fn.arrays.size());
    for (std::size_t a = 0; a < fn.arrays.size(); ++a)
        memory_[a].assign(static_cast<std::size_t>(fn.arrays[a].num_elements()), 0);
    stream_sizes_.assign(fn.instrs.size(), 0);
    std::vector<bool> open_loops(fn.loops.size(), false);
    lower(fn.top, 1, open_loops);
}

// Appends one body's ops. `mult` is the product of the enclosing trip
// counts: how often each statement of this body executes per run. The IR
// has no data-dependent control flow, so summing it over an instruction's
// places in the tree sizes its trace stream exactly.
void Interpreter::lower(const std::vector<ir::BodyItem>& body, std::int64_t mult,
                        std::vector<bool>& open_loops) {
    for (std::size_t k = 0; k < body.size(); ++k) {
        const ir::BodyItem& item = body[k];
        if (item.kind == ir::BodyItem::Kind::Instruction) {
            const ir::Instr& in = fn_.instr(item.index);
            // A GEP directly before its Load/Store hands over its address
            // (no statement in between can change the indices), unless it
            // indexes with its own value.
            bool fused = false;
            if ((in.op == Opcode::Load || in.op == Opcode::Store) && k > 0 &&
                !in.operands.empty() &&
                body[k - 1].kind == ir::BodyItem::Kind::Instruction &&
                body[k - 1].index == in.operands[0]) {
                const ir::Instr& gep = fn_.instr(in.operands[0]);
                fused = gep.op == Opcode::GetElementPtr &&
                        std::find(gep.operands.begin(), gep.operands.end(),
                                  in.operands[0]) == gep.operands.end();
            }
            if (lower_instr(item.index, fused))
                stream_sizes_[static_cast<std::size_t>(item.index)] += mult;
            executed_ops_ += mult;
            continue;
        }
        const ir::Loop& loop = fn_.loop(item.index);
        const std::size_t l = static_cast<std::size_t>(item.index);
        if (open_loops[l])
            throw std::invalid_argument("Interpreter: loop " + loop.name +
                                        " nests inside itself");
        if (loop.indvar < 0 || loop.indvar >= static_cast<int>(fn_.instrs.size()))
            throw std::invalid_argument("Interpreter: loop " + loop.name +
                                        " has no induction variable");
        const std::int64_t trips = std::max(loop.trip_count, 0);
        if (trips > 0 && mult > std::numeric_limits<std::int64_t>::max() / trips)
            throw std::length_error("Interpreter: dynamic op count overflows");
        const std::int64_t inner = mult * trips;
        Op begin;
        begin.kind = Kind::LoopBegin;
        begin.dst = num_loop_slots_++;
        begin.a = loop.indvar;
        begin.b = loop.trip_count;
        const std::size_t begin_pc = program_.size();
        program_.push_back(begin);
        open_loops[l] = true;
        lower(loop.body, inner, open_loops);
        open_loops[l] = false;
        Op end = begin;
        end.kind = Kind::LoopEnd;
        end.c = static_cast<std::int32_t>(begin_pc + 1); // back edge
        program_.push_back(end);
        program_[begin_pc].c = static_cast<std::int32_t>(program_.size()); // exit
    }
}

// Appends the op of one instruction; false for Alloca/Ret, which produce
// no value and no op. Operand ids, array ids and widths are checked here
// so run() can index without checks.
bool Interpreter::lower_instr(int id, bool fused) {
    const ir::Instr& in = fn_.instr(id);
    const auto operand = [&](std::size_t k) {
        if (k >= in.operands.size()) malformed(id, "missing operand");
        const int o = in.operands[k];
        if (o < 0 || o >= static_cast<int>(fn_.instrs.size()))
            malformed(id, "operand out of range");
        if (fn_.instr(o).bitwidth < 1) malformed(o, "bitwidth < 1");
        return o;
    };
    const auto shift = [&](std::size_t k) {
        return sign_shift(fn_.instr(operand(k)).bitwidth);
    };
    // Address of a GEP, as a slice of gep_indices_ taken by `op`.
    const auto address_of = [&](int gep_id, Op& op) {
        const ir::Instr& gep = fn_.instr(gep_id);
        if (gep.array < 0 || gep.array >= static_cast<int>(fn_.arrays.size()))
            malformed(gep_id, "invalid array ref");
        const ir::ArrayDecl& decl = fn_.arrays[static_cast<std::size_t>(gep.array)];
        if (gep.operands.size() < decl.dims.size())
            malformed(gep_id, "GEP index count < array rank");
        op.gep = static_cast<std::int32_t>(gep_indices_.size());
        op.rank = static_cast<std::int32_t>(decl.dims.size());
        for (std::size_t d = 0; d < decl.dims.size(); ++d) {
            const int o = gep.operands[d];
            if (o < 0 || o >= static_cast<int>(fn_.instrs.size()))
                malformed(gep_id, "operand out of range");
            if (decl.dims[d] < 1) malformed(gep_id, "array dimension < 1");
            gep_indices_.push_back(
                GepIndex{o, static_cast<std::uint32_t>(decl.dims[d])});
        }
    };
    // The accessed array; every address of the GEP must fall inside it.
    const auto array = [&] {
        if (in.array < 0 || in.array >= static_cast<int>(fn_.arrays.size()))
            malformed(id, "invalid array ref");
        const int gep_array = fn_.instr(in.operands[0]).array;
        if (fn_.arrays[static_cast<std::size_t>(in.array)].num_elements() <
            fn_.arrays[static_cast<std::size_t>(gep_array)].num_elements())
            malformed(id, "array smaller than its GEP's");
        return in.array;
    };

    if (in.op == Opcode::Alloca || in.op == Opcode::Ret) return false;
    if (in.bitwidth < 1) malformed(id, "bitwidth < 1");
    Op op;
    op.dst = id;
    op.mask = mask_of(in.bitwidth);
    const auto binary = [&](Kind kind) {
        op.kind = kind;
        op.a = operand(0);
        op.b = operand(1);
        op.sh0 = shift(0);
        op.sh1 = shift(1);
    };
    switch (in.op) {
        case Opcode::Const:
            op.kind = Kind::Const;
            op.a = static_cast<std::int32_t>(static_cast<std::uint32_t>(in.imm));
            break;
        case Opcode::IndVar: // set by the loop ops
            op.kind = Kind::Copy;
            op.a = id;
            break;
        case Opcode::Add: binary(Kind::Add); break;
        case Opcode::Sub: binary(Kind::Sub); break;
        case Opcode::Mul: binary(Kind::Mul); break;
        case Opcode::Div: binary(Kind::Div); break;
        case Opcode::Rem: binary(Kind::Rem); break;
        case Opcode::And: binary(Kind::And); break;
        case Opcode::Or: binary(Kind::Or); break;
        case Opcode::Xor: binary(Kind::Xor); break;
        case Opcode::Shl: binary(Kind::Shl); break;
        case Opcode::LShr: binary(Kind::LShr); break;
        case Opcode::AShr: binary(Kind::AShr); break;
        case Opcode::ICmp:
            switch (static_cast<ir::Pred>(in.imm)) {
                case ir::Pred::EQ: binary(Kind::Eq); break;
                case ir::Pred::NE: binary(Kind::Ne); break;
                case ir::Pred::SLT: binary(Kind::Slt); break;
                case ir::Pred::SLE: binary(Kind::Sle); break;
                case ir::Pred::SGT: binary(Kind::Sgt); break;
                case ir::Pred::SGE: binary(Kind::Sge); break;
                default: op.kind = Kind::Const; break; // unknown predicate: 0
            }
            break;
        case Opcode::Select:
            op.kind = Kind::Select;
            op.a = operand(0);
            op.b = operand(1);
            op.c = operand(2);
            break;
        case Opcode::Trunc:
            op.kind = Kind::Copy;
            op.a = operand(0);
            break;
        case Opcode::ZExt:
            op.kind = Kind::Copy;
            op.a = operand(0);
            op.mask &= mask_of(fn_.instr(op.a).bitwidth);
            break;
        case Opcode::SExt:
            op.kind = Kind::SExt;
            op.a = operand(0);
            op.sh0 = shift(0);
            break;
        case Opcode::GetElementPtr:
            op.kind = Kind::Gep;
            address_of(id, op);
            break;
        case Opcode::Load:
        case Opcode::Store:
            if (fused) {
                // Fold into the GEP op just emitted: one op computes the
                // address, records the GEP and performs the access.
                Op& pair = program_.back();
                pair.kind = in.op == Opcode::Load ? Kind::GepLoad : Kind::GepStore;
                pair.aux = pair.mask;
                pair.a = pair.dst;
                pair.dst = id;
                pair.mask = op.mask;
                if (in.op == Opcode::Store) pair.b = operand(1);
                pair.c = array();
                return true;
            }
            op.kind = in.op == Opcode::Load ? Kind::Load : Kind::Store;
            address_of(operand(0), op);
            if (in.op == Opcode::Store) op.b = operand(1);
            op.c = array();
            break;
        case Opcode::Alloca:
        case Opcode::Ret:
            break; // handled above
    }
    program_.push_back(op);
    return true;
}

void Interpreter::set_array(int array_id, std::vector<std::uint32_t> data) {
    auto& mem = memory_.at(static_cast<std::size_t>(array_id));
    if (data.size() != mem.size())
        throw std::invalid_argument("Interpreter::set_array: size mismatch");
    mem = std::move(data);
}

const std::vector<std::uint32_t>& Interpreter::array(int array_id) const {
    return memory_.at(static_cast<std::size_t>(array_id));
}

Trace Interpreter::run(bool record) {
    const obs::Scope obs_scope(obs::Phase::SimTrace);
    const std::size_t n = fn_.instrs.size();
    Trace trace;
    trace.values.resize(n);
    trace.executed_ops = executed_ops_;

    // Per-instruction write cursors into exactly-sized streams.
    std::vector<std::uint32_t*> out(record ? n : 0, nullptr);
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (stream_sizes_[i] == 0) continue;
        trace.values[i].resize(static_cast<std::size_t>(stream_sizes_[i]));
        out[i] = trace.values[i].data();
    }
    std::vector<std::uint32_t*> mem(memory_.size());
    for (std::size_t a = 0; a < memory_.size(); ++a) mem[a] = memory_[a].data();
    std::vector<std::int32_t> iteration(static_cast<std::size_t>(num_loop_slots_), 0);
    std::vector<std::uint32_t> cur(n, 0);

    std::uint32_t* const v = cur.data();
    const GepIndex* const indices = gep_indices_.data();
    const auto address = [&](const Op& op) {
        std::size_t addr = 0;
        for (const GepIndex* g = indices + op.gep; g != indices + op.gep + op.rank;
             ++g) {
            const std::uint32_t x = v[g->operand];
            addr = addr * g->dim + (x < g->dim ? x : x % g->dim);
        }
        return addr;
    };

    const Op* const program = program_.data();
    const std::size_t end = program_.size();
    for (std::size_t pc = 0; pc < end;) {
        const Op& op = program[pc];
        std::uint32_t r = 0;
        switch (op.kind) {
            case Kind::LoopBegin:
                if (op.b <= 0) {
                    pc = static_cast<std::size_t>(op.c);
                    continue;
                }
                iteration[static_cast<std::size_t>(op.dst)] = 0;
                v[op.a] = 0;
                ++pc;
                continue;
            case Kind::LoopEnd: {
                const std::int32_t t = ++iteration[static_cast<std::size_t>(op.dst)];
                if (t < op.b) {
                    v[op.a] = static_cast<std::uint32_t>(t);
                    pc = static_cast<std::size_t>(op.c);
                } else {
                    ++pc;
                }
                continue;
            }
            case Kind::Const: r = static_cast<std::uint32_t>(op.a); break;
            case Kind::Copy: r = v[op.a]; break;
            case Kind::Add: r = v[op.a] + v[op.b]; break;
            case Kind::Sub: r = v[op.a] - v[op.b]; break;
            case Kind::Mul: r = v[op.a] * v[op.b]; break;
            case Kind::Div: {
                // x / 0 is 0; INT32_MIN / -1 wraps instead of trapping.
                const std::int32_t x = sext(v[op.a], op.sh0);
                const std::int32_t d = sext(v[op.b], op.sh1);
                r = d == 0    ? 0u
                    : d == -1 ? 0u - static_cast<std::uint32_t>(x)
                              : static_cast<std::uint32_t>(x / d);
                break;
            }
            case Kind::Rem: {
                const std::int32_t x = sext(v[op.a], op.sh0);
                const std::int32_t d = sext(v[op.b], op.sh1);
                r = d == 0 || d == -1 ? 0u : static_cast<std::uint32_t>(x % d);
                break;
            }
            case Kind::And: r = v[op.a] & v[op.b]; break;
            case Kind::Or: r = v[op.a] | v[op.b]; break;
            case Kind::Xor: r = v[op.a] ^ v[op.b]; break;
            case Kind::Shl: r = v[op.a] << (v[op.b] & 31u); break;
            case Kind::LShr: r = v[op.a] >> (v[op.b] & 31u); break;
            case Kind::AShr:
                r = static_cast<std::uint32_t>(sext(v[op.a], op.sh0) >>
                                               (v[op.b] & 31u));
                break;
            case Kind::Eq: r = sext(v[op.a], op.sh0) == sext(v[op.b], op.sh1); break;
            case Kind::Ne: r = sext(v[op.a], op.sh0) != sext(v[op.b], op.sh1); break;
            case Kind::Slt: r = sext(v[op.a], op.sh0) < sext(v[op.b], op.sh1); break;
            case Kind::Sle: r = sext(v[op.a], op.sh0) <= sext(v[op.b], op.sh1); break;
            case Kind::Sgt: r = sext(v[op.a], op.sh0) > sext(v[op.b], op.sh1); break;
            case Kind::Sge: r = sext(v[op.a], op.sh0) >= sext(v[op.b], op.sh1); break;
            case Kind::Select: r = v[op.a] ? v[op.b] : v[op.c]; break;
            case Kind::SExt: r = static_cast<std::uint32_t>(sext(v[op.a], op.sh0)); break;
            case Kind::Gep: r = static_cast<std::uint32_t>(address(op)); break;
            case Kind::Load: r = mem[op.c][address(op)]; break;
            case Kind::Store:
                r = v[op.b] & op.mask; // record the written value
                mem[op.c][address(op)] = r;
                break;
            case Kind::GepLoad:
            case Kind::GepStore: {
                const std::size_t at = address(op);
                const std::uint32_t g = static_cast<std::uint32_t>(at) & op.aux;
                v[op.a] = g;
                if (record) *out[static_cast<std::size_t>(op.a)]++ = g;
                if (op.kind == Kind::GepLoad) {
                    r = mem[op.c][at];
                } else {
                    r = v[op.b] & op.mask;
                    mem[op.c][at] = r;
                }
                break;
            }
        }
        r &= op.mask;
        v[op.dst] = r;
        if (record) *out[static_cast<std::size_t>(op.dst)]++ = r;
        ++pc;
    }

    obs::add(obs::Phase::SimTrace, "traces");
    obs::add(obs::Phase::SimTrace, "executed_ops",
             static_cast<std::uint64_t>(trace.executed_ops));
    return trace;
}

} // namespace powergear::sim
