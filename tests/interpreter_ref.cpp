#include "interpreter_ref.hpp"

#include <stdexcept>

namespace powergear::sim::ref {

using ir::Opcode;

namespace {

std::uint32_t mask_to(std::uint32_t v, int bw) {
    return bw >= 32 ? v : (v & ((1u << bw) - 1u));
}

std::int32_t as_signed(std::uint32_t v, int bw) {
    if (bw >= 32) return static_cast<std::int32_t>(v);
    const std::uint32_t sign = 1u << (bw - 1);
    const std::uint32_t m = (1u << bw) - 1u;
    v &= m;
    return (v & sign) ? static_cast<std::int32_t>(v | ~m) : static_cast<std::int32_t>(v);
}

} // namespace

Interpreter::Interpreter(const ir::Function& fn) : fn_(fn) {
    memory_.resize(fn.arrays.size());
    for (std::size_t a = 0; a < fn.arrays.size(); ++a)
        memory_[a].assign(static_cast<std::size_t>(fn.arrays[a].num_elements()), 0);
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
    Trace trace;
    trace.values.resize(fn_.instrs.size());

    std::vector<std::uint32_t> cur(fn_.instrs.size(), 0);

    auto flat_address = [&](const ir::Instr& gep) -> std::size_t {
        const ir::ArrayDecl& decl = fn_.arrays[static_cast<std::size_t>(gep.array)];
        std::size_t addr = 0;
        for (std::size_t d = 0; d < decl.dims.size(); ++d) {
            addr = addr * static_cast<std::size_t>(decl.dims[d]) +
                   static_cast<std::size_t>(
                       cur[static_cast<std::size_t>(gep.operands[d])] %
                       static_cast<std::uint32_t>(decl.dims[d]));
        }
        return addr;
    };

    auto exec_instr = [&](int id) {
        const ir::Instr& in = fn_.instr(id);
        const auto opnd = [&](int k) {
            return cur[static_cast<std::size_t>(in.operands[static_cast<std::size_t>(k)])];
        };
        const auto sopnd = [&](int k) {
            const ir::Instr& p = fn_.instr(in.operands[static_cast<std::size_t>(k)]);
            return as_signed(opnd(k), p.bitwidth);
        };
        std::uint32_t result = 0;
        bool has_value = true;
        switch (in.op) {
            case Opcode::Const:
                result = mask_to(static_cast<std::uint32_t>(in.imm), in.bitwidth);
                break;
            case Opcode::IndVar:
                result = cur[static_cast<std::size_t>(id)]; // set by the loop walk below
                break;
            case Opcode::Add: result = opnd(0) + opnd(1); break;
            case Opcode::Sub: result = opnd(0) - opnd(1); break;
            case Opcode::Mul: result = opnd(0) * opnd(1); break;
            case Opcode::Div: {
                const std::int32_t d = sopnd(1);
                // INT32_MIN / -1 overflows: the quotient wraps.
                result = d == 0    ? 0u
                         : d == -1 ? 0u - static_cast<std::uint32_t>(sopnd(0))
                                   : static_cast<std::uint32_t>(sopnd(0) / d);
                break;
            }
            case Opcode::Rem: {
                const std::int32_t d = sopnd(1);
                result = d == 0 || d == -1
                             ? 0u
                             : static_cast<std::uint32_t>(sopnd(0) % d);
                break;
            }
            case Opcode::And: result = opnd(0) & opnd(1); break;
            case Opcode::Or: result = opnd(0) | opnd(1); break;
            case Opcode::Xor: result = opnd(0) ^ opnd(1); break;
            case Opcode::Shl: result = opnd(0) << (opnd(1) & 31u); break;
            case Opcode::LShr: result = opnd(0) >> (opnd(1) & 31u); break;
            case Opcode::AShr:
                result = static_cast<std::uint32_t>(sopnd(0) >> (opnd(1) & 31u));
                break;
            case Opcode::ICmp: {
                const std::int32_t a = sopnd(0), c = sopnd(1);
                switch (static_cast<ir::Pred>(in.imm)) {
                    case ir::Pred::EQ: result = a == c; break;
                    case ir::Pred::NE: result = a != c; break;
                    case ir::Pred::SLT: result = a < c; break;
                    case ir::Pred::SLE: result = a <= c; break;
                    case ir::Pred::SGT: result = a > c; break;
                    case ir::Pred::SGE: result = a >= c; break;
                }
                break;
            }
            case Opcode::Select: result = opnd(0) ? opnd(1) : opnd(2); break;
            case Opcode::Trunc: result = opnd(0); break; // masked below
            case Opcode::ZExt: {
                const ir::Instr& p = fn_.instr(in.operands[0]);
                result = mask_to(opnd(0), p.bitwidth);
                break;
            }
            case Opcode::SExt: {
                const ir::Instr& p = fn_.instr(in.operands[0]);
                result = static_cast<std::uint32_t>(as_signed(opnd(0), p.bitwidth));
                break;
            }
            case Opcode::GetElementPtr:
                result = static_cast<std::uint32_t>(flat_address(in));
                break;
            case Opcode::Load: {
                const ir::Instr& gep = fn_.instr(in.operands[0]);
                result =
                    memory_[static_cast<std::size_t>(in.array)][flat_address(gep)];
                break;
            }
            case Opcode::Store: {
                const ir::Instr& gep = fn_.instr(in.operands[0]);
                const std::uint32_t v = mask_to(opnd(1), in.bitwidth);
                memory_[static_cast<std::size_t>(in.array)][flat_address(gep)] = v;
                result = v; // record the written value
                break;
            }
            case Opcode::Alloca:
            case Opcode::Ret:
                has_value = false;
                break;
        }
        if (has_value) {
            result = mask_to(result, in.bitwidth);
            cur[static_cast<std::size_t>(id)] = result;
            if (record)
                trace.values[static_cast<std::size_t>(id)].push_back(result);
        }
        ++trace.executed_ops;
    };

    // Recursive body execution via explicit lambda.
    auto exec_body = [&](const auto& self,
                         const std::vector<ir::BodyItem>& body) -> void {
        for (const ir::BodyItem& item : body) {
            if (item.kind == ir::BodyItem::Kind::Instruction) {
                exec_instr(item.index);
            } else {
                const ir::Loop& loop = fn_.loop(item.index);
                for (int t = 0; t < loop.trip_count; ++t) {
                    cur[static_cast<std::size_t>(loop.indvar)] =
                        static_cast<std::uint32_t>(t);
                    self(self, loop.body);
                }
            }
        }
    };
    exec_body(exec_body, fn_.top);
    return trace;
}

} // namespace powergear::sim::ref
