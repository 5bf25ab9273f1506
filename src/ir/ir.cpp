#include "ir/ir.hpp"

namespace powergear::ir {

const char* opcode_name(Opcode op) {
    switch (op) {
        case Opcode::Const: return "const";
        case Opcode::IndVar: return "indvar";
        case Opcode::Add: return "add";
        case Opcode::Sub: return "sub";
        case Opcode::Mul: return "mul";
        case Opcode::Div: return "sdiv";
        case Opcode::Rem: return "srem";
        case Opcode::And: return "and";
        case Opcode::Or: return "or";
        case Opcode::Xor: return "xor";
        case Opcode::Shl: return "shl";
        case Opcode::LShr: return "lshr";
        case Opcode::AShr: return "ashr";
        case Opcode::ICmp: return "icmp";
        case Opcode::Select: return "select";
        case Opcode::Trunc: return "trunc";
        case Opcode::ZExt: return "zext";
        case Opcode::SExt: return "sext";
        case Opcode::Alloca: return "alloca";
        case Opcode::GetElementPtr: return "getelementptr";
        case Opcode::Load: return "load";
        case Opcode::Store: return "store";
        case Opcode::Ret: return "ret";
    }
    return "?";
}

bool has_result(Opcode op) {
    switch (op) {
        case Opcode::Store:
        case Opcode::Ret:
        case Opcode::Alloca:
            return false;
        default:
            return true;
    }
}

bool is_arithmetic(Opcode op) {
    switch (op) {
        case Opcode::Add:
        case Opcode::Sub:
        case Opcode::Mul:
        case Opcode::Div:
        case Opcode::Rem:
        case Opcode::And:
        case Opcode::Or:
        case Opcode::Xor:
        case Opcode::Shl:
        case Opcode::LShr:
        case Opcode::AShr:
        case Opcode::ICmp:
        case Opcode::Select:
            return true;
        default:
            return false;
    }
}

bool is_memory(Opcode op) {
    switch (op) {
        case Opcode::Alloca:
        case Opcode::GetElementPtr:
        case Opcode::Load:
        case Opcode::Store:
            return true;
        default:
            return false;
    }
}

bool is_trivial_cast(Opcode op) {
    switch (op) {
        case Opcode::Trunc:
        case Opcode::ZExt:
        case Opcode::SExt:
            return true;
        default:
            return false;
    }
}

int opcode_count() { return static_cast<int>(Opcode::Ret) + 1; }

std::vector<int> Function::region_instrs(int loop_id) const {
    std::vector<int> out;
    for (const BodyItem& item : region(loop_id))
        if (item.kind == BodyItem::Kind::Instruction) out.push_back(item.index);
    return out;
}

bool Function::is_innermost(int loop_id) const {
    for (const BodyItem& item : loop(loop_id).body)
        if (item.kind == BodyItem::Kind::ChildLoop) return false;
    return true;
}

std::vector<int> Function::innermost_loops() const {
    std::vector<int> out;
    for (int l = 0; l < static_cast<int>(loops.size()); ++l)
        if (is_innermost(l)) out.push_back(l);
    return out;
}

} // namespace powergear::ir
