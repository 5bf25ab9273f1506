// Reference oracle for sim::Interpreter (test-only).
//
// The IR interpreter as it stood before the lowered flat-op program in
// src/sim: a recursive walk of the loop-region tree that looks every
// operand up in the Function, reduces each GEP index with `%` and appends
// each recorded value with push_back. Kept verbatim (apart from the signed
// INT32_MIN / -1 overflow, which both sides define the same way) so parity
// tests can demand bit-identical traces, dynamic op counts and final memory
// from the library.
//
// Interface matches sim/interpreter.hpp. Unlike the library it reports
// nothing to src/obs.
#pragma once

#include <cstdint>
#include <vector>

#include "ir/ir.hpp"
#include "sim/interpreter.hpp"

namespace powergear::sim::ref {

class Interpreter {
public:
    explicit Interpreter(const ir::Function& fn);
    explicit Interpreter(ir::Function&&) = delete;

    void set_array(int array_id, std::vector<std::uint32_t> data);
    const std::vector<std::uint32_t>& array(int array_id) const;

    Trace run(bool record = true);

private:
    const ir::Function& fn_;
    std::vector<std::vector<std::uint32_t>> memory_; ///< per array
};

} // namespace powergear::sim::ref
