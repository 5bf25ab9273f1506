#include "hls/elaborate.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace powergear::hls {

std::vector<int> loop_chain(const ir::Function& fn, int instr) {
    std::vector<int> chain;
    for (int l = fn.instr(instr).parent_loop; l >= 0; l = fn.loop(l).parent)
        chain.push_back(l);
    std::reverse(chain.begin(), chain.end());
    return chain;
}

int replication_factor(const ir::Function& fn, const Directives& d, int instr) {
    int f = 1;
    for (int l : loop_chain(fn, instr)) f *= d.unroll_of(l);
    return f;
}

namespace {

/// Decompose a replica index into per-loop digits along `chain`
/// (outermost first, innermost varying fastest).
std::vector<int> replica_digits(const std::vector<int>& chain,
                                const Directives& d, int replica) {
    std::vector<int> digits(chain.size(), 0);
    for (std::size_t k = chain.size(); k-- > 0;) {
        const int u = d.unroll_of(chain[k]);
        digits[k] = replica % u;
        replica /= u;
    }
    return digits;
}

/// Name of entry `id` of `v`, or "#id" when out of range.
template <typename Named>
std::string name_of(const std::vector<Named>& v, int id) {
    return id >= 0 && id < static_cast<int>(v.size())
               ? v[static_cast<std::size_t>(id)].name
               : "#" + std::to_string(id);
}

/// Compose per-loop digits back into a replica index.
int compose_replica(const std::vector<int>& chain, const Directives& d,
                    const std::vector<int>& digits) {
    int r = 0;
    for (std::size_t k = 0; k < chain.size(); ++k)
        r = r * d.unroll_of(chain[k]) + digits[k];
    return r;
}

} // namespace

ElabGraph elaborate(const ir::Function& fn, const Directives& d) {
    // A factor below 1 divides by zero downstream (unroll 0 in
    // replica_digits, banks 0 in the scheduler's port model) or silently
    // drops a loop's replicas (negative unroll).
    for (const auto& [l, ld] : d.loops)
        if (ld.unroll < 1)
            throw std::invalid_argument("elaborate: loop " + name_of(fn.loops, l) +
                                        " has unroll " + std::to_string(ld.unroll) +
                                        "; it must be >= 1");
    for (const auto& [a, banks] : d.array_partition)
        if (banks < 1)
            throw std::invalid_argument("elaborate: array " + name_of(fn.arrays, a) +
                                        " has " + std::to_string(banks) +
                                        " partition banks; it must be >= 1");

    ElabGraph g;
    g.directives = d;
    const int n = static_cast<int>(fn.instrs.size());
    g.first_op_of_instr.assign(static_cast<std::size_t>(n), -1);
    g.replication.assign(static_cast<std::size_t>(n), 0);

    // Pass 1: instantiate operator replicas.
    for (int id = 0; id < n; ++id) {
        const ir::Instr& in = fn.instr(id);
        if (in.op == ir::Opcode::Ret) continue;
        const int reps = replication_factor(fn, d, id);
        g.first_op_of_instr[static_cast<std::size_t>(id)] = g.num_ops();
        g.replication[static_cast<std::size_t>(id)] = reps;
        for (int r = 0; r < reps; ++r) {
            ElabOp op;
            op.instr = id;
            op.replica = r;
            op.op = in.op;
            op.bitwidth = in.bitwidth;
            op.array = in.array;
            op.parent_loop = in.parent_loop;
            g.ops.push_back(op);
        }
    }

    // Pass 2: wire SSA def-use edges. A consumer replica connects to the
    // producer replica that shares its digits on all common ancestor loops;
    // loops enclosing only the producer resolve to their last replica (the
    // value that escapes the loop is the final iteration's).
    for (int id = 0; id < n; ++id) {
        const ir::Instr& in = fn.instr(id);
        if (in.op == ir::Opcode::Ret || in.operands.empty()) continue;
        const std::vector<int> c_chain = loop_chain(fn, id);
        const int c_reps = g.replication[static_cast<std::size_t>(id)];
        for (int r = 0; r < c_reps; ++r) {
            const std::vector<int> c_digits = replica_digits(c_chain, d, r);
            for (std::size_t k = 0; k < in.operands.size(); ++k) {
                const int p = in.operands[k];
                const std::vector<int> p_chain = loop_chain(fn, p);
                std::vector<int> p_digits(p_chain.size(), 0);
                for (std::size_t pk = 0; pk < p_chain.size(); ++pk) {
                    auto it = std::find(c_chain.begin(), c_chain.end(), p_chain[pk]);
                    if (it != c_chain.end()) {
                        p_digits[pk] =
                            c_digits[static_cast<std::size_t>(it - c_chain.begin())];
                    } else {
                        p_digits[pk] = d.unroll_of(p_chain[pk]) - 1;
                    }
                }
                ElabEdge e;
                e.src = g.op_id(p, compose_replica(p_chain, d, p_digits));
                e.dst = g.op_id(id, r);
                e.operand_index = static_cast<int>(k);
                g.edges.push_back(e);
            }
        }
    }
    return g;
}

} // namespace powergear::hls
