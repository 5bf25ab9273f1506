#include "activity_ref.hpp"

#include <algorithm>
#include <bit>

namespace powergear::sim::ref {

ActivityOracle::ActivityOracle(const ir::Function& fn, const hls::ElabGraph& elab,
                               const Trace& trace, std::int64_t latency_cycles)
    : fn_(fn), elab_(elab), trace_(trace),
      latency_(std::max<std::int64_t>(1, latency_cycles)) {
    const std::size_t n = fn.instrs.size();
    chains_.resize(n);
    exec_cache_.resize(n);
    produced_cache_.resize(static_cast<std::size_t>(elab.num_ops()));
    for (std::size_t i = 0; i < n; ++i) {
        ChainInfo& ci = chains_[i];
        ci.loops = hls::loop_chain(fn, static_cast<int>(i));
        for (int l : ci.loops) {
            ci.trips.push_back(fn.loop(l).trip_count);
            ci.unrolls.push_back(elab.directives.unroll_of(l));
        }
    }
}

void ActivityOracle::coords_of(const ChainInfo& ci, std::int64_t s,
                               int* coords) const {
    for (std::size_t k = ci.loops.size(); k-- > 0;) {
        coords[k] = static_cast<int>(s % ci.trips[k]);
        s /= ci.trips[k];
    }
}

int ActivityOracle::replica_at(const ChainInfo& ci, const int* coords) const {
    int r = 0;
    for (std::size_t k = 0; k < ci.loops.size(); ++k)
        r = r * ci.unrolls[k] + coords[k] % ci.unrolls[k];
    return r;
}

const std::vector<std::int64_t>& ActivityOracle::executions(int instr,
                                                            int replica) const {
    auto& per_instr = exec_cache_[static_cast<std::size_t>(instr)];
    if (per_instr.empty()) {
        const int reps = elab_.replication[static_cast<std::size_t>(instr)];
        per_instr.resize(static_cast<std::size_t>(std::max(1, reps)));
        const ChainInfo& ci = chains_[static_cast<std::size_t>(instr)];
        const std::int64_t total =
            static_cast<std::int64_t>(trace_.of(instr).size());
        int coords[kMaxChainDepth];
        for (std::int64_t s = 0; s < total; ++s) {
            coords_of(ci, s, coords);
            const int r = replica_at(ci, coords);
            per_instr[static_cast<std::size_t>(r)].push_back(s);
        }
    }
    return per_instr.at(static_cast<std::size_t>(replica));
}

std::vector<std::uint32_t> ActivityOracle::produced_sequence(int op_id) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    const auto& vals = trace_.of(op.instr);
    std::vector<std::uint32_t> out;
    out.reserve(vals.size());
    for_each_execution(op.instr, op.replica, [&](std::int64_t s) {
        out.push_back(vals[static_cast<std::size_t>(s)]);
    });
    return out;
}

std::vector<std::uint32_t> ActivityOracle::consumed_sequence(int op_id,
                                                             int operand_index) const {
    std::vector<std::uint32_t> out;
    visit_consumed(op_id, operand_index,
                   [&](std::uint32_t v) { out.push_back(v); });
    return out;
}

template <typename Fn>
void ActivityOracle::for_each_execution(int instr, int replica,
                                        Fn&& visit) const {
    // Unreplicated instructions execute the whole trace in order; skip the
    // execution-list materialization entirely.
    if (elab_.replication[static_cast<std::size_t>(instr)] <= 1) {
        const std::int64_t total =
            static_cast<std::int64_t>(trace_.of(instr).size());
        for (std::int64_t s = 0; s < total; ++s) visit(s);
        return;
    }
    for (std::int64_t s : executions(instr, replica)) visit(s);
}

template <typename Fn>
void ActivityOracle::visit_consumed(int op_id, int operand_index,
                                    Fn&& visit) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    const ir::Instr& in = fn_.instr(op.instr);
    const int producer = in.operands.at(static_cast<std::size_t>(operand_index));
    const auto& pvals = trace_.of(producer);
    if (pvals.empty()) return;

    const ChainInfo& c_ci = chains_[static_cast<std::size_t>(op.instr)];
    const ChainInfo& p_ci = chains_[static_cast<std::size_t>(producer)];
    const std::int64_t p_size = static_cast<std::int64_t>(pvals.size());

    // Fast path 1: identical loop chains (the common same-body pin) map
    // execution indices one-to-one.
    if (p_ci.loops == c_ci.loops) {
        for_each_execution(op.instr, op.replica, [&](std::int64_t s) {
            visit(pvals[static_cast<std::size_t>(std::min(s, p_size - 1))]);
        });
        return;
    }

    // Fast path 2: the producer's chain is a prefix of the consumer's (a
    // value defined in an enclosing loop): sp = s / (product of the deeper
    // consumer trips).
    if (p_ci.loops.size() < c_ci.loops.size() &&
        std::equal(p_ci.loops.begin(), p_ci.loops.end(), c_ci.loops.begin())) {
        std::int64_t tail = 1;
        for (std::size_t k = p_ci.loops.size(); k < c_ci.loops.size(); ++k)
            tail *= c_ci.trips[k];
        for_each_execution(op.instr, op.replica, [&](std::int64_t s) {
            visit(pvals[static_cast<std::size_t>(
                std::min(s / tail, p_size - 1))]);
        });
        return;
    }

    // General path: per-loop projection with final-iteration resolution for
    // loops enclosing only the producer (escaping values).
    int proj[kMaxChainDepth];
    for (std::size_t k = 0; k < p_ci.loops.size(); ++k) {
        proj[k] = -1;
        for (std::size_t ck = 0; ck < c_ci.loops.size(); ++ck)
            if (c_ci.loops[ck] == p_ci.loops[k]) {
                proj[k] = static_cast<int>(ck);
                break;
            }
    }
    int c_coords[kMaxChainDepth];
    for_each_execution(op.instr, op.replica, [&](std::int64_t s) {
        coords_of(c_ci, s, c_coords);
        std::int64_t sp = 0;
        for (std::size_t k = 0; k < p_ci.loops.size(); ++k) {
            const int coord =
                proj[k] >= 0 ? c_coords[proj[k]] : p_ci.trips[k] - 1;
            sp = sp * p_ci.trips[k] + coord;
        }
        visit(pvals[static_cast<std::size_t>(std::min(sp, p_size - 1))]);
    });
}

DirStats ActivityOracle::stats_of(const std::vector<std::uint32_t>& stream,
                                  std::int64_t latency) {
    DirStats st;
    st.events = static_cast<int>(stream.size());
    std::int64_t hd = 0, changes = 0;
    for (std::size_t i = 1; i < stream.size(); ++i) {
        const std::uint32_t diff = stream[i] ^ stream[i - 1];
        if (diff) {
            hd += std::popcount(diff);
            ++changes;
        }
    }
    const double L = static_cast<double>(std::max<std::int64_t>(1, latency));
    st.sa = static_cast<double>(hd) / L;
    st.ar = static_cast<double>(changes) / L;
    return st;
}

DirStats ActivityOracle::produced(int op_id) const {
    auto& memo = produced_cache_[static_cast<std::size_t>(op_id)];
    if (memo.has_value()) return *memo;

    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    const auto& vals = trace_.of(op.instr);
    DirStats st;
    std::int64_t hd = 0, changes = 0;
    std::uint32_t prev = 0;
    bool first = true;
    for_each_execution(op.instr, op.replica, [&](std::int64_t s) {
        const std::uint32_t cur = vals[static_cast<std::size_t>(s)];
        if (!first) {
            const std::uint32_t diff = cur ^ prev;
            if (diff) {
                hd += std::popcount(diff);
                ++changes;
            }
        }
        prev = cur;
        first = false;
        ++st.events;
    });
    const double L = static_cast<double>(latency_);
    st.sa = static_cast<double>(hd) / L;
    st.ar = static_cast<double>(changes) / L;
    memo = st;
    return st;
}

DirStats ActivityOracle::consumed(int op_id, int operand_index) const {
    const auto key = std::make_pair(op_id, operand_index);
    auto it = consumed_cache_.find(key);
    if (it != consumed_cache_.end()) return it->second;

    DirStats st;
    std::int64_t hd = 0, changes = 0;
    std::uint32_t prev = 0;
    bool first = true;
    visit_consumed(op_id, operand_index, [&](std::uint32_t cur) {
        if (!first) {
            const std::uint32_t diff = cur ^ prev;
            if (diff) {
                hd += std::popcount(diff);
                ++changes;
            }
        }
        prev = cur;
        first = false;
        ++st.events;
    });
    const double L = static_cast<double>(latency_);
    st.sa = static_cast<double>(hd) / L;
    st.ar = static_cast<double>(changes) / L;
    consumed_cache_.emplace(key, st);
    return st;
}

} // namespace powergear::sim::ref
