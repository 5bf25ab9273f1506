#include "hls/scheduler.hpp"

#include <algorithm>
#include <map>

#include "hls/oplib.hpp"
#include "obs/obs.hpp"

namespace powergear::hls {

int sched_latency(const ir::Function& fn, const ElabOp& op) {
    if ((op.op == ir::Opcode::Load || op.op == ir::Opcode::Store) && op.array >= 0) {
        const ir::ArrayDecl& a = fn.arrays[static_cast<std::size_t>(op.array)];
        if (a.is_register()) return 0;
    }
    return characterize(op.op, op.bitwidth).latency;
}

bool uses_memory_port(const ir::Function& fn, const ElabOp& op) {
    if (op.op != ir::Opcode::Load && op.op != ir::Opcode::Store) return false;
    const ir::ArrayDecl& a = fn.arrays[static_cast<std::size_t>(op.array)];
    return !a.is_register();
}

RegionIndex build_region_index(const ir::Function& fn, const ElabGraph& elab) {
    RegionIndex idx;
    const int num_loops = static_cast<int>(fn.loops.size());
    idx.region_ops.assign(static_cast<std::size_t>(num_loops + 1), {});
    for (int o = 0; o < elab.num_ops(); ++o)
        idx.region_ops[static_cast<std::size_t>(
                           elab.ops[static_cast<std::size_t>(o)].parent_loop + 1)]
            .push_back(o);

    idx.preds.assign(static_cast<std::size_t>(elab.num_ops()), {});
    for (const ElabEdge& e : elab.edges) {
        if (elab.ops[static_cast<std::size_t>(e.src)].parent_loop ==
            elab.ops[static_cast<std::size_t>(e.dst)].parent_loop)
            idx.preds[static_cast<std::size_t>(e.dst)].push_back(e.src);
    }
    return idx;
}

int recurrence_mii(const ir::Function& fn, const ElabGraph& elab,
                   const std::vector<int>& member_ops,
                   const std::vector<std::vector<int>>& preds) {
    // dist[op] = longest latency from any register load to issue of op.
    std::map<int, int> dist;
    int mii = 1;
    for (int opi : member_ops) { // member_ops is in topological (id) order
        const ElabOp& op = elab.ops[static_cast<std::size_t>(opi)];
        int best = -1;
        for (int p : preds[static_cast<std::size_t>(opi)]) {
            auto it = dist.find(p);
            if (it != dist.end()) {
                const ElabOp& pop = elab.ops[static_cast<std::size_t>(p)];
                best = std::max(best, it->second + sched_latency(fn, pop));
            }
        }
        if (op.op == ir::Opcode::Load && op.array >= 0 &&
            fn.arrays[static_cast<std::size_t>(op.array)].is_register()) {
            best = std::max(best, 0);
        }
        if (best >= 0) {
            dist[opi] = best;
            if (op.op == ir::Opcode::Store && op.array >= 0 &&
                fn.arrays[static_cast<std::size_t>(op.array)].is_register()) {
                mii = std::max(mii, best + sched_latency(fn, op));
            }
        }
    }
    return std::max(1, mii);
}

int loop_recurrence_mii(const ir::Function& fn, const ElabGraph& elab,
                        int loop) {
    const RegionIndex idx = build_region_index(fn, elab);
    return recurrence_mii(fn, elab, idx.ops_of(loop), idx.preds);
}

int resource_mii(const ir::Function& fn, const ElabGraph& elab,
                 const std::vector<int>& member_ops) {
    std::map<std::pair<int, int>, int> per_bank;
    for (int opi : member_ops) {
        const ElabOp& op = elab.ops[static_cast<std::size_t>(opi)];
        if (!uses_memory_port(fn, op)) continue;
        const int banks = elab.directives.banks_of(op.array);
        ++per_bank[{op.array, bank_of(op.replica, banks)}];
    }
    int mii = 1;
    for (const auto& [key, n] : per_bank) mii = std::max(mii, (n + 1) / 2);
    return mii;
}

namespace {

struct RegionSched {
    int depth = 1;
    int ii = 1;
};

/// ASAP + memory-port-constrained schedule of one region's ops.
/// When `ii > 0` the port constraint wraps modulo ii (pipelined kernel).
RegionSched schedule_region(const ir::Function& fn, const ElabGraph& elab,
                            const std::vector<int>& member_ops,
                            const std::vector<std::vector<int>>& preds,
                            std::vector<int>& op_cycle, int ii) {
    std::map<std::pair<int, int>, std::map<int, int>> port_used; // (arr,bank)->cycle->n
    int depth = 1;
    for (int opi : member_ops) {
        const ElabOp& op = elab.ops[static_cast<std::size_t>(opi)];
        int c = 0;
        for (int p : preds[static_cast<std::size_t>(opi)]) {
            const ElabOp& pop = elab.ops[static_cast<std::size_t>(p)];
            c = std::max(c, op_cycle[static_cast<std::size_t>(p)] + sched_latency(fn, pop));
        }
        if (uses_memory_port(fn, op)) {
            const int banks = elab.directives.banks_of(op.array);
            const std::pair<int, int> key{op.array, bank_of(op.replica, banks)};
            auto& usage = port_used[key];
            auto slot = [&](int cycle) -> int& {
                return usage[ii > 0 ? cycle % ii : cycle];
            };
            while (slot(c) >= 2) ++c;
            ++slot(c);
        }
        op_cycle[static_cast<std::size_t>(opi)] = c;
        depth = std::max(depth, c + std::max(1, sched_latency(fn, op)));
    }
    RegionSched rs;
    rs.depth = depth;
    rs.ii = std::max(1, ii);
    return rs;
}

} // namespace

Schedule schedule(const ir::Function& fn, const ElabGraph& elab) {
    const obs::Scope obs_scope(obs::Phase::HlsSchedule);
    obs::add(obs::Phase::HlsSchedule, "ops_scheduled",
             static_cast<std::uint64_t>(elab.num_ops()));
    Schedule s;
    const int num_loops = static_cast<int>(fn.loops.size());
    s.loops.assign(static_cast<std::size_t>(num_loops), LoopSchedule{});
    s.op_cycle.assign(static_cast<std::size_t>(elab.num_ops()), 0);

    // Region membership and intra-region predecessor lists.
    const RegionIndex regions = build_region_index(fn, elab);
    const std::vector<std::vector<int>>& preds = regions.preds;

    // Schedule loops bottom-up (children have larger ids than parents is not
    // guaranteed in general IR, but Builder appends children after parents,
    // so reverse id order visits children first).
    for (int l = num_loops - 1; l >= 0; --l) {
        const ir::Loop& loop = fn.loop(l);
        LoopSchedule& ls = s.loops[static_cast<std::size_t>(l)];
        ls.loop = l;
        const std::vector<int>& members = regions.ops_of(l);

        const bool innermost = fn.is_innermost(l);
        const bool pipelined = innermost && elab.directives.pipelined(l);
        int ii = 0;
        if (pipelined) {
            ii = std::max(recurrence_mii(fn, elab, members, preds),
                          resource_mii(fn, elab, members));
        }
        const RegionSched rs =
            schedule_region(fn, elab, members, preds, s.op_cycle, ii);
        ls.pipelined = pipelined;
        ls.ii = pipelined ? rs.ii : rs.depth;
        ls.iteration_latency = rs.depth;

        std::int64_t child_total = 0;
        for (const ir::BodyItem& item : loop.body)
            if (item.kind == ir::BodyItem::Kind::ChildLoop)
                child_total +=
                    s.loops[static_cast<std::size_t>(item.index)].total_latency;

        // An unroll that does not divide the trip (or exceeds it) still runs
        // the remaining iterations in one more, partly filled, group.
        const int unroll = elab.directives.unroll_of(l);
        const int iters = loop.trip_count / unroll + (loop.trip_count % unroll != 0);
        if (pipelined) {
            ls.total_latency = rs.depth + static_cast<std::int64_t>(rs.ii) *
                                              std::max(0, iters - 1) + 2;
            ls.states = std::max(2, rs.ii + 1);
        } else {
            ls.total_latency =
                static_cast<std::int64_t>(iters) * (rs.depth + child_total + 1) + 1;
            ls.states = rs.depth + 1;
        }
    }

    // Top-level region.
    const RegionSched top =
        schedule_region(fn, elab, regions.ops_of(-1), preds, s.op_cycle, 0);
    std::int64_t total = top.depth;
    int states = top.depth + 1;
    for (const ir::BodyItem& item : fn.top)
        if (item.kind == ir::BodyItem::Kind::ChildLoop)
            total += s.loops[static_cast<std::size_t>(item.index)].total_latency;
    for (const LoopSchedule& ls : s.loops) states += ls.states;
    s.total_latency = total;
    s.fsm_states = states;
    return s;
}

} // namespace powergear::hls
