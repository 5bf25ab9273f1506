#include "graphgen/partition.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "hls/scheduler.hpp"

namespace powergear::graphgen {

namespace {

/// Opcodes value numbering may fuse: side-effect free, and not the memory
/// nodes whose multiplicity carries meaning.
bool pure(ir::Opcode op) {
    using enum ir::Opcode;
    return op != Load && op != Store && op != Alloca && op != IndVar && op != Ret;
}

/// Open-addressing index from short integer sequences to one int each.
class KeyIndex {
public:
    explicit KeyIndex(std::size_t expected) : slots_(std::bit_ceil(2 * expected + 16)) {}

    /// The value under `key`; a new key starts at -1.
    int& operator[](std::span<const std::int64_t> key) {
        std::uint64_t h = 0x243F6A8885A308D3ull;
        for (std::int64_t v : key)
            h = (h ^ static_cast<std::uint64_t>(v)) * 0x9E3779B97F4A7C15ull;
        h ^= h >> 29;
        if (2 * (used_ + 1) > slots_.size()) grow();
        const int len = static_cast<int>(key.size());
        for (std::size_t i = h;; ++i) {
            Slot& s = slots_[i & (slots_.size() - 1)];
            if (s.len < 0) {
                s = {h, static_cast<int>(pool_.size()), len, -1};
                pool_.insert(pool_.end(), key.begin(), key.end());
                ++used_;
                return s.value;
            }
            if (s.hash == h && s.len == len &&
                std::equal(key.begin(), key.end(), pool_.begin() + s.off))
                return s.value;
        }
    }

private:
    struct Slot {
        std::uint64_t hash = 0;
        int off = 0, len = -1, value = -1; ///< key at pool_[off, off + len); len -1: empty
    };

    void grow() {
        std::vector<Slot> old(slots_.size() * 2);
        old.swap(slots_);
        for (const Slot& s : old) {
            if (s.len < 0) continue;
            std::size_t i = s.hash;
            while (slots_[i & (slots_.size() - 1)].len >= 0) ++i;
            slots_[i & (slots_.size() - 1)] = s;
        }
    }

    std::vector<Slot> slots_;
    std::vector<std::int64_t> pool_;
    std::size_t used_ = 0;
};

/// From `level` on, an item belongs to the class named `id`.
struct Step { int level, id; };

/// Class histories of items 0, 1, ...: item i's steps, levels rising, are
/// steps[at[i] .. at[i + 1]); before its first step an item is its own class.
struct Histories {
    std::vector<Step> steps;
    std::vector<int> at{0};

    std::span<const Step> of(int i) const {
        return {steps.data() + at[i], steps.data() + at[i + 1]};
    }
    int id_at(int i, int level) const {
        int id = i;
        for (const Step& s : of(i))
            if (s.level <= level) id = s.id;
        return id;
    }
    int last(int i) const { return id_at(i, 1 << 30); }
};

/// Hash-consing of keys that change from level to level. Items arrive in
/// ascending order; a class is named by its smallest item. At level L an
/// item joins the smallest item that held its level-L key at some level <= L:
/// keys name ever coarser classes, so that item still holds it at L.
class ClassTable {
public:
    explicit ClassTable(std::size_t expected) : index_(expected) {}

    /// Resolve the open item of `h` at `starts` (a bit per level where its
    /// key changes) up to level `last`; `key_at(level)` is its key there.
    template <typename KeyAt>
    void resolve(Histories& h, std::uint32_t starts, int last, KeyAt key_at) {
        const int item = static_cast<int>(h.at.size()) - 1;
        while (starts) {
            const int lo = std::countr_zero(starts);
            starts &= starts - 1;
            const int hi = starts ? std::countr_zero(starts) - 1 : last;
            int& newest = index_[key_at(lo)];
            push(h, item, lo, item);
            // Holders run newest to oldest with rising first levels; at
            // level L the class is the oldest holder with first level <= L.
            for (int e = newest; e >= 0 && holders_[e].level <= hi; e = holders_[e].prev)
                push(h, item, std::max(holders_[e].level, lo), holders_[e].item);
            if (newest < 0 || lo < holders_[newest].level) {
                holders_.push_back({lo, item, newest});
                newest = static_cast<int>(holders_.size()) - 1;
            }
        }
        h.at.push_back(static_cast<int>(h.steps.size()));
    }

private:
    static void push(Histories& h, int item, int level, int id) {
        const std::size_t begin = static_cast<std::size_t>(h.at.back());
        if (h.steps.size() > begin && h.steps.back().level == level) h.steps.pop_back();
        if (id != (h.steps.size() > begin ? h.steps.back().id : item))
            h.steps.push_back({level, id});
    }

    struct Holder { int level, item, prev; }; ///< first level, item, next older holder
    KeyIndex index_;
    std::vector<Holder> holders_;
};

/// Merge trees. A merge appends the absorbed list to its target's, so the
/// preorder with children in merge order is the concatenated list.
struct Forest {
    explicit Forest(int n) : first(n, -1), last(first), next(first) {}

    void add(int parent, int child) {
        (last[parent] < 0 ? first[parent] : next[last[parent]]) = child;
        last[parent] = child;
    }

    /// Add each item's first step (absorbed into a class), by level, then item.
    void add_first_steps(const Histories& h) {
        std::vector<std::array<int, 3>> merges; // level, item, into
        for (int i = 0; i + 1 < static_cast<int>(h.at.size()); ++i)
            if (!h.of(i).empty()) merges.push_back({h.of(i)[0].level, i, h.of(i)[0].id});
        std::sort(merges.begin(), merges.end());
        for (const auto& [level, item, into] : merges) add(into, item);
    }

    void preorder(int v, std::vector<int>& out) const {
        out.push_back(v);
        for (int c = first[v]; c >= 0; c = next[c]) preorder(c, out);
    }

    std::vector<int> first, last, next;
};

} // namespace

FlowGraph partition_graph(const ir::Function& fn, const hls::ElabGraph& elab,
                          const hls::Binding& binding,
                          const GraphFlowOptions& opts) {
    const int n = elab.num_ops();
    const std::vector<hls::ElabEdge>& deps = elab.edges;
    const int num_deps = static_cast<int>(deps.size());
    const auto op_of = [&](int o) { return elab.ops[o].op; };
    const auto dropped = [&](int o) {
        return opts.buffer_insertion && op_of(o) == ir::Opcode::Alloca;
    };

    // Operand k of op c is dependence operand_at[c] + k.
    std::vector<int> operand_at(n + 1, 0);
    for (int j = 0; j < num_deps; ++j) {
        const hls::ElabEdge& e = deps[j];
        if (e.src < 0 || e.src >= e.dst || e.dst >= n || (j > 0 && deps[j - 1].dst > e.dst) ||
            e.operand_index != operand_at[e.dst + 1]++)
            throw std::invalid_argument("partition_graph: elab edges must list each "
                                        "consumer's operands in order, after every producer");
    }
    std::partial_sum(operand_at.begin(), operand_at.end(), operand_at.begin());

    // Value numbering. Round r fuses the pure nodes whose keys (opcode,
    // width, Const immediate, array, input node per operand) agree over the
    // nodes round r - 1 left; a node is named by its smallest op. An op's
    // key changes only in round 1 and in the round after one of its
    // producers changes node, so the walk resolves it once per such round.
    Histories node; // op -> node over rounds 0..kMaxMergeRounds
    {
        ClassTable table(opts.datapath_merging ? n : 0);
        std::vector<std::int64_t> key;
        for (int o = 0; o < n; ++o) {
            const hls::ElabOp& op = elab.ops[o];
            std::uint32_t starts = opts.datapath_merging && pure(op.op) ? 1u << 1 : 0;
            for (int j = operand_at[o]; starts && j < operand_at[o + 1]; ++j)
                for (const Step& s : node.of(deps[j].src))
                    if (s.level < kMaxMergeRounds) starts |= 1u << (s.level + 1);
            table.resolve(node, starts, kMaxMergeRounds, [&](int round) {
                key.assign({static_cast<std::int64_t>(op.op), op.bitwidth,
                            op.op == ir::Opcode::Const ? fn.instr(op.instr).imm : 0,
                            op.array});
                for (int j = operand_at[o]; j < operand_at[o + 1]; ++j)
                    key.push_back(node.id_at(deps[j].src, round - 1));
                return std::span<const std::int64_t>(key);
            });
        }
    }
    int rounds = 0; // the last round that fused anything
    for (const Step& s : node.steps) rounds = std::max(rounds, s.level);
    Forest op_tree(n);
    op_tree.add_first_steps(node);

    // Resource sharing: the nodes holding one shared unit's ops collapse
    // into the unit's first node, in op order.
    std::vector<int> uf(n);
    std::iota(uf.begin(), uf.end(), 0);
    const auto find = [&](int v) {
        while (uf[v] != v) v = uf[v] = uf[uf[v]];
        return v;
    };
    if (opts.datapath_merging) {
        std::vector<int> unit_node(binding.units.size(), -1);
        for (int o = 0; o < std::min(n, static_cast<int>(binding.unit_of_op.size())); ++o) {
            const int u = binding.unit_of_op[o];
            if (u < 0 || !binding.units[u].shared || dropped(o)) continue;
            const int v = find(node.last(o));
            int& rep = unit_node[u];
            // A representative absorbed into another unit's node is
            // re-seated on this op's node, not merged into.
            if (rep < 0 || uf[rep] != rep) {
                rep = v;
            } else if (rep != v) {
                uf[v] = rep;
                op_tree.add(rep, v);
            }
        }
    }

    // Edge compactions: level 0 after buffer insertion, r after each fusing
    // round, rounds + 1 after resource sharing. Each coalesces the edges
    // with equal end nodes into the first, appending the others' pins in
    // order, and drops self loops.
    const int first_level = opts.buffer_insertion ? 0 : 1;
    const int last_level = opts.datapath_merging ? rounds + 1 : opts.buffer_insertion ? 0 : -1;
    const auto node_at = [&](int o, int level) {
        return level > rounds ? find(node.last(o)) : node.id_at(o, level);
    };
    Histories group; // dependence -> edge over the compaction levels
    {
        ClassTable table(last_level >= first_level ? num_deps : 0);
        for (int j = 0; j < num_deps; ++j) {
            const int p = deps[j].src, c = deps[j].dst;
            std::uint32_t starts = last_level >= first_level ? 1u << first_level : 0;
            for (int v : {p, c}) {
                for (const Step& s : node.of(v))
                    if (s.level > first_level) starts |= 1u << s.level;
                if (starts && find(node.last(v)) != node.last(v)) starts |= 1u << last_level;
            }
            std::array<std::int64_t, 2> key;
            table.resolve(group, starts, last_level, [&](int level) {
                key = {node_at(p, level), node_at(c, level)};
                return std::span<const std::int64_t>(key);
            });
        }
    }
    Forest pin_tree(num_deps);
    pin_tree.add_first_steps(group);

    // Edges before trimming; node handles are op ids, then n + buffer index.
    // An edge is a list of pins, or a buffer edge's one memory op.
    struct Link {
        int src, dst;
        int pins_begin = 0, pins_end = 0, mem_op = -1;
    };
    std::vector<Link> links;
    std::vector<int> pins;
    for (int j = 0; j < num_deps; ++j) {
        if (!group.of(j).empty()) continue;
        const int begin = static_cast<int>(pins.size());
        pin_tree.preorder(j, pins);
        links.push_back({node_at(deps[j].src, last_level), node_at(deps[j].dst, last_level),
                         begin, static_cast<int>(pins.size())});
    }
    // Buffer insertion: one buffer per (array, bank), in order of first access.
    std::vector<FlowGraph::Node> buffers;
    if (opts.buffer_insertion) {
        std::vector<int> bank_at(fn.arrays.size() + 1, 0);
        for (std::size_t a = 0; a < fn.arrays.size(); ++a)
            bank_at[a + 1] = bank_at[a] + elab.directives.banks_of(static_cast<int>(a));
        std::vector<int> buffer_of(bank_at.back(), -1);
        for (int o = 0; o < n; ++o) {
            const hls::ElabOp& op = elab.ops[o];
            if (op.op != ir::Opcode::Load && op.op != ir::Opcode::Store) continue;
            const int bank = hls::bank_of(op.replica, bank_at[op.array + 1] - bank_at[op.array]);
            int& b = buffer_of[bank_at[op.array] + bank];
            if (b < 0) {
                b = static_cast<int>(buffers.size());
                buffers.push_back({true, ir::Opcode::Const, op.array, bank});
            }
            const bool store = op.op == ir::Opcode::Store;
            links.push_back({store ? o : n + b, store ? n + b : o, 0, 0, o});
        }
    }

    const int handles = n + static_cast<int>(buffers.size());
    std::vector<char> alive(handles, 1), live(links.size(), 1);
    for (int o = 0; o < n; ++o) alive[o] = !dropped(o) && find(node.last(o)) == o;
    if (opts.trimming) {
        // Bypass trivial casts in node order: each in-edge's source is wired
        // to each out-edge's sink with that out-edge's pins, at the list's
        // end. Adjacency lists run from each node's newest edge back.
        std::vector<int> in_last(handles, -1), out_last(handles, -1), in_prev, out_prev;
        const auto attach = [&](int e) {
            in_prev.push_back(std::exchange(in_last[links[e].dst], e));
            out_prev.push_back(std::exchange(out_last[links[e].src], e));
        };
        for (int e = 0; e < static_cast<int>(links.size()); ++e) attach(e);
        std::vector<int> ins, outs;
        const auto collect = [&](std::vector<int>& out, int e, const std::vector<int>& prev) {
            for (out.clear(); e >= 0; e = prev[e])
                if (live[e]) out.push_back(e);
            std::reverse(out.begin(), out.end());
        };
        for (int v = 0; v < n; ++v) {
            if (!alive[v] || !ir::is_trivial_cast(op_of(v))) continue;
            collect(ins, in_last[v], in_prev);
            collect(outs, out_last[v], out_prev);
            for (int ei : ins)
                for (int eo : outs) {
                    Link bridge = links[eo];
                    bridge.src = links[ei].src;
                    links.push_back(bridge);
                    live.push_back(1);
                    attach(static_cast<int>(links.size()) - 1);
                }
            for (const std::vector<int>* list : {&ins, &outs})
                for (int e : *list) live[e] = 0;
            alive[v] = 0;
        }
        // Drop constants with their fanout.
        for (int v = 0; v < n; ++v) {
            if (!alive[v] || op_of(v) != ir::Opcode::Const) continue;
            for (int e = in_last[v]; e >= 0; e = in_prev[e]) live[e] = 0;
            for (int e = out_last[v]; e >= 0; e = out_prev[e]) live[e] = 0;
            alive[v] = 0;
        }
    }
    // Final edges: chains of links in coalescing order. The raw DFG, which
    // no step compacts, keeps its parallel edges.
    const bool compacted = opts.trimming || last_level >= first_level;
    std::vector<int> chain_head, chain_tail, chain_next(links.size(), -1);
    std::vector<char> touched(handles, 0);
    KeyIndex index(compacted ? links.size() : 0);
    for (int e = 0; e < static_cast<int>(links.size()); ++e) {
        const Link& l = links[e];
        if (!live[e] || !alive[l.src] || !alive[l.dst] || l.src == l.dst) continue;
        int fresh = -1;
        int& chain = compacted ? index[std::array<std::int64_t, 2>{l.src, l.dst}] : fresh;
        if (chain < 0) {
            chain = static_cast<int>(chain_head.size());
            chain_head.push_back(e);
            chain_tail.push_back(e);
        } else {
            chain_next[chain_tail[chain]] = e;
            chain_tail[chain] = e;
        }
        touched[l.src] = touched[l.dst] = 1;
    }
    if (opts.trimming) // drop nodes left without edges
        for (int v = 0; v < handles; ++v) alive[v] &= touched[v];

    FlowGraph g;
    std::vector<int> index_of(handles, -1);
    for (int v = 0; v < handles; ++v) {
        if (!alive[v]) continue;
        index_of[v] = static_cast<int>(g.nodes.size());
        FlowGraph::Node nd = v < n ? FlowGraph::Node{false, op_of(v)} : buffers[v - n];
        nd.ops_begin = static_cast<int>(g.ops.size());
        if (v < n) op_tree.preorder(v, g.ops);
        nd.ops_end = static_cast<int>(g.ops.size());
        g.nodes.push_back(nd);
    }
    for (const int head : chain_head) {
        FlowGraph::Edge e{index_of[links[head].src], index_of[links[head].dst]};
        e.pins_begin = static_cast<int>(g.pins.size());
        for (int l = head; l >= 0; l = chain_next[l]) {
            g.pins.insert(g.pins.end(), pins.begin() + links[l].pins_begin,
                          pins.begin() + links[l].pins_end);
            e.mem_op = links[l].mem_op;
        }
        e.pins_end = static_cast<int>(g.pins.size());
        g.edges.push_back(e);
    }
    return g;
}

} // namespace powergear::graphgen
