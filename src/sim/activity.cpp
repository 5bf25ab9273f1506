#include "sim/activity.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/stats.hpp"

namespace powergear::sim {

namespace {

/// Running Eq. (2)/(3) sums over one value stream.
struct Accumulator {
    std::uint32_t prev = 0;
    std::int64_t hd = 0, changes = 0;
    int events = 0;

    void push(std::uint32_t cur) {
        // The first value has no predecessor: mask its diff to zero.
        const std::uint32_t diff =
            (cur ^ prev) & (0u - static_cast<std::uint32_t>(events > 0));
        hd += util::popcount32(diff);
        changes += diff != 0;
        ++events;
        prev = cur;
    }
    DirStats stats(std::int64_t latency) const {
        const double L = static_cast<double>(std::max<std::int64_t>(1, latency));
        return {static_cast<double>(hd) / L, static_cast<double>(changes) / L,
                events};
    }
};

/// Fold one segment of n values into the replica accumulators: value j
/// belongs to acc[j % u], so replica d's stream is v[d], v[d+u], ... Each
/// replica's first value pairs with its carried prev. U > 0 fixes u at
/// compile time, so the per-lane sums stay in registers.
template <int U>
void fold_segment(const std::uint32_t* v, std::int64_t n, int u,
                  Accumulator* acc) {
    if constexpr (U > 0) u = U;
    const int lanes = static_cast<int>(std::min<std::int64_t>(u, n));
    for (int d = 0; d < lanes; ++d) acc[d].push(v[d]);
    if constexpr (U > 0) {
        // Lane sums stay 32-bit within a block of kBlock values
        // (32 * 2^24 < 2^32) and are flushed to the 64-bit totals per block.
        constexpr std::int64_t kBlock = std::int64_t{1} << 24;
        const std::int64_t full = n / U * U;
        for (std::int64_t lo = U; lo < full; lo += kBlock) {
            const std::int64_t hi = std::min(full, lo + kBlock);
            std::uint32_t hd[U] = {}, changes[U] = {};
            for (std::int64_t i = lo; i < hi; i += U)
                for (int d = 0; d < U; ++d) {
                    const std::uint32_t diff = v[i + d] ^ v[i + d - U];
                    hd[d] += static_cast<std::uint32_t>(util::popcount32(diff));
                    changes[d] += diff != 0;
                }
            for (int d = 0; d < U; ++d) {
                acc[d].hd += hd[d];
                acc[d].changes += changes[d];
            }
        }
        for (std::int64_t i = std::max<std::int64_t>(full, U); i < n; ++i) {
            const std::uint32_t diff = v[i] ^ v[i - U];
            acc[i - full].hd += util::popcount32(diff);
            acc[i - full].changes += diff != 0;
        }
    } else {
        for (int d = 0; d < lanes; ++d) {
            std::int64_t hd = 0, changes = 0;
            for (std::int64_t i = d + u; i < n; i += u) {
                const std::uint32_t diff = v[i] ^ v[i - u];
                hd += util::popcount32(diff);
                changes += diff != 0;
            }
            acc[d].hd += hd;
            acc[d].changes += changes;
        }
    }
    for (int d = 0; d < lanes; ++d) {
        const std::int64_t later = (n - 1 - d) / u;  // values after the first
        acc[d].prev = v[d + later * u];
        acc[d].events += static_cast<int>(later);
    }
}

void fold_segment(const std::uint32_t* v, std::int64_t n, int u,
                  Accumulator* acc) {
    switch (u) {
    case 1: return fold_segment<1>(v, n, u, acc);
    case 2: return fold_segment<2>(v, n, u, acc);
    case 4: return fold_segment<4>(v, n, u, acc);
    case 8: return fold_segment<8>(v, n, u, acc);
    default: return fold_segment<0>(v, n, u, acc);
    }
}

} // namespace

ActivityOracle::ActivityOracle(const ir::Function& fn, const hls::ElabGraph& elab,
                               const Trace& trace, std::int64_t latency_cycles)
    : fn_(fn), elab_(elab), trace_(trace),
      latency_(std::max<std::int64_t>(1, latency_cycles)) {
    const std::size_t n = fn.instrs.size();
    chains_.resize(n);
    consumed_base_.resize(n);
    produced_.resize(static_cast<std::size_t>(elab.num_ops()));
    std::size_t slots = 0;
    for (std::size_t i = 0; i < n; ++i) {
        ChainInfo& ci = chains_[i];
        ci.loops = hls::loop_chain(fn, static_cast<int>(i));
        if (ci.loops.size() > static_cast<std::size_t>(kMaxChainDepth))
            throw std::invalid_argument(
                "ActivityOracle: loop nest depth " +
                std::to_string(ci.loops.size()) + " exceeds the supported " +
                std::to_string(kMaxChainDepth));
        const auto len = static_cast<std::int64_t>(trace.of(static_cast<int>(i)).size());
        std::int64_t product = 1;
        for (int l : ci.loops) {
            ci.trips.push_back(fn.loop(l).trip_count);
            ci.unrolls.push_back(elab.directives.unroll_of(l));
            product = product > len / ci.trips.back() ? len + 1
                                                      : product * ci.trips.back();
        }
        ci.full = product == len;
        ci.span.assign(ci.loops.size() + 1, 1);
        for (std::size_t k = ci.loops.size(); k-- > 0;)
            ci.span[k] = ci.span[k + 1] * ci.unrolls[k];
        consumed_base_[i] = static_cast<int>(slots);
        slots += fn.instrs[i].operands.size() *
                 static_cast<std::size_t>(elab.replication[i]);
    }
    consumed_.resize(slots);
}

template <typename Fn>
void ActivityOracle::segments(int instr, bool merge, Fn&& visit) const {
    // Odometer over the enclosing loops' coordinates, one step per innermost
    // run; digits[k] is coords[k] mod unrolls[k] and base the replica of
    // the run's first execution. Past the last iteration every coordinate
    // wraps to 0, as a mixed-radix decomposition of the index would.
    const ChainInfo& ci = chains_[static_cast<std::size_t>(instr)];
    const auto total = static_cast<std::int64_t>(trace_.of(instr).size());
    int coords[kMaxChainDepth] = {};
    if (ci.loops.empty()) {
        if (total > 0) visit(std::int64_t{0}, total, 0, coords);
        return;
    }
    const int inner = static_cast<int>(ci.loops.size()) - 1;
    const int trip = ci.trips.back();
    const int u = ci.inner_unroll();
    int digits[kMaxChainDepth] = {};
    int base = 0;
    std::int64_t start = 0, len = 0;
    int seg_base = 0;
    for (std::int64_t s = 0; s < total; s += trip) {
        const std::int64_t n = std::min<std::int64_t>(trip, total - s);
        if (!merge) {
            visit(s, n, base, coords);
        } else if (len > 0 && base == seg_base && len % u == 0) {
            len += n; // the run starts on the replica the segment's next value has
        } else {
            if (len > 0) visit(start, len, seg_base, coords);
            start = s;
            len = n;
            seg_base = base;
        }
        for (int k = inner - 1; k >= 0; --k) {
            const int stride = ci.span[static_cast<std::size_t>(k) + 1];
            if (++coords[k] < ci.trips[static_cast<std::size_t>(k)]) {
                if (++digits[k] < ci.unrolls[static_cast<std::size_t>(k)]) {
                    base += stride;
                } else {
                    base -= (digits[k] - 1) * stride;
                    digits[k] = 0;
                }
                break;
            }
            base -= digits[k] * stride;
            coords[k] = digits[k] = 0;
        }
    }
    if (len > 0) visit(start, len, seg_base, coords);
}

template <typename Fn>
void ActivityOracle::walk(int instr, Fn&& visit) const {
    const ChainInfo& ci = chains_[static_cast<std::size_t>(instr)];
    const int depth = static_cast<int>(ci.loops.size());
    const int u = ci.inner_unroll();
    int coords[kMaxChainDepth] = {};
    segments(instr, false,
             [&](std::int64_t start, std::int64_t n, int base, const int* outer) {
                 std::copy(outer, outer + depth, coords);
                 int digit = 0;
                 for (std::int64_t j = 0; j < n; ++j) {
                     if (depth > 0) coords[depth - 1] = static_cast<int>(j);
                     visit(start + j, coords, base + digit);
                     if (++digit == u) digit = 0;
                 }
             });
}

template <typename Fn>
void ActivityOracle::visit_consumed(int instr, int operand_index,
                                    Fn&& visit) const {
    const int producer =
        fn_.instr(instr).operands.at(static_cast<std::size_t>(operand_index));
    const auto& pvals = trace_.of(producer);
    if (pvals.empty()) return;
    const ChainInfo& c_ci = chains_[static_cast<std::size_t>(instr)];
    const ChainInfo& p_ci = chains_[static_cast<std::size_t>(producer)];
    const std::int64_t last = static_cast<std::int64_t>(pvals.size()) - 1;
    const std::size_t depth = p_ci.loops.size();

    // Producer chain a prefix of (or equal to) the consumer's: the producer
    // execution is s / (product of the deeper consumer trips). Otherwise
    // project per loop, resolving loops that enclose only the producer to
    // their final iteration (escaping values).
    const bool prefix =
        depth <= c_ci.loops.size() &&
        std::equal(p_ci.loops.begin(), p_ci.loops.end(), c_ci.loops.begin());
    std::int64_t tail = 1;
    int proj[kMaxChainDepth] = {};
    for (std::size_t k = depth; prefix && k < c_ci.loops.size(); ++k)
        tail *= c_ci.trips[k];
    for (std::size_t k = 0; !prefix && k < depth; ++k) {
        const auto it = std::find(c_ci.loops.begin(), c_ci.loops.end(), p_ci.loops[k]);
        proj[k] = it == c_ci.loops.end() ? -1 : static_cast<int>(it - c_ci.loops.begin());
    }
    walk(instr, [&](std::int64_t s, const int* coords, int replica) {
        std::int64_t sp = 0;
        if (prefix) {
            sp = s / tail;
        } else {
            for (std::size_t k = 0; k < depth; ++k)
                sp = sp * p_ci.trips[k] +
                     (proj[k] >= 0 ? coords[proj[k]] : p_ci.trips[k] - 1);
        }
        visit(replica, pvals[static_cast<std::size_t>(std::min(sp, last))]);
    });
}

std::vector<std::uint32_t> ActivityOracle::produced_sequence(int op_id) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    const auto& vals = trace_.of(op.instr);
    std::vector<std::uint32_t> out;
    walk(op.instr, [&](std::int64_t s, const int*, int replica) {
        if (replica == op.replica) out.push_back(vals[static_cast<std::size_t>(s)]);
    });
    return out;
}

std::vector<std::uint32_t> ActivityOracle::consumed_sequence(int op_id,
                                                             int operand_index) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    std::vector<std::uint32_t> out;
    visit_consumed(op.instr, operand_index, [&](int replica, std::uint32_t v) {
        if (replica == op.replica) out.push_back(v);
    });
    return out;
}

DirStats ActivityOracle::stats_of(const std::vector<std::uint32_t>& stream,
                                  std::int64_t latency) {
    Accumulator acc;
    fold_segment<1>(stream.data(), static_cast<std::int64_t>(stream.size()), 1, &acc);
    return acc.stats(latency);
}

DirStats ActivityOracle::produced(int op_id) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    if (!produced_[static_cast<std::size_t>(op_id)]) {
        const auto& vals = trace_.of(op.instr);
        const int first = op_id - op.replica;
        const int u = chains_[static_cast<std::size_t>(op.instr)].inner_unroll();
        std::vector<Accumulator> acc(static_cast<std::size_t>(
            elab_.replication[static_cast<std::size_t>(op.instr)]));
        segments(op.instr, true,
                 [&](std::int64_t start, std::int64_t n, int base, const int*) {
                     fold_segment(vals.data() + start, n, u, acc.data() + base);
                 });
        for (std::size_t r = 0; r < acc.size(); ++r)
            produced_[static_cast<std::size_t>(first) + r] = acc[r].stats(latency_);
    }
    return *produced_[static_cast<std::size_t>(op_id)];
}

DirStats ActivityOracle::consumed(int op_id, int operand_index) const {
    const hls::ElabOp& op = elab_.ops.at(static_cast<std::size_t>(op_id));
    const int producer =
        fn_.instr(op.instr).operands.at(static_cast<std::size_t>(operand_index));
    const ChainInfo& c_ci = chains_[static_cast<std::size_t>(op.instr)];
    const ChainInfo& p_ci = chains_[static_cast<std::size_t>(producer)];
    const std::size_t depth = p_ci.loops.size();

    // Reuse the producer replica's stats: on the shared loops the consumer
    // replica's digits pick producer replica replica / span[depth]; each
    // deeper loop k repeats every produced value once per iteration the
    // replica runs, ceil((trip_k - digit_k) / unroll_k).
    if (c_ci.full && p_ci.full && depth <= c_ci.loops.size() &&
        std::equal(p_ci.loops.begin(), p_ci.loops.end(), c_ci.loops.begin())) {
        int repeat = 1;
        for (std::size_t k = depth; k < c_ci.loops.size(); ++k) {
            const int u = c_ci.unrolls[k];
            const int digit = op.replica / c_ci.span[k + 1] % u;
            repeat *= (c_ci.trips[k] - digit + u - 1) / u;
        }
        if (repeat == 0) return DirStats{};
        DirStats st = produced(elab_.op_id(producer, op.replica / c_ci.span[depth]));
        st.events *= repeat;
        return st;
    }

    const int reps = elab_.replication[static_cast<std::size_t>(op.instr)];
    const auto slot = [&](int replica) {
        return static_cast<std::size_t>(consumed_base_[static_cast<std::size_t>(op.instr)] +
                                        operand_index * reps + replica);
    };
    if (!consumed_[slot(op.replica)]) {
        std::vector<Accumulator> acc(static_cast<std::size_t>(reps));
        visit_consumed(op.instr, operand_index, [&](int replica, std::uint32_t v) {
            acc[static_cast<std::size_t>(replica)].push(v);
        });
        for (int r = 0; r < reps; ++r)
            consumed_[slot(r)] = acc[static_cast<std::size_t>(r)].stats(latency_);
    }
    return *consumed_[slot(op.replica)];
}

} // namespace powergear::sim
