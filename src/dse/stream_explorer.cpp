#include "dse/stream_explorer.hpp"

#include <algorithm>
#include <stdexcept>

#include "dse/adrs.hpp"
#include "dse/pareto/archive.hpp"
#include "obs/obs.hpp"

namespace powergear::dse {

StreamingExplorer::StreamingExplorer(StreamConfig cfg) : cfg_(cfg) {
    if (cfg_.chunk == 0)
        throw std::invalid_argument("StreamingExplorer: chunk must be > 0");
    if (cfg_.spread_gate < 0.0)
        throw std::invalid_argument(
            "StreamingExplorer: spread_gate must be >= 0");
}

StreamResult StreamingExplorer::run(CandidateStream& stream,
                                    const ChunkScorer& score,
                                    const TruthFn& truth) const {
    if (!score) throw std::invalid_argument("StreamingExplorer: null scorer");
    if (!truth) throw std::invalid_argument("StreamingExplorer: null truth");
    const obs::Scope obs_scope(obs::Phase::Dse);
    ParetoArchive predicted;
    ParetoArchive actual;
    StreamStats st;
    double spread_sum = 0.0;
    std::vector<std::uint64_t> chunk;
    chunk.reserve(cfg_.chunk);
    while (!stream.done()) {
        std::size_t want = cfg_.chunk;
        if (cfg_.max_points > 0) {
            if (st.scored >= cfg_.max_points) break;
            want = static_cast<std::size_t>(std::min<std::uint64_t>(
                want, cfg_.max_points - st.scored));
        }
        chunk.clear();
        if (stream.next_chunk(want, chunk) == 0) break;
        const std::vector<ScoredPoint> scored =
            score(std::span<const std::uint64_t>(chunk));
        if (scored.size() != chunk.size())
            throw std::runtime_error(
                "StreamingExplorer: scorer returned wrong count");
        // Scoring above may fan out; everything below is serial in stream
        // order, which pins the promotion decisions (and therefore the
        // result) at any POWERGEAR_JOBS value.
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            const std::uint64_t idx = chunk[i];
            const ScoredPoint& sp = scored[i];
            if (predicted.insert(Point{sp.latency, sp.power,
                                       static_cast<std::int64_t>(idx)})) {
                ++st.archived;
                // Mean over *previously* scored points: the decision for
                // point k never depends on k's own spread, so truncating or
                // resuming the stream at any boundary replays identically.
                const double mean =
                    st.scored > 0
                        ? spread_sum / static_cast<double>(st.scored)
                        : 0.0;
                if (cfg_.spread_gate <= 0.0 ||
                    sp.spread >= cfg_.spread_gate * mean) {
                    ++st.promoted;
                    actual.insert(Point{sp.latency, truth(idx, sp),
                                        static_cast<std::int64_t>(idx)});
                }
            }
            spread_sum += sp.spread;
            ++st.scored;
        }
    }
    obs::add(obs::Phase::Dse, "scored", st.scored);
    obs::add(obs::Phase::Dse, "promoted", st.promoted);
    obs::add(obs::Phase::Dse, "archived", st.archived);
    return StreamResult{predicted.front(), actual.front(), st};
}

StreamResult StreamingExplorer::run(const core::SamplePool& pool,
                                    const core::PowerGear& estimator,
                                    dataset::PowerKind kind) const {
    if (pool.empty())
        throw std::invalid_argument("StreamingExplorer: empty pool");
    CandidateStream stream(pool.size());
    const ChunkScorer scorer =
        [&](std::span<const std::uint64_t> idxs) {
            std::vector<const dataset::Sample*> ptrs;
            ptrs.reserve(idxs.size());
            for (const std::uint64_t i : idxs)
                ptrs.push_back(&pool[static_cast<std::size_t>(i)]);
            const core::SamplePool view(
                core::SamplePool::View(ptrs.data(), ptrs.size()));
            const std::vector<core::Estimate> ests =
                estimator.estimate_batch(view);
            std::vector<ScoredPoint> out(idxs.size());
            for (std::size_t i = 0; i < idxs.size(); ++i) {
                const dataset::Sample& s =
                    pool[static_cast<std::size_t>(idxs[i])];
                out[i] = ScoredPoint{
                    static_cast<double>(s.latency_cycles), ests[i].watts,
                    ests[i].member_spread};
            }
            return out;
        };
    const TruthFn truth_label = [&](std::uint64_t idx, const ScoredPoint&) {
        return static_cast<double>(
            pool[static_cast<std::size_t>(idx)].label(kind));
    };
    StreamResult res = run(stream, scorer, truth_label);
    // The pool is fully labelled, so the exact frontier is free — report
    // frontier quality the way the iterative explorer does (ADRS, Eq. 8).
    std::vector<Point> truth_all;
    truth_all.reserve(pool.size());
    for (std::size_t i = 0; i < pool.size(); ++i)
        truth_all.push_back(
            Point{static_cast<double>(pool[i].latency_cycles),
                  static_cast<double>(pool[i].label(kind)),
                  static_cast<std::int64_t>(i)});
    res.adrs_value = adrs(pareto_front(truth_all), res.true_front);
    return res;
}

} // namespace powergear::dse
