#include "dse/explorer.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"
#include "util/rng.hpp"

namespace powergear::dse {

DseResult Explorer::run(const core::SamplePool& candidates,
                        const core::PowerGear& estimator,
                        dataset::PowerKind kind) const {
    const obs::Scope obs_scope(obs::Phase::Dse);
    obs::add(obs::Phase::Dse, "candidates", candidates.size());
    const std::vector<core::Estimate> ests =
        estimator.estimate_batch(candidates);
    std::vector<Point> predicted;
    std::vector<Point> truth;
    predicted.reserve(candidates.size());
    truth.reserve(candidates.size());
    for (std::size_t i = 0; i < candidates.size(); ++i) {
        const dataset::Sample& s = candidates[i];
        predicted.push_back(Point{static_cast<double>(s.latency_cycles),
                                  ests[i].watts, static_cast<int>(i)});
        truth.push_back(Point{static_cast<double>(s.latency_cycles),
                              static_cast<double>(s.label(kind)),
                              static_cast<int>(i)});
    }
    DseResult res = explore(predicted, truth, cfg_);
    obs::add(obs::Phase::Dse, "designs_sampled", res.sampled.size());
    return res;
}

DseResult explore(const std::vector<Point>& predicted,
                  const std::vector<Point>& truth, const ExplorerConfig& cfg) {
    if (predicted.size() != truth.size() || predicted.empty())
        throw std::invalid_argument("dse::explore: bad inputs");
    const int n = static_cast<int>(predicted.size());
    const int budget = std::max(
        2, static_cast<int>(cfg.total_budget * static_cast<double>(n)));
    const int initial = std::clamp(
        static_cast<int>(cfg.initial_budget * static_cast<double>(n)), 1, budget);

    std::vector<bool> sampled(static_cast<std::size_t>(n), false);
    DseResult res;

    // Initial random sample.
    util::Rng rng(cfg.seed);
    std::vector<int> order(static_cast<std::size_t>(n));
    for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
    rng.shuffle(order);
    for (int k = 0; k < initial; ++k) {
        sampled[static_cast<std::size_t>(order[static_cast<std::size_t>(k)])] = true;
        res.sampled.push_back(order[static_cast<std::size_t>(k)]);
    }

    // Iterative refinement: promote the predicted-Pareto-optimal unsampled
    // points each round until the budget is exhausted.
    while (static_cast<int>(res.sampled.size()) < budget) {
        std::vector<Point> unsampled;
        for (int i = 0; i < n; ++i)
            if (!sampled[static_cast<std::size_t>(i)])
                unsampled.push_back(predicted[static_cast<std::size_t>(i)]);
        if (unsampled.empty()) break;

        std::vector<Point> candidates = pareto_front(unsampled);
        // Deterministic tie-breaking order: latency-ascending already.
        bool promoted = false;
        for (const Point& c : candidates) {
            if (static_cast<int>(res.sampled.size()) >= budget) break;
            sampled[static_cast<std::size_t>(c.index)] = true;
            res.sampled.push_back(static_cast<int>(c.index));
            promoted = true;
        }
        if (!promoted) break;
    }

    // Evaluate: frontier of sampled points under true objectives.
    std::vector<Point> evaluated;
    for (int i : res.sampled) evaluated.push_back(truth[static_cast<std::size_t>(i)]);
    res.approx_front = pareto_front(evaluated);
    res.exact_front = pareto_front(truth);
    res.adrs_value = adrs(res.exact_front, res.approx_front);
    return res;
}

} // namespace powergear::dse
