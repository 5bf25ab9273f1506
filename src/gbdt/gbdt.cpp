#include "gbdt/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "util/stats.hpp"

namespace powergear::gbdt {

void Gbdt::fit(const std::vector<std::vector<float>>& X,
               const std::vector<float>& y, const GbdtConfig& cfg) {
    if (X.size() != y.size() || X.empty())
        throw std::invalid_argument("Gbdt::fit: bad inputs");
    cfg_ = cfg;
    trees_.clear();

    double mean = 0.0;
    for (float v : y) mean += v;
    base_ = static_cast<float>(mean / static_cast<double>(y.size()));

    std::vector<float> residual(y.size());
    std::vector<float> current(y.size(), base_);
    std::vector<int> all_idx(X.size());
    for (std::size_t i = 0; i < X.size(); ++i) all_idx[i] = static_cast<int>(i);

    TreeConfig tc;
    tc.max_depth = cfg.max_depth;
    tc.min_samples_leaf = cfg.min_samples_leaf;

    for (int m = 0; m < cfg.num_trees; ++m) {
        for (std::size_t i = 0; i < y.size(); ++i) residual[i] = y[i] - current[i];
        RegressionTree tree;
        tree.fit(X, residual, all_idx, tc);
        for (std::size_t i = 0; i < y.size(); ++i)
            current[i] += static_cast<float>(cfg.learning_rate) * tree.predict(X[i]);
        trees_.push_back(std::move(tree));
    }
}

float Gbdt::predict(const std::vector<float>& x) const {
    double p = base_;
    for (const RegressionTree& t : trees_)
        p += cfg_.learning_rate * t.predict(x);
    return static_cast<float>(p);
}

Gbdt fit_with_tuning(const std::vector<std::vector<float>>& X,
                     const std::vector<float>& y, const GbdtGrid& grid,
                     double validation_fraction, util::Rng& rng) {
    if (X.size() < 4) {
        Gbdt model;
        model.fit(X, y, GbdtConfig{});
        return model;
    }
    std::vector<int> order(X.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = static_cast<int>(i);
    rng.shuffle(order);
    const int val_n = std::max(
        1, static_cast<int>(std::lround(validation_fraction *
                                        static_cast<double>(X.size()))));

    std::vector<std::vector<float>> Xt, Xv;
    std::vector<float> yt, yv;
    for (std::size_t i = 0; i < order.size(); ++i) {
        const int idx = order[i];
        if (static_cast<int>(i) < val_n) {
            Xv.push_back(X[static_cast<std::size_t>(idx)]);
            yv.push_back(y[static_cast<std::size_t>(idx)]);
        } else {
            Xt.push_back(X[static_cast<std::size_t>(idx)]);
            yt.push_back(y[static_cast<std::size_t>(idx)]);
        }
    }

    std::vector<float> pred(Xv.size());
    GbdtConfig best_cfg;
    double best_err = std::numeric_limits<double>::infinity();
    for (int trees : grid.num_trees)
        for (int depth : grid.max_depth)
            for (int leaf : grid.min_samples_leaf)
                for (double lr : grid.learning_rate) {
                    GbdtConfig cfg{trees, depth, leaf, lr};
                    Gbdt model;
                    model.fit(Xt, yt, cfg);
                    for (std::size_t i = 0; i < Xv.size(); ++i)
                        pred[i] = model.predict(Xv[i]);
                    const double err = util::mape(pred, yv);
                    if (err < best_err) {
                        best_err = err;
                        best_cfg = cfg;
                    }
                }

    Gbdt final_model;
    final_model.fit(X, y, best_cfg);
    return final_model;
}

} // namespace powergear::gbdt
