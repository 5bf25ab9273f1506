#include "util/stats.hpp"

#include <cmath>
#include <stdexcept>

namespace powergear::util {

double mean(const std::vector<double>& v) {
    if (v.empty()) return 0.0;
    double s = 0.0;
    for (double x : v) s += x;
    return s / static_cast<double>(v.size());
}

double stddev(const std::vector<double>& v) {
    if (v.size() < 2) return 0.0;
    const double m = mean(v);
    double s = 0.0;
    for (double x : v) s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(v.size() - 1));
}

double mape(const std::vector<double>& pred, const std::vector<double>& truth,
            double eps) {
    if (pred.size() != truth.size())
        throw std::invalid_argument("mape: size mismatch");
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) {
        if (std::abs(truth[i]) < eps) continue;
        s += std::abs(pred[i] - truth[i]) / std::abs(truth[i]);
        ++n;
    }
    return n ? 100.0 * s / static_cast<double>(n) : 0.0;
}

double rmse(const std::vector<double>& pred, const std::vector<double>& truth) {
    if (pred.size() != truth.size())
        throw std::invalid_argument("rmse: size mismatch");
    if (pred.empty()) return 0.0;
    double s = 0.0;
    for (std::size_t i = 0; i < pred.size(); ++i) {
        const double d = pred[i] - truth[i];
        s += d * d;
    }
    return std::sqrt(s / static_cast<double>(pred.size()));
}

double pearson(const std::vector<double>& a, const std::vector<double>& b) {
    if (a.size() != b.size())
        throw std::invalid_argument("pearson: size mismatch");
    if (a.size() < 2) return 0.0;
    const double ma = mean(a), mb = mean(b);
    double num = 0.0, da = 0.0, db = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        num += (a[i] - ma) * (b[i] - mb);
        da += (a[i] - ma) * (a[i] - ma);
        db += (b[i] - mb) * (b[i] - mb);
    }
    if (da <= 0.0 || db <= 0.0) return 0.0;
    return num / std::sqrt(da * db);
}

} // namespace powergear::util
