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

} // namespace powergear::util
