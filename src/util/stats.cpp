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

template <typename T>
double mape(const std::vector<T>& pred, const std::vector<T>& truth) {
    if (pred.size() != truth.size())
        throw std::invalid_argument("mape: size mismatch");
    double s = 0.0;
    std::size_t n = 0;
    for (std::size_t i = 0; i < pred.size(); ++i) {
        if (std::abs(truth[i]) < 1e-9) continue;
        const T term = std::abs(pred[i] - truth[i]) / std::abs(truth[i]);
        s += term;
        ++n;
    }
    return n ? 100.0 * s / static_cast<double>(n) : 0.0;
}

template double mape<float>(const std::vector<float>&,
                            const std::vector<float>&);
template double mape<double>(const std::vector<double>&,
                             const std::vector<double>&);

} // namespace powergear::util
