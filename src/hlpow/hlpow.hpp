// HL-Pow baseline model: activity-histogram features + tuned GBDT.
#pragma once

#include <vector>

#include "gbdt/gbdt.hpp"

namespace powergear::hlpow {

class HlPowModel {
public:
    /// Fit with the paper's validation-tuned GBDT (20% validation split).
    void fit(const std::vector<std::vector<float>>& features,
             const std::vector<float>& targets, std::uint64_t seed = 17);

    float predict(const std::vector<float>& features) const;

private:
    gbdt::Gbdt model_;
    bool fitted_ = false;
};

} // namespace powergear::hlpow
