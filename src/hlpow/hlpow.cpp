#include "hlpow/hlpow.hpp"

#include <stdexcept>

namespace powergear::hlpow {

void HlPowModel::fit(const std::vector<std::vector<float>>& features,
                     const std::vector<float>& targets, std::uint64_t seed) {
    util::Rng rng(seed);
    model_ = gbdt::fit_with_tuning(features, targets, gbdt::GbdtGrid{},
                                   /*validation_fraction=*/0.2, rng);
    fitted_ = true;
}

float HlPowModel::predict(const std::vector<float>& features) const {
    if (!fitted_) throw std::logic_error("HlPowModel::predict before fit");
    return model_.predict(features);
}

} // namespace powergear::hlpow
