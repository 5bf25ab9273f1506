#include "nn/tensor.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "nn/kernels_cpu.hpp"

namespace powergear::nn {

Tensor::Tensor(int rows, int cols, float fill)
    : rows_(rows), cols_(cols),
      data_(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols), fill) {
    if (rows < 0 || cols < 0) throw std::invalid_argument("Tensor: negative shape");
}

Tensor::Tensor(const Tensor& o) : rows_(o.rows_), cols_(o.cols_) {
    // Copying a view materializes owned storage — snapshots of arena- or
    // param-backed tensors must survive the storage they were viewing.
    if (o.ext_) data_.assign(o.ext_, o.ext_ + o.size());
    else data_ = o.data_;
}

Tensor& Tensor::operator=(const Tensor& o) {
    if (this == &o) return *this;
    rows_ = o.rows_;
    cols_ = o.cols_;
    ext_ = nullptr;
    if (o.ext_) data_.assign(o.ext_, o.ext_ + o.size());
    else data_ = o.data_;
    return *this;
}

Tensor::Tensor(Tensor&& o) noexcept
    : rows_(o.rows_), cols_(o.cols_), data_(std::move(o.data_)), ext_(o.ext_) {
    o.rows_ = 0;
    o.cols_ = 0;
    o.ext_ = nullptr;
    o.data_.clear();
}

Tensor& Tensor::operator=(Tensor&& o) noexcept {
    if (this == &o) return *this;
    rows_ = o.rows_;
    cols_ = o.cols_;
    data_ = std::move(o.data_);
    ext_ = o.ext_;
    o.rows_ = 0;
    o.cols_ = 0;
    o.ext_ = nullptr;
    o.data_.clear();
    return *this;
}

Tensor Tensor::borrowed(int rows, int cols, float* storage) {
    if (rows < 0 || cols < 0) throw std::invalid_argument("Tensor: negative shape");
    Tensor t;
    t.rows_ = rows;
    t.cols_ = cols;
    t.ext_ = storage;
    return t;
}

void Tensor::fill(float v) {
    float* d = data();
    const std::size_t n = size();
    for (std::size_t i = 0; i < n; ++i) d[i] = v;
}

void Tensor::add_inplace(const Tensor& o) {
    if (o.rows_ != rows_ || o.cols_ != cols_)
        throw std::invalid_argument("Tensor::add_inplace: shape mismatch");
    kernels::vacc(size(), o.data(), data());
}

Tensor Tensor::xavier(int rows, int cols, util::Rng& rng) {
    Tensor t(rows, cols);
    const float limit = std::sqrt(6.0f / static_cast<float>(rows + cols));
    for (auto& x : t.data_) x = rng.next_float(-limit, limit);
    return t;
}

Tensor Tensor::from(int rows, int cols, std::vector<float> values) {
    if (values.size() != static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols))
        throw std::invalid_argument("Tensor::from: value count mismatch");
    Tensor t(rows, cols);
    t.data_ = std::move(values);
    return t;
}

} // namespace powergear::nn
