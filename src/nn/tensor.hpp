// Dense 2-D float tensor: the storage every NN kernel (nn/kernels_cpu.hpp)
// and tape node works on. Row-major, value semantics, no broadcasting
// magic — shapes are checked and mismatches throw.
//
// Storage is either owned (a std::vector, the default) or borrowed
// (Tensor::borrowed wraps caller-managed memory, e.g. a Tape's arena or a
// Param's weights). Borrowed tensors are views: copying one deep-copies into
// owned storage, moving one transfers the view, and the borrowed memory must
// outlive every read through the view.
#pragma once

#include <vector>

#include "util/rng.hpp"

namespace powergear::nn {

class Tensor {
public:
    Tensor() = default;
    Tensor(int rows, int cols, float fill = 0.0f);

    Tensor(const Tensor& o);
    Tensor& operator=(const Tensor& o);
    Tensor(Tensor&& o) noexcept;
    Tensor& operator=(Tensor&& o) noexcept;
    ~Tensor() = default;

    /// View over caller-owned storage of rows*cols floats (not freed here).
    static Tensor borrowed(int rows, int cols, float* storage);
    bool is_view() const { return ext_ != nullptr; }

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    std::size_t size() const {
        return static_cast<std::size_t>(rows_) * static_cast<std::size_t>(cols_);
    }
    bool empty() const { return size() == 0; }

    float& at(int r, int c) {
        return data()[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                      static_cast<std::size_t>(c)];
    }
    float at(int r, int c) const {
        return data()[static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_) +
                      static_cast<std::size_t>(c)];
    }
    float* row(int r) {
        return data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
    }
    const float* row(int r) const {
        return data() + static_cast<std::size_t>(r) * static_cast<std::size_t>(cols_);
    }
    float* data() { return ext_ ? ext_ : data_.data(); }
    const float* data() const { return ext_ ? ext_ : data_.data(); }

    void fill(float v);
    void add_inplace(const Tensor& o); ///< this += o (same shape)

    /// Glorot/Xavier-uniform initialization.
    static Tensor xavier(int rows, int cols, util::Rng& rng);
    /// Build from explicit values (row-major), for tests. Takes the vector
    /// by value and moves it into storage — pass an rvalue to avoid a copy.
    static Tensor from(int rows, int cols, std::vector<float> values);

private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<float> data_;
    float* ext_ = nullptr; ///< borrowed storage; data_ unused when set
};

} // namespace powergear::nn
