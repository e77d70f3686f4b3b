/**
 * @file
 * Dense float tensor used by the functional CNN substrate.
 *
 * Layout is row-major over up-to-4 dimensions.  The neural-network
 * code uses the conventions of the paper (§2.1): feature maps are
 * (C, H, W) cubes, convolution kernels are (Cout, Cin, Kh, Kw), and
 * inner-product weights are (n, m) matrices.
 */

#ifndef PIPELAYER_TENSOR_TENSOR_HH_
#define PIPELAYER_TENSOR_TENSOR_HH_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace pipelayer {

class Rng;

/** Shape of a tensor: a small vector of extents. */
using Shape = std::vector<int64_t>;

/** Number of elements implied by a shape (product of extents). */
int64_t shapeNumel(const Shape &shape);

/** Render a shape as "(2, 3, 4)". */
std::string shapeToString(const Shape &shape);

/**
 * A dense row-major float tensor.
 *
 * Cheap to move; copies are explicit deep copies (value semantics).
 */
class Tensor
{
  public:
    /** An empty (rank-0, zero-element) tensor. */
    Tensor() = default;

    /** A zero-filled tensor of the given shape. */
    explicit Tensor(Shape shape);

    /** A tensor of the given shape filled with @p value. */
    Tensor(Shape shape, float value);

    /** A tensor with explicit contents. @pre data.size() == numel. */
    Tensor(Shape shape, std::vector<float> data);

    /** Tensor of the given shape with i.i.d. N(mean, stddev) entries. */
    static Tensor randn(Shape shape, Rng &rng, float mean = 0.0f,
                        float stddev = 1.0f);

    const Shape &shape() const { return shape_; }
    int64_t rank() const { return static_cast<int64_t>(shape_.size()); }
    int64_t numel() const { return static_cast<int64_t>(data_.size()); }

    /** Extent of dimension @p d.  @pre 0 <= d < rank(). */
    int64_t dim(int64_t d) const;

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /** Flat element access with bounds check. */
    float &at(int64_t i);
    float at(int64_t i) const;

    /** 1-D indexed access. @pre rank() == 1. */
    float &operator()(int64_t i);
    float operator()(int64_t i) const;

    /** 2-D indexed access. @pre rank() == 2. */
    float &operator()(int64_t i, int64_t j);
    float operator()(int64_t i, int64_t j) const;

    /** 3-D indexed access (c, y, x). @pre rank() == 3. */
    float &operator()(int64_t c, int64_t y, int64_t x);
    float operator()(int64_t c, int64_t y, int64_t x) const;

    /** 4-D indexed access. @pre rank() == 4. */
    float &operator()(int64_t a, int64_t b, int64_t c, int64_t d);
    float operator()(int64_t a, int64_t b, int64_t c, int64_t d) const;

    /** Set every element to @p value. */
    void fill(float value);

    /**
     * Return a tensor with the same data but a new shape; a temporary
     * hands over its data instead of copying it.
     * @pre numel of @p new_shape equals numel().
     */
    Tensor reshape(Shape new_shape) const &;
    Tensor reshape(Shape new_shape) &&;

    /** Elementwise in-place operations. */
    Tensor &operator+=(const Tensor &other);
    Tensor &operator-=(const Tensor &other);
    Tensor &operator*=(float scalar);

    /** Elementwise binary operations (shapes must match). */
    Tensor operator+(const Tensor &other) const;
    Tensor operator-(const Tensor &other) const;

    /** Elementwise (Hadamard) product, as used for δ ⊙ f'(u). */
    Tensor hadamard(const Tensor &other) const;

    /** Sum of all elements. */
    double sum() const;

    /** Index of the maximum element (first on ties). */
    int64_t argmax() const;

    /** Maximum absolute element; 0 for empty tensors. */
    float absMax() const;

  private:
    int64_t flatIndex2(int64_t i, int64_t j) const;
    int64_t flatIndex3(int64_t c, int64_t y, int64_t x) const;
    int64_t flatIndex4(int64_t a, int64_t b, int64_t c, int64_t d) const;

    Shape shape_;
    std::vector<float> data_;
};

} // namespace pipelayer

#endif // PIPELAYER_TENSOR_TENSOR_HH_
