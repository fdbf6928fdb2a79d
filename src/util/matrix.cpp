#include "src/util/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <sstream>

#include "src/util/accounting.hpp"

namespace summagen::util {

Matrix::Matrix(std::int64_t rows, std::int64_t cols)
    : rows_(rows), cols_(cols) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("Matrix: negative dimension");
  }
  data_.assign(static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols),
               0.0);
  record_alloc(static_cast<std::int64_t>(data_.size() * sizeof(double)));
}

Matrix::Matrix(std::int64_t rows, std::int64_t cols, double value)
    : Matrix(rows, cols) {
  fill(value);
}

double& Matrix::at(std::int64_t i, std::int64_t j) {
  if (i < 0 || i >= rows_ || j < 0 || j >= cols_) {
    throw std::out_of_range("Matrix::at(" + std::to_string(i) + "," +
                            std::to_string(j) + ") outside " +
                            std::to_string(rows_) + "x" +
                            std::to_string(cols_));
  }
  return (*this)(i, j);
}

double Matrix::at(std::int64_t i, std::int64_t j) const {
  return const_cast<Matrix*>(this)->at(i, j);
}

void Matrix::fill(double value) {
  std::fill(data_.begin(), data_.end(), value);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) {
    throw std::invalid_argument("max_abs_diff: shape mismatch");
  }
  return util::max_abs_diff(a.span(), b.span());
}

double max_abs_diff(std::span<const double> x, std::span<const double> y) {
  if (x.size() != y.size()) {
    throw std::invalid_argument("max_abs_diff: length mismatch");
  }
  double worst = 0.0;
  for (std::size_t k = 0; k < x.size(); ++k) {
    const double d = std::abs(x[k] - y[k]);
    // std::max(worst, NaN) keeps `worst`: a NaN must end the scan instead.
    if (std::isnan(d)) return std::numeric_limits<double>::quiet_NaN();
    worst = std::max(worst, d);
  }
  return worst;
}

void copy_matrix(double* dst, std::int64_t dst_ld, const double* src,
                 std::int64_t src_ld, std::int64_t rows, std::int64_t cols) {
  if (rows < 0 || cols < 0) {
    throw std::invalid_argument("copy_matrix: negative extent");
  }
  if (dst_ld < cols || src_ld < cols) {
    throw std::invalid_argument("copy_matrix: leading dimension < cols");
  }
  if (rows == 0 || cols == 0) return;
  // The docstring promises "no aliasing overlap"; enforce it. The check is
  // conservative (address spans, ignoring gaps between rows), which is exact
  // for every legitimate pack/unpack in this codebase: overlapping spans with
  // row-wise memcpy would already be undefined behaviour.
  {
    const double* dst_end = dst + (rows - 1) * dst_ld + cols;
    const double* src_end = src + (rows - 1) * src_ld + cols;
    if (std::less<const double*>{}(src, dst_end) &&
        std::less<const double*>{}(dst, src_end)) {
      throw std::invalid_argument("copy_matrix: src and dst overlap");
    }
  }
  record_copy(rows * cols * static_cast<std::int64_t>(sizeof(double)));
  if (dst_ld == cols && src_ld == cols) {
    std::memcpy(dst, src,
                static_cast<std::size_t>(rows * cols) * sizeof(double));
    return;
  }
  for (std::int64_t i = 0; i < rows; ++i) {
    std::memcpy(dst + i * dst_ld, src + i * src_ld,
                static_cast<std::size_t>(cols) * sizeof(double));
  }
}

Matrix extract_block(const Matrix& src, std::int64_t r0, std::int64_t c0,
                     std::int64_t rows, std::int64_t cols) {
  if (r0 < 0 || c0 < 0 || r0 + rows > src.rows() || c0 + cols > src.cols()) {
    throw std::out_of_range("extract_block: block outside matrix");
  }
  Matrix out(rows, cols);
  copy_matrix(out.data(), cols, src.data() + r0 * src.cols() + c0, src.cols(),
              rows, cols);
  return out;
}

void place_block(Matrix& dst, const Matrix& block, std::int64_t r0,
                 std::int64_t c0) {
  if (r0 < 0 || c0 < 0 || r0 + block.rows() > dst.rows() ||
      c0 + block.cols() > dst.cols()) {
    throw std::out_of_range("place_block: block outside matrix");
  }
  copy_matrix(dst.data() + r0 * dst.cols() + c0, dst.cols(), block.data(),
              block.cols(), block.rows(), block.cols());
}

std::string to_string(const Matrix& m, std::int64_t max_dim) {
  std::ostringstream os;
  os << m.rows() << "x" << m.cols() << " [";
  const std::int64_t r = std::min(m.rows(), max_dim);
  const std::int64_t c = std::min(m.cols(), max_dim);
  for (std::int64_t i = 0; i < r; ++i) {
    if (i) os << " ;";
    for (std::int64_t j = 0; j < c; ++j) os << " " << m(i, j);
    if (c < m.cols()) os << " ...";
  }
  if (r < m.rows()) os << " ; ...";
  os << " ]";
  return os.str();
}

}  // namespace summagen::util
