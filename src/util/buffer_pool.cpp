#include "src/util/buffer_pool.hpp"

#include <algorithm>
#include <bit>

#include "src/util/accounting.hpp"

namespace summagen::util {

void PooledBuffer::release() {
  if (pool_ != nullptr && data_ != nullptr) {
    pool_->put_back(std::move(data_), capacity_);
  }
  pool_ = nullptr;
  data_.reset();
  size_ = 0;
  capacity_ = 0;
}

BufferPool& BufferPool::instance() {
  static BufferPool* pool = new BufferPool();
  return *pool;
}

std::size_t BufferPool::class_index(std::size_t doubles) {
  const std::size_t rounded = std::bit_ceil(doubles);
  const std::size_t log2 =
      static_cast<std::size_t>(std::bit_width(rounded) - 1);
  const std::size_t idx = log2 <= kMinClassLog2 ? 0 : log2 - kMinClassLog2;
  return idx < kNumClasses ? idx : kNumClasses - 1;
}

std::size_t BufferPool::class_capacity(std::size_t index) {
  return std::size_t{1} << (kMinClassLog2 + index);
}

PooledBuffer BufferPool::acquire(std::size_t doubles) {
  if (doubles == 0) return PooledBuffer();
  const std::size_t idx = class_index(doubles);
  std::size_t capacity = class_capacity(idx);
  if (capacity < doubles) {
    // Requests beyond the largest class get an exact-size allocation that
    // is freed (not cached) on release — see put_back.
    capacity = doubles;
  } else {
    // An idle block of the request's own class, else one lent from the
    // class above: the block keeps its capacity, so put_back files it
    // under its own class again. Lending stops one class up, so a lent
    // block is never more than twice the request's own class.
    const std::size_t last = std::min(idx + kLendClasses, kNumClasses - 1);
    for (std::size_t from = idx; from <= last; ++from) {
      if (std::unique_ptr<double[]> data = take_idle(from)) {
        record_pool_acquire(/*hit=*/true);
        return PooledBuffer(this, std::move(data), doubles,
                            class_capacity(from));
      }
    }
  }
  record_pool_acquire(/*hit=*/false);
  std::unique_ptr<double[]> data(new double[capacity]);
  const auto bytes = static_cast<std::int64_t>(capacity * sizeof(double));
  record_alloc(bytes);
  record_pool_resident_delta(bytes);
  return PooledBuffer(this, std::move(data), doubles, capacity);
}

std::unique_ptr<double[]> BufferPool::take_idle(std::size_t idx) {
  SizeClass& cls = classes_[idx];
  std::lock_guard<std::mutex> lock(cls.mu);
  if (cls.free.empty()) return nullptr;
  std::unique_ptr<double[]> data = std::move(cls.free.back());
  cls.free.pop_back();
  return data;
}

void BufferPool::put_back(std::unique_ptr<double[]> data,
                          std::size_t capacity) {
  const std::size_t idx = class_index(capacity);
  if (capacity != class_capacity(idx)) {
    // Oversize (beyond-largest-class) block: drop it rather than cache a
    // block whose capacity the freelist can no longer describe.
    record_pool_resident_delta(
        -static_cast<std::int64_t>(capacity * sizeof(double)));
    return;
  }
  SizeClass& cls = classes_[idx];
  std::lock_guard<std::mutex> lock(cls.mu);
  cls.free.push_back(std::move(data));
}

void BufferPool::trim() {
  for (std::size_t idx = 0; idx < kNumClasses; ++idx) {
    SizeClass& cls = classes_[idx];
    std::vector<std::unique_ptr<double[]>> doomed;
    {
      std::lock_guard<std::mutex> lock(cls.mu);
      doomed.swap(cls.free);
    }
    if (!doomed.empty()) {
      record_pool_resident_delta(
          -static_cast<std::int64_t>(doomed.size() * class_capacity(idx) *
                                     sizeof(double)));
    }
  }
}

std::size_t BufferPool::cached_count() const {
  std::size_t total = 0;
  for (const SizeClass& cls : classes_) {
    std::lock_guard<std::mutex> lock(cls.mu);
    total += cls.free.size();
  }
  return total;
}

}  // namespace summagen::util
