// Process-wide size-classed pool for transient double workspaces.
//
// The data plane needs short-lived scratch buffers constantly — GEMM pack
// panels, broadcast staging for strided sub-partitions, a run's receive-
// slot workspace lease, OOC device slabs. Allocating them with std::vector
// meant a malloc + zero-fill per use (and, for the old thread_local pack
// buffers, memory retained forever on every pool worker). The BufferPool
// serves these from power-of-two size-classed freelists: steady-state
// acquire is a mutex-guarded pop, and every transaction is accounted (hit
// rate, fresh bytes, resident peak) via src/util/accounting.hpp.
//
// Memory is bounded per class, not overall: each class keeps the
// high-water mark of its own *concurrent* use, so a process that has seen
// many request sizes holds a high-water mark in each of their classes. A
// request whose class has no idle block borrows one from the next class up
// before allocating (the block returns to its own class on release), so a
// workload whose sizes straddle a class boundary keeps one block, not one
// per class. Lending goes one class up only: a smaller block never serves
// a larger request, and a small request never pins a block more than
// twice its own class.
//
// Buffers are NOT zero-initialised on acquire — callers overwrite them.
//
// Contract: every lease ends with the call or run that took it. dgemm
// releases its pack buffers and run_pmm its workspace before returning,
// and no cache keeps a PooledBuffer alive across calls, so with no run in
// flight trim() leaves nothing resident (tests/core/alloc_test.cpp).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

namespace summagen::util {

class BufferPool;

/// RAII handle to a pooled double buffer; returns the storage to the pool
/// on destruction. Move-only. `size()` is the requested element count;
/// `capacity()` is the block's: its size class, or the class above when
/// the block was lent.
class PooledBuffer {
 public:
  PooledBuffer() = default;
  ~PooledBuffer() { release(); }

  PooledBuffer(PooledBuffer&& other) noexcept
      : pool_(other.pool_),
        data_(std::move(other.data_)),
        size_(other.size_),
        capacity_(other.capacity_) {
    other.pool_ = nullptr;
    other.size_ = 0;
    other.capacity_ = 0;
  }

  PooledBuffer& operator=(PooledBuffer&& other) noexcept {
    if (this != &other) {
      release();
      pool_ = other.pool_;
      data_ = std::move(other.data_);
      size_ = other.size_;
      capacity_ = other.capacity_;
      other.pool_ = nullptr;
      other.size_ = 0;
      other.capacity_ = 0;
    }
    return *this;
  }

  PooledBuffer(const PooledBuffer&) = delete;
  PooledBuffer& operator=(const PooledBuffer&) = delete;

  double* data() noexcept { return data_.get(); }
  const double* data() const noexcept { return data_.get(); }
  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return size_ == 0; }

  /// Returns the storage to the pool now (the handle becomes empty).
  void release();

 private:
  friend class BufferPool;
  PooledBuffer(BufferPool* pool, std::unique_ptr<double[]> data,
               std::size_t size, std::size_t capacity)
      : pool_(pool), data_(std::move(data)), size_(size), capacity_(capacity) {}

  BufferPool* pool_ = nullptr;
  std::unique_ptr<double[]> data_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

/// Size-classed freelist pool. Thread-safe; one instance per process.
class BufferPool {
 public:
  /// The process-wide pool. Intentionally leaked so buffers held by
  /// thread_local caches or static state can release safely at shutdown.
  static BufferPool& instance();

  /// Acquires a buffer of at least `doubles` elements (uninitialised): an
  /// idle block of the request's size class, else an idle block of the
  /// next class up, else a fresh allocation. A zero-size request returns
  /// an empty handle without touching the pool.
  PooledBuffer acquire(std::size_t doubles);

  /// Frees every cached (idle) buffer. Outstanding PooledBuffers are
  /// unaffected; their storage is freed on return. Mainly for tests and
  /// memory-pressure hooks.
  void trim();

  /// Number of idle buffers currently cached (test visibility).
  std::size_t cached_count() const;

  BufferPool() = default;
  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

 private:
  friend class PooledBuffer;

  // Size classes are powers of two from 2^kMinClassLog2 doubles upward.
  static constexpr std::size_t kMinClassLog2 = 8;  // 256 doubles = 2 KiB
  static constexpr std::size_t kNumClasses = 34;   // up to 2^41 doubles
  // How many classes up an empty class may borrow an idle block from.
  static constexpr std::size_t kLendClasses = 1;

  struct SizeClass {
    mutable std::mutex mu;
    std::vector<std::unique_ptr<double[]>> free;
  };

  static std::size_t class_index(std::size_t doubles);
  static std::size_t class_capacity(std::size_t index);

  /// Pops an idle block of class `idx`, or returns null.
  std::unique_ptr<double[]> take_idle(std::size_t idx);
  void put_back(std::unique_ptr<double[]> data, std::size_t capacity);

  std::array<SizeClass, kNumClasses> classes_;
};

}  // namespace summagen::util
