// Tests of the size-classed BufferPool and its accounting hooks: freelist
// reuse, one-class-up lending, hit/miss counters, residency tracking, trim,
// and the RAII handle's move semantics. A private pool instance keeps the pointer-identity
// assertions deterministic (the process singleton is shared with every
// other test in the binary).
#include <gtest/gtest.h>

#include <utility>

#include "src/util/accounting.hpp"
#include "src/util/buffer_pool.hpp"

namespace summagen::util {
namespace {

TEST(BufferPool, AcquireDeliversWritableBufferOfRequestedSize) {
  BufferPool pool;
  PooledBuffer buf = pool.acquire(1000);
  ASSERT_NE(buf.data(), nullptr);
  EXPECT_EQ(buf.size(), 1000u);
  EXPECT_GE(buf.capacity(), 1000u);
  for (std::size_t i = 0; i < buf.size(); ++i) buf.data()[i] = 1.5;
  EXPECT_EQ(buf.data()[999], 1.5);
}

TEST(BufferPool, ZeroSizeAcquireReturnsEmptyHandle) {
  BufferPool pool;
  PooledBuffer buf = pool.acquire(0);
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(pool.cached_count(), 0u);
}

TEST(BufferPool, ReleaseThenAcquireReusesTheSameBlock) {
  BufferPool pool;
  double* first = nullptr;
  {
    PooledBuffer buf = pool.acquire(500);
    first = buf.data();
  }
  EXPECT_EQ(pool.cached_count(), 1u);
  PooledBuffer again = pool.acquire(500);
  EXPECT_EQ(again.data(), first);
  EXPECT_EQ(pool.cached_count(), 0u);
}

TEST(BufferPool, DifferentSizeClassesDoNotShareBlocks) {
  BufferPool pool;
  double* small = nullptr;
  { small = pool.acquire(256).data(); }
  // 10000 doubles rounds to a larger power-of-two class: the cached small
  // block cannot serve it.
  PooledBuffer big = pool.acquire(10000);
  EXPECT_NE(big.data(), small);
  EXPECT_EQ(pool.cached_count(), 1u);
}

TEST(BufferPool, EmptyClassBorrowsFromNextClassUp) {
  BufferPool pool;
  double* big = nullptr;
  std::size_t big_capacity = 0;
  {
    PooledBuffer b = pool.acquire(4096);  // the 4096-double class
    big = b.data();
    big_capacity = b.capacity();
  }
  ASSERT_EQ(big_capacity, 4096u);
  const DataPlaneStats base = data_plane_stats();
  {
    // 2000 doubles fall in the 2048-double class, one below, which has no
    // idle block: the request borrows the 4096-double block.
    PooledBuffer lent = pool.acquire(2000);
    EXPECT_EQ(lent.data(), big);
    EXPECT_EQ(lent.size(), 2000u);
    EXPECT_EQ(lent.capacity(), big_capacity);
    EXPECT_EQ(pool.cached_count(), 0u);
  }
  const DataPlaneStats d = data_plane_stats().since(base);
  EXPECT_EQ(d.pool_hits, 1);
  EXPECT_EQ(d.allocs, 0);
  // Released, the block is filed under its own class again: a request of
  // that class gets it back without allocating.
  EXPECT_EQ(pool.cached_count(), 1u);
  PooledBuffer again = pool.acquire(4096);
  EXPECT_EQ(again.data(), big);
  EXPECT_EQ(data_plane_stats().since(base).allocs, 0);
}

TEST(BufferPool, LendsAtMostOneClassUp) {
  BufferPool pool;
  double* two_up = nullptr;
  { two_up = pool.acquire(8192).data(); }  // two classes above 2048
  const DataPlaneStats base = data_plane_stats();
  PooledBuffer fresh = pool.acquire(2000);
  EXPECT_NE(fresh.data(), two_up);
  EXPECT_EQ(fresh.capacity(), 2048u);
  EXPECT_EQ(data_plane_stats().since(base).allocs, 1);
  EXPECT_EQ(pool.cached_count(), 1u);  // the 8192 block stays idle
}

TEST(BufferPool, HitAndMissAccounting) {
  BufferPool pool;
  const DataPlaneStats base = data_plane_stats();
  { PooledBuffer b = pool.acquire(300); }        // miss: fresh allocation
  { PooledBuffer b = pool.acquire(300); }        // hit: freelist pop
  const DataPlaneStats d = data_plane_stats().since(base);
  EXPECT_EQ(d.pool_acquires, 2);
  EXPECT_EQ(d.pool_hits, 1);
  EXPECT_EQ(d.allocs, 1);  // only the miss touched the heap
  EXPECT_GT(d.alloc_bytes, 0);
}

TEST(BufferPool, TrimFreesCachedBuffersAndResidency) {
  BufferPool pool;
  { PooledBuffer b = pool.acquire(400); }
  ASSERT_EQ(pool.cached_count(), 1u);
  const DataPlaneStats before = data_plane_stats();
  pool.trim();
  EXPECT_EQ(pool.cached_count(), 0u);
  const DataPlaneStats after = data_plane_stats();
  EXPECT_LT(after.pool_resident_bytes, before.pool_resident_bytes);
  // After a trim the next acquire is a miss again.
  const DataPlaneStats base = data_plane_stats();
  { PooledBuffer b = pool.acquire(400); }
  EXPECT_EQ(data_plane_stats().since(base).pool_hits, 0);
}

TEST(BufferPool, ExplicitReleaseReturnsStorageEarly) {
  BufferPool pool;
  PooledBuffer buf = pool.acquire(600);
  ASSERT_NE(buf.data(), nullptr);
  buf.release();
  EXPECT_EQ(buf.data(), nullptr);
  EXPECT_TRUE(buf.empty());
  EXPECT_EQ(pool.cached_count(), 1u);
  buf.release();  // double release is a no-op
  EXPECT_EQ(pool.cached_count(), 1u);
}

TEST(BufferPool, MoveTransfersOwnership) {
  BufferPool pool;
  PooledBuffer a = pool.acquire(700);
  double* ptr = a.data();
  PooledBuffer b = std::move(a);
  EXPECT_EQ(b.data(), ptr);
  EXPECT_EQ(a.data(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_TRUE(a.empty());
  PooledBuffer c;
  c = std::move(b);
  EXPECT_EQ(c.data(), ptr);
  // Only one handle owns the block, so only one return happens.
  c.release();
  EXPECT_EQ(pool.cached_count(), 1u);
}

TEST(BufferPool, PeakResidencyIsMonotone) {
  BufferPool pool;
  const DataPlaneStats base = data_plane_stats();
  PooledBuffer a = pool.acquire(2000);
  PooledBuffer b = pool.acquire(2000);
  const std::int64_t peak_while_live = data_plane_stats().pool_peak_resident_bytes;
  a.release();
  b.release();
  pool.trim();
  EXPECT_GE(data_plane_stats().pool_peak_resident_bytes, peak_while_live);
  EXPECT_GE(peak_while_live - base.pool_resident_bytes,
            static_cast<std::int64_t>(2 * 2048 * sizeof(double)));
}

}  // namespace
}  // namespace summagen::util
