// Dispatch-layer tests: tier parsing/availability and the force-scalar
// override, the tune-cache JSON round trip and block-size resolution, and
// the process-wide pack cache (hit/miss counters, waiter handshake,
// budget eviction, quiescent trim).
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/blas/gemm.hpp"
#include "src/blas/pack_cache.hpp"
#include "src/blas/simd.hpp"
#include "src/blas/tune.hpp"
#include "src/util/accounting.hpp"
#include "src/util/matrix.hpp"
#include "src/util/rng.hpp"

namespace summagen::blas {
namespace {

// RAII environment override (tests run single-threaded at the top level).
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      ::setenv(name_.c_str(), old_.c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::string old_;
  bool had_old_ = false;
};

TEST(SimdDispatch, ParseAndNameRoundTrip) {
  for (SimdTier t : {SimdTier::kAuto, SimdTier::kScalar, SimdTier::kSse2,
                     SimdTier::kAvx2}) {
    EXPECT_EQ(parse_simd_tier(simd_tier_name(t)), t);
  }
  EXPECT_THROW(parse_simd_tier("avx512"), std::invalid_argument);
  EXPECT_THROW(parse_simd_tier(""), std::invalid_argument);
}

TEST(SimdDispatch, ScalarAlwaysAvailableAndAutoResolves) {
  EXPECT_TRUE(simd_tier_available(SimdTier::kScalar));
  const SimdTier best = best_simd_tier();
  EXPECT_TRUE(simd_tier_available(best));
  EXPECT_EQ(resolve_simd_tier(SimdTier::kAuto), best);
  EXPECT_EQ(resolve_simd_tier(SimdTier::kScalar), SimdTier::kScalar);
}

TEST(SimdDispatch, ForceScalarCapsAvailability) {
  ScopedEnv force("SUMMAGEN_FORCE_SCALAR", "1");
  EXPECT_TRUE(force_scalar_requested());
  EXPECT_EQ(best_simd_tier(), SimdTier::kScalar);
  EXPECT_FALSE(simd_tier_available(SimdTier::kSse2));
  EXPECT_FALSE(simd_tier_available(SimdTier::kAvx2));
  // Explicitly requesting a vector tier under the override must fail
  // loudly rather than silently downgrade.
  if (simd_tier_compiled(SimdTier::kSse2)) {
    EXPECT_THROW(resolve_simd_tier(SimdTier::kSse2), std::invalid_argument);
  }
}

TEST(SimdDispatch, ForceScalarZeroMeansOff) {
  ScopedEnv force("SUMMAGEN_FORCE_SCALAR", "0");
  EXPECT_FALSE(force_scalar_requested());
}

TEST(SimdDispatch, UnavailableExplicitTierThrows) {
  for (SimdTier t : {SimdTier::kSse2, SimdTier::kAvx2}) {
    if (!simd_tier_available(t)) {
      EXPECT_THROW(resolve_simd_tier(t), std::invalid_argument);
    }
  }
}

TEST(TuneCache, JsonRoundTrip) {
  TuneFile file;
  file["Test CPU @ 3.2GHz"]["avx2"] = {{96, 2048, 256}, 31.5};
  file["Test CPU @ 3.2GHz"]["scalar"] = {{128, 4096, 256}, 10.8};
  file["Other \"quoted\" CPU"]["sse2"] = {{64, 512, 128}, 7.25};
  const std::string text = format_tune_file(file);
  TuneFile parsed;
  ASSERT_TRUE(parse_tune_file(text, &parsed));
  ASSERT_EQ(parsed.size(), 2u);
  const TuneRecord& avx2 = parsed["Test CPU @ 3.2GHz"]["avx2"];
  EXPECT_EQ(avx2.bs.mc, 96);
  EXPECT_EQ(avx2.bs.nc, 2048);
  EXPECT_EQ(avx2.bs.kc, 256);
  EXPECT_DOUBLE_EQ(avx2.gflops, 31.5);
  EXPECT_EQ(parsed["Other \"quoted\" CPU"]["sse2"].bs.kc, 128);
}

TEST(TuneCache, ParseRejectsMalformedAndToleratesUnknownFields) {
  TuneFile out;
  EXPECT_FALSE(parse_tune_file("", &out));
  EXPECT_FALSE(parse_tune_file("{\"cpus\": {", &out));
  EXPECT_FALSE(parse_tune_file("not json", &out));
  // Unknown top-level keys (version, future additions) are skipped.
  ASSERT_TRUE(parse_tune_file(
      R"({"version": 1, "future": [1, {"x": "}"}], "cpus":
         {"cpu": {"avx2": {"mc": 8, "nc": 16, "kc": 4, "gflops": 1.0}}}})",
      &out));
  EXPECT_EQ(out["cpu"]["avx2"].bs.mc, 8);
}

TEST(TuneCache, DefaultsArePositiveForEveryTier) {
  for (SimdTier t : {SimdTier::kAuto, SimdTier::kScalar, SimdTier::kSse2,
                     SimdTier::kAvx2}) {
    const BlockSizes bs = default_block_sizes(t);
    EXPECT_GT(bs.mc, 0);
    EXPECT_GT(bs.nc, 0);
    EXPECT_GT(bs.kc, 0);
  }
}

TEST(TuneCache, ResolveHonoursExplicitOverrides) {
  GemmOptions opts;
  opts.mc = 24;
  opts.nc = 96;
  opts.kc = 12;
  const BlockSizes bs = resolve_block_sizes(opts, SimdTier::kScalar);
  EXPECT_EQ(bs.mc, 24);
  EXPECT_EQ(bs.nc, 96);
  EXPECT_EQ(bs.kc, 12);
  // Partial overrides keep the remaining auto values positive.
  GemmOptions partial;
  partial.kc = 5;
  const BlockSizes pb = resolve_block_sizes(partial, SimdTier::kScalar);
  EXPECT_EQ(pb.kc, 5);
  EXPECT_GT(pb.mc, 0);
  EXPECT_GT(pb.nc, 0);
}

TEST(TuneCache, CpuModelKeyIsNonEmpty) {
  EXPECT_FALSE(cpu_model_key().empty());
}

TEST(PackCache, MissThenHitCounts) {
  PackCache& cache = PackCache::instance();
  const PackKey key{pack_tag({0xfeedu, 1}), 0, 0, 8};
  const auto base = util::data_plane_stats();
  int packs = 0;
  {
    const auto lease1 = cache.lease(key, 64, [&](double* dst) {
      ++packs;
      for (int i = 0; i < 64; ++i) dst[i] = i;
    });
    ASSERT_TRUE(static_cast<bool>(lease1));
    const auto lease2 =
        cache.lease(key, 64, [&](double* dst) { ++packs; (void)dst; });
    ASSERT_TRUE(static_cast<bool>(lease2));
    EXPECT_EQ(lease1.data(), lease2.data());
    EXPECT_EQ(lease2.data()[63], 63.0);
  }
  EXPECT_EQ(packs, 1);
  const auto d = util::data_plane_stats().since(base);
  EXPECT_EQ(d.pack_lookups, 2);
  EXPECT_EQ(d.pack_hits, 1);
  cache.trim();
}

TEST(PackCache, DistinctKeysPackSeparately) {
  PackCache& cache = PackCache::instance();
  const std::uint64_t tag = pack_tag({0xfeedu, 2});
  int packs = 0;
  const auto fill = [&](double* dst) {
    ++packs;
    dst[0] = packs;
  };
  const auto a = cache.lease(PackKey{tag, 0, 0, 8}, 8, fill);
  const auto b = cache.lease(PackKey{tag, 8, 0, 8}, 8, fill);
  const auto c = cache.lease(PackKey{tag, 0, 256, 8}, 8, fill);
  EXPECT_EQ(packs, 3);
  EXPECT_NE(a.data(), b.data());
  EXPECT_NE(a.data(), c.data());
  cache.trim();
}

TEST(PackCache, ConcurrentLeasesPackOnce) {
  PackCache& cache = PackCache::instance();
  const PackKey key{pack_tag({0xfeedu, 3}), 0, 0, 8};
  std::atomic<int> packs{0};
  std::vector<std::thread> threads;
  std::vector<const double*> seen(8, nullptr);
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      const auto lease = cache.lease(key, 256, [&](double* dst) {
        packs.fetch_add(1);
        for (int i = 0; i < 256; ++i) dst[i] = 1.5;
      });
      seen[static_cast<std::size_t>(t)] = lease.data();
      EXPECT_EQ(lease.data()[255], 1.5);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(packs.load(), 1);
  for (const double* p : seen) EXPECT_EQ(p, seen[0]);
  cache.trim();
}

TEST(PackCache, TrimDropsUnleasedEntries) {
  PackCache& cache = PackCache::instance();
  cache.trim();
  const std::int64_t before = cache.resident_bytes();
  {
    const auto lease = cache.lease(
        PackKey{pack_tag({0xfeedu, 4}), 0, 0, 8}, 1024,
        [](double* dst) { dst[0] = 1.0; });
    // Leased entries survive a trim.
    cache.trim();
    EXPECT_GE(cache.resident_bytes(), before + 1024 * 8);
  }
  cache.trim();
  EXPECT_EQ(cache.resident_bytes(), before);
}

TEST(PackCache, BudgetEvictsLeastRecentlyUsed) {
  PackCache& cache = PackCache::instance();
  cache.trim();
  const std::int64_t old_budget = cache.budget_bytes();
  // Budget fits two 1 KiB entries but not three.
  cache.set_budget_bytes(2 * 1024 * 8 + 64);
  const std::uint64_t tag = pack_tag({0xfeedu, 5});
  int packs = 0;
  const auto fill = [&](double* dst) {
    ++packs;
    dst[0] = 1.0;
  };
  (void)cache.lease(PackKey{tag, 0, 0, 8}, 1024, fill);
  (void)cache.lease(PackKey{tag, 1, 0, 8}, 1024, fill);
  (void)cache.lease(PackKey{tag, 2, 0, 8}, 1024, fill);  // evicts key 0
  EXPECT_EQ(packs, 3);
  (void)cache.lease(PackKey{tag, 2, 0, 8}, 1024, fill);  // still resident
  EXPECT_EQ(packs, 3);
  (void)cache.lease(PackKey{tag, 0, 0, 8}, 1024, fill);  // was evicted
  EXPECT_EQ(packs, 4);
  cache.set_budget_bytes(old_budget);
  cache.trim();
}

TEST(PackCache, DgemmReusesPackedBAcrossCalls) {
  // Two dgemm calls with the same b_pack_key: the second packs nothing.
  util::Matrix a(32, 48), b(48, 24), c(32, 24);
  util::fill_random(a, 31);
  util::fill_random(b, 32);
  GemmOptions opts;
  opts.kernel = GemmKernel::kPacked;
  opts.b_pack_key = pack_tag({0xfeedu, 6});
  const auto base = util::data_plane_stats();
  dgemm(32, 24, 48, 1.0, a.data(), 48, b.data(), 24, 0.0, c.data(), 24,
        opts);
  util::Matrix first = c;
  dgemm(32, 24, 48, 1.0, a.data(), 48, b.data(), 24, 0.0, c.data(), 24,
        opts);
  EXPECT_EQ(first, c);
  const auto d = util::data_plane_stats().since(base);
  EXPECT_GE(d.pack_lookups, 2);
  EXPECT_GE(d.pack_hits, 1);
  EXPECT_GT(d.pack_hit_rate(), 0.0);
  // Keyed and unkeyed runs agree bitwise (the pack cache only changes who
  // packs, never what is packed).
  GemmOptions unkeyed = opts;
  unkeyed.b_pack_key = 0;
  util::Matrix c2(32, 24);
  dgemm(32, 24, 48, 1.0, a.data(), 48, b.data(), 24, 0.0, c2.data(), 24,
        unkeyed);
  EXPECT_EQ(first, c2);
  PackCache::instance().trim();
}

TEST(PackCache, PackTagNeverZeroAndOrderSensitive) {
  EXPECT_NE(pack_tag({0}), 0u);
  EXPECT_NE(pack_tag({1, 2}), pack_tag({2, 1}));
  EXPECT_NE(pack_tag({1, 2}), pack_tag({1, 2, 0}));
}

TEST(GemmValidation, RejectsNegativeBlocking) {
  util::Matrix a(4, 4), b(4, 4), c(4, 4);
  GemmOptions bad_mc{.kernel = GemmKernel::kPacked, .mc = -1};
  EXPECT_THROW(dgemm(4, 4, 4, 1.0, a.data(), 4, b.data(), 4, 0.0, c.data(),
                     4, bad_mc),
               std::invalid_argument);
}

}  // namespace
}  // namespace summagen::blas
