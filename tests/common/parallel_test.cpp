// The deterministic parallel layer's contract (common/parallel.hpp):
// static chunk grids, fixed-order reduction, full bypass at one thread —
// and therefore results that never depend on the thread count.
#include "common/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace repro {
namespace {

// Restores the thread count after each test so the sweep order of tests
// cannot leak state.
class ParallelTest : public ::testing::Test {
 protected:
  void TearDown() override { set_parallel_threads(1); }
};

TEST_F(ParallelTest, ChunkCountMatchesCeilDiv) {
  EXPECT_EQ(chunk_count(0, 4), 0u);
  EXPECT_EQ(chunk_count(1, 4), 1u);
  EXPECT_EQ(chunk_count(4, 4), 1u);
  EXPECT_EQ(chunk_count(5, 4), 2u);
  EXPECT_EQ(chunk_count(8, 4), 2u);
  EXPECT_EQ(chunk_count(9, 4), 3u);
}

TEST_F(ParallelTest, ChunkGrainForCapsChunkCount) {
  // Large n: the grain grows so the chunk count stays at the cap.
  for (const std::size_t n : {100000ul, 123457ul, 999999ul}) {
    const std::size_t grain = chunk_grain_for(n, 4096, 16);
    EXPECT_LE(chunk_count(n, grain), 16u) << "n=" << n;
  }
  // Small n: the minimum grain wins.
  EXPECT_EQ(chunk_grain_for(100, 4096, 16), 4096u);
}

TEST_F(ParallelTest, ThreadsFromEnvParsing) {
  EXPECT_EQ(detail::threads_from_env("1"), 1u);
  EXPECT_EQ(detail::threads_from_env("8"), 8u);
  EXPECT_EQ(detail::threads_from_env("0"), 1u);     // invalid -> 1
  EXPECT_EQ(detail::threads_from_env(""), 1u);
  EXPECT_EQ(detail::threads_from_env("abc"), 1u);
  EXPECT_EQ(detail::threads_from_env("4x"), 1u);
  EXPECT_EQ(detail::threads_from_env("-2"), 1u);
  EXPECT_EQ(detail::threads_from_env("99999"), 256u);  // clamped
  EXPECT_EQ(detail::threads_from_env(nullptr), 1u);
}

TEST_F(ParallelTest, SetParallelThreadsClamps) {
  set_parallel_threads(0);
  EXPECT_EQ(parallel_threads(), 1u);
  set_parallel_threads(100000);
  EXPECT_EQ(parallel_threads(), 256u);
  set_parallel_threads(4);
  EXPECT_EQ(parallel_threads(), 4u);
}

TEST_F(ParallelTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    set_parallel_threads(threads);
    const std::size_t n = 10007;  // prime: uneven final chunk
    std::vector<std::atomic<int>> visits(n);
    parallel_for(n, 64, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        visits[i].fetch_add(1, std::memory_order_relaxed);
      }
    });
    for (std::size_t i = 0; i < n; ++i) {
      ASSERT_EQ(visits[i].load(), 1) << "index " << i << " at " << threads
                                     << " threads";
    }
  }
}

TEST_F(ParallelTest, ChunkGridIndependentOfThreadCount) {
  auto grid_at = [](std::size_t threads) {
    set_parallel_threads(threads);
    std::vector<std::pair<std::size_t, std::size_t>> grid(
        chunk_count(1000, 128));
    parallel_for_chunks(1000, 128,
                        [&](std::size_t c, std::size_t b, std::size_t e) {
                          grid[c] = {b, e};
                        });
    return grid;
  };
  const auto serial = grid_at(1);
  EXPECT_EQ(grid_at(2), serial);
  EXPECT_EQ(grid_at(8), serial);
}

TEST_F(ParallelTest, OrderedReduceIsBitwiseInvariantAcrossThreadCounts) {
  // A sum whose value DOES depend on accumulation order in floating point;
  // the fixed-order combine must make it identical for every thread count.
  const std::size_t n = 50000;
  std::vector<float> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = std::sin(static_cast<float>(i) * 0.37f) *
                (i % 97 == 0 ? 1e6f : 1e-3f);
  }
  auto sum_at = [&](std::size_t threads) {
    set_parallel_threads(threads);
    return parallel_reduce(
        n, 512, 0.0f,
        [&](std::size_t begin, std::size_t end) {
          float s = 0.0f;
          for (std::size_t i = begin; i < end; ++i) s += values[i];
          return s;
        },
        [](float a, float b) { return a + b; });
  };
  const float serial = sum_at(1);
  EXPECT_EQ(sum_at(2), serial);    // bitwise: EQ on floats is intentional
  EXPECT_EQ(sum_at(3), serial);
  EXPECT_EQ(sum_at(8), serial);
}

TEST_F(ParallelTest, NestedRegionsRunInlineAndStayCorrect) {
  set_parallel_threads(4);
  const std::size_t n = 64;
  std::vector<std::uint64_t> out(n, 0);
  parallel_for(n, 4, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      // Inner region: must run inline (no deadlock) and still cover its
      // whole range.
      const std::uint64_t inner = parallel_reduce(
          100, 10, std::uint64_t{0},
          [&](std::size_t b, std::size_t e) {
            std::uint64_t s = 0;
            for (std::size_t k = b; k < e; ++k) s += k;
            return s;
          },
          [](std::uint64_t a, std::uint64_t b2) { return a + b2; });
      out[i] = inner + i;
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(out[i], 4950u + i);  // sum(0..99) == 4950
  }
}

TEST_F(ParallelTest, ExceptionInChunkPropagatesToCaller) {
  for (const std::size_t threads : {1u, 4u}) {
    set_parallel_threads(threads);
    EXPECT_THROW(
        parallel_for(1000, 10,
                     [&](std::size_t begin, std::size_t) {
                       if (begin >= 500) throw std::runtime_error("boom");
                     }),
        std::runtime_error)
        << threads << " threads";
    // The pool must still be usable afterwards.
    std::atomic<std::size_t> count{0};
    parallel_for(100, 10, [&](std::size_t begin, std::size_t end) {
      count.fetch_add(end - begin, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 100u);
  }
}

TEST_F(ParallelTest, StressManySmallDispatches) {
  // Exercises dispatch/wakeup races (and gives TSan something to chew on).
  set_parallel_threads(8);
  std::uint64_t total = 0;
  for (int round = 0; round < 300; ++round) {
    total += parallel_reduce(
        257, 16, std::uint64_t{0},
        [&](std::size_t b, std::size_t e) {
          return static_cast<std::uint64_t>(e - b);
        },
        [](std::uint64_t a, std::uint64_t b2) { return a + b2; });
  }
  EXPECT_EQ(total, 300u * 257u);
}

TEST_F(ParallelTest, EmptyRangeIsANoOp) {
  set_parallel_threads(4);
  bool called = false;
  parallel_for(0, 16, [&](std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  EXPECT_EQ(parallel_reduce(
                0, 16, 42,
                [](std::size_t, std::size_t) { return 1; },
                [](int a, int b) { return a + b; }),
            42);
}

// --- the dispatch protocol ---------------------------------------------------

// Pool tests that capture trace events; they leave obs off and empty.
class PoolTest : public ParallelTest {
 protected:
  void TearDown() override {
    obs::reset();
    obs::set_enabled(false);
    obs::set_capturing(false);
    ParallelTest::TearDown();
  }
};

// Sum of [0, n) through the pool, one chunk per `grain` indices.
std::uint64_t pool_sum(std::size_t n, std::size_t grain) {
  return parallel_reduce(
      n, grain, std::uint64_t{0},
      [](std::size_t b, std::size_t e) {
        std::uint64_t s = 0;
        for (std::size_t i = b; i < e; ++i) s += i;
        return s;
      },
      [](std::uint64_t a, std::uint64_t b) { return a + b; });
}

// Runs one region of `chunks` chunks, each long enough for woken helpers to
// arrive, and returns how many "<span>/region" events it recorded.
std::size_t region_events(std::size_t chunks) {
  obs::reset();
  parallel_for(chunks, 1, [](std::size_t, std::size_t) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  });
  std::size_t events = 0;
  for (const obs::TraceEvent& e : obs::captured_events()) {
    if (e.name == "parallel_for/region") ++events;
  }
  return events;
}

TEST_F(PoolTest, TwoChunkRegionWakesOneHelper) {
  // Only the dispatcher and one helper can take a share of two chunks, so
  // no more than two threads may join and record an event.
  obs::set_enabled(true);
  obs::set_capturing(true);
  set_parallel_threads(4);
  for (int r = 0; r < 200; ++r) {
    const std::size_t events = region_events(2);
    ASSERT_GE(events, 1u) << "region " << r;
    ASSERT_LE(events, 2u) << "region " << r;
  }
}

TEST_F(PoolTest, ConcurrentDispatchersBothGetCorrectSums) {
  // Top-level dispatches from two threads share the one job slot in turn.
  set_parallel_threads(4);
  constexpr std::size_t kN = 1 << 14;
  constexpr std::uint64_t kSum = std::uint64_t{kN} * (kN - 1) / 2;
  std::atomic<int> wrong{0};
  const auto dispatcher = [&] {
    for (int r = 0; r < 500; ++r) {
      if (pool_sum(kN, 256) != kSum) wrong.fetch_add(1);
    }
  };
  std::thread a(dispatcher);
  std::thread b(dispatcher);
  a.join();
  b.join();
  EXPECT_EQ(wrong.load(), 0);
}

TEST_F(PoolTest, ThreadCountChangesBetweenDispatches) {
  // Workers spawned at 8 threads stay parked at 2: a region then takes at
  // most one helper, and growing back to 8 reuses them.
  obs::set_enabled(true);
  obs::set_capturing(true);
  constexpr std::size_t kN = 1000;
  constexpr std::uint64_t kSum = kN * (kN - 1) / 2;
  for (const std::size_t threads : {8u, 2u, 8u}) {
    set_parallel_threads(threads);
    for (int r = 0; r < 50; ++r) {
      ASSERT_EQ(pool_sum(kN, 10), kSum) << threads << " threads";
    }
    for (int r = 0; r < 20; ++r) {
      const std::size_t events = region_events(8);
      ASSERT_GE(events, 1u) << threads << " threads";
      ASSERT_LE(events, threads) << threads << " threads";
    }
  }
}

TEST_F(PoolTest, ErrorStaysWithTheRegionThatThrew) {
  set_parallel_threads(4);
  constexpr std::size_t kN = 1 << 14;
  constexpr std::uint64_t kSum = std::uint64_t{kN} * (kN - 1) / 2;
  std::atomic<int> missed_throws{0};
  std::atomic<int> foreign_errors{0};
  std::thread thrower([&] {
    for (int r = 0; r < 300; ++r) {
      try {
        parallel_for(64, 4, [](std::size_t begin, std::size_t) {
          if (begin == 32) throw std::runtime_error("boom");
        });
        missed_throws.fetch_add(1);
      } catch (const std::runtime_error&) {
      }
    }
  });
  std::thread clean([&] {
    for (int r = 0; r < 300; ++r) {
      try {
        if (pool_sum(kN, 256) != kSum) foreign_errors.fetch_add(1);
      } catch (...) {
        foreign_errors.fetch_add(1);
      }
    }
  });
  thrower.join();
  clean.join();
  EXPECT_EQ(missed_throws.load(), 0);
  EXPECT_EQ(foreign_errors.load(), 0);
}

}  // namespace
}  // namespace repro
