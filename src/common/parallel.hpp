// Deterministic shared-memory parallelism for the train/eval hot paths.
//
// The contract every caller relies on: **results never depend on the thread
// count.** That is achieved with three rules, all enforced here or by the
// call sites:
//
//   1. Static chunking. [0, n) is split into ceil(n / grain) contiguous
//      chunks whose boundaries depend only on n and grain — never on how
//      many threads happen to execute them.
//   2. Fixed-order reduction. Chunks may *execute* in any order on any
//      thread, but per-chunk partial results are combined in ascending
//      chunk index order, so floating-point accumulation order is fixed.
//   3. No shared RNG. A stochastic loop is only parallelized if every
//      parallel unit owns a pre-split Rng stream (see ThermalModel), so the
//      draw sequence per unit is independent of scheduling.
//
// The pool is lazily initialized on first use and sized by
// std::thread::hardware_concurrency(), overridable with the REPRO_THREADS
// environment variable (or set_parallel_threads() at runtime). The value 1
// bypasses the pool entirely: chunks run inline, in order, on the calling
// thread — and by rules 1–2 produce bit-identical results to any other
// thread count.
//
// Nested parallel regions (a parallel_for issued from inside a pool worker,
// e.g. a model fit inside a parallel model sweep) run inline serially;
// chunk grids are unchanged, so nesting does not perturb results either.
//
// Dispatch: the pool owns one job slot. Top-level dispatches are
// serialized; each fills the slot (function, chunk count, region name)
// under the pool mutex with a new generation number and wakes
// min(threads, chunks) - 1 helpers, one notify each. A worker joins while
// fewer than that many have joined the generation, drains chunks, records
// its trace event and leaves the region. The dispatcher drains chunks too,
// then closes the slot to further joins, waits until no joined worker is
// left inside, and rethrows the first exception a chunk threw.
//
// Observability (src/obs): when tracing is enabled, each pool worker is
// bound to trace track "worker-<k>". The dispatching thread times each
// dispatched region once into the "parallel.region" timer, and every
// thread draining it records a trace event named "<span>/region" after the
// innermost span on the dispatching thread, so fanned-out work attributes
// to the right worker and nests under the region that spawned it. Workers
// record their event before they leave, so a trace read right after a
// region holds every event. Each region that runs inline (one chunk, one
// thread, or nested) counts once into the "parallel.inline_calls" counter.
// With metrics disabled the only cost per region is one relaxed atomic
// load.
#pragma once

#include <cstddef>
#include <functional>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace repro {

/// Effective worker count (>= 1) used by subsequent parallel calls.
/// First call reads REPRO_THREADS, falling back to hardware concurrency.
std::size_t parallel_threads();

/// Overrides the effective thread count at runtime (clamped to [1, 256]).
/// Thread-count invariance tests sweep this; 1 bypasses the pool.
void set_parallel_threads(std::size_t n);

/// True when called from inside a pool worker (nested regions run inline).
bool in_parallel_region();

namespace detail {
/// REPRO_THREADS parsing, exposed for tests: positive integer -> that many
/// threads (clamped to 256); anything else (empty, junk, 0) -> 1.
std::size_t threads_from_env(const char* value) noexcept;

/// Executes fn(chunk) for chunk in [0, chunks) across the pool. fn may run
/// concurrently; exceptions are captured and the first is rethrown on the
/// calling thread after all chunks finish.
void run_chunks(std::size_t chunks, const std::function<void(std::size_t)>& fn);
}  // namespace detail

/// Number of static chunks for n items at the given grain (grain >= 1).
constexpr std::size_t chunk_count(std::size_t n, std::size_t grain) noexcept {
  return grain == 0 ? 0 : (n + grain - 1) / grain;
}

/// A grain that caps the chunk count: max(min_grain, ceil(n / max_chunks)).
/// Pure in n — callers use it to bound per-chunk scratch memory without
/// making chunk boundaries depend on the thread count.
constexpr std::size_t chunk_grain_for(std::size_t n, std::size_t min_grain,
                                      std::size_t max_chunks) noexcept {
  const std::size_t spread = max_chunks == 0 ? n : (n + max_chunks - 1) / max_chunks;
  return min_grain > spread ? min_grain : spread;
}

/// Runs fn(chunk, begin, end) for every static chunk of [0, n). Chunks may
/// execute concurrently and in any order; fn must only write state that is
/// disjoint per chunk (or per index).
inline void parallel_for_chunks(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks == 0) return;
  if (chunks == 1 || parallel_threads() <= 1 || in_parallel_region()) {
    OBS_COUNT("parallel.inline_calls");
    for (std::size_t c = 0; c < chunks; ++c) {
      const std::size_t begin = c * grain;
      const std::size_t end = begin + grain < n ? begin + grain : n;
      fn(c, begin, end);
    }
    return;
  }
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * grain;
    const std::size_t end = begin + grain < n ? begin + grain : n;
    fn(c, begin, end);
  });
}

/// Runs fn(begin, end) over static chunks of [0, n). fn must write disjoint
/// state per index (each index is visited exactly once).
inline void parallel_for(
    std::size_t n, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& fn) {
  parallel_for_chunks(
      n, grain,
      [&](std::size_t, std::size_t begin, std::size_t end) { fn(begin, end); });
}

/// Ordered reduction: map(begin, end) -> partial per chunk, then partials
/// combined left-to-right in chunk order: combine(combine(init, p0), p1)...
/// Deterministic for any thread count (rule 2 above).
template <typename T, typename MapFn, typename CombineFn>
[[nodiscard]] T parallel_reduce(std::size_t n, std::size_t grain, T init,
                                MapFn map, CombineFn combine) {
  const std::size_t chunks = chunk_count(n, grain);
  if (chunks == 0) return init;
  std::vector<T> partials(chunks, init);
  parallel_for_chunks(n, grain,
                      [&](std::size_t c, std::size_t begin, std::size_t end) {
                        partials[c] = map(begin, end);
                      });
  T acc = std::move(init);
  for (std::size_t c = 0; c < chunks; ++c) {
    acc = combine(std::move(acc), std::move(partials[c]));
  }
  return acc;
}

}  // namespace repro
