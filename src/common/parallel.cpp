#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/obs.hpp"

namespace repro {

namespace {

constexpr std::size_t kMaxThreads = 256;

std::atomic<std::size_t> g_threads{0};  // 0 = not initialized yet

thread_local bool tl_in_worker = false;

// One job slot, reused by every dispatch (protocol in parallel.hpp). Once
// the dispatcher's own drain ends and active_ is 0, every chunk is done:
// each was claimed by the dispatcher or by a worker that has since left.
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::size_t chunks, const std::function<void(std::size_t)>& fn) {
    if (chunks == 0) return;
    // Serialize top-level dispatches; nested ones never get here (they run
    // inline in parallel_for_chunks).
    std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
    const std::size_t wanted = std::min(parallel_threads(), chunks) - 1;
    ensure_workers(wanted);
    // Observability label for this region: "<span>/region" after the
    // innermost span open on the dispatching thread (nullptr when metrics
    // are off). The dispatcher times the region under this name, and every
    // worker that joins records a trace event with it on its own track, so
    // fanned-out work nests under the region that spawned it without
    // repeating the parent span's name.
    const char* region = nullptr;
    if (obs::enabled()) {
      const char* span = obs::current_span_name();
      region = obs::intern(
          std::string(span != nullptr ? span : "parallel_for") + "/region");
    }
    {
      std::lock_guard<std::mutex> lk(mutex_);
      fn_ = &fn;
      chunks_ = chunks;
      region_ = region;
      next_.store(0, std::memory_order_relaxed);
      ++generation_;
      joined_ = 0;
      wanted_ = wanted;
    }
    for (std::size_t i = 0; i < wanted; ++i) cv_.notify_one();
    // The dispatching thread works too; while it drains chunks it counts as
    // inside the region, so nested parallel calls from fn run inline.
    tl_in_worker = true;
    if (region != nullptr) {
      // One timed span per dispatched region: parallel.region_calls counts
      // dispatches, which do not depend on how many workers joined.
      static obs::Timer& region_timer = obs::timer("parallel.region");
      const obs::Span span(region_timer, region);
      drain(fn, chunks);
    } else {
      drain(fn, chunks);
    }
    tl_in_worker = false;
    std::exception_ptr error;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      wanted_ = 0;  // no further joins
      done_cv_.wait(lk, [&] { return active_ == 0; });
      error = std::exchange(error_, nullptr);
    }
    if (error) std::rethrow_exception(error);
  }

 private:
  Pool() = default;

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mutex_);
      stop_ = true;
    }
    cv_.notify_all();
    for (auto& t : workers_) t.join();
  }

  void ensure_workers(std::size_t want) {
    std::lock_guard<std::mutex> lk(mutex_);
    while (workers_.size() < want) {
      // Worker k records onto trace track "worker-<k+1>" (0 is the main /
      // dispatching thread); binding is an obs-side thread_local, so it
      // costs nothing when tracing stays disabled.
      workers_.emplace_back([this, id = workers_.size() + 1] {
        obs::bind_worker(id);
        worker_loop();
      });
    }
  }

  void worker_loop() {
    tl_in_worker = true;
    std::uint64_t seen = 0;  // last generation this worker joined
    std::unique_lock<std::mutex> lk(mutex_);
    for (;;) {
      cv_.wait(lk, [&] {
        return stop_ || (generation_ != seen && joined_ < wanted_);
      });
      if (stop_) return;
      seen = generation_;
      ++joined_;
      ++active_;
      const std::function<void(std::size_t)>& fn = *fn_;
      const std::size_t chunks = chunks_;
      const char* region = region_;
      lk.unlock();
      if (region != nullptr) {
        const std::uint64_t start = obs::now_ns();
        drain(fn, chunks);
        obs::record_event(region, start, obs::now_ns() - start);
      } else {
        drain(fn, chunks);
      }
      lk.lock();
      if (--active_ == 0) done_cv_.notify_one();
    }
  }

  void drain(const std::function<void(std::size_t)>& fn, std::size_t chunks) {
    for (;;) {
      const std::size_t c = next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) return;
      try {
        fn(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mutex_);
        if (!error_) error_ = std::current_exception();
      }
    }
  }

  std::mutex dispatch_mutex_;  // serializes top-level dispatches
  // The job slot and the worker bookkeeping; all but next_ guarded by mutex_.
  std::mutex mutex_;
  std::condition_variable cv_;       // workers: a job slot opened, or stop
  std::condition_variable done_cv_;  // dispatcher: active_ reached 0
  const std::function<void(std::size_t)>* fn_ = nullptr;
  std::size_t chunks_ = 0;
  const char* region_ = nullptr;
  std::atomic<std::size_t> next_{0};  // next unclaimed chunk
  std::uint64_t generation_ = 0;
  std::size_t joined_ = 0;  // workers that joined this generation
  std::size_t wanted_ = 0;  // helpers this generation may take; 0 = closed
  std::size_t active_ = 0;  // joined workers still inside the region
  std::exception_ptr error_;
  bool stop_ = false;
  std::vector<std::thread> workers_;  // last: workers use every member above
};

std::size_t default_threads() noexcept {
  if (const char* env = std::getenv("REPRO_THREADS")) {
    return detail::threads_from_env(env);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace

namespace detail {

std::size_t threads_from_env(const char* value) noexcept {
  if (value == nullptr || *value == '\0') return 1;
  // strtoul accepts (and wraps) negative input, so reject signs up front.
  const char* p = value;
  while (*p == ' ' || *p == '\t') ++p;
  if (*p == '-' || *p == '+') return 1;
  char* end = nullptr;
  const unsigned long parsed = std::strtoul(p, &end, 10);
  if (end == p || *end != '\0' || parsed == 0) return 1;
  return parsed > kMaxThreads ? kMaxThreads : static_cast<std::size_t>(parsed);
}

void run_chunks(std::size_t chunks,
                const std::function<void(std::size_t)>& fn) {
  Pool::instance().run(chunks, fn);
}

}  // namespace detail

std::size_t parallel_threads() {
  std::size_t n = g_threads.load(std::memory_order_relaxed);
  if (n == 0) {
    n = default_threads();
    std::size_t expected = 0;
    if (!g_threads.compare_exchange_strong(expected, n,
                                           std::memory_order_relaxed)) {
      n = expected;  // another thread initialized first
    }
  }
  return n;
}

void set_parallel_threads(std::size_t n) {
  if (n < 1) n = 1;
  if (n > kMaxThreads) n = kMaxThreads;
  g_threads.store(n, std::memory_order_relaxed);
}

bool in_parallel_region() { return tl_in_worker; }

}  // namespace repro
