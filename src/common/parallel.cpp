#include "common/parallel.hpp"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "obs/obs.hpp"

namespace repro {

namespace {

constexpr std::size_t kMaxThreads = 256;

std::atomic<std::size_t> g_threads{0};  // 0 = not initialized yet

thread_local bool tl_in_worker = false;

// One dispatched parallel region. Workers hold a shared_ptr, so a worker
// that wakes late for an already-finished job sees an exhausted chunk
// counter and goes back to sleep without touching the next job's state.
struct Job {
  explicit Job(std::size_t n, std::size_t max_helpers,
               const std::function<void(std::size_t)>& f)
      : chunks(n), helpers(max_helpers), fn(f) {}

  const std::size_t chunks;
  const std::size_t helpers;        // workers allowed to join (main joins too)
  const std::function<void(std::size_t)>& fn;
  // Observability label for this region: "<span>/region" after the
  // innermost span open on the dispatching thread (nullptr when metrics
  // are off). The dispatching thread times the region under this name, and
  // every worker that drains chunks records a trace event with it on its
  // own track, so fanned-out work nests under the region that spawned it
  // without repeating the parent span's name.
  const char* obs_region = nullptr;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  std::size_t joined = 0;           // guarded by the pool mutex
  std::size_t events_closed = 0;    // joined workers past their region
                                    // event (guarded by the pool mutex)
  std::mutex error_mutex;
  std::exception_ptr error;
};

class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  void run(std::size_t chunks, const std::function<void(std::size_t)>& fn) {
    // Serialize top-level dispatches; nested ones never get here (they run
    // inline in parallel_for_chunks).
    std::lock_guard<std::mutex> dispatch(dispatch_mutex_);
    const std::size_t helpers = parallel_threads() - 1;
    ensure_workers(helpers);
    auto job = std::make_shared<Job>(chunks, helpers, fn);
    if (obs::enabled()) {
      const char* span = obs::current_span_name();
      job->obs_region = obs::intern(
          std::string(span != nullptr ? span : "parallel_for") + "/region");
    }
    {
      std::lock_guard<std::mutex> lk(mutex_);
      job_ = job;
    }
    cv_.notify_all();
    // The dispatching thread works too; while it drains chunks it counts as
    // inside the region, so nested parallel calls from fn run inline.
    tl_in_worker = true;
    if (job->obs_region != nullptr) {
      // One timed span per dispatched region: parallel.region_calls counts
      // dispatches, which do not depend on how many workers joined.
      static obs::Timer& region_timer = obs::timer("parallel.region");
      const obs::Span span(region_timer, job->obs_region);
      drain(*job);
    } else {
      drain(*job);
    }
    tl_in_worker = false;
    {
      std::unique_lock<std::mutex> lk(mutex_);
      // A traced region also waits for every joined worker to record its
      // event, so a trace read right after the region holds all of them.
      done_cv_.wait(lk, [&] {
        return job->done.load(std::memory_order_acquire) == job->chunks &&
               (job->obs_region == nullptr ||
                job->events_closed == job->joined);
      });
      job_.reset();
    }
    if (job->error) std::rethrow_exception(job->error);
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
    std::shared_ptr<Job> last;
    for (;;) {
      std::shared_ptr<Job> job;
      {
        std::unique_lock<std::mutex> lk(mutex_);
        cv_.wait(lk, [&] {
          return stop_ || (job_ != nullptr && job_ != last &&
                           job_->joined < job_->helpers);
        });
        if (stop_) return;
        job = job_;
        ++job->joined;
      }
      last = job;
      if (job->obs_region != nullptr) {
        const std::uint64_t start = obs::now_ns();
        drain(*job);
        obs::record_event(job->obs_region, start, obs::now_ns() - start);
        std::lock_guard<std::mutex> lk(mutex_);
        ++job->events_closed;
        done_cv_.notify_all();
      } else {
        drain(*job);
      }
    }
  }

  void drain(Job& job) {
    for (;;) {
      const std::size_t c = job.next.fetch_add(1, std::memory_order_relaxed);
      if (c >= job.chunks) return;
      try {
        job.fn(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(job.error_mutex);
        if (!job.error) job.error = std::current_exception();
      }
      if (job.done.fetch_add(1, std::memory_order_acq_rel) + 1 == job.chunks) {
        std::lock_guard<std::mutex> lk(mutex_);  // pairs with done_cv_ wait
        done_cv_.notify_all();
      }
    }
  }

  std::mutex dispatch_mutex_;
  std::mutex mutex_;
  std::condition_variable cv_;
  std::condition_variable done_cv_;
  std::vector<std::thread> workers_;
  std::shared_ptr<Job> job_;
  bool stop_ = false;
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
