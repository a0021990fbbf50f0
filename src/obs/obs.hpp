// Pipeline-wide tracing and metrics (the observability layer).
//
// Two primitives, both registered by name in a process-wide registry:
//
//   * Span    — RAII scoped timer. Spans nest per thread; each one
//               aggregates its duration into a Timer and, while capture is
//               active, records a trace event on its thread's track.
//   * Counter — named monotonic count. Counts are relaxed atomic adds, so
//               totals are exact and independent of which thread
//               performed which add: counter values are thread-count
//               invariant whenever the counted work is (see DESIGN.md §7).
//
// snapshot() flattens the registry into a key-sorted view of every nonzero
// counter and every timer called since the last reset (`<timer>_seconds`
// / `<timer>_calls`), which BenchJson merges into BENCH_<name>.json
// artifacts. A quantity a run computes (a rate, a calibration score) is
// not an obs metric: the experiment writes it as its own artifact key.
//
// Everything is OFF by default. The hot-path cost of a disabled span or
// counter is one relaxed atomic load and a branch: no clock reads, no
// allocation, no locks. Metrics recording is switched on with
// set_enabled(true) (benches do this), and full event capture either with
// set_capturing(true) or by setting the REPRO_TRACE=<path> environment
// variable, which also selects the Chrome-trace output file written by
// write_trace_if_requested(). The exported JSON loads directly in
// chrome://tracing and https://ui.perfetto.dev.
//
// Thread attribution: the deterministic pool (common/parallel) binds each
// worker to track "worker-<k>" via bind_worker(). A dispatched parallel
// region is timed once, by the dispatching thread, into the
// "parallel.region" timer; every participating thread records a trace
// event named "<span>/region" after the innermost span active on the
// dispatching thread, so work fanned across workers nests under the region
// that spawned it in the trace view, and summing a trace by name does not
// count the parent span's time twice.
//
// Determinism contract: with tracing disabled nothing in this layer
// perturbs any computation, and with it enabled only wall-clock values
// (timer seconds, event timestamps) vary run-to-run — counter values,
// call counts and the snapshot key sets they produce do not.
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace repro::obs {

namespace detail {
/// Mode bits: bit 0 = metrics enabled, bit 1 = event capture. -1 means
/// "not initialized yet" — the first query folds in REPRO_TRACE.
extern std::atomic<int> g_mode;
int init_mode_from_env() noexcept;
}  // namespace detail

/// True when metrics recording (counters, span timing) is on. This is the
/// one check every disabled-path call site pays: a relaxed load + branch.
inline bool enabled() noexcept {
  const int m = detail::g_mode.load(std::memory_order_relaxed);
  if (m >= 0) return (m & 1) != 0;
  return (detail::init_mode_from_env() & 1) != 0;
}

/// True when spans additionally record trace events for Chrome export.
inline bool capturing() noexcept {
  const int m = detail::g_mode.load(std::memory_order_relaxed);
  if (m >= 0) return (m & 2) != 0;
  return (detail::init_mode_from_env() & 2) != 0;
}

/// Turns metrics recording on/off (capture state is preserved).
void set_enabled(bool on);
/// Turns trace-event capture on/off; capture implies nothing about
/// metrics — callers normally enable both.
void set_capturing(bool on);

/// The path requested via REPRO_TRACE, or "" when the variable is unset.
const std::string& trace_request_path();

/// Monotonic nanoseconds since the registry's origin (process start-ish).
std::uint64_t now_ns() noexcept;

/// A named monotonic counter. add() is a relaxed fetch_add when metrics
/// are enabled and a no-op otherwise; totals are exact across threads.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if (enabled()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Aggregated duration of every span opened against this timer.
/// Snapshot keys: "<name>_seconds" (total) and "<name>_calls".
class Timer {
 public:
  explicit Timer(std::string name) : name_(std::move(name)) {}
  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void record(std::uint64_t dur_ns) noexcept {
    total_ns_.fetch_add(dur_ns, std::memory_order_relaxed);
    calls_.fetch_add(1, std::memory_order_relaxed);
  }
  [[nodiscard]] double seconds() const noexcept {
    return static_cast<double>(total_ns_.load(std::memory_order_relaxed)) *
           1e-9;
  }
  [[nodiscard]] std::uint64_t calls() const noexcept {
    return calls_.load(std::memory_order_relaxed);
  }
  void reset() noexcept {
    total_ns_.store(0, std::memory_order_relaxed);
    calls_.store(0, std::memory_order_relaxed);
  }

 private:
  std::string name_;
  std::atomic<std::uint64_t> total_ns_{0};
  std::atomic<std::uint64_t> calls_{0};
};

/// Finds or registers a metric by name. References stay valid for the
/// process lifetime (the registry is intentionally never destroyed), so
/// hot call sites cache them in function-local statics — see OBS_SPAN /
/// OBS_COUNT below.
Counter& counter(const std::string& name);
Timer& timer(const std::string& name);

/// RAII scoped timer. When metrics are enabled it times its scope into
/// `timer` and pushes itself on the thread's span stack (giving nesting
/// and the region name used for worker attribution); when capture is also
/// active it records a trace event. With metrics off it reads no clock.
class Span {
 public:
  explicit Span(Timer& timer) : Span(timer, timer.name().c_str()) {}
  /// `display_name` overrides the trace-event name (must outlive the
  /// span; every call site passes a literal or a registry-owned name).
  Span(Timer& timer, const char* display_name);
  ~Span();

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Timer* timer_;
  const char* name_;
  std::uint64_t start_ns_ = 0;
  bool recording_ = false;  ///< metrics were on at construction
  bool pushed_ = false;     ///< sits on the thread's span stack
};

/// Records one trace event on the calling thread's track when capture is
/// on, without timing it into any Timer. Pool workers use it for their
/// share of a region, which only the dispatching thread times.
void record_event(const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns) noexcept;

/// Name of the innermost recording span on this thread, or nullptr.
/// common/parallel names its region spans after it.
const char* current_span_name() noexcept;

/// A registry-owned copy of `name`, valid for the process lifetime; equal
/// names give the same pointer. For span display names built at runtime.
const char* intern(const std::string& name);

/// Binds the calling thread to trace track `worker_tid` with the name
/// "worker-<worker_tid>". Called once per pool worker at spawn; threads
/// never bound get "main" (first) or "thread-<n>" tracks.
void bind_worker(std::uint64_t worker_tid);

/// One flattened metric for artifact export, sorted by key: nonzero
/// counters (integral) and `_seconds` / `_calls` of each timer with calls.
struct Metric {
  std::string key;
  double value = 0.0;        ///< numeric value (counters cast too)
  std::uint64_t count = 0;   ///< exact value for integral metrics
  bool integral = false;
};
std::vector<Metric> snapshot();

/// One captured span occurrence (test/inspection view of the trace).
struct TraceEvent {
  std::string name;
  std::string thread_name;
  std::uint64_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};
std::vector<TraceEvent> captured_events();

/// Writes every captured event as Chrome trace-event JSON
/// (chrome://tracing / Perfetto "traceEvents" format). Returns false if
/// the sink could not be opened/written.
bool write_chrome_trace(std::ostream& out);
bool write_chrome_trace(const std::string& path);

/// Writes the Chrome trace to the REPRO_TRACE path if the variable was
/// set; no-op (returns false) otherwise. BenchJson::write() calls this so
/// `REPRO_TRACE=out.json ./bench_<x>` needs no per-bench code.
bool write_trace_if_requested();

/// Zeroes every counter and timer and drops captured events. Metric
/// registrations and thread bindings survive (handles stay valid).
void reset();

}  // namespace repro::obs

// Call-site helpers: cache the registry lookup in a function-local static
// so steady-state cost is the enabled() check only.
#define REPRO_OBS_CONCAT_IMPL(a, b) a##b
#define REPRO_OBS_CONCAT(a, b) REPRO_OBS_CONCAT_IMPL(a, b)

/// Opens a Span for the rest of the enclosing scope: OBS_SPAN("gbdt.hist");
#define OBS_SPAN(name_literal)                                             \
  static ::repro::obs::Timer& REPRO_OBS_CONCAT(repro_obs_timer_,           \
                                               __LINE__) =                 \
      ::repro::obs::timer(name_literal);                                   \
  const ::repro::obs::Span REPRO_OBS_CONCAT(repro_obs_span_, __LINE__)(    \
      REPRO_OBS_CONCAT(repro_obs_timer_, __LINE__))

/// Adds `n` to a named counter: OBS_COUNT_ADD("features.rows", rows);
#define OBS_COUNT_ADD(name_literal, n)                                     \
  do {                                                                     \
    static ::repro::obs::Counter& repro_obs_counter_ =                     \
        ::repro::obs::counter(name_literal);                               \
    repro_obs_counter_.add(n);                                             \
  } while (0)

/// Increments a named counter by one.
#define OBS_COUNT(name_literal) OBS_COUNT_ADD(name_literal, 1)
