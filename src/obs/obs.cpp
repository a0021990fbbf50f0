#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <set>

namespace repro::obs {

namespace detail {
std::atomic<int> g_mode{-1};
}  // namespace detail

namespace {

constexpr std::size_t kMaxSpanDepth = 64;
// Per-thread event cap: a runaway capture degrades to counting drops
// instead of exhausting memory; drops surface as "trace.events_dropped".
constexpr std::size_t kMaxEventsPerThread = 1u << 20;

struct Event {
  const char* name;  // literal or registry-owned — stable for the process
  std::uint64_t start_ns;
  std::uint64_t dur_ns;
};

struct ThreadBuf {
  std::uint64_t tid = 0;
  std::string name;
  std::mutex mu;  // owner pushes, exporter copies; never contended in hot loops
  std::vector<Event> events;
  std::uint64_t dropped = 0;
};

struct SpanStack {
  const char* names[kMaxSpanDepth];
  std::size_t depth = 0;
};

// The registry is intentionally leaked: function-local-static references
// handed out by counter()/timer() and events recorded by pool
// workers must stay valid through every static destructor.
class Registry {
 public:
  static Registry& instance() {
    static Registry* r = new Registry();
    return *r;
  }

  std::chrono::steady_clock::time_point origin =
      std::chrono::steady_clock::now();
  std::mutex mu;
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Timer>> timers;
  std::set<std::string> names;  // intern()ed display names
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  std::uint64_t next_generic_tid = 1000;
  bool main_claimed = false;
  std::string trace_path;  // REPRO_TRACE value ("" = unset)
};

thread_local SpanStack tl_spans;
thread_local std::shared_ptr<ThreadBuf> tl_buf;
thread_local std::uint64_t tl_worker_tid = 0;
thread_local bool tl_worker_bound = false;

ThreadBuf& thread_buf() {
  if (tl_buf == nullptr) {
    Registry& reg = Registry::instance();
    auto buf = std::make_shared<ThreadBuf>();
    std::lock_guard<std::mutex> lk(reg.mu);
    if (tl_worker_bound) {
      buf->tid = tl_worker_tid;
      buf->name = "worker-" + std::to_string(tl_worker_tid);
    } else if (!reg.main_claimed) {
      reg.main_claimed = true;
      buf->tid = 0;
      buf->name = "main";
    } else {
      buf->tid = reg.next_generic_tid++;
      buf->name = "thread-" + std::to_string(buf->tid);
    }
    reg.bufs.push_back(buf);
    tl_buf = std::move(buf);
  }
  return *tl_buf;
}

void set_mode_bit(int bit, bool on) {
  // Force env folding first so a later lazy init cannot clobber this.
  (void)enabled();
  int cur = detail::g_mode.load(std::memory_order_relaxed);
  int want = 0;
  do {
    want = on ? (cur | bit) : (cur & ~bit);
  } while (!detail::g_mode.compare_exchange_weak(cur, want,
                                                 std::memory_order_relaxed));
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const unsigned char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
}

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  json_escape_into(out, s);
  return out;
}

// Stable copy of every thread's buffer for export/inspection.
struct BufCopy {
  std::uint64_t tid;
  std::string name;
  std::vector<Event> events;
  std::uint64_t dropped;
};

std::vector<BufCopy> collect_bufs() {
  Registry& reg = Registry::instance();
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(reg.mu);
    bufs = reg.bufs;
  }
  std::vector<BufCopy> out;
  out.reserve(bufs.size());
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->mu);
    out.push_back({b->tid, b->name, b->events, b->dropped});
  }
  std::sort(out.begin(), out.end(),
            [](const BufCopy& a, const BufCopy& b) { return a.tid < b.tid; });
  return out;
}

}  // namespace

namespace detail {

int init_mode_from_env() noexcept {
  const char* env = std::getenv("REPRO_TRACE");
  const bool want_trace = env != nullptr && *env != '\0';
  {
    Registry& reg = Registry::instance();
    std::lock_guard<std::mutex> lk(reg.mu);
    if (want_trace && reg.trace_path.empty()) reg.trace_path = env;
  }
  int expected = -1;
  g_mode.compare_exchange_strong(expected, want_trace ? 3 : 0,
                                 std::memory_order_relaxed);
  return g_mode.load(std::memory_order_relaxed);
}

}  // namespace detail

void set_enabled(bool on) { set_mode_bit(1, on); }
void set_capturing(bool on) { set_mode_bit(2, on); }

const std::string& trace_request_path() {
  (void)enabled();  // fold REPRO_TRACE into the registry first
  return Registry::instance().trace_path;
}

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - Registry::instance().origin)
          .count());
}

Counter& counter(const std::string& name) {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto& slot = reg.counters[name];
  if (slot == nullptr) slot = std::make_unique<Counter>();
  return *slot;
}

Timer& timer(const std::string& name) {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lk(reg.mu);
  auto& slot = reg.timers[name];
  if (slot == nullptr) slot = std::make_unique<Timer>(name);
  return *slot;
}

Span::Span(Timer& timer, const char* display_name)
    : timer_(&timer), name_(display_name) {
  recording_ = enabled();
  if (!recording_) return;
  if (tl_spans.depth < kMaxSpanDepth) {
    tl_spans.names[tl_spans.depth++] = name_;
    pushed_ = true;
  }
  start_ns_ = now_ns();
}

Span::~Span() {
  if (!recording_) return;
  const std::uint64_t dur = now_ns() - start_ns_;
  if (pushed_) --tl_spans.depth;
  timer_->record(dur);
  record_event(name_, start_ns_, dur);
}

void record_event(const char* name, std::uint64_t start_ns,
                  std::uint64_t dur_ns) noexcept {
  if (!capturing()) return;
  ThreadBuf& buf = thread_buf();
  std::lock_guard<std::mutex> lk(buf.mu);
  if (buf.events.size() >= kMaxEventsPerThread) {
    ++buf.dropped;
    return;
  }
  buf.events.push_back({name, start_ns, dur_ns});
}

const char* current_span_name() noexcept {
  return tl_spans.depth == 0 ? nullptr : tl_spans.names[tl_spans.depth - 1];
}

const char* intern(const std::string& name) {
  Registry& reg = Registry::instance();
  std::lock_guard<std::mutex> lk(reg.mu);
  return reg.names.insert(name).first->c_str();
}

void bind_worker(std::uint64_t worker_tid) {
  tl_worker_tid = worker_tid;
  tl_worker_bound = true;
}

std::vector<Metric> snapshot() {
  Registry& reg = Registry::instance();
  std::vector<Metric> out;
  std::uint64_t dropped = 0;
  {
    std::lock_guard<std::mutex> lk(reg.mu);
    out.reserve(reg.counters.size() + 2 * reg.timers.size() + 1);
    // A counter at 0 or a timer never called since the last reset is left
    // out: a 0 would read as a measurement.
    for (const auto& [name, c] : reg.counters) {
      const std::uint64_t v = c->value();
      if (v != 0) out.push_back({name, static_cast<double>(v), v, true});
    }
    for (const auto& [name, t] : reg.timers) {
      const std::uint64_t calls = t->calls();
      if (calls == 0) continue;
      out.push_back({name + "_seconds", t->seconds(), 0, false});
      out.push_back({name + "_calls", static_cast<double>(calls), calls,
                     true});
    }
    for (const auto& b : reg.bufs) dropped += b->dropped;
  }
  if (dropped != 0) {
    out.push_back({"trace.events_dropped", static_cast<double>(dropped),
                   dropped, true});
  }
  std::sort(out.begin(), out.end(),
            [](const Metric& a, const Metric& b) { return a.key < b.key; });
  return out;
}

std::vector<TraceEvent> captured_events() {
  std::vector<TraceEvent> out;
  for (const BufCopy& buf : collect_bufs()) {
    for (const Event& e : buf.events) {
      out.push_back({e.name, buf.name, buf.tid, e.start_ns, e.dur_ns});
    }
  }
  return out;
}

bool write_chrome_trace(std::ostream& out) {
  const std::vector<BufCopy> bufs = collect_bufs();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  out << "{\"ph\":\"M\",\"pid\":0,\"tid\":0,\"name\":\"process_name\","
         "\"args\":{\"name\":\"repro\"}}";
  char ts_buf[64];
  for (const BufCopy& buf : bufs) {
    out << ",\n{\"ph\":\"M\",\"pid\":0,\"tid\":" << buf.tid
        << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
        << json_escape(buf.name) << "\"}}";
    for (const Event& e : buf.events) {
      // Chrome trace timestamps are microseconds; keep ns resolution.
      std::snprintf(ts_buf, sizeof(ts_buf), "%.3f,\"dur\":%.3f",
                    static_cast<double>(e.start_ns) / 1000.0,
                    static_cast<double>(e.dur_ns) / 1000.0);
      out << ",\n{\"ph\":\"X\",\"pid\":0,\"tid\":" << buf.tid
          << ",\"name\":\"" << json_escape(e.name) << "\",\"ts\":" << ts_buf
          << "}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

bool write_chrome_trace(const std::string& path) {
  // Atomic publish: a crash (or full disk) mid-write must never leave a
  // torn half-JSON file under the requested name.
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out.is_open()) {
      std::fprintf(stderr, "[obs] cannot open trace path %s\n", tmp.c_str());
      return false;
    }
    if (!write_chrome_trace(static_cast<std::ostream&>(out))) {
      std::fprintf(stderr, "[obs] write to trace path %s failed\n",
                   tmp.c_str());
      return false;
    }
    out.flush();
    if (!out) {
      std::fprintf(stderr, "[obs] write to trace path %s failed\n",
                   tmp.c_str());
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::fprintf(stderr, "[obs] cannot publish trace %s: %s\n", path.c_str(),
                 ec.message().c_str());
    return false;
  }
  std::fprintf(stderr, "[obs] wrote Chrome trace %s\n", path.c_str());
  return true;
}

bool write_trace_if_requested() {
  const std::string& path = trace_request_path();
  if (path.empty()) return false;
  return write_chrome_trace(path);
}

void reset() {
  Registry& reg = Registry::instance();
  std::vector<std::shared_ptr<ThreadBuf>> bufs;
  {
    std::lock_guard<std::mutex> lk(reg.mu);
    for (auto& [name, c] : reg.counters) c->reset();
    for (auto& [name, t] : reg.timers) t->reset();
    bufs = reg.bufs;
  }
  for (const auto& b : bufs) {
    std::lock_guard<std::mutex> lk(b->mu);
    b->events.clear();
    b->dropped = 0;
  }
}

}  // namespace repro::obs
