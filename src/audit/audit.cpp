#include "audit/audit.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/error.hpp"

namespace repro::audit {

QualityReport assess(std::span<const std::uint8_t> truth,
                     std::span<const float> proba,
                     std::size_t reliability_bin_count) {
  REPRO_CHECK(truth.size() == proba.size());
  QualityReport q;
  if (truth.empty()) return q;
  q.brier = ml::brier_score(truth, proba);
  q.auc = ml::roc_auc(truth, proba);
  q.bins = ml::reliability_bins(truth, proba, reliability_bin_count);
  q.ece = ml::expected_calibration_error(q.bins);
  std::uint64_t pos = 0;
  for (const auto t : truth) pos += t != 0 ? 1 : 0;
  q.positive_rate = static_cast<double>(pos) / static_cast<double>(truth.size());
  q.valid = true;
  return q;
}

// --- sink -------------------------------------------------------------------

Sink::Sink(const std::string& path)
    : path_(path), out_(path, std::ios::trunc) {
  healthy_.store(static_cast<bool>(out_), std::memory_order_relaxed);
}

void Sink::note_failure() {
  if (healthy_.exchange(false, std::memory_order_relaxed)) {
    std::fprintf(stderr,
                 "[audit] write to %s failed: disabling the audit sink\n",
                 path_.c_str());
  }
}

void Sink::write_line(const std::string& line) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!ok()) return;
  out_ << line << '\n';
  out_.flush();
  if (!out_) note_failure();
}

void Sink::write_lines(std::span<const std::string> lines) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!ok()) return;
  for (const std::string& line : lines) out_ << line << '\n';
  out_.flush();
  if (!out_) note_failure();
}

namespace {
std::mutex g_sink_mu;
Sink* g_sink = nullptr;
bool g_sink_init = false;
/// Replaced sinks are retired here, never destroyed: handles other threads
/// may still hold stay valid (the obs registry's lifetime policy). The
/// container itself is leaked too — a plain static vector would run its
/// destructor at exit and orphan the sinks right before leak checkers scan.
std::vector<Sink*>& retired_sinks() {
  static std::vector<Sink*>* const retired = new std::vector<Sink*>();
  return *retired;
}
}  // namespace

Sink* sink() {
  const std::lock_guard<std::mutex> lock(g_sink_mu);
  if (!g_sink_init) {
    g_sink_init = true;
    const char* path = std::getenv("REPRO_AUDIT");
    if (path != nullptr && path[0] != '\0') {
      g_sink = new Sink(path);
      if (!g_sink->ok()) {
        std::fprintf(stderr, "[audit] cannot open REPRO_AUDIT=%s\n", path);
      }
    }
  }
  return g_sink != nullptr && g_sink->ok() ? g_sink : nullptr;
}

void set_sink_path(const std::string& path) {
  const std::lock_guard<std::mutex> lock(g_sink_mu);
  g_sink_init = true;
  if (g_sink != nullptr) retired_sinks().push_back(g_sink);
  g_sink = path.empty() ? nullptr : new Sink(path);
}

// --- record serialization ---------------------------------------------------

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_number(std::string& out, double v) {
  if (!std::isfinite(v)) {
    out += "null";
    return;
  }
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

}  // namespace

std::string to_json_line(const Manifest& m) {
  std::string out = "{\"type\":\"manifest\",\"model\":\"";
  append_escaped(out, m.model);
  out += "\",\"seed\":" + std::to_string(m.seed);
  out += ",\"threshold\":";
  append_number(out, static_cast<double>(m.threshold));
  out += ",\"feature_dim\":" + std::to_string(m.feature_dim);
  out += ",\"feature_mask\":" + std::to_string(m.feature_mask);
  out += ",\"forecast_current_run\":";
  out += m.forecast_current_run ? "true" : "false";
  out += ",\"undersample_ratio\":";
  append_number(out, m.undersample_ratio);
  out += ",\"threads\":" + std::to_string(m.threads);
  out += ",\"train_begin\":" + std::to_string(m.train_begin);
  out += ",\"train_end\":" + std::to_string(m.train_end);
  out += ",\"stage2_training_size\":" + std::to_string(m.stage2_training_size);
  out += "}";
  return out;
}

std::string to_json_line(const PredictionRecord& r) {
  std::string out = "{\"type\":\"prediction\",\"sample\":" +
                    std::to_string(r.sample);
  out += ",\"run\":" + std::to_string(r.run);
  out += ",\"app\":" + std::to_string(r.app);
  out += ",\"node\":" + std::to_string(r.node);
  out += ",\"score\":";
  append_number(out, static_cast<double>(r.score));
  out += ",\"threshold\":";
  append_number(out, static_cast<double>(r.threshold));
  out += ",\"decision\":" + std::to_string(r.decision ? 1 : 0);
  out += ",\"truth\":" + std::to_string(r.truth ? 1 : 0);
  out += ",\"stage1\":" + std::to_string(r.stage1_accepted ? 1 : 0);
  if (r.has_contrib) {
    out += ",\"bias\":";
    append_number(out, r.bias);
    out += ",\"contrib\":[";
    for (std::size_t i = 0; i < r.contrib.size(); ++i) {
      if (i > 0) out += ',';
      out += "{\"f\":\"";
      append_escaped(out, r.contrib[i].first);
      out += "\",\"v\":";
      append_number(out, r.contrib[i].second);
      out += '}';
    }
    out += ']';
  }
  out += '}';
  return out;
}

std::vector<std::pair<std::size_t, double>> top_k_contributions(
    std::span<const double> contributions, std::size_t k) {
  std::vector<std::pair<std::size_t, double>> ranked;
  ranked.reserve(contributions.size());
  for (std::size_t f = 0; f < contributions.size(); ++f) {
    if (contributions[f] != 0.0) ranked.emplace_back(f, contributions[f]);
  }
  const std::size_t keep = std::min(k, ranked.size());
  std::partial_sort(ranked.begin(),
                    ranked.begin() + static_cast<std::ptrdiff_t>(keep),
                    ranked.end(), [](const auto& a, const auto& b) {
                      const double ma = std::abs(a.second);
                      const double mb = std::abs(b.second);
                      if (ma != mb) return ma > mb;
                      return a.first < b.first;
                    });
  ranked.resize(keep);
  return ranked;
}

}  // namespace repro::audit
