// bench_diff: compares two BENCH_<name>.json artifacts (bench/support
// BenchJson format — one flat JSON object of scalar metrics) and fails on
// regressions, so CI and humans can gate on "did this change move the
// reproduction's results or make it slower".
//
//   bench_diff <old.json> <new.json> [--perf-tolerance <pct>]
//
// Three classes of keys are compared:
//
//   * eval metrics — last dot-segment f1/precision/recall/accuracy/auc/
//     brier/ece. Any move beyond 1e-9, up or down, is a regression: eval
//     numbers are deterministic for a fixed seed, so a change of either
//     sign is unannounced unless the committed artifact is re-baselined.
//     An eval key of the old file that the new file lacks is a regression
//     too.
//   * ledger counts — last dot-segment injected/quarantined/repaired/
//     samples_quarantined/sbe_quarantined/degraded/points: the robustness
//     sweep's exact fault and repair counts. Any difference is a
//     regression, and so is a ledger key of the old file that the new file
//     lacks.
//   * perf metrics — keys ending in "_seconds", compared when present in
//     both files. A regression is new > old * (1 + tolerance); default
//     tolerance 25%, settable via --perf-tolerance (percent) to absorb
//     machine-to-machine noise.
//
// Keys only the new file has are never a regression.
//
// Exit codes: 0 no regression ("no eval regression" printed), 1 at least
// one regression, 2 usage or parse error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "json_parser.hpp"

namespace {

constexpr double kEvalEpsilon = 1e-9;

/// The top-level numbers of a BenchJson artifact (one flat object of
/// scalars), or std::nullopt with a message on stderr for anything else.
std::optional<std::map<std::string, double>> read_numbers(
    const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "bench_diff: cannot open %s\n", path.c_str());
    return std::nullopt;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  repro::JsonParser doc(buffer.str());
  const char* error = nullptr;
  if (!doc.parse()) {
    error = "malformed JSON";
  } else if (doc.s[doc.s.find_first_not_of(" \t\r\n")] != '{') {
    error = "expected '{'";
  } else if (doc.nested) {
    error = "nested values are not BenchJson";
  }
  if (error != nullptr) {
    std::fprintf(stderr, "bench_diff: %s: %s at byte %zu\n", path.c_str(),
                 error, doc.i);
    return std::nullopt;
  }
  return doc.numbers;
}

std::string last_segment(const std::string& key) {
  const auto dot = key.rfind('.');
  return dot == std::string::npos ? key : key.substr(dot + 1);
}

bool is_eval_key(const std::string& key) {
  const std::string leaf = last_segment(key);
  return leaf == "f1" || leaf == "precision" || leaf == "recall" ||
         leaf == "accuracy" || leaf == "auc" || leaf == "brier" ||
         leaf == "ece";
}

bool is_ledger_key(const std::string& key) {
  const std::string leaf = last_segment(key);
  return leaf == "injected" || leaf == "quarantined" || leaf == "repaired" ||
         leaf == "samples_quarantined" || leaf == "sbe_quarantined" ||
         leaf == "degraded" || leaf == "points";
}

bool is_perf_key(const std::string& key) {
  constexpr const char* kSuffix = "_seconds";
  const std::size_t n = std::strlen(kSuffix);
  return key.size() >= n && key.compare(key.size() - n, n, kSuffix) == 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_diff <old.json> <new.json>"
               " [--perf-tolerance <pct>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  double perf_tolerance = 0.25;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--perf-tolerance") == 0) {
      if (i + 1 >= argc) return usage();
      perf_tolerance = std::atof(argv[++i]) / 100.0;
      if (perf_tolerance < 0.0) return usage();
    } else {
      paths.emplace_back(argv[i]);
    }
  }
  if (paths.size() != 2) return usage();

  const auto old_doc = read_numbers(paths[0]);
  const auto new_doc = read_numbers(paths[1]);
  if (!old_doc || !new_doc) return 2;

  int regressions = 0;
  std::size_t eval_compared = 0;
  std::size_t ledger_compared = 0;
  std::size_t perf_compared = 0;
  for (const auto& [key, old_v] : *old_doc) {
    const bool eval = is_eval_key(key);
    const bool ledger = is_ledger_key(key);
    const auto it = new_doc->find(key);
    if (it == new_doc->end()) {
      if (eval || ledger) {
        ++regressions;
        std::printf("%s REGRESSION  %-40s %.9g -> missing\n",
                    eval ? "EVAL" : "LEDGER", key.c_str(), old_v);
      }
      continue;
    }
    const double new_v = it->second;
    if (eval) {
      ++eval_compared;
      if (std::abs(new_v - old_v) > kEvalEpsilon) {
        ++regressions;
        std::printf("EVAL REGRESSION  %-40s %.9g -> %.9g (%s)\n", key.c_str(),
                    old_v, new_v, new_v > old_v ? "rose" : "dropped");
      }
    } else if (ledger) {
      ++ledger_compared;
      if (new_v != old_v) {
        ++regressions;
        std::printf("LEDGER REGRESSION  %-40s %.9g -> %.9g\n", key.c_str(),
                    old_v, new_v);
      }
    } else if (is_perf_key(key)) {
      ++perf_compared;
      if (old_v > 0.0 && new_v > old_v * (1.0 + perf_tolerance)) {
        ++regressions;
        std::printf("PERF REGRESSION  %-40s %.3fs -> %.3fs (+%.0f%% > %.0f%%)\n",
                    key.c_str(), old_v, new_v, 100.0 * (new_v / old_v - 1.0),
                    100.0 * perf_tolerance);
      }
    }
  }

  std::printf(
      "bench_diff: %s vs %s — %zu eval, %zu ledger, %zu perf keys compared\n",
      paths[0].c_str(), paths[1].c_str(), eval_compared, ledger_compared,
      perf_compared);
  if (regressions > 0) {
    std::printf("%d regression%s found\n", regressions,
                regressions == 1 ? "" : "s");
    return 1;
  }
  std::printf("no eval regression (perf within %.0f%%)\n",
              100.0 * perf_tolerance);
  return 0;
}
