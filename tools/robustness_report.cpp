// Robustness report (DESIGN.md §9): how does end-to-end prediction quality
// degrade as trace corruption increases?
//
// For each injection rate the tool copies a clean simulated trace, corrupts
// it with inject::corrupt_trace (all record-level fault models at that
// rate), runs the hardened ingest (sim::ingest_trace), then trains and
// evaluates the paper's TwoStage+GBDT pipeline — the same pipeline the
// Table III bench times — on a sliding split. The result is an
// F1-vs-corruption-rate curve plus full fault accounting (injected vs
// quarantined vs repaired), written as a BENCH-style artifact
// (BENCH_robustness[_smoke].json) that tools/bench_diff can gate.
//
// The rate-0 point doubles as a bit-identity check: injection at rate 0 is
// a no-op and ingest of a clean trace must accept every record unchanged,
// so the corrupted+ingested pipeline must produce byte-identical
// probabilities and metrics to the direct (no-injection) pipeline. The
// tool verifies this and prints "zero-injection path bit-identical" —
// ctest pins that sentinel.
//
// Usage: robustness_report [--smoke]
//   --smoke   tiny config (128 nodes, 45 days) for CI; artifact name
//             "robustness_smoke". Default is 640 nodes, 90 days.
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/splits.hpp"
#include "core/two_stage.hpp"
#include "inject/inject.hpp"
#include "sim/ingest.hpp"
#include "sim/simulator.hpp"
#include "support/bench_common.hpp"

namespace {

using namespace repro;

struct Point {
  double rate = 0.0;
  inject::InjectionReport injected;
  sim::IngestReport ingest;
  core::TwoStageRun run;
};

/// Runs corrupt -> ingest -> train -> eval at one injection rate on a
/// private copy of the clean trace.
Point run_point(const sim::Trace& clean, double rate,
                const core::SplitSpec& split) {
  Point p;
  p.rate = rate;
  sim::Trace trace = clean;
  p.injected = inject::corrupt_trace(trace,
                                     inject::FaultConfig::uniform(rate));
  p.ingest = sim::ingest_trace(trace);
  // Defaults = the paper pipeline (GBDT).
  p.run = core::run_two_stage(trace, {}, split.train, split.test);
  core::publish(p.run);
  return p;
}

bool bit_identical(const core::TwoStageRun& a, const core::TwoStageRun& b) {
  if (a.proba.size() != b.proba.size()) return false;
  if (!a.proba.empty() &&
      std::memcmp(a.proba.data(), b.proba.data(),
                  a.proba.size() * sizeof(float)) != 0) {
    return false;
  }
  const ml::Confusion& ca = a.metrics.confusion;
  const ml::Confusion& cb = b.metrics.confusion;
  return ca.tp == cb.tp && ca.fp == cb.fp && ca.tn == cb.tn &&
         ca.fn == cb.fn && a.metrics.positive.f1 == b.metrics.positive.f1;
}

std::string rate_key(double rate) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "curve.r%04d",
                static_cast<int>(rate * 1000.0 + 0.5));
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = argc > 1 && std::strcmp(argv[1], "--smoke") == 0;

  sim::SimConfig config;
  if (smoke) {
    config.system = {.grid_x = 4, .grid_y = 2, .cages_per_cabinet = 1,
                     .slots_per_cage = 4, .nodes_per_slot = 4};
    config.days = 45;
  } else {
    config.system = {.grid_x = 10, .grid_y = 4, .cages_per_cabinet = 1,
                     .slots_per_cage = 4, .nodes_per_slot = 4};
    config.days = 90;
  }
  config.seed = 29;
  config.faults.base_rate_per_min = 2.5e-4;

  const std::vector<double> rates =
      smoke ? std::vector<double>{0.0, 0.05, 0.10, 0.25}
            : std::vector<double>{0.0, 0.02, 0.05, 0.10, 0.25};
  const core::SplitSpec split =
      core::SplitSpec::sliding(config.days, config.days - 14 - 3, 14, 1, 1)
          .front();

  bench::BenchJson artifact(smoke ? "robustness_smoke" : "robustness");
  std::printf("robustness_report: %d GPUs, %lld days, "
              "%zu injection rates (pipeline: TwoStage+GBDT)\n",
              config.system.total_nodes(),
              static_cast<long long>(config.days), rates.size());
  const sim::Trace clean = sim::simulate(config);

  // The direct pipeline: no injection, no ingest — exactly what every
  // bench runs on the cached trace.
  const core::TwoStageRun direct =
      core::run_two_stage(clean, {}, split.train, split.test);
  const ml::PrMetrics& d = direct.metrics.positive;
  std::printf("  %-10s F1 %.4f  precision %.4f  recall %.4f\n", "direct",
              d.f1, d.precision, d.recall);

  bool zero_identical = false;
  for (const double rate : rates) {
    const Point p = run_point(clean, rate, split);
    const ml::PrMetrics& m = p.run.metrics.positive;
    std::printf("  rate %.3f  F1 %.4f  precision %.4f  recall %.4f  "
                "injected %llu  quarantined %llu  repaired %llu%s\n",
                rate, m.f1, m.precision, m.recall,
                static_cast<unsigned long long>(p.injected.total()),
                static_cast<unsigned long long>(p.ingest.quarantined()),
                static_cast<unsigned long long>(p.ingest.repaired()),
                p.run.degraded ? "  [degraded]" : "");
    const std::string k = rate_key(rate);
    artifact.set(k + ".rate", rate);
    artifact.set(k + ".f1", m.f1);
    artifact.set(k + ".precision", m.precision);
    artifact.set(k + ".recall", m.recall);
    artifact.set(k + ".degraded", p.run.degraded);
    artifact.set_int(k + ".injected", p.injected.total());
    artifact.set_int(k + ".quarantined", p.ingest.quarantined());
    artifact.set_int(k + ".repaired", p.ingest.repaired());
    artifact.set_int(k + ".samples_quarantined", p.ingest.samples.quarantined);
    artifact.set_int(k + ".sbe_quarantined", p.ingest.sbe.quarantined());
    if (rate == 0.0) {
      zero_identical = bit_identical(direct, p.run);
      // Clean input must pass through untouched: nothing to quarantine or
      // repair, and the model must not be able to tell ingest ever ran.
      if (p.ingest.quarantined() != 0 || p.ingest.repaired() != 0) {
        std::printf("ZERO-INJECTION MISMATCH: clean ingest touched records "
                    "(%llu quarantined, %llu repaired)\n",
                    static_cast<unsigned long long>(p.ingest.quarantined()),
                    static_cast<unsigned long long>(p.ingest.repaired()));
        return 1;
      }
    }
  }
  artifact.set_int("points", static_cast<long long>(rates.size()));
  artifact.set("direct.f1", d.f1);
  artifact.set("zero_injection_bit_identical", zero_identical);
  artifact.write();

  if (!zero_identical) {
    std::printf("ZERO-INJECTION MISMATCH: rate-0 corrupted+ingested pipeline "
                "differs from the direct pipeline\n");
    return 1;
  }
  std::printf("zero-injection path bit-identical to the direct pipeline\n");
  return 0;
}
