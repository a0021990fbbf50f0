// Fig 12: drop in F1 when a slice of the SBE-history features is removed
// from the full feature set — (a) global vs local history, (b) history
// length (today / yesterday / before).
#include "common/table.hpp"
#include "support/bench_common.hpp"

int main() {
  using namespace repro;
  bench::banner("Fig 12", "F1 decrement when removing SBE-history feature slices",
                "local history matters most (removal costs up to 15-25% on "
                "DS1/DS3); no single history length dominates");
  const sim::Trace& trace = bench::paper_trace();

  struct Removal {
    const char* name;
    features::FeatureMask removed;
  };
  const Removal removals[] = {
      {"- Global hist", features::kHistGlobal},
      {"- Local hist", features::kHistLocal},
      {"- Today", features::kHistToday},
      {"- Yesterday", features::kHistYesterday},
      {"- Before", features::kHistBefore},
  };

  TextTable t({"Dataset", "All F1", "- Global", "- Local", "- Today",
               "- Yesterday", "- Before"});
  for (const auto& split : bench::paper_splits()) {
    const auto f1_with = [&](features::FeatureMask mask) {
      return core::run_two_stage(trace, {.features = {.mask = mask}},
                                 split.train, split.test)
          .metrics.positive.f1;
    };
    const double full = f1_with(features::kAllFeatures);
    std::vector<std::string> row = {split.name, fmt(full, 3)};
    for (const Removal& r : removals) {
      const double f1 = f1_with(features::kAllFeatures & ~r.removed);
      const double delta = full > 0.0 ? 100.0 * (f1 - full) / full : 0.0;
      row.push_back(fmt(delta, 1) + "%");
    }
    t.add_row(row);
    std::printf("%s done\n", split.name.c_str());
  }
  std::printf("%s\n", t.render().c_str());
  std::printf("paper Fig 12: removing local history costs 15-25%% on DS1/DS3; "
              "removals can even help on DS2\n");
  return 0;
}
