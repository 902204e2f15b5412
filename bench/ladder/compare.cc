// perf_ladder --compare A.json... -- B.json...
//
// Reads the --json reports of two sets of runs and prints one row per
// workload and end-to-end metric: each side's median, the change, the
// metric's bound and a verdict.
//
//   ok          B is not worse than A by more than the bound
//   worse       B is worse than A by more than the bound
//   unresolved  one side's own spread (interquartile range / median) is
//               wider than the bound, and B does not beat A on every run
//
// fail_ratio is absolute: any failed job on side B is `worse`. Exit code
// 1 on any `worse`, or when a report is unreadable or lacks a workload
// or metric the other side has.
#include <algorithm>
#include <cstdio>
#include <map>

#include "ladder.h"
#include "util/json.h"

namespace scq::ladder {

namespace {

struct Side {
  // workload -> metric -> one value per run
  std::map<std::string, std::map<std::string, std::vector<double>>> values;
  std::map<std::string, double> failed;
};

bool load(const std::vector<std::string>& paths, Side& side) {
  for (const std::string& path : paths) {
    const std::optional<util::JsonValue> doc = util::parse_json_file(path);
    if (!doc || doc->at("workload").kind != util::JsonValue::Kind::kString ||
        doc->at("end_to_end").kind != util::JsonValue::Kind::kObject) {
      std::fprintf(stderr, "error: %s is not a perf_ladder report\n",
                   path.c_str());
      return false;
    }
    const std::string& workload = doc->at("workload").str;
    auto& metrics = side.values[workload];
    for (const auto& [name, entry] : doc->at("end_to_end").object) {
      if (entry.at("value").kind == util::JsonValue::Kind::kNumber) {
        metrics[name].push_back(entry.at("value").number);
      }
    }
    side.failed[workload] += doc->at("failed").number;
  }
  return true;
}

// Interquartile range over the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method).
double spread(std::vector<double> v) {
  const std::size_t n = v.size();
  const double mid = median(v);
  if (n < 2 || mid == 0.0) return 0.0;
  std::sort(v.begin(), v.end());
  const auto quartile = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  return (quartile(3) - quartile(1)) / mid;
}

}  // namespace

int compare_reports(const std::vector<std::string>& before,
                    const std::vector<std::string>& after) {
  Side a, b;
  if (!load(before, a) || !load(after, b)) return 1;

  bool any_worse = false;
  bool any_missing = false;
  std::printf("%-14s %-12s %14s %14s %9s %7s  %s\n", "workload", "metric",
              "A median", "B median", "change", "bound", "verdict");
  for (const WorkloadSpec& w : workloads()) {
    const bool in_a = a.values.count(w.name) != 0;
    const bool in_b = b.values.count(w.name) != 0;
    if (!in_a && !in_b) continue;
    if (in_a != in_b) {
      std::fprintf(stderr, "error: workload %s is on one side only\n", w.name);
      any_missing = true;
      continue;
    }
    for (const MetricSpec& m : end_to_end_metrics()) {
      const std::vector<double>& va = a.values[w.name][m.name];
      const std::vector<double>& vb = b.values[w.name][m.name];
      if (va.empty() || vb.empty()) {
        std::fprintf(stderr, "error: %s %s is missing from a report\n", w.name,
                     m.name);
        any_missing = true;
        continue;
      }
      const double ma = median(va);
      const double mb = median(vb);
      const bool lower_is_better = std::string(m.better) == "lower";
      // Share of A's median by which B is worse (negative = better). Only
      // fail_ratio can have a zero median, and it is judged below.
      const double worse_by =
          ma != 0.0 ? (lower_is_better ? mb - ma : ma - mb) / ma : 0.0;
      const auto [min_a, max_a] = std::minmax_element(va.begin(), va.end());
      const auto [min_b, max_b] = std::minmax_element(vb.begin(), vb.end());
      const bool b_always_better =
          lower_is_better ? *max_b < *min_a : *min_b > *max_a;
      const char* verdict = "ok";
      if (std::string(m.name) == "fail_ratio") {
        verdict = b.failed[w.name] > 0 ? "worse" : "ok";
      } else if ((spread(va) > m.bound || spread(vb) > m.bound) &&
                 !b_always_better) {
        verdict = "unresolved";
      } else if (worse_by > m.bound) {
        verdict = "worse";
      }
      any_worse |= std::string(verdict) == "worse";
      const double change = ma != 0.0 ? 100.0 * (mb - ma) / ma : 0.0;
      std::printf("%-14s %-12s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n", w.name,
                  m.name, ma, mb, change, 100.0 * m.bound, verdict);
    }
  }
  return any_worse || any_missing ? 1 : 0;
}

}  // namespace scq::ladder
