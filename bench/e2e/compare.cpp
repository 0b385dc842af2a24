// `yoso_e2e compare PARENT_DIR CHANGE_DIR` (README.md, "Comparing two
// commits").
//
// Each directory holds untraced result files (*-t0.json) of one commit.
// Runs pair up by (workload, seed).  Per workload and end-to-end metric:
//   improved   — the change wins >= 9/10 of the pairs (ties count for
//                neither) and the medians differ by more than the parent's
//                own interquartile range;
//   regressed  — the change's median is worse than the parent's by more than
//                the metric's BENCHMARK.json bound;
//   unresolved — the parent's spread (IQR / median) exceeds the bound and
//                not every change run beats every parent run;
//   unchanged  — otherwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "common/json.hpp"
#include "e2e.hpp"

namespace yoso::e2e {

namespace {

// (workload, metric) -> seed -> value
using Table = std::map<std::pair<std::string, std::string>, std::map<std::uint64_t, double>>;

Table read_dir(const std::string& dir) {
  Table table;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    const std::string file = entry.path().filename().string();
    if (file.size() < 8 || file.compare(file.size() - 8, 8, "-t0.json") != 0) continue;
    std::ifstream in(entry.path());
    std::stringstream buf;
    buf << in.rdbuf();
    const json::Value doc = json::parse(buf.str());
    const json::Value* correct = doc.find("correct");
    const json::Value* meta = doc.find("meta");
    const json::Value* metrics = doc.find("metrics");
    if (correct == nullptr || !correct->boolean || meta == nullptr || metrics == nullptr) continue;
    const std::string workload = meta->str_or("workload", "");
    const std::uint64_t seed = meta->u64_or("seed", 0);
    for (const auto& [name, m] : metrics->members) {
      table[{workload, name}][seed] = m.num_or("value", 0);
    }
  }
  return table;
}

std::vector<double> values(const std::map<std::uint64_t, double>& runs) {
  std::vector<double> v;
  for (const auto& [seed, value] : runs) v.push_back(value);
  return v;
}

}  // namespace

int compare_dirs(const Spec& spec, const std::string& parent_dir, const std::string& change_dir) {
  const Table parent = read_dir(parent_dir);
  const Table change = read_dir(change_dir);
  std::printf("%-12s %-23s %-34s %-34s %9s %6s %8s  %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "par.IQR%", "wins", "delta%",
              "verdict");
  bool regressed = false;
  for (const std::string& workload : spec.workloads) {
    for (const MetricSpec& m : spec.end_to_end) {
      const auto p = parent.find({workload, m.name});
      const auto c = change.find({workload, m.name});
      if (p == parent.end() || c == change.end()) {
        std::printf("%-12s %-23s missing in %s\n", workload.c_str(), m.name.c_str(),
                    p == parent.end() ? "parent" : "change");
        continue;
      }
      const std::vector<double> pv = values(p->second), cv = values(c->second);
      const std::vector<double> pq = quartiles(pv), cq = quartiles(cv);
      const double sign = m.higher_is_better ? -1.0 : 1.0;  // > 0 means worse
      auto better = [&](double a, double b) { return sign * (a - b) < 0; };

      std::size_t pairs = 0, wins = 0;
      for (const auto& [seed, value] : c->second) {
        const auto q = p->second.find(seed);
        if (q == p->second.end()) continue;
        ++pairs;
        if (better(value, q->second)) ++wins;
      }
      const double iqr = pq[2] - pq[0];
      const double spread = pq[1] != 0 ? iqr / std::fabs(pq[1]) : 0;
      const double worsening = pq[1] != 0 ? sign * (cq[1] - pq[1]) / std::fabs(pq[1]) : 0;
      const auto [cmin, cmax] = std::minmax_element(cv.begin(), cv.end());
      const auto [pmin, pmax] = std::minmax_element(pv.begin(), pv.end());
      const bool all_better = m.higher_is_better ? *cmin > *pmax : *cmax < *pmin;
      const char* verdict = "unchanged";
      if (pairs > 0 && wins * 10 >= pairs * 9 && better(cq[1], pq[1]) &&
          std::fabs(cq[1] - pq[1]) > iqr) {
        verdict = "improved";
      } else if (spread > m.bound && !all_better) {
        verdict = "unresolved";
      } else if (worsening > m.bound) {
        verdict = "regressed";
        regressed = true;
      }
      char pcol[64], ccol[64], wcol[16];
      std::snprintf(pcol, sizeof pcol, "%.5g [%.5g, %.5g]", pq[1], pq[0], pq[2]);
      std::snprintf(ccol, sizeof ccol, "%.5g [%.5g, %.5g]", cq[1], cq[0], cq[2]);
      std::snprintf(wcol, sizeof wcol, "%zu/%zu", wins, pairs);
      std::printf("%-12s %-23s %-34s %-34s %9.2f %6s %+8.2f  %s\n", workload.c_str(),
                  m.name.c_str(), pcol, ccol, 100 * spread, wcol,
                  100 * (pq[1] != 0 ? (cq[1] - pq[1]) / std::fabs(pq[1]) : 0), verdict);
    }
  }
  return regressed ? 1 : 0;
}

}  // namespace yoso::e2e
