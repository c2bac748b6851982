// Small statistics helpers shared by the report code.

#ifndef E2E_BENCH_STATS_H_
#define E2E_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace e2e {

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Linear-interpolated quantile (the "type 7" estimator); 0 when empty.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) {
  return Quantile(std::move(v), 0.5);
}

inline double Ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// One statement's latency and its kind.
struct Timed {
  const char* kind = "";
  double ms = 0.0;
};

/// The median latency of each kind, then the geometric mean over the
/// kinds. Every kind weighs the same whatever its share of the traffic,
/// so neither the mix a seed happens to draw nor a median that falls in
/// the gap between two kinds' latencies moves the figure.
inline double KindMedian(const std::vector<Timed>& v) {
  std::map<std::string, std::vector<double>> by_kind;
  for (const Timed& t : v) by_kind[t.kind].push_back(t.ms);
  if (by_kind.empty()) return 0.0;
  double log_sum = 0.0;
  for (auto& [kind, ms] : by_kind) log_sum += std::log(Median(ms));
  return std::exp(log_sum / static_cast<double>(by_kind.size()));
}

}  // namespace e2e

#endif  // E2E_BENCH_STATS_H_
