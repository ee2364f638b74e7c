#include "bench.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "util/rng.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : 0.5 * (values[mid - 1] + values[mid]);
}

std::pair<double, double> tail(std::vector<double> values) {
  if (values.empty()) return {0.0, 100.0};
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  if (n <= 10) return {values.back(), 100.0};
  const std::size_t rank = n - 10;  // 1-based: exactly ten samples lie beyond
  return {values[rank - 1], 100.0 * static_cast<double>(rank) / static_cast<double>(n)};
}

void add_latency(Result& result, const std::vector<double>& latencies_ms) {
  const auto [tail_ms, percentile] = tail(latencies_ms);
  result.set("latency_p50_ms", median(latencies_ms));
  result.set("latency_tail_ms", tail_ms);
  char line[160];
  std::snprintf(line, sizeof line,
                "latency: %zu requests, p50 %.3f ms, tail p%.2f %.3f ms (10 samples beyond)",
                latencies_ms.size(), median(latencies_ms), percentile, tail_ms);
  result.note(line);
}

double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

double machine_ref_ms() {
  // A fixed 64x64 double matrix product, repeated: throughput-bound like the
  // library's kernels, so it sees the same speed shifts they do (a
  // dependent-integer loop does not).
  constexpr int n = 64;
  std::vector<double> a(n * n);
  std::vector<double> b(n * n);
  std::vector<double> c(n * n);
  for (int i = 0; i < n * n; ++i) {
    a[static_cast<std::size_t>(i)] = 1.0 / (1 + i % 17);
    b[static_cast<std::size_t>(i)] = 1.0 / (1 + i % 13);
  }
  std::vector<double> samples;
  for (int rep = 0; rep < 5; ++rep) {
    const auto start = Clock::now();
    for (int round = 0; round < 40; ++round) {
      std::fill(c.begin(), c.end(), 0.0);
      for (int i = 0; i < n; ++i)
        for (int k = 0; k < n; ++k) {
          const double aik = a[static_cast<std::size_t>(i * n + k)];
          for (int j = 0; j < n; ++j)
            c[static_cast<std::size_t>(i * n + j)] += aik * b[static_cast<std::size_t>(k * n + j)];
        }
      a[0] = c[static_cast<std::size_t>(round)] * 1e-9;  // carry a dependency
    }
    samples.push_back(1000.0 * seconds_since(start));
  }
  // The branch keeps the product live without printing it.
  if (c[0] == 42.0) std::puts("sentinel degenerate");
  return median(samples);
}

std::string meter_metric(const std::string& category) {
  std::string name = "cclique.rounds." + category + "_per_tree";
  std::replace(name.begin(), name.end(), '/', '.');
  return name;
}

std::uint64_t draw_hash(std::uint64_t salt, std::int64_t index,
                        const cliquest::graph::TreeEdges& tree) {
  std::uint64_t h = cliquest::util::splitmix64(salt ^ static_cast<std::uint64_t>(index));
  for (const auto& [u, v] : tree) {
    h = cliquest::util::splitmix64(h ^ (static_cast<std::uint64_t>(u) << 32 |
                                        static_cast<std::uint32_t>(v)));
  }
  return h;
}

std::uint64_t draw_stream(std::uint64_t seed, std::int64_t index) {
  return cliquest::util::splitmix64(cliquest::util::splitmix64(seed) +
                                    static_cast<std::uint64_t>(index) + 1);
}

}  // namespace perfbench
