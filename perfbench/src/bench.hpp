#pragma once

// Shared plumbing for the repository benchmark: command-line arguments, the
// result line, order statistics, replay hashing, the machine-speed sentinel
// and the per-layer span ledger of the traced run.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "graph/spanning.hpp"
#include "util/sync.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 0;
  bool trace = false;
};

/// What a workload hands back to main: measured values by metric name, the
/// correctness tally, and free-form lines echoed before the result.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, double> values;
  std::vector<std::string> notes;

  void set(const std::string& name, double value) { values[name] = value; }
  void note(std::string line) { notes.push_back(std::move(line)); }
};

Result run_draw(const Args& args);
Result run_serve(const Args& args);

/// Median of a sample (mean of the middle pair for even sizes); 0 if empty.
double median(std::vector<double> values);

/// Timed loops are cut into this many segments, with a burst of set-ups
/// before the first and after each one (the burst's time is not loop time).
inline constexpr int kSegments = 5;

/// Times set-ups in bursts spread over the run and reports their median. On
/// shared VMs core speed can shift by up to 1.8x in windows of a few
/// seconds, so set-ups timed in one place all land in one window; bursts
/// between the loop's segments sample several. A burst repeats the set-up
/// for at least `burst_seconds` (once at least), which also gives
/// millisecond set-ups enough repetitions for a steady median. Several
/// threads may run bursts at once, one per core the workload keeps busy, so
/// that the median samples every core's speed rather than one core's. Each
/// set-up's result is freed, outside the timed interval, before the
/// thread's next one starts; a burst returns its last result.
class SetupTimer {
 public:
  explicit SetupTimer(double burst_seconds) : burst_seconds_(burst_seconds) {}

  template <class Setup>
  auto burst(Setup&& setup) {
    decltype(setup()) built{};
    std::vector<double> seconds;
    const auto start = Clock::now();
    for (int rep = 0; rep == 0 || (rep < 1000 && seconds_since(start) < burst_seconds_); ++rep) {
      built = {};
      const auto t0 = Clock::now();
      built = setup();
      seconds.push_back(seconds_since(t0));
    }
    const cliquest::util::MutexLock lock(mutex_);
    samples_.insert(samples_.end(), seconds.begin(), seconds.end());
    return built;
  }
  double median_seconds() const {
    const cliquest::util::MutexLock lock(mutex_);
    return median(samples_);
  }
  std::size_t count() const {
    const cliquest::util::MutexLock lock(mutex_);
    return samples_.size();
  }

 private:
  double burst_seconds_;
  mutable cliquest::util::Mutex mutex_;
  std::vector<double> samples_ GUARDED_BY(mutex_);
};

/// The latency tail: the highest order statistic with at least ten samples
/// beyond it (rank n - 10, 1-based). Returns {value, percentile}; for fewer
/// than eleven samples it falls back to the maximum at the 100th percentile.
std::pair<double, double> tail(std::vector<double> values);

/// Adds latency_p50_ms and latency_tail_ms, noting the tail's percentile and
/// sample count.
void add_latency(Result& result, const std::vector<double>& latencies_ms);

/// Process high-water resident set (VmHWM) in MiB.
double peak_rss_mib();

/// Fixed matrix-product loop owned by the benchmark, in milliseconds (median
/// of a few repetitions). A diagnostic for machine-speed drift; no metric is
/// ever divided by it.
double machine_ref_ms();

/// Per-layer metric name of a meter category: "phase/walk_init" ->
/// "cclique.rounds.phase.walk_init_per_tree".
std::string meter_metric(const std::string& category);

/// 64-bit hash of one draw: its index and its canonical tree.
std::uint64_t draw_hash(std::uint64_t salt, std::int64_t index,
                        const cliquest::graph::TreeEdges& tree);

/// The engine's per-draw stream derivation, (seed, index) -> Rng seed, so the
/// traced run replays exactly the draws the timed run made.
std::uint64_t draw_stream(std::uint64_t seed, std::int64_t index);

/// Accumulated wall time per span name. Spans are recorded around calls into
/// the library's public functions, from this benchmark's own code; the
/// library itself is not instrumented.
class SpanLedger {
 public:
  class Scope {
   public:
    Scope(SpanLedger& ledger, const char* name)
        : ledger_(ledger), name_(name), start_(Clock::now()) {}
    ~Scope() { ledger_.add(name_, seconds_since(start_)); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLedger& ledger_;
    const char* name_;
    Clock::time_point start_;
  };

  void add(const std::string& name, double seconds) { seconds_[name] += seconds; }
  double seconds(const std::string& name) const {
    const auto it = seconds_.find(name);
    return it == seconds_.end() ? 0.0 : it->second;
  }

 private:
  std::map<std::string, double> seconds_;
};

}  // namespace perfbench
