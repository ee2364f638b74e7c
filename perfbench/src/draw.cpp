// The draw workloads: four callers sharing one index counter and one
// prepared congested_clique sampler, with the kernel pool at its default
// width.
//
//   draw_gnp256      gnp_connected(256, 0.08): per-phase derivation (Schur
//                    complement, shortcut matrix, power table) dominates.
//                    The pool serves one caller's multiply at a time; the
//                    others run theirs inline.
//   draw_lollipop64  lollipop(32, 32): a cover-time-heavy graph whose 64x64
//                    multiplies stay single-threaded; the phase walk
//                    dominates and derivation is under 1%.
//
// The untraced run times SpanningTreeSampler::sample_indexed. The traced run
// replays the same draws through a copy of the phase loop of
// CongestedCliqueTreeSampler::sample built from public functions, with a span
// around every call into a layer, and checks it against sample() on the same
// Rng.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "cclique/meter.hpp"
#include "core/phase.hpp"
#include "core/tree_sampler.hpp"
#include "engine/backends.hpp"
#include "engine/registry.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "linalg/matrix_power.hpp"
#include "schur/schur_complement.hpp"
#include "schur/shortcut.hpp"
#include "util/rng.hpp"
#include "util/sync.hpp"
#include "walk/transition.hpp"

namespace perfbench {
namespace {

using namespace cliquest;

/// Both workloads draw on four callers, one per core. On shared VMs each
/// core's speed can shift independently in windows of a few seconds (1.8x
/// apart on the 4-core x86 VM this was tuned on). One caller's latencies
/// follow the windows it happens to hit, and its latency tail is a count of
/// slow windows; four callers sample every core's speed at once.
constexpr int kCallers = 4;

/// Trees one caller draws per requested second. The tree count is fixed by
/// (seconds, workload), so every run of a seed draws identical trees.
double trees_per_caller_second(const std::string& name) {
  return name == "draw_gnp256" ? 2.5 : 1.15;
}

graph::Graph make_graph(const std::string& name, std::uint64_t seed) {
  if (name == "draw_gnp256") {
    util::Rng rng(seed);
    return graph::gnp_connected(256, 0.08, rng);
  }
  return graph::lollipop(32, 32);
}

/// Per-draw layer counts of the replica.
struct LayerCounts {
  double phases = 0;
  double walk_length = 0;
  double levels = 0;
  double extensions = 0;
  double flops = 0;
};

/// The phase loop of CongestedCliqueTreeSampler::sample, rebuilt from the
/// library's public functions so every layer call can be timed from here.
/// Phase 1 reuses transition, shortcut and power table computed once (as
/// prepare() does); endpoints are drawn by the linear scan (prepared =
/// nullptr), which the library documents as replay-identical to its CDFs.
class Replica {
 public:
  Replica(const core::CongestedCliqueTreeSampler& impl, SpanLedger& spans)
      : impl_(impl), spans_(spans) {
    const graph::Graph& g = impl_.graph();
    const int n = g.vertex_count();
    std::vector<int> all(static_cast<std::size_t>(n));
    for (int v = 0; v < n; ++v) all[static_cast<std::size_t>(v)] = v;
    target_length_ = core::choose_target_length(n, impl_.options());
    while ((std::int64_t{1} << levels_) < target_length_) ++levels_;
    full_transition_ = walk::transition_matrix(g);
    full_shortcut_ = schur::shortcut_transition(g, all);
    full_powers_ = linalg::power_table(full_transition_, levels_);
  }

  graph::TreeEdges sample(util::Rng& rng, LayerCounts& counts) {
    const graph::Graph& g = impl_.graph();
    const core::SamplerOptions& options = impl_.options();
    const int n = g.vertex_count();
    cclique::Meter meter;  // rounds are read from sample(), not from here
    core::PhaseScratch scratch;
    graph::TreeEdges tree;

    std::vector<char> visited(static_cast<std::size_t>(n), 0);
    visited[static_cast<std::size_t>(options.start_vertex)] = 1;
    int visited_count = 1;
    int frontier = options.start_vertex;
    while (visited_count < n) {
      ++counts.phases;
      std::vector<int> active;
      std::vector<int> local_of(static_cast<std::size_t>(n), -1);
      for (int v = 0; v < n; ++v) {
        if (!visited[static_cast<std::size_t>(v)] || v == frontier) {
          local_of[static_cast<std::size_t>(v)] = static_cast<int>(active.size());
          active.push_back(v);
        }
      }
      const bool full_phase = static_cast<int>(active.size()) == n;
      linalg::Matrix transition;
      linalg::Matrix shortcut;
      std::vector<linalg::Matrix> powers;
      if (!full_phase) {
        {
          SpanLedger::Scope span(spans_, "schur.transition");
          transition = schur::schur_transition(g, active);
        }
        {
          SpanLedger::Scope span(spans_, "schur.shortcut");
          shortcut = schur::shortcut_transition(g, active);
        }
        {
          SpanLedger::Scope span(spans_, "linalg.power_table");
          powers = linalg::power_table(transition, levels_);
        }
        const double m = static_cast<double>(active.size());
        counts.flops += 2.0 * m * m * m * levels_;
      }
      const linalg::Matrix& active_transition = full_phase ? full_transition_ : transition;
      const linalg::Matrix& shortcut_q = full_phase ? full_shortcut_ : shortcut;

      const int target_distinct = std::min<int>(impl_.rho(), static_cast<int>(active.size()));
      core::PhaseWalkResult walk;
      {
        SpanLedger::Scope span(spans_, "core.phase_walk");
        walk = core::build_phase_walk(
            active_transition, local_of[static_cast<std::size_t>(frontier)],
            target_distinct, target_length_, n, options, rng, meter,
            full_phase ? &full_powers_ : &powers, /*prepared=*/nullptr, &scratch);
      }
      counts.walk_length += static_cast<double>(walk.final_length);
      counts.levels += walk.levels;
      counts.extensions += walk.extensions;

      std::vector<char> in_s(static_cast<std::size_t>(n), 0);
      for (int v : active) in_s[static_cast<std::size_t>(v)] = 1;
      std::vector<char> seen_local(active.size(), 0);
      seen_local[static_cast<std::size_t>(walk.walk.front())] = 1;
      for (std::size_t i = 1; i < walk.walk.size(); ++i) {
        const int local = walk.walk[i];
        if (seen_local[static_cast<std::size_t>(local)]) continue;
        seen_local[static_cast<std::size_t>(local)] = 1;
        const int v = active[static_cast<std::size_t>(local)];
        const int prev = active[static_cast<std::size_t>(walk.walk[i - 1])];
        int u = 0;
        {
          SpanLedger::Scope span(spans_, "schur.first_visit");
          u = schur::sample_first_visit_neighbor(g, in_s, shortcut_q, prev, v, rng);
        }
        tree.emplace_back(u, v);
        visited[static_cast<std::size_t>(v)] = 1;
        ++visited_count;
      }
      frontier = active[static_cast<std::size_t>(walk.walk.back())];
    }
    return graph::canonical_tree(std::move(tree));
  }

 private:
  const core::CongestedCliqueTreeSampler& impl_;
  SpanLedger& spans_;
  std::int64_t target_length_ = 0;
  int levels_ = 0;
  linalg::Matrix full_transition_;
  linalg::Matrix full_shortcut_;
  std::vector<linalg::Matrix> full_powers_;
};

}  // namespace

Result run_draw(const Args& args) {
  Result result;
  const engine::EngineOptions options = engine::EngineOptions::builder()
                                            .backend(engine::Backend::congested_clique)
                                            .seed(util::splitmix64(args.seed))
                                            .build();

  // Set-up: graph build, sampler construction and prepare(). Every caller
  // times its own set-ups in a burst before each segment and after the last.
  const graph::Graph g = make_graph(args.workload, args.seed);
  util::Mutex prepare_mutex;
  std::vector<double> prepare_seconds;  // appended under prepare_mutex
  SetupTimer setup(0.5);
  auto set_up = [&] {
    auto fresh = engine::make_sampler(make_graph(args.workload, args.seed), options);
    fresh->prepare();
    const util::MutexLock lock(prepare_mutex);
    prepare_seconds.push_back(fresh->prepare_seconds());
    return fresh;
  };

  // The traced run draws on one thread, every tree twice (replica and
  // sample()), so it draws half a caller's count.
  const std::int64_t trees =
      std::max<std::int64_t>(kSegments, static_cast<std::int64_t>(std::ceil(
                                            args.seconds * trees_per_caller_second(args.workload) *
                                            (args.trace ? 0.5 : kCallers))));

  std::vector<std::uint64_t> hashes(static_cast<std::size_t>(trees));
  std::int64_t rounds = 0;
  auto check = [&](std::int64_t index, const graph::TreeEdges& tree) {
    if (!graph::is_spanning_tree(g, tree)) {
      std::fprintf(stderr, "draw %" PRId64 ": not a spanning tree\n", index);
      return false;
    }
    hashes[static_cast<std::size_t>(index)] = draw_hash(args.seed, index, tree);
    return true;
  };

  if (!args.trace) {
    // The callers live for the whole run and run the set-up bursts
    // themselves, so each keeps one malloc arena throughout; threads started
    // anew for every segment land in whichever arena is free, and
    // peak_rss_mib then depends on which arenas the draws happened to grow.
    // Each segment draws from the sampler the first caller's burst built
    // (all build the same sampler); no burst runs beside a drawing sampler.
    std::vector<double> latencies_ms(static_cast<std::size_t>(trees));
    std::vector<std::int64_t> draw_rounds(static_cast<std::size_t>(trees));
    std::vector<char> valid(static_cast<std::size_t>(trees));
    std::unique_ptr<engine::SpanningTreeSampler> sampler;  // set between barriers
    std::unique_ptr<engine::SpanningTreeSampler> staged;
    std::atomic<std::int64_t> next{0};
    std::int64_t end = 0;
    int segment = 0;
    bool drawing = false;
    auto segment_start = Clock::now();
    double loop_seconds = 0.0;
    // Runs on one thread while the others wait: it starts a segment after a
    // burst and ends it after the draws.
    auto switch_phase = [&]() noexcept {
      if (!drawing) {
        sampler = std::move(staged);
        next = trees * segment / kSegments;
        end = trees * (segment + 1) / kSegments;
        segment_start = Clock::now();
      } else {
        loop_seconds += seconds_since(segment_start);
        sampler.reset();
        ++segment;
      }
      drawing = !drawing;
    };
    std::barrier sync(kCallers, switch_phase);
    auto caller = [&](int c) {
      for (;;) {
        auto built = setup.burst(set_up);
        if (c == 0) staged = std::move(built);
        built.reset();
        if (segment == kSegments) return;
        sync.arrive_and_wait();
        for (std::int64_t i = next++; i < end; i = next++) {
          const auto start = Clock::now();
          engine::Draw draw = sampler->sample_indexed(i);
          const auto slot = static_cast<std::size_t>(i);
          latencies_ms[slot] = 1000.0 * seconds_since(start);
          draw_rounds[slot] = draw.stats.rounds;
          valid[slot] = check(i, draw.tree);
        }
        sync.arrive_and_wait();
      }
    };
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c) callers.emplace_back(caller, c);
    for (std::thread& t : callers) t.join();
    result.set("engine.prepare_bytes", static_cast<double>(staged->memory_bytes()));
    result.attempted = trees;
    result.failed = std::count(valid.begin(), valid.end(), 0);
    rounds = std::accumulate(draw_rounds.begin(), draw_rounds.end(), std::int64_t{0});
    result.note("timed loop " + std::to_string(loop_seconds) + " s, " +
                std::to_string(kCallers) + " callers");
    result.set("trees_per_s", static_cast<double>(trees) / loop_seconds);
    add_latency(result, latencies_ms);
    result.set("rounds_per_tree", static_cast<double>(rounds) / static_cast<double>(trees));
    result.set("peak_rss_mib", peak_rss_mib());
    result.set("setup_s", setup.median_seconds());
  } else {
    const std::unique_ptr<engine::SpanningTreeSampler> sampler = setup.burst(set_up);
    result.set("engine.prepare_bytes", static_cast<double>(sampler->memory_bytes()));
    const auto& clique = dynamic_cast<const engine::CongestedCliqueBackend&>(*sampler);
    SpanLedger spans;
    Replica replica(clique.impl(), spans);
    LayerCounts counts;
    cclique::Meter meter;
    std::int64_t agree = 0;
    double sample_seconds = 0.0;
    for (std::int64_t i = 0; i < trees; ++i) {
      util::Rng replica_rng(draw_stream(options.seed, i));
      util::Rng sample_rng(draw_stream(options.seed, i));
      graph::TreeEdges replayed;
      {
        SpanLedger::Scope span(spans, "trace.replica");
        replayed = replica.sample(replica_rng, counts);
      }
      const auto start = Clock::now();
      core::TreeSample reference = clique.impl().sample(sample_rng);
      sample_seconds += seconds_since(start);
      ++result.attempted;
      if (!check(i, reference.tree)) ++result.failed;
      meter.merge(reference.report.meter);
      if (replayed == reference.tree) ++agree;
    }
    const double per_tree_ms = 1000.0 / static_cast<double>(trees);
    const double replica_s = spans.seconds("trace.replica");
    const double derivation_s = spans.seconds("schur.transition") +
                                spans.seconds("schur.shortcut") +
                                spans.seconds("schur.first_visit") +
                                spans.seconds("linalg.power_table");
    result.set("linalg.power_table_ms_per_tree", spans.seconds("linalg.power_table") * per_tree_ms);
    result.set("linalg.flops_per_tree", counts.flops / static_cast<double>(trees));
    result.set("linalg.gflops", counts.flops / spans.seconds("linalg.power_table") / 1e9);
    result.set("schur.transition_ms_per_tree", spans.seconds("schur.transition") * per_tree_ms);
    result.set("schur.shortcut_ms_per_tree", spans.seconds("schur.shortcut") * per_tree_ms);
    result.set("schur.first_visit_ms_per_tree", spans.seconds("schur.first_visit") * per_tree_ms);
    result.set("core.phase_walk_ms_per_tree", spans.seconds("core.phase_walk") * per_tree_ms);
    result.set("core.phases_per_tree", counts.phases / static_cast<double>(trees));
    result.set("core.walk_length_per_tree", counts.walk_length / static_cast<double>(trees));
    result.set("core.levels_per_tree", counts.levels / static_cast<double>(trees));
    result.set("core.extensions_per_tree", counts.extensions / static_cast<double>(trees));
    for (const auto& [category, totals] : meter.categories())
      result.set(meter_metric(category),
                 static_cast<double>(totals.rounds) / static_cast<double>(trees));
    result.set("trace.replica_ms_per_tree", replica_s * per_tree_ms);
    result.set("trace.replay_agreement", static_cast<double>(agree) / static_cast<double>(trees));
    result.set("trace.overhead_share", (replica_s - sample_seconds) / sample_seconds);
    result.set("trace.derivation_share", derivation_s / replica_s);
    result.set("trace.phase_walk_share", spans.seconds("core.phase_walk") / replica_s);
    rounds = meter.total_rounds();
    char line[160];
    std::snprintf(line, sizeof line,
                  "trace: %" PRId64 "/%" PRId64 " replica trees equal sample(); "
                  "replica %.1f ms/tree, sample() %.1f ms/tree",
                  agree, trees, replica_s * per_tree_ms, sample_seconds * per_tree_ms);
    result.note(line);
  }

  result.set("engine.prepare_s", median(prepare_seconds));
  std::uint64_t replay = 0;
  for (std::uint64_t h : hashes) replay = util::splitmix64(replay ^ h);
  char line[200];
  std::snprintf(line, sizeof line,
                "draws %" PRId64 " (n=%d, m=%d), replay hash %016" PRIx64 ", rounds %" PRId64
                ", %zu set-ups",
                trees, g.vertex_count(), g.edge_count(), replay, rounds, setup.count());
  result.note(line);
  return result;
}

}  // namespace perfbench
