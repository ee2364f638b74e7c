// The serving workload, serve_tcp_mix: an in-process transport::Server over a
// LocalService (two pool workers), reached by one RemoteService (two stripes)
// from two caller threads over TCP loopback, each waiting for its reply
// before sending the next request (closed loop).
//
// The catalog holds twelve zoo graphs with 24 <= n <= 96: nine served by
// congested_clique in batches of 1..8 and three by wilson in batches of 1
// and of 600 (above the server's batch_chunk_trees = 512, so responses
// stream in chunks). Requests pick graphs Zipf-skewed within each backend,
// by exact quota, so every seed runs the same mix. The pool budget is half
// the catalog's prepared bytes, so cold prepares and evictions run beside
// hot draws.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <future>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "engine/registry.hpp"
#include "engine/remote_service.hpp"
#include "engine/service.hpp"
#include "engine/transport.hpp"
#include "engine/wire.hpp"
#include "graph/connectivity.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using namespace cliquest;

constexpr std::size_t kCallers = 2;
constexpr int kWilsonLargeBatch = 600;
/// Requests per requested second; the request lists are fixed by
/// (seed, seconds), so every run of a seed serves identical trees.
constexpr double kRequestsPerSecond = 40.0;
/// One request in this many is re-drawn locally and compared tree by tree.
constexpr int kReplayEvery = 16;

struct CatalogEntry {
  std::string label;
  graph::Graph graph;
  engine::EngineOptions options;
  std::size_t prepared_bytes = 0;
  double prepare_seconds = 0.0;
};

engine::EngineOptions entry_options(engine::Backend backend, std::uint64_t seed, int index) {
  return engine::EngineOptions::builder()
      .backend(backend)
      .seed(util::splitmix64(seed + static_cast<std::uint64_t>(index)))
      .build();
}

/// Fixed shapes, seeded edges: the first nine are served by congested_clique,
/// the last three by wilson. Zipf rank follows the order within each group.
std::vector<CatalogEntry> make_catalog(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<CatalogEntry> catalog;
  auto add = [&](std::string label, graph::Graph g, engine::Backend backend) {
    const int index = static_cast<int>(catalog.size());
    catalog.push_back({std::move(label), std::move(g), entry_options(backend, seed, index)});
  };
  const auto clique = engine::Backend::congested_clique;
  const auto wilson = engine::Backend::wilson;
  add("gnp48", graph::gnp_connected(48, 0.15, rng), clique);
  add("grid6x8", graph::grid(6, 8), clique);
  add("gnp64", graph::gnp_connected(64, 0.1, rng), clique);
  add("barbell16", graph::barbell(16), clique);
  add("gnp32", graph::gnp_connected(32, 0.2, rng), clique);
  add("lollipop12_12", graph::lollipop(12, 12), clique);
  add("grid8x10", graph::grid(8, 10), clique);
  add("gnp96", graph::gnp_connected(96, 0.08, rng), clique);
  add("barbell24", graph::barbell(24), clique);
  add("gnp72", graph::gnp_connected(72, 0.1, rng), wilson);
  add("grid9x9", graph::grid(9, 9), wilson);
  add("lollipop16_16", graph::lollipop(16, 16), wilson);
  for (CatalogEntry& entry : catalog) {
    auto sampler = engine::make_sampler(entry.graph, entry.options);
    sampler->prepare();
    entry.prepared_bytes = sampler->memory_bytes();
    entry.prepare_seconds = sampler->prepare_seconds();
  }
  return catalog;
}

struct Request {
  int entry = 0;
  int count = 0;
  bool replay = false;  // re-drawn locally after its segment
};

/// Splits `total` requests over `entries` by Zipf weights 1/(rank+1), exactly
/// (largest remainder), so the mix does not depend on the seed.
std::vector<int> zipf_quota(const std::vector<int>& entries, int total) {
  std::vector<double> weights(entries.size());
  for (std::size_t r = 0; r < entries.size(); ++r) weights[r] = 1.0 / static_cast<double>(r + 1);
  const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
  std::vector<int> quota(entries.size());
  std::vector<std::pair<double, std::size_t>> remainders;
  int assigned = 0;
  for (std::size_t r = 0; r < entries.size(); ++r) {
    const double share = total * weights[r] / sum;
    quota[r] = static_cast<int>(share);
    assigned += quota[r];
    remainders.push_back({share - quota[r], r});
  }
  std::sort(remainders.rbegin(), remainders.rend());
  for (int i = 0; i < total - assigned; ++i) ++quota[remainders[static_cast<std::size_t>(i)].second];
  std::vector<int> picks;
  for (std::size_t r = 0; r < entries.size(); ++r) picks.insert(picks.end(), quota[r], entries[r]);
  return picks;
}

template <class T>
void shuffle(std::vector<T>& items, util::Rng& rng) {
  for (std::size_t i = items.size(); i > 1; --i)
    std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniform_below(i))]);
}

/// Three quarters clique requests with batch sizes 1..8 in equal numbers,
/// one quarter wilson requests, half of them of one tree and half of 600.
/// Each class is dealt round-robin, so every caller gets the same mix and
/// the same share marked for local replay; each caller's list is then
/// shuffled.
std::vector<std::vector<Request>> make_requests(std::uint64_t seed, int total) {
  util::Rng rng(util::splitmix64(seed ^ 0x5e57e5ull));
  const int wilson_total = total / 4;
  const std::vector<int> clique_picks =
      zipf_quota({0, 1, 2, 3, 4, 5, 6, 7, 8}, total - wilson_total);
  const std::vector<int> wilson_picks = zipf_quota({9, 10, 11}, wilson_total);
  std::vector<int> clique_sizes(clique_picks.size());
  for (std::size_t i = 0; i < clique_sizes.size(); ++i) clique_sizes[i] = static_cast<int>(i % 8) + 1;
  std::vector<int> wilson_sizes(wilson_picks.size());
  for (std::size_t i = 0; i < wilson_sizes.size(); ++i)
    wilson_sizes[i] = i % 2 == 0 ? 1 : kWilsonLargeBatch;
  shuffle(clique_sizes, rng);
  shuffle(wilson_sizes, rng);

  std::vector<Request> requests;
  for (std::size_t i = 0; i < clique_picks.size(); ++i)
    requests.push_back({clique_picks[i], clique_sizes[i]});
  for (std::size_t i = 0; i < wilson_picks.size(); ++i)
    requests.push_back({wilson_picks[i], wilson_sizes[i]});
  std::vector<std::vector<Request>> lists(kCallers);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    requests[i].replay = (i / kCallers) % kReplayEvery == 0;
    lists[i % kCallers].push_back(requests[i]);
  }
  for (std::vector<Request>& list : lists) shuffle(list, rng);
  return lists;
}

/// One serving stack: LocalService, TCP listener + transport::Server, and a
/// RemoteService client. Tear-down order matters: the client closes its
/// connections first so the per-connection serve() calls return.
class Stack {
 public:
  explicit Stack(const engine::PoolOptions& pool_options)
      : service_(pool_options), listener_(0), server_(service_) {
    acceptor_ = std::thread([this] {
      std::vector<std::future<void>> serving;
      while (std::shared_ptr<engine::transport::Connection> conn = listener_.accept())
        serving.push_back(std::async(std::launch::async, [this, conn] { server_.serve(conn); }));
      for (std::future<void>& f : serving) f.get();
    });
    engine::RemoteOptions remote_options;
    remote_options.stripes = 2;
    const std::uint16_t port = listener_.port();
    remote_ = std::make_unique<engine::RemoteService>(
        [port] { return engine::transport::tcp_connect("127.0.0.1", port); }, remote_options);
  }
  ~Stack() {
    remote_.reset();
    listener_.close();
    acceptor_.join();
  }
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;

  engine::RemoteService& remote() { return *remote_; }

 private:
  engine::LocalService service_;
  engine::transport::TcpListener listener_;
  engine::transport::Server server_;
  std::unique_ptr<engine::RemoteService> remote_;
  std::thread acceptor_;
};

/// after - before, bucket by bucket (both snapshots of one histogram).
engine::metrics::HistogramSnapshot minus(const engine::metrics::HistogramSnapshot& after,
                                         const engine::metrics::HistogramSnapshot& before) {
  engine::metrics::HistogramSnapshot out;
  out.total = after.total - before.total;
  out.sum_micros = after.sum_micros - before.sum_micros;
  for (const auto& [bucket, count] : after.buckets) {
    std::uint64_t earlier = 0;
    for (const auto& [b, c] : before.buckets)
      if (b == bucket) earlier = c;
    if (count > earlier) out.buckets.push_back({bucket, count - earlier});
  }
  return out;
}

struct CallerLog {
  std::vector<double> latencies_ms;
  std::vector<engine::BatchResponse> kept;  // responses marked for replay
  std::vector<int> kept_entries;
  std::int64_t trees = 0;
  std::int64_t clique_trees = 0;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::uint64_t replay = 0;  // order-independent sum of per-draw hashes
  cclique::Meter meter;
  double phases = 0;
  double walk_steps = 0;
};

/// Re-draws kept responses on local samplers from the same (seed, index)
/// streams and compares the trees; in the traced run it also times the wire
/// codec on them. Runs between segments, so kept responses are freed a
/// segment at a time, and builds one local sampler per response, so neither
/// piles up in peak_rss_mib.
class KeptChecker {
 public:
  KeptChecker(const std::vector<CatalogEntry>& catalog, bool time_codec)
      : catalog_(catalog), time_codec_(time_codec) {}

  void check(CallerLog& log) {
    for (std::size_t i = 0; i < log.kept.size(); ++i) {
      const engine::BatchResponse& response = log.kept[i];
      const auto entry = static_cast<std::size_t>(log.kept_entries[i]);
      const engine::BatchResult redrawn =
          engine::make_sampler(catalog_[entry].graph, catalog_[entry].options)->sample_batch_from(
          response.first_draw_index, static_cast<int>(response.batch.trees.size()));
      ++log.attempted;
      ++replayed;
      if (redrawn.trees != response.batch.trees) {
        ++log.failed;
        std::fprintf(stderr, "replay mismatch on %s at index %" PRId64 "\n",
                     catalog_[entry].label.c_str(), response.first_draw_index);
      }
      if (time_codec_) time_codec(response, log);
    }
    log.kept.clear();
    log.kept_entries.clear();
  }

  std::int64_t replayed = 0;
  double encode_s = 0.0;
  double decode_s = 0.0;
  double bytes = 0.0;
  double trees = 0.0;

 private:
  /// Each response is encoded and decoded a few times so the per-tree
  /// figures rest on more than one call.
  void time_codec(const engine::BatchResponse& response, CallerLog& log) {
    constexpr int kCodecRepeats = 5;
    for (int rep = 0; rep < kCodecRepeats; ++rep) {
      const auto t0 = Clock::now();
      const engine::wire::Bytes encoded = engine::wire::encode(response);
      encode_s += seconds_since(t0);
      const auto t1 = Clock::now();
      const engine::BatchResponse decoded = engine::wire::decode_batch_response(encoded);
      decode_s += seconds_since(t1);
      if (decoded.batch.trees != response.batch.trees) ++log.failed;
      bytes += static_cast<double>(encoded.size());
      trees += static_cast<double>(response.batch.trees.size());
    }
  }

  const std::vector<CatalogEntry>& catalog_;
  bool time_codec_;
};

void run_caller(engine::RemoteService& remote, const std::vector<CatalogEntry>& catalog,
                const std::vector<engine::Fingerprint>& fps,
                std::span<const Request> requests, std::uint64_t seed, CallerLog& log) {
  for (const Request& request : requests) {
    const CatalogEntry& entry = catalog[static_cast<std::size_t>(request.entry)];
    const auto start = Clock::now();
    engine::BatchResponse response;
    try {
      response = remote.sample_batch(
          {fps[static_cast<std::size_t>(request.entry)], request.count});
    } catch (const std::exception& e) {
      std::fprintf(stderr, "request on %s failed: %s\n", entry.label.c_str(), e.what());
      log.attempted += request.count;
      log.failed += request.count;
      continue;
    }
    log.latencies_ms.push_back(1000.0 * seconds_since(start));
    const std::vector<graph::TreeEdges>& trees = response.batch.trees;
    log.attempted += request.count;
    if (static_cast<int>(trees.size()) != request.count) {
      log.failed += request.count;
      continue;
    }
    for (std::size_t j = 0; j < trees.size(); ++j) {
      if (!graph::is_spanning_tree(entry.graph, trees[j])) ++log.failed;
      log.replay += draw_hash(seed + static_cast<std::uint64_t>(request.entry),
                             response.first_draw_index + static_cast<std::int64_t>(j), trees[j]);
    }
    log.trees += request.count;
    if (entry.options.backend == engine::Backend::congested_clique) {
      log.clique_trees += request.count;
      log.meter.merge(response.batch.report.meter);
      for (const engine::DrawStats& draw : response.batch.report.draws) {
        log.phases += draw.phases;
        log.walk_steps += static_cast<double>(draw.walk_steps);
      }
    }
    if (request.replay) {
      log.kept.push_back(std::move(response));
      log.kept_entries.push_back(request.entry);
    }
  }
}

}  // namespace

Result run_serve(const Args& args) {
  Result result;
  const std::vector<CatalogEntry> catalog = make_catalog(args.seed);
  std::size_t catalog_bytes = 0;
  double catalog_prepare_s = 0.0;
  for (const CatalogEntry& entry : catalog) {
    catalog_bytes += entry.prepared_bytes;
    catalog_prepare_s += entry.prepare_seconds;
  }
  engine::PoolOptions pool_options;
  pool_options.workers = 2;
  pool_options.memory_budget_bytes = catalog_bytes / 2;

  const int total_requests = std::max(64, static_cast<int>(std::ceil(args.seconds * kRequestsPerSecond)));
  const std::vector<std::vector<Request>> lists = make_requests(args.seed, total_requests);

  // Set-up: server start, dial, admission and warming (a zero-tree batch,
  // which prepares) of every graph. The first set-up's stack serves the run.
  std::unique_ptr<Stack> stack;
  std::vector<engine::Fingerprint> fps;
  // Each set-up starts seven threads; short bursts keep that churn (and the
  // thread stacks glibc caches from it) from inflating peak_rss_mib.
  SetupTimer setup(0.03);
  auto set_up = [&] {
    auto fresh = std::make_unique<Stack>(pool_options);
    std::vector<engine::Fingerprint> admitted;
    for (const CatalogEntry& entry : catalog)
      admitted.push_back(fresh->remote().admit({entry.graph, entry.options}));
    for (const engine::Fingerprint& fp : admitted) fresh->remote().sample_batch({fp, 0});
    if (!stack) {
      stack = std::move(fresh);
      fps = std::move(admitted);
    }
    return fresh;  // null for the set-up that became the serving stack
  };
  setup.burst(set_up);
  result.set("engine.prepare_s", catalog_prepare_s);
  result.set("engine.prepare_bytes", static_cast<double>(catalog_bytes));

  const engine::ServiceStats before = stack->remote().stats();
  std::vector<CallerLog> logs(kCallers);
  KeptChecker checker(catalog, args.trace);
  double loop_seconds = 0.0;
  engine::ServiceStats after;
  for (int segment = 0; segment < kSegments; ++segment) {
    const auto segment_start = Clock::now();
    std::vector<std::thread> callers;
    for (std::size_t c = 0; c < kCallers; ++c) {
      const std::vector<Request>& list = lists[c];
      const std::span<const Request> part(list.data() + list.size() * segment / kSegments,
                                          list.data() + list.size() * (segment + 1) / kSegments);
      callers.emplace_back(run_caller, std::ref(stack->remote()), std::cref(catalog),
                           std::cref(fps), part, args.seed, std::ref(logs[c]));
    }
    for (std::thread& t : callers) t.join();
    loop_seconds += seconds_since(segment_start);
    if (segment + 1 == kSegments) after = stack->remote().stats();
    for (CallerLog& log : logs) checker.check(log);
    setup.burst(set_up);
  }
  stack.reset();
  result.note("timed loop " + std::to_string(loop_seconds) + " s");
  result.set("setup_s", setup.median_seconds());

  CallerLog all;
  for (CallerLog& log : logs) {
    all.latencies_ms.insert(all.latencies_ms.end(), log.latencies_ms.begin(), log.latencies_ms.end());
    all.trees += log.trees;
    all.clique_trees += log.clique_trees;
    all.attempted += log.attempted;
    all.failed += log.failed;
    all.replay += log.replay;
    all.meter.merge(log.meter);
    all.phases += log.phases;
    all.walk_steps += log.walk_steps;
  }

  result.attempted = all.attempted;
  result.failed = all.failed;

  result.set("trees_per_s", static_cast<double>(all.trees) / loop_seconds);
  add_latency(result, all.latencies_ms);
  result.set("peak_rss_mib", peak_rss_mib());
  result.set("rounds_per_tree",
             static_cast<double>(all.meter.total_rounds()) / static_cast<double>(all.clique_trees));

  if (args.trace) {
    const engine::PoolStats& p1 = after.totals;
    const engine::PoolStats& p0 = before.totals;
    const double hits = static_cast<double>(p1.hits - p0.hits);
    const double misses = static_cast<double>(p1.misses - p0.misses);
    result.set("engine.pool.hit_ratio", hits / std::max(1.0, hits + misses));
    result.set("engine.pool.prepares", static_cast<double>(p1.prepares - p0.prepares));
    result.set("engine.pool.evictions", static_cast<double>(p1.evictions - p0.evictions));
    result.set("engine.pool.shed_batches", static_cast<double>(p1.shed_batches - p0.shed_batches));
    const auto serve = minus(after.metrics.batch_serve, before.metrics.batch_serve);
    const auto wait = minus(after.metrics.queue_wait, before.metrics.queue_wait);
    const auto rtt = minus(after.metrics.remote_rtt, before.metrics.remote_rtt);
    const auto dispatch = minus(after.metrics.dispatch, before.metrics.dispatch);
    result.set("engine.pool.batch_serve_mean_ms", serve.mean_micros() / 1000.0);
    result.set("engine.pool.queue_wait_mean_ms", wait.mean_micros() / 1000.0);
    result.set("engine.pool.queue_wait_p99_ms", static_cast<double>(wait.quantile(0.99)) / 1000.0);
    result.set("engine.transport.rtt_mean_ms", rtt.mean_micros() / 1000.0);
    result.set("engine.transport.dispatch_mean_ms", dispatch.mean_micros() / 1000.0);
    result.set("engine.transport.overhead_mean_ms",
               (rtt.mean_micros() - dispatch.mean_micros()) / 1000.0);
    result.set("engine.transport.dials", static_cast<double>(after.transport.dials));
    result.set("engine.transport.timeouts", static_cast<double>(after.transport.timeouts));

    result.set("engine.wire.encode_us_per_tree", 1e6 * checker.encode_s / checker.trees);
    result.set("engine.wire.decode_us_per_tree", 1e6 * checker.decode_s / checker.trees);
    result.set("engine.wire.bytes_per_tree", checker.bytes / checker.trees);

    const double clique_trees = static_cast<double>(all.clique_trees);
    for (const auto& [category, totals] : all.meter.categories()) {
      result.set(meter_metric(category), static_cast<double>(totals.rounds) / clique_trees);
    }
    result.set("core.phases_per_tree", all.phases / clique_trees);
    result.set("core.walk_length_per_tree", all.walk_steps / clique_trees);
  }

  char line[240];
  std::snprintf(line, sizeof line,
                "requests %zu, trees %" PRId64 " (%" PRId64 " clique), replay hash %016" PRIx64
                ", rounds %" PRId64 ", %" PRId64 " batches re-drawn locally",
                all.latencies_ms.size(), all.trees, all.clique_trees, all.replay,
                all.meter.total_rounds(), checker.replayed);
  result.note(line);
  std::snprintf(line, sizeof line,
                "pool: budget %zu of %zu catalog bytes, prepares %" PRId64 ", evictions %" PRId64
                ", hits %" PRId64 ", misses %" PRId64,
                pool_options.memory_budget_bytes, catalog_bytes,
                after.totals.prepares - before.totals.prepares,
                after.totals.evictions - before.totals.evictions,
                after.totals.hits - before.totals.hits, after.totals.misses - before.totals.misses);
  result.note(line);
  return result;
}

}  // namespace perfbench
