// serving.cpp -- the serve workloads: the real ndetd binary as a child
// process on loopback TCP, driven open-loop with ndet_loadgen's request mix
// (50/30/20 worst/average/partition, one in four interactive, no
// deadlines) over its nine circuits.  serve_hot gives the daemon a cache
// budget above the working set and warms it during set-up, so every timed
// request is a memo hit; serve_miss differs only in a budget below the
// working set (but above the largest session), its rates and its pass
// size, so LRU keeps a changing subset and misses rebuild databases in the
// serving path.
//
// The end-to-end figure is pass_s: how long the daemon takes to answer a
// fixed-size batch of the stream offered all at once (work completed at
// saturation), each pass with a fresh batch, reported as the median over
// the quieter half of the run's passes (the half with the least CPU time
// stolen by the hypervisor).
// With Options::rates the run then also measures latency at the fixed low
// and high rates and searches for the highest rate meeting the p99 limit;
// those figures go into the record.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench.hpp"
#include "fsm/benchmarks.hpp"
#include "ladder.hpp"
#include "loadgen.hpp"
#include "reference.hpp"
#include "serve/protocol.hpp"
#include "serve/session_cache.hpp"
#include "stats.hpp"
#include "util/json.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

struct ServeConfig {
  std::size_t cache_bytes;
  double low_rate;      ///< requests/s, far below capacity
  double high_rate;     ///< requests/s, well loaded but below capacity
  double ladder_lo;     ///< max-rate search range
  double ladder_hi;
  double p99_limit_ms;  ///< the latency limit max_rate_rps must meet
  std::size_t pass_requests;  ///< one pass: about a second of work
};

// The nine sessions total about 548 KB and bbara alone is 320 KB.
constexpr ServeConfig kHot{64u << 20, 1000.0, 4000.0, 500.0, 40000.0, 20.0, 10000};
constexpr ServeConfig kMiss{400u << 10, 150.0, 300.0, 100.0, 10000.0, 100.0, 1000};

constexpr std::size_t kWindow = 1000;     // samples per latency window (p99)
constexpr double kMaxLateShare = 0.2;     // lateness (of the limit) voiding a step
constexpr double kMaxStealShare = 0.1;    // hypervisor-stolen CPU voiding a step
constexpr double kProbeSeconds = 0.5;     // minimum ladder probe length
constexpr int kSearches = 3;              // max-rate searches per run
constexpr int kMinPasses = 5;
constexpr double kBurstRate = 1e12;       // every request of a pass due at once

const std::vector<std::string>& circuits() {
  static const std::vector<std::string> names = {
      "paper_example", "bbtas", "dk27", "lion9", "train11",
      "tav",           "s8",    "beecount", "bbara"};
  return names;
}

// ndet_loadgen's average-case and partition parameters.
constexpr int kAverageNmax = 2;
constexpr std::size_t kAverageSets = 12;
constexpr std::size_t kPartitionBudget = 8;
constexpr std::uint64_t kSeedsPerWorkload = 4;

/// One distinct result: what a request asks and what it must return.
struct Key {
  std::size_t circuit = 0;
  ndet::serve::RequestType type = ndet::serve::RequestType::kWorstCase;
  std::uint64_t seed = 0;  ///< Procedure 1's master seed (average_case)
};

std::vector<Key> distinct_keys(std::uint64_t seed) {
  std::vector<Key> keys;
  for (std::size_t c = 0; c < circuits().size(); ++c) {
    keys.push_back({c, ndet::serve::RequestType::kWorstCase, 0});
    for (std::uint64_t s = 0; s < kSeedsPerWorkload; ++s)
      keys.push_back({c, ndet::serve::RequestType::kAverageCase,
                      seed * kSeedsPerWorkload + s});
    keys.push_back({c, ndet::serve::RequestType::kPartition, 0});
  }
  return keys;
}

/// The request JSON after its id (the client prepends {"id":N,).
std::string request_body(const Key& key, ndet::serve::Priority priority) {
  ndet::JsonWriter w;
  w.begin_object();
  w.key("type").value(ndet::serve::to_string(key.type));
  w.key("priority").value(ndet::serve::to_string(priority));
  w.key("circuit").value(circuits()[key.circuit]);
  if (key.type == ndet::serve::RequestType::kAverageCase) {
    w.key("nmax").value(kAverageNmax);
    w.key("num_sets").value(static_cast<std::uint64_t>(kAverageSets));
    w.key("seed").value(key.seed);
  } else if (key.type == ndet::serve::RequestType::kPartition) {
    w.key("budget").value(static_cast<std::uint64_t>(kPartitionBudget));
  }
  w.end_object();
  return w.str().substr(1);  // drop the '{'
}

/// The seeded request stream: every step takes the next requests from it.
class Schedule {
 public:
  explicit Schedule(std::uint64_t seed) : rng_(seed), keys_(distinct_keys(seed)) {}

  const std::vector<Key>& keys() const { return keys_; }

  std::vector<Planned> take(std::size_t count) {
    std::vector<Planned> planned;
    planned.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t circuit = rng_.below(circuits().size());
      const std::uint64_t mix = rng_.below(10);
      std::size_t key = circuit * (2 + kSeedsPerWorkload);  // worst_case
      if (mix >= 8)
        key += 1 + kSeedsPerWorkload;  // partition
      else if (mix >= 5)
        key += 1 + rng_.below(kSeedsPerWorkload);  // average_case
      const auto priority = ++taken_ % 4 == 0 ? ndet::serve::Priority::kInteractive
                                              : ndet::serve::Priority::kBatch;
      planned.push_back({request_body(keys_[key], priority),
                         static_cast<std::uint32_t>(key)});
    }
    return planned;
  }

  /// Every distinct request once, in key order (the cache warm-up).
  std::vector<Planned> every_key() const {
    std::vector<Planned> planned;
    for (std::size_t k = 0; k < keys_.size(); ++k)
      planned.push_back({request_body(keys_[k], ndet::serve::Priority::kBatch),
                         static_cast<std::uint32_t>(k)});
    return planned;
  }

 private:
  ndet::Rng rng_;
  std::vector<Key> keys_;
  std::uint64_t taken_ = 0;
};

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

/// How late the generator sent the step's requests (send - due), p99.
double late_p99_ms(const StepRecord& step) {
  std::vector<double> late;
  late.reserve(step.requests.size());
  for (const RequestRecord& r : step.requests) late.push_back(ms(r.sent_ns - r.due_ns));
  if (late.empty()) return 0.0;
  std::sort(late.begin(), late.end());
  return percentile_sorted(late, kP99);
}

/// Latency from due time to response; an unanswered request counts as
/// missing any limit.
double latency_ms(const RequestRecord& r) {
  return r.done_ns != 0 ? ms(r.done_ns - r.due_ns) : 1e9;
}

TailSummary step_tail(const StepRecord& step) {
  std::vector<double> all;
  for (const RequestRecord& r : step.requests) all.push_back(latency_ms(r));
  return summarize(all);
}

/// A fixed-rate step's latency: windows of kWindow requests in due order
/// (so each supports a p99), reduced by quieter_half.  Every request of
/// every window is still checked for correctness, and the whole step's
/// tail under the percentile rule is kept for the record.
struct WindowedLatency {
  QuietHalf figures;
  double steal_share = 0.0;  ///< over the whole step
  TailSummary tail;          ///< the whole step, percentile rule
  StepRecord step;
};

WindowedLatency measure_fixed_rate(OpenLoopClient& client,
                                   const std::vector<Planned>& requests,
                                   double rate, std::size_t ping_every = 0) {
  WindowedLatency out;
  out.step = client.run_step(requests, rate, 30.0, ping_every);
  const std::vector<RequestRecord>& records = out.step.requests;
  const std::size_t n = records.size();
  const std::size_t windows = std::max<std::size_t>(1, n / kWindow);
  std::vector<TailSummary> summaries;
  std::vector<double> latencies;
  for (std::size_t w = 0; w < windows; ++w) {
    latencies.clear();
    for (std::size_t i = w * n / windows; i < (w + 1) * n / windows; ++i)
      latencies.push_back(latency_ms(records[i]));
    summaries.push_back(summarize(latencies));
    if (!summaries.back().p99_supported)
      throw std::logic_error("a latency window has too few samples for p99");
  }
  out.figures = quieter_half(std::move(summaries));
  out.steal_share = out.step.steal_share(records.front().due_ns, records.back().due_ns);
  out.tail = step_tail(out.step);
  return out;
}

std::size_t failures(const StepRecord& step) {
  std::size_t failed = 0;
  for (const RequestRecord& r : step.requests) failed += (r.done_ns == 0 || !r.ok);
  return failed;
}

std::vector<std::string> daemon_args(const ServeConfig& config, unsigned nproc) {
  // Unbounded admission: the ladder offers rates above capacity on purpose,
  // and a growing backlog -- not shedding -- is what marks them.
  return {"--listen=0",
          "--cache-bytes=" + std::to_string(config.cache_bytes),
          "--concurrency=" + std::to_string(nproc),
          "--threads=" + std::to_string(nproc),
          "--queue-depth=0",
          "--queue-bytes=0",
          "--drain-ms=5000"};
}

/// The daemon's cumulative counters (the stats request).
struct DaemonStats {
  double hits = 0, misses = 0, evictions = 0, peak_depth = 0, shed = 0;
};

DaemonStats daemon_stats(OpenLoopClient& client) {
  const std::string reply = client.call("\"type\":\"stats\"}");
  const ndet::json::Value root = ndet::json::parse(reply);
  const ndet::json::Value& result = root.at("result");
  const ndet::json::Value& cache = result.at("cache");
  const ndet::json::Value& admission = result.at("admission");
  DaemonStats stats;
  stats.hits = cache.at("hits").as_double();
  stats.misses = cache.at("misses").as_double();
  stats.evictions = cache.at("evictions").as_double();
  stats.peak_depth = admission.at("peak_depth").as_double();
  stats.shed = admission.at("shed_interactive").as_double() +
               admission.at("shed_batch").as_double() +
               admission.at("displaced").as_double();
  return stats;
}

/// Expected result payload of every key, from the single-thread direct path.
std::vector<std::string> expected_results(const std::vector<Key>& keys) {
  std::vector<std::unique_ptr<DirectCircuit>> direct(circuits().size());
  std::vector<std::string> expected;
  for (const Key& key : keys) {
    auto& slot = direct[key.circuit];
    if (!slot)
      slot = std::make_unique<DirectCircuit>(
          ndet::resolve_circuit(circuits()[key.circuit]));
    switch (key.type) {
      case ndet::serve::RequestType::kWorstCase:
        expected.push_back(ndet::to_json(slot->worst_case()));
        break;
      case ndet::serve::RequestType::kAverageCase: {
        ndet::Procedure1Config config;
        config.nmax = kAverageNmax;
        config.num_sets = kAverageSets;
        config.seed = key.seed;
        expected.push_back(slot->average_json(config));
        break;
      }
      default: {
        ndet::PartitionOptions options;
        options.max_inputs = kPartitionBudget;
        expected.push_back(slot->partition_json(options));
        break;
      }
    }
  }
  return expected;
}

/// The single-thread replay of sampled requests through the serving
/// layer's own functions, with a span around each phase.
struct ReplayOutcome {
  std::size_t requests = 0;
  std::map<std::string, double> self_s;  ///< per span name, sample only
  WorkCounts counts;                     ///< work done for the sample
  std::size_t mismatches = 0;
};

ReplayOutcome replay(const ServeConfig& config,
                     const std::vector<Planned>& warm,
                     const std::vector<Planned>& sample,
                     const std::vector<std::uint64_t>& expected_hash,
                     Tracer& tracer) {
  // ndetd runs --threads=N over --concurrency=N dispatchers, so each of
  // its sessions gets one thread; the replay matches that.
  ndet::SessionOptions base;
  base.num_threads = 1;
  ndet::serve::SessionCache cache(config.cache_bytes, base);
  ReplayOutcome out;
  std::uint32_t first = 0;
  std::uint64_t id = 0;
  auto run = [&](const Planned& planned, bool counted) {
    const std::uint32_t op = tracer.next_op();
    ScopedSpan request_span(tracer, "serve.request", 0, op);
    if (counted && first == 0) first = request_span.id();
    const std::uint32_t parent = request_span.id();
    ndet::serve::Request request;
    {
      ScopedSpan span(tracer, "serve.parse", parent, op);
      request = ndet::serve::parse_request("{\"id\":" + std::to_string(++id) + "," +
                                           planned.line);
    }
    std::optional<ndet::serve::SessionCache::Lease> lease;
    {
      ScopedSpan span(tracer, "serve.lease", parent, op);
      lease.emplace(cache.acquire(request.key, request.priority));
    }
    ndet::AnalysisSession& session = lease->session();
    const bool fresh_db = session.stats().set_memory_bytes == 0;
    const std::size_t average_hits = session.stats().average_case_hits;
    const std::size_t partition_hits = session.stats().partitioned_hits;
    const ndet::WorstCaseResult* worst = nullptr;
    const ndet::AverageCaseResult* average = nullptr;
    const std::vector<ndet::ConeReport>* cones = nullptr;
    if (request.type != ndet::serve::RequestType::kPartition) {
      {
        ScopedSpan span(tracer, "sim.db_build", parent, op);
        session.db();
      }
      ScopedSpan span(tracer, "core.worst_case", parent, op);
      if (request.type == ndet::serve::RequestType::kWorstCase)
        worst = &session.worst_case();
      else
        session.monitored(request.nmax);
    }
    if (request.type == ndet::serve::RequestType::kAverageCase) {
      ScopedSpan span(tracer, "core.procedure1_def1", parent, op);
      average = &session.average_case(request.average);
    } else if (request.type == ndet::serve::RequestType::kPartition) {
      ScopedSpan span(tracer, "core.partition", parent, op);
      cones = &session.partitioned(request.partition);
    }
    std::string result;
    {
      ScopedSpan span(tracer, "serve.serialize", parent, op);
      result = worst ? ndet::to_json(*worst)
               : average ? ndet::to_json(*average)
                         : cones_json(*cones);
      const std::string response = ndet::serve::ok_response(
          request, result, session.stats(), lease->hit(), 0.0);
      (void)response;
    }
    {
      ScopedSpan span(tracer, "serve.cache_update", parent, op);
      cache.update(*lease);
    }
    if (payload_hash(result.data(), result.size()) != expected_hash[planned.key])
      ++out.mismatches;
    if (!counted) return;
    ++out.requests;
    if (fresh_db && request.type != ndet::serve::RequestType::kPartition)
      out.counts.add_db(session.db());
    if (average != nullptr && session.stats().average_case_hits == average_hits)
      out.counts.tests_def1 += static_cast<double>(average->stats.tests_added);
    if (cones != nullptr && session.stats().partitioned_hits == partition_hits)
      out.counts.cones += static_cast<double>(cones->size());
  };
  for (const Planned& planned : warm) run(planned, false);
  for (const Planned& planned : sample) run(planned, true);
  out.self_s = self_seconds_by_name(tracer.spans(), first == 0 ? UINT32_MAX : first);
  return out;
}

}  // namespace

Result run_serve(const Options& options, bool hot) {
  const ServeConfig& config = hot ? kHot : kMiss;
  Result result;
  const CpuSplit cpus = split_cpus();
  if (options.nproc < 2)
    throw std::runtime_error("the serve workloads need two CPUs: the generator busy-polls one");
  pin_calling_thread(cpus.generator);
  // Latency steps keep the daemon's CPUs from idling (see IdleSpinners);
  // the passes keep them busy themselves.
  std::optional<IdleSpinners> spinners;
  const unsigned connections = options.nproc;
  Schedule schedule(options.seed);
  const std::vector<Planned> warm = schedule.every_key();

  // Set-up: start the daemon, connect, and warm its cache with every
  // distinct request.  Repeated; the last daemon stays up.
  std::vector<double> setups;
  std::unique_ptr<Daemon> daemon;
  std::unique_ptr<OpenLoopClient> client;
  std::vector<StepRecord> checked;  // every step whose outputs are verified
  while (more_setups(setups.size(), options.start_ns)) {
    const std::int64_t start = setups.empty() ? options.start_ns : now_ns();
    if (daemon) {
      client.reset();
      daemon->stop(nullptr);
    }
    daemon = std::make_unique<Daemon>(
        options.ndetd, daemon_args(config, cpus.daemon_cpus), &cpus.daemon);
    client = std::make_unique<OpenLoopClient>(daemon->port(), connections);
    checked.push_back(client->run_step(warm, 2000.0, 60.0));
    setups.push_back(static_cast<double>(now_ns() - start) * 1e-9);
  }

  // Each fixed-rate step lasts half the run, and at least one window.
  const double step_s = options.seconds * 0.5;
  auto step_size = [&](double rate) {
    return std::max(kWindow, static_cast<std::size_t>(rate * step_s));
  };
  const std::vector<Planned> low_requests = schedule.take(step_size(config.low_rate));
  const std::vector<Planned> high_requests = schedule.take(step_size(config.high_rate));
  Tracer tracer(false);

  if (!options.trace) {
    const std::int64_t timed_start = now_ns();
    std::vector<TimedPass> passes;
    while (static_cast<int>(passes.size()) < kMinPasses ||
           static_cast<double>(now_ns() - timed_start) * 1e-9 < options.seconds) {
      StepRecord pass = client->run_step(schedule.take(config.pass_requests), kBurstRate, 60.0);
      const std::int64_t first_due = pass.requests.front().due_ns;
      std::int64_t last_done = first_due;
      for (const RequestRecord& r : pass.requests) last_done = std::max(last_done, r.done_ns);
      passes.push_back({static_cast<double>(last_done - first_due) * 1e-9,
                        pass.steal_share(first_due, last_done)});
      checked.push_back(std::move(pass));
    }
    result.set("setup_s", median(setups), "s");
    result.set("pass_s", quieter_half_median(passes), "s");
    result.info["passes"] = static_cast<double>(passes.size());
    result.info["pass_steal_share"] = median_steal_share(passes);
    result.info["pass_requests"] = static_cast<double>(config.pass_requests);
  }

  if (options.trace || options.rates) spinners.emplace(cpus.daemon);

  if (!options.trace && options.rates) {
    const WindowedLatency low = measure_fixed_rate(*client, low_requests, config.low_rate);
    const WindowedLatency high = measure_fixed_rate(*client, high_requests, config.high_rate);
    checked.push_back(low.step);
    checked.push_back(high.step);
    result.info["p50_ms.low"] = low.figures.p50;
    result.info["p99_ms.low"] = low.figures.p99;
    result.info["p50_ms.high"] = high.figures.p50;
    result.info["p99_ms.high"] = high.figures.p99;
    for (const auto& [name, step] : {std::pair{"low", &low}, std::pair{"high", &high}}) {
      const std::string suffix = std::string(".") + name;
      result.info["samples" + suffix] = static_cast<double>(step->figures.samples);
      result.info["windows" + suffix] = static_cast<double>(step->figures.windows);
      result.info["steal_share" + suffix] = step->steal_share;
      result.info["tail_percentile" + suffix] = step->tail.tail_percentile / 1000.0;
      result.info["tail_ms" + suffix] = step->tail.tail;
      result.info["tail_samples" + suffix] = static_cast<double>(step->tail.count);
      result.info["late_p99_ms" + suffix] = late_p99_ms(step->step);
    }
    result.info["p99_limit_ms"] = config.p99_limit_ms;
    result.info["rate.low"] = config.low_rate;
    result.info["rate.high"] = config.high_rate;

    const std::int64_t timed_start = now_ns();
    // Max rate: binary searches over the fixed ladder.  A probe that is
    // invalid (late generator, stolen CPU) says nothing about the server and
    // is rerun; one that misses is rerun once, because a stalled machine can
    // only make a rate look worse than the server sustains.  A rung meets
    // the limit when an attempt meets it and misses after two valid misses.
    // After three invalid attempts -- or once the run has used four times
    // its seconds, so a stormy machine cannot stretch a run without bound --
    // the least disturbed attempt is judged on latency and backlog alone.
    const std::vector<double> ladder =
        rate_ladder(config.ladder_lo, config.ladder_hi, 1.05);
    const StepLimits limits{config.p99_limit_ms, kMaxLateShare * config.p99_limit_ms,
                            kMaxStealShare, 2 * connections};
    std::size_t probes = 0, invalid = 0;
    const auto probe_rung = [&](double rate) {
      const std::size_t count = std::max<std::size_t>(
          kWindow, static_cast<std::size_t>(rate * kProbeSeconds));
      const std::vector<Planned> requests = schedule.take(count);
      int misses = 0;
      std::optional<StepStats> least_disturbed;
      for (int attempt = 0; attempt < 3; ++attempt) {
        StepRecord probe = client->run_step(requests, rate, 30.0);
        StepStats stats;
        stats.rate = rate;
        stats.failed = failures(probe);
        stats.backlog_end = probe.backlog_end;
        const TailSummary tail = step_tail(probe);
        stats.p99_supported = tail.p99_supported;
        stats.p99_ms = tail.p99;
        stats.late_p99_ms = late_p99_ms(probe);
        stats.steal_share = probe.steal_share(probe.requests.front().due_ns,
                                              probe.requests.back().due_ns);
        const StepVerdict verdict = judge_step(stats, limits);
        ++probes;
        std::fprintf(stderr,
                     "perfbench: probe %.0f req/s: p99 %.3f ms, backlog %zu, "
                     "late p99 %.3f ms, steal %.3f -> %s\n",
                     rate, stats.p99_ms, stats.backlog_end, stats.late_p99_ms,
                     stats.steal_share,
                     verdict == StepVerdict::kMeets    ? "meets"
                     : verdict == StepVerdict::kMisses ? "misses"
                                                       : "invalid");
        checked.push_back(std::move(probe));
        if (verdict == StepVerdict::kMeets) return true;
        if (verdict == StepVerdict::kMisses && ++misses == 2) return false;
        if (verdict == StepVerdict::kInvalid) {
          ++invalid;
          if (!least_disturbed || stats.steal_share < least_disturbed->steal_share)
            least_disturbed = stats;
        }
        if (static_cast<double>(now_ns() - timed_start) * 1e-9 >= 4.0 * options.seconds)
          break;
      }
      if (misses > 0 || !least_disturbed) return false;
      least_disturbed->late_p99_ms = 0.0;
      least_disturbed->steal_share = 0.0;
      return judge_step(*least_disturbed, limits) == StepVerdict::kMeets;
    };
    // The knee moves with the requests each probe happens to draw and with
    // the machine, so the search runs kSearches times and the median counts.
    std::vector<double> found;
    for (int search = 0; search < kSearches; ++search) {
      const int best = highest_passing_rung(ladder, probe_rung);
      found.push_back(best >= 0 ? ladder[static_cast<std::size_t>(best)] : 0.0);
    }

    result.info["max_rate_rps"] = median(found);
    result.info["ladder_probes"] = static_cast<double>(probes);
    result.info["ladder_invalid"] = static_cast<double>(invalid);
  }

  if (options.trace) {
    const DaemonStats before = daemon_stats(*client);
    const WindowedLatency untraced = measure_fixed_rate(*client, low_requests, config.low_rate);
    tracer.set_enabled(true);
    const WindowedLatency traced = measure_fixed_rate(*client, low_requests, config.low_rate);
    const WindowedLatency high_step =
        measure_fixed_rate(*client, high_requests, config.high_rate, 50);
    const StepRecord& high = high_step.step;
    for (const WindowedLatency* step : {&untraced, &traced, &high_step})
      checked.push_back(step->step);
    // The client times requests itself; file them as spans after the fact.
    for (const StepRecord* step : {&traced.step, &high})
      for (const RequestRecord& r : step->requests)
        if (r.done_ns != 0) tracer.add("client.request", r.due_ns, r.done_ns, 0, tracer.next_op());
    tracer.set_enabled(false);
    const DaemonStats after = daemon_stats(*client);

    std::vector<double> server, outside;
    for (const RequestRecord& r : high.requests) {
      if (r.done_ns == 0) continue;
      server.push_back(r.elapsed_ms);
      outside.push_back(ms(r.done_ns - r.due_ns) - r.elapsed_ms);
    }
    const TailSummary server_summary = summarize(server);
    const TailSummary outside_summary = summarize(outside);
    std::vector<double> ping = high.ping_rtt_us;
    const TailSummary ping_summary = summarize(ping);
    result.set("serve.server_ms.p50", server_summary.p50, "ms");
    result.set("serve.server_ms.p99", server_summary.p99, "ms");
    result.set("serve.outside_ms.p50", outside_summary.p50, "ms");
    result.set("serve.outside_ms.p99", outside_summary.p99, "ms");
    result.set("transport.ping_rtt_us.p50", ping_summary.p50, "us");
    result.info["ping_samples"] = static_cast<double>(ping_summary.count);
    const double lookups = (after.hits - before.hits) + (after.misses - before.misses);
    result.set("cache.hit_ratio", lookups > 0 ? (after.hits - before.hits) / lookups : 0.0,
               "share");
    result.set("cache.hits", after.hits - before.hits, "count");
    result.set("cache.misses", after.misses - before.misses, "count");
    result.set("cache.evictions", after.evictions - before.evictions, "count");
    result.set("admission.peak_depth", after.peak_depth, "count");
    result.set("admission.shed", after.shed - before.shed, "count");
    result.set("gen.late_ms.p99", std::max(late_p99_ms(traced.step), late_p99_ms(high)), "ms");
    result.set("trace.overhead_ratio", traced.figures.p50 / untraced.figures.p50, "ratio");
  }

  // Outputs: every response's result payload against the single-thread
  // direct path, byte for byte (through its digest and length).
  const std::vector<std::string> expected = expected_results(schedule.keys());
  std::vector<std::uint64_t> expected_hash;
  for (const std::string& json : expected)
    expected_hash.push_back(payload_hash(json.data(), json.size()));
  for (const StepRecord& step : checked) {
    for (const RequestRecord& r : step.requests) {
      const bool answered = r.done_ns != 0;
      const bool identical = answered && r.ok && r.result_size == expected[r.key].size() &&
                             r.result_hash == expected_hash[r.key];
      result.check(identical, !answered ? "unanswered request"
                              : !r.ok   ? "error response"
                                        : "result differs from the direct session");
    }
  }

  if (options.trace) {
    tracer.set_enabled(true);
    const std::vector<Planned> sample(low_requests.begin(),
                                      low_requests.begin() +
                                          std::min<std::size_t>(low_requests.size(), 1000));
    const std::int64_t synth_start = now_ns();
    for (const std::string& name : circuits()) (void)ndet::resolve_circuit(name);
    result.set("fsm.synth_s", static_cast<double>(now_ns() - synth_start) * 1e-9, "s");
    const ReplayOutcome outcome =
        replay(config, warm, sample, expected_hash, tracer);
    tracer.set_enabled(false);
    result.check(outcome.mismatches == 0, "replayed result differs from the direct session");
    auto self = [&](const char* name) {
      const auto it = outcome.self_s.find(name);
      return it == outcome.self_s.end() ? 0.0 : it->second;
    };
    const double per_request_us = 1e6 / static_cast<double>(std::max<std::size_t>(1, outcome.requests));
    result.set("serve.parse_us", self("serve.parse") * per_request_us, "us");
    result.set("serve.lease_us", self("serve.lease") * per_request_us, "us");
    result.set("serve.compute_us",
               (self("sim.db_build") + self("core.worst_case") +
                self("core.procedure1_def1") + self("core.partition")) *
                   per_request_us,
               "us");
    result.set("serve.serialize_us", self("serve.serialize") * per_request_us, "us");
    result.set("serve.cache_update_us", self("serve.cache_update") * per_request_us, "us");
    std::map<std::string, double> layer_self = outcome.self_s;
    layer_self["session"] = self("serve.request");
    set_layer_metrics(result, layer_self, outcome.counts);
    result.info["replayed_requests"] = static_cast<double>(outcome.requests);
    tracer.write_chrome_trace(options.trace_path);
  }

  client.reset();
  bool clean = false;
  const double rss_mb = daemon->stop(&clean);
  result.check(clean, "ndetd did not drain cleanly");
  if (!options.trace) result.set("peak_rss_mb", rss_mb, "MB");
  return result;
}

}  // namespace perfbench
