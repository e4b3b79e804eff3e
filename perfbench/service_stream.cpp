// service-stream — one closed-loop client driving the prediction service.
//
// A 1,000,000-entry, 64-shard ShardedCatalog (400k datasets over 8
// repositories, 12 compute sites) with three registered apps. A single
// loop mixes query_batch batches of seeded mixed queries (throughput),
// single query() calls between batches (latency), a register_replicas
// publish of fresh replicas every few batches and, less often, a new
// repository site and link, whose topology version bump forces every app's
// ProfileCache entry to recompile. The client waits for each answer before
// sending the next request, as a scheduler placing jobs does.
//
// Why this workload: the service's evaluate phase does nearly all the
// work, and no kernel or storage code runs. The writes beside the reads
// make a read-path gain that costs publishes or recompiles show.
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/hetero.h"
#include "core/ipc_probe.h"
#include "core/predictor.h"
#include "harness.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/selection_service.h"
#include "service/sharded_catalog.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "util/rng.h"

namespace fgp::perfbench {
namespace {

constexpr std::size_t kDatasets = 400000;  // x 2.5 replicas = 1,000,000
constexpr std::size_t kShards = 64;
constexpr int kRepositories = 8;
constexpr int kSites = 12;
constexpr std::size_t kBatch = 256;
constexpr std::size_t kSinglesPerBatch = 16;
constexpr std::size_t kPublishEvery = 4;     // batches
constexpr std::size_t kReplicasPerPublish = 4;
constexpr std::size_t kBumpEvery = 64;       // batches
constexpr std::size_t kQueryRing = 8192;
constexpr std::size_t kGateSample = 1024;
const char* const kApps[] = {"em", "kmeans", "knn"};

std::string dataset_name(std::size_t i) { return "ds-" + std::to_string(i); }
std::string repo_name(int r) { return "repo-" + std::to_string(r); }
std::string site_name(int c) { return "hpc-" + std::to_string(c); }

std::unique_ptr<service::ShardedCatalog> build_catalog(std::uint64_t seed) {
  util::Rng rng(seed);
  auto catalog = std::make_unique<service::ShardedCatalog>(kShards);
  const auto pentium = sim::cluster_pentium_myrinet();
  const auto opteron = sim::cluster_opteron_infiniband();
  for (int r = 0; r < kRepositories; ++r)
    catalog->register_repository_site({repo_name(r), pentium, 8});
  for (int c = 0; c < kSites; ++c)
    catalog->register_compute_site(
        {site_name(c), c % 2 == 0 ? pentium : opteron, 16});
  // A sparse mesh: a quarter of the repository/site pairs stay unreachable.
  const std::uint64_t hole = rng.next_below(4);
  for (int r = 0; r < kRepositories; ++r)
    for (int c = 0; c < kSites; ++c)
      if (static_cast<std::uint64_t>(r + c) % 4 != hole)
        catalog->register_link(
            repo_name(r), site_name(c),
            sim::wan_mbps(10.0 + 5.0 * static_cast<double>(rng.next_below(9))));

  std::vector<grid::Replica> replicas;
  replicas.reserve(kDatasets * 5 / 2);
  for (std::size_t d = 0; d < kDatasets; ++d) {
    const std::size_t first = rng.next_below(kRepositories);
    for (std::size_t r = 0; r <= d % 4; ++r)  // 1-4 replicas, mean 2.5
      replicas.push_back(
          {dataset_name(d),
           repo_name(static_cast<int>((first + 3 * r) % kRepositories)),
           1 << rng.next_below(3)});
  }
  catalog->register_replicas(std::move(replicas));
  return catalog;
}

// Profiles of the right shape for the service; the stream measures
// selection, not model accuracy.
core::Profile profile(const std::string& app, double t_compute) {
  core::Profile p;
  p.app = app;
  p.config.data_nodes = 2;
  p.config.compute_nodes = 4;
  p.config.dataset_bytes = 350e6;
  p.config.bandwidth_Bps = 1e7;
  p.config.data_cluster = "pentium-myrinet";
  p.config.compute_cluster = "pentium-myrinet";
  p.t_disk = 30.0;
  p.t_network = 60.0;
  p.t_compute = t_compute;
  p.t_ro = 5.0;
  p.t_g = 3.0;
  p.object_bytes = 64e3;
  p.passes = 5;
  return p;
}

struct AppSpec {
  core::Profile profile;
  core::PredictorOptions options;
};

std::vector<AppSpec> app_specs(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5eedULL);
  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.ipc = core::measure_ipc(sim::cluster_pentium_myrinet());
  std::vector<AppSpec> specs;
  for (const char* app : kApps) {
    auto o = opts;
    if (std::string(app) == "knn")
      o.classes.ro = core::RoSizeClass::LinearWithData;
    specs.push_back({profile(app, rng.uniform(60.0, 160.0)), o});
  }
  return specs;
}

const std::map<std::string, core::ScalingFactors> kScalers = {
    {"opteron-infiniband", core::ScalingFactors{0.8, 0.9, 0.3}}};

void register_apps(service::SelectionService& svc,
                   const std::vector<AppSpec>& specs) {
  for (const auto& s : specs) svc.register_app(s.profile, s.options, kScalers);
}

std::vector<service::SelectionQuery> make_queries(util::Rng& rng,
                                                  std::size_t n) {
  std::vector<service::SelectionQuery> out(n);
  for (auto& q : out) {
    q.app = kApps[rng.next_below(3)];
    q.dataset = dataset_name(rng.next_below(kDatasets));
    q.dataset_bytes = rng.uniform(100e6, 4e9);
    q.top_k = 1 + static_cast<int>(rng.next_below(8));
  }
  return out;
}

bool same_result(const service::SelectionResult& a,
                 const service::SelectionResult& b) {
  if (a.error != b.error ||
      a.candidates_considered != b.candidates_considered ||
      a.ranked.size() != b.ranked.size())
    return false;
  for (std::size_t j = 0; j < a.ranked.size(); ++j) {
    const auto& x = a.ranked[j];
    const auto& y = b.ranked[j];
    if (x.predicted.disk != y.predicted.disk ||
        x.predicted.network != y.predicted.network ||
        x.predicted.compute != y.predicted.compute ||
        x.candidate.compute_site != y.candidate.compute_site ||
        x.candidate.compute_nodes != y.candidate.compute_nodes ||
        x.candidate.replica.repository != y.candidate.replica.repository ||
        x.candidate.replica.storage_nodes != y.candidate.replica.storage_nodes)
      return false;
  }
  return true;
}

// Host spans of one traced batch, summed by name.
struct BatchSpans {
  double prepare_s = 0.0;
  double shard_load_s = 0.0;
  double evaluate_s = 0.0;
  double query_s = 0.0;  ///< per-query evaluate spans, summed
};

BatchSpans read_spans(const obs::TraceRecorder& trace) {
  BatchSpans s;
  const auto doc = obs::json::parse(trace.to_chrome_json());
  const auto* events = doc.find("traceEvents");
  if (events == nullptr) throw std::runtime_error("trace without events");
  for (const auto& e : events->as_array()) {
    const auto* ph = e.find("ph");
    const auto* cat = e.find("cat");
    if (ph == nullptr || cat == nullptr || ph->as_string() != "X") continue;
    const double dur = e.find("dur")->as_number() * 1e-6;
    const std::string& name = e.find("name")->as_string();
    if (cat->as_string() == "service/query") {
      s.query_s += dur;
    } else if (cat->as_string() == "service") {
      if (name == "prepare") s.prepare_s += dur;
      if (name == "shard-load") s.shard_load_s += dur;
      if (name == "evaluate") s.evaluate_s += dur;
    }
  }
  return s;
}

// ns per Predictor / HeteroPredictor call with the registered profiles.
double predict_ns(const std::vector<AppSpec>& specs, std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<core::Predictor> same;
  std::vector<core::HeteroPredictor> hetero;
  for (const auto& s : specs) {
    same.emplace_back(s.profile, s.options);
    hetero.emplace_back(core::Predictor(s.profile, s.options),
                        kScalers.begin()->second);
  }
  std::vector<core::ProfileConfig> targets(256, specs.front().profile.config);
  for (auto& t : targets) {
    t.data_nodes = 1 << rng.next_below(3);
    t.compute_nodes = t.data_nodes << rng.next_below(3);
    t.dataset_bytes = rng.uniform(100e6, 4e9);
    t.bandwidth_Bps = rng.uniform(1e6, 1e7);
  }
  std::vector<double> samples;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t calls = 0;
    const util::Stopwatch t;
    for (int round = 0; round < 100; ++round)
      for (const auto& target : targets)
        for (std::size_t a = 0; a < specs.size(); ++a) {
          sink += same[a].predict(target).total();
          sink += hetero[a].predict(target).total();
          calls += 2;
        }
    samples.push_back(t.seconds() * 1e9 / static_cast<double>(calls));
  }
  if (!(sink > 0.0)) throw std::runtime_error("predictions summed to zero");
  return median(samples);
}

}  // namespace

void run_service_stream(const Options& opt, Report& report) {
  const auto pool = make_pool();
  record_host(report, pool.get());
  const auto specs = app_specs(opt.seed);
  util::Rng rng(opt.seed ^ 0x9e3779b97f4a7c15ULL);
  const auto ring = make_queries(rng, kQueryRing);
  const auto singles = make_queries(rng, kQueryRing);

  // Set-up: catalog build, app registration and a warm-up batch that
  // compiles every app's predictors, repeated for a steady median.
  std::vector<double> setup_s;
  std::unique_ptr<service::ShardedCatalog> catalog;
  std::unique_ptr<service::SelectionService> svc;
  for (int rep = 0; rep < 3; ++rep) {
    svc.reset();
    catalog.reset();
    const util::Stopwatch t;
    catalog = build_catalog(opt.seed);
    svc = std::make_unique<service::SelectionService>(catalog.get(),
                                                      pool.get());
    register_apps(*svc, specs);
    svc->query_batch({ring.data(), kBatch});
    setup_s.push_back(t.seconds());
  }
  report.info("replica_entries", std::to_string(catalog->replica_count()));
  report.info("shards", std::to_string(catalog->shard_count()));

  obs::Registry metrics;
  obs::TraceRecorder trace;
  trace.enable_host(true);
  service::SelectionService traced_svc(catalog.get(), pool.get(), &metrics);
  register_apps(traced_svc, specs);
  traced_svc.set_observers({&trace, nullptr, nullptr});
  traced_svc.query_batch({ring.data(), kBatch});
  trace.clear();

  std::vector<double> batch_ms, prepare_ms, shard_load_ms, evaluate_ms,
      single_us, publish_ms, after_bump_us;
  // Throughput per ring cycle, untraced [0] and traced [1]: every window
  // answers the same queries, so windows differ only in how fast they ran.
  std::vector<double> qps[2];
  double window_queries[2] = {0.0, 0.0}, window_seconds[2] = {0.0, 0.0};
  double traced_queries = 0.0;
  double candidates = 0.0, query_cpu_s = 0.0;
  std::size_t batches = 0, failed = 0, attempted = 0, published = 0,
              bumps = 0;
  std::string fresh_dataset;  // the latest published dataset, queried next
  ParallelismMeter meter;
  const auto check = [&](const service::SelectionResult& r) {
    ++attempted;
    if (!r.ok()) ++failed;
  };
  std::size_t single_cursor = 0;
  const auto single = [&](const service::SelectionService& s,
                          const std::string& dataset) {
    service::SelectionQuery q = singles[single_cursor];
    single_cursor = (single_cursor + 1) % kQueryRing;
    if (!dataset.empty()) q.dataset = dataset;
    const util::Stopwatch qt;
    const auto r = s.query(q);
    const double us = 1e6 * qt.seconds();
    trace.clear();
    check(r);
    single_us.push_back(us);
    return us;
  };

  const util::Stopwatch region;
  std::size_t cursor = 0;
  for (std::size_t b = 0; region.seconds() < opt.seconds || b < 2 * kBumpEvery;
       ++b) {
    const bool traced = opt.trace && b % 2 == 1;
    const service::SelectionService& s = traced ? traced_svc : *svc;

    // Throughput: one batch.
    const std::span<const service::SelectionQuery> batch{ring.data() + cursor,
                                                         kBatch};
    cursor = (cursor + kBatch) % kQueryRing;
    if (traced) meter.start();
    const util::Stopwatch bt;
    const auto results = s.query_batch(batch);
    const double secs = bt.seconds();
    if (traced) meter.stop();
    for (const auto& r : results) check(r);
    if (traced) {
      traced_queries += kBatch;
      batch_ms.push_back(1e3 * secs);
      const BatchSpans spans = read_spans(trace);
      trace.clear();
      prepare_ms.push_back(1e3 * spans.prepare_s);
      shard_load_ms.push_back(1e3 * spans.shard_load_s);
      evaluate_ms.push_back(1e3 * spans.evaluate_s);
      query_cpu_s += spans.query_s;
      for (const auto& r : results)
        candidates += static_cast<double>(r.candidates_considered);
    }
    window_queries[traced] += kBatch;
    window_seconds[traced] += secs;
    if (window_queries[traced] >= kQueryRing) {
      qps[traced].push_back(window_queries[traced] / window_seconds[traced]);
      window_queries[traced] = window_seconds[traced] = 0.0;
    }

    // Latency: single queries; the first after a publish reads the fresh
    // replicas back.
    for (std::size_t k = 0; k < kSinglesPerBatch; ++k)
      single(s, k == 0 ? fresh_dataset : std::string());
    fresh_dataset.clear();

    // Writes: fresh replicas every few batches, a topology bump less often.
    if (b % kPublishEvery == kPublishEvery - 1) {
      std::vector<grid::Replica> fresh;
      for (std::size_t k = 0; k < kReplicasPerPublish; ++k) {
        fresh_dataset = "fresh-" + std::to_string(published++);
        const auto repo = static_cast<int>(rng.next_below(kRepositories));
        fresh.push_back({fresh_dataset, repo_name(repo),
                         1 << rng.next_below(3)});
      }
      const util::Stopwatch pt;
      catalog->register_replicas(std::move(fresh));
      publish_ms.push_back(1e3 * pt.seconds());
    }
    if (b % kBumpEvery == kBumpEvery - 1) {
      const std::string repo = "repo-new-" + std::to_string(bumps);
      catalog->register_repository_site(
          {repo, sim::cluster_pentium_myrinet(), 8});
      catalog->register_link(repo, site_name(static_cast<int>(bumps % kSites)),
                             sim::wan_mbps(25.0));
      ++bumps;
      // The first query against the new topology recompiles its app.
      after_bump_us.push_back(single(s, std::string()));
    }
    ++batches;
  }
  report.attempted(attempted);
  report.failed(failed);
  report.gate(failed == 0, "every query answered ok()");
  report.info("batches", std::to_string(batches));
  report.info("single_queries", std::to_string(single_us.size()));
  report.info("publishes", std::to_string(publish_ms.size()));
  report.info("topology_bumps", std::to_string(bumps));
  const double peak_rss = peak_rss_mb();

  // Correctness: pooled rankings equal serial rankings on a fixed sample.
  {
    service::SelectionService serial(catalog.get(), nullptr);
    register_apps(serial, specs);
    const std::span<const service::SelectionQuery> sample{ring.data(),
                                                          kGateSample};
    const auto want = serial.query_batch(sample);
    const auto got = svc->query_batch(sample);
    bool same = want.size() == got.size();
    for (std::size_t i = 0; same && i < want.size(); ++i)
      same = want[i].ok() && same_result(want[i], got[i]);
    report.gate(same, "pooled rankings equal serial rankings");
  }

  // An op is one query of a query_batch; the request a client waits for
  // is one single query() call. Windows keep at least ten samples beyond
  // each tail percentile.
  const double query_p99_us = windowed_quantile(single_us, 0.99, 1000);
  const double publish_p50_ms = quantile(publish_ms, 0.50);
  const double publish_p90_ms = windowed_quantile(publish_ms, 0.90, 100);
  report.info("queries_per_s", std::to_string(fast_rate(qps[0])));
  report.info("query_p50_us", std::to_string(quantile(single_us, 0.50)));
  report.info("query_p99_us", std::to_string(query_p99_us));
  report.info("publish_p50_ms", std::to_string(publish_p50_ms));
  report.info("publish_p90_ms", std::to_string(publish_p90_ms));
  report_end_to_end(report, {median(setup_s), peak_rss, fast_rate(qps[0]),
                             1e-3 * quantile(single_us, 0.50)});
  if (!opt.trace) return;

  report.layer("core.predict_ns", predict_ns(specs, opt.seed));
  report.layer("util.pool_parallelism", meter.value());
  report.layer("service.batch_ms", median(batch_ms));
  report.layer("service.prepare_ms", median(prepare_ms));
  report.layer("service.shard_load_ms", median(shard_load_ms));
  report.layer("service.evaluate_ms", median(evaluate_ms));
  report.layer("service.candidates_per_query", candidates / traced_queries);
  report.layer("service.ns_per_candidate", 1e9 * query_cpu_s / candidates);
  const double hits = metrics.value("service.cache_hits");
  const double misses = metrics.value("service.cache_misses");
  report.layer("service.profile_cache_hit_rate", hits / (hits + misses));
  report.layer("service.recompile_ms",
               1e-3 * (median(after_bump_us) - quantile(single_us, 0.5)));
  report.layer("service.query_p99_us", query_p99_us);
  report.layer("service.publish_p50_ms", publish_p50_ms);
  report.layer("service.publish_p90_ms", publish_p90_ms);
  const double plain = fast_rate(qps[0]);
  report.layer("obs.trace_overhead_pct",
               100.0 * (plain - fast_rate(qps[1])) / plain);
}

}  // namespace fgp::perfbench
