// Tests for the prediction-as-a-service layer (DESIGN.md §16): sharded
// catalog snapshot semantics, GridCatalog parity, compiled-profile
// caching, batched selection bit-identity across pool sizes, and
// concurrent readers racing snapshot swaps (run under TSan in CI).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/ipc_probe.h"
#include "core/selector.h"
#include "grid/catalog.h"
#include "obs/hdr.h"
#include "obs/metrics.h"
#include "obs/slowlog.h"
#include "obs/trace.h"
#include "obs/validate.h"
#include "service/config.h"
#include "service/selection_service.h"
#include "service/sharded_catalog.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace fgp::service {
namespace {

core::Profile synthetic_profile(const std::string& app,
                                const std::string& cluster) {
  core::Profile p;
  p.app = app;
  p.config.data_nodes = 2;
  p.config.compute_nodes = 4;
  p.config.dataset_bytes = 350e6;
  p.config.bandwidth_Bps = 1e7;
  p.config.data_cluster = cluster;
  p.config.compute_cluster = cluster;
  p.t_disk = 30.0;
  p.t_network = 60.0;
  p.t_compute = 100.0;
  p.t_ro = 5.0;
  p.t_g = 3.0;
  p.object_bytes = 64e3;
  p.passes = 5;
  return p;
}

core::PredictorOptions synthetic_options() {
  core::PredictorOptions opts;
  opts.model = core::PredictionModel::GlobalReduction;
  opts.classes.ro = core::RoSizeClass::Constant;
  opts.classes.global = core::GlobalReductionClass::LinearConstant;
  return opts;
}

/// Registers the same small grid into both catalog implementations.
template <typename Catalog>
void populate(Catalog& cat) {
  const auto pentium = sim::cluster_pentium_myrinet();
  const auto opteron = sim::cluster_opteron_infiniband();
  cat.register_repository_site({"repo-east", pentium, 8});
  cat.register_repository_site({"repo-west", pentium, 4});
  cat.register_compute_site({"hpc-pentium", pentium, 16});
  cat.register_compute_site({"hpc-opteron", opteron, 16});
  cat.register_link("repo-east", "hpc-pentium", sim::wan_mbps(80));
  cat.register_link("repo-east", "hpc-opteron", sim::wan_mbps(20));
  cat.register_link("repo-west", "hpc-pentium", sim::wan_mbps(30));
  cat.register_replica({"em-data", "repo-east", 4});
  cat.register_replica({"em-data", "repo-west", 2});
  cat.register_replica({"points", "repo-west", 1});
}

std::map<std::string, core::ScalingFactors> opteron_scalers() {
  return {{"opteron-infiniband", core::ScalingFactors{0.8, 0.9, 0.3}}};
}

bool same_candidate(const grid::Candidate& a, const grid::Candidate& b) {
  return a.replica.dataset == b.replica.dataset &&
         a.replica.repository == b.replica.repository &&
         a.replica.storage_nodes == b.replica.storage_nodes &&
         a.compute_site == b.compute_site &&
         a.compute_nodes == b.compute_nodes &&
         a.wan.per_link_Bps == b.wan.per_link_Bps;
}

// ---------------------------------------------------------------------------
// ShardedCatalog

TEST(ShardedCatalog, ShardCountBoundsAreEnforced) {
  EXPECT_THROW(ShardedCatalog(0), util::ConfigError);
  EXPECT_THROW(ShardedCatalog(4097), util::ConfigError);
  // Validation must run before the shard vector is sized: a count this
  // large would otherwise die in allocation (bad_alloc), not ConfigError.
  EXPECT_THROW(ShardedCatalog(std::size_t{1} << 60), util::ConfigError);
  EXPECT_NO_THROW(ShardedCatalog(1));
  EXPECT_NO_THROW(ShardedCatalog(4096));
}

TEST(ShardedCatalog, ShardOfIsStableAndInRange) {
  for (std::size_t shards : {1u, 4u, 16u, 4096u}) {
    EXPECT_EQ(shard_of("em-data", shards), shard_of("em-data", shards));
    EXPECT_LT(shard_of("em-data", shards), shards);
  }
}

TEST(ShardedCatalog, ValidationMatchesGridCatalog) {
  ShardedCatalog cat(4);
  populate(cat);
  EXPECT_THROW(cat.register_compute_site(
                   {"hpc-pentium", sim::cluster_ideal(), 4}),
               util::Error);
  EXPECT_THROW(cat.register_replica({"x", "nope", 1}), util::Error);
  EXPECT_THROW(cat.register_replica({"x", "repo-west", 5}), util::Error);
  EXPECT_THROW(cat.register_link("repo-east", "nope", sim::wan_mbps(10)),
               util::Error);
}

TEST(ShardedCatalog, BulkRegisterIsAllOrNothing) {
  ShardedCatalog cat(4);
  populate(cat);
  const std::size_t before = cat.replica_count();
  std::vector<grid::Replica> batch = {{"ok", "repo-east", 2},
                                      {"bad", "repo-west", 99}};
  EXPECT_THROW(cat.register_replicas(std::move(batch)), util::Error);
  EXPECT_EQ(cat.replica_count(), before);
}

TEST(ShardedCatalog, EnumerationMatchesGridCatalogExactly) {
  grid::GridCatalog flat;
  populate(flat);
  for (std::size_t shards : {1u, 3u, 16u}) {
    ShardedCatalog sharded(shards);
    populate(sharded);
    for (const std::string dataset : {"em-data", "points", "unknown"}) {
      const auto expect = flat.enumerate_candidates(dataset);
      const auto got = ShardedCatalog::enumerate_candidates(
          *sharded.topology(), *sharded.shard_for(dataset), dataset);
      ASSERT_EQ(got.size(), expect.size()) << dataset << " @" << shards;
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(same_candidate(got[i], expect[i]))
            << dataset << " candidate " << i;
    }
  }
}

TEST(ShardedCatalog, SnapshotSurvivesLaterPublishes) {
  ShardedCatalog cat(2);
  populate(cat);
  const auto topo = cat.topology();
  const auto shard = cat.shard_for("em-data");
  const std::size_t replicas_before = shard->replicas_of("em-data").size();
  cat.register_compute_site({"late", sim::cluster_ideal(), 8});
  cat.register_replica({"em-data", "repo-east", 2});
  // The held snapshots still describe the pre-publish catalog...
  EXPECT_EQ(topo->find_compute("late"), nullptr);
  EXPECT_EQ(shard->replicas_of("em-data").size(), replicas_before);
  // ...while fresh loads see the updates (and a bumped version).
  EXPECT_NE(cat.topology()->find_compute("late"), nullptr);
  EXPECT_GT(cat.topology()->version, topo->version);
  EXPECT_EQ(cat.shard_for("em-data")->replicas_of("em-data").size(),
            replicas_before + 1);
}

TEST(ShardedCatalog, PublishesKeepRegistrationOrderWithinADataset) {
  constexpr std::size_t kShards = 4;
  const std::size_t home = shard_of("target", kShards);
  // Neighbours hashed into target's shard, named to sort both before and
  // after it, so every publish merges into the middle of the shard.
  std::vector<std::string> datasets = {"target"};
  for (const char* prefix : {"a-", "z-"})
    for (int i = 0, found = 0; found < 3; ++i)
      if (const std::string name = prefix + std::to_string(i);
          shard_of(name, kShards) == home) {
        datasets.push_back(name);
        ++found;
      }

  grid::GridCatalog flat;
  populate(flat);
  ShardedCatalog sharded(kShards);
  populate(sharded);
  util::Rng rng(77);
  for (int publish = 0; publish < 8; ++publish) {
    std::vector<grid::Replica> batch;
    const auto entries = 1 + rng.next_below(5);
    for (std::uint64_t e = 0; e < entries; ++e) {
      const auto& dataset =
          rng.next_below(2) == 0
              ? datasets.front()
              : datasets[1 + rng.next_below(datasets.size() - 1)];
      grid::Replica r{dataset, rng.next_below(2) == 0 ? "repo-east"
                                                      : "repo-west",
                      1 << rng.next_below(3)};
      flat.register_replica(r);
      batch.push_back(std::move(r));
    }
    if (batch.size() == 1) {
      sharded.register_replica(std::move(batch.front()));
    } else {
      sharded.register_replicas(std::move(batch));
    }

    const auto shard = sharded.shard(home);
    EXPECT_TRUE(std::is_sorted(shard->replicas.begin(),
                               shard->replicas.end(),
                               [](const grid::Replica& a,
                                  const grid::Replica& b) {
                                 return a.dataset < b.dataset;
                               }))
        << "publish " << publish;
    for (const auto& dataset : datasets) {
      // GridCatalog keeps one flat vector in registration order.
      const auto expect = flat.replicas_of(dataset);
      const auto replicas = shard->replicas_of(dataset);
      ASSERT_EQ(replicas.size(), expect.size()) << dataset << " @" << publish;
      for (std::size_t i = 0; i < replicas.size(); ++i) {
        EXPECT_EQ(replicas[i].repository, expect[i].repository)
            << dataset << " replica " << i << " @" << publish;
        EXPECT_EQ(replicas[i].storage_nodes, expect[i].storage_nodes)
            << dataset << " replica " << i << " @" << publish;
      }
      const auto got = ShardedCatalog::enumerate_candidates(
          *sharded.topology(), *shard, dataset);
      const auto want = flat.enumerate_candidates(dataset);
      ASSERT_EQ(got.size(), want.size()) << dataset << " @" << publish;
      for (std::size_t i = 0; i < got.size(); ++i)
        EXPECT_TRUE(same_candidate(got[i], want[i]))
            << dataset << " candidate " << i << " @" << publish;
    }
  }
  // Not vacuous: target gathered replicas over several publishes and
  // shares its shard with the neighbours.
  EXPECT_GE(flat.replicas_of("target").size(), 3u);
  EXPECT_GT(sharded.shard(home)->replicas.size(),
            flat.replicas_of("target").size());
}

// ---------------------------------------------------------------------------
// ProfileCache

TEST(ProfileCache, ResolveCompilesOncePerTopologyVersion) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());
  unsigned long long hits = 0;
  unsigned long long misses = 0;
  const auto topo = cat.topology();
  const auto first = cache.resolve("em", topo, &hits, &misses);
  ASSERT_NE(first, nullptr);
  const auto second = cache.resolve("em", topo, &hits, &misses);
  EXPECT_EQ(first.get(), second.get());  // compiled state reused
  EXPECT_EQ(hits, 1u);
  EXPECT_EQ(misses, 1u);

  // A topology publish invalidates the compiled state.
  cat.register_compute_site({"late", sim::cluster_opteron_infiniband(), 4});
  const auto third = cache.resolve("em", cat.topology(), &hits, &misses);
  ASSERT_NE(third, nullptr);
  EXPECT_NE(first.get(), third.get());
  EXPECT_EQ(misses, 2u);
  EXPECT_EQ(third->site_predictors.size(), 3u);
  // The link table covers every (repository, site) pair of its topology.
  const Topology& t = *third->topology;
  ASSERT_EQ(third->links.size(), 2u * 3u);
  for (std::size_t r = 0; r < 2; ++r)
    for (std::size_t s = 0; s < 3; ++s)
      EXPECT_EQ(third->links[r * 3 + s],
                t.find_link(t.repository_sites[r].id, t.compute_sites[s].id))
          << r << "," << s;
  EXPECT_NE(third->links[0], nullptr);  // repo-east -> hpc-pentium
  EXPECT_EQ(third->links[5], nullptr);  // repo-west -> late
}

TEST(ProfileCache, UnknownAppResolvesNull) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  EXPECT_EQ(cache.resolve("nope", cat.topology()), nullptr);
}

TEST(ProfileCache, SitePredictorsMirrorSelectorRules) {
  ShardedCatalog cat(2);
  populate(cat);
  ProfileCache cache;
  // No scalers: the opteron site must be unpredictable, the pentium site
  // predictable without hetero scaling.
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options());
  const auto compiled = cache.resolve("em", cat.topology());
  ASSERT_NE(compiled, nullptr);
  ASSERT_EQ(compiled->site_predictors.size(), 2u);
  EXPECT_TRUE(compiled->site_predictors[0].predictable());
  EXPECT_FALSE(compiled->site_predictors[0].uses_hetero_scaling());
  EXPECT_FALSE(compiled->site_predictors[1].predictable());
}

// ---------------------------------------------------------------------------
// SelectionService

SelectionQuery em_query(double bytes = 700e6, int top_k = 4) {
  SelectionQuery q;
  q.app = "em";
  q.dataset = "em-data";
  q.dataset_bytes = bytes;
  q.top_k = top_k;
  return q;
}

TEST(SelectionService, AgreesWithResourceSelector) {
  grid::GridCatalog flat;
  populate(flat);
  ShardedCatalog sharded(4);
  populate(sharded);

  const auto profile = synthetic_profile("em", "pentium-myrinet");
  // Both engines share one contract: options.ipc is the profile
  // cluster's interconnect, and it seeds the hetero base predictor.
  auto opts = synthetic_options();
  opts.ipc = core::measure_ipc(sim::cluster_pentium_myrinet());
  SelectionService svc(&sharded);
  svc.register_app(profile, opts, opteron_scalers());
  const core::ResourceSelector selector(&flat, profile, opts,
                                        opteron_scalers());

  const auto expect = selector.rank("em-data", 700e6);
  const auto got = svc.query(em_query(700e6, 1 << 20));
  ASSERT_TRUE(got.ok()) << got.error;
  ASSERT_EQ(got.ranked.size(), expect.size());
  for (std::size_t i = 0; i < got.ranked.size(); ++i) {
    EXPECT_TRUE(same_candidate(got.ranked[i].candidate,
                               expect[i].candidate))
        << "rank " << i;
    EXPECT_EQ(got.ranked[i].predicted.total(), expect[i].predicted.total());
    EXPECT_EQ(got.ranked[i].predicted.disk, expect[i].predicted.disk);
    EXPECT_EQ(got.ranked[i].predicted.network, expect[i].predicted.network);
    EXPECT_EQ(got.ranked[i].predicted.compute, expect[i].predicted.compute);
    EXPECT_EQ(got.ranked[i].used_hetero_scaling,
              expect[i].used_hetero_scaling);
  }
}

TEST(SelectionService, BadQueriesFailAloneWithoutThrowing) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());

  std::vector<SelectionQuery> batch;
  batch.push_back(em_query());                       // ok
  batch.push_back({});                               // empty app/dataset
  batch.push_back({"nope", "em-data", 1e6, 1});      // unknown app
  batch.push_back({"em", "missing", 1e6, 1});        // unknown dataset
  batch.push_back({"em", "em-data", -1.0, 1});       // bad bytes
  batch.push_back({"em", "em-data", 1e6, 0});        // bad top_k
  const auto results = svc.query_batch(batch);
  ASSERT_EQ(results.size(), batch.size());
  EXPECT_TRUE(results[0].ok());
  for (std::size_t i = 1; i < results.size(); ++i)
    EXPECT_FALSE(results[i].ok()) << i;
  EXPECT_THROW(results[1].best(), util::Error);
}

TEST(SelectionService, TopKBoundsTheRanking) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());
  const auto full = svc.query(em_query(700e6, 1 << 20));
  const auto top2 = svc.query(em_query(700e6, 2));
  ASSERT_TRUE(full.ok());
  ASSERT_TRUE(top2.ok());
  ASSERT_GE(full.ranked.size(), 2u);
  ASSERT_EQ(top2.ranked.size(), 2u);
  for (std::size_t i = 0; i < 2; ++i) {
    EXPECT_TRUE(same_candidate(top2.ranked[i].candidate,
                               full.ranked[i].candidate));
  }
  EXPECT_EQ(full.candidates_considered, top2.candidates_considered);
}

/// Builds a larger catalog + mixed query stream for the determinism and
/// concurrency tests.
struct BigFixture {
  ShardedCatalog catalog{16};
  std::vector<SelectionQuery> queries;

  BigFixture() {
    const auto pentium = sim::cluster_pentium_myrinet();
    const auto opteron = sim::cluster_opteron_infiniband();
    for (int r = 0; r < 4; ++r)
      catalog.register_repository_site(
          {"repo-" + std::to_string(r), pentium, 8});
    for (int c = 0; c < 6; ++c)
      catalog.register_compute_site(
          {"hpc-" + std::to_string(c), c % 2 == 0 ? pentium : opteron, 16});
    for (int r = 0; r < 4; ++r)
      for (int c = 0; c < 6; ++c)
        if ((r + c) % 3 != 0)  // leave some pairs unreachable
          catalog.register_link("repo-" + std::to_string(r),
                                "hpc-" + std::to_string(c),
                                sim::wan_mbps(20.0 + 10.0 * (r + c)));
    std::vector<grid::Replica> replicas;
    for (int d = 0; d < 400; ++d)
      for (int r = 0; r < 1 + d % 3; ++r)
        replicas.push_back({"ds-" + std::to_string(d),
                            "repo-" + std::to_string((d + r) % 4),
                            1 << (d % 3)});
    catalog.register_replicas(std::move(replicas));

    util::Rng rng(2026);
    for (int i = 0; i < 96; ++i) {
      SelectionQuery q;
      q.app = i % 3 == 0 ? "em" : "kmeans";
      q.dataset = "ds-" + std::to_string(rng.next_below(400));
      q.dataset_bytes = rng.uniform(100e6, 4e9);
      q.top_k = 1 + static_cast<int>(rng.next_below(8));
      queries.push_back(std::move(q));
    }
  }

  void register_apps(SelectionService& svc) const {
    auto em_opts = synthetic_options();
    em_opts.classes.ro = core::RoSizeClass::LinearWithData;
    svc.register_app(synthetic_profile("em", "pentium-myrinet"), em_opts,
                     opteron_scalers());
    svc.register_app(synthetic_profile("kmeans", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());
  }
};

void expect_identical(const std::vector<SelectionResult>& a,
                      const std::vector<SelectionResult>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].error, b[i].error) << i;
    EXPECT_EQ(a[i].candidates_considered, b[i].candidates_considered) << i;
    ASSERT_EQ(a[i].ranked.size(), b[i].ranked.size()) << i;
    for (std::size_t j = 0; j < a[i].ranked.size(); ++j) {
      EXPECT_TRUE(same_candidate(a[i].ranked[j].candidate,
                                 b[i].ranked[j].candidate))
          << i << "/" << j;
      // Bit-identical predictions, not merely close ones.
      EXPECT_EQ(a[i].ranked[j].predicted.disk, b[i].ranked[j].predicted.disk);
      EXPECT_EQ(a[i].ranked[j].predicted.network,
                b[i].ranked[j].predicted.network);
      EXPECT_EQ(a[i].ranked[j].predicted.compute,
                b[i].ranked[j].predicted.compute);
    }
  }
}

TEST(SelectionService, BatchBitIdenticalSerialVsPools128) {
  const BigFixture fx;
  SelectionService serial(&fx.catalog);
  fx.register_apps(serial);
  const auto reference = serial.query_batch(fx.queries);

  for (const std::size_t threads : {1u, 2u, 8u}) {
    util::ThreadPool pool(threads);
    SelectionService pooled(&fx.catalog, &pool);
    fx.register_apps(pooled);
    expect_identical(pooled.query_batch(fx.queries), reference);
  }
}

TEST(SelectionService, DeterministicCountersAreByteIdenticalAcrossPools) {
  const BigFixture fx;
  std::vector<std::string> snapshots;
  for (const std::size_t threads : {0u, 2u, 8u}) {
    obs::Registry metrics;
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    SelectionService svc(&fx.catalog, pool.get(), &metrics);
    fx.register_apps(svc);
    svc.query_batch(fx.queries);
    svc.query_batch(fx.queries);  // second batch: cache hits this time
    EXPECT_EQ(metrics.value("service.queries"),
              2.0 * static_cast<double>(fx.queries.size()));
    EXPECT_GT(metrics.value("service.cache_hits"), 0.0);
    EXPECT_EQ(metrics.value("service.cache_misses"), 2.0);  // em + kmeans
    EXPECT_GT(metrics.value("service.shard_fanout"), 0.0);
    snapshots.push_back(metrics.to_json(false));
  }
  EXPECT_EQ(snapshots[0], snapshots[1]);
  EXPECT_EQ(snapshots[0], snapshots[2]);
}

TEST(SelectionService, BatchLatencyHistogramLandsInHostDomain) {
  const BigFixture fx;
  obs::Registry metrics;
  SelectionService svc(&fx.catalog, nullptr, &metrics);
  fx.register_apps(svc);
  svc.query_batch(fx.queries);
  const std::string with_host = metrics.to_json(true);
  const std::string without = metrics.to_json(false);
  EXPECT_NE(with_host.find("service.batch_seconds"), std::string::npos);
  EXPECT_EQ(without.find("service.batch_seconds"), std::string::npos);
}

TEST(SelectionService, DeterministicCountersArePinnedOverAMixedStream) {
  // Repeated apps, an unknown app and invalid queries in one batch, run
  // three times with a topology bump before the second run. A repeat of
  // an app counts one cache hit, an unknown app or an invalid query
  // counts nothing, and the bump costs each app one miss.
  BigFixture fx;
  std::vector<SelectionQuery> batch(fx.queries.begin(),
                                    fx.queries.begin() + 32);
  for (std::size_t i = 0; i < batch.size(); ++i) {
    if (i % 8 == 3) batch[i].app = "ghost";
    if (i % 8 == 5) batch[i].dataset_bytes = 0.0;
    if (i % 8 == 6) batch[i].top_k = 0;
    if (i % 16 == 7) batch[i].dataset.clear();
  }
  struct Counters {
    double hits;
    double misses;
    double fanout;
  };
  // Cumulative after each batch: 18 valid queries on known apps per
  // batch, over 11 shards.
  const Counters pinned[] = {{16.0, 2.0, 11.0},
                             {32.0, 4.0, 22.0},
                             {50.0, 4.0, 33.0}};
  for (const std::size_t threads : {0u, 8u}) {
    BigFixture run;
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    obs::Registry metrics;
    SelectionService svc(&run.catalog, pool.get(), &metrics);
    run.register_apps(svc);
    for (std::size_t b = 0; b < 3; ++b) {
      if (b == 1)
        run.catalog.register_compute_site(
            {"bump", sim::cluster_pentium_myrinet(), 4});
      svc.query_batch(batch);
      const std::string where =
          "pool " + std::to_string(threads) + " batch " + std::to_string(b);
      EXPECT_EQ(metrics.value("service.queries"),
                static_cast<double>((b + 1) * batch.size()))
          << where;
      EXPECT_EQ(metrics.value("service.cache_hits"), pinned[b].hits) << where;
      EXPECT_EQ(metrics.value("service.cache_misses"), pinned[b].misses)
          << where;
      EXPECT_EQ(metrics.value("service.shard_fanout"), pinned[b].fanout)
          << where;
    }
  }
}

// ---------------------------------------------------------------------------
// The per-shard dataset index against a linear scan of the shard.

/// `name`'s lookup in `shard` must return exactly the entries a linear scan
/// of the shard finds — the same objects, in the same order.
void expect_lookup_matches_scan(const ReplicaShard& shard,
                                const std::string& name,
                                const std::string& where) {
  std::vector<const grid::Replica*> want;
  for (const auto& r : shard.replicas)
    if (r.dataset == name) want.push_back(&r);
  const auto got = shard.replicas_of(name);
  ASSERT_EQ(got.size(), want.size()) << "'" << name << "' " << where;
  for (std::size_t i = 0; i < got.size(); ++i)
    EXPECT_EQ(&got[i], want[i]) << "'" << name << "' #" << i << " " << where;
}

/// `names`, absent names, and per name every probe that differs from it
/// only in the last character or by one appended character.
std::vector<std::string> with_near_misses(
    const std::vector<std::string>& names) {
  std::vector<std::string> out = {"", "absent", "ds-", "ds-99999"};
  for (const auto& name : names) {
    out.push_back(name);
    out.push_back(name + "0");
    for (const char c : {'0', '9', 'a', 'z', '~'}) {
      std::string probe = name;
      probe.back() = c;
      out.push_back(std::move(probe));
    }
  }
  return out;
}

/// The index sizing contract: a power-of-two table at load <= 0.75
/// holding one slot per distinct dataset (no table before the first
/// publish).
void expect_index_shape(const ReplicaShard& shard, const std::string& where) {
  if (shard.replicas.empty()) {
    EXPECT_TRUE(shard.index.empty()) << where;
    return;
  }
  std::size_t runs = 0;
  for (std::size_t i = 0; i < shard.replicas.size(); ++i)
    if (i == 0 || shard.replicas[i].dataset != shard.replicas[i - 1].dataset)
      ++runs;
  EXPECT_EQ(shard.runs, runs) << where;
  const std::size_t occupied = static_cast<std::size_t>(std::count_if(
      shard.index.begin(), shard.index.end(),
      [](std::uint64_t slot) { return slot != 0; }));
  EXPECT_EQ(occupied, runs) << where;
  EXPECT_TRUE(std::has_single_bit(shard.index.size())) << where;
  EXPECT_LE(4 * runs, 3 * shard.index.size()) << where;
}

TEST(ShardedCatalog, ReplicaLookupMatchesALinearScan) {
  const BigFixture fx;
  std::vector<std::string> names;
  for (int d = 0; d < 400; ++d) names.push_back("ds-" + std::to_string(d));
  const auto probes = with_near_misses(names);
  for (std::size_t s = 0; s < fx.catalog.shard_count(); ++s) {
    const auto shard = fx.catalog.shard(s);
    const std::string where = "shard " + std::to_string(s);
    expect_index_shape(*shard, where);
    for (const auto& name : probes)
      expect_lookup_matches_scan(*shard, name, where);
  }
}

TEST(ShardedCatalog, ReplicaLookupStaysExactAcrossInterleavedPublishes) {
  // Mostly single-entry publishes, with a larger batch every 25th, that
  // interleave new datasets (named to sort anywhere in their shard) with
  // appends to existing runs, and add enough datasets to outgrow each
  // shard's first index table several times.
  constexpr std::size_t kShards = 2;
  ShardedCatalog cat(kShards);
  populate(cat);
  // Registration order of each dataset's repositories.
  std::map<std::string, std::vector<std::string>> model = {
      {"em-data", {"repo-east", "repo-west"}}, {"points", {"repo-west"}}};
  std::size_t first_tables = 0;
  for (std::size_t s = 0; s < kShards; ++s)
    first_tables += cat.shard(s)->index.size();

  util::Rng rng(404);
  std::size_t fresh = 0;
  for (int publish = 0; publish < 300; ++publish) {
    const std::uint64_t entries =
        publish % 25 == 24 ? 2 + rng.next_below(30) : 1;
    std::vector<grid::Replica> batch;
    std::vector<std::string> names;
    for (std::uint64_t e = 0; e < entries; ++e) {
      std::string name;
      if (rng.next_below(3) == 0) {
        auto it = model.begin();
        std::advance(it, static_cast<std::ptrdiff_t>(
                             rng.next_below(model.size())));
        name = it->first;
      } else {
        name = std::string(1, static_cast<char>('a' + rng.next_below(26))) +
               "-" + std::to_string(fresh++);
      }
      const std::string repo =
          rng.next_below(2) == 0 ? "repo-east" : "repo-west";
      batch.push_back({name, repo, 1});
      model[name].push_back(repo);
      names.push_back(std::move(name));
    }
    cat.register_replicas(std::move(batch));

    const std::string where = "after publish " + std::to_string(publish);
    for (std::size_t s = 0; s < kShards; ++s)
      expect_index_shape(*cat.shard(s), where);
    for (const auto& [dataset, repos] : model) {
      const auto shard = cat.shard_for(dataset);
      expect_lookup_matches_scan(*shard, dataset, where);
      const auto replicas = shard->replicas_of(dataset);
      ASSERT_EQ(replicas.size(), repos.size()) << dataset << " " << where;
      for (std::size_t i = 0; i < repos.size(); ++i)
        EXPECT_EQ(replicas[i].repository, repos[i])
            << dataset << " #" << i << " " << where;
    }
    for (const auto& probe : with_near_misses(names))
      expect_lookup_matches_scan(*cat.shard_for(probe), probe, where);
  }
  std::size_t last_tables = 0;
  for (std::size_t s = 0; s < kShards; ++s)
    last_tables += cat.shard(s)->index.size();
  EXPECT_GE(last_tables, 8 * first_tables);
}

// ---------------------------------------------------------------------------
// Ranking oracle: the service's POD-scored top-k against a brute-force
// ranking of every enumerated candidate.

/// A seeded catalog with planted exact ties. Twin repositories (same
/// cluster, nodes and link bandwidths) hold replicas of "tied" with equal
/// storage nodes, and twin compute sites (same cluster, nodes and link
/// bandwidths) double every candidate on them. Each twin pair registers
/// in reverse name order, so registration order and the tie-break
/// disagree. An ideal-cluster site is unpredictable for every app, an
/// opteron site only for apps without scalers, and some pairs have no
/// link.
struct TieFixture {
  ShardedCatalog catalog;
  std::vector<std::string> datasets;

  TieFixture(std::uint64_t seed, std::size_t shards) : catalog(shards) {
    util::Rng rng(seed);
    const auto pentium = sim::cluster_pentium_myrinet();
    const auto opteron = sim::cluster_opteron_infiniband();
    const std::vector<std::string> repos = {"twin-b", "twin-a", "repo-0",
                                            "repo-1", "repo-2"};
    for (const auto& r : repos)
      catalog.register_repository_site({r, pentium, 8});
    const std::vector<std::string> sites = {"site-z", "site-y", "hpc-opteron",
                                            "hpc-ideal", "hpc-small"};
    catalog.register_compute_site({"site-z", pentium, 16});
    catalog.register_compute_site({"site-y", pentium, 16});
    catalog.register_compute_site({"hpc-opteron", opteron, 8});
    catalog.register_compute_site({"hpc-ideal", sim::cluster_ideal(), 8});
    catalog.register_compute_site(
        {"hpc-small", pentium, 1 + static_cast<int>(rng.next_below(12))});
    // Links are drawn per (repository group, site group), so twins get
    // identical bandwidths; one pair in five stays unreachable.
    const auto group = [](const std::string& id) {
      return id.rfind("twin-", 0) == 0 ? std::string("twin")
             : id == "site-y" || id == "site-z" ? std::string("site-twin")
                                                : id;
    };
    std::map<std::pair<std::string, std::string>, double> mbps;
    for (const auto& r : repos)
      for (const auto& c : sites) {
        const auto key = std::make_pair(group(r), group(c));
        if (!mbps.contains(key))
          mbps[key] = rng.next_below(5) == 0
                          ? 0.0
                          : 10.0 * static_cast<double>(1 + rng.next_below(8));
        if (mbps[key] > 0.0)
          catalog.register_link(r, c, sim::wan_mbps(mbps[key]));
      }

    // The planted tie, then random datasets over several publishes.
    catalog.register_replica({"tied", "twin-b", 2});
    catalog.register_replica({"tied", "twin-a", 2});
    datasets.push_back("tied");
    for (int publish = 0; publish < 4; ++publish) {
      std::vector<grid::Replica> batch;
      for (int d = 0; d < 3; ++d) {
        const std::string name = "ds-" + std::to_string(publish * 3 + d);
        datasets.push_back(name);
        for (std::uint64_t r = 0, n = 1 + rng.next_below(3); r < n; ++r)
          batch.push_back({name, repos[rng.next_below(repos.size())],
                           1 << rng.next_below(3)});
      }
      catalog.register_replicas(std::move(batch));
    }
    datasets.push_back("missing");
  }

  /// Into a SelectionService or the reference's ProfileCache.
  template <typename Target>
  void register_apps(Target& target) const {
    target.register_app(synthetic_profile("em", "pentium-myrinet"),
                        synthetic_options(), opteron_scalers());
    target.register_app(synthetic_profile("kmeans", "pentium-myrinet"),
                        synthetic_options());
  }
};

struct ReferenceRanking {
  std::vector<core::RankedCandidate> ranked;
  std::size_t considered = 0;
};

/// Every enumerated candidate on a predictable site, predicted by that
/// site's compiled predictor, then one full sort under ranked_before.
ReferenceRanking brute_force_rank(const ShardedCatalog& catalog,
                                  const CompiledApp& app,
                                  const SelectionQuery& q) {
  const Topology& topo = *app.topology;
  ReferenceRanking ref;
  for (const auto& c : ShardedCatalog::enumerate_candidates(
           topo, *catalog.shard_for(q.dataset), q.dataset)) {
    std::size_t s = 0;
    while (topo.compute_sites[s].id != c.compute_site) ++s;
    const SitePredictor& predictor = app.site_predictors[s];
    if (!predictor.predictable()) continue;
    ++ref.considered;
    core::ProfileConfig target;
    target.data_nodes = c.replica.storage_nodes;
    target.compute_nodes = c.compute_nodes;
    target.dataset_bytes = q.dataset_bytes;
    target.bandwidth_Bps = c.wan.per_link_Bps;
    target.data_cluster =
        topo.find_repository(c.replica.repository)->cluster.name;
    target.compute_cluster = topo.compute_sites[s].cluster.name;
    ref.ranked.push_back(
        {c, predictor.predict(target), predictor.uses_hetero_scaling()});
  }
  std::sort(ref.ranked.begin(), ref.ranked.end(), core::ranked_before);
  return ref;
}

void expect_same_ranked(const core::RankedCandidate& got,
                        const core::RankedCandidate& want,
                        const std::string& where) {
  const auto& g = got.candidate;
  const auto& w = want.candidate;
  EXPECT_EQ(g.replica.dataset, w.replica.dataset) << where;
  EXPECT_EQ(g.replica.repository, w.replica.repository) << where;
  EXPECT_EQ(g.replica.storage_nodes, w.replica.storage_nodes) << where;
  EXPECT_EQ(g.compute_site, w.compute_site) << where;
  EXPECT_EQ(g.compute_nodes, w.compute_nodes) << where;
  EXPECT_EQ(g.wan.per_link_Bps, w.wan.per_link_Bps) << where;
  EXPECT_EQ(g.wan.aggregate_cap_Bps, w.wan.aggregate_cap_Bps) << where;
  EXPECT_EQ(g.wan.latency_s, w.wan.latency_s) << where;
  EXPECT_EQ(g.wan.protocol_overhead, w.wan.protocol_overhead) << where;
  EXPECT_EQ(got.predicted.disk, want.predicted.disk) << where;
  EXPECT_EQ(got.predicted.network, want.predicted.network) << where;
  EXPECT_EQ(got.predicted.compute, want.predicted.compute) << where;
  EXPECT_EQ(got.predicted.compute_local, want.predicted.compute_local)
      << where;
  EXPECT_EQ(got.predicted.ro_comm, want.predicted.ro_comm) << where;
  EXPECT_EQ(got.predicted.global_red, want.predicted.global_red) << where;
  EXPECT_EQ(got.used_hetero_scaling, want.used_hetero_scaling) << where;
}

TEST(SelectionService, TopKMatchesBruteForceRankingWithPlantedTies) {
  std::size_t tied_pairs = 0;
  for (const std::uint64_t seed : {11u, 12u, 13u}) {
    const TieFixture fx(seed, 1 + seed % 5);
    ProfileCache cache;
    fx.register_apps(cache);
    const auto topo = fx.catalog.topology();

    // Every dataset under both apps, top_k from 1 to two past the
    // candidate count, then far past it: evaluate must size nothing by
    // top_k (a reserve of INT_MAX scored candidates asks for ~190 GB).
    util::Rng rng(seed * 7);
    std::vector<SelectionQuery> queries;
    std::vector<ReferenceRanking> refs;
    for (const char* app : {"em", "kmeans"}) {
      const auto compiled = cache.resolve(app, topo);
      ASSERT_NE(compiled, nullptr);
      for (const auto& dataset : fx.datasets) {
        SelectionQuery q{app, dataset, rng.uniform(100e6, 4e9), 1};
        const auto ref = brute_force_rank(fx.catalog, *compiled, q);
        for (std::size_t i = 1; i < ref.ranked.size(); ++i)
          if (ref.ranked[i].predicted.total() ==
              ref.ranked[i - 1].predicted.total())
            ++tied_pairs;
        std::vector<int> top_ks = {1 << 20, std::numeric_limits<int>::max()};
        for (std::size_t k = 1; k <= ref.ranked.size() + 2; ++k)
          top_ks.push_back(static_cast<int>(k));
        for (const int k : top_ks) {
          q.top_k = k;
          queries.push_back(q);
          refs.push_back(ref);
        }
      }
    }

    for (const std::size_t threads : {0u, 2u, 8u}) {
      std::unique_ptr<util::ThreadPool> pool;
      if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
      SelectionService svc(&fx.catalog, pool.get());
      fx.register_apps(svc);
      const auto results = svc.query_batch(queries);
      ASSERT_EQ(results.size(), queries.size());
      for (std::size_t i = 0; i < queries.size(); ++i) {
        const std::string where =
            "seed " + std::to_string(seed) + " pool " +
            std::to_string(threads) + " " + queries[i].app + ":" +
            queries[i].dataset + " top_k " + std::to_string(queries[i].top_k);
        const auto& got = results[i];
        const auto& ref = refs[i];
        EXPECT_EQ(got.candidates_considered, ref.considered) << where;
        if (ref.ranked.empty()) {
          EXPECT_FALSE(got.ok()) << where;
          continue;
        }
        ASSERT_TRUE(got.ok()) << where << ": " << got.error;
        const std::size_t k = std::min<std::size_t>(
            static_cast<std::size_t>(queries[i].top_k), ref.ranked.size());
        ASSERT_EQ(got.ranked.size(), k) << where;
        for (std::size_t j = 0; j < k; ++j)
          expect_same_ranked(got.ranked[j], ref.ranked[j],
                             where + " rank " + std::to_string(j));
      }
    }
  }
  // The planted twins must actually produce exact ties.
  EXPECT_GT(tied_pairs, 0u);
}

TEST(ResourceSelector, EqualTotalsBreakTiesOnCandidateIdentity) {
  // Twin repositories and twin sites, each registered in reverse name
  // order: the four cheapest candidates tie exactly and must come back in
  // identity order, not registration order.
  const auto fill = [](auto& cat) {
    const auto pentium = sim::cluster_pentium_myrinet();
    cat.register_repository_site({"twin-b", pentium, 8});
    cat.register_repository_site({"twin-a", pentium, 8});
    cat.register_compute_site({"site-z", pentium, 16});
    cat.register_compute_site({"site-y", pentium, 16});
    for (const char* r : {"twin-b", "twin-a"})
      for (const char* c : {"site-z", "site-y"})
        cat.register_link(r, c, sim::wan_mbps(40));
    cat.register_replica({"tied", "twin-b", 2});
    cat.register_replica({"tied", "twin-a", 2});
  };
  grid::GridCatalog flat;
  fill(flat);
  ShardedCatalog sharded(2);
  fill(sharded);

  const auto profile = synthetic_profile("em", "pentium-myrinet");
  auto opts = synthetic_options();
  opts.ipc = core::measure_ipc(sim::cluster_pentium_myrinet());
  const core::ResourceSelector selector(&flat, profile, opts);
  const auto ranked = selector.rank("tied", 700e6);
  ASSERT_GE(ranked.size(), 4u);
  EXPECT_TRUE(
      std::is_sorted(ranked.begin(), ranked.end(), core::ranked_before));
  const std::pair<const char*, const char*> expect[] = {
      {"twin-a", "site-y"},
      {"twin-a", "site-z"},
      {"twin-b", "site-y"},
      {"twin-b", "site-z"}};
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(ranked[i].predicted.total(), ranked[0].predicted.total()) << i;
    EXPECT_EQ(ranked[i].candidate.replica.repository, expect[i].first) << i;
    EXPECT_EQ(ranked[i].candidate.compute_site, expect[i].second) << i;
  }

  // The service ranks the same ties the same way.
  SelectionService svc(&sharded);
  svc.register_app(profile, opts);
  const auto got = svc.query({"em", "tied", 700e6, 1 << 20});
  ASSERT_TRUE(got.ok()) << got.error;
  ASSERT_EQ(got.ranked.size(), ranked.size());
  for (std::size_t i = 0; i < ranked.size(); ++i)
    expect_same_ranked(got.ranked[i], ranked[i], "rank " + std::to_string(i));
}

// ---------------------------------------------------------------------------
// Concurrent readers vs snapshot swaps (TSan stress targets)

TEST(ShardedCatalog, ConcurrentPublishesKeepReplicaLookupsExact) {
  // TSan stress target: readers check lookups on the snapshots they hold
  // against a linear scan while a writer publishes new datasets and
  // appends to existing ones (index shifts, inserts and growth).
  ShardedCatalog cat(4);
  populate(cat);
  std::vector<std::string> names = {"em-data", "points", "absent"};
  for (int d = 0; d < 96; ++d) names.push_back("d-" + std::to_string(d));
  const auto held = cat.shard_for("em-data");
  const std::vector<grid::Replica> held_copy = held->replicas;

  std::atomic<bool> done{false};
  std::atomic<int> mismatches{0};
  std::thread writer([&] {
    for (int i = 0; i < 300; ++i)
      cat.register_replica({"d-" + std::to_string((i * 37) % 96),
                            i % 2 == 0 ? "repo-east" : "repo-west", 1});
    done.store(true);
  });
  const auto reader = [&](std::size_t first_shard) {
    for (std::size_t round = 0; round < 40 || !done.load(); ++round) {
      const auto shard = cat.shard((first_shard + round) % cat.shard_count());
      for (const auto& name : names) {
        std::vector<const grid::Replica*> want;
        for (const auto& r : shard->replicas)
          if (r.dataset == name) want.push_back(&r);
        const auto got = shard->replicas_of(name);
        bool same = got.size() == want.size();
        for (std::size_t i = 0; same && i < got.size(); ++i)
          same = &got[i] == want[i];
        if (!same) mismatches.fetch_add(1);
      }
    }
  };
  std::thread reader_a(reader, 0);
  std::thread reader_b(reader, 1);
  writer.join();
  reader_a.join();
  reader_b.join();
  EXPECT_EQ(mismatches.load(), 0);

  // The snapshot held from before the writer started is untouched.
  ASSERT_EQ(held->replicas.size(), held_copy.size());
  for (std::size_t i = 0; i < held_copy.size(); ++i)
    EXPECT_EQ(held->replicas[i].dataset, held_copy[i].dataset) << i;
  expect_lookup_matches_scan(*held, "em-data", "held snapshot");
  for (const auto& name : names)
    expect_lookup_matches_scan(*cat.shard_for(name), name, "final");
}

TEST(SelectionService, ConcurrentQueriesRaceSnapshotSwaps) {
  BigFixture fx;
  util::ThreadPool pool(4);
  SelectionService svc(&fx.catalog, &pool);
  fx.register_apps(svc);

  // One replica of a fresh dataset exists up front; the writer keeps
  // publishing more replicas and topology bumps while readers query.
  fx.catalog.register_replica({"hot", "repo-0", 1});
  std::atomic<bool> stop{false};
  std::thread writer([&] {
    // Bounded: every publish copies the whole topology, so an unbounded
    // writer on a small host turns quadratic.
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      fx.catalog.register_replica({"hot", "repo-" + std::to_string(i % 4),
                                   1 << (i % 3)});
      fx.catalog.register_compute_site(
          {"swap-" + std::to_string(i), sim::cluster_pentium_myrinet(), 4});
      // Snapshot-skew window: a batch that captured the topology before
      // these three publishes but loads the shard after them sees a "hot"
      // replica whose repository is missing from its topology. The service
      // must rank it as unreachable for that batch, not abort.
      const std::string fresh = "fresh-" + std::to_string(i);
      fx.catalog.register_repository_site(
          {fresh, sim::cluster_pentium_myrinet(), 4});
      fx.catalog.register_link(fresh, "hpc-1", sim::wan_mbps(40.0));
      fx.catalog.register_replica({"hot", fresh, 1});
    }
  });

  SelectionQuery hot;
  hot.app = "em";
  hot.dataset = "hot";
  hot.dataset_bytes = 1e9;
  hot.top_k = 3;
  std::vector<SelectionQuery> batch(16, hot);
  std::size_t last_considered = 0;
  for (int round = 0; round < 50; ++round) {
    const auto results = svc.query_batch(batch);
    for (const auto& r : results) {
      ASSERT_TRUE(r.ok()) << r.error;
      // Replicas only accumulate, so within one batch (one shard
      // snapshot) every slot agrees, and across batches the candidate
      // count never shrinks.
      EXPECT_EQ(r.candidates_considered,
                results.front().candidates_considered);
    }
    EXPECT_GE(results.front().candidates_considered, last_considered);
    last_considered = results.front().candidates_considered;
  }
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Service observability (PR 9): attaching the full instrumentation set
// must not perturb what the service computes.

TEST(SelectionService, ObserversDoNotChangeRankingsOrDeterministicMetrics) {
  const BigFixture fx;
  // Uninstrumented reference.
  obs::Registry plain_metrics;
  SelectionService plain(&fx.catalog, nullptr, &plain_metrics);
  fx.register_apps(plain);
  const auto reference = plain.query_batch(fx.queries);
  const std::string reference_metrics = plain_metrics.to_json(false);

  for (const std::size_t threads : {0u, 2u, 8u}) {
    obs::Registry metrics;
    std::unique_ptr<util::ThreadPool> pool;
    if (threads > 0) pool = std::make_unique<util::ThreadPool>(threads);
    SelectionService svc(&fx.catalog, pool.get(), &metrics);
    fx.register_apps(svc);

    obs::TraceRecorder trace;
    trace.enable_host(true);
    obs::SlowQueryLog slowlog(0.0);  // threshold 0: every query logs
    obs::HdrHistogram latency;
    ServiceObservers observers;
    observers.trace = &trace;
    observers.slowlog = &slowlog;
    observers.latency = &latency;
    svc.set_observers(observers);

    expect_identical(svc.query_batch(fx.queries), reference);
    EXPECT_EQ(metrics.to_json(false), reference_metrics)
        << "instrumentation leaked into the deterministic domain";

    // The instrumentation itself saw every query: one latency sample and
    // one slow-query entry each, three phase spans plus one span per
    // query in the trace.
    EXPECT_EQ(latency.count(), fx.queries.size());
    EXPECT_GT(latency.quantile(0.99), 0.0);
    EXPECT_EQ(slowlog.seen(), fx.queries.size());
    EXPECT_EQ(trace.event_count(), fx.queries.size() + 3);
    const auto v = obs::validate_report_text(trace.to_chrome_json(true));
    EXPECT_EQ(v.kind, obs::ReportKind::Trace);
    EXPECT_TRUE(v.ok()) << (v.errors.empty() ? "" : v.errors.front());
    // Latency is wall-clock: every service span is Host-domain and gone
    // from the byte-comparison export.
    EXPECT_EQ(trace.to_chrome_json(false).find("service/query"),
              std::string::npos);
  }
}

TEST(SelectionService, SlowQueryLogRecordsFailedQueriesWithTheirError) {
  ShardedCatalog cat(4);
  populate(cat);
  SelectionService svc(&cat);
  svc.register_app(synthetic_profile("em", "pentium-myrinet"),
                   synthetic_options(), opteron_scalers());
  obs::SlowQueryLog slowlog(0.0);
  ServiceObservers observers;
  observers.slowlog = &slowlog;
  svc.set_observers(observers);

  std::vector<SelectionQuery> batch;
  batch.push_back(em_query());
  batch.push_back({"em", "missing", 1e6, 1});  // unknown dataset
  svc.query_batch(batch);
  const auto entries = slowlog.entries();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_FALSE(entries[0].chosen.empty());
  EXPECT_TRUE(entries[0].error.empty());
  EXPECT_TRUE(entries[1].chosen.empty());
  EXPECT_FALSE(entries[1].error.empty());
}

TEST(SelectionService, ConcurrentBatchesShareOneHdrRecorderAndSlowlog) {
  // TSan stress target (CI runs *Concurrent* under --gtest_repeat): two
  // callers drive query_batch into one shared observer set. Per-task
  // latency slots are index-owned; the only cross-batch state is the
  // batch-end merge under the service's latency mutex and the internally
  // locked slowlog/trace sinks.
  const BigFixture fx;
  util::ThreadPool pool(4);
  SelectionService svc(&fx.catalog, &pool);
  fx.register_apps(svc);

  obs::TraceRecorder trace;
  trace.enable_host(true);
  obs::SlowQueryLog slowlog(0.0, 32);
  obs::HdrHistogram latency;
  ServiceObservers observers;
  observers.trace = &trace;
  observers.slowlog = &slowlog;
  observers.latency = &latency;
  svc.set_observers(observers);

  constexpr std::size_t kRounds = 5;
  std::thread other([&] {
    for (std::size_t i = 0; i < kRounds; ++i) svc.query_batch(fx.queries);
  });
  for (std::size_t i = 0; i < kRounds; ++i) svc.query_batch(fx.queries);
  other.join();

  const std::size_t total = 2 * kRounds * fx.queries.size();
  EXPECT_EQ(latency.count(), total);
  EXPECT_EQ(slowlog.seen(), total);
  EXPECT_EQ(slowlog.entries().size(), 32u);
  EXPECT_EQ(trace.event_count(), 2 * kRounds * (fx.queries.size() + 3));
}

TEST(ProfileCache, ConcurrentResolveRacesTopologyPublishes) {
  ShardedCatalog cat(4);
  populate(cat);
  ProfileCache cache;
  cache.register_app(synthetic_profile("em", "pentium-myrinet"),
                     synthetic_options(), opteron_scalers());

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    for (int i = 0; i < 400 && !stop.load(); ++i) {
      cat.register_compute_site(
          {"cache-swap-" + std::to_string(i),
           sim::cluster_opteron_infiniband(), 4});
    }
  });
  util::ThreadPool pool(8);
  pool.parallel_for(256, [&](std::size_t) {
    const auto topo = cat.topology();
    const auto compiled = cache.resolve("em", topo);
    ASSERT_NE(compiled, nullptr);
    // The compiled snapshot is internally consistent with the topology
    // it was compiled against — even if that topology is already stale.
    ASSERT_EQ(compiled->site_predictors.size(),
              compiled->topology->compute_sites.size());
  });
  stop.store(true);
  writer.join();
}

// ---------------------------------------------------------------------------
// Config / query parsing

TEST(ServiceConfig, DefaultsAndOverridesParse) {
  const auto def = parse_service_config("{}");
  EXPECT_EQ(def.shards, 16);
  EXPECT_EQ(def.max_top_k, 64);
  const auto cfg = parse_service_config(
      R"({"shards": 64, "max_top_k": 8, "max_batch": 1000})");
  EXPECT_EQ(cfg.shards, 64);
  EXPECT_EQ(cfg.max_top_k, 8);
  EXPECT_EQ(cfg.max_batch, 1000);
}

TEST(ServiceConfig, RejectsHostileValuesTyped) {
  EXPECT_THROW(parse_service_config("not json"), util::SerializationError);
  EXPECT_THROW(parse_service_config("[]"), util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 0})"), util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 4097})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": 2.5})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"shards": "many"})"),
               util::ConfigError);
  EXPECT_THROW(parse_service_config(R"({"sharks": 4})"), util::ConfigError);
}

TEST(ServiceConfig, QueryBatchParsesAndEnforcesLimits) {
  ServiceConfig cfg;
  cfg.max_top_k = 4;
  cfg.max_batch = 2;
  const auto queries = parse_query_batch(
      R"([{"app": "em", "dataset": "ds-1", "dataset_bytes": 1e9,
           "top_k": 4},
          {"app": "kmeans", "dataset": "ds-2", "dataset_bytes": 2e8}])",
      cfg);
  ASSERT_EQ(queries.size(), 2u);
  EXPECT_EQ(queries[0].app, "em");
  EXPECT_EQ(queries[0].top_k, 4);
  EXPECT_EQ(queries[1].top_k, 1);

  EXPECT_THROW(parse_query_batch(
                   R"([{"app": "a", "dataset": "d", "dataset_bytes": 1,
                        "top_k": 5}])",
                   cfg),
               util::ConfigError);
  EXPECT_THROW(
      parse_query_batch(
          R"([{"app": "a", "dataset": "d", "dataset_bytes": 1},
              {"app": "a", "dataset": "d", "dataset_bytes": 1},
              {"app": "a", "dataset": "d", "dataset_bytes": 1}])",
          cfg),
      util::ConfigError);
}

}  // namespace
}  // namespace fgp::service
