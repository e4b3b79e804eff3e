// Golden pins for the runtime's pass loop: every figure-style workload
// shape's exports — the reduction-object bytes, every timing double's bits
// and the deterministic trace/metrics JSON — reduce to one FNV-1a digest
// per scenario, pinned at host pools 0 (serial), 2 and 8, and the residual
// report of a small prediction sweep is pinned the same way. The pins were
// captured when the pass loop still ran beside an event-engine mode that
// agreed with it byte for byte, so any change to a phase fold, the
// accounting order or an export shows up here (DESIGN.md §18). The suite
// keeps its name from then, EngineSwap: each test pins the scenario the
// two engines were compared on to the digest both of them produced.
//
// The digests hold for every build: the root CMakeLists.txt compiles with
// -ffp-contract=off, so a host-tuned build (FGP_NATIVE's -march=native on
// an FMA host) fuses no multiply-add and rounds like the default codegen
// (DESIGN.md §10).
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>

#include "apps/kmeans.h"
#include "apps/vortex.h"
#include "core/ipc_probe.h"
#include "core/predictor.h"
#include "core/profile.h"
#include "core/residuals.h"
#include "datagen/flowfield.h"
#include "datagen/points.h"
#include "freeride/runtime.h"
#include "helpers.h"
#include "obs/metrics.h"
#include "obs/residual.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "util/serial.h"

namespace fgp {
namespace {

// Pool sizes every pin must hold under: 0 = the serial Runtime(), then an
// owned pool of 2 and of 8 host threads.
constexpr std::size_t kPools[] = {0, 2, 8};

struct Scenario {
  std::string name;
  std::function<std::unique_ptr<freeride::ReductionKernel>()> kernel;
  std::function<freeride::JobSetup()> setup;  ///< sinks left unset
};

std::string hex(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "0x%016" PRIx64, v);
  return buf;
}

/// FNV-1a over everything one run exports: the serialized reduction
/// object, the pass count and cache mode, every timing double's bits (so
/// NaN or signed-zero drift is caught), and the deterministic trace and
/// metrics JSON.
std::uint64_t run_digest(const Scenario& s, std::size_t pool) {
  obs::TraceRecorder trace;
  obs::Registry metrics;
  freeride::JobSetup setup = s.setup();
  setup.trace = &trace;
  setup.metrics = &metrics;
  auto kernel = s.kernel();
  const freeride::RunResult result =
      pool == 0 ? freeride::Runtime().run(setup, *kernel)
                : freeride::Runtime(pool).run(setup, *kernel);

  util::ByteWriter w;
  result.result->serialize(w);
  w.put_u64(static_cast<std::uint64_t>(result.passes));
  w.put_u64(static_cast<std::uint64_t>(result.cache_mode));
  w.put_f64(result.timing.elapsed);
  w.put_f64(result.timing.max_object_bytes);
  w.put_f64(result.timing.total.disk);
  w.put_f64(result.timing.total.network);
  w.put_f64(result.timing.total.compute_local);
  w.put_f64(result.timing.total.ro_comm);
  w.put_f64(result.timing.total.global_red);
  w.put_f64(result.total_work.flops);
  w.put_f64(result.total_work.bytes);
  for (const auto& pass : result.timing.passes) {
    w.put_f64(pass.elapsed);
    w.put_f64(pass.max_object_bytes);
    w.put_f64(pass.timing.disk);
    w.put_f64(pass.timing.network);
    w.put_f64(pass.timing.compute_local);
    w.put_f64(pass.timing.ro_comm);
    w.put_f64(pass.timing.global_red);
    for (const double nc : pass.node_compute) w.put_f64(nc);
  }
  // Deterministic-domain exports only: host counters depend on timing.
  w.put_string(trace.to_chrome_json(false));
  w.put_string(metrics.to_json(false));
  return util::fnv1a(w.bytes().data(), w.size());
}

void expect_golden(const Scenario& s, std::uint64_t pinned) {
  for (const std::size_t pool : kPools) {
    const std::uint64_t got = run_digest(s, pool);
    EXPECT_EQ(got, pinned) << s.name << " @pool=" << pool << ": digest "
                           << hex(got) << ", expected " << hex(pinned);
  }
}

// ---------------------------------------------------------------------------
// Workload builders (reduced-scale versions of the figure workloads).

datagen::PointsDataset kmeans_points(std::uint64_t seed) {
  datagen::PointsSpec spec;
  spec.num_points = 2000;
  spec.dim = 4;
  spec.num_components = 3;
  spec.points_per_chunk = 100;
  spec.seed = seed;
  return datagen::generate_points(spec);
}

apps::KMeansParams kmeans_params(const datagen::PointsDataset& data,
                                 int fixed_passes) {
  apps::KMeansParams params;
  params.k = 3;
  params.dim = 4;
  params.initial_centers =
      apps::initial_centers_from_dataset(data.dataset, 3, 4);
  if (fixed_passes > 0) params.fixed_passes = fixed_passes;
  return params;
}

Scenario kmeans_scenario(std::string name,
                         const datagen::PointsDataset* data,
                         std::function<freeride::JobSetup()> setup,
                         int fixed_passes = 0) {
  Scenario s;
  s.name = std::move(name);
  s.kernel = [data, fixed_passes] {
    return std::make_unique<apps::KMeansKernel>(
        kmeans_params(*data, fixed_passes));
  };
  s.setup = std::move(setup);
  return s;
}

// ---------------------------------------------------------------------------

TEST(EngineSwap, KMeansPentiumGrid) {
  // fig02-style: iterative k-means on the Pentium/Myrinet cluster across
  // grid corners 1-1, 2-4 and 4-8.
  const auto data = kmeans_points(42);
  const auto at = [&data](int n, int c) {
    return kmeans_scenario(
        "kmeans-pentium-" + std::to_string(n) + "-" + std::to_string(c),
        &data, [&data, n, c] {
          return testing::pentium_setup(&data.dataset, n, c);
        });
  };
  expect_golden(at(1, 1), 0xdb5ce21b9ca30e7aULL);
  expect_golden(at(2, 4), 0x4d99f8194c836f5eULL);
  expect_golden(at(4, 8), 0x86186d5ed72da202ULL);
}

TEST(EngineSwap, KMeansOpteronCluster) {
  // fig11-style heterogeneous target: same workload on the
  // Opteron/Infiniband cluster.
  const auto data = kmeans_points(7);
  expect_golden(kmeans_scenario("kmeans-opteron-4-8", &data, [&data] {
    auto setup = testing::pentium_setup(&data.dataset, 4, 8);
    setup.data_cluster = sim::cluster_opteron_infiniband();
    setup.compute_cluster = sim::cluster_opteron_infiniband();
    return setup;
  }), 0xbd7f686c4f9d981bULL);
}

TEST(EngineSwap, KMeansSlowWan) {
  // fig08-style bandwidth change: a 500 Kbps shared pipe makes network
  // time dominant.
  const auto data = kmeans_points(9);
  expect_golden(kmeans_scenario("kmeans-wan500k-2-4", &data, [&data] {
    auto setup = testing::pentium_setup(&data.dataset, 2, 4);
    setup.wan = sim::wan_kbps(500);
    return setup;
  }, /*fixed_passes=*/3), 0x61fade6abd647060ULL);
}

TEST(EngineSwap, VortexDetection) {
  // fig05-style single-pass mining on a flow field.
  datagen::FlowSpec spec;
  spec.width = 64;
  spec.height = 64;
  spec.num_vortices = 3;
  spec.rows_per_chunk = 8;
  spec.seed = 11;
  const auto flow = datagen::generate_flowfield(spec);
  Scenario s;
  s.name = "vortex-pentium-3-6";
  s.kernel = [] {
    return std::make_unique<apps::VortexKernel>(apps::VortexParams{});
  };
  s.setup = [&flow] { return testing::pentium_setup(&flow.dataset, 3, 6); };
  expect_golden(s, 0x38cd5d14d35b93dfULL);
}

TEST(EngineSwap, LocalDiskCaching) {
  // abl01-style: multi-pass job with compute-side caching; later passes
  // are served from local disk, exercising the cache populate/read paths.
  const auto data = kmeans_points(13);
  expect_golden(kmeans_scenario("kmeans-cache-local-2-4", &data, [&data] {
    auto setup = testing::pentium_setup(&data.dataset, 2, 4);
    setup.config.enable_caching = true;
    return setup;
  }, /*fixed_passes=*/4), 0xf06ee222e0b2da76ULL);
}

TEST(EngineSwap, NonLocalSiteCaching) {
  // ext02-style: local capacity too small, so the runtime forwards chunks
  // to a non-local cache site over its own pipe.
  const auto data = kmeans_points(17);
  expect_golden(kmeans_scenario("kmeans-cache-site-2-4", &data, [&data] {
    auto setup = testing::pentium_setup(&data.dataset, 2, 4);
    setup.config.enable_caching = true;
    setup.config.local_cache_capacity_bytes = 1.0;  // force the site
    freeride::CacheSiteSetup site;
    site.cluster = sim::cluster_pentium_myrinet();
    site.nodes = 2;
    site.wan_to_compute = sim::wan_mbps(200.0);
    setup.cache_site = site;
    return setup;
  }, /*fixed_passes=*/4), 0x1149d8465342ca37ULL);
}

TEST(EngineSwap, OverlappedPhases) {
  // ext03-style: pipelined retrieval/movement/reduction. Elapsed time is
  // a max-composition instead of a sum.
  const auto data = kmeans_points(19);
  expect_golden(kmeans_scenario("kmeans-overlap-2-4", &data, [&data] {
    auto setup = testing::pentium_setup(&data.dataset, 2, 4);
    setup.config.overlap_phases = true;
    return setup;
  }, /*fixed_passes=*/3), 0x559e5e8bc6aea612ULL);
}

TEST(EngineSwap, StragglerInjection) {
  // abl05-style: two nodes run 3x slower, so per-node compute times are
  // heterogeneous and the phase time is decided by the slow tail.
  const auto data = kmeans_points(23);
  expect_golden(kmeans_scenario("kmeans-stragglers-2-4", &data, [&data] {
    auto setup = testing::pentium_setup(&data.dataset, 2, 4);
    setup.config.straggler_count = 2;
    setup.config.straggler_slowdown = 3.0;
    return setup;
  }, /*fixed_passes=*/3), 0x8d01ac1ab0b0b178ULL);
}

TEST(EngineSwap, SmpStrategies) {
  // ext01-style cluster-of-SMPs: 4 threads per node under each strategy.
  const auto data = kmeans_points(29);
  const auto with = [&data](freeride::SmpStrategy strategy) {
    return kmeans_scenario(
        "kmeans-smp-" + std::to_string(static_cast<int>(strategy)), &data,
        [&data, strategy] {
          auto setup = testing::pentium_setup(&data.dataset, 2, 4);
          setup.compute_cluster.machine.cores = 4;
          setup.config.threads_per_node = 4;
          setup.config.smp_strategy = strategy;
          return setup;
        },
        /*fixed_passes=*/3);
  };
  expect_golden(with(freeride::SmpStrategy::FullReplication),
                0x79e80f6633fdb393ULL);
  expect_golden(with(freeride::SmpStrategy::FullLocking),
                0xcd88037198f7ca72ULL);
  expect_golden(with(freeride::SmpStrategy::CacheSensitiveLocking),
                0x7b1f20c0c36db631ULL);
}

TEST(EngineSwap, SumKernelIdealCluster) {
  // Frictionless baseline: on the ideal cluster most component times are
  // zero, so the pin also covers the degenerate corner (zero-duration
  // phases, signed-zero accumulation).
  const auto ds = testing::make_sum_dataset(24, 50);
  Scenario s;
  s.name = "sum-ideal-2-4";
  s.kernel = [] {
    testing::SumKernelParams p;
    p.passes = 3;
    return std::make_unique<testing::SumKernel>(p);
  };
  s.setup = [&ds] { return testing::ideal_setup(&ds, 2, 4); };
  expect_golden(s, 0xffc6e8b681dd4f11ULL);
}

TEST(EngineSwap, ResidualReportsMatch) {
  // The residual export (prediction-vs-exact decomposition) is the last
  // deterministic artifact a figure emits: a 1-1 base profile predicts
  // three grid points, and the report is pinned as a digest.
  const auto data = kmeans_points(31);
  const apps::KMeansParams params = kmeans_params(data, 3);
  const auto base_setup = testing::pentium_setup(&data.dataset, 1, 1);
  apps::KMeansKernel profile_kernel(params);
  const core::Profile base =
      core::ProfileCollector::collect(base_setup, profile_kernel, nullptr);

  core::PredictorOptions opts;
  opts.ipc = core::measure_ipc(base_setup.compute_cluster);
  const core::Predictor predictor(base, opts);

  obs::ResidualReport report;
  report.set_sweep("runtime-golden");
  report.set_model("global-reduction");
  for (const auto& [n, c] : {std::pair{1, 2}, {2, 4}, {4, 8}}) {
    const auto setup = testing::pentium_setup(&data.dataset, n, c);
    apps::KMeansKernel kernel(params);
    const auto actual = freeride::Runtime().run(setup, kernel);
    core::ProfileConfig target = base.config;
    target.data_nodes = n;
    target.compute_nodes = c;
    const core::PredictedTime predicted = predictor.predict(target);
    report.add(core::make_residual_point(
        std::to_string(n) + "-" + std::to_string(c), predicted,
        actual.timing.total));
  }
  const std::string json = report.to_json();
  const std::uint64_t got = util::fnv1a(
      reinterpret_cast<const std::uint8_t*>(json.data()), json.size());
  EXPECT_EQ(got, 0x9155b2dae3818fafULL) << "residual report digest "
                                         << hex(got) << ":\n" << json;
}

}  // namespace
}  // namespace fgp
