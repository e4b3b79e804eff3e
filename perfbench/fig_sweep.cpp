// fig-sweep — the paper's evaluation grid for its five applications.
//
// One sweep, per app and generated dataset: a 1-1 base profile on
// cluster A, the three prediction models and an exact run on each of the
// 14 grid configurations, plus a heterogeneous A->B prediction set
// (scaling factors from the other four apps' 1-1 profiles on A and B)
// checked against exact runs on cluster B. All jobs of a phase run
// concurrently over the one pool and borrow it for their own two-level
// reduction.
//
// Why this workload: application kernels, runtime accounting and
// prediction do nearly all the work, while the service and the streamed
// store do none. Real data per configuration is small (1 MB per points
// app at 1.4 GB virtual), so the runtime's per-chunk and per-node costs
// weigh heavily.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/defect.h"
#include "apps/em.h"
#include "apps/kmeans.h"
#include "apps/knn.h"
#include "apps/vortex.h"
#include "core/hetero.h"
#include "core/ipc_probe.h"
#include "core/predictor.h"
#include "core/profile.h"
#include "datagen/flowfield.h"
#include "datagen/lattice.h"
#include "datagen/points.h"
#include "freeride/runtime.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/cluster.h"
#include "sim/network.h"
#include "util/rng.h"

namespace fgp::perfbench {
namespace {

using KernelFactory =
    std::function<std::unique_ptr<freeride::ReductionKernel>()>;

struct App {
  std::string name;
  std::shared_ptr<const repository::ChunkedDataset> dataset;
  KernelFactory factory;
  core::AppClasses classes;
};

struct NodeConfig {
  int n = 1;
  int c = 1;
};

// Data nodes 1..8, compute nodes up to 16, compute >= data.
std::vector<NodeConfig> paper_grid() {
  std::vector<NodeConfig> grid;
  for (int n : {1, 2, 4, 8})
    for (int c = n; c <= 16; c *= 2) grid.push_back({n, c});
  return grid;
}

template <typename Generated>
std::shared_ptr<const repository::ChunkedDataset> owned(Generated g) {
  auto holder = std::make_shared<Generated>(std::move(g));
  return {holder, &holder->dataset};
}

App points_app(const std::string& name, std::uint64_t seed) {
  // Paper scale: 1.4 GB virtual; 1 MB of real points keeps a sweep short.
  auto spec = datagen::scaled_points_spec(1400.0, 1.0, 8, seed);
  spec.num_components = name == "kmeans" ? 8 : 4;
  spec.name = name + "-points";
  auto ds = owned(datagen::generate_points(spec));
  App app{name, ds, {}, {}};
  if (name == "kmeans") {
    apps::KMeansParams p;
    p.initial_centers = apps::initial_centers_from_dataset(*ds, p.k, p.dim);
    p.fixed_passes = 10;
    app.factory = [p] { return std::make_unique<apps::KMeansKernel>(p); };
    app.classes = {core::RoSizeClass::Constant,
                   core::GlobalReductionClass::LinearConstant};
  } else if (name == "em") {
    apps::EMParams p;
    p.initial_means = apps::initial_centers_from_dataset(*ds, p.g, p.dim);
    p.fixed_passes = 10;
    app.factory = [p] { return std::make_unique<apps::EMKernel>(p); };
    app.classes = {core::RoSizeClass::LinearWithData,
                   core::GlobalReductionClass::ConstantLinear};
  } else {
    apps::KnnParams p;
    p.k = 16;
    p.queries = apps::initial_centers_from_dataset(*ds, 8, p.dim);
    app.factory = [p] { return std::make_unique<apps::KnnKernel>(p); };
    app.classes = {core::RoSizeClass::Constant,
                   core::GlobalReductionClass::LinearConstant};
  }
  return app;
}

App vortex_app(std::uint64_t seed) {
  datagen::FlowSpec spec;
  spec.width = 256;
  spec.height = 256;
  spec.num_vortices = 6;
  spec.rows_per_chunk = 4;
  spec.seed = seed;
  spec.name = "vortex-field";
  auto flow = datagen::generate_flowfield(spec);
  flow.dataset.set_uniform_virtual_scale(
      710e6 / static_cast<double>(flow.dataset.total_real_bytes()));
  apps::VortexParams p;
  return {"vortex", owned(std::move(flow)),
          [p] { return std::make_unique<apps::VortexKernel>(p); },
          {core::RoSizeClass::LinearWithData,
           core::GlobalReductionClass::ConstantLinear}};
}

App defect_app(std::uint64_t seed) {
  datagen::LatticeSpec spec;
  spec.nx = 24;
  spec.ny = 24;
  spec.nz = 96;
  spec.num_vacancy_clusters = 8;
  spec.num_interstitials = 6;
  spec.num_displaced_clusters = 6;
  spec.zslabs_per_chunk = 2;
  spec.seed = seed;
  spec.name = "defect-lattice";
  auto lattice = datagen::generate_lattice(spec);
  lattice.dataset.set_uniform_virtual_scale(
      130e6 / static_cast<double>(lattice.dataset.total_real_bytes()));
  return {"defect", owned(std::move(lattice)),
          [] { return std::make_unique<apps::DefectKernel>(); },
          {core::RoSizeClass::LinearWithData,
           core::GlobalReductionClass::ConstantLinear}};
}

constexpr std::size_t kAppsPerSet = 5;
// Datasets generated per app. How fast a kernel runs depends on its data
// (EM's E-step hits subnormal responsibilities on some seeds, taking up to
// 1.4x as long), so a sweep covers several independently generated sets
// to keep the work per run close to the same from seed to seed.
constexpr std::size_t kDatasetSets = 4;

std::vector<App> generate_apps(std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<App> apps;
  for (std::size_t set = 0; set < kDatasetSets; ++set) {
    apps.push_back(points_app("kmeans", rng.next_u64()));
    apps.push_back(points_app("em", rng.next_u64()));
    apps.push_back(points_app("knn", rng.next_u64()));
    apps.push_back(vortex_app(rng.next_u64()));
    apps.push_back(defect_app(rng.next_u64()));
  }
  return apps;
}

struct Clusters {
  sim::ClusterSpec a = sim::cluster_pentium_myrinet();
  sim::ClusterSpec b = sim::cluster_opteron_infiniband();
  sim::WanSpec wan = sim::wan_mbps(800.0);
};

freeride::JobSetup job(const App& app, const sim::ClusterSpec& cluster,
                       const sim::WanSpec& wan, NodeConfig cfg) {
  freeride::JobSetup setup;
  setup.dataset = app.dataset.get();
  setup.data_cluster = cluster;
  setup.compute_cluster = cluster;
  setup.wan = wan;
  setup.config.data_nodes = cfg.n;
  setup.config.compute_nodes = cfg.c;
  return setup;
}

// Observability sinks a traced job records into; counters of interest are
// read back once the job is done. Untraced jobs get none.
struct JobObs {
  obs::TraceRecorder trace;
  obs::Registry metrics;
};

std::unique_ptr<JobObs> attach_obs(bool traced, freeride::JobSetup& setup) {
  if (!traced) return nullptr;
  auto o = std::make_unique<JobObs>();
  o->trace.enable_host(true);
  setup.trace = &o->trace;
  setup.metrics = &o->metrics;
  return o;
}

struct ConfigOutcome {
  bool ok = false;
  double exact = 0.0;  ///< T_exact, virtual seconds
  std::vector<std::uint8_t> print;
  double run_s = 0.0;  ///< host wall time of Runtime::run
  int passes = 0;
  double window_recycles = 0.0;
};

struct Sweep {
  std::vector<ConfigOutcome> configs;  ///< app-major: 14 on A, 14 on B
  /// Per config: the three models' totals on A, the hetero total on B.
  std::vector<double> predicted;
  std::vector<double> profile_s;
  std::vector<core::Profile> on_a, on_b;  ///< 1-1 base profiles per app
  double pred_error_pct = 0.0;
  double seconds = 0.0;
  std::size_t failed = 0;
};

core::ProfileConfig target(const core::Profile& base, NodeConfig cfg,
                           const App& app, const sim::WanSpec& wan) {
  core::ProfileConfig t = base.config;
  t.data_nodes = cfg.n;
  t.compute_nodes = cfg.c;
  t.dataset_bytes = app.dataset->total_virtual_bytes();
  t.bandwidth_Bps = wan.per_link_Bps;
  return t;
}

constexpr core::PredictionModel kModels[] = {
    core::PredictionModel::NoCommunication,
    core::PredictionModel::ReductionCommunication,
    core::PredictionModel::GlobalReduction};

struct Predictors {
  std::vector<core::Predictor> same;           ///< 3 per app
  std::vector<core::HeteroPredictor> hetero;   ///< 1 per app
  std::vector<core::Profile> base;             ///< cluster-A 1-1 profile
};

Predictors build_predictors(const std::vector<App>& apps,
                            const std::vector<core::Profile>& on_a,
                            const std::vector<core::Profile>& on_b,
                            const Clusters& cl) {
  Predictors p;
  p.base = on_a;
  const core::IpcParams ipc = core::measure_ipc(cl.a);
  for (std::size_t a = 0; a < apps.size(); ++a) {
    core::PredictorOptions opts;
    opts.classes = apps[a].classes;
    opts.ipc = ipc;
    for (const auto model : kModels) {
      opts.model = model;
      p.same.emplace_back(on_a[a], opts);
    }
    // Leave-one-out representatives: the profiles on A and B of the other
    // apps of the same dataset set.
    std::vector<core::Profile> reps_a, reps_b;
    const std::size_t first = a - a % kAppsPerSet;
    for (std::size_t r = first; r < first + kAppsPerSet; ++r)
      if (r != a) {
        reps_a.push_back(on_a[r]);
        reps_b.push_back(on_b[r]);
      }
    opts.model = core::PredictionModel::GlobalReduction;
    p.hetero.emplace_back(core::Predictor(on_a[a], opts),
                          core::compute_scaling_factors(reps_a, reps_b));
  }
  return p;
}

Sweep run_sweep(const std::vector<App>& apps, util::ThreadPool* pool,
                bool traced) {
  const Clusters cl;
  const std::vector<NodeConfig> grid = paper_grid();
  const std::size_t per_app = 2 * grid.size();
  const util::Stopwatch clock;
  Sweep s;

  // Base profiles at 1-1 on both clusters (B feeds the scaling factors).
  s.on_a.resize(apps.size());
  s.on_b.resize(apps.size());
  std::vector<char> profile_ok(2 * apps.size(), 0);
  s.profile_s.assign(2 * apps.size(), 0.0);
  fan_out(pool, 2 * apps.size(), [&](std::size_t i) {
    const App& app = apps[i / 2];
    const bool on_cluster_b = i % 2 == 1;
    auto setup = job(app, on_cluster_b ? cl.b : cl.a, cl.wan, {1, 1});
    const auto o = attach_obs(traced, setup);
    try {
      auto kernel = app.factory();
      const util::Stopwatch t;
      auto profile = core::ProfileCollector::collect(setup, *kernel, pool);
      s.profile_s[i] = t.seconds();
      (on_cluster_b ? s.on_b : s.on_a)[i / 2] = std::move(profile);
      profile_ok[i] = 1;
    } catch (const std::exception&) {
    }
  });
  for (const char ok : profile_ok)
    if (!ok) throw std::runtime_error("a base profile run failed");

  // Exact runs of every configuration, on A and on B.
  s.configs.resize(apps.size() * per_app);
  fan_out(pool, s.configs.size(), [&](std::size_t i) {
    const App& app = apps[i / per_app];
    const std::size_t k = i % per_app;
    const bool on_cluster_b = k >= grid.size();
    auto setup = job(app, on_cluster_b ? cl.b : cl.a, cl.wan,
                     grid[k % grid.size()]);
    const auto o = attach_obs(traced, setup);
    ConfigOutcome& out = s.configs[i];
    try {
      auto kernel = app.factory();
      const util::Stopwatch t;
      const auto result = freeride::Runtime(pool).run(setup, *kernel);
      out.run_s = t.seconds();
      out.exact = result.timing.total.total();
      out.print = fingerprint(result);
      out.passes = result.passes;
      if (o != nullptr)
        out.window_recycles = o->metrics.host_value("store.window_recycles");
      out.ok = true;
    } catch (const std::exception&) {
    }
  });

  // Predictions: three models on A, the hetero set on B.
  const Predictors p = build_predictors(apps, s.on_a, s.on_b, cl);
  double error_sum = 0.0;
  std::size_t error_points = 0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    for (std::size_t k = 0; k < per_app; ++k) {
      const ConfigOutcome& out = s.configs[a * per_app + k];
      if (!out.ok) {
        ++s.failed;
        continue;
      }
      const auto t = target(p.base[a], grid[k % grid.size()], apps[a], cl.wan);
      if (k < grid.size()) {
        for (std::size_t m = 0; m < 3; ++m)
          s.predicted.push_back(p.same[3 * a + m].predict(t).total());
        error_sum += std::fabs(out.exact - s.predicted.back()) / out.exact;
        ++error_points;
      } else {
        s.predicted.push_back(p.hetero[a].predict(t).total());
      }
    }
  }
  s.pred_error_pct =
      error_points > 0 ? 100.0 * error_sum / static_cast<double>(error_points)
                       : 0.0;
  s.seconds = clock.seconds();
  return s;
}

bool same_outputs(const Sweep& a, const Sweep& b) {
  if (a.configs.size() != b.configs.size() || a.predicted != b.predicted)
    return false;
  for (std::size_t i = 0; i < a.configs.size(); ++i)
    if (a.configs[i].print != b.configs[i].print) return false;
  return std::memcmp(&a.pred_error_pct, &b.pred_error_pct,
                     sizeof(double)) == 0;
}

double configs_per_s(const Sweep& s) {
  return static_cast<double>(s.configs.size() - s.failed) / s.seconds;
}

// Serial kernel throughput over the app's own chunks, MB/s of real payload.
double reduce_MBps(const App& app) {
  const auto kernel = app.factory();
  const double bytes = static_cast<double>(app.dataset->total_real_bytes());
  std::vector<double> rates;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t rounds = 0;
    const util::Stopwatch t;
    do {
      // A fresh object per round: some kernels refuse a chunk twice.
      auto obj = kernel->create_object();
      for (const auto& chunk : app.dataset->chunks())
        kernel->process_chunk(chunk, *obj);
      ++rounds;
    } while (t.seconds() < 0.05);
    rates.push_back(static_cast<double>(rounds) * bytes / 1e6 / t.seconds());
  }
  return median(rates);
}

// ns per Predictor / HeteroPredictor call over the sweep's targets.
double predict_ns(const std::vector<App>& apps, const Predictors& p) {
  const Clusters cl;
  const auto grid = paper_grid();
  std::vector<core::ProfileConfig> targets;
  for (std::size_t a = 0; a < apps.size(); ++a)
    for (const auto cfg : grid)
      targets.push_back(target(p.base[a], cfg, apps[a], cl.wan));
  std::vector<double> samples;
  double sink = 0.0;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t calls = 0;
    const util::Stopwatch t;
    for (int round = 0; round < 200; ++round)
      for (std::size_t i = 0; i < targets.size(); ++i) {
        const std::size_t a = i / grid.size();
        for (std::size_t m = 0; m < 3; ++m)
          sink += p.same[3 * a + m].predict(targets[i]).total();
        sink += p.hetero[a].predict(targets[i]).total();
        calls += 4;
      }
    samples.push_back(t.seconds() * 1e9 / static_cast<double>(calls));
  }
  if (!(sink > 0.0)) throw std::runtime_error("predictions summed to zero");
  return median(samples);
}

// Serial kernel time for `passes` passes over the app's chunks.
double kernel_seconds(const App& app, int passes) {
  const auto kernel = app.factory();
  const util::Stopwatch t;
  for (int pass = 0; pass < passes; ++pass) {
    auto obj = kernel->create_object();
    for (const auto& chunk : app.dataset->chunks())
      kernel->process_chunk(chunk, *obj);
  }
  return t.seconds();
}

// Share of serial Runtime::run time not explained by kernel reduce time
// for the same chunks x passes, timed right after each run, over the
// smallest and largest config of the first dataset set.
double runtime_self_pct(const std::vector<App>& apps) {
  const Clusters cl;
  double run_total = 0.0;
  double kernel_total = 0.0;
  for (std::size_t a = 0; a < kAppsPerSet; ++a)
    for (const NodeConfig cfg : {NodeConfig{1, 1}, NodeConfig{8, 16}}) {
      const auto setup = job(apps[a], cl.a, cl.wan, cfg);
      auto kernel = apps[a].factory();
      const util::Stopwatch t;
      const auto result = freeride::Runtime().run(setup, *kernel);
      run_total += t.seconds();
      kernel_total += kernel_seconds(apps[a], result.passes);
    }
  return 100.0 * (run_total - kernel_total) / run_total;
}

}  // namespace

void run_fig_sweep(const Options& opt, Report& report) {
  const auto pool = make_pool();
  record_host(report, pool.get());

  // Set-up: generating the datasets, repeated for a steady median.
  std::vector<double> setup_s;
  std::vector<App> apps;
  for (int rep = 0; rep < 3; ++rep) {
    const util::Stopwatch t;
    apps = generate_apps(opt.seed);
    setup_s.push_back(t.seconds());
  }
  double real_bytes = 0.0;
  for (const auto& app : apps)
    real_bytes += static_cast<double>(app.dataset->total_real_bytes());
  report.info("real_dataset_bytes", std::to_string(real_bytes));
  report.info("configs_per_sweep",
              std::to_string(apps.size() * 2 * paper_grid().size()));

  run_sweep(apps, pool.get(), false);  // warm-up, not measured

  // Measured region: back-to-back sweeps; a traced run alternates untraced
  // and traced sweeps so both see the same machine state.
  std::vector<double> plain_cps, traced_cps, config_ms, run_ms, profile_ms;
  double recycles = 0.0;
  int passes = 0;
  ParallelismMeter meter;
  Sweep last;
  const util::Stopwatch region;
  for (std::size_t i = 0; region.seconds() < opt.seconds || i < 2; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    if (traced) meter.start();
    Sweep s = run_sweep(apps, pool.get(), traced);
    if (traced) meter.stop();
    report.attempted(s.configs.size());
    report.failed(s.failed);
    (traced ? traced_cps : plain_cps).push_back(configs_per_s(s));
    if (!traced)
      for (const auto& c : s.configs) config_ms.push_back(1e3 * c.run_s);
    if (traced) {
      for (const auto& c : s.configs) {
        run_ms.push_back(1e3 * c.run_s);
        recycles += c.window_recycles;
        passes += c.passes;
      }
      for (const double v : s.profile_s) profile_ms.push_back(1e3 * v);
    }
    if (!last.configs.empty())
      report.gate(same_outputs(s, last), "repeated sweeps agree");
    last = std::move(s);
  }
  report.info("sweeps", std::to_string(plain_cps.size() + traced_cps.size()));
  const double peak_rss = peak_rss_mb();

  // Correctness: a fully serial sweep is the reference for every virtual
  // time, reduction object, prediction and the error figure.
  const Sweep reference = run_sweep(apps, nullptr, false);
  report.gate(reference.failed == 0, "serial reference sweep ran");
  report.gate(same_outputs(last, reference),
              "pooled sweep bit-identical to the serial reference");

  // An op is one configuration; the request a client waits for is one
  // configuration's exact run, measured while the sweep runs concurrently.
  report.info("configs_per_s", std::to_string(fast_rate(plain_cps)));
  report.info("pred_error_pct", std::to_string(reference.pred_error_pct));
  report_end_to_end(report, {median(setup_s), peak_rss, fast_rate(plain_cps),
                             median(config_ms)});
  if (!opt.trace) return;

  static const char* const kLayerNames[] = {
      "apps.kmeans.reduce_MBps", "apps.em.reduce_MBps", "apps.knn.reduce_MBps",
      "apps.vortex.reduce_MBps", "apps.defect.reduce_MBps"};
  for (std::size_t a = 0; a < kAppsPerSet; ++a)
    report.layer(kLayerNames[a], reduce_MBps(apps[a]));
  report.layer("freeride.run_ms", median(run_ms));
  report.layer("freeride.self_pct", runtime_self_pct(apps));
  report.layer("core.profile_ms", median(profile_ms));
  report.layer("core.predict_ns",
               predict_ns(apps, build_predictors(apps, last.on_a, last.on_b,
                                                 Clusters())));
  report.layer("core.pred_error_pct", reference.pred_error_pct);
  report.layer("util.pool_parallelism", meter.value());
  report.layer("datagen.generate_s", median(setup_s));
  report.layer("repository.window_recycles", recycles / std::max(1, passes));
  const double plain = fast_rate(plain_cps);
  report.layer("obs.trace_overhead_pct",
               100.0 * (plain - fast_rate(traced_cps)) / plain);
}

}  // namespace fgp::perfbench
