// stream-pass — a multi-pass k-means job over an out-of-core dataset.
//
// The dataset is saved with DatasetStore::save and reopened with
// load_streamed under the default window budget. On disk it is at least
// 4x the last-level cache and many times the window budget, so windows
// recycle on every pass; its chunks are larger than one window, so every
// chunk is stitched across windows. The files stay in the page cache, so
// the throughput measured is page-cache mmap throughput, not device IO.
//
// Why this workload: the store's window mapping, recycling and prefetch
// work happens here and nowhere else, and k-means is the lightest kernel
// per byte, so the data plane's share of the job is largest. Set-up
// exercises save, the write side of the same layer.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <memory>
#include <string>
#include <vector>

#include "apps/kmeans.h"
#include "datagen/points.h"
#include "freeride/runtime.h"
#include "harness.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "repository/store.h"
#include "sim/cluster.h"
#include "sim/network.h"

namespace fgp::perfbench {
namespace {

constexpr int kPasses = 3;
constexpr int kDim = 8;
constexpr std::uint64_t kPointsPerChunk = 8192;  // 512 KiB: > one window
constexpr std::uint64_t kBaseChunks = 64;        // 32 MiB generated

// `base` repeated `factor` times under `name`: every copy aliases the
// generated payload slabs, so only the saved store is large.
repository::ChunkedDataset replicate(const repository::ChunkedDataset& base,
                                     std::size_t factor,
                                     const std::string& name) {
  repository::DatasetMeta meta = base.meta();
  meta.name = name;
  repository::ChunkedDataset out(meta);
  repository::ChunkId next = 0;
  for (std::size_t rep = 0; rep < factor; ++rep)
    for (const auto& c : base.chunks())
      out.add_chunk(
          repository::Chunk(next++, c.payload_buffer(), c.virtual_scale()));
  return out;
}

std::uint64_t bytes_on_disk(const std::filesystem::path& dir) {
  std::uint64_t total = 0;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir))
    if (e.is_regular_file()) total += e.file_size();
  return total;
}

freeride::JobSetup job(const repository::ChunkedDataset& ds) {
  freeride::JobSetup setup;
  setup.dataset = &ds;
  setup.data_cluster = sim::cluster_pentium_myrinet();
  setup.compute_cluster = setup.data_cluster;
  setup.wan = sim::wan_mbps(800.0);
  setup.config.data_nodes = 4;
  setup.config.compute_nodes = 8;
  return setup;
}

struct Job {
  double seconds = 0.0;
  std::vector<std::uint8_t> print;
};

Job run_job(const repository::ChunkedDataset& ds,
            const apps::KMeansParams& params, util::ThreadPool* pool,
            obs::TraceRecorder* trace = nullptr,
            obs::Registry* metrics = nullptr) {
  auto setup = job(ds);
  setup.trace = trace;
  setup.metrics = metrics;
  apps::KMeansKernel kernel(params);
  const util::Stopwatch t;
  const auto result = freeride::Runtime(pool).run(setup, kernel);
  Job j;
  j.seconds = t.seconds();
  j.print = fingerprint(result);
  return j;
}

}  // namespace

void run_stream_pass(const Options& opt, Report& report) {
  const auto pool = make_pool();
  record_host(report, pool.get());

  const std::uint64_t llc = llc_bytes();
  const std::uint64_t base_bytes = kBaseChunks * kPointsPerChunk * kDim * 8;
  const std::uint64_t want = 4 * (llc > 0 ? llc : std::uint64_t{32} << 20);
  const std::size_t factor = (want + base_bytes - 1) / base_bytes;
  const std::string name = "stream-points";
  const repository::StreamConfig cfg;  // the default window budget

  obs::Registry store_metrics;
  const repository::DatasetStore store(opt.scratch / "store");
  const repository::DatasetStore traced_store(opt.scratch / "store", nullptr,
                                              &store_metrics);

  // Set-up: generate, save and open, repeated for a steady median.
  std::vector<double> setup_s, generate_s, save_MBps, open_ms;
  std::unique_ptr<datagen::PointsDataset> base;
  std::unique_ptr<repository::ChunkedDataset> streamed;
  for (int rep = 0; rep < 3; ++rep) {
    streamed.reset();
    const util::Stopwatch t;
    datagen::PointsSpec spec;
    spec.num_points = kBaseChunks * kPointsPerChunk;
    spec.dim = kDim;
    spec.num_components = 8;
    spec.points_per_chunk = kPointsPerChunk;
    spec.seed = opt.seed;
    spec.name = name;
    base = std::make_unique<datagen::PointsDataset>(
        datagen::generate_points(spec));
    generate_s.push_back(t.seconds());
    const auto full = replicate(base->dataset, factor, name);
    const double t_save = t.seconds();
    store.save(full, pool.get());
    const double t_open = t.seconds();
    save_MBps.push_back(static_cast<double>(full.total_real_bytes()) / 1e6 /
                        (t_open - t_save));
    streamed = std::make_unique<repository::ChunkedDataset>(
        store.load_streamed(name, cfg, pool.get()));
    const double t_end = t.seconds();
    open_ms.push_back(1e3 * (t_end - t_open));
    setup_s.push_back(t_end);
  }
  const double payload = static_cast<double>(streamed->total_real_bytes());
  report.info("dataset_bytes_on_disk",
              std::to_string(bytes_on_disk(opt.scratch / "store" / name)));
  report.info("dataset_payload_bytes", std::to_string(payload));
  report.info("window_budget_bytes", std::to_string(cfg.budget_bytes));
  report.info("window_bytes", std::to_string(cfg.window_bytes));
  report.info("chunks", std::to_string(streamed->chunk_count()));
  report.info("io", "page-cache mmap (files stay cached), not device IO");

  apps::KMeansParams params;
  params.dim = kDim;
  params.initial_centers =
      apps::initial_centers_from_dataset(base->dataset, params.k, kDim);
  params.fixed_passes = kPasses;
  const auto traced_ds = std::make_unique<repository::ChunkedDataset>(
      traced_store.load_streamed(name, cfg, pool.get()));
  run_job(*streamed, params, pool.get());  // warm-up, not measured

  // Measured region: back-to-back jobs; a traced run alternates untraced
  // and traced jobs.
  std::vector<double> plain_MBps, traced_MBps, plain_job_ms, run_ms;
  std::vector<std::uint8_t> first_print;
  ParallelismMeter meter;
  obs::TraceRecorder trace;
  trace.enable_host(true);
  obs::Registry job_metrics;
  int traced_passes = 0;
  const util::Stopwatch region;
  for (std::size_t i = 0; region.seconds() < opt.seconds || i < 2; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    report.attempted(1);
    if (traced) meter.start();
    const Job j = traced ? run_job(*traced_ds, params, pool.get(), &trace,
                                   &job_metrics)
                         : run_job(*streamed, params, pool.get());
    if (traced) meter.stop();
    trace.clear();
    const double rate = kPasses * payload / 1e6 / j.seconds;
    if (traced) {
      traced_MBps.push_back(rate);
      run_ms.push_back(1e3 * j.seconds);
      traced_passes += kPasses;
    } else {
      plain_MBps.push_back(rate);
      plain_job_ms.push_back(1e3 * j.seconds);
    }
    if (first_print.empty()) first_print = j.print;
    report.gate(j.print == first_print, "repeated streamed jobs agree");
  }
  report.info("jobs", std::to_string(plain_MBps.size() + traced_MBps.size()));
  const double peak_rss = peak_rss_mb();

  // The in-memory twin: the same store loaded whole (zero-copy mapped,
  // every checksum verified up front) over the same page-cache pages.
  const auto in_memory = store.load_mapped(name, pool.get());
  // Correctness: the streamed job must match the in-memory job bit for bit.
  report.gate(run_job(in_memory, params, pool.get()).print == first_print,
              "streamed job bit-identical to the in-memory job");

  // An op is one chunk reduced in one pass; the request a client waits
  // for is the whole job.
  const double chunk_bytes =
      payload / static_cast<double>(streamed->chunk_count());
  const double stream_MBps = fast_rate(plain_MBps);
  report.info("stream_MBps", std::to_string(stream_MBps));
  report_end_to_end(report, {median(setup_s), peak_rss,
                             stream_MBps * 1e6 / chunk_bytes,
                             median(plain_job_ms)});
  if (!opt.trace) return;

  // Kernel throughput over the workload's own (generated) chunks.
  const auto kernel = std::make_unique<apps::KMeansKernel>(params);
  std::vector<double> rates;
  const double base_mb = static_cast<double>(base_bytes) / 1e6;
  for (int rep = 0; rep < 5; ++rep) {
    std::size_t rounds = 0;
    const util::Stopwatch t;
    do {
      auto obj = kernel->create_object();
      for (const auto& chunk : base->dataset.chunks())
        kernel->process_chunk(chunk, *obj);
      ++rounds;
    } while (t.seconds() < 0.1);
    rates.push_back(static_cast<double>(rounds) * base_mb / t.seconds());
  }
  const double reduce = median(rates);
  report.layer("apps.kmeans.reduce_MBps", reduce);
  report.layer("freeride.run_ms", median(run_ms));
  {
    // Runtime self time: a serial in-memory run of the same job over one
    // copy of the chunks against the kernel time for chunks x passes,
    // timed right after it.
    const Job serial = run_job(base->dataset, params, nullptr);
    const util::Stopwatch t;
    for (int pass = 0; pass < kPasses; ++pass) {
      auto obj = kernel->create_object();
      for (const auto& chunk : base->dataset.chunks())
        kernel->process_chunk(chunk, *obj);
    }
    const double kernel_s = t.seconds();
    report.layer("freeride.self_pct",
                 100.0 * (serial.seconds - kernel_s) / serial.seconds);
  }
  report.layer("util.pool_parallelism", meter.value());
  report.layer("datagen.generate_s", median(generate_s));
  report.layer("repository.save_MBps", median(save_MBps));
  report.layer("repository.open_ms", median(open_ms));
  const double hits = store_metrics.host_value("store.prefetch_hits");
  const double misses = store_metrics.host_value("store.prefetch_misses");
  report.layer("repository.prefetch_hit_rate",
               hits + misses > 0 ? hits / (hits + misses) : 0.0);
  const double passes = std::max(1, traced_passes);
  report.layer("repository.window_recycles",
               store_metrics.host_value("store.window_recycles") / passes);
  report.layer("repository.stitched_chunks",
               (store_metrics.value("store.stitched_chunks") +
                job_metrics.value("store.stitched_chunks")) /
                   passes);
  {
    // Streamed versus in-memory passes of the same job, interleaved.
    std::vector<double> mem_s, str_s;
    for (int rep = 0; rep < 3; ++rep) {
      mem_s.push_back(run_job(in_memory, params, pool.get()).seconds);
      str_s.push_back(run_job(*streamed, params, pool.get()).seconds);
    }
    const double s = median(str_s);
    report.layer("repository.io_self_pct", 100.0 * (s - median(mem_s)) / s);
  }
  const double plain = fast_rate(plain_MBps);
  report.layer("obs.trace_overhead_pct",
               100.0 * (plain - fast_rate(traced_MBps)) / plain);
}

}  // namespace fgp::perfbench
