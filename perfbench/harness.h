// harness.h — shared plumbing of the benchmark binary: run options, host
// facts, sample statistics and the report every workload fills in.
//
// A run prints human-readable context lines first and, as its last line,
// one JSON object {"correct", "attempted", "failed", "metrics"}. An
// untraced run (--trace 0) reports the end-to-end metrics, the same set on
// every workload, each over that workload's own unit of work (see
// report_end_to_end); a traced run (--trace 1) reports every per-layer
// metric, zero where the workload does not exercise that layer, so the
// layer split is visible.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "util/thread_pool.h"
#include "util/wallclock.h"

namespace fgp::freeride {
struct RunResult;
}  // namespace fgp::freeride

namespace fgp::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;  ///< length of the measured region
  bool trace = false;
  /// Directory for the run's on-disk data; removed when the run ends.
  std::filesystem::path scratch;
};

/// CPUs this process may run on (what `nproc` prints).
int host_cores();
/// Last-level cache size in bytes from sysfs, 0 when unknown.
std::uint64_t llc_bytes();
/// Peak resident set of the process so far, MB (getrusage ru_maxrss).
double peak_rss_mb();
/// User + system CPU seconds consumed by the whole process so far.
double cpu_seconds();

/// The run's only thread pool: host_cores() - 2 workers. The caller of
/// util::ThreadPool::parallel_for works on its own range, so the process
/// computes on at most host_cores() - 1 threads and leaves one CPU free:
/// on the shared 4-vCPU host the benchmark was tuned on, a thread on every
/// CPU widened the run-to-run spread of every workload's throughput and
/// latency (a descheduled thread stalls each parallel_for). Null when that
/// leaves no worker (every caller then runs serially).
std::unique_ptr<util::ThreadPool> make_pool();
/// Threads the process computes on: the caller plus the pool's workers.
std::size_t threads_used(const util::ThreadPool* pool);

/// Runs fn(i) for i in [0, n) over `pool`, or serially when it is null.
void fan_out(util::ThreadPool* pool, std::size_t n,
             const std::function<void(std::size_t)>& fn);

/// The bytes a determinism gate compares: the serialized reduction object
/// followed by the bit patterns of every virtual-time figure of the job.
std::vector<std::uint8_t> fingerprint(const freeride::RunResult& result);

double median(std::vector<double> v);
/// Nearest-rank quantile, q in [0, 1].
double quantile(std::vector<double> v, double q);
/// A run's throughput from the rates of repeated iterations of identical
/// work: their 90th percentile. CPU steal from neighbouring virtual
/// machines (5-18% of CPU time on the 4-vCPU reference host) slows
/// arbitrary iterations, so the fast tail tracks the program and not its
/// neighbours.
double fast_rate(std::vector<double> rates);
/// A tail percentile that bursty interference cannot dominate: the
/// q-quantile of each run of `window` consecutive samples, medianed over
/// the windows (a trailing partial window is dropped; with no full window,
/// the plain quantile of all samples).
double windowed_quantile(const std::vector<double>& samples, double q,
                         std::size_t window);

/// Busy-over-wall meter: process CPU time consumed between start() and
/// stop() divided by the wall time between them, summed over intervals.
class ParallelismMeter {
 public:
  void start();
  void stop();
  double value() const { return wall_ > 0.0 ? cpu_ / wall_ : 0.0; }

 private:
  util::Stopwatch clock_;
  double cpu0_ = 0.0;
  double cpu_ = 0.0;
  double wall_ = 0.0;
};

class Report {
 public:
  explicit Report(bool traced);

  /// An end-to-end metric (untraced runs only).
  void metric(const std::string& name, double value, const std::string& unit);
  /// A per-layer metric (traced runs only). Every per-layer name is
  /// pre-registered at zero; setting an unknown name is a harness bug.
  void layer(const std::string& name, double value);
  /// A context line recorded with the run (host facts, sizes).
  void info(const std::string& key, const std::string& value);

  void attempted(std::size_t n) { attempted_ += n; }
  void failed(std::size_t n) { failed_ += n; }
  /// Records a correctness gate; a false gate fails the run.
  void gate(bool ok, const std::string& what);

  /// Prints the report and its JSON result line; returns the exit code
  /// (nonzero when a gate failed).
  int print() const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  bool traced_;
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> info_;
  std::vector<std::string> failed_gates_;
  std::size_t gates_ = 0;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
};

/// Records the host facts every run carries.
void record_host(Report& report, const util::ThreadPool* pool);

/// The end-to-end metrics every workload reports, each over the workload's
/// own unit of work (an "op": a configuration, a query, a chunk reduced).
struct EndToEnd {
  double setup_s = 0.0;      ///< median set-up time of the run
  double peak_rss_mb = 0.0;  ///< after the measured region
  double ops_per_s = 0.0;    ///< fast rate of ops completed
  double op_p50_ms = 0.0;    ///< median latency of one client request
};
void report_end_to_end(Report& report, const EndToEnd& e);

void run_fig_sweep(const Options& opt, Report& report);
void run_service_stream(const Options& opt, Report& report);
void run_stream_pass(const Options& opt, Report& report);

}  // namespace fgp::perfbench
