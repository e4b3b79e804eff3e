#include "harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "freeride/runtime.h"
#include "util/serial.h"

namespace fgp::perfbench {
namespace {

// Every per-layer metric, in report order, with its unit. A traced run
// prints all of them; layers a workload never calls stay at zero.
const std::vector<std::pair<std::string, std::string>>& layer_table() {
  static const std::vector<std::pair<std::string, std::string>> table = {
      {"apps.kmeans.reduce_MBps", "MB/s"},
      {"apps.em.reduce_MBps", "MB/s"},
      {"apps.knn.reduce_MBps", "MB/s"},
      {"apps.vortex.reduce_MBps", "MB/s"},
      {"apps.defect.reduce_MBps", "MB/s"},
      {"freeride.run_ms", "ms"},
      {"freeride.self_pct", "%"},
      {"core.profile_ms", "ms"},
      {"core.predict_ns", "ns"},
      {"core.pred_error_pct", "%"},
      {"util.pool_parallelism", "ratio"},
      {"datagen.generate_s", "s"},
      {"repository.save_MBps", "MB/s"},
      {"repository.open_ms", "ms"},
      {"repository.prefetch_hit_rate", "ratio"},
      {"repository.window_recycles", "1/pass"},
      {"repository.stitched_chunks", "1/pass"},
      {"repository.io_self_pct", "%"},
      {"service.batch_ms", "ms"},
      {"service.prepare_ms", "ms"},
      {"service.shard_load_ms", "ms"},
      {"service.evaluate_ms", "ms"},
      {"service.candidates_per_query", "count"},
      {"service.ns_per_candidate", "ns"},
      {"service.profile_cache_hit_rate", "ratio"},
      {"service.recompile_ms", "ms"},
      {"service.query_p99_us", "us"},
      {"service.publish_p50_ms", "ms"},
      {"service.publish_p90_ms", "ms"},
      {"obs.trace_overhead_pct", "%"},
  };
  return table;
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

}  // namespace

int host_cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0)
    return std::max(1, CPU_COUNT(&set));
  return std::max(1u, std::thread::hardware_concurrency());
}

std::uint64_t llc_bytes() {
  std::uint64_t best = 0;
  int best_level = 0;
  for (int i = 0; i < 8; ++i) {
    const std::string dir =
        "/sys/devices/system/cpu/cpu0/cache/index" + std::to_string(i) + "/";
    std::ifstream level_in(dir + "level");
    std::ifstream size_in(dir + "size");
    int level = 0;
    std::string size;
    if (!(level_in >> level) || !(size_in >> size) || size.empty()) continue;
    std::uint64_t bytes = std::stoull(size);
    if (size.back() == 'K') bytes <<= 10;
    if (size.back() == 'M') bytes <<= 20;
    if (level >= best_level) {
      best_level = level;
      best = bytes;
    }
  }
  return best;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return secs(ru.ru_utime) + secs(ru.ru_stime);
}

std::unique_ptr<util::ThreadPool> make_pool() {
  const int workers = host_cores() - 2;
  if (workers <= 0) return nullptr;
  return std::make_unique<util::ThreadPool>(static_cast<std::size_t>(workers));
}

std::size_t threads_used(const util::ThreadPool* pool) {
  return 1 + (pool != nullptr ? pool->size() : 0);
}

void fan_out(util::ThreadPool* pool, std::size_t n,
             const std::function<void(std::size_t)>& fn) {
  if (pool != nullptr) {
    pool->parallel_for(n, fn);
  } else {
    for (std::size_t i = 0; i < n; ++i) fn(i);
  }
}

std::vector<std::uint8_t> fingerprint(const freeride::RunResult& result) {
  util::ByteWriter w;
  if (result.result != nullptr) result.result->serialize(w);
  const auto put = [&w](const freeride::TimingBreakdown& t) {
    for (const double v : {t.disk, t.network, t.compute_local, t.ro_comm,
                           t.global_red})
      w.put_f64(v);
  };
  put(result.timing.total);
  w.put_f64(result.timing.elapsed);
  w.put_f64(result.timing.max_object_bytes);
  for (const auto& pass : result.timing.passes) {
    put(pass.timing);
    w.put_f64(pass.elapsed);
    w.put_f64(pass.max_object_bytes);
    for (const double v : pass.node_compute) w.put_f64(v);
  }
  w.put_i64(result.passes);
  return w.bytes();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()));
  const std::size_t i =
      rank < 1.0 ? 0
                 : std::min(v.size() - 1, static_cast<std::size_t>(rank) - 1);
  return v[i];
}

double fast_rate(std::vector<double> rates) {
  return quantile(std::move(rates), 0.9);
}

double windowed_quantile(const std::vector<double>& samples, double q,
                         std::size_t window) {
  std::vector<double> per_window;
  for (std::size_t i = 0; i + window <= samples.size(); i += window)
    per_window.push_back(quantile(
        {samples.begin() + static_cast<std::ptrdiff_t>(i),
         samples.begin() + static_cast<std::ptrdiff_t>(i + window)},
        q));
  return per_window.empty() ? quantile(samples, q) : median(per_window);
}

void ParallelismMeter::start() {
  clock_.reset();
  cpu0_ = cpu_seconds();
}

void ParallelismMeter::stop() {
  wall_ += clock_.seconds();
  cpu_ += cpu_seconds() - cpu0_;
}

Report::Report(bool traced) : traced_(traced) {
  if (traced_)
    for (const auto& [name, unit] : layer_table())
      metrics_.push_back({name, 0.0, unit});
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (traced_) return;  // traced numbers never mix with end-to-end ones
  metrics_.push_back({name, value, unit});
}

void Report::layer(const std::string& name, double value) {
  if (!traced_) return;
  for (auto& m : metrics_)
    if (m.name == name) {
      m.value = value;
      return;
    }
  throw std::logic_error("unknown per-layer metric " + name);
}

void Report::info(const std::string& key, const std::string& value) {
  info_.emplace_back(key, value);
}

void Report::gate(bool ok, const std::string& what) {
  ++gates_;
  if (!ok) failed_gates_.push_back(what);
}

int Report::print() const {
  bool finite = true;
  for (const auto& [key, value] : info_)
    std::cout << "# " << key << ": " << value << "\n";
  for (const auto& m : metrics_) {
    std::cout << "# " << m.name << " = " << number(m.value) << " " << m.unit
              << "\n";
    finite = finite && std::isfinite(m.value);
  }
  const double failed_pct =
      attempted_ > 0 ? 100.0 * static_cast<double>(failed_) /
                           static_cast<double>(attempted_)
                     : 0.0;
  std::cout << "# ops_failed_pct = " << number(failed_pct) << " % ("
            << failed_ << " of " << attempted_ << ")\n";
  std::cout << "# correctness gates: " << gates_ - failed_gates_.size()
            << " of " << gates_ << " passed\n";
  for (const auto& g : failed_gates_)
    std::cerr << "perfbench: correctness gate failed: " << g << "\n";
  if (!finite) std::cerr << "perfbench: a metric is not finite\n";

  const bool correct =
      failed_gates_.empty() && finite && failed_ == 0 && attempted_ > 0;
  std::string line = "{\"correct\": ";
  line += correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted_);
  line += ", \"failed\": " + std::to_string(failed_);
  line += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    if (i > 0) line += ", ";
    line += quoted(m.name) + ": {\"value\": " +
            (std::isfinite(m.value) ? number(m.value) : std::string("0")) +
            ", \"unit\": " + quoted(m.unit) + "}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}

void record_host(Report& report, const util::ThreadPool* pool) {
  report.info("host_cores", std::to_string(host_cores()));
  report.info("threads_used", std::to_string(threads_used(pool)));
  report.info("llc_bytes", std::to_string(llc_bytes()));
}

void report_end_to_end(Report& report, const EndToEnd& e) {
  report.metric("setup_s", e.setup_s, "s");
  report.metric("peak_rss_mb", e.peak_rss_mb, "MB");
  report.metric("ops_per_s", e.ops_per_s, "1/s");
  report.metric("op_p50_ms", e.op_p50_ms, "ms");
}

}  // namespace fgp::perfbench
