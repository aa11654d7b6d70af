// Shared plumbing of the benchmark: clocks, order statistics, process
// facts and the result record every workload fills in.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qosbench {

// steady_clock in nanoseconds — the clock ServeDaemon runs on, so a due
// time stamped by the generator and a drain time stamped by the daemon
// are directly comparable.
std::int64_t now_ns();
// CPU time of the calling thread, nanoseconds.
std::int64_t thread_cpu_ns();
// Peak resident set of this process so far, MB (getrusage ru_maxrss).
double peak_rss_mb();

// Cost of one sim::Simulator event that does nothing, measured over
// `events` events with four pending at a time, the queue depth of the
// benchmarked simulators. Prices the event queue apart from the detector
// callbacks it dispatches.
double sim_noop_event_ns(std::uint64_t events);

// Order statistics over a copy-free scratch vector (reordered in place).
// q in [0, 1]; nearest-rank on the sorted sample. Empty input yields 0.
double quantile(std::vector<double>& values, double q);
double median(std::vector<double> values);

// Exact quantiles of a large int64 sample (nanoseconds), reordered in place.
std::int64_t quantile_ns(std::vector<std::int64_t>& values, double q);

// 64-bit FNV-1a, used to pin report fingerprints.
std::uint64_t fnv1a(const std::string& text);

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// What one benchmark invocation produced. `metrics` become the JSON
// object of the last stdout line; `detail` and `checks` are the
// human-readable lines printed before it.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> detail;
  std::vector<std::string> checks;

  void metric(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void note(std::string name, double value, std::string unit) {
    detail.push_back({std::move(name), value, std::move(unit)});
  }
  // Records a correctness check; a failing one makes the run incorrect
  // and prints `why`.
  void check(const std::string& name, bool ok, const std::string& why = "");
};

struct Options {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  bool trace = false;
  // Scratch directory for capture segments; created and emptied by the
  // run, always inside the working directory.
  std::string work_dir = ".bench_out";
};

}  // namespace qosbench
