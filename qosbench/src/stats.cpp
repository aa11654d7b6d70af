#include "stats.hpp"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>

#include "sim/simulator.hpp"

namespace qosbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

namespace {
std::int64_t clock_ns(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}
}  // namespace

std::int64_t thread_cpu_ns() { return clock_ns(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double sim_noop_event_ns(std::uint64_t events) {
  if (events == 0) return 0.0;
  fdqos::sim::Simulator simulator;
  std::uint64_t left = events;
  std::function<void(std::int64_t)> tick = [&](std::int64_t step) {
    if (left == 0) return;
    --left;
    simulator.schedule_after(fdqos::Duration::nanos(step),
                             [&tick, step] { tick(step); });
  };
  for (std::int64_t chain = 1; chain <= 4; ++chain) {
    simulator.schedule_at(fdqos::TimePoint::origin(),
                          [&tick, chain] { tick(chain * 1000 + 7); });
  }
  const std::int64_t t0 = now_ns();
  const std::uint64_t ran = simulator.run();
  return static_cast<double>(now_ns() - t0) / static_cast<double>(ran);
}

double quantile(std::vector<double>& values, double q) {
  if (values.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(values.size() - 1, q * (values.size() - 1) + 0.5));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

double median(std::vector<double> values) { return quantile(values, 0.5); }

std::int64_t quantile_ns(std::vector<std::int64_t>& values, double q) {
  if (values.empty()) return 0;
  const auto rank = static_cast<std::size_t>(
      std::min<double>(values.size() - 1, q * (values.size() - 1) + 0.5));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return values[rank];
}

std::uint64_t fnv1a(const std::string& text) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

void Result::check(const std::string& name, bool ok, const std::string& why) {
  checks.push_back(std::string(ok ? "PASS " : "FAIL ") + name +
                   (ok || why.empty() ? "" : ": " + why));
  if (!ok) correct = false;
}

}  // namespace qosbench
