// qosbench — the repository benchmark program.
//
//   qosbench --workload paper-qos|serve-fleet|serve-churn --seed N
//            --seconds S --trace 0|1 [--commit SHA] [--work-dir DIR]
//
// Prints a provenance line, every metric by name with its unit, the
// correctness-check verdicts, and as the last line one JSON object:
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end ones, with --trace 1 the per-layer ones.
// Exit code 0 when every check passed, 1 when one failed, 2 on bad usage.
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "paper_qos.hpp"
#include "serve_fleet.hpp"
#include "stats.hpp"

namespace {

using namespace qosbench;

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) < 0x80000004) return "unknown";
  for (unsigned leaf = 0; leaf < 3; ++leaf) {
    __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
  }
  char text[49] = {};
  std::memcpy(text, regs, 48);
  std::string model(text);
  const auto first = model.find_first_not_of(' ');
  return first == std::string::npos ? "unknown" : model.substr(first);
#else
  return "unknown";
#endif
}

void print_number(double v) {
  if (v == std::floor(v) && std::fabs(v) < 1e15) {
    std::printf("%.0f", v);
  } else {
    std::printf("%.17g", v);
  }
}

int usage(const char* why) {
  std::fprintf(stderr,
               "qosbench: %s\nusage: qosbench --workload "
               "paper-qos|serve-fleet|serve-churn --seed N --seconds S "
               "--trace 0|1 [--commit SHA] [--work-dir DIR]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  std::string commit = "unknown";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string key = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + key).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (key == "--workload") {
      opts.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      opts.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return usage("--seed wants an unsigned integer");
    } else if (key == "--seconds") {
      opts.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opts.seconds > 0.0) || opts.seconds > 120.0) {
        return usage("--seconds wants a number in (0, 120]");
      }
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return usage("--trace wants 0 or 1");
      opts.trace = value == "1";
    } else if (key == "--commit") {
      commit = value;
    } else if (key == "--work-dir") {
      opts.work_dir = value;
    } else {
      return usage(("unknown flag " + key).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  Result res;
  if (opts.workload == "paper-qos") {
    res = run_paper_qos(opts);
  } else if (opts.workload == "serve-fleet") {
    res = run_serve(opts, serve_fleet_workload());
  } else if (opts.workload == "serve-churn") {
    res = run_serve(opts, serve_churn_workload());
  } else {
    return usage(("unknown workload " + opts.workload).c_str());
  }

  std::printf("provenance cpu=\"%s\" hw_jobs=%u commit=%s build=%s "
              "workload=%s seed=%llu seconds=%g trace=%d\n",
              cpu_model().c_str(), std::thread::hardware_concurrency(),
              commit.c_str(), QOSBENCH_BUILD_TYPE, opts.workload.c_str(),
              static_cast<unsigned long long>(opts.seed), opts.seconds,
              opts.trace ? 1 : 0);
  for (const auto& m : res.detail) {
    std::printf("detail %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : res.metrics) {
    std::printf("metric %s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  for (const auto& m : res.metrics) {
    if (!std::isfinite(m.value)) res.check("finite " + m.name, false);
  }
  for (const auto& c : res.checks) std::printf("check %s\n", c.c_str());
  std::printf("attempted %llu failed %llu correct %s\n",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed),
              res.correct ? "true" : "false");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              res.correct ? "true" : "false",
              static_cast<unsigned long long>(res.attempted),
              static_cast<unsigned long long>(res.failed));
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const auto& m = res.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    print_number(std::isfinite(m.value) ? m.value : -1.0);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return res.correct ? 0 : 1;
}
