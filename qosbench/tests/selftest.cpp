// Self-tests of the benchmark: the load generator, the capture read-back
// and the traced ingest loop. Build and run from the repository root:
//
//   cmake -S qosbench -B .bench_build
//   cmake --build .bench_build --target qosbench_selftest
//   .bench_build/qosbench_selftest
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <set>
#include <thread>

#include "exp/report.hpp"
#include "load.hpp"
#include "net/codec.hpp"
#include "net/udp_ingest.hpp"
#include "paper_qos.hpp"
#include "serve_fleet.hpp"
#include "stats.hpp"

namespace qosbench {
namespace {

using namespace fdqos;
namespace fs = std::filesystem;

fs::path scratch_dir(const std::string& name) {
  const fs::path dir = fs::path(".bench_out") / "selftest" / name;
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir;
}

TEST(Schedule, PhasesAreEvenAndSeqRunsOnSchedule) {
  const Schedule sched{1000, 500'000'000};
  for (std::uint64_t i = 0; i < 5000; ++i) {
    EXPECT_EQ(sched.due(i + 1) - sched.due(i), 500'000);
    const std::size_t e = sched.endpoint(i);
    const std::int64_t seq = sched.seq(i);
    // Heartbeat seq of endpoint e is due at seq·η + e·η/M.
    EXPECT_EQ(sched.due(i), seq * 500'000'000 + static_cast<std::int64_t>(e) * 500'000);
  }
}

TEST(CrashPlan, ReproduciblePerSeed) {
  LoadSpec spec;
  spec.endpoints = 2000;
  spec.crashes = LoadSpec::Crashes::kRecovering;
  const CrashPlan a(spec, 7, 20'000'000'000);
  const CrashPlan b(spec, 7, 20'000'000'000);
  const CrashPlan c(spec, 8, 20'000'000'000);
  ASSERT_EQ(a.crash_count(), b.crash_count());
  bool differs = a.crash_count() != c.crash_count();
  for (std::size_t e = 0; e < spec.endpoints; ++e) {
    ASSERT_EQ(a.end(e) - a.begin(e), b.end(e) - b.begin(e));
    for (auto x = a.begin(e), y = b.begin(e); x != a.end(e); ++x, ++y) {
      EXPECT_EQ(x->start, y->start);
      EXPECT_EQ(x->end, y->end);
    }
    if (!differs && (c.end(e) - c.begin(e) != a.end(e) - a.begin(e) ||
                     (a.begin(e) != a.end(e) &&
                      a.begin(e)->start != c.begin(e)->start))) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

TEST(CrashPlan, RecoveringFollowsSimCrashModel) {
  LoadSpec spec;
  spec.endpoints = 500;
  spec.crashes = LoadSpec::Crashes::kRecovering;
  spec.eta_ns = 100;
  const std::int64_t mttc = kMttcPeriods * spec.eta_ns;
  const std::int64_t ttr = kTtrPeriods * spec.eta_ns;
  const CrashPlan plan(spec, 3, 100'000);
  for (std::size_t e = 0; e < spec.endpoints; ++e) {
    ASSERT_NE(plan.begin(e), plan.end(e));
    EXPECT_LE(plan.begin(e)->start, mttc);
    for (auto it = plan.begin(e); it != plan.end(e); ++it) {
      EXPECT_EQ(it->end - it->start, ttr);
      if (it + 1 != plan.end(e)) {
        const std::int64_t gap = (it + 1)->start - it->end;
        EXPECT_GE(gap, mttc / 2);
        EXPECT_LE(gap, mttc * 3 / 2);
      }
    }
  }
}

TEST(CrashPlan, StopCrashesTheSharedFractionInsideTheWindow) {
  LoadSpec spec;
  spec.endpoints = 10'000;
  spec.crashes = LoadSpec::Crashes::kStop;
  const CrashPlan plan(spec, 11, 10'000'000'000);
  EXPECT_EQ(plan.crash_count(), 100u);
  for (std::size_t e = 0; e < spec.endpoints; ++e) {
    for (auto it = plan.begin(e); it != plan.end(e); ++it) {
      EXPECT_GE(it->start, 2'000'000'000);
      EXPECT_LE(it->start, 7'000'000'000);
      EXPECT_TRUE(plan.down(e, 9'999'999'999));
      EXPECT_FALSE(plan.down(e, it->start - 1));
    }
  }
}

// The generator on a real socket: every record is stamped with its
// datagram's due time, which lies between the record's own due time and
// that plus the flush delay, and each endpoint's seqs arrive in order
// without gaps.
TEST(Generator, PacksRecordsOnSchedule) {
  LoadSpec spec;
  spec.endpoints = 400;
  spec.eta_ns = 100'000'000;
  spec.records = 16;
  const CrashPlan plan(spec, 1, 300'000'000);
  net::UdpIngestSocket::Options opts;
  opts.batch = 64;
  net::UdpIngestSocket socket(opts);
  ASSERT_TRUE(socket.ok());
  SendReport report;
  const std::int64_t t0 = now_ns();
  ASSERT_TRUE(send_load(spec, plan, socket.local_port(), t0, 300'000'000, report));
  EXPECT_GE(report.offered_frac(), 0.98);
  std::vector<std::int64_t> next_seq(spec.endpoints, 0);
  std::uint64_t records = 0;
  const Schedule sched{spec.endpoints, spec.eta_ns};
  for (std::size_t n; (n = socket.recv_batch()) > 0;) {
    for (std::size_t i = 0; i < n; ++i) {
      net::PackedBatchView view;
      ASSERT_TRUE(net::decode_packed_batch(socket.datagram(i), view));
      net::HeartbeatFrame frame;
      for (std::uint32_t j = 0; j < view.count(); ++j) {
        view.get(j, frame);
        const auto e = static_cast<std::size_t>(frame.from);
        ASSERT_LT(e, spec.endpoints);
        EXPECT_EQ(frame.seq, next_seq[e]);
        next_seq[e] = frame.seq + 1;
        const std::int64_t own_due =
            sched.due(static_cast<std::uint64_t>(frame.seq) * spec.endpoints + e);
        const std::int64_t stamp = frame.send_time.count_nanos() - t0;
        EXPECT_GE(stamp, own_due);
        EXPECT_LE(stamp, own_due + kFlushNs);
        ++records;
      }
    }
  }
  EXPECT_EQ(records, report.offered);
}

TEST(Capture, LagAndCutoffReadBackExactly) {
  const fs::path dir = scratch_dir("capture");
  const std::int64_t grid = 5'000;
  const std::int64_t epsilon = 1'234;  // daemon start after generator t0
  std::vector<std::string> segments;
  {
    wan::RotatingFdtWriter::Options opts;
    opts.directory = dir.string();
    opts.prefix = "synthetic";
    opts.max_samples = 300;
    wan::RotatingFdtWriter writer(opts);
    for (std::int64_t i = 0; i < 1000; ++i) {
      const std::int64_t due = i * grid;
      ASSERT_TRUE(writer.append(TimePoint::from_nanos(due - epsilon),
                                Duration::nanos(1000 + i)));
    }
    ASSERT_TRUE(writer.finalize());
    segments = writer.segments();
  }
  ASSERT_EQ(segments.size(), 4u);
  std::vector<std::int64_t> lag;
  std::uint64_t before = 0;
  std::string error;
  EXPECT_EQ(read_capture(segments, grid, 600 * grid, lag, before, error), 1000);
  EXPECT_EQ(before, 600u);
  ASSERT_EQ(lag.size(), 1000u);
  for (std::int64_t i = 0; i < 1000; ++i) EXPECT_EQ(lag[i], 1000 + i);
  EXPECT_EQ(quantile_ns(lag, 0.5), 1000 + 500);
  fs::remove_all(dir);
}

TEST(Capture, UnreadableSegmentIsAnError) {
  std::vector<std::int64_t> lag;
  std::uint64_t before = 0;
  std::string error;
  EXPECT_EQ(read_capture({".bench_out/selftest/missing.fdt"}, 1, 0, lag,
                         before, error),
            -1);
  EXPECT_FALSE(error.empty());
}

// Both ingest loops fed the same timing-free load: every heartbeat of 30
// periods sent at once (seq far ahead of the clock), with 1 % of the
// endpoints stopping early. At the stop, 2 s in, exactly the stopped
// endpoints are suspected, and the two loops agree on every count.
struct Ingested {
  serve::ServeDaemon::Stats stats;
  std::vector<std::int64_t> max_seq;
  std::set<std::size_t> suspected;
};

template <class Loop>
Ingested ingest_burst(Loop& loop, const LoadSpec& spec, const CrashPlan& plan) {
  std::thread runner([&] { loop.run(); });
  SendReport report;
  EXPECT_TRUE(send_burst(spec, plan, loop.udp_port(), 30, report));
  std::this_thread::sleep_for(std::chrono::seconds(2));
  loop.request_stop();
  runner.join();
  Ingested out;
  out.stats = loop.stats();
  for (std::size_t e = 0; e < spec.endpoints; ++e) {
    const std::size_t slot = loop.ingest().slot_of(static_cast<net::NodeId>(e));
    if (slot >= loop.ingest().capacity()) {
      out.max_seq.push_back(-1);
      continue;
    }
    const auto& member = loop.fleet().member(slot);
    out.max_seq.push_back(member.max_seq());
    if (member.suspecting_count() > 0) out.suspected.insert(e);
  }
  EXPECT_EQ(report.offered, out.stats.heartbeats);
  return out;
}

void expect_loops_agree(std::size_t endpoints, std::size_t records) {
  LoadSpec spec;
  spec.endpoints = endpoints;
  spec.eta_ns = 100'000'000;
  spec.records = records;
  spec.crashes = LoadSpec::Crashes::kStop;
  // A 2 s plan puts the stops in [0.4, 1.4] s of the 3 s the burst covers,
  // so each stopped endpoint is overdue well before the loops stop at 2 s.
  const CrashPlan plan(spec, 5, 2'000'000'000);
  std::set<std::size_t> stopped;
  for (std::size_t e = 0; e < endpoints; ++e) {
    if (plan.begin(e) != plan.end(e)) stopped.insert(e);
  }
  ASSERT_FALSE(stopped.empty());

  serve::ServeConfig cfg;
  cfg.max_endpoints = endpoints;
  cfg.eta = Duration::nanos(spec.eta_ns);
  cfg.capture_dir = scratch_dir("loops-" + std::to_string(records)).string();

  cfg.capture_prefix = "daemon";
  serve::ServeDaemon daemon(cfg);
  ASSERT_TRUE(daemon.init());
  const Ingested d = ingest_burst(daemon, spec, plan);

  cfg.capture_prefix = "traced";
  TracedIngestLoop traced(cfg);
  ASSERT_TRUE(traced.init());
  const Ingested t = ingest_burst(traced, spec, plan);

  EXPECT_EQ(t.stats.datagrams, d.stats.datagrams);
  EXPECT_EQ(t.stats.heartbeats, d.stats.heartbeats);
  EXPECT_EQ(t.stats.drops_decode, d.stats.drops_decode);
  EXPECT_EQ(t.stats.drops_capacity, d.stats.drops_capacity);
  EXPECT_EQ(t.stats.captured, d.stats.captured);
  EXPECT_EQ(t.max_seq, d.max_seq);
  EXPECT_EQ(t.suspected, d.suspected);
  EXPECT_EQ(d.suspected, stopped);
  fs::remove_all(cfg.capture_dir);
}

TEST(TracedLoop, MatchesDaemonOnPackedBatches) { expect_loops_agree(200, 16); }

TEST(TracedLoop, MatchesDaemonOnSingleDatagrams) { expect_loops_agree(50, 1); }

TEST(PaperQos, PinnedFingerprintAtDefaultSeed) {
  const exp::QosReport report =
      exp::run_qos_experiment(paper_config(kPinnedSeed));
  EXPECT_EQ(fnv1a(exp::qos_report_fingerprint(report)),
            kPinnedFingerprint);
}

}  // namespace
}  // namespace qosbench
