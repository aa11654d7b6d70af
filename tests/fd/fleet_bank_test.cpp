// Fleet equivalence suite (`ctest -L fleet`): the FleetBank engine must be
// observably identical to M independent single-endpoint experiments — per
// endpoint, byte-for-byte. Endpoint e of a fleet run seeded S equals a
// standalone run seeded fleet_endpoint_seed(S, e): same rendered report
// (all five figures plus crash/heartbeat tallies, via
// fleet_endpoint_view()), same nanosecond-exact suspect-transition streams.
// The matrix pins seeds {7, 11, 13} × {nominal, spike_storm, burst_loss}
// at shards {1, 4, 7}, plus jobs = 1 ≡ jobs = 8, seq ≡ lp, and the M = 1
// identity (a forced 1-endpoint fleet reproduces the plain engine's bytes
// at every jobs/engine combination).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "exp/qos_experiment.hpp"
#include "exp/report.hpp"
#include "fd/fleet_bank.hpp"
#include "forecast/basic_predictors.hpp"

namespace fdqos::exp {
namespace {

// The paper suite is 5 predictors × 6 margins; the fleet detector index is
// endpoint·width + lane.
constexpr std::size_t kSuiteWidth = 30;

struct Event {
  std::size_t lane;
  std::int64_t t_ns;
  bool suspect;

  bool operator==(const Event&) const = default;
};

// Fleet transition streams keyed by (run, endpoint). Shards of one run
// execute concurrently, but a shard owns a contiguous endpoint block and
// per-(run, endpoint) streams are single-threaded, so pre-sized
// per-(run, endpoint) vectors race nowhere.
struct FleetCapture {
  std::size_t endpoints;
  std::vector<std::vector<Event>> streams;  // run-major: run·M + endpoint

  FleetCapture(std::size_t runs, std::size_t endpoints_)
      : endpoints(endpoints_), streams(runs * endpoints_) {}

  auto probe() {
    return [this](std::size_t run, std::size_t detector, TimePoint t,
                  bool suspecting) {
      streams[run * endpoints + detector / kSuiteWidth].push_back(
          {detector % kSuiteWidth, t.count_nanos(), suspecting});
    };
  }

  const std::vector<Event>& at(std::size_t run, std::size_t e) const {
    return streams[run * endpoints + e];
  }
};

QosExperimentConfig base_config(std::uint64_t seed,
                                const std::string& scenario) {
  QosExperimentConfig config;
  config.runs = 1;
  config.num_cycles = 200;
  config.seed = seed;
  config.mttc = Duration::seconds(90);
  config.ttr = Duration::seconds(20);
  config.warmup = Duration::seconds(60);
  config.chaos_scenario = scenario;
  config.jobs = 1;
  return config;
}

class FleetEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, std::string>> {
};

TEST_P(FleetEquivalenceTest, FleetEqualsStandaloneEndpointsAtEveryShardCount) {
  const auto [seed, scenario] = GetParam();
  constexpr std::size_t kEndpoints = 7;

  QosExperimentConfig fleet = base_config(seed, scenario);
  fleet.endpoints = kEndpoints;
  fleet.fleet_shards = 4;
  FleetCapture fleet_capture(fleet.runs, kEndpoints);
  fleet.transition_probe = fleet_capture.probe();
  const QosReport fleet_report = run_qos_experiment(fleet);

  ASSERT_EQ(fleet_report.endpoint_results.size(), kEndpoints);
  ASSERT_EQ(fleet_report.endpoint_crashes.size(), kEndpoints);

  // Per endpoint: the fleet's slice reproduces a standalone run seeded with
  // the endpoint's derived seed — report bytes and transition streams.
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    QosExperimentConfig solo =
        base_config(fleet_endpoint_seed(seed, e), scenario);
    FleetCapture solo_capture(solo.runs, 1);
    solo.transition_probe = solo_capture.probe();
    const QosReport solo_report = run_qos_experiment(solo);

    const QosReport view = fleet_endpoint_view(fleet_report, e);
    EXPECT_EQ(qos_report_fingerprint(view), qos_report_fingerprint(solo_report))
        << "endpoint " << e;
    // The rewritten view config describes exactly the standalone run.
    EXPECT_EQ(qos_config_summary(view.config), qos_config_summary(solo))
        << "endpoint " << e;
    for (std::size_t run = 0; run < fleet.runs; ++run) {
      EXPECT_EQ(fleet_capture.at(run, e), solo_capture.at(run, 0))
          << "endpoint " << e << " run " << run;
    }
  }

  // Fleet tallies are exactly the per-endpoint tallies, summed.
  std::uint64_t crashes = 0, sent = 0, delivered = 0;
  for (std::size_t e = 0; e < kEndpoints; ++e) {
    crashes += fleet_report.endpoint_crashes[e];
    sent += fleet_report.endpoint_hb_sent[e];
    delivered += fleet_report.endpoint_hb_delivered[e];
  }
  EXPECT_EQ(crashes, fleet_report.total_crashes);
  EXPECT_EQ(sent, fleet_report.heartbeats_sent);
  EXPECT_EQ(delivered, fleet_report.heartbeats_delivered);

  // The shard tick and shard timer actually coalesced member events, and
  // every delivered heartbeat went through the fleet's routed fast path.
  EXPECT_GT(fleet_report.fleet.coalesced_events, 0u);
  EXPECT_EQ(fleet_report.fleet.heartbeats, fleet_report.heartbeats_delivered);
  EXPECT_EQ(fleet_report.fleet.malformed, 0u);
  EXPECT_EQ(fleet_report.fleet.unroutable, 0u);

  // Shard-count invariance: 1 (everything on one shard) and 7 (one
  // endpoint per shard) produce the same bytes and the same streams as 4.
  const std::string fingerprint4 = qos_report_fingerprint(fleet_report);
  for (const std::size_t shards : {std::size_t{1}, std::size_t{7}}) {
    QosExperimentConfig again = fleet;
    again.fleet_shards = shards;
    FleetCapture again_capture(again.runs, kEndpoints);
    again.transition_probe = again_capture.probe();
    const QosReport again_report = run_qos_experiment(again);
    EXPECT_EQ(qos_report_fingerprint(again_report), fingerprint4)
        << "shards " << shards;
    EXPECT_EQ(again_capture.streams, fleet_capture.streams)
        << "shards " << shards;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsTimesScenarios, FleetEquivalenceTest,
    ::testing::Combine(::testing::Values(std::uint64_t{7}, std::uint64_t{11},
                                         std::uint64_t{13}),
                       ::testing::Values(std::string{},  // nominal link
                                         std::string{"spike_storm"},
                                         std::string{"burst_loss"})),
    [](const auto& info) {
      const std::string& scenario = std::get<1>(info.param);
      return "seed" + std::to_string(std::get<0>(info.param)) + "_" +
             (scenario.empty() ? "nominal" : scenario);
    });

// The fleet engine is jobs-invariant (the seq engine parallelizes over a
// flattened (run, shard) grid; the merge happens in deterministic order).
TEST(FleetParallelismTest, JobsInvariant) {
  QosExperimentConfig config = base_config(7, "burst_loss");
  config.runs = 2;
  config.endpoints = 5;
  config.fleet_shards = 3;
  FleetCapture serial_capture(config.runs, config.endpoints);
  config.transition_probe = serial_capture.probe();
  const QosReport serial = run_qos_experiment(config);

  config.jobs = 8;
  FleetCapture parallel_capture(config.runs, config.endpoints);
  config.transition_probe = parallel_capture.probe();
  const QosReport parallel = run_qos_experiment(config);

  EXPECT_EQ(qos_report_fingerprint(serial), qos_report_fingerprint(parallel));
  EXPECT_EQ(serial_capture.streams, parallel_capture.streams);
}

// Under SimEngine::kLp each endpoint shard becomes one LP; the reports stay
// byte-identical to the sequential engine.
TEST(FleetParallelismTest, SeqAndLpEnginesAreIdentical) {
  QosExperimentConfig config = base_config(7, "spike_storm");
  config.runs = 2;
  config.endpoints = 5;
  config.fleet_shards = 3;
  config.jobs = 2;
  FleetCapture seq_capture(config.runs, config.endpoints);
  config.transition_probe = seq_capture.probe();
  const QosReport seq = run_qos_experiment(config);

  config.sim_engine = SimEngine::kLp;
  config.lp_jobs = 2;
  FleetCapture lp_capture(config.runs, config.endpoints);
  config.transition_probe = lp_capture.probe();
  const QosReport lp = run_qos_experiment(config);

  EXPECT_EQ(qos_report_fingerprint(seq), qos_report_fingerprint(lp));
  EXPECT_EQ(seq_capture.streams, lp_capture.streams);
}

// M = 1 identity: a forced 1-endpoint fleet reports byte-identically to the
// plain single-endpoint engine at every jobs/engine combination.
TEST(FleetIdentityTest, SingleEndpointFleetMatchesPlainEngineEverywhere) {
  QosExperimentConfig plain = base_config(7, "burst_loss");
  plain.runs = 2;
  FleetCapture plain_capture(plain.runs, 1);
  plain.transition_probe = plain_capture.probe();
  const QosReport plain_report = run_qos_experiment(plain);
  const std::string plain_fingerprint = qos_report_fingerprint(plain_report);

  for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
    for (const SimEngine engine : {SimEngine::kSeq, SimEngine::kLp}) {
      QosExperimentConfig fleet = base_config(7, "burst_loss");
      fleet.runs = 2;
      fleet.force_fleet_engine = true;
      fleet.jobs = jobs;
      fleet.sim_engine = engine;
      FleetCapture fleet_capture(fleet.runs, 1);
      fleet.transition_probe = fleet_capture.probe();
      const QosReport fleet_report = run_qos_experiment(fleet);
      EXPECT_EQ(qos_report_fingerprint(fleet_report), plain_fingerprint)
          << "jobs " << jobs << " engine "
          << (engine == SimEngine::kLp ? "lp" : "seq");
      EXPECT_EQ(fleet_capture.streams, plain_capture.streams)
          << "jobs " << jobs << " engine "
          << (engine == SimEngine::kLp ? "lp" : "seq");
      // The single endpoint's view is the whole report.
      EXPECT_EQ(qos_report_fingerprint(fleet_endpoint_view(fleet_report, 0)),
                plain_fingerprint);
    }
  }
}

// The endpoint-seed ladder itself: endpoint 0 IS the experiment seed (the
// M = 1 identity depends on it), every other endpoint gets a distinct
// derived stream.
TEST(FleetSeedTest, EndpointZeroKeepsTheExperimentSeed) {
  EXPECT_EQ(fleet_endpoint_seed(42, 0), 42u);
  EXPECT_EQ(fleet_endpoint_seed(7, 0), 7u);
  EXPECT_NE(fleet_endpoint_seed(42, 1), 42u);
  EXPECT_NE(fleet_endpoint_seed(42, 1), fleet_endpoint_seed(42, 2));
  EXPECT_NE(fleet_endpoint_seed(42, 1), fleet_endpoint_seed(43, 1));
}

}  // namespace
}  // namespace fdqos::exp

namespace fdqos::fd {
namespace {

// Hosted mode follows the bank's own timer rule: a member reports only
// freshness points that could still raise a suspicion, so an on-time fleet
// costs the shard about one member check per member per cycle — not one
// per lane per cycle.
TEST(FleetHostedTimerTest, OnTimeMembersCostAboutOneCheckPerCycle) {
  constexpr std::size_t kMembers = 8;
  constexpr std::int64_t kCycles = 100;
  const Duration eta = Duration::seconds(1);
  sim::Simulator simulator;
  FleetBank fleet(simulator, {.eta = eta, .expected_endpoints = kMembers});
  for (std::size_t e = 0; e < kMembers; ++e) {
    DetectorBank& member = fleet.add_member(static_cast<net::NodeId>(e));
    const std::size_t g =
        member.add_group(std::make_unique<forecast::LastPredictor>());
    for (int l = 1; l <= 30; ++l) {  // 30 distinct freshness points
      member.add_lane("", g, std::make_unique<ConstantSafetyMargin>(l));
    }
  }
  for (std::int64_t i = 1; i <= kCycles; ++i) {
    simulator.schedule_at(
        TimePoint::origin() + eta * i + Duration::millis(100), [&fleet, i] {
          for (std::size_t e = 0; e < kMembers; ++e) fleet.ingest(e, i);
        });
  }
  fleet.start();
  simulator.run_until(TimePoint::origin() + eta * kCycles +
                      Duration::millis(500));

  EXPECT_EQ(fleet.suspecting_count(), 0u);
  const auto bound = static_cast<std::uint64_t>(kCycles + 1);
  EXPECT_LE(fleet.counters().member_checks, kMembers * bound);
  EXPECT_LE(fleet.counters().timer_events, bound);
  for (std::size_t e = 0; e < kMembers; ++e) {
    EXPECT_LE(fleet.member(e).counters().timer_events, bound) << e;
  }
}

}  // namespace
}  // namespace fdqos::fd
