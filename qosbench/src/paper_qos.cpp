#include "paper_qos.hpp"

#include <cctype>
#include <cstdio>
#include <functional>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/rng.hpp"
#include "exp/chaos.hpp"
#include "exp/report.hpp"
#include "fd/detector_bank.hpp"
#include "fd/qos_tracker.hpp"
#include "fd/suite.hpp"
#include "forecast/arima/arima_predictor.hpp"
#include "net/sim_transport.hpp"
#include "sim/simulator.hpp"
#include "wan/italy_japan.hpp"
#include "wan/tracestore.hpp"

namespace qosbench {

using namespace fdqos;

exp::QosExperimentConfig paper_config(std::uint64_t seed) {
  exp::QosExperimentConfig config;  // defaults are `fdqos qos`'s defaults
  config.seed = seed;
  config.jobs = 1;
  return config;
}

namespace {

constexpr net::NodeId kSource = 0;  // the monitored process
constexpr net::NodeId kMonitor = 1;

struct Experiment {
  double wall_s = 0.0;
  double cpu_s = 0.0;
  exp::QosReport report;
  std::uint64_t fingerprint = 0;
  // Runs whose monitored process was still down when the run ended; each
  // may hold one crash no detector could resolve yet.
  std::uint64_t runs_ending_down = 0;
};

// `config` may carry probes of its own (the traced run); the crash probe
// is chained so the run-end state is always recorded.
Experiment run_experiment(exp::QosExperimentConfig config) {
  std::vector<char> down(config.runs, 0);
  auto inner = config.crash_probe;
  config.crash_probe = [&down, inner](std::size_t run, std::size_t endpoint,
                                      TimePoint t, bool crashed) {
    down[run] = crashed ? 1 : 0;
    if (inner) inner(run, endpoint, t, crashed);
  };
  Experiment out;
  const std::int64_t w0 = now_ns();
  const std::int64_t c0 = thread_cpu_ns();
  out.report = exp::run_qos_experiment(config);
  out.cpu_s = static_cast<double>(thread_cpu_ns() - c0) / 1e9;
  out.wall_s = static_cast<double>(now_ns() - w0) / 1e9;
  out.fingerprint = fnv1a(exp::qos_report_fingerprint(out.report));
  for (const char d : down) out.runs_ending_down += d != 0 ? 1 : 0;
  return out;
}

// exp::qos_invariant_violations, except that its crash-consistency rule
// allows one pending crash per report, which holds for a single run only.
// A pooled multi-run report may hold one per run that ended with the
// process down, so that rule is evaluated here with that exact bound;
// every other invariant is taken unchanged.
std::vector<exp::InvariantViolation> invariant_violations(const Experiment& e) {
  std::vector<exp::InvariantViolation> out;
  for (auto& v : exp::qos_invariant_violations(e.report)) {
    if (v.invariant != "crash-consistency") out.push_back(std::move(v));
  }
  const auto& results = e.report.results;
  for (const auto& r : results) {
    const fd::QosMetrics& m = r.metrics;
    const std::uint64_t resolved = m.detections + m.missed_detections;
    if (m.crashes_observed < resolved ||
        m.crashes_observed > resolved + e.runs_ending_down ||
        m.crashes_observed != results.front().metrics.crashes_observed) {
      out.push_back({"crash-consistency",
                     r.name + ": crashes=" + std::to_string(m.crashes_observed) +
                         " resolved=" + std::to_string(resolved) +
                         " runs ending down=" +
                         std::to_string(e.runs_ending_down)});
    }
  }
  return out;
}

// One run's streams as the traced experiment produced them: the delay of
// every delivered heartbeat (record_hub), and the crash and suspicion
// transitions in simulation order (crash_probe, transition_probe).
struct RunStreams {
  struct Event {
    TimePoint t;
    int lane;  // -1 = crash/restore of the monitored process
    bool on;   // suspecting / crashed
  };
  std::vector<TimePoint> send_times;
  std::vector<Duration> delays;
  std::vector<Event> events;
};

// Per-layer totals of the replay, summed over runs.
struct LayerTotals {
  std::uint64_t heartbeats = 0;
  std::int64_t draw_ns = 0;
  std::int64_t send_ns = 0;     // SimTransport::send
  std::int64_t deliver_ns = 0;  // DetectorBank::handle_up
  std::int64_t sim_ns = 0;      // whole Simulator::run_until
  std::uint64_t events = 0;
  std::vector<std::int64_t> family_ns;  // per paper predictor label
  std::int64_t arima_refit_ns = 0;
  std::uint64_t arima_refits = 0;
  std::int64_t ci_ns = 0;
  std::int64_t jac_ns = 0;
  std::int64_t tracker_ns = 0;
  std::uint64_t tracker_calls = 0;
  std::uint64_t transitions = 0;
  fd::DetectorBank::Counters bank;
  bool faithful = true;
};

volatile double g_sink = 0.0;  // keeps replayed results observable

void replay_wan(const exp::QosExperimentConfig& config, std::size_t run,
                const RunStreams& s, LayerTotals& out) {
  auto model = wan::make_italy_japan_delay(config.link);
  Rng rng = Rng(config.seed).fork(run).fork("qosbench-draw");
  std::int64_t sum = 0;
  const std::int64_t t0 = now_ns();
  for (const TimePoint t : s.send_times) sum += model->sample(rng, t).count_nanos();
  out.draw_ns += now_ns() - t0;
  g_sink = g_sink + static_cast<double>(sum);
}

void replay_forecast(const exp::QosExperimentConfig& config,
                     const std::vector<double>& obs, LayerTotals& out) {
  const auto labels = fd::paper_predictor_labels();
  out.family_ns.resize(labels.size(), 0);
  for (std::size_t f = 0; f < labels.size(); ++f) {
    auto predictor = fd::make_paper_predictor(labels[f], config.params)();
    auto* arima = dynamic_cast<forecast::ArimaPredictor*>(predictor.get());
    double sum = 0.0;
    if (arima != nullptr) {
      // Per call, to attribute the refits.
      for (const double x : obs) {
        const std::size_t before = arima->refit_count();
        const std::int64_t t0 = now_ns();
        sum += arima->predict();
        arima->observe(x);
        const std::int64_t dt = now_ns() - t0;
        out.family_ns[f] += dt;
        if (arima->refit_count() != before) {
          out.arima_refit_ns += dt;
          ++out.arima_refits;
        }
      }
    } else {
      const std::int64_t t0 = now_ns();
      for (const double x : obs) {
        sum += predictor->predict();
        predictor->observe(x);
      }
      out.family_ns[f] += now_ns() - t0;
    }
    g_sink = g_sink + sum;
  }
  // Margins fed with the Last forecast (the previous observation).
  auto time_margin = [&](const char* label) {
    auto margin = fd::make_paper_margin(label, config.params)();
    double prev = 0.0;
    double sum = 0.0;
    const std::int64_t t0 = now_ns();
    for (const double x : obs) {
      margin->observe(x, prev);
      sum += margin->margin();
      prev = x;
    }
    g_sink = g_sink + sum;
    return now_ns() - t0;
  };
  out.ci_ns += time_margin("CI_low");
  out.jac_ns += time_margin("JAC_low");
}

// The 30-lane DetectorBank fed through a SimTransport replaying the run's
// recorded delays, on a Simulator, exactly as the experiment wires them
// (minus heartbeater, crash injector and multiplexer).
void replay_bank(const exp::QosExperimentConfig& config,
                 const std::vector<fd::FdSpec>& suite, std::size_t run,
                 const RunStreams& s, TimePoint run_end, LayerTotals& out) {
  sim::Simulator simulator;
  net::SimTransport transport(simulator, Rng(config.seed).fork(run));
  net::SimTransport::LinkConfig link;
  link.delay = std::make_unique<wan::TraceReplayDelay>(
      s.delays, wan::ReplayPolicy::kTruncate);
  transport.set_link(kSource, kMonitor, std::move(link));

  fd::DetectorBank::Config bc;
  bc.eta = config.eta;
  bc.monitored = kSource;
  bc.cold_start_timeout = config.cold_start_timeout;
  bc.name = "qosbench-replay";
  fd::DetectorBank bank(simulator, bc);
  std::unordered_map<std::string, std::size_t> group_by_key;
  for (const auto& spec : suite) {
    auto it = group_by_key.find(spec.predictor_key);
    std::size_t group;
    if (spec.predictor_key.empty() || it == group_by_key.end()) {
      group = bank.add_group(spec.make_predictor());
      if (!spec.predictor_key.empty()) group_by_key[spec.predictor_key] = group;
    } else {
      group = it->second;
    }
    bank.add_lane(spec.name, group, spec.make_margin());
  }
  std::vector<RunStreams::Event> transitions;
  bank.set_observer([&](std::size_t lane, TimePoint t, bool suspecting) {
    transitions.push_back({t, static_cast<int>(lane), suspecting});
  });
  transport.bind(kMonitor, [&](const net::Message& msg) {
    const std::int64_t t0 = now_ns();
    bank.handle_up(msg);
    out.deliver_ns += now_ns() - t0;
  });
  bank.start();

  // Sends are chained one event at a time, as the heartbeater does.
  std::size_t next = 0;
  std::function<void()> send_next = [&] {
    net::Message msg;
    msg.type = net::MessageType::kHeartbeat;
    msg.from = kSource;
    msg.to = kMonitor;
    msg.send_time = s.send_times[next];
    msg.seq = (s.send_times[next] - TimePoint::origin()).count_nanos() /
              config.eta.count_nanos();
    const std::int64_t t0 = now_ns();
    transport.send(std::move(msg));
    out.send_ns += now_ns() - t0;
    if (++next < s.send_times.size()) {
      simulator.schedule_at(s.send_times[next], send_next);
    }
  };
  if (!s.send_times.empty()) simulator.schedule_at(s.send_times[0], send_next);

  const std::int64_t t0 = now_ns();
  simulator.run_until(run_end);
  out.sim_ns += now_ns() - t0;
  out.events += simulator.executed_events();
  out.heartbeats += s.send_times.size();
  out.bank.add(bank.counters());

  // The replay must reproduce the experiment's suspicion history exactly,
  // or its layer costs describe some other computation.
  std::vector<RunStreams::Event> expected;
  for (const auto& e : s.events) {
    if (e.lane >= 0) expected.push_back(e);
  }
  out.transitions += expected.size();
  bool same = expected.size() == transitions.size();
  for (std::size_t i = 0; same && i < expected.size(); ++i) {
    same = expected[i].t == transitions[i].t &&
           expected[i].lane == transitions[i].lane &&
           expected[i].on == transitions[i].on;
  }
  if (!same) out.faithful = false;
}

void replay_trackers(const exp::QosExperimentConfig& config,
                     std::size_t lanes, const RunStreams& s,
                     TimePoint run_end, LayerTotals& out) {
  std::vector<fd::QosTracker> trackers(
      lanes, fd::QosTracker(TimePoint::origin() + config.warmup));
  const std::int64_t t0 = now_ns();
  for (const auto& e : s.events) {
    if (e.lane < 0) {
      for (auto& tracker : trackers) {
        e.on ? tracker.process_crashed(e.t) : tracker.process_restored(e.t);
      }
      out.tracker_calls += lanes;
    } else {
      auto& tracker = trackers[static_cast<std::size_t>(e.lane)];
      e.on ? tracker.suspect_started(e.t) : tracker.suspect_ended(e.t);
      ++out.tracker_calls;
    }
  }
  for (auto& tracker : trackers) tracker.finalize(run_end);
  out.tracker_calls += lanes;
  out.tracker_ns += now_ns() - t0;
  g_sink = g_sink + trackers[0].metrics().availability;
}

double ns_per(std::int64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

}  // namespace

Result run_paper_qos(const Options& opts) {
  Result res;

  // Set-up: suite and configuration assembly, median of many.
  std::vector<double> setups;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t t0 = now_ns();
    exp::QosExperimentConfig config = paper_config(opts.seed);
    const auto suite = fd::make_paper_suite(config.params);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    g_sink = g_sink + static_cast<double>(suite.size());
  }
  const exp::QosExperimentConfig config = paper_config(opts.seed);

  // Every experiment is checked against the QoS invariants; those of the
  // run's seed must also agree with each other, and the warm-up's with
  // the pinned fingerprint.
  std::vector<double> walls, cpus, rates, per_run_ms;
  std::uint64_t first_fp = 0;
  auto check_fingerprint = [&](bool same, const std::string& name,
                               std::uint64_t got) {
    if (same) return true;
    char buf[64];
    std::snprintf(buf, sizeof buf, "got %016llx",
                  static_cast<unsigned long long>(got));
    res.check(name, false, buf);
    return false;
  };
  auto check_invariants = [&](const Experiment& e, const std::string& what) {
    ++res.attempted;
    const auto violations = invariant_violations(e);
    if (violations.empty()) return true;
    res.check(what + " qos-invariants", false,
              violations[0].invariant + " " + violations[0].detail);
    return false;
  };
  auto check_repeat = [&](const Experiment& e, const std::string& what) {
    bool ok = check_invariants(e, what);
    if (first_fp == 0) first_fp = e.fingerprint;
    ok = check_fingerprint(e.fingerprint == first_fp,
                           what + " fingerprint-repeatable", e.fingerprint) &&
         ok;
    if (!ok) ++res.failed;
  };

  // The unmeasured warm-up, which fills caches and the allocator, runs
  // the pinned seed: whatever --seed is, a change to what the experiment
  // computes fails this run.
  {
    const Experiment pinned = run_experiment(paper_config(kPinnedSeed));
    bool ok = check_invariants(pinned, "warm-up");
    ok = check_fingerprint(pinned.fingerprint == kPinnedFingerprint,
                           "warm-up fingerprint-pinned", pinned.fingerprint) &&
         ok;
    if (!ok) ++res.failed;
  }
  const double untraced_budget = opts.trace ? opts.seconds / 2 : opts.seconds;
  const std::size_t min_repeats = opts.trace ? 2 : 3;
  const std::int64_t deadline =
      now_ns() + static_cast<std::int64_t>(untraced_budget * 1e9);
  exp::QosReport last;
  while (walls.size() < min_repeats || now_ns() < deadline) {
    Experiment e = run_experiment(config);
    check_repeat(e, "repeat");
    walls.push_back(e.wall_s);
    cpus.push_back(e.cpu_s);
    rates.push_back(static_cast<double>(e.report.heartbeats_delivered) /
                    e.cpu_s);
    per_run_ms.push_back(e.wall_s * 1e3 / static_cast<double>(config.runs));
    last = std::move(e.report);
  }
  const double rss = peak_rss_mb();
  const double wall_med = median(walls);
  res.check("all-repeats-correct", res.failed == 0);
  res.note("qos.wall_s", wall_med, "s");
  res.note("qos.repeats", static_cast<double>(walls.size()), "count");

  if (!opts.trace) {
    res.metric("setup_s", median(setups), "s");
    res.metric("hb_per_cpu_s", median(rates), "hb/s");
    res.metric("rss_mb", rss, "MB");
    return res;
  }

  // Traced run: capture every run's streams, then replay them into each
  // layer's public calls and time those.
  exp::QosExperimentConfig traced = config;
  traced.record_hub = std::make_shared<wan::TraceRecorderHub>();
  std::vector<RunStreams> streams(config.runs);
  traced.transition_probe = [&](std::size_t run, std::size_t lane,
                                TimePoint t, bool suspecting) {
    streams[run].events.push_back({t, static_cast<int>(lane), suspecting});
  };
  traced.crash_probe = [&](std::size_t run, std::size_t, TimePoint t,
                           bool crashed) {
    streams[run].events.push_back({t, -1, crashed});
  };
  const Experiment traced_run = run_experiment(traced);
  check_repeat(traced_run, "traced");
  for (std::size_t r = 0; r < config.runs; ++r) {
    const auto& shard = traced.record_hub->shard(r);
    streams[r].send_times = shard.send_times();
    streams[r].delays = shard.delays();
  }

  const auto suite = fd::make_paper_suite(config.params);
  const TimePoint run_end = TimePoint::origin() +
                            config.eta * config.num_cycles + config.ttr +
                            Duration::seconds(5);
  LayerTotals L;
  for (std::size_t r = 0; r < config.runs; ++r) {
    const RunStreams& s = streams[r];
    std::vector<double> obs(s.delays.size());
    for (std::size_t i = 0; i < obs.size(); ++i) {
      obs[i] = s.delays[i].to_millis_double();
    }
    replay_wan(config, r, s, L);
    replay_forecast(config, obs, L);
    replay_bank(config, suite, r, s, run_end, L);
    replay_trackers(config, suite.size(), s, run_end, L);
  }
  // The box's speed drifts over tens of seconds, so the untraced
  // reference is the repeats on either side of the traced one rather than
  // the median of the first half.
  const Experiment after = run_experiment(config);
  check_repeat(after, "repeat");
  const double reference_s = (walls.back() + after.wall_s) / 2;

  res.check("paper-replay-faithful", L.faithful,
            "replayed bank transitions differ from the experiment's");
  res.check("paper-replay-complete",
            L.heartbeats == last.heartbeats_delivered &&
                L.bank.timer_events == last.bank.timer_events,
            "replayed heartbeats or timer events differ from the report");

  const std::uint64_t hb = L.heartbeats;
  // The simulator's own share is its event queue, priced with no-op
  // events; the rest of the dispatch time is the bank's cycle and timer
  // callbacks, which belong to fd.
  const std::int64_t sim_self = L.sim_ns - L.send_ns - L.deliver_ns;
  const double queue_ns =
      sim_noop_event_ns(L.events) * static_cast<double>(L.events);
  const double timers_ns = static_cast<double>(sim_self) - queue_ns;
  const double wall_ns = reference_s * 1e9;
  const double attributed = static_cast<double>(
      L.draw_ns + L.send_ns + L.deliver_ns + sim_self + L.tracker_ns);
  double forecast_ns = 0.0;
  const auto labels = fd::paper_predictor_labels();
  for (std::size_t f = 0; f < labels.size(); ++f) {
    std::string key = labels[f];
    for (auto& c : key) c = static_cast<char>(std::tolower(c));
    res.note("forecast.observe_ns." + key, ns_per(L.family_ns[f], hb), "ns");
    forecast_ns += ns_per(L.family_ns[f], hb);
  }
  const double overhead = traced_run.wall_s / reference_s - 1.0;
  const double unattributed = 1.0 - attributed / wall_ns;

  res.note("wan.delay_draw_ns", ns_per(L.draw_ns, hb), "ns");
  res.note("sim.event_ns", queue_ns / static_cast<double>(L.events), "ns");
  res.note("sim.events", static_cast<double>(L.events), "count");
  res.note("net.sim_send_ns", ns_per(L.send_ns, hb), "ns");
  res.note("forecast.arima.refits", static_cast<double>(L.arima_refits), "count");
  res.note("forecast.arima.refit_ms",
           L.arima_refits == 0 ? 0.0
                               : static_cast<double>(L.arima_refit_ns) / 1e6 /
                                     static_cast<double>(L.arima_refits),
           "ms");
  res.note("fd.margin_ns.ci", ns_per(L.ci_ns, hb), "ns");
  res.note("fd.margin_ns.jac", ns_per(L.jac_ns, hb), "ns");
  res.note("fd.bank.observe_ns", ns_per(L.deliver_ns, hb), "ns");
  res.note("fd.bank.timers_ns_per_hb", timers_ns / static_cast<double>(hb), "ns");
  res.note("fd.bank.predictor_updates",
           static_cast<double>(L.bank.predictor_updates), "count");
  res.note("fd.bank.lane_updates", static_cast<double>(L.bank.lane_updates),
           "count");
  res.note("fd.bank.timer_events", static_cast<double>(L.bank.timer_events),
           "count");
  res.note("fd.qos_tracker_ns", ns_per(L.tracker_ns, L.tracker_calls), "ns");
  res.note("fd.suspect_transitions", static_cast<double>(L.transitions),
           "count");
  res.note("exp.unattributed_frac", unattributed, "ratio");
  res.note("trace.overhead_frac", overhead, "ratio");
  res.note("exp.off_cpu_frac", 1.0 - median(cpus) / wall_med, "ratio");

  std::vector<double> runs_ms = per_run_ms;
  res.metric("wan.ns_per_hb", ns_per(L.draw_ns, hb), "ns");
  res.metric("sim.ns_per_hb", queue_ns / static_cast<double>(hb), "ns");
  res.metric("net.ns_per_hb", ns_per(L.send_ns, hb), "ns");
  res.metric("forecast.ns_per_hb", forecast_ns, "ns");
  res.metric("fd.ns_per_hb",
             (static_cast<double>(L.deliver_ns) + timers_ns) /
                 static_cast<double>(hb),
             "ns");
  res.metric("unattributed_frac", unattributed, "ratio");
  res.metric("trace.overhead_frac", overhead, "ratio");
  res.metric("latency_p50_ms", median(runs_ms), "ms");
  res.metric("latency_p99_ms", quantile(runs_ms, 0.99), "ms");
  res.metric("latency_max_ms", quantile(runs_ms, 1.0), "ms");
  res.metric("heartbeats", static_cast<double>(hb), "count");
  res.metric("timer_events", static_cast<double>(L.bank.timer_events), "count");
  res.metric("suspect_transitions", static_cast<double>(L.transitions),
             "count");
  return res;
}

}  // namespace qosbench
