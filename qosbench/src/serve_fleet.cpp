#include "serve_fleet.hpp"

#include <poll.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "fd/suite.hpp"
#include "forecast/predictor.hpp"
#include "net/codec.hpp"
#include "net/udp_transport.hpp"

namespace qosbench {

using namespace fdqos;
namespace fs = std::filesystem;

ServeWorkload serve_fleet_workload() {
  ServeWorkload w;
  w.name = "serve-fleet";
  w.load.endpoints = 100'000;
  w.load.eta_ns = 500'000'000;
  w.load.records = 64;
  w.load.crashes = LoadSpec::Crashes::kStop;
  w.daemon.max_endpoints = w.load.endpoints;
  w.daemon.eta = Duration::nanos(w.load.eta_ns);
  return w;
}

ServeWorkload serve_churn_workload() {
  ServeWorkload w;
  w.name = "serve-churn";
  w.load.endpoints = 10'000;
  w.load.eta_ns = 100'000'000;
  w.load.records = 1;
  w.load.tick_ns = 1'000'000;
  w.load.crashes = LoadSpec::Crashes::kRecovering;
  w.daemon.max_endpoints = w.load.endpoints;
  w.daemon.eta = Duration::nanos(w.load.eta_ns);
  return w;
}

// ---------------------------------------------------------------------------
// TracedIngestLoop

TracedIngestLoop::TracedIngestLoop(serve::ServeConfig config)
    : config_(std::move(config)) {}

bool TracedIngestLoop::init() {
  if (config_.suite != "lite") return false;
  net::UdpIngestSocket::Options sopts;
  sopts.host = config_.host;
  sopts.port = config_.port;
  sopts.batch = config_.batch;
  sopts.force_single_recv = config_.force_single_recv;
  socket_ = std::make_unique<net::UdpIngestSocket>(sopts);
  if (!socket_->ok()) return false;

  fd::FleetBank::Config fc;
  fc.eta = config_.eta;
  fc.epoch = TimePoint::origin();
  fc.cold_start_timeout = config_.eta;
  fc.name = "serve";
  fc.expected_endpoints = config_.max_endpoints;
  fleet_ = std::make_unique<fd::FleetBank>(simulator_, fc);
  // The daemon's lite suite (serve/daemon.cpp), the one both serve
  // workloads run: one Last predictor group with one CI_low lane.
  const auto make_predictor = fd::make_paper_predictor("Last");
  const auto make_margin = fd::make_paper_margin("CI_low");
  for (std::size_t slot = 0; slot < config_.max_endpoints; ++slot) {
    fd::DetectorBank& member =
        fleet_->add_member(static_cast<net::NodeId>(slot));
    member.add_lane("Last+CI_low", member.add_group(make_predictor()),
                    make_margin());
    member.set_observer([this](std::size_t, TimePoint, bool) { ++transitions_; });
  }
  fleet_->start();
  ingest_ = std::make_unique<fd::FleetIngest>(*fleet_, config_.max_endpoints);

  if (config_.capture) {
    wan::RotatingFdtWriter::Options copts;
    copts.directory = config_.capture_dir;
    copts.prefix = config_.capture_prefix;
    copts.max_samples = config_.segment_samples;
    copts.meta.clock_base_ns = 0;
    copts.meta.source = "qosbench traced loop suite=" + config_.suite;
    capture_ = std::make_unique<wan::RotatingFdtWriter>(std::move(copts));
    if (!capture_->ok()) return false;
  }
  return true;
}

int TracedIngestLoop::run() {
  const std::int64_t wall_start = now_ns();
  std::vector<net::NodeId> from;
  std::vector<std::int64_t> seq, send_ns;
  std::vector<std::uint8_t> accepted;
  net::PackedBatchView packed;
  net::HeartbeatFrame frame;
  auto push = [&](const net::HeartbeatFrame& f) {
    from.push_back(f.from);
    seq.push_back(f.seq);
    send_ns.push_back(f.send_time.count_nanos());
  };

  while (!stop_.load(std::memory_order_relaxed)) {
    const std::int64_t a = now_ns();
    const TimePoint v_now = TimePoint::origin() + Duration::nanos(a - wall_start);
    simulator_.run_until(v_now);
    const std::int64_t b = now_ns();
    spans_.run_until += b - a;
    spans_.run_until_max = std::max(spans_.run_until_max, b - a);

    const std::size_t drained = socket_->recv_batch();
    const std::int64_t c = now_ns();
    spans_.recv += c - b;
    ++spans_.recv_calls;
    if (drained > 0) {
      const std::int64_t recv_wall = wall_start + v_now.count_nanos();
      from.clear();
      seq.clear();
      send_ns.clear();
      for (std::size_t i = 0; i < drained; ++i) {
        const auto wire = socket_->datagram(i);
        if (net::decode_packed_batch(wire, packed)) {
          for (std::uint32_t j = 0; j < packed.count(); ++j) {
            packed.get(j, frame);
            push(frame);
          }
        } else if (net::decode_heartbeat_frame(wire, frame)) {
          push(frame);
        } else {
          ++stats_.drops_decode;
        }
      }
      const std::int64_t d = now_ns();
      spans_.decode += d - c;

      accepted.assign(from.size(), 0);
      for (std::size_t k = 0; k < from.size(); ++k) {
        if (ingest_->offer(from[k], seq[k])) {
          accepted[k] = 1;
          ++stats_.heartbeats;
        } else {
          ++stats_.drops_capacity;
        }
      }
      const std::int64_t e = now_ns();
      spans_.offer += e - d;

      if (capture_ != nullptr) {
        for (std::size_t k = 0; k < from.size(); ++k) {
          if (accepted[k] == 0) continue;
          capture_->append(
              TimePoint::from_nanos(send_ns[k] - wall_start),
              Duration::nanos(std::max<std::int64_t>(0, recv_wall - send_ns[k])));
          ++stats_.captured;
        }
      }
      const std::int64_t f = now_ns();
      spans_.capture += f - e;

      ingest_->flush();
      ++stats_.batches;
      stats_.datagrams += drained;
      spans_.flush += now_ns() - f;
      if (capture_ != nullptr && !capture_->ok()) return 1;
      continue;
    }
    const std::int64_t p0 = now_ns();
    const TimePoint next = simulator_.next_event_time();
    const TimePoint v_idle =
        TimePoint::origin() + Duration::nanos(p0 - wall_start);
    pollfd pfd{socket_->fd(), POLLIN, 0};
    ::poll(&pfd, 1, net::clamp_poll_timeout_ms(next - v_idle));
    spans_.poll += now_ns() - p0;
  }
  spans_.wall = now_ns() - wall_start;
  if (capture_ != nullptr && !capture_->finalize()) return 1;
  return 0;
}

// ---------------------------------------------------------------------------
// Passes

std::int64_t read_capture(const std::vector<std::string>& segments,
                          std::int64_t grid_ns, std::int64_t cutoff_ns,
                          std::vector<std::int64_t>& lag,
                          std::uint64_t& before, std::string& error) {
  std::int64_t total = 0;
  for (const auto& path : segments) {
    const wan::TraceLoadResult loaded = wan::load_trace(path);
    if (!loaded.ok()) {
      error = loaded.error;
      return -1;
    }
    const wan::Trace& trace = *loaded.trace;
    for (std::size_t i = 0; i < trace.size(); ++i) {
      lag.push_back(trace.delays[i].count_nanos());
      const std::int64_t sent = trace.send_times[i].count_nanos();
      const std::int64_t due = (sent + grid_ns - 1) / grid_ns * grid_ns;
      if (due < cutoff_ns) ++before;
    }
    total += static_cast<std::int64_t>(trace.size());
  }
  return total;
}

namespace {

// What one pass of load through a daemon (or the traced loop) left.
struct PassOutcome {
  bool ran = false;  // socket, thread and capture all worked
  SendReport send;
  fdqos::serve::ServeDaemon::Stats stats;
  std::int64_t cpu_ns = 0;  // CPU of the thread that called run()
  double rss_mb = 0.0;  // peak RSS right after the pass
  std::vector<std::int64_t> lag_ns;  // capture: drain − due, per heartbeat
  std::uint64_t capture_samples = 0;  // load_trace count over segments
  // Heartbeats due before the accounting cutoff that were captured, i.e.
  // ingested. The last kTailNs of a pass is left out of attempted/failed:
  // those heartbeats may still be in flight when the daemon stops.
  std::uint64_t ingested_before_cutoff = 0;
  std::string capture_error;
  // Checks on the fleet's final state.
  std::size_t down_long = 0;          // endpoints down > 5η at stop
  std::size_t down_long_unsuspected = 0;
  std::size_t misrouted = 0;          // max_seq far from what was sent
  std::size_t suspected = 0;          // members suspected at stop
  // Endpoints whose newest heartbeat due before the generator stopped
  // reached their member and whose next one was due only after the loop
  // had stopped, and those of them suspected at stop. No freshness point
  // of theirs can have passed, so a correct loop suspects none.
  std::size_t live = 0;
  std::size_t live_suspected = 0;
};

inline constexpr std::int64_t kTailNs = 250'000'000;
inline constexpr int kSetupSamples = 25;

// Runs one pass: `loop` (already init()ed) on its own thread, the
// generator on the calling thread for run_ns, then stops the loop while
// the generator is still on schedule. Reads back the capture (files are
// removed afterwards) and checks the fleet's final state against the
// crash plan.

template <class Loop>
PassOutcome drive_pass(Loop& loop, const ServeWorkload& w,
                       const CrashPlan& plan, std::int64_t run_ns) {
  PassOutcome out;
  std::atomic<std::int64_t> t0{0};
  std::int64_t cpu = 0;
  int rc = 0;
  std::thread daemon([&] {
    const std::int64_t c0 = thread_cpu_ns();
    t0.store(now_ns(), std::memory_order_release);
    rc = loop.run();
    cpu = thread_cpu_ns() - c0;
  });
  // Whatever happens on this thread, the loop is stopped and joined
  // before anything it uses goes away.
  struct StopAndJoin {
    Loop& loop;
    std::thread& thread;
    ~StopAndJoin() {
      if (thread.joinable()) {
        loop.request_stop();
        thread.join();
      }
    }
  } guard{loop, daemon};
  std::int64_t start = 0;
  while ((start = t0.load(std::memory_order_acquire)) == 0) {
    std::this_thread::yield();
  }
  const std::int64_t cutoff = run_ns - kTailNs;
  out.send.cutoff_ns = cutoff;
  const bool sent =
      send_load(w.load, plan, loop.udp_port(), start, run_ns, out.send);
  // Stopped while the generator is still on schedule: every live
  // endpoint's last heartbeat is at most one period old.
  loop.request_stop();
  daemon.join();
  // The loop's clock started after t0, so it read at most this much.
  const std::int64_t stopped_at = now_ns() - start;
  out.rss_mb = peak_rss_mb();
  out.cpu_ns = cpu;
  out.stats = loop.stats();

  // Both workloads divide η evenly by M, so every due time is on this grid.
  const auto grid = static_cast<std::int64_t>(
      w.load.eta_ns / static_cast<std::int64_t>(w.load.endpoints));
  const std::int64_t n =
      read_capture(loop.capture_segments(), grid, cutoff, out.lag_ns,
                   out.ingested_before_cutoff, out.capture_error);
  out.capture_samples = n < 0 ? 0 : static_cast<std::uint64_t>(n);
  for (const auto& path : loop.capture_segments()) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  out.ran = sent && rc == 0 && n >= 0;

  const auto& fleet = loop.fleet();
  const auto& ingest = loop.ingest();
  const Schedule sched{w.load.endpoints, w.load.eta_ns};
  const std::int64_t five_eta = 5 * w.load.eta_ns;
  for (std::size_t e = 0; e < w.load.endpoints; ++e) {
    const std::int64_t last = out.send.last_seq[e];
    if (last < 0) continue;  // never sent: nothing to admit or detect
    const std::size_t slot = ingest.slot_of(static_cast<net::NodeId>(e));
    if (slot >= ingest.capacity()) {
      // Only heartbeats still in flight at stop may be missing.
      if (out.send.last_seq_before_cutoff[e] >= 0) ++out.misrouted;
      continue;
    }
    // Heartbeats after the cutoff may still be in flight at stop; every
    // earlier one was delivered unless counted as failed, so the member's
    // newest seq lies between the last one sent before the cutoff (less a
    // few periods of losses) and the last one sent at all.
    const fd::DetectorBank& member = fleet.member(slot);
    const std::int64_t settled = out.send.last_seq_before_cutoff[e];
    if (member.max_seq() > last || member.max_seq() < settled - 3) {
      ++out.misrouted;
    }
    const bool suspected = member.suspecting_count() > 0;
    if (suspected) ++out.suspected;
    // A freshness point lies after the due time of the heartbeat it
    // waits for, in the loop's clock, which reads less than the
    // generator's. Seq s of endpoint e is due at s·η + due(e).
    const std::int64_t phase = sched.due(e);
    if (phase < run_ns) {
      const std::int64_t newest = (run_ns - 1 - phase) / w.load.eta_ns;
      const std::int64_t next_due = (newest + 1) * w.load.eta_ns + phase;
      if (next_due > stopped_at && member.max_seq() >= newest) {
        ++out.live;
        if (suspected) ++out.live_suspected;
      }
    }
    // Judged at the nominal stop (run_ns), so both passes of a traced run
    // see the same set; nothing is sent after it, and the daemon stops
    // moments later.
    const std::int64_t since = plan.down_since(e, run_ns);
    if (since >= 0 && run_ns - since > five_eta) {
      ++out.down_long;
      if (!suspected) ++out.down_long_unsuspected;
    }
  }
  return out;
}


// UDP RcvbufErrors from /proc/net/snmp (namespace-wide), -1 if unreadable.
std::int64_t rcvbuf_errors() {
  std::ifstream in("/proc/net/snmp");
  std::string header, values, line;
  while (std::getline(in, line)) {
    if (line.rfind("Udp:", 0) != 0) continue;
    if (header.empty()) {
      header = line;
    } else {
      values = line;
      break;
    }
  }
  std::istringstream hs(header), vs(values);
  std::string name, value;
  while (hs >> name && vs >> value) {
    if (name == "RcvbufErrors") return std::stoll(value);
  }
  return -1;
}

volatile double g_sink = 0.0;  // keeps replayed results observable

double per(std::int64_t ns, std::uint64_t n) {
  return n == 0 ? 0.0 : static_cast<double>(ns) / static_cast<double>(n);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

// Checks every pass must meet; returns heartbeats offered but not ingested.
std::uint64_t check_pass(Result& res, const PassOutcome& p,
                         const std::string& who) {
  res.check(who + " ran", p.ran,
            p.capture_error.empty() ? "socket, run() or capture failed"
                                    : p.capture_error);
  res.check(who + " generator-on-schedule", p.send.offered_frac() >= 0.98,
            "offered " + std::to_string(p.send.offered) + " of target " +
                std::to_string(p.send.target) + ": sender-bound run");
  res.check(who + " no-decode-or-capacity-drops",
            p.stats.drops_decode == 0 && p.stats.drops_capacity == 0,
            "decode " + std::to_string(p.stats.drops_decode) + ", capacity " +
                std::to_string(p.stats.drops_capacity));
  res.check(who + " capture-complete",
            p.capture_samples == p.stats.captured &&
                p.stats.captured == p.stats.heartbeats,
            "load_trace " + std::to_string(p.capture_samples) + ", captured " +
                std::to_string(p.stats.captured) + ", ingested " +
                std::to_string(p.stats.heartbeats));
  res.check(who + " heartbeats-reach-own-member", p.misrouted == 0,
            std::to_string(p.misrouted) + " endpoints");
  res.check(who + " long-down-endpoints-suspected",
            p.down_long_unsuspected == 0,
            std::to_string(p.down_long_unsuspected) + " of " +
                std::to_string(p.down_long) + " unsuspected");
  res.check(who + " live-endpoints-trusted", p.live_suspected == 0,
            std::to_string(p.live_suspected) + " of " +
                std::to_string(p.live) + " suspected");
  res.check(who + " no-phantom-heartbeats",
            p.stats.heartbeats <= p.send.offered &&
                p.ingested_before_cutoff <= p.send.offered_before_cutoff,
            "ingested more than offered");
  return p.send.offered_before_cutoff > p.ingested_before_cutoff
             ? p.send.offered_before_cutoff - p.ingested_before_cutoff
             : 0;
}

void note_pass(Result& res, const PassOutcome& p, std::vector<std::int64_t>& lag,
               const std::string& prefix) {
  res.note(prefix + "gen.late_p50_ms", p.send.late.quantile_ms(0.5), "ms");
  res.note(prefix + "gen.late_p99_ms", p.send.late.quantile_ms(0.99), "ms");
  res.note(prefix + "gen.cpu_s", static_cast<double>(p.send.cpu_ns) / 1e9, "s");
  res.note(prefix + "gen.send_errors", static_cast<double>(p.send.send_errors),
           "count");
  res.note(prefix + "serve.daemon_cpu_s", static_cast<double>(p.cpu_ns) / 1e9, "s");
  res.note(prefix + "gen.offered_frac", p.send.offered_frac(), "ratio");
  res.note(prefix + "serve.delivery",
           p.send.offered_before_cutoff == 0
               ? 0.0
               : static_cast<double>(p.ingested_before_cutoff) /
                     static_cast<double>(p.send.offered_before_cutoff),
           "ratio");
  res.note(prefix + "serve.lag_p99_ms", ms(quantile_ns(lag, 0.99)), "ms");
  res.note(prefix + "serve.lag_max_ms", ms(quantile_ns(lag, 1.0)), "ms");
  res.note(prefix + "serve.suspected_at_stop", static_cast<double>(p.suspected),
           "count");
  res.note(prefix + "serve.down_long_at_stop", static_cast<double>(p.down_long),
           "count");
  res.note(prefix + "serve.live_at_stop", static_cast<double>(p.live), "count");
  res.note(prefix + "serve.live_suspected_at_stop",
           static_cast<double>(p.live_suspected), "count");
}

}  // namespace

Result run_serve(const Options& opts, const ServeWorkload& w) {
  Result res;
  // A traced run splits its time between the daemon (reference) and the
  // traced loop.
  const auto run_ns =
      static_cast<std::int64_t>((opts.trace ? opts.seconds / 2 : opts.seconds) * 1e9);
  const CrashPlan plan(w.load, opts.seed, run_ns);
  const fs::path dir = fs::path(opts.work_dir) / w.name;
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);

  serve::ServeConfig cfg = w.daemon;
  cfg.capture_dir = dir.string();
  cfg.capture_prefix = "serve";

  // Set-up: daemons initialised in turn (bind, M member slots, capture
  // open). The first, unmeasured, faults in fresh pages; the median of
  // the next kSetupSamples, which reuse the memory freed before them, is
  // reported, and the last one serves.
  std::vector<double> setups;
  std::unique_ptr<serve::ServeDaemon> daemon;
  for (int i = 0; i <= kSetupSamples; ++i) {
    daemon.reset();
    daemon = std::make_unique<serve::ServeDaemon>(cfg);
    const std::int64_t t0 = now_ns();
    const bool ok = daemon->init();
    if (i > 0) setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
    if (!ok) {
      res.check("daemon-init", false, "ServeDaemon::init() failed");
      return res;
    }
  }
  const double setup_s = median(setups);
  const double bytes_per_endpoint =
      static_cast<double>(daemon->fleet().memory_bytes()) /
      static_cast<double>(w.load.endpoints);

  PassOutcome d = drive_pass(*daemon, w, plan, run_ns);
  res.attempted += d.send.offered_before_cutoff;
  res.failed += check_pass(res, d, "daemon");
  const double daemon_cpu_per_hb = per(d.cpu_ns, d.stats.heartbeats);
  res.note("crash_plan.crashes", static_cast<double>(plan.crash_count()), "count");
  note_pass(res, d, d.lag_ns, opts.trace ? "daemon." : "");
  res.note(opts.trace ? "daemon.serve.lag_p50_ms" : "serve.lag_p50_ms",
           ms(quantile_ns(d.lag_ns, 0.5)), "ms");

  if (!opts.trace) {
    res.metric("setup_s", setup_s, "s");
    res.metric("hb_per_cpu_s",
               static_cast<double>(d.stats.heartbeats) / (d.cpu_ns / 1e9),
               "hb/s");
    res.metric("rss_mb", d.rss_mb, "MB");
    daemon.reset();
    fs::remove_all(dir, ec);
    return res;
  }

  daemon.reset();
  TracedIngestLoop loop(cfg);
  if (!loop.init()) {
    res.check("traced-loop-init", false, "TracedIngestLoop::init() failed");
    return res;
  }
  const std::int64_t drops0 = rcvbuf_errors();
  PassOutcome t = drive_pass(loop, w, plan, run_ns);
  const std::int64_t drops1 = rcvbuf_errors();
  res.attempted += t.send.offered_before_cutoff;
  res.failed += check_pass(res, t, "traced");
  // The same seeded load through both loops: whatever the schedule and
  // crash plan decide must come out the same. (Exact equality of every
  // count on an identical, timing-free load is the self-tests' job.)
  res.check("traced-loop-matches-daemon",
            t.send.target == d.send.target &&
                t.stats.drops_decode == d.stats.drops_decode &&
                t.stats.drops_capacity == d.stats.drops_capacity &&
                t.down_long == d.down_long &&
                t.down_long_unsuspected == d.down_long_unsuspected &&
                t.misrouted == d.misrouted,
            "target " + std::to_string(t.send.target) + " vs " +
                std::to_string(d.send.target) + ", down>5η " +
                std::to_string(t.down_long) + " vs " +
                std::to_string(d.down_long));
  note_pass(res, t, t.lag_ns, "");
  fs::remove_all(dir, ec);

  const StageSpans& s = loop.spans();
  const fd::FleetBank::Counters& fc = loop.fleet().counters();
  const std::uint64_t hb = t.stats.heartbeats;
  const std::int64_t busy = s.wall - s.poll;
  const std::int64_t spanned =
      s.run_until + s.recv + s.decode + s.offer + s.capture + s.flush;
  const double overhead = per(t.cpu_ns, hb) / daemon_cpu_per_hb - 1.0;
  // run_until is the event queue plus the fleet's cycle tick and timer
  // callbacks; the queue is priced with no-op events, the rest is fd.
  const double queue_ns = sim_noop_event_ns(loop.sim_events()) *
                          static_cast<double>(loop.sim_events());
  const double ticks_ns = static_cast<double>(s.run_until) - queue_ns;

  // The forecast work inside the fleet flush, priced outside it: the
  // suite's Last predictor fed the captured delays.
  auto predictor = fd::make_paper_predictor("Last")();
  double sum = 0.0;
  const std::int64_t f0 = now_ns();
  for (const std::int64_t lag : t.lag_ns) {
    sum += predictor->predict();
    predictor->observe(static_cast<double>(lag) / 1e6);
  }
  const double forecast_ns = per(now_ns() - f0, t.lag_ns.size());
  g_sink = g_sink + sum;

  res.note("wan.capture_append_ns", per(s.capture, t.stats.captured), "ns");
  res.note("sim.run_until_ns_per_drain", per(s.run_until, s.recv_calls), "ns");
  res.note("sim.run_until_max_ms", ms(s.run_until_max), "ms");
  res.note("sim.events", static_cast<double>(loop.sim_events()), "count");
  res.note("fd.fleet.tick_timer_ns_per_hb", ticks_ns / static_cast<double>(hb),
           "ns");
  res.note("fd.ingest.offer_ns", per(s.offer, hb), "ns");
  res.note("fd.fleet.ingest_ns_per_hb", per(s.flush, hb), "ns");
  res.note("fd.fleet.timer_events", static_cast<double>(fc.timer_events), "count");
  res.note("fd.fleet.member_checks", static_cast<double>(fc.member_checks), "count");
  res.note("fd.fleet.coalesced_events", static_cast<double>(fc.coalesced_events),
           "count");
  res.note("fd.fleet.bytes_per_endpoint", bytes_per_endpoint, "B");
  res.note("net.recv_batch_ns", per(s.recv, s.recv_calls), "ns");
  res.note("net.datagrams_per_recv",
           t.stats.batches == 0 ? 0.0
                                : static_cast<double>(t.stats.datagrams) /
                                      static_cast<double>(t.stats.batches),
           "count");
  res.note("net.decode_ns_per_hb", per(s.decode, hb), "ns");
  res.note("net.kernel_drops",
           drops0 < 0 || drops1 < 0 ? -1.0 : static_cast<double>(drops1 - drops0),
           "count");
  const double idle = static_cast<double>(s.poll) / static_cast<double>(s.wall);
  res.note("serve.idle_frac", idle, "ratio");
  res.note("trace.overhead_frac", overhead, "ratio");

  res.metric("wan.ns_per_hb", per(s.capture, hb), "ns");
  res.metric("sim.ns_per_hb", queue_ns / static_cast<double>(hb), "ns");
  res.metric("net.ns_per_hb", per(s.recv + s.decode, hb), "ns");
  res.metric("forecast.ns_per_hb", forecast_ns, "ns");
  res.metric("fd.ns_per_hb",
             (static_cast<double>(s.offer + s.flush) + ticks_ns) /
                 static_cast<double>(hb),
             "ns");
  res.metric("unattributed_frac",
             1.0 - static_cast<double>(spanned) / static_cast<double>(busy),
             "ratio");
  res.metric("trace.overhead_frac", overhead, "ratio");
  res.metric("latency_p50_ms", ms(quantile_ns(t.lag_ns, 0.5)), "ms");
  res.metric("latency_p99_ms", ms(quantile_ns(t.lag_ns, 0.99)), "ms");
  res.metric("latency_max_ms", ms(quantile_ns(t.lag_ns, 1.0)), "ms");
  res.metric("heartbeats", static_cast<double>(hb), "count");
  res.metric("timer_events", static_cast<double>(fc.timer_events), "count");
  res.metric("suspect_transitions", static_cast<double>(loop.transitions()),
             "count");
  return res;
}

}  // namespace qosbench
