// The serve workloads: the real serve::ServeDaemon fed over loopback by
// the open-loop generator of load.hpp, and TracedIngestLoop, the
// benchmark's own copy of ServeDaemon::run() with one span per stage per
// drain.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fd/fleet_bank.hpp"
#include "fd/fleet_ingest.hpp"
#include "load.hpp"
#include "net/udp_ingest.hpp"
#include "serve/daemon.hpp"
#include "sim/simulator.hpp"
#include "stats.hpp"
#include "wan/tracestore.hpp"

namespace qosbench {

struct ServeWorkload {
  std::string name;
  LoadSpec load;
  fdqos::serve::ServeConfig daemon;  // port 0, capture dir set per pass
};

// serve-fleet: 10⁵ endpoints, η = 500 ms, 64-record FDQB datagrams, 1 %
// crash-stop. serve-churn: 10⁴ endpoints, η = 100 ms, one FDQ1 datagram
// per heartbeat, SimCrash-style crash/recovery (MTTC 40η, TTR 10η).
ServeWorkload serve_fleet_workload();
ServeWorkload serve_churn_workload();

// Time per stage, summed over the loop's iterations (nanoseconds).
struct StageSpans {
  std::int64_t run_until = 0;
  std::int64_t run_until_max = 0;
  std::int64_t recv = 0;
  std::int64_t decode = 0;
  std::int64_t offer = 0;
  std::int64_t capture = 0;
  std::int64_t flush = 0;
  std::int64_t poll = 0;
  std::uint64_t recv_calls = 0;
  std::int64_t wall = 0;
};

// The same public calls as ServeDaemon::run(), in the same order per
// drain, with one clock read per stage per drain and never one per
// heartbeat. Decoding is split from offering so each stage gets its own
// span: a drain is decoded into columns, then offered, then captured,
// then flushed. Its Stats and suspect set must equal the daemon's on the
// same load (self-tests), so it cannot drift from the daemon unnoticed.
class TracedIngestLoop {
 public:
  explicit TracedIngestLoop(fdqos::serve::ServeConfig config);
  TracedIngestLoop(const TracedIngestLoop&) = delete;
  TracedIngestLoop& operator=(const TracedIngestLoop&) = delete;

  // Fails unless config.suite is "lite", the only suite it replicates.
  bool init();
  int run();
  void request_stop() { stop_.store(true, std::memory_order_relaxed); }

  std::uint16_t udp_port() const { return socket_->local_port(); }
  const fdqos::serve::ServeDaemon::Stats& stats() const { return stats_; }
  const fdqos::fd::FleetBank& fleet() const { return *fleet_; }
  const fdqos::fd::FleetIngest& ingest() const { return *ingest_; }
  std::vector<std::string> capture_segments() const {
    return capture_ != nullptr ? capture_->segments()
                               : std::vector<std::string>{};
  }
  const StageSpans& spans() const { return spans_; }
  std::uint64_t transitions() const { return transitions_; }
  std::uint64_t sim_events() const { return simulator_.executed_events(); }

 private:
  fdqos::serve::ServeConfig config_;
  fdqos::sim::Simulator simulator_;
  std::unique_ptr<fdqos::net::UdpIngestSocket> socket_;
  std::unique_ptr<fdqos::fd::FleetBank> fleet_;
  std::unique_ptr<fdqos::fd::FleetIngest> ingest_;
  std::unique_ptr<fdqos::wan::RotatingFdtWriter> capture_;
  fdqos::serve::ServeDaemon::Stats stats_;
  StageSpans spans_;
  std::uint64_t transitions_ = 0;
  std::atomic<bool> stop_{false};
};

// Loads every capture segment; appends drain − due per sample to `lag`
// and counts in `before` the samples due before `cutoff_ns`. Returns the
// sample count, or -1 with `error` set.
//
// The capture's send-time column is the stamped due time minus the
// daemon's own start instant, which lies a few µs after the generator's
// t0. Every stamp is a multiple of `grid_ns` (η/M) after t0, so rounding a
// send time up to the grid recovers the exact due time.
std::int64_t read_capture(const std::vector<std::string>& segments,
                          std::int64_t grid_ns, std::int64_t cutoff_ns,
                          std::vector<std::int64_t>& lag,
                          std::uint64_t& before, std::string& error);

Result run_serve(const Options& opts, const ServeWorkload& w);

}  // namespace qosbench
