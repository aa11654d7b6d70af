// Open-loop heartbeat load for the serve workloads.
//
// A fleet of M endpoints each sends one heartbeat per η. Endpoint e's
// phase is e·η/M, so the whole fleet forms one evenly spaced stream:
// global heartbeat i belongs to endpoint i mod M, carries seq i div M and
// is due at t0 + i·η/M, where t0 is the instant the daemon starts. Seq
// therefore runs on schedule from the daemon's start, the way the
// daemon's FleetBank (σ_i = epoch + i·η) expects a real fleet to behave.
//
// Crashes come from a seeded CrashPlan: a down endpoint skips the
// heartbeats due while it is down, and seq keeps running on schedule
// through the downtime.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace qosbench {

// A partly filled packed batch goes out this long after its first record
// was due.
inline constexpr std::int64_t kFlushNs = 1'000'000;

// Crash-stop share of the endpoints and the window of the run, as
// fractions of its length, in which they stop.
inline constexpr double kStopShare = 0.01;
inline constexpr double kStopLo = 0.2;
inline constexpr double kStopHi = 0.7;

// The SimCrash model scaled to the heartbeat period: mean time to crash
// and time to repair in periods η.
inline constexpr std::int64_t kMttcPeriods = 40;
inline constexpr std::int64_t kTtrPeriods = 10;

struct LoadSpec {
  std::size_t endpoints = 1000;
  std::int64_t eta_ns = 100'000'000;
  // Heartbeats per datagram: 1 sends single "FDQ1" frames, more sends
  // packed "FDQB" batches. Every record of a batch is stamped with the
  // batch's due time.
  std::size_t records = 1;
  // 0: each heartbeat goes out at its due time. Otherwise heartbeats are
  // relayed at tick boundaries: all those due within a tick leave together
  // at its end, stamped with that instant, so the receiver's drain batches
  // follow the load rather than the sender's scheduling jitter.
  std::int64_t tick_ns = 0;

  enum class Crashes { kNone, kStop, kRecovering };
  Crashes crashes = Crashes::kNone;
  // kStop: kStopShare of the endpoints crash-stops at a uniform time in
  // [kStopLo, kStopHi] × run length.
  // kRecovering: the paper's SimCrash model — first crash at U(0, MTTC),
  // down for TTR, next crash U(MTTC/2, 3·MTTC/2) after each recovery, with
  // MTTC = kMttcPeriods·η and TTR = kTtrPeriods·η.
};

// Per-endpoint downtime: sorted, disjoint [start, end) intervals relative
// to t0. Reproducible from (spec, seed, run length).
class CrashPlan {
 public:
  struct Interval {
    std::int64_t start;
    std::int64_t end;
  };

  CrashPlan(const LoadSpec& spec, std::uint64_t seed, std::int64_t run_ns);

  const Interval* begin(std::size_t e) const {
    return intervals_.data() + offsets_[e];
  }
  const Interval* end(std::size_t e) const {
    return intervals_.data() + offsets_[e + 1];
  }
  bool down(std::size_t e, std::int64_t t) const;
  // Start of the downtime holding t, or -1 when e is up at t.
  std::int64_t down_since(std::size_t e, std::int64_t t) const;
  std::size_t crash_count() const { return intervals_.size(); }

 private:
  std::vector<std::size_t> offsets_;  // endpoints + 1 prefix offsets
  std::vector<Interval> intervals_;
};

// The schedule arithmetic, shared by the sender and the checks.
struct Schedule {
  std::size_t endpoints;
  std::int64_t eta_ns;
  std::int64_t due(std::uint64_t i) const {
    return static_cast<std::int64_t>(
        (static_cast<__int128>(i) * eta_ns) /
        static_cast<__int128>(endpoints));
  }
  std::size_t endpoint(std::uint64_t i) const { return i % endpoints; }
  std::int64_t seq(std::uint64_t i) const {
    return static_cast<std::int64_t>(i / endpoints);
  }
};

// Lateness histogram: 1 µs buckets up to 100 ms plus one overflow bucket.
class LateHistogram {
 public:
  LateHistogram() : buckets_(kBuckets + 1, 0) {}
  void add(std::int64_t late_ns);
  double quantile_ms(double q) const;

 private:
  static constexpr std::size_t kBuckets = 100'000;
  std::vector<std::uint64_t> buckets_;
  std::uint64_t count_ = 0;
};

struct SendReport {
  // Input: heartbeats stamped before this instant (relative to t0) are
  // also counted in offered_before_cutoff.
  std::int64_t cutoff_ns = INT64_MAX;
  std::uint64_t target = 0;    // heartbeats of up endpoints due before stop
  std::uint64_t offered = 0;   // heartbeats in datagrams sent before stop
  std::uint64_t offered_before_cutoff = 0;
  std::uint64_t send_errors = 0;
  std::int64_t cpu_ns = 0;     // generator thread CPU while sending
  // Last seq sent per endpoint, overall and before the cutoff (-1 = none).
  std::vector<std::int64_t> last_seq;
  std::vector<std::int64_t> last_seq_before_cutoff;
  LateHistogram late;          // send instant − datagram due, per datagram
  double offered_frac() const {
    return target == 0 ? 0.0
                       : static_cast<double>(offered) /
                             static_cast<double>(target);
  }
};

// Sends the load to 127.0.0.1:port on schedule from t0 (steady_clock ns)
// until t0 + run_ns, on the calling thread. Returns false if the socket
// could not be set up.
bool send_load(const LoadSpec& spec, const CrashPlan& plan,
               std::uint16_t port, std::int64_t t0, std::int64_t run_ns,
               SendReport& report);

// Sends every heartbeat of the first `periods` cycles at once, without
// pacing (seq ahead of the clock). Used by the self-tests to give two
// ingest loops an identical, timing-free load.
bool send_burst(const LoadSpec& spec, const CrashPlan& plan,
                std::uint16_t port, std::int64_t periods,
                SendReport& report);

}  // namespace qosbench
