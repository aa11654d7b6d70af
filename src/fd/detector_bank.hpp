// DetectorBank — a batched columnar engine for N freshness detectors over
// one heartbeat arrival stream.
//
// The paper's fair-comparison design (§4) runs 30 detectors — 5 predictors
// × 6 safety margins — over the identical arrival process. Instantiating 30
// independent FreshnessDetectors recomputes each of the 5 distinct predictor
// states 6 times per heartbeat (including the ARIMA refits) and schedules
// 2 simulator events per detector per cycle. The bank collapses that
// duplication:
//
//   * each *distinct* predictor is owned exactly once, behind a
//     forecast::SharedPredictor handle — one observe() and one real
//     predict() evaluation per heartbeat per group;
//   * the per-(predictor, margin) state lives in struct-of-arrays lanes
//     (margin, freshness index, suspect flag, armed δ), updated in one
//     pass per heartbeat;
//   * freshness-point expiries feed one ordered timer queue per bank, with
//     a single armed simulator event, instead of one event per detector —
//     and one cycle-begin event per bank instead of one per detector;
//   * a queued freshness point τ_i that a received heartbeat already
//     covers (i ≤ max_seq) can never raise a suspicion, so it is retired
//     without an event: the armed timer waits only for points that still
//     could. On-time traffic costs about one timer event per cycle, and
//     timer cost scales with possible suspicions, not with lanes.
//
// Semantics are *identical* to N independent FreshnessDetectors: lanes are
// independent given the shared stream, and the shared predictor state is
// byte-identical to each lane's private copy (same observations, same
// deterministic update). The bank-vs-legacy equivalence suite
// (tests/exp/bank_equivalence_test.cpp) and the chaos golden CSVs pin this
// guarantee. See docs/detector_bank.md.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "fd/safety_margin.hpp"
#include "forecast/shared_predictor.hpp"
#include "runtime/layer.hpp"
#include "sim/simulator.hpp"

namespace fdqos::fd {

class DetectorBank : public runtime::Layer {
 public:
  struct Config {
    Duration eta = Duration::seconds(1);   // monitored process's period η
    net::NodeId monitored = 0;             // heartbeat source to watch
    TimePoint epoch = TimePoint::origin();  // σ_i = epoch + i·η
    // Timeout used while no observation has arrived yet (cold start); the
    // adaptive δ takes over from the first heartbeat.
    Duration cold_start_timeout = Duration::seconds(1);
    std::string name = "bank";  // log/telemetry label for the whole bank
  };

  // Engine counters, cheap plain integers on the single-threaded hot path;
  // the experiment flushes them into the fdqos::obs registry at run end.
  struct Counters {
    std::uint64_t predictor_updates = 0;  // observe() on shared predictors
    std::uint64_t lane_updates = 0;       // per-lane margin+suspicion passes
    // Per-detector simulator events avoided by the shared cycle tick, the
    // ordered expiry queue and the retirement of covered freshness points
    // (legacy schedules one begin event and one freshness event per
    // detector per cycle).
    std::uint64_t coalesced_timers = 0;
    std::uint64_t timer_events = 0;     // armed timer events actually fired
    std::uint64_t dispatch_errors = 0;  // lane updates/observers that threw

    void add(const Counters& other);
  };

  // observer(lane, time, suspecting): fired on every trust <-> suspect
  // transition of one lane. Exceptions are contained to the offending lane
  // (counted in dispatch_errors), mirroring the MultiPlexer's fan-out
  // isolation — one faulty consumer must not starve its sibling lanes.
  using LaneObserver =
      std::function<void(std::size_t lane, TimePoint t, bool suspecting)>;

  // Timer host for bank-of-banks coalescing (fd::FleetBank). A hosted bank
  // never arms its own simulator event and never schedules its own
  // cycle-begin tick; instead it reports its earliest pending freshness
  // deadline through member_deadline_changed(), and the host drives
  // host_begin_cycle() / host_timer_check() at the right instants — one
  // armed event and one cycle tick per *shard* instead of per bank.
  class TimerHost {
   public:
    virtual ~TimerHost() = default;
    // The member's earliest pending deadline dropped below every deadline
    // reported since the host's last host_timer_check() on this member.
    virtual void member_deadline_changed(std::size_t member,
                                         TimePoint due) = 0;
  };

  DetectorBank(sim::Simulator& simulator, Config config);

  // Assembly, before start(): register each distinct predictor once, then
  // hang margin lanes off it. Returns the group/lane index.
  std::size_t add_group(std::unique_ptr<forecast::Predictor> predictor);
  std::size_t add_lane(std::string name, std::size_t group,
                       std::unique_ptr<SafetyMargin> margin);

  void set_observer(LaneObserver observer) { observer_ = std::move(observer); }

  // Enter hosted mode (before start()): `member` is this bank's index at
  // the host. In hosted mode start() computes cycle 0 inline but schedules
  // nothing; the host owns all simulator events.
  void set_timer_host(TimerHost* host, std::size_t member);

  void start() override;
  void handle_up(const net::Message& msg) override;

  // Heartbeat fast path: identical semantics to handle_up for a heartbeat
  // with this sequence number from the monitored node, minus the message
  // filter — the caller (FleetBank's router / columnar ingest) has already
  // established provenance. This is the fleet's allocation-free
  // steady-state entry.
  void observe_heartbeat(std::int64_t seq);

  // Hosted-mode entry points (TimerHost side).
  //
  // host_begin_cycle(k): exactly begin_cycle(k) minus the self-scheduling
  // of cycle k+1 — the host's shared tick calls every member in turn.
  void host_begin_cycle(std::int64_t k);
  // host_timer_check(): called whenever a deadline this member reported
  // comes due at the host. Pops and dispatches every due freshness point
  // (if any — a stale entry is a no-op), retires covered ones, then
  // re-reports the earliest deadline that can still raise a suspicion, so
  // every consumed host-queue entry is replaced and no such deadline is
  // ever lost.
  void host_timer_check();
  // Earliest queued freshness deadline; TimePoint::max() when idle. The
  // front may already be covered by a heartbeat that arrived since the
  // queue was last serviced.
  TimePoint earliest_expiry() const;
  bool started() const { return started_; }

  // Capacity hints for allocation-free steady state (fleet assembly sizes
  // these from width × cycles-in-flight before the run starts).
  void reserve_lanes(std::size_t lanes);
  void reserve_expiries(std::size_t n) { expiries_.reserve(n); }

  std::size_t width() const { return margins_.size(); }
  std::size_t group_count() const { return groups_.size(); }

  // Bank-level state: every lane sees the same stream, so the highest
  // heartbeat sequence (0 = none) and the observation count are shared.
  std::int64_t max_seq() const { return max_seq_; }
  std::size_t observations() const { return observations_; }

  // Per-lane state.
  const std::string& lane_name(std::size_t lane) const;
  bool lane_suspecting(std::size_t lane) const;
  // Highest i whose freshness point τ_i has passed while no m_k with
  // k ≥ i had been received. Points a heartbeat already covered are
  // retired without advancing it, so while the lane trusts the value may
  // lag the current window [τ_i, τ_{i+1}); the suspicion rule
  // lane_suspecting(lane) ≡ max_seq() < lane_freshness_index(lane) holds
  // either way.
  std::int64_t lane_freshness_index(std::size_t lane) const;
  // Current timeout δ = pred + sm of the lane, in milliseconds.
  double lane_delta_ms(std::size_t lane) const;
  std::size_t lane_group(std::size_t lane) const;
  const SafetyMargin& lane_margin(std::size_t lane) const;
  const forecast::Predictor& group_predictor(std::size_t group) const;
  const forecast::SharedPredictor& shared_predictor(std::size_t group) const;

  std::size_t suspecting_count() const;
  const Counters& counters() const { return counters_; }

  // Deadline of the single armed freshness-timer event; TimePoint::max()
  // while no timer is armed. The timer is armed only at freshness points
  // no received heartbeat covered yet, so the obs plane's freshness-timer
  // lag gauge (`deadline − now`) shows how far away the next possible
  // suspicion is, and a live scrape can see a detector coasting vs. about
  // to fire. A heartbeat arriving after the timer was armed can cover that
  // point too; the timer then fires without a suspicion and re-arms.
  // Hosted banks have no armed event of their own; their deadline is the
  // front of the expiry queue (the host fires at or before it).
  TimePoint next_timer_deadline() const {
    return host_ != nullptr ? earliest_expiry() : armed_.time();
  }

 private:
  struct Expiry {
    TimePoint due;
    std::uint64_t seq;  // push order — stable tie-break, matches the
                        // simulator's insertion-order semantics
    std::int64_t index;
    std::uint32_t lane;
  };
  struct ExpiryAfter {
    bool operator()(const Expiry& a, const Expiry& b) const {
      if (a.due != b.due) return a.due > b.due;  // min-heap
      return a.seq > b.seq;
    }
  };

  void begin_cycle(std::int64_t k);
  void push_expiry(TimePoint due, std::int64_t index, std::size_t lane);
  Expiry pop_expiry();
  void arm_timer();
  void timer_fired();
  void pop_due(TimePoint now);
  void freshness_reached(std::size_t lane, std::int64_t index);
  void update_suspicion(std::size_t lane);

  sim::Simulator& simulator_;
  Config config_;
  LaneObserver observer_;

  // Predictor groups: one SharedPredictor per distinct predictor config.
  std::vector<std::unique_ptr<forecast::SharedPredictor>> groups_;

  // Lane state, struct-of-arrays: index-aligned across all vectors.
  std::vector<std::string> lane_names_;
  std::vector<std::uint32_t> lane_group_;
  std::vector<std::unique_ptr<SafetyMargin>> margins_;
  std::vector<std::int64_t> freshness_index_;
  std::vector<std::uint8_t> suspecting_;
  std::vector<double> armed_delta_ms_;  // δ used for the last armed τ

  // Coalesced freshness timers: one ordered queue (a binary min-heap over
  // a plain vector so capacity can be reserved up front — the fleet's
  // allocation-free steady state), one armed sim event at the earliest
  // entry not yet covered by a heartbeat. The (due, seq) comparator
  // totally orders entries, so heap pops are deterministic.
  std::vector<Expiry> expiries_;
  std::uint64_t next_expiry_seq_ = 0;
  sim::EventHandle armed_;  // armed_.time() is the deadline; max() = idle

  // Hosted mode (see TimerHost): the host pointer, this bank's member
  // index there, and the lowest deadline reported since the last check —
  // arm_timer() reports only when the front undercuts it, mirroring the
  // solo "re-arm only if earlier" rule.
  TimerHost* host_ = nullptr;
  std::size_t host_member_ = 0;
  TimePoint host_reported_ = TimePoint::max();

  std::int64_t max_seq_ = 0;
  std::size_t observations_ = 0;
  bool started_ = false;
  Counters counters_;
};

}  // namespace fdqos::fd
