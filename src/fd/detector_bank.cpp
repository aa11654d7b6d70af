#include "fd/detector_bank.hpp"

#include <algorithm>
#include <cmath>
#include <exception>

#include "common/assert.hpp"
#include "common/log.hpp"
#include "obs/instruments.hpp"

namespace fdqos::fd {

void DetectorBank::Counters::add(const Counters& other) {
  predictor_updates += other.predictor_updates;
  lane_updates += other.lane_updates;
  coalesced_timers += other.coalesced_timers;
  timer_events += other.timer_events;
  dispatch_errors += other.dispatch_errors;
}

DetectorBank::DetectorBank(sim::Simulator& simulator, Config config)
    : simulator_(simulator), config_(std::move(config)) {
  FDQOS_REQUIRE(config_.eta > Duration::zero());
}

std::size_t DetectorBank::add_group(
    std::unique_ptr<forecast::Predictor> predictor) {
  FDQOS_REQUIRE(!started_);
  FDQOS_REQUIRE(predictor != nullptr);
  groups_.push_back(
      std::make_unique<forecast::SharedPredictor>(std::move(predictor)));
  return groups_.size() - 1;
}

std::size_t DetectorBank::add_lane(std::string name, std::size_t group,
                                   std::unique_ptr<SafetyMargin> margin) {
  FDQOS_REQUIRE(!started_);
  FDQOS_REQUIRE(group < groups_.size());
  FDQOS_REQUIRE(margin != nullptr);
  if (name.empty()) {
    name = groups_[group]->name() + "+" + margin->name();
  }
  lane_names_.push_back(std::move(name));
  lane_group_.push_back(static_cast<std::uint32_t>(group));
  margins_.push_back(std::move(margin));
  freshness_index_.push_back(0);
  suspecting_.push_back(0);
  armed_delta_ms_.push_back(config_.cold_start_timeout.to_millis_double());
  return margins_.size() - 1;
}

const std::string& DetectorBank::lane_name(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return lane_names_[lane];
}

bool DetectorBank::lane_suspecting(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return suspecting_[lane] != 0;
}

std::int64_t DetectorBank::lane_freshness_index(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return freshness_index_[lane];
}

double DetectorBank::lane_delta_ms(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  if (observations_ == 0) return config_.cold_start_timeout.to_millis_double();
  const double delta =
      groups_[lane_group_[lane]]->predict() + margins_[lane]->margin();
  // A NaN/Inf forecast (a diverged estimator under adversarial delays)
  // would silently corrupt every subsequent τ — fail fast instead; the
  // chaos invariant harness leans on this to catch estimator divergence.
  FDQOS_ASSERT(std::isfinite(delta));
  // A (pathological) negative forecast would place τ before σ; clamp — a
  // heartbeat cannot arrive before it is sent.
  return delta > 0.0 ? delta : 0.0;
}

std::size_t DetectorBank::lane_group(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return lane_group_[lane];
}

const SafetyMargin& DetectorBank::lane_margin(std::size_t lane) const {
  FDQOS_REQUIRE(lane < width());
  return *margins_[lane];
}

const forecast::Predictor& DetectorBank::group_predictor(
    std::size_t group) const {
  FDQOS_REQUIRE(group < groups_.size());
  return groups_[group]->underlying();
}

const forecast::SharedPredictor& DetectorBank::shared_predictor(
    std::size_t group) const {
  FDQOS_REQUIRE(group < groups_.size());
  return *groups_[group];
}

std::size_t DetectorBank::suspecting_count() const {
  std::size_t n = 0;
  for (const std::uint8_t s : suspecting_) n += s;
  return n;
}

void DetectorBank::set_timer_host(TimerHost* host, std::size_t member) {
  FDQOS_REQUIRE(!started_);
  FDQOS_REQUIRE(host != nullptr);
  host_ = host;
  host_member_ = member;
}

void DetectorBank::reserve_lanes(std::size_t lanes) {
  lane_names_.reserve(lanes);
  lane_group_.reserve(lanes);
  margins_.reserve(lanes);
  freshness_index_.reserve(lanes);
  suspecting_.reserve(lanes);
  armed_delta_ms_.reserve(lanes);
}

void DetectorBank::start() {
  FDQOS_REQUIRE(width() > 0);
  started_ = true;
  // Cycle 0 begins at the epoch: compute every lane's τ_1 and arm the
  // shared timer, exactly as each legacy detector would for itself.
  begin_cycle(0);
}

void DetectorBank::begin_cycle(std::int64_t k) {
  // At the beginning of cycle k, compute τ_{k+1} = σ_{k+1} + δ_{k+1} for
  // every lane from current estimator state. The shared predictor's
  // forecast is memoized, so a group of N lanes pays one evaluation.
  const std::int64_t next = k + 1;
  const TimePoint sigma_next = config_.epoch + config_.eta * next;
  // Legacy runs one cycle-begin event per detector; the bank runs one for
  // the whole suite.
  counters_.coalesced_timers += width() - 1;
  for (std::size_t lane = 0; lane < width(); ++lane) {
    const double delta = lane_delta_ms(lane);
    armed_delta_ms_[lane] = delta;
    const TimePoint tau_next =
        sigma_next + Duration::from_millis_double(delta);
    // The check runs one tick *after* τ: a heartbeat arriving exactly at
    // the freshness point still counts as fresh (the interval [τ_i,
    // τ_{i+1}] is inspected only once both endpoints' arrivals have had
    // their chance).
    push_expiry(tau_next + Duration::nanos(1), next, lane);
  }
  arm_timer();

  // The next cycle begins at σ_{k+1}. A hosted bank schedules nothing: the
  // host's shared shard tick calls host_begin_cycle(next) at σ_{k+1}.
  if (host_ == nullptr) {
    simulator_.schedule_at(sigma_next, [this, next] { begin_cycle(next); });
  }
}

void DetectorBank::host_begin_cycle(std::int64_t k) {
  FDQOS_REQUIRE(host_ != nullptr);
  begin_cycle(k);
}

void DetectorBank::push_expiry(TimePoint due, std::int64_t index,
                               std::size_t lane) {
  expiries_.push_back(Expiry{due, next_expiry_seq_++, index,
                             static_cast<std::uint32_t>(lane)});
  std::push_heap(expiries_.begin(), expiries_.end(), ExpiryAfter{});
}

TimePoint DetectorBank::earliest_expiry() const {
  return expiries_.empty() ? TimePoint::max() : expiries_.front().due;
}

DetectorBank::Expiry DetectorBank::pop_expiry() {
  std::pop_heap(expiries_.begin(), expiries_.end(), ExpiryAfter{});
  const Expiry e = expiries_.back();
  expiries_.pop_back();
  return e;
}

void DetectorBank::arm_timer() {
  // A freshness point τ_i already covered by a received heartbeat
  // (i ≤ max_seq_) can never raise a suspicion: max_seq_ only grows. Retire
  // such entries from the front without an event or host check of their
  // own, so the timer waits for the next point that still could.
  while (!expiries_.empty() && expiries_.front().index <= max_seq_) {
    pop_expiry();
    ++counters_.coalesced_timers;
  }
  if (expiries_.empty()) return;
  const TimePoint front = expiries_.front().due;
  if (host_ != nullptr) {
    // Hosted: report instead of arming. Same undercut rule — the host
    // already holds an entry at host_reported_, so only an earlier front
    // needs a new one.
    if (host_reported_ <= front) return;
    host_reported_ = front;
    host_->member_deadline_changed(host_member_, front);
    return;
  }
  // Under delay spikes a later cycle's τ can undercut an already-armed
  // earlier one; re-arm at the new front (O(1) tombstone cancel).
  if (armed_.time() <= front) return;
  armed_.cancel();
  armed_ = simulator_.schedule_at(front, [this] { timer_fired(); });
}

void DetectorBank::timer_fired() {
  ++counters_.timer_events;
  pop_due(simulator_.now());
  arm_timer();
}

void DetectorBank::host_timer_check() {
  // A host-queue entry for this member came due. It may be stale (the solo
  // engine would have tombstone-cancelled it): only count a fire when
  // something actually pops. Either way the consumed entry is replaced by
  // re-reporting the current front, so the next real deadline still fires.
  const TimePoint now = simulator_.now();
  if (!expiries_.empty() && expiries_.front().due <= now) {
    ++counters_.timer_events;
    pop_due(now);
  }
  host_reported_ = TimePoint::max();
  arm_timer();
}

void DetectorBank::pop_due(TimePoint now) {
  bool first = true;
  while (!expiries_.empty() && expiries_.front().due <= now) {
    const Expiry e = pop_expiry();
    if (!first) ++counters_.coalesced_timers;
    first = false;
    // A point covered since the timer was armed passes silently too.
    if (e.index > max_seq_) freshness_reached(e.lane, e.index);
  }
}

void DetectorBank::freshness_reached(std::size_t lane, std::int64_t index) {
  // τ_index has passed: the lane's freshness window is now at least
  // [τ_index, ...).
  if (index > freshness_index_[lane]) freshness_index_[lane] = index;
  if (obs::enabled()) obs::instruments().fd_freshness_checks_total.inc();
  update_suspicion(lane);
}

void DetectorBank::handle_up(const net::Message& msg) {
  if (msg.type != net::MessageType::kHeartbeat ||
      msg.from != config_.monitored) {
    deliver_up(msg);
    return;
  }
  observe_heartbeat(msg.seq);
}

void DetectorBank::observe_heartbeat(std::int64_t seq) {
  const TimePoint sigma = config_.epoch + config_.eta * seq;
  double obs_ms = (simulator_.now() - sigma).to_millis_double();
  // On a real deployment residual clock skew can make a delay appear
  // negative; clamp (the paper's NTP assumption makes this ≈ 0).
  if (obs_ms < 0.0) obs_ms = 0.0;

  // Every margin sees the error of the forecast that was current for this
  // observation, so all lanes are fed before any shared predictor updates;
  // within one group the memoized predict() costs one real evaluation. A
  // lane that throws is contained (same contract as the mux fan-out).
  for (std::size_t lane = 0; lane < width(); ++lane) {
    const bool ok = runtime::invoke_isolated(lane_names_[lane].c_str(), [&] {
      margins_[lane]->observe(obs_ms, groups_[lane_group_[lane]]->predict());
    });
    if (!ok) ++counters_.dispatch_errors;
  }
  for (auto& group : groups_) group->observe(obs_ms);
  counters_.predictor_updates += groups_.size();
  counters_.lane_updates += width();
  ++observations_;

  if (seq > max_seq_) max_seq_ = seq;
  for (std::size_t lane = 0; lane < width(); ++lane) update_suspicion(lane);
}

void DetectorBank::update_suspicion(std::size_t lane) {
  // Trust at time t ∈ [τ_i, τ_{i+1}) iff some m_k with k ≥ i was received.
  const bool should_suspect = max_seq_ < freshness_index_[lane];
  if (should_suspect == (suspecting_[lane] != 0)) return;
  suspecting_[lane] = should_suspect ? 1 : 0;
  if (obs::enabled()) {
    auto& m = obs::instruments();
    (should_suspect ? m.fd_transitions_to_suspect : m.fd_transitions_to_trust)
        .inc();
    FDQOS_LOG_TRACE("%s -> %s at %.3f s (delta=%.2f ms)",
                    lane_names_[lane].c_str(),
                    should_suspect ? "suspect" : "trust",
                    simulator_.now().to_seconds_double(), lane_delta_ms(lane));
  }
  if (observer_) {
    const bool ok = runtime::invoke_isolated(lane_names_[lane].c_str(), [&] {
      observer_(lane, simulator_.now(), should_suspect);
    });
    if (!ok) ++counters_.dispatch_errors;
  }
}

}  // namespace fdqos::fd
