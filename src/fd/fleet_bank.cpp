#include "fd/fleet_bank.hpp"

#include <algorithm>
#include <limits>

#include "common/assert.hpp"
#include "common/log.hpp"

namespace fdqos::fd {

void FleetBank::Counters::add(const Counters& other) {
  heartbeats += other.heartbeats;
  batches += other.batches;
  timer_events += other.timer_events;
  member_checks += other.member_checks;
  coalesced_events += other.coalesced_events;
  unroutable += other.unroutable;
  malformed += other.malformed;
}

FleetBank::FleetBank(sim::Simulator& simulator, Config config)
    : simulator_(simulator), config_(std::move(config)) {
  FDQOS_REQUIRE(config_.eta > Duration::zero());
  if (config_.expected_endpoints > 0) {
    members_.reserve(config_.expected_endpoints);
    due_heap_.reserve(config_.expected_endpoints);
    endpoint_of_.reserve(config_.expected_endpoints);
  }
}

DetectorBank& FleetBank::add_member(net::NodeId monitored, std::string name) {
  FDQOS_REQUIRE(!started_);
  DetectorBank::Config member_config;
  member_config.eta = config_.eta;
  member_config.monitored = monitored;
  member_config.epoch = config_.epoch;
  member_config.cold_start_timeout = config_.cold_start_timeout;
  member_config.name = name.empty()
                           ? config_.name + "/" + std::to_string(members_.size())
                           : std::move(name);
  DetectorBank* member =
      arena_.make<DetectorBank>(simulator_, std::move(member_config));
  member->set_timer_host(this, members_.size());
  members_.push_back(member);
  // First registration wins: duplicate ids only occur in per-node
  // attachment mode, which never routes through handle_up.
  endpoint_of_.emplace(monitored, members_.size() - 1);
  return *member;
}

DetectorBank& FleetBank::member(std::size_t e) {
  FDQOS_REQUIRE(e < members_.size());
  return *members_[e];
}

const DetectorBank& FleetBank::member(std::size_t e) const {
  FDQOS_REQUIRE(e < members_.size());
  return *members_[e];
}

void FleetBank::start() {
  FDQOS_REQUIRE(!started_);
  FDQOS_REQUIRE(!members_.empty());
  // Validate before any member arms a deadline: a start that already
  // missed σ_1 is a caller bug, and this check names it (instead of the
  // simulator's past-event abort when a member reports its first timer).
  FDQOS_REQUIRE(simulator_.now() < config_.epoch + config_.eta);
  started_ = true;
  // Raw-coordinator mode: members with no node stack of their own start
  // here. (In the experiment each member was already started by its
  // endpoint's monitor node; its begin_cycle(0) ran inline there.)
  for (DetectorBank* member : members_) {
    if (!member->started()) member->start();
  }
  // The shared cycle tick replaces every member's self-scheduled
  // cycle-begin event: the first tick lands at σ_1 (cycle 0 was computed
  // inline by each member's start()). Must be scheduled before the
  // simulator runs so it precedes same-instant heartbeat sends at σ_1,
  // preserving each member's standalone begin-before-send order.
  simulator_.schedule_at(config_.epoch + config_.eta,
                         [this] { cycle_tick(1); });
}

void FleetBank::cycle_tick(std::int64_t k) {
  // Each member performs exactly its standalone begin_cycle(k) work; the
  // fleet saved (members − 1) simulator events for this cycle.
  counters_.coalesced_events += members_.size() - 1;
  for (DetectorBank* member : members_) {
    member->host_begin_cycle(k);
  }
  const std::int64_t next = k + 1;
  simulator_.schedule_at(config_.epoch + config_.eta * next,
                         [this, next] { cycle_tick(next); });
}

void FleetBank::member_deadline_changed(std::size_t member, TimePoint due) {
  due_heap_.push_back(
      MemberDue{due, next_due_seq_++, static_cast<std::uint32_t>(member)});
  std::push_heap(due_heap_.begin(), due_heap_.end(), MemberDueAfter{});
  // Reports made while fired() drains the entries due now wait for its
  // closing arm(): arming here would schedule a second event at this very
  // instant for the entries still queued behind the one being serviced.
  if (due_heap_.front().due > simulator_.now()) arm();
}

void FleetBank::arm() {
  if (due_heap_.empty()) return;
  const TimePoint front = due_heap_.front().due;
  // One armed event per shard; re-arm only when the front undercuts it
  // (tombstone cancel), exactly the member banks' own rule.
  if (armed_.time() <= front) return;
  armed_.cancel();
  armed_ = simulator_.schedule_at(front, [this] { fired(); });
}

void FleetBank::fired() {
  ++counters_.timer_events;
  const TimePoint now = simulator_.now();
  while (!due_heap_.empty() && due_heap_.front().due <= now) {
    std::pop_heap(due_heap_.begin(), due_heap_.end(), MemberDueAfter{});
    const MemberDue e = due_heap_.back();
    due_heap_.pop_back();
    ++counters_.member_checks;
    // The check pops the member's due freshness points (or nothing, for a
    // stale entry) and re-reports its new front — every consumed entry is
    // replaced, so no member deadline can be skipped. (Armed-event savings
    // are member_counters().timer_events − counters_.timer_events.)
    members_[e.member]->host_timer_check();
  }
  arm();
}

bool FleetBank::seq_in_range(std::int64_t seq) const {
  if (seq < 0) return false;
  const std::int64_t eta_ns = config_.eta.count_nanos();
  // epoch + η·seq must not overflow the ns timeline; anything that far out
  // is line noise, not a heartbeat.
  return seq <= std::numeric_limits<std::int64_t>::max() / eta_ns;
}

void FleetBank::handle_up(const net::Message& msg) {
  if (msg.type != net::MessageType::kHeartbeat) {
    deliver_up(msg);
    return;
  }
  const auto it = endpoint_of_.find(msg.from);
  if (it == endpoint_of_.end()) {
    ++counters_.unroutable;
    deliver_up(msg);
    return;
  }
  if (!seq_in_range(msg.seq)) {
    ++counters_.malformed;
    FDQOS_LOG_WARN("%s: dropping heartbeat with out-of-range seq %lld from %d",
                   config_.name.c_str(), static_cast<long long>(msg.seq),
                   static_cast<int>(msg.from));
    return;
  }
  ++counters_.heartbeats;
  members_[it->second]->observe_heartbeat(msg.seq);
}

void FleetBank::ingest(std::size_t endpoint, std::int64_t seq) {
  FDQOS_REQUIRE(endpoint < members_.size());
  if (!seq_in_range(seq)) {
    ++counters_.malformed;
    return;
  }
  ++counters_.heartbeats;
  members_[endpoint]->observe_heartbeat(seq);
}

void FleetBank::ingest_columns(const HeartbeatColumns& batch) {
  FDQOS_REQUIRE(batch.endpoint.size() == batch.seq.size());
  ++counters_.batches;
  for (std::size_t i = 0; i < batch.endpoint.size(); ++i) {
    ingest(batch.endpoint[i], batch.seq[i]);
  }
}

std::size_t FleetBank::total_lanes() const {
  std::size_t n = 0;
  for (const DetectorBank* member : members_) n += member->width();
  return n;
}

std::size_t FleetBank::suspecting_count() const {
  std::size_t n = 0;
  for (const DetectorBank* member : members_) n += member->suspecting_count();
  return n;
}

DetectorBank::Counters FleetBank::member_counters() const {
  DetectorBank::Counters total;
  for (const DetectorBank* member : members_) total.add(member->counters());
  return total;
}

std::size_t FleetBank::memory_bytes() const {
  std::size_t bytes = sizeof(*this);
  bytes += arena_.allocated_bytes();
  bytes += members_.capacity() * sizeof(DetectorBank*);
  bytes += due_heap_.capacity() * sizeof(MemberDue);
  // unordered_map: buckets + one node per entry (approximation).
  bytes += endpoint_of_.bucket_count() * sizeof(void*);
  bytes += endpoint_of_.size() *
           (sizeof(std::pair<net::NodeId, std::size_t>) + 2 * sizeof(void*));
  return bytes;
}

}  // namespace fdqos::fd
