#include "load.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/rng.hpp"
#include "net/codec.hpp"
#include "stats.hpp"

namespace qosbench {

using fdqos::Rng;

CrashPlan::CrashPlan(const LoadSpec& spec, std::uint64_t seed,
                     std::int64_t run_ns) {
  const std::size_t m = spec.endpoints;
  offsets_.assign(m + 1, 0);
  Rng rng = Rng(seed).fork("crash-plan");
  std::vector<std::vector<Interval>> per(m);
  if (spec.crashes == LoadSpec::Crashes::kStop) {
    const auto stops = static_cast<std::size_t>(
        static_cast<double>(m) * kStopShare + 0.5);
    // A seeded choice of distinct endpoints: partial Fisher–Yates.
    std::vector<std::size_t> ids(m);
    for (std::size_t e = 0; e < m; ++e) ids[e] = e;
    for (std::size_t k = 0; k < stops && k < m; ++k) {
      const auto j = static_cast<std::size_t>(rng.uniform_int(
          static_cast<std::int64_t>(k), static_cast<std::int64_t>(m - 1)));
      std::swap(ids[k], ids[j]);
      const auto lo = static_cast<std::int64_t>(kStopLo * run_ns);
      const auto hi = static_cast<std::int64_t>(kStopHi * run_ns);
      per[ids[k]].push_back({rng.uniform_int(lo, hi), INT64_MAX});
    }
  } else if (spec.crashes == LoadSpec::Crashes::kRecovering) {
    const std::int64_t mttc = kMttcPeriods * spec.eta_ns;
    const std::int64_t ttr = kTtrPeriods * spec.eta_ns;
    for (std::size_t e = 0; e < m; ++e) {
      Rng er = rng.fork(static_cast<std::uint64_t>(e));
      std::int64_t t = er.uniform_int(0, mttc);
      while (t < run_ns) {
        per[e].push_back({t, t + ttr});
        t += ttr + er.uniform_int(mttc / 2, mttc * 3 / 2);
      }
    }
  }
  for (std::size_t e = 0; e < m; ++e) {
    offsets_[e + 1] = offsets_[e] + per[e].size();
    intervals_.insert(intervals_.end(), per[e].begin(), per[e].end());
  }
}

std::int64_t CrashPlan::down_since(std::size_t e, std::int64_t t) const {
  for (const Interval* it = begin(e); it != end(e); ++it) {
    if (t < it->start) return -1;
    if (t < it->end) return it->start;
  }
  return -1;
}

bool CrashPlan::down(std::size_t e, std::int64_t t) const {
  return down_since(e, t) >= 0;
}

void LateHistogram::add(std::int64_t late_ns) {
  const std::int64_t us = std::max<std::int64_t>(0, late_ns / 1000);
  ++buckets_[std::min<std::size_t>(static_cast<std::size_t>(us), kBuckets)];
  ++count_;
}

double LateHistogram::quantile_ms(double q) const {
  if (count_ == 0) return 0.0;
  const auto rank = static_cast<std::uint64_t>(q * (count_ - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b <= kBuckets; ++b) {
    seen += buckets_[b];
    if (seen >= rank) return static_cast<double>(b) / 1000.0;
  }
  return static_cast<double>(kBuckets) / 1000.0;
}

namespace {

constexpr std::size_t kBurst = 64;  // datagrams per sendmmsg
constexpr std::int64_t kSpinNs = 100'000;

int connect_udp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) !=
      0) {
    ::close(fd);
    return -1;
  }
  const int sndbuf = 4 << 20;
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf, sizeof sndbuf);
  return fd;
}

// Builds datagrams in order of due time and sends them in bursts.
class Sender {
 public:
  Sender(const LoadSpec& spec, int fd, SendReport& report)
      : spec_(spec), fd_(fd), report_(report), bufs_(kBurst),
        stamps_(kBurst), counts_(kBurst) {
    open_.reserve(spec.records);
  }

  bool burst_full() const { return used_ == kBurst; }
  bool open_empty() const { return open_.empty(); }
  std::size_t open_size() const { return open_.size(); }
  std::int64_t open_flush_due() const { return open_first_due_ + kFlushNs; }

  // Adds one heartbeat due at `due` (relative ns); closes the datagram it
  // completes.
  void add(std::size_t endpoint, std::int64_t seq, std::int64_t due) {
    if (spec_.records <= 1) {
      fdqos::net::Message msg;
      msg.type = fdqos::net::MessageType::kHeartbeat;
      msg.from = static_cast<fdqos::net::NodeId>(endpoint);
      msg.seq = seq;
      msg.send_time = fdqos::TimePoint::from_nanos(t0_ + due);
      bufs_[used_] = fdqos::net::encode_message(msg);
      stamps_[used_] = due;
      counts_[used_] = 1;
      ++used_;
      return;
    }
    if (open_.empty()) open_first_due_ = due;
    open_.push_back({endpoint, seq});
    if (open_.size() == spec_.records) close_open(due);
  }

  // Closes the partly filled datagram, stamped with `stamp`.
  void close_open(std::int64_t stamp) {
    if (open_.empty()) return;
    auto& buf = bufs_[used_];
    fdqos::net::begin_packed_batch(buf);
    for (const auto& [endpoint, seq] : open_) {
      fdqos::net::append_packed_heartbeat(
          buf, static_cast<fdqos::net::NodeId>(endpoint), seq,
          fdqos::TimePoint::from_nanos(t0_ + stamp));
    }
    fdqos::net::finish_packed_batch(buf);
    stamps_[used_] = stamp;
    counts_[used_] = open_.size();
    ++used_;
    open_.clear();
  }

  // Sends the closed datagrams; lateness is measured when the send call
  // starts.
  void flush() {
    if (used_ == 0) return;
    mmsghdr msgs[kBurst];
    iovec iovs[kBurst];
    std::memset(msgs, 0, sizeof msgs);
    for (std::size_t d = 0; d < used_; ++d) {
      iovs[d].iov_base = bufs_[d].data();
      iovs[d].iov_len = bufs_[d].size();
      msgs[d].msg_hdr.msg_iov = &iovs[d];
      msgs[d].msg_hdr.msg_iovlen = 1;
    }
    std::size_t done = 0;
    while (done < used_) {
      const std::int64_t sent_at = now_ns() - t0_;
      const int n = ::sendmmsg(fd_, msgs + done,
                               static_cast<unsigned>(used_ - done), 0);
      if (n <= 0) {
        if (n < 0 && errno == EINTR) continue;
        ++report_.send_errors;
        ++done;  // drop this datagram, keep the rest going
        continue;
      }
      for (int k = 0; k < n; ++k, ++done) {
        report_.late.add(sent_at - stamps_[done]);
        report_.offered += counts_[done];
        if (stamps_[done] < report_.cutoff_ns) {
          report_.offered_before_cutoff += counts_[done];
        }
      }
    }
    used_ = 0;
  }

  void set_t0(std::int64_t t0) { t0_ = t0; }

 private:
  const LoadSpec& spec_;
  int fd_;
  SendReport& report_;
  std::int64_t t0_ = 0;
  std::vector<std::vector<std::uint8_t>> bufs_;
  std::vector<std::int64_t> stamps_;
  std::vector<std::size_t> counts_;
  std::size_t used_ = 0;
  std::vector<std::pair<std::size_t, std::int64_t>> open_;
  std::int64_t open_first_due_ = 0;
};

void sleep_until(std::int64_t abs_ns) {
  timespec ts{};
  ts.tv_sec = abs_ns / 1'000'000'000;
  ts.tv_nsec = abs_ns % 1'000'000'000;
  while (clock_nanosleep(CLOCK_MONOTONIC, TIMER_ABSTIME, &ts, nullptr) ==
         EINTR) {
  }
}

}  // namespace

bool send_load(const LoadSpec& spec, const CrashPlan& plan,
               std::uint16_t port, std::int64_t t0, std::int64_t run_ns,
               SendReport& report) {
  const int fd = connect_udp(port);
  if (fd < 0) return false;
  const Schedule sched{spec.endpoints, spec.eta_ns};
  report.last_seq.assign(spec.endpoints, -1);
  report.last_seq_before_cutoff.assign(spec.endpoints, -1);
  // Per-endpoint cursor into the crash plan: each endpoint's heartbeats
  // are visited in time order, so the down test is amortized O(1).
  std::vector<const CrashPlan::Interval*> cursor(spec.endpoints);
  for (std::size_t e = 0; e < spec.endpoints; ++e) cursor[e] = plan.begin(e);
  auto is_down = [&](std::size_t e, std::int64_t t) {
    while (cursor[e] != plan.end(e) && cursor[e]->end <= t) ++cursor[e];
    return cursor[e] != plan.end(e) && cursor[e]->start <= t;
  };

  // When heartbeats go out: at their due time, or relayed at the next
  // tick boundary.
  auto release = [&](std::uint64_t i) {
    const std::int64_t due = sched.due(i);
    return spec.tick_ns > 0 ? (due + spec.tick_ns - 1) / spec.tick_ns * spec.tick_ns
                            : due;
  };
  Sender sender(spec, fd, report);
  sender.set_t0(t0);
  const std::int64_t cpu0 = thread_cpu_ns();
  std::uint64_t next = 0;
  for (;;) {
    const std::int64_t now = now_ns() - t0;
    if (now >= run_ns) break;
    while (!sender.burst_full() && release(next) <= now) {
      const std::int64_t due = release(next);
      if (!sender.open_empty() && due > sender.open_flush_due()) {
        // The open batch's flush time came before this heartbeat.
        sender.close_open(sender.open_flush_due());
        continue;
      }
      const std::size_t e = sched.endpoint(next);
      if (!is_down(e, sched.due(next))) {
        ++report.target;
        report.last_seq[e] = sched.seq(next);
        if (due < report.cutoff_ns) {
          report.last_seq_before_cutoff[e] = sched.seq(next);
        }
        sender.add(e, sched.seq(next), due);
      }
      ++next;
    }
    if (!sender.burst_full() && !sender.open_empty() &&
        now >= sender.open_flush_due()) {
      sender.close_open(sender.open_flush_due());
    }
    const bool had_work = sender.burst_full();
    sender.flush();
    if (had_work) continue;  // a full burst: more may already be due
    // Wake when the next datagram is complete: at the heartbeat that fills
    // the open batch (down endpoints only make it later), or at its flush
    // time, counted from its first heartbeat.
    const std::int64_t flush_at = sender.open_empty()
                                      ? release(next) + kFlushNs
                                      : sender.open_flush_due();
    std::int64_t wake = release(next + spec.records - 1 - sender.open_size());
    if (spec.records > 1) wake = std::min(wake, flush_at);
    wake = std::min(wake, run_ns);
    // Sleep to just short of the due time and spin the rest: a sleeping
    // thread wakes tens of µs late, which would show up as generator
    // lateness and in the measured lag.
    if (wake - (now_ns() - t0) > kSpinNs) sleep_until(t0 + wake - kSpinNs);
    while (now_ns() - t0 < wake) {
    }
  }
  // Heartbeats still waiting in a partly filled batch go out at stop.
  if (!sender.open_empty()) {
    sender.close_open(std::min(sender.open_flush_due(), run_ns));
  }
  sender.flush();
  // Heartbeats due before stop that the loop never reached (it fell
  // behind) belong to the target but were not offered.
  for (; sched.due(next) < run_ns; ++next) {
    if (!is_down(sched.endpoint(next), sched.due(next))) ++report.target;
  }
  report.cpu_ns = thread_cpu_ns() - cpu0;
  ::close(fd);
  return true;
}

bool send_burst(const LoadSpec& spec, const CrashPlan& plan,
                std::uint16_t port, std::int64_t periods,
                SendReport& report) {
  const int fd = connect_udp(port);
  if (fd < 0) return false;
  const Schedule sched{spec.endpoints, spec.eta_ns};
  report.last_seq.assign(spec.endpoints, -1);
  report.last_seq_before_cutoff.assign(spec.endpoints, -1);
  Sender sender(spec, fd, report);
  sender.set_t0(now_ns());
  const std::uint64_t total =
      static_cast<std::uint64_t>(periods) * spec.endpoints;
  for (std::uint64_t i = 0; i < total; ++i) {
    const std::size_t e = sched.endpoint(i);
    if (plan.down(e, sched.due(i))) continue;
    ++report.target;
    report.last_seq[e] = sched.seq(i);
    if (sched.due(i) < report.cutoff_ns) {
      report.last_seq_before_cutoff[e] = sched.seq(i);
    }
    sender.add(e, sched.seq(i), sched.due(i));
    if (sender.burst_full()) sender.flush();
  }
  sender.close_open(sched.due(total));
  sender.flush();
  ::close(fd);
  return true;
}

}  // namespace qosbench
