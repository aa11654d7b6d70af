// FreshnessDetector — the paper's modular push-style crash failure
// detector (§2.3), one (predictor, safety margin) pair per instance.
//
// The monitored process q sends heartbeat m_i at σ_i = i·η. At the
// beginning of cycle k the detector computes the freshness point
//
//   τ_{k+1} = σ_{k+1} + δ_{k+1},   δ_{k+1} = pred_{k+1} + sm_{k+1}
//
// using the observations received so far. At any time t ∈ [τ_i, τ_{i+1})
// the detector trusts q iff it has received some heartbeat m_k with k ≥ i;
// otherwise it suspects q. Heartbeats may be lost and reordered: the
// observation list is kept in arrival order and a stale heartbeat (seq
// below the current freshness index) does not restore trust.
//
// Since the DetectorBank refactor this class is a thin single-lane wrapper
// over a 1-wide fd::DetectorBank — the batched engine is the canonical
// execution path (see docs/detector_bank.md); this wrapper keeps the
// one-detector API for examples, the UDP live monitor, and tests.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "fd/detector_bank.hpp"
#include "fd/safety_margin.hpp"
#include "forecast/predictor.hpp"
#include "sim/simulator.hpp"

namespace fdqos::fd {

class FreshnessDetector final : public DetectorBank {
 public:
  struct Config {
    Duration eta = Duration::seconds(1);   // monitored process's period η
    net::NodeId monitored = 0;             // heartbeat source to watch
    TimePoint epoch = TimePoint::origin();  // σ_i = epoch + i·η
    // Timeout used while no observation has arrived yet (cold start); the
    // adaptive δ takes over from the first heartbeat.
    Duration cold_start_timeout = Duration::seconds(1);
    std::string name;  // display name, e.g. "LAST+JAC_low"
  };

  // observer(time, suspecting): fired on every trust <-> suspect transition.
  using SuspectObserver = std::function<void(TimePoint, bool)>;

  FreshnessDetector(sim::Simulator& simulator, Config config,
                    std::unique_ptr<forecast::Predictor> predictor,
                    std::unique_ptr<SafetyMargin> margin);

  void set_observer(SuspectObserver observer) {
    DetectorBank::set_observer(
        [cb = std::move(observer)](std::size_t, TimePoint t, bool suspecting) {
          cb(t, suspecting);
        });
  }

  const std::string& name() const { return lane_name(0); }
  bool suspecting() const { return lane_suspecting(0); }
  // Highest i whose τ_i passed uncovered (see lane_freshness_index()).
  std::int64_t freshness_index() const { return lane_freshness_index(0); }
  // Current timeout δ = pred + sm, in milliseconds.
  double current_delta_ms() const { return lane_delta_ms(0); }

  const forecast::Predictor& predictor() const { return group_predictor(0); }
  const SafetyMargin& margin() const { return lane_margin(0); }
};

}  // namespace fdqos::fd
