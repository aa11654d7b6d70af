// The paper-qos workload: Falai & Bondavalli's §5 experiment exactly as
// `fdqos qos` runs it by default (13 runs × 10⁴ cycles, η = 1 s, MTTC
// 300 s, TTR 30 s, the 30-detector suite on one DetectorBank), with
// jobs = 1 so the number measures the program rather than the scheduler.
#pragma once

#include <cstdint>
#include <string>

#include "exp/qos_experiment.hpp"
#include "stats.hpp"

namespace qosbench {

// The experiment configuration `fdqos qos --seed <seed> --jobs 1` builds.
fdqos::exp::QosExperimentConfig paper_config(std::uint64_t seed);

// FNV-1a of qos_report_fingerprint() for `fdqos qos --seed 42`, pinned so
// a change to what the experiment computes cannot pass as a speed-up.
inline constexpr std::uint64_t kPinnedSeed = 42;
inline constexpr std::uint64_t kPinnedFingerprint = 0x466da1de186c98d1ULL;

Result run_paper_qos(const Options& opts);

}  // namespace qosbench
