// Live serving metrics behind the `stats` request (docs/ARCHITECTURE.md
// §7.4): QPS, latency percentiles and per-stage CPU time. Everything is
// recorded under one short-held mutex — the recording paths are a few
// arithmetic ops, far below the model work they annotate.
//
// Latency percentiles come from a bounded ring of the most recent
// completions (p50/p99 of "recent" traffic is what an operator watches; an
// unbounded record would grow forever), while counts/QPS cover the full
// uptime.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <vector>

#include "serve/json.hpp"

namespace nettag::serve {

/// Pipeline stages the server attributes time to (§7.4). kParse is netlist
/// text parsing; the three model stages come from EmbedTiming.
enum class Stage { kParse, kLint, kTagBuild, kTextEncode, kTagFormer };
constexpr int kNumStages = 5;
const char* stage_name(Stage stage);

class ServeMetrics {
 public:
  /// Ring size for latency percentiles (most recent completions).
  static constexpr std::size_t kLatencyWindow = 4096;

  ServeMetrics() : start_(std::chrono::steady_clock::now()) {}

  void record_request(bool ok, double latency_seconds);
  void record_stage(Stage stage, double seconds);

  struct Snapshot {
    double uptime_seconds = 0;
    std::uint64_t requests_total = 0;
    std::uint64_t requests_ok = 0;
    std::uint64_t requests_error = 0;
    double qps = 0;          ///< requests_total / uptime
    double p50_ms = 0, p90_ms = 0, p99_ms = 0, max_ms = 0;
    double stage_seconds[kNumStages] = {0, 0, 0, 0, 0};
  };

  Snapshot snapshot() const;

 private:
  const std::chrono::steady_clock::time_point start_;
  mutable std::mutex mu_;
  std::uint64_t total_ = 0, ok_ = 0, errors_ = 0;
  std::vector<double> latency_ring_;  ///< seconds, ring of kLatencyWindow
  std::size_t ring_next_ = 0;
  double max_latency_ = 0;
  double stage_seconds_[kNumStages] = {0, 0, 0, 0, 0};
};

/// Snapshot -> the `stats` result object (minus the cache, registry and
/// shard sections, which the server and its stats extension append).
Json snapshot_to_json(const ServeMetrics::Snapshot& snapshot);

}  // namespace nettag::serve
