#include "serve/metrics.hpp"

#include <algorithm>

namespace nettag::serve {

const char* stage_name(Stage stage) {
  switch (stage) {
    case Stage::kParse: return "parse";
    case Stage::kLint: return "lint";
    case Stage::kTagBuild: return "tag_build";
    case Stage::kTextEncode: return "text_encode";
    case Stage::kTagFormer: return "tagformer";
  }
  return "unknown";
}

void ServeMetrics::record_request(bool ok, double latency_seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  ++total_;
  if (ok) {
    ++ok_;
  } else {
    ++errors_;
  }
  if (latency_ring_.size() < kLatencyWindow) {
    latency_ring_.push_back(latency_seconds);
  } else {
    latency_ring_[ring_next_] = latency_seconds;
    ring_next_ = (ring_next_ + 1) % kLatencyWindow;
  }
  max_latency_ = std::max(max_latency_, latency_seconds);
}

void ServeMetrics::record_stage(Stage stage, double seconds) {
  std::lock_guard<std::mutex> lk(mu_);
  stage_seconds_[static_cast<int>(stage)] += seconds;
}

ServeMetrics::Snapshot ServeMetrics::snapshot() const {
  Snapshot s;
  s.uptime_seconds = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - start_)
                         .count();
  std::lock_guard<std::mutex> lk(mu_);
  s.requests_total = total_;
  s.requests_ok = ok_;
  s.requests_error = errors_;
  s.qps = s.uptime_seconds > 0
              ? static_cast<double>(total_) / s.uptime_seconds
              : 0.0;
  if (!latency_ring_.empty()) {
    std::vector<double> sorted = latency_ring_;
    std::sort(sorted.begin(), sorted.end());
    auto pct = [&sorted](double p) {
      const std::size_t idx = static_cast<std::size_t>(
          p * static_cast<double>(sorted.size() - 1) + 0.5);
      return sorted[std::min(idx, sorted.size() - 1)] * 1e3;
    };
    s.p50_ms = pct(0.50);
    s.p90_ms = pct(0.90);
    s.p99_ms = pct(0.99);
    s.max_ms = max_latency_ * 1e3;
  }
  for (int i = 0; i < kNumStages; ++i) s.stage_seconds[i] = stage_seconds_[i];
  return s;
}

Json snapshot_to_json(const ServeMetrics::Snapshot& snapshot) {
  Json j = Json::object();
  j.set("uptime_seconds", snapshot.uptime_seconds);
  j.set("requests_total", static_cast<double>(snapshot.requests_total));
  j.set("requests_ok", static_cast<double>(snapshot.requests_ok));
  j.set("requests_error", static_cast<double>(snapshot.requests_error));
  j.set("qps", snapshot.qps);
  Json latency = Json::object();
  latency.set("p50", snapshot.p50_ms);
  latency.set("p90", snapshot.p90_ms);
  latency.set("p99", snapshot.p99_ms);
  latency.set("max", snapshot.max_ms);
  j.set("latency_ms", std::move(latency));
  Json stages = Json::object();
  for (int i = 0; i < kNumStages; ++i) {
    stages.set(stage_name(static_cast<Stage>(i)), snapshot.stage_seconds[i]);
  }
  j.set("stage_seconds", std::move(stages));
  return j;
}

}  // namespace nettag::serve
