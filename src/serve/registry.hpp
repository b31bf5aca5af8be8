// Model replica registry for NetTAG-Serve (docs/ARCHITECTURE.md §12).
//
// One serving process hosts N named NetTag replicas, each loaded from its
// own checkpoint prefix, each hot-reloadable independently. Per replica the
// registry tracks the checkpoint prefix (the default `reload` target), the
// params CRC (namespacing its result-cache keys), the numeric backend
// (fp32 / int8 packed weights) and per-replica counters. All replicas share:
//   * one striped text-embedding cache — adopted from the first replica and
//     attached to every later load, with each replica's keys salted by its
//     weights CRC so replicas of the same checkpoint share entries while
//     different weights can never replay each other's rows;
//   * the process thread pool.
//
// Requests pin a ReplicaSnapshot: reload/unload swap the registry's state
// but never the model an in-flight request computes with, so reloading or
// unloading replica A cannot stall or corrupt replica B's traffic (or even
// A's own in-flight work).
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/nettag.hpp"
#include "serve/protocol.hpp"

namespace nettag::serve {

/// Per-replica monotonic counters, shared between the registry entry and the
/// snapshots pinned by in-flight requests (so a request finishing after its
/// replica was replaced still counts against the name it served under).
struct ReplicaCounters {
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> cache_hits{0};
  std::atomic<std::uint64_t> cache_misses{0};
  std::atomic<std::uint64_t> reloads{0};
};

/// What one request computes with: an owning handle on the model plus the
/// key-namespace facts. Valid for as long as the caller holds it, across any
/// number of reloads/unloads.
struct ReplicaSnapshot {
  std::string name;
  std::shared_ptr<const NetTag> model;
  std::uint32_t params_crc = 0;
  bool quantize = false;
  std::shared_ptr<ReplicaCounters> counters;

  /// Result-cache key namespace: replica name + weights CRC + backend. Two
  /// replicas (or two weight generations of one replica) never share keys.
  std::string cache_tag() const;
};

/// Point-in-time registry row for `stats` / `model_list`.
struct ReplicaInfo {
  std::string name;
  std::string prefix;
  std::uint32_t params_crc = 0;
  bool quantize = false;
  std::uint64_t reloads = 0;
  std::uint64_t requests = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
};

/// Result of a per-replica hot reload.
struct ReloadOutcome {
  bool ok = false;
  ErrorCode error = ErrorCode::kNone;  ///< kUnknownModel / kBadRequest /
                                       ///< kReloadFailed when !ok
  std::string message;
  std::string prefix;          ///< the prefix actually (re)loaded
  bool params_changed = false;
  std::uint32_t params_crc = 0;
};

class ModelRegistry {
 public:
  ModelRegistry() = default;
  ModelRegistry(const ModelRegistry&) = delete;
  ModelRegistry& operator=(const ModelRegistry&) = delete;

  /// Desired shared-cache layout, applied when the first replica donates
  /// its cache: total capacity in entries and stripe count (0 = keep the
  /// donating model's value). Call before the first add().
  void set_cache_layout(std::size_t capacity, std::size_t partitions);

  /// Registers an already-constructed model under `name`, replacing any
  /// existing replica of that name. The first model registered donates its
  /// text-embedding cache (capacity/stripes included) as the shared cache.
  /// `prefix` becomes the replica's default reload target ("" = reload must
  /// carry model_prefix). `quantize` packs int8 weights now and on reload.
  void add(const std::string& name, std::unique_ptr<NetTag> model,
           const std::string& prefix, bool quantize);

  /// `model_load`: loads `prefix` and registers it under `name` (replacing
  /// an existing replica). On failure returns false with *error set and the
  /// registry unchanged. The checkpoint load runs outside the registry
  /// mutex — concurrent requests keep serving.
  bool load(const std::string& name, const std::string& prefix, bool quantize,
            std::string* error);

  /// `model_unload`: removes `name`. False if not present. In-flight work
  /// pinned to the replica finishes normally; later requests for the name
  /// answer unknown_model.
  bool unload(const std::string& name);

  /// `reload`: hot-swaps `name` from `prefix_override` (empty = the
  /// replica's stored prefix). One reload per replica at a time; reloads of
  /// different replicas proceed concurrently. The checkpoint load runs
  /// outside the registry mutex; only the pointer swap synchronizes with
  /// snapshot(). A replica unloaded mid-reload stays unloaded (the fresh
  /// model is dropped, outcome kUnknownModel).
  ReloadOutcome reload(const std::string& name,
                       const std::string& prefix_override);

  /// Pins `name` for one request. False (out untouched) if not registered.
  bool snapshot(const std::string& name, ReplicaSnapshot* out) const;

  bool has(const std::string& name) const;
  std::size_t size() const;
  /// Rows sorted by name (std::map order) — stable for stats/model_list.
  std::vector<ReplicaInfo> list() const;

  /// Successful reloads across all replicas since startup.
  std::uint64_t total_reloads() const {
    return total_reloads_.load(std::memory_order_relaxed);
  }

  /// The shared text cache (null until the first add()).
  std::shared_ptr<TextEmbeddingCache> text_cache() const;

 private:
  struct Replica {
    std::string name;
    std::string prefix;
    std::shared_ptr<NetTag> model;
    std::uint32_t params_crc = 0;
    bool quantize = false;
    std::shared_ptr<ReplicaCounters> counters =
        std::make_shared<ReplicaCounters>();
    /// Serializes whole reload operations for this replica only.
    std::mutex reload_mu;
  };

  /// Fingerprints, attaches the shared cache (salted by CRC), and packs
  /// int8 weights when asked. Returns the CRC. Must run before the model is
  /// published to snapshots.
  std::uint32_t prepare(NetTag& model, bool quantize) const;

  std::shared_ptr<Replica> find(const std::string& name) const;

  mutable std::mutex mu_;  ///< guards replicas_ and text_cache_ pointers
  std::map<std::string, std::shared_ptr<Replica>> replicas_;
  std::shared_ptr<TextEmbeddingCache> text_cache_;
  std::size_t cache_capacity_ = 0;    ///< 0 = first model's own
  std::size_t cache_partitions_ = 0;  ///< 0 = first model's own
  std::atomic<std::uint64_t> total_reloads_{0};
};

}  // namespace nettag::serve
