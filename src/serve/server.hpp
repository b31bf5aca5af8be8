// NetTAG-Serve: the inference server (docs/ARCHITECTURE.md §7, §12).
//
// Dispatches requests over a registry of named NetTag replicas through three
// coordinated pieces:
//   * registry  — N independently hot-reloadable models behind one process
//     (serve/registry.hpp); every request pins a replica snapshot, so
//     reload/unload of one replica never stalls another's traffic;
//   * admission — parse + size bound + src/analysis lint gate
//     (serve/admission.hpp); rejected inputs become structured error
//     responses, never crashes;
//   * caching   — a bounded content-addressed result cache keyed by the
//     canonical structural hash (serve/canonical.hpp) namespaced per
//     replica+weights+backend, so isomorphic resubmissions replay
//     byte-identical results without model work and replicas never replay
//     each other's entries. The caller owns the cache: each process_on
//     call names the ResultCache partition it runs against.
//
// Requests reach the server through one synchronous entry point,
// process_on. Both transports of tools/nettag_serve — the NDJSON
// stdin/stdout loop and the socket daemon — call it from the shard workers
// of a net::ShardPool (one shard for stdin, N for the daemon), each worker
// with its own cache partition.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "core/nettag.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/metrics.hpp"
#include "serve/protocol.hpp"
#include "serve/registry.hpp"

namespace nettag::serve {

struct ServerConfig {
  /// Admission bound: netlists above this many gates get kTooLarge.
  std::size_t max_gates = kDefaultMaxGates;
  /// Strict admission: reject on lint *warnings* too (errors always reject).
  bool reject_warnings = false;
  /// Admission lint options (rule toggles, fanout bound).
  LintOptions lint;
  /// Effective default for requests that carry no `max_cone_gates` of their
  /// own (the embed_circuit cone cap). Echoed in `stats` under "defaults".
  std::size_t max_cone_gates = kDefaultMaxConeGates;
  /// Shared text-embedding cache layout, applied when the first replica
  /// donates its cache to the registry: capacity in entries (0 = keep the
  /// model's own, typically the checkpoint default) and stripe count (0 =
  /// keep; the daemon passes its shard count so workers don't serialize on
  /// one cache mutex). Reload/model_load attach later models to the same
  /// cache, so the layout survives every swap.
  std::size_t text_cache_entries = 0;
  std::size_t text_cache_partitions = 0;
  /// Default checkpoint prefix for `reload` requests that carry no
  /// `model_prefix` of their own (typically the prefix the server was
  /// started from); it becomes the "default" replica's stored prefix.
  /// Empty: such requests are rejected.
  std::string model_prefix;
  /// Serve the int8 packed-weight path (nn/packed.hpp) for the "default"
  /// replica, and for every `model_load` that carries no `quantize` of its
  /// own: weight matrices are repacked at load and after every reload, and
  /// matmul forwards run int8 dot products instead of fp32. The fp32
  /// weights (and the weights CRC) are untouched; `stats` reports each
  /// replica's backend and the result-cache key separates int8 results
  /// from fp32 ones.
  bool quantize = false;
};

class Server {
 public:
  /// Starts with an empty registry — replicas arrive via load_model /
  /// `model_load` (tools/nettag_serve builds its servers this way, one
  /// load_model per --model flag). Netlist requests before the first load
  /// answer unknown_model; control ops work immediately.
  explicit Server(ServerConfig config);
  /// Takes ownership of a constructed (typically checkpoint-loaded) model,
  /// registered as the "default" replica (the one every v1 request targets)
  /// with config.model_prefix as its reload target and config.quantize as
  /// its backend.
  Server(ServerConfig config, std::unique_ptr<NetTag> model);
  ~Server();

  /// Owning snapshot of one replica's current model (null: no replica under
  /// that name). Safe to hold across reloads/unloads — the snapshot keeps
  /// serving the generation it pinned; drop it to release the weights.
  std::shared_ptr<const NetTag> model_snapshot(
      const std::string& name = kDefaultModelName) const;

  /// Registers (or replaces) a named replica from a checkpoint prefix — the
  /// startup-time twin of the `model_load` op (tools/nettag_serve wires
  /// repeated --model flags through this). `quantize` < 0 inherits the
  /// config default. False with *error set on a bad checkpoint.
  bool load_model(const std::string& name, const std::string& prefix,
                  int quantize, std::string* error);
  /// Removes a named replica; later requests for it answer unknown_model.
  bool unload_model(const std::string& name);

  const ModelRegistry& registry() const { return registry_; }
  const ServerConfig& config() const { return config_; }
  /// Number of successful `reload` ops since startup (all replicas).
  std::uint64_t reloads() const { return registry_.total_reloads(); }

  /// Fine-tuned task head hook: `fn` maps (shared model, admitted netlist)
  /// to a score vector. Registered heads answer `predict` requests; results
  /// are cached under the task name. `fn` must be thread-safe (heads only
  /// read their trained weights).
  using TaskFn =
      std::function<std::vector<double>(const NetTag&, const Netlist&)>;
  void register_task(const std::string& name, TaskFn fn);

  /// The request entry point: synchronous processing against the caller's
  /// result-cache partition. Shard workers (net/shard.hpp) call this, each
  /// with its own partition, so isomorphic resubmissions routed to the same
  /// shard hit that shard's cache (docs/ARCHITECTURE.md §11). Malformed
  /// requests (Request::parse_error) become structured error responses.
  /// Latency is measured from request.t_start (unset: from this call).
  /// Thread-safe; any number of shard workers may call concurrently (the
  /// model's inference API is const, the metrics and caches are internally
  /// synchronized). Exceptions from a registered task head propagate; the
  /// shard worker converts them to `internal` responses.
  Response process_on(const Request& request, ResultCache& cache);

  /// Appends transport-owned sections (shard and daemon transport counters)
  /// to the JSON a `stats` request returns. Set once, before traffic (the
  /// daemon at start, the stdin loop when it builds its shard pool); the
  /// hook runs under the same snapshot as the rest of the stats object and
  /// must be thread-safe.
  using StatsExtension = std::function<void(Json*)>;
  void set_stats_extension(StatsExtension fn);

  /// The `stats` result object as a string (also the final-metrics line the
  /// daemon emits on drain).
  std::string stats_json() const;

  /// Set once a shutdown request is processed; the stdio loop exits cleanly.
  bool shutdown_requested() const;

  ServeMetrics& metrics() { return metrics_; }

 private:
  /// The model-work stage against an explicit replica snapshot — the
  /// snapshot's weights CRC + backend namespace the cache keys, so entries
  /// computed by one replica (or one weight generation) can never answer
  /// for another; a reload that lands the *same* weights keeps every entry
  /// valid, while new weights strand the old ones (they age out via LRU).
  Response process_netlist_op(const Request& request,
                              const ReplicaSnapshot& replica,
                              ResultCache& cache);
  Response process_reload(const Request& request);
  Response process_model_admin(const Request& request);

  ServerConfig config_;
  ModelRegistry registry_;
  ServeMetrics metrics_;
  Admission admission_;

  mutable std::mutex tasks_mu_;
  std::map<std::string, TaskFn> tasks_;

  mutable std::mutex stats_ext_mu_;
  StatsExtension stats_ext_;

  std::atomic<bool> shutdown_{false};
};

}  // namespace nettag::serve
