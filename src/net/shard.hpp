// Sharded request execution for NetTAG-Serve (docs/ARCHITECTURE.md §11.3):
// the one dispatch path from a transport to Server::process_on. The socket
// daemon runs N shards; the stdin loop of tools/nettag_serve runs one and
// waits for each response before reading the next line.
//
// N worker shards, each owning:
//   * one bounded FIFO queue — the backpressure point. A netlist op arriving
//     at a full queue is *shed*: it gets an immediate `too_busy` error
//     response and never queues, so the daemon's memory and latency stay
//     bounded no matter how hard clients push. Control ops (ping, stats,
//     shutdown, reload) are never shed — an operator must always be able to
//     observe and drain a saturated daemon.
//   * one ResultCache partition. Requests route by the *order-insensitive*
//     WL structural hash of their netlist, so a renamed/reordered isomorphic
//     resubmission lands on the same shard and hits that shard's cache —
//     cache affinity without any cross-shard coordination. (Per-op cache
//     keys still disambiguate within the shard, exactly as in the
//     single-cache server.)
//
// Shard workers call Server::process_on synchronously: inter-request
// parallelism comes from running S shards concurrently, not from batching
// one request across the pool. An exception escaping process_on becomes an
// `internal` response for that request alone. The daemon's transport thread
// (net/daemon) parses each netlist once for routing and passes the parse
// along via Request::pre_parsed, so admission work is not repeated.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "serve/cache.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"

namespace nettag::net {

class ShardPool {
 public:
  /// Completion callback; runs on the shard worker thread (or inline on the
  /// submitting thread for shed requests). Must be cheap and thread-safe —
  /// the daemon's callback pushes onto a completion queue and wakes poll().
  using Done = std::function<void(serve::Response)>;

  /// `total_cache_entries` is split evenly across the shards' result-cache
  /// partitions (each at least 1 entry).
  ShardPool(serve::Server& server, std::size_t shards,
            std::size_t queue_depth, std::size_t total_cache_entries);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  /// The shard `request` would run on. Netlist ops with a parse route by the
  /// order-insensitive WL hash (isomorphism-stable); netlist ops whose text
  /// failed to parse route by a hash of the raw text (the shard will produce
  /// the parse error); control ops round-robin.
  std::size_t route(const serve::Request& request);

  /// Enqueues `request` on its route shard, or sheds it with `too_busy` when
  /// that shard's queue is full (netlist ops only; control ops always
  /// queue). `done` is invoked exactly once either way.
  void submit(serve::Request request, Done done);

  /// Queued + in-flight requests across all shards.
  std::size_t pending() const;

  /// Blocks until every queued and in-flight request has completed. The
  /// caller must have stopped submitting first (the daemon closes its
  /// listeners and stops reading before draining).
  void drain();

  // --- test hooks ---------------------------------------------------------
  /// Halts all shard workers before their next dequeue, so tests can fill a
  /// queue deterministically and observe the shed path. resume() restarts.
  void pause();
  void resume();

  struct ShardStats {
    std::uint64_t submitted = 0;
    std::uint64_t processed = 0;
    std::uint64_t shed = 0;
    std::size_t queue_depth = 0;  ///< current
    /// queue_depth_histogram[d] = number of submissions that found d
    /// requests already queued (d ranges 0..queue_depth; a submission that
    /// found the queue full was shed and counts in the last bucket).
    std::vector<std::uint64_t> queue_depth_histogram;
    serve::ResultCache::Stats cache;
  };
  std::vector<ShardStats> stats() const;

  std::size_t shard_count() const { return shards_.size(); }
  std::size_t queue_depth() const { return queue_depth_; }

  /// Appends {"shards":[...]} per-shard counters to a stats JSON object —
  /// wired into the server via Server::set_stats_extension.
  void append_stats(serve::Json* j) const;

 private:
  struct Task {
    serve::Request request;
    Done done;
  };

  struct Shard {
    explicit Shard(std::size_t cache_entries) : cache(cache_entries) {}
    mutable std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> queue;
    bool in_flight = false;  ///< worker is processing a dequeued task
    std::uint64_t submitted = 0, processed = 0, shed = 0;
    std::vector<std::uint64_t> depth_hist;  ///< sized queue_depth + 1
    serve::ResultCache cache;
    std::thread worker;
  };

  void worker_loop(Shard& shard);

  serve::Server& server_;
  const std::size_t queue_depth_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::atomic<std::uint64_t> round_robin_{0};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> paused_{false};
  /// drain() waiters; notified whenever a shard empties.
  mutable std::mutex drain_mu_;
  std::condition_variable drain_cv_;
};

}  // namespace nettag::net
