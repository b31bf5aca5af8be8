// nettag_serve — the NetTAG embedding inference daemon.
//
// Modes:
//   nettag_serve --model SPEC [flags]     load one replica per --model flag
//                                         and serve newline-delimited JSON
//                                         requests on stdin, one JSON
//                                         response line on stdout per request
//                                         (docs/ARCHITECTURE.md §7.1, §12)
//   nettag_serve --model SPEC --listen ADDR
//                                         socket daemon (docs §11): serve the
//                                         same NDJSON protocol to concurrent
//                                         clients on a unix path or TCP port,
//                                         sharded, with too_busy load shedding
//   nettag_serve --connect ADDR           client: forward stdin request lines
//                                         to a running daemon, print response
//                                         lines on stdout
//   nettag_serve --train-demo PREFIX      build a small corpus, briefly
//                                         pre-train a compact model, and save
//                                         a checkpoint — the quickstart /
//                                         CI-smoke path to a servable model
//   nettag_serve --help                   usage (exit 0)
//
// Flags (serve):
//   --model SPEC           `[NAME=]PREFIX[,quantize|,fp32]`, repeatable: one
//                          replica per flag, each from its own checkpoint
//                          prefix, each independently hot-reloadable. NAME
//                          defaults to "default" (the replica requests
//                          without a "model" field target); the backend
//                          suffix overrides --quantize for that replica
//   --max-gates N          admission size bound (default 4096,
//                          serve::kDefaultMaxGates)
//   --cache-entries N      result-cache bound, total across shard partitions
//                          (default 256)
//   --text-cache-entries N frozen-text-embedding cache bound (default 4096;
//                          one striped cache shared by all replicas)
//   --reject-warnings      strict admission: lint warnings also reject
//   --quantize             serve the int8 packed-weight path by default
//                          (docs/PERFORMANCE.md §4); per-replica suffixes
//                          and model_load's "quantize" field override it
//   --log FILE             stdin mode only: append one "<op> <status> <ms>"
//                          line per request
// Flags (daemon; rejected without --listen):
//   --listen ADDR          unix:/path/to.sock or host:port (port 0 = pick one)
//   --shards N             worker shards / cache partitions (default 4)
//   --queue-depth K        per-shard queue bound; beyond it netlist ops are
//                          shed with too_busy (default 64)
// Flags (train-demo):
//   --seed S               generation/training seed (default 0x5eed)
//   --designs N            designs per family (default 1)
//
// Exits 0 on EOF, a `shutdown` request, or SIGTERM/SIGINT — the signal path
// drains: the stdin loop finishes the request it is on and the daemon
// finishes every queued request, flushes responses, and prints final metrics
// to stderr. A `reload` request hot-swaps one replica from a checkpoint
// prefix (default: the prefix that replica was loaded from) without dropping
// in-flight work; `model_load`/`model_unload` add and remove replicas at
// runtime. Bad requests are per-request error responses, never daemon
// failures. Both modes dispatch through net::ShardPool: the stdin loop runs
// one shard and is deliberately serial — each line is processed to
// completion before the next is read, so nothing is ever shed and a
// replayed request file yields byte-identical output. Concurrency comes
// from the daemon's shards.
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <future>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/pretrain.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/shard.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/signal.hpp"
#include "util/timer.hpp"

using namespace nettag;

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: nettag_serve --model [NAME=]PREFIX[,quantize|,fp32] ...\n"
               "                    [--max-gates N]\n"
               "                    [--cache-entries N] [--text-cache-entries N]\n"
               "                    [--reject-warnings] [--quantize]\n"
               "                    [--log FILE | --listen ADDR [--shards N]\n"
               "                                              [--queue-depth K]]\n"
               "       nettag_serve --connect ADDR\n"
               "       nettag_serve --train-demo PREFIX [--seed S] [--designs N]\n"
               "       nettag_serve --help\n"
               "\n"
               "Serves gate/cone/circuit embeddings and task predictions for\n"
               "pre-trained NetTAG checkpoints over newline-delimited JSON\n"
               "on stdin/stdout, or — with --listen unix:/path or host:port —\n"
               "as a sharded socket daemon for concurrent clients. --model is\n"
               "repeatable: each flag loads one named replica (default name\n"
               "\"default\"), independently hot-reloadable and addressable by\n"
               "the request \"model\" field. --connect bridges stdin/stdout\n"
               "to a running daemon. See docs/ARCHITECTURE.md sections 7, 11\n"
               "and 12 for the protocol grammar, error taxonomy, `stats`\n"
               "fields, daemon design, and the model registry.\n");
}

int train_demo(const std::string& prefix, std::uint64_t seed, int designs) {
  Rng rng(seed);
  CorpusOptions co;
  co.designs_per_family = designs;
  co.with_physical = false;  // layout labels are not needed to serve embeddings
  std::fprintf(stderr, "nettag_serve: building demo corpus...\n");
  const Corpus corpus = build_corpus(co, rng);
  NetTagConfig mc;
  mc.expr_llm = TextEncoderConfig::tiny();
  NetTag model(mc, seed ^ 0xabcd);
  PretrainOptions po;
  po.expr_steps = 12;
  po.tag_steps = 10;
  po.aux_steps = 0;
  po.max_expressions = 200;
  po.max_cones = 24;
  po.objective_align = false;  // no physical data in the demo corpus
  std::fprintf(stderr, "nettag_serve: pre-training demo checkpoint...\n");
  Timer t;
  const PretrainReport rep = pretrain(model, corpus, po, rng);
  save_checkpoint(model, prefix);
  std::fprintf(stderr,
               "nettag_serve: saved %s.ckpt (+.exprllm.bin/.tagformer.bin) "
               "after %.1fs; expr loss %.3f -> %.3f, tag loss %.3f -> %.3f\n",
               prefix.c_str(), t.seconds(), rep.expr_loss_first,
               rep.expr_loss_last, rep.tag_loss_first, rep.tag_loss_last);
  return 0;
}

/// Builds a server with one registered replica per --model spec. Replicas
/// load through the same registry path as the `model_load` op; the first one
/// donates the shared text cache (config.text_cache_entries/_partitions set
/// its layout). Null on any load failure (the error names the spec).
std::unique_ptr<serve::Server> build_server(
    const std::vector<cli::ModelSpec>& specs, serve::ServerConfig config) {
  auto server = std::make_unique<serve::Server>(std::move(config));
  for (const cli::ModelSpec& spec : specs) {
    std::string error;
    if (!server->load_model(spec.name, spec.prefix, spec.quantize, &error)) {
      std::fprintf(stderr,
                   "nettag_serve: cannot load checkpoint '%s' (model '%s'): "
                   "%s\n",
                   spec.prefix.c_str(), spec.name.c_str(), error.c_str());
      return nullptr;
    }
    // Pin a snapshot for the startup line: the one-per-replica twin of the
    // old single-model message, dim included (checkpoints can differ).
    const std::shared_ptr<const NetTag> model = server->model_snapshot(spec.name);
    std::fprintf(stderr,
                 "nettag_serve: model '%s' loaded from '%s' (embedding dim "
                 "%d)\n",
                 spec.name.c_str(), spec.prefix.c_str(),
                 model ? model->embedding_dim() : 0);
  }
  return server;
}

int run_serve(const std::vector<cli::ModelSpec>& specs,
              serve::ServerConfig config, const net::DaemonConfig& dcfg,
              const std::string& log_path) {
  std::ofstream log;
  if (!log_path.empty()) {
    log.open(log_path, std::ios::app);
    if (!log) {
      std::fprintf(stderr, "nettag_serve: cannot open log file '%s'\n",
                   log_path.c_str());
      return 2;
    }
  }

  std::unique_ptr<serve::Server> server_ptr =
      build_server(specs, std::move(config));
  if (!server_ptr) return 2;
  serve::Server& server = *server_ptr;
  // The daemon's dispatch path with one shard: the same queue, result-cache
  // partition, exception guard and `stats` shard section.
  net::ShardPool pool(server, 1, dcfg.queue_depth, dcfg.cache_entries);
  server.set_stats_extension(
      [&pool](serve::Json* j) { pool.append_stats(j); });
  std::fprintf(stderr,
               "nettag_serve: awaiting NDJSON requests on stdin\n");

  // SIGTERM/SIGINT drain instead of killing mid-response: the handlers are
  // installed *without* SA_RESTART, so a signal arriving while getline
  // blocks interrupts the read and the loop exits; a signal arriving while
  // a request is processing lets that request finish and its response flush
  // (the next getline then fails with EINTR). Either way the last response
  // written is complete, never truncated.
  const std::atomic<bool>* stop = install_stop_signals_interrupting();

  // The wire transport is deliberately serial: one pipe is one client, and
  // processing each line to completion before reading the next makes the
  // response stream fully deterministic (a replayed request file always
  // yields identical bytes, cache flags included). With one request queued
  // at a time the shard never sheds.
  std::string line;
  while (!server.shutdown_requested() &&
         !stop->load(std::memory_order_relaxed) &&
         std::getline(std::cin, line)) {
    if (line.empty()) continue;
    Timer t;
    serve::Request request = serve::parse_request(line);
    request.t_start = std::chrono::steady_clock::now();
    auto done = std::make_shared<std::promise<serve::Response>>();
    std::future<serve::Response> pending = done->get_future();
    pool.submit(std::move(request), [done](serve::Response r) {
      done->set_value(std::move(r));
    });
    const serve::Response response = pending.get();
    std::cout << serve::render_response(response) << "\n";
    std::cout.flush();
    if (log) {
      log << serve::op_name(response.op) << ' '
          << (response.ok() ? "ok" : serve::error_code_name(response.error))
          << ' ' << t.milliseconds() << "ms\n";
      log.flush();
    }
  }
  std::fprintf(stderr, "nettag_serve: %s, exiting\n",
               server.shutdown_requested()
                   ? "shutdown requested"
                   : (stop->load(std::memory_order_relaxed)
                          ? "stop signal received, in-flight request drained"
                          : "stdin closed"));
  return 0;
}

int run_daemon(const std::vector<cli::ModelSpec>& specs,
               serve::ServerConfig config, net::DaemonConfig dcfg) {
  // One text-cache stripe per shard: shard workers embed concurrently and
  // must not serialize on a single cache mutex. All replicas share the
  // striped cache, and reload/model_load attach fresh models to it, so the
  // layout survives every swap (serve/registry.cpp).
  config.text_cache_partitions = dcfg.shards;

  std::unique_ptr<serve::Server> server_ptr =
      build_server(specs, std::move(config));
  if (!server_ptr) return 2;
  serve::Server& server = *server_ptr;
  net::Daemon daemon(server, dcfg);
  std::string error;
  if (!daemon.start(&error)) {
    std::fprintf(stderr, "nettag_serve: cannot listen on '%s': %s\n",
                 dcfg.listen.spec().c_str(), error.c_str());
    return 2;
  }
  if (dcfg.listen.kind == cli::ListenAddress::Kind::kTcp) {
    // Print the *resolved* port so `--listen host:0` callers (tests, CI)
    // can find the daemon.
    std::fprintf(stderr,
                 "nettag_serve: %zu model(s) loaded; listening on %s:%u "
                 "(%zu shards, queue depth %zu)\n",
                 specs.size(), dcfg.listen.host.c_str(),
                 static_cast<unsigned>(daemon.tcp_port()), dcfg.shards,
                 dcfg.queue_depth);
  } else {
    std::fprintf(stderr,
                 "nettag_serve: %zu model(s) loaded; listening on %s "
                 "(%zu shards, queue depth %zu)\n",
                 specs.size(), dcfg.listen.spec().c_str(), dcfg.shards,
                 dcfg.queue_depth);
  }
  const std::atomic<bool>* stop = install_stop_signals_interrupting();
  return daemon.run(stop);
}

int run_client(const std::string& spec) {
  net::Client client;
  std::string error;
  if (!client.connect(spec, &error)) {
    std::fprintf(stderr, "nettag_serve: --connect %s: %s\n", spec.c_str(),
                 error.c_str());
    return 2;
  }
  std::string line, response;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    if (!client.request(line, &response, &error)) {
      std::fprintf(stderr, "nettag_serve: %s\n", error.c_str());
      return 1;
    }
    std::cout << response << "\n";
    std::cout.flush();
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<cli::ModelSpec> model_specs;
  std::string demo_prefix, log_path, connect_spec;
  serve::ServerConfig config;
  config.text_cache_entries = TextEmbeddingCache::kDefaultEntries;
  net::DaemonConfig dcfg;
  bool daemon_mode = false, daemon_flags = false;
  std::uint64_t seed = 0x5eed;
  int designs = 1;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "nettag_serve: %s requires a value\n", argv[i]);
      usage(stderr);
      std::exit(2);
    }
    return argv[i + 1];
  };
  auto need_count = [&](int i) -> std::size_t {
    long long v = 0;
    std::string err;
    if (!cli::parse_int(need_value(i), 1, 1LL << 40, &v, &err)) {
      std::fprintf(stderr, "nettag_serve: %s: %s\n", argv[i], err.c_str());
      std::exit(2);
    }
    return static_cast<std::size_t>(v);
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(stdout);
      return 0;
    } else if (!std::strcmp(arg, "--model")) {
      cli::ModelSpec spec;
      std::string err;
      if (!cli::parse_model_spec(need_value(i), &spec, &err)) {
        std::fprintf(stderr, "nettag_serve: --model: %s\n", err.c_str());
        usage(stderr);
        return 2;
      }
      model_specs.push_back(std::move(spec));
      ++i;
    } else if (!std::strcmp(arg, "--train-demo")) {
      demo_prefix = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--max-gates")) {
      config.max_gates = need_count(i);
      ++i;
    } else if (!std::strcmp(arg, "--cache-entries")) {
      dcfg.cache_entries = need_count(i);
      ++i;
    } else if (!std::strcmp(arg, "--text-cache-entries")) {
      config.text_cache_entries = need_count(i);
      ++i;
    } else if (!std::strcmp(arg, "--reject-warnings")) {
      config.reject_warnings = true;
    } else if (!std::strcmp(arg, "--quantize")) {
      config.quantize = true;
    } else if (!std::strcmp(arg, "--log")) {
      log_path = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--listen")) {
      std::string err;
      if (!cli::parse_listen_address(need_value(i), &dcfg.listen, &err)) {
        std::fprintf(stderr, "nettag_serve: --listen: %s\n", err.c_str());
        usage(stderr);
        return 2;
      }
      daemon_mode = true;
      ++i;
    } else if (!std::strcmp(arg, "--shards")) {
      dcfg.shards = need_count(i);
      daemon_flags = true;
      ++i;
    } else if (!std::strcmp(arg, "--queue-depth")) {
      dcfg.queue_depth = need_count(i);
      daemon_flags = true;
      ++i;
    } else if (!std::strcmp(arg, "--connect")) {
      connect_spec = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--seed")) {
      std::string err;
      if (!cli::parse_u64(need_value(i), &seed, &err)) {
        std::fprintf(stderr, "nettag_serve: --seed: %s\n", err.c_str());
        return 2;
      }
      ++i;
    } else if (!std::strcmp(arg, "--designs")) {
      std::string err;
      long long v = 0;
      if (!cli::parse_int(need_value(i), 1, 1 << 20, &v, &err)) {
        std::fprintf(stderr, "nettag_serve: --designs: %s\n", err.c_str());
        return 2;
      }
      designs = static_cast<int>(v);
      ++i;
    } else {
      std::fprintf(stderr, "nettag_serve: unknown flag %s\n", arg);
      usage(stderr);
      return 2;
    }
  }

  // Flags that the chosen mode would otherwise ignore are usage errors.
  if (daemon_mode && !log_path.empty()) {
    std::fprintf(stderr, "nettag_serve: --log is not accepted with --listen\n");
    return 2;
  }
  if (daemon_flags && !daemon_mode) {
    std::fprintf(stderr,
                 "nettag_serve: --shards and --queue-depth require --listen\n");
    return 2;
  }
  if (!connect_spec.empty()) {
    if (!model_specs.empty() || !demo_prefix.empty() || daemon_mode) {
      std::fprintf(stderr,
                   "nettag_serve: --connect excludes --model/--train-demo/"
                   "--listen\n");
      return 2;
    }
    return run_client(connect_spec);
  }
  if (!demo_prefix.empty() && !model_specs.empty()) {
    std::fprintf(stderr,
                 "nettag_serve: --model and --train-demo are exclusive\n");
    return 2;
  }
  if (!demo_prefix.empty()) {
    if (designs < 1) {
      std::fprintf(stderr, "nettag_serve: --designs must be >= 1\n");
      return 2;
    }
    return train_demo(demo_prefix, seed, designs);
  }
  if (model_specs.empty()) {
    usage(stderr);
    return 2;
  }
  for (std::size_t a = 1; a < model_specs.size(); ++a) {
    for (std::size_t b = 0; b < a; ++b) {
      if (model_specs[a].name == model_specs[b].name) {
        std::fprintf(stderr, "nettag_serve: duplicate --model name '%s'\n",
                     model_specs[a].name.c_str());
        return 2;
      }
    }
  }
  // Each replica's startup checkpoint doubles as its default `reload`
  // target (the registry stores it), so a prefix-less reload request
  // re-reads whatever that replica was started from — the common "the
  // trainer just updated the checkpoint" case.
  if (daemon_mode) {
    return run_daemon(model_specs, std::move(config), std::move(dcfg));
  }
  return run_serve(model_specs, std::move(config), dcfg, log_path);
}
