// NetTAG-Serve daemon soak bench: hundreds of concurrent socket clients
// against one sharded daemon (docs/PERFORMANCE.md §8).
//
// Unlike the other benches this one is multi-PROCESS: the parent hosts the
// daemon in-process and fork+execs *itself* in `--client` mode, so every
// client lives in its own process with real sockets, real scheduling, and
// no shared memory with the server — the closest in-tree approximation of
// production traffic. (Plain fork without exec is unsafe here: the parent
// is multi-threaded by the time clients spawn.)
//
// Three arms, all over a zipf-skewed mix of distinct ladder netlists (skew
// models production traffic: a few hot designs, a long cold tail):
//   * single_client — one process, one connection, sequential requests: the
//     daemon-transport latency floor (compare BENCH_serve_throughput.json's
//     single_client, which measures the in-process server without sockets);
//   * soak          — 24 processes x 8 connections = 192 concurrent clients
//     hammering the shared-cache daemon; the pass bar is zero protocol
//     errors and multi-client qps >= the in-process single-client reference;
//   * forced_shed   — a deliberately starved daemon (1 shard, queue depth 1)
//     under cold cache-missing traffic: backpressure must answer `too_busy`
//     (counted, not an error) and never drop a connection or corrupt a line.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "nn/gemm.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace nettag;

namespace {

constexpr int kDistinct = 64;     ///< distinct netlists in the zipf pool
constexpr double kZipfAlpha = 1.1;

/// Same ladder construction as bench_serve_throughput: depth plus extra INV
/// perturbation gates make every rank a distinct structure.
std::string ladder_netlist(int depth) {
  std::string text = "module ladder source synthetic\nport a\nport b\n";
  std::string prev_a = "a", prev_b = "b";
  for (int i = 0; i < depth; ++i) {
    const std::string n1 = "n" + std::to_string(2 * i);
    const std::string n2 = "n" + std::to_string(2 * i + 1);
    text += "gate AND2 " + n1 + " " + prev_a + " " + prev_b + "\n";
    text += "gate INV " + n2 + " " + n1 + "\n";
    prev_a = n1;
    prev_b = n2;
  }
  text += "gate OR2 y " + prev_a + " " + prev_b + " out\nendmodule\n";
  return text;
}

std::string zipf_pool_netlist(int rank) {
  std::string text = ladder_netlist(2 + rank % 12);
  for (int x = 0; x < rank / 12; ++x) {
    text.insert(text.find("endmodule"),
                "gate INV extra" + std::to_string(x) + " y\n");
  }
  return text;
}

/// A unique (never cache-hitting) netlist for the forced-shed arm: deep
/// enough that processing is slow relative to arrival.
std::string distinct_netlist(int proc, int conn, int i) {
  std::string text = ladder_netlist(24);
  text.insert(text.find("endmodule"),
              "gate INV u" + std::to_string(proc) + "_" +
                  std::to_string(conn) + "_" + std::to_string(i) + " y\n");
  return text;
}

/// Zipf CDF over ranks 1..kDistinct with exponent kZipfAlpha.
std::vector<double> zipf_cdf() {
  std::vector<double> cdf(kDistinct);
  double total = 0;
  for (int r = 0; r < kDistinct; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), kZipfAlpha);
    cdf[r] = total;
  }
  for (double& c : cdf) c /= total;
  return cdf;
}

int zipf_sample(const std::vector<double>& cdf, std::uint64_t* state) {
  // xorshift64*: cheap, seedable, good enough to exercise a cache.
  std::uint64_t x = *state;
  x ^= x >> 12;
  x ^= x << 25;
  x ^= x >> 27;
  *state = x;
  const double u =
      static_cast<double>((x * 2685821657736338717ull) >> 11) / 9007199254740992.0;
  for (int r = 0; r < kDistinct; ++r) {
    if (u <= cdf[r]) return r;
  }
  return kDistinct - 1;
}

// --- client mode ------------------------------------------------------------

struct ClientTally {
  std::atomic<std::uint64_t> ok{0};
  std::atomic<std::uint64_t> shed{0};
  std::atomic<std::uint64_t> errors{0};
};

/// One connection's request loop. Any transport failure, malformed response
/// line, or unexpected error code is a protocol error; `too_busy` is counted
/// separately (it is the correct backpressure answer, not a failure).
void client_connection(const std::string& spec, int proc, int conn, int reqs,
                       bool zipf_workload, ClientTally* tally) {
  net::Client::Options opts;
  opts.connect_timeout_ms = 10000;
  opts.io_timeout_ms = 60000;
  net::Client client(opts);
  std::string error;
  if (!client.connect(spec, &error)) {
    // A dropped/refused connection is exactly what the daemon must never
    // do under load — count every request this connection would have made.
    tally->errors.fetch_add(static_cast<std::uint64_t>(reqs));
    std::fprintf(stderr, "soak client %d/%d: connect: %s\n", proc, conn,
                 error.c_str());
    return;
  }
  const std::vector<double> cdf = zipf_cdf();
  std::uint64_t rng = 0x9e3779b97f4a7c15ull ^
                      (static_cast<std::uint64_t>(proc) << 32) ^
                      static_cast<std::uint64_t>(conn + 1);
  for (int i = 0; i < reqs; ++i) {
    const std::string id = std::to_string(proc) + "-" + std::to_string(conn) +
                           "-" + std::to_string(i);
    serve::Json req = serve::Json::object();
    req.set("id", id);
    req.set("op", "embed_gates");
    req.set("netlist", zipf_workload
                           ? zipf_pool_netlist(zipf_sample(cdf, &rng))
                           : distinct_netlist(proc, conn, i));
    std::string response;
    if (!client.request(req.dump(), &response, &error)) {
      tally->errors.fetch_add(1);
      std::fprintf(stderr, "soak client %d/%d: %s\n", proc, conn,
                   error.c_str());
      return;  // connection is gone; remaining requests not attempted
    }
    serve::Json j;
    if (!serve::Json::parse(response, &j, &error) ||
        j.find("id") == nullptr || j.find("id")->as_string() != id ||
        j.find("status") == nullptr) {
      tally->errors.fetch_add(1);
      continue;
    }
    const std::string status = j.find("status")->as_string();
    if (status == "ok") {
      tally->ok.fetch_add(1);
    } else if (status == "error" && j.find("error") != nullptr &&
               j.find("error")->find("code") != nullptr &&
               j.find("error")->find("code")->as_string() == "too_busy") {
      tally->shed.fetch_add(1);
    } else {
      tally->errors.fetch_add(1);
    }
  }
}

int run_client_mode(int argc, char** argv) {
  // --client <spec> <proc_idx> <conns> <reqs_per_conn> <zipf|distinct> <out>
  if (argc != 8) {
    std::fprintf(stderr, "bench_serve_soak --client: bad argv\n");
    return 2;
  }
  const std::string spec = argv[2];
  const int proc = std::atoi(argv[3]);
  const int conns = std::atoi(argv[4]);
  const int reqs = std::atoi(argv[5]);
  const bool zipf_workload = !std::strcmp(argv[6], "zipf");
  const std::string out_path = argv[7];

  ClientTally tally;
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (int c = 0; c < conns; ++c) {
    threads.emplace_back(client_connection, spec, proc, c, reqs,
                         zipf_workload, &tally);
  }
  for (std::thread& t : threads) t.join();

  std::ofstream out(out_path);
  out << tally.ok.load() << ' ' << tally.shed.load() << ' '
      << tally.errors.load() << '\n';
  return 0;
}

// --- parent orchestration ---------------------------------------------------

struct ArmResult {
  std::string mode;
  std::uint64_t requests = 0;  ///< ok + shed (every answered request)
  std::uint64_t shed = 0;
  std::uint64_t protocol_errors = 0;
  double seconds = 0;
  double qps() const { return requests / std::max(seconds, 1e-9); }
};

/// Spawns `procs` copies of self in --client mode and aggregates their
/// tallies. Returns false if any child failed to run at all.
bool run_clients(const std::string& self_exe, const std::string& spec,
                 int procs, int conns, int reqs, const char* workload,
                 ArmResult* result) {
  std::vector<pid_t> pids;
  std::vector<std::string> out_paths;
  for (int p = 0; p < procs; ++p) {
    const std::string out_path = "/tmp/nettag_soak_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(p) + ".txt";
    out_paths.push_back(out_path);
    const std::string proc_s = std::to_string(p);
    const std::string conns_s = std::to_string(conns);
    const std::string reqs_s = std::to_string(reqs);
    const pid_t pid = ::fork();
    if (pid < 0) return false;
    if (pid == 0) {
      // Child: exec immediately (the parent is multi-threaded; nothing but
      // async-signal-safe calls are allowed between fork and exec).
      const char* cargv[] = {self_exe.c_str(), "--client",   spec.c_str(),
                             proc_s.c_str(),  conns_s.c_str(), reqs_s.c_str(),
                             workload,        out_path.c_str(), nullptr};
      ::execv(self_exe.c_str(), const_cast<char**>(cargv));
      _exit(127);
    }
    pids.push_back(pid);
  }
  bool all_ok = true;
  for (const pid_t pid : pids) {
    int status = 0;
    ::waitpid(pid, &status, 0);
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) all_ok = false;
  }
  for (const std::string& path : out_paths) {
    std::ifstream in(path);
    std::uint64_t ok = 0, shed = 0, errors = 0;
    if (in >> ok >> shed >> errors) {
      result->requests += ok + shed;
      result->shed += shed;
      result->protocol_errors += errors;
    } else {
      all_ok = false;
    }
    std::remove(path.c_str());
  }
  return all_ok;
}

/// Reads the single_client qps out of the committed throughput bench JSON;
/// falls back to the last recorded value when the file is absent.
double reference_single_client_qps() {
  std::ifstream in("BENCH_serve_throughput.json");
  if (!in) return 1146.67;
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  serve::Json j;
  std::string error;
  if (!serve::Json::parse(text, &j, &error)) return 1146.67;
  const serve::Json* runs = j.find("runs");
  if (runs == nullptr || !runs->is_array()) return 1146.67;
  for (const serve::Json& run : runs->items()) {
    if (run.find("mode") != nullptr &&
        run.find("mode")->as_string() == "single_client" &&
        run.find("qps") != nullptr) {
      return run.find("qps")->as_number();
    }
  }
  return 1146.67;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && !std::strcmp(argv[1], "--client")) {
    return run_client_mode(argc, argv);
  }

  char exe_buf[4096];
  const ssize_t exe_len =
      ::readlink("/proc/self/exe", exe_buf, sizeof(exe_buf) - 1);
  if (exe_len <= 0) {
    std::fprintf(stderr, "bench_serve_soak: cannot resolve /proc/self/exe\n");
    return 2;
  }
  const std::string self_exe(exe_buf, static_cast<std::size_t>(exe_len));

  // Small model, brief pre-training: this bench measures the transport and
  // sharding layers, not model quality.
  PretrainOptions po;
  po.expr_steps = 8;
  po.tag_steps = 6;
  po.aux_steps = 0;
  po.max_expressions = 160;
  po.max_cones = 16;
  po.objective_align = false;
  NetTagConfig mc;
  mc.expr_llm = TextEncoderConfig::tiny();
  bench::Setup setup = bench::make_setup(1, po, mc);

  // The forced-shed arm needs a second server with identical weights;
  // round-trip through a checkpoint rather than pre-training twice.
  const std::string ckpt = "/tmp/nettag_soak_ckpt";
  save_checkpoint(*setup.model, ckpt);

  const int kProcs = 24, kConns = 8, kReqs = 60;
  const int kClients = kProcs * kConns;
  std::vector<ArmResult> results;
  bool spawn_ok = true;

  // --- arm 1+2: single client, then the soak, against one shared daemon ---
  {
    const std::size_t shards = 4;
    setup.model->text_cache().set_partitions(shards);
    serve::Server server(serve::ServerConfig{}, std::move(setup.model));
    net::DaemonConfig dc;
    dc.shards = shards;
    dc.queue_depth = 64;
    dc.cache_entries = 512;
    dc.poll_interval_ms = 20;
    std::string error;
    const std::string sock =
        "/tmp/nettag_soak_" + std::to_string(::getpid()) + ".sock";
    if (!cli::parse_listen_address(("unix:" + sock).c_str(), &dc.listen,
                                   &error)) {
      std::fprintf(stderr, "bench_serve_soak: %s\n", error.c_str());
      return 2;
    }
    net::Daemon daemon(server, dc);
    if (!daemon.start(&error)) {
      std::fprintf(stderr, "bench_serve_soak: %s\n", error.c_str());
      return 2;
    }
    std::atomic<bool> stop{false};
    std::thread runner([&] { daemon.run(&stop); });

    ArmResult single;
    single.mode = "single_client";
    {
      Timer t;
      spawn_ok &= run_clients(self_exe, "unix:" + sock, 1, 1, 400, "zipf",
                              &single);
      single.seconds = t.seconds();
    }
    results.push_back(single);

    ArmResult soak;
    soak.mode = "soak_" + std::to_string(kClients) + "_clients";
    {
      Timer t;
      spawn_ok &= run_clients(self_exe, "unix:" + sock, kProcs, kConns, kReqs,
                              "zipf", &soak);
      soak.seconds = t.seconds();
    }
    results.push_back(soak);

    stop.store(true);
    runner.join();
  }

  // --- arm 3: forced shed on a starved daemon -----------------------------
  {
    serve::Server server(serve::ServerConfig{}, load_checkpoint(ckpt));
    net::DaemonConfig dc;
    dc.shards = 1;
    dc.queue_depth = 1;
    dc.cache_entries = 64;
    dc.poll_interval_ms = 20;
    std::string error;
    const std::string sock =
        "/tmp/nettag_soak_shed_" + std::to_string(::getpid()) + ".sock";
    if (!cli::parse_listen_address(("unix:" + sock).c_str(), &dc.listen,
                                   &error)) {
      std::fprintf(stderr, "bench_serve_soak: %s\n", error.c_str());
      return 2;
    }
    net::Daemon daemon(server, dc);
    if (!daemon.start(&error)) {
      std::fprintf(stderr, "bench_serve_soak: %s\n", error.c_str());
      return 2;
    }
    std::atomic<bool> stop{false};
    std::thread runner([&] { daemon.run(&stop); });

    ArmResult shed;
    shed.mode = "forced_shed";
    {
      Timer t;
      spawn_ok &= run_clients(self_exe, "unix:" + sock, 8, 4, 8, "distinct",
                              &shed);
      shed.seconds = t.seconds();
    }
    results.push_back(shed);

    // Cross-check: the daemon's own shard counters saw the shed requests.
    std::uint64_t daemon_shed = 0;
    for (const auto& s : daemon.shard_pool()->stats()) daemon_shed += s.shed;
    if (daemon_shed != shed.shed) {
      std::fprintf(stderr,
                   "bench_serve_soak: daemon shed counter %llu != client "
                   "too_busy count %llu\n",
                   static_cast<unsigned long long>(daemon_shed),
                   static_cast<unsigned long long>(shed.shed));
      spawn_ok = false;
    }
    stop.store(true);
    runner.join();
  }

  for (const char* suffix : {".ckpt", ".exprllm.bin", ".tagformer.bin"}) {
    std::remove((ckpt + suffix).c_str());
  }

  TextTable table;
  table.set_header({"Mode", "Requests", "Seconds", "QPS", "Shed", "Errors"});
  for (const ArmResult& r : results) {
    char sec[32], qps[32];
    std::snprintf(sec, sizeof(sec), "%.3f", r.seconds);
    std::snprintf(qps, sizeof(qps), "%.1f", r.qps());
    table.add_row({r.mode, std::to_string(r.requests), sec, qps,
                   std::to_string(r.shed), std::to_string(r.protocol_errors)});
  }
  table.print(std::cout);

  const double reference = reference_single_client_qps();
  const std::uint64_t total_errors = results[0].protocol_errors +
                                     results[1].protocol_errors +
                                     results[2].protocol_errors;
  const bool multi_exceeds = results[1].qps() >= reference;
  const bool shed_observed = results[2].shed > 0;
  const bool pass =
      spawn_ok && total_errors == 0 && multi_exceeds && shed_observed;
  std::cout << "# " << kClients << " concurrent clients, "
            << results[1].requests << " soak requests, " << total_errors
            << " protocol errors\n"
            << "# soak qps " << results[1].qps()
            << (multi_exceeds ? " exceeds" : " DOES NOT exceed")
            << " in-process single-client reference " << reference << "\n"
            << "# forced-shed arm shed " << results[2].shed
            << " requests via too_busy (connections never dropped)\n";

  std::ofstream json("BENCH_serve_soak.json");
  json << "{\n  \"bench\": \"serve_soak\",\n  \"simd\": \""
       << simd_backend_name() << "\",\n  \"concurrent_clients\": " << kClients
       << ",\n  \"distinct_netlists\": " << kDistinct
       << ",\n  \"zipf_alpha\": " << kZipfAlpha << ",\n  \"runs\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ArmResult& r = results[i];
    json << (i ? "," : "") << "\n    {\"mode\": \"" << r.mode
         << "\", \"requests\": " << r.requests << ", \"seconds\": "
         << r.seconds << ", \"qps\": " << r.qps() << ", \"shed\": " << r.shed
         << ", \"protocol_errors\": " << r.protocol_errors << "}";
  }
  json << "\n  ],\n  \"reference_single_client_qps\": " << reference
       << ",\n  \"multi_client_qps_exceeds_reference\": "
       << (multi_exceeds ? "true" : "false")
       << ",\n  \"shed_observed\": " << (shed_observed ? "true" : "false")
       << ",\n  \"zero_protocol_errors\": "
       << (total_errors == 0 ? "true" : "false") << ",\n  \"pass\": "
       << (pass ? "true" : "false") << "\n}\n";
  std::cout << "# JSON written to BENCH_serve_soak.json\n";
  return pass ? 0 : 1;
}
