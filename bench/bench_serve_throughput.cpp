// NetTAG-Serve throughput bench: the serving-specific performance claims.
//
// Three runs over the same pre-trained model and request set, each a
// blocking client calling Server::process_on against its own result cache:
//   * single_client  — cold result cache (the latency floor);
//   * cache_warm     — the same requests again against the now-warm
//                      content-addressed cache: no model work,
//                      byte-identical replays;
//   * quantized_int8 — a second server (same weights) serving the int8
//                      packed path, cold cache (docs/PERFORMANCE.md §6).
// Expectation encoded in the JSON: warm qps strictly above the cold modes.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "common.hpp"
#include "nn/gemm.hpp"
#include "serve/server.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

using namespace nettag;

namespace {

/// Distinct comb netlists: an INV/AND2 ladder of `depth` rungs. Depth is
/// part of the structure, so every depth is a distinct cache entry.
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

struct RunResult {
  std::string mode;
  std::size_t requests = 0;
  double seconds = 0.0;
  double qps() const { return requests / std::max(seconds, 1e-9); }
};

RunResult run_single(serve::Server& server, serve::ResultCache& cache,
                     const std::vector<serve::Request>& reqs,
                     const char* mode) {
  RunResult r;
  r.mode = mode;
  Timer t;
  for (const serve::Request& req : reqs) {
    const serve::Response resp = server.process_on(req, cache);
    if (!resp.ok()) {
      std::fprintf(stderr, "bench: request failed: %s\n",
                   resp.error_message.c_str());
      std::exit(1);
    }
  }
  r.seconds = t.seconds();
  r.requests = reqs.size();
  return r;
}

}  // namespace

int main() {
  // Small model, brief pre-training: the bench measures serving overheads,
  // not training quality.
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

  // The quantized arm needs a second model with identical weights; round-trip
  // through a checkpoint rather than pre-training twice.
  const std::string ckpt = "/tmp/nettag_bench_serve_ckpt";
  save_checkpoint(*setup.model, ckpt);

  serve::Server server(serve::ServerConfig{}, std::move(setup.model));
  serve::ResultCache cache(512);

  serve::ServerConfig qc;
  qc.quantize = true;
  serve::Server quant_server(qc, load_checkpoint(ckpt));
  serve::ResultCache quant_cache(512);

  constexpr int kDistinct = 48;
  std::vector<serve::Request> reqs;
  reqs.reserve(kDistinct);
  for (int d = 0; d < kDistinct; ++d) {
    serve::Request r;
    r.op = serve::Op::kEmbedGates;
    r.netlist_text = ladder_netlist(2 + d % 12);
    // Perturb structure so every request is a distinct cache entry even at
    // equal depth.
    for (int x = 0; x < d / 12; ++x) {
      r.netlist_text.insert(r.netlist_text.find("endmodule"),
                            "gate INV extra" + std::to_string(x) + " y\n");
    }
    reqs.push_back(std::move(r));
  }

  std::vector<RunResult> results;

  // Cold.
  results.push_back(run_single(server, cache, reqs, "single_client"));

  // Warm: the cache now holds every request from the cold run.
  results.push_back(run_single(server, cache, reqs, "cache_warm"));

  // Int8 packed weights, cold cache (directly comparable to the
  // single_client fp32 arm).
  results.push_back(
      run_single(quant_server, quant_cache, reqs, "quantized_int8"));

  TextTable table;
  table.set_header({"Mode", "Requests", "Seconds", "QPS"});
  for (const RunResult& r : results) {
    char qps[32], sec[32];
    std::snprintf(sec, sizeof(sec), "%.3f", r.seconds);
    std::snprintf(qps, sizeof(qps), "%.1f", r.qps());
    table.add_row({r.mode, std::to_string(r.requests), sec, qps});
  }
  table.print(std::cout);

  const bool warm_faster = results[1].qps() > results[0].qps() &&
                           results[1].qps() > results[2].qps();
  std::cout << "# cache-warm throughput " << (warm_faster ? "exceeds" : "DOES NOT exceed")
            << " both cold modes\n";

  std::ofstream json("BENCH_serve_throughput.json");
  json << "{\n  \"bench\": \"serve_throughput\",\n  \"simd\": \""
       << simd_backend_name() << "\",\n  \"distinct_requests\": " << kDistinct
       << ",\n  \"runs\": [";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << (i ? "," : "") << "\n    {\"mode\": \"" << r.mode
         << "\", \"requests\": " << r.requests << ", \"seconds\": "
         << r.seconds << ", \"qps\": " << r.qps() << "}";
  }
  json << "\n  ],\n  \"warm_faster_than_cold\": "
       << (warm_faster ? "true" : "false") << "\n}\n";
  std::cout << "# JSON written to BENCH_serve_throughput.json\n";
  for (const char* suffix : {".ckpt", ".exprllm.bin", ".tagformer.bin"}) {
    std::remove((ckpt + suffix).c_str());
  }
  return warm_faster ? 0 : 1;
}
