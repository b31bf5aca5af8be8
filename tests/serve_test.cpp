// Tests for the NetTAG-Serve subsystem (src/serve): JSON wire format,
// canonical structural hashing, the LRU primitives, and the full server —
// caching, admission gate, error taxonomy, and observability.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include <limits>

#include "core/nettag.hpp"
#include "net/shard.hpp"
#include "netlist/io.hpp"
#include "nn/gemm.hpp"
#include "serve/admission.hpp"
#include "serve/cache.hpp"
#include "serve/canonical.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/lru.hpp"

namespace nettag {
namespace {

using serve::ErrorCode;
using serve::Json;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerConfig;

// --- util/lru ---------------------------------------------------------------

TEST(LruMap, EvictsLeastRecentlyUsed) {
  LruMap<int, int> lru(2);
  EXPECT_EQ(lru.put(1, 10), 0u);
  EXPECT_EQ(lru.put(2, 20), 0u);
  ASSERT_NE(lru.get(1), nullptr);  // promotes 1; 2 is now oldest
  EXPECT_EQ(lru.put(3, 30), 1u);
  EXPECT_EQ(lru.get(2), nullptr);
  ASSERT_NE(lru.get(1), nullptr);
  EXPECT_EQ(*lru.get(1), 10);
  ASSERT_NE(lru.get(3), nullptr);
}

TEST(LruMap, PutReplacesAndShrinkEvicts) {
  LruMap<std::string, int> lru(4);
  lru.put("a", 1);
  lru.put("b", 2);
  lru.put("a", 7);  // replace, no growth
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(*lru.get("a"), 7);
  lru.put("c", 3);
  lru.put("d", 4);
  EXPECT_EQ(lru.set_capacity(2), 2u);  // evicts the two oldest
  EXPECT_EQ(lru.size(), 2u);
  EXPECT_EQ(lru.capacity(), 2u);
}

// --- serve/json -------------------------------------------------------------

TEST(ServeJson, ParsesNestedDocument) {
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(
      R"({"op":"embed","k":3,"flags":[true,null,-2.5],"msg":"a\"b\nc"})", &doc,
      &err))
      << err;
  EXPECT_EQ(doc.find("op")->as_string(), "embed");
  EXPECT_EQ(doc.find("k")->as_int(), 3);
  ASSERT_TRUE(doc.find("flags")->is_array());
  EXPECT_EQ(doc.find("flags")->items().size(), 3u);
  EXPECT_DOUBLE_EQ(doc.find("flags")->items()[2].as_number(), -2.5);
  EXPECT_EQ(doc.find("msg")->as_string(), "a\"b\nc");
}

TEST(ServeJson, RejectsMalformedInput) {
  Json doc;
  std::string err;
  for (const char* bad :
       {"", "{", "{\"a\":}", "[1,]", "{\"a\":1} trailing", "nul", "\"\\u12\""}) {
    EXPECT_FALSE(Json::parse(bad, &doc, &err)) << bad;
    EXPECT_FALSE(err.empty());
  }
}

TEST(ServeJson, DumpRoundTrips) {
  Json obj = Json::object();
  obj.set("n", 42);
  obj.set("x", 1.5);
  obj.set("s", "hi");
  Json arr = Json::array();
  arr.push_back(true);
  arr.push_back(Json());
  obj.set("a", std::move(arr));
  Json back;
  std::string err;
  ASSERT_TRUE(Json::parse(obj.dump(), &back, &err)) << err;
  EXPECT_EQ(back.find("n")->as_int(), 42);
  EXPECT_DOUBLE_EQ(back.find("x")->as_number(), 1.5);
  EXPECT_EQ(back.find("s")->as_string(), "hi");
  EXPECT_TRUE(back.find("a")->items()[0].as_bool());
  EXPECT_TRUE(back.find("a")->items()[1].is_null());
}

TEST(ServeJson, NumberFormatting) {
  EXPECT_EQ(serve::json_number(3.0), "3");
  EXPECT_EQ(serve::json_number(-17.0), "-17");
  EXPECT_EQ(serve::json_number(0.5), "0.5");
}

TEST(ServeJson, AsIntSaturatesInsteadOfUndefinedCast) {
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(R"({"big":1e300,"small":-1e300,"k":3})", &doc, &err))
      << err;
  EXPECT_EQ(doc.find("big")->as_int(),
            std::numeric_limits<long long>::max());
  EXPECT_EQ(doc.find("small")->as_int(),
            std::numeric_limits<long long>::min());
  EXPECT_EQ(doc.find("k")->as_int(), 3);
  EXPECT_EQ(Json("nope").as_int(7), 7);  // wrong type → fallback
}

// --- serve/canonical --------------------------------------------------------

const char* kAndNetlist =
    "module m source synthetic\n"
    "port a\nport b\n"
    "gate AND2 g1 a b out\n"
    "endmodule\n";

// Same structure as kAndNetlist with every name changed.
const char* kAndRenamed =
    "module other source synthetic\n"
    "port x\nport y\n"
    "gate AND2 zz x y out\n"
    "endmodule\n";

const char* kOrNetlist =
    "module m source synthetic\n"
    "port a\nport b\n"
    "gate OR2 g1 a b out\n"
    "endmodule\n";

TEST(Canonical, HashIsNameInvariant) {
  const Netlist a = netlist_from_string(kAndNetlist);
  const Netlist b = netlist_from_string(kAndRenamed);
  EXPECT_EQ(serve::structural_hash(a), serve::structural_hash(b));
}

TEST(Canonical, HashSeparatesDifferentStructure) {
  const Netlist a = netlist_from_string(kAndNetlist);
  const Netlist b = netlist_from_string(kOrNetlist);
  EXPECT_NE(serve::structural_hash(a), serve::structural_hash(b));
}

TEST(Canonical, HashIsFaninOrderSensitive) {
  // MUX2 pins are (A, B, S): swapping distinguishable fanins (an inverter
  // vs a port — two bare ports would just be a renaming) changes which pin
  // carries which cone, and the hash must see it even though the gate
  // multiset is identical.
  const Netlist m1 = netlist_from_string(
      "module m source synthetic\nport p\nport q\nport s\n"
      "gate INV n1 p\ngate MUX2 g1 n1 q s out\nendmodule\n");
  const Netlist m2 = netlist_from_string(
      "module m source synthetic\nport p\nport q\nport s\n"
      "gate INV n1 p\ngate MUX2 g1 q n1 s out\nendmodule\n");
  EXPECT_NE(serve::structural_hash(m1), serve::structural_hash(m2));
}

// Two independent gates off the same ports; the two variants differ only in
// gate declaration order (isomorphic, reordered).
const char* kPairAB =
    "module m source synthetic\n"
    "port a\nport b\n"
    "gate AND2 g1 a b out\n"
    "gate OR2 g2 a b out\n"
    "endmodule\n";

const char* kPairBA =
    "module m source synthetic\n"
    "port a\nport b\n"
    "gate OR2 g2 a b out\n"
    "gate AND2 g1 a b out\n"
    "endmodule\n";

TEST(Canonical, OrderSensitiveFoldSeparatesReorderedDeclarations) {
  const Netlist ab = netlist_from_string(kPairAB);
  const Netlist ba = netlist_from_string(kPairBA);
  // Pooled results may be shared across reordering...
  EXPECT_EQ(serve::structural_hash(ab), serve::structural_hash(ba));
  // ...but per-node results are declaration-ordered, so the order-sensitive
  // fold must address them separately.
  EXPECT_NE(serve::structural_hash(ab, 3, true),
            serve::structural_hash(ba, 3, true));
  // Renaming alone never affects either fold.
  const Netlist a1 = netlist_from_string(kAndNetlist);
  const Netlist a2 = netlist_from_string(kAndRenamed);
  EXPECT_EQ(serve::structural_hash(a1, 3, true),
            serve::structural_hash(a2, 3, true));
}

TEST(Canonical, FingerprintIsExactPerOrderMode) {
  const Netlist ab = netlist_from_string(kPairAB);
  const Netlist ba = netlist_from_string(kPairBA);
  // Canonical (label-sorted) order makes reordered isomorphic netlists
  // fingerprint identically; declaration order keeps them apart.
  EXPECT_EQ(serve::canonical_fingerprint(ab, false),
            serve::canonical_fingerprint(ba, false));
  EXPECT_NE(serve::canonical_fingerprint(ab, true),
            serve::canonical_fingerprint(ba, true));
  // Renaming never enters the fingerprint; structure always does.
  EXPECT_EQ(serve::canonical_fingerprint(netlist_from_string(kAndNetlist), true),
            serve::canonical_fingerprint(netlist_from_string(kAndRenamed), true));
  EXPECT_NE(serve::canonical_fingerprint(netlist_from_string(kAndNetlist), false),
            serve::canonical_fingerprint(netlist_from_string(kOrNetlist), false));
}

TEST(Canonical, CacheKeyIncludesOpAndParams) {
  const Netlist a = netlist_from_string(kAndNetlist);
  EXPECT_NE(serve::cache_key(a, "embed_gates", 0, 120, "", true).key,
            serve::cache_key(a, "embed_cone", 0, 120, "", false).key);
  EXPECT_NE(serve::cache_key(a, "embed_gates", 0, 120, "", true).key,
            serve::cache_key(a, "embed_gates", 3, 120, "", true).key);
  EXPECT_NE(serve::cache_key(a, "predict", 0, 120, "area", false).key,
            serve::cache_key(a, "predict", 0, 120, "power", false).key);
}

// --- serve/cache ------------------------------------------------------------

TEST(ResultCache, KeyCollisionRejectedByFingerprint) {
  serve::ResultCache cache(4);
  cache.insert("k", "fp-a", "payload-a");
  std::string out;
  EXPECT_TRUE(cache.lookup("k", "fp-a", &out));
  EXPECT_EQ(out, "payload-a");
  // Same key, different exact structure: a WL hash collision must read as a
  // miss, never replay the other circuit's payload.
  EXPECT_FALSE(cache.lookup("k", "fp-b", &out));
  const serve::ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.collisions, 1u);
}

// --- serve/protocol ---------------------------------------------------------

TEST(Protocol, ParseRequestErrorTaxonomy) {
  EXPECT_EQ(serve::parse_request("garbage").parse_error, ErrorCode::kBadJson);
  EXPECT_EQ(serve::parse_request("[1,2]").parse_error, ErrorCode::kBadJson);
  EXPECT_EQ(serve::parse_request("{\"id\":\"x\"}").parse_error,
            ErrorCode::kBadRequest);  // missing op
  EXPECT_EQ(serve::parse_request("{\"op\":\"nope\"}").parse_error,
            ErrorCode::kBadRequest);
  EXPECT_EQ(serve::parse_request("{\"op\":\"embed_gates\"}").parse_error,
            ErrorCode::kBadRequest);  // missing netlist
  EXPECT_EQ(serve::parse_request(
                "{\"op\":\"embed_gates\",\"netlist\":\"m\",\"k_hop\":99}")
                .parse_error,
            ErrorCode::kBadRequest);
  const Request ok = serve::parse_request(
      "{\"id\":7,\"op\":\"ping\"}");
  EXPECT_EQ(ok.parse_error, ErrorCode::kNone);
  EXPECT_EQ(ok.op, Op::kPing);
  EXPECT_EQ(ok.id, "7");  // numeric ids echo textually
}

TEST(Protocol, MistypedFieldsAreRejectedNotDefaulted) {
  // A present-but-wrong-typed field must be bad_request, not a silent
  // default parameter (which would also poison the result cache).
  for (const char* bad : {
           R"({"op":"embed_gates","netlist":123})",
           R"({"op":"embed_gates","netlist":"m","k_hop":"3"})",
           R"({"op":"embed_gates","netlist":"m","k_hop":1.5})",
           R"({"op":"embed_gates","netlist":"m","k_hop":1e300})",
           R"({"op":"embed_circuit","netlist":"m","max_cone_gates":true})",
           R"({"op":"embed_circuit","netlist":"m","max_cone_gates":2.5})",
           R"({"op":"predict","netlist":"m","task":7})",
       }) {
    EXPECT_EQ(serve::parse_request(bad).parse_error, ErrorCode::kBadRequest)
        << bad;
  }
  const Request ok = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","k_hop":3,"max_cone_gates":64})");
  EXPECT_EQ(ok.parse_error, ErrorCode::kNone);
  EXPECT_EQ(ok.k_hop, 3);
  EXPECT_EQ(ok.max_cone_gates, 64u);
}

TEST(Protocol, MatJsonRoundTripIsBitExact) {
  Mat m(2, 3);
  m.v = {1.0f, -0.333333343f, 2.5e-7f, 3.14159274f, 0.0f, -1e9f};
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(serve::mat_to_json(m), &j, &err)) << err;
  Mat back;
  ASSERT_TRUE(serve::mat_from_json(j, &back));
  ASSERT_EQ(back.rows, 2);
  ASSERT_EQ(back.cols, 3);
  for (std::size_t i = 0; i < m.v.size(); ++i) {
    EXPECT_EQ(m.v[i], back.v[i]) << "lane " << i;  // %.9g round-trips floats
  }
}

// --- model text cache (satellite: bounded LRU) ------------------------------

TEST(TextCache, BoundedWithCounters) {
  TextEmbeddingCache cache(2);
  std::vector<float> row{1.0f, 2.0f};
  std::vector<float> out;
  EXPECT_FALSE(cache.lookup("a", &out));
  cache.insert("a", row);
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_EQ(out, row);
  cache.insert("b", {3.0f});
  EXPECT_TRUE(cache.lookup("a", &out));  // promotes "a" over "b"
  cache.insert("c", {4.0f});             // evicts "b", the least recent
  EXPECT_FALSE(cache.lookup("b", &out));
  EXPECT_TRUE(cache.lookup("a", &out));
  EXPECT_EQ(cache.hits(), 3u);
  EXPECT_EQ(cache.misses(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_EQ(cache.size(), 2u);
}

TEST(TextCache, ModelHonoursConfiguredBound) {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.text_cache_entries = 3;
  const NetTag model(cfg, 11);
  // Distinct structures → distinct attribute texts → distinct cache keys.
  const char* texts[] = {
      kAndNetlist, kOrNetlist,
      "module m source synthetic\nport a\ngate INV g1 a out\nendmodule\n",
      "module m source synthetic\nport a\nport b\ngate XOR2 g1 a b out\n"
      "endmodule\n",
  };
  for (const char* t : texts) model.embed(netlist_from_string(t));
  EXPECT_LE(model.text_cache().size(), 3u);
  EXPECT_GT(model.text_cache().evictions(), 0u);
}

// --- server -----------------------------------------------------------------

NetTagConfig tiny_config() {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.tag_d_model = 32;
  cfg.out_dim = 24;
  return cfg;
}

/// A Server plus the ResultCache its requests run against: the tests'
/// synchronous client of Server::process_on (a shard worker owns its cache
/// partition the same way).
class TestServer : public Server {
 public:
  using Server::Server;
  Response submit(const Request& request) {
    return process_on(request, cache_);
  }
  std::string handle_line(const std::string& line) {
    return serve::render_response(submit(serve::parse_request(line)));
  }
  serve::ResultCache& cache() { return cache_; }

 private:
  serve::ResultCache cache_{256};
};

std::unique_ptr<TestServer> make_server(ServerConfig sc = {},
                                        std::uint64_t seed = 21) {
  return std::make_unique<TestServer>(
      sc, std::make_unique<NetTag>(tiny_config(), seed));
}

/// Submits `request` to `pool` and returns a future of its response.
std::future<Response> submit_to(net::ShardPool& pool, Request request) {
  auto done = std::make_shared<std::promise<Response>>();
  std::future<Response> future = done->get_future();
  pool.submit(std::move(request),
              [done](Response r) { done->set_value(std::move(r)); });
  return future;
}

Request embed_request(const char* text, Op op = Op::kEmbedGates) {
  Request r;
  r.op = op;
  r.netlist_text = text;
  return r;
}

TEST(Server, EmbedMatchesOfflineModelBitwise) {
  auto server = make_server();
  const NetTag offline(tiny_config(), 21);  // same seed → identical weights

  const Response resp = server->submit(embed_request(kAndNetlist));
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  Json result;
  std::string err;
  ASSERT_TRUE(Json::parse(resp.result_json, &result, &err)) << err;
  Mat nodes, cls;
  ASSERT_TRUE(serve::mat_from_json(*result.find("nodes"), &nodes));
  ASSERT_TRUE(serve::mat_from_json(*result.find("cls"), &cls));

  const NetTag::ConeEmbedding ref =
      offline.embed(netlist_from_string(kAndNetlist));
  ASSERT_EQ(nodes.v.size(), ref.nodes.v.size());
  for (std::size_t i = 0; i < ref.nodes.v.size(); ++i) {
    EXPECT_EQ(nodes.v[i], ref.nodes.v[i]) << "node lane " << i;
  }
  ASSERT_EQ(cls.v.size(), ref.cls.v.size());
  for (std::size_t i = 0; i < ref.cls.v.size(); ++i) {
    EXPECT_EQ(cls.v[i], ref.cls.v[i]) << "cls lane " << i;
  }
}

TEST(Server, CacheHitReplaysIdenticalBytesForIsomorphicInput) {
  auto server = make_server();
  const Response first = server->submit(embed_request(kAndNetlist));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cached);
  // Renamed isomorphic netlist: same canonical hash → byte-identical replay.
  const Response second = server->submit(embed_request(kAndRenamed));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(first.result_json, second.result_json);
  EXPECT_EQ(server->cache().stats().hits, 1u);
  EXPECT_EQ(server->cache().stats().misses, 1u);
}

TEST(Server, ReorderedIsomorphicNetlistRecomputesPerGateRows) {
  auto server = make_server();
  const NetTag offline(tiny_config(), 21);

  const Response first = server->submit(embed_request(kPairAB));
  ASSERT_TRUE(first.ok()) << first.error_message;
  EXPECT_FALSE(first.cached);

  // Same circuit with the two gates declared in the opposite order: a cached
  // replay would hand each gate the other's embedding row, so embed_gates
  // must miss and recompute against the submitted declaration order.
  const Response second = server->submit(embed_request(kPairBA));
  ASSERT_TRUE(second.ok()) << second.error_message;
  EXPECT_FALSE(second.cached);
  Json result;
  std::string err;
  ASSERT_TRUE(Json::parse(second.result_json, &result, &err)) << err;
  Mat nodes;
  ASSERT_TRUE(serve::mat_from_json(*result.find("nodes"), &nodes));
  const NetTag::ConeEmbedding ref =
      offline.embed(netlist_from_string(kPairBA));
  ASSERT_EQ(nodes.v.size(), ref.nodes.v.size());
  for (std::size_t i = 0; i < ref.nodes.v.size(); ++i) {
    EXPECT_EQ(nodes.v[i], ref.nodes.v[i]) << "node lane " << i;
  }

  // Pooled ops carry no per-gate rows, so they may still share across the
  // reordering (fingerprints agree via canonical label order).
  const Response c1 = server->submit(embed_request(kPairAB, Op::kEmbedCone));
  ASSERT_TRUE(c1.ok()) << c1.error_message;
  const Response c2 = server->submit(embed_request(kPairBA, Op::kEmbedCone));
  ASSERT_TRUE(c2.ok()) << c2.error_message;
  EXPECT_TRUE(c2.cached);
  EXPECT_EQ(c1.result_json, c2.result_json);
  EXPECT_EQ(server->cache().stats().collisions, 0u);
}

TEST(Server, ErrorTaxonomyNeverThrows) {
  ServerConfig sc;
  sc.max_gates = 3;
  sc.reject_warnings = true;
  auto server = make_server(sc);

  // bad_json / bad_request via the wire path.
  Json resp;
  std::string err;
  ASSERT_TRUE(Json::parse(server->handle_line("{{{"), &resp, &err)) << err;
  EXPECT_EQ(resp.find("error")->find("code")->as_string(), "bad_json");
  ASSERT_TRUE(
      Json::parse(server->handle_line("{\"op\":\"fly\"}"), &resp, &err));
  EXPECT_EQ(resp.find("error")->find("code")->as_string(), "bad_request");

  // bad_request on a *recognized* op with an invalid field: the request
  // must short-circuit before the netlist reader, cache, or model see it.
  ASSERT_TRUE(Json::parse(
      server->handle_line(
          R"({"op":"embed_gates","netlist":"m","k_hop":"3"})"),
      &resp, &err));
  EXPECT_EQ(resp.find("status")->as_string(), "error");
  EXPECT_EQ(resp.find("error")->find("code")->as_string(), "bad_request");
  EXPECT_EQ(server->cache().stats().misses, 0u);

  // parse_error: unknown cell type.
  const Response bad_cell = server->submit(embed_request(
      "module m source synthetic\nport a\ngate FOO g1 a out\nendmodule\n"));
  EXPECT_EQ(bad_cell.error, ErrorCode::kParseError);
  EXPECT_FALSE(bad_cell.error_message.empty());

  // too_large: 4 gates > max_gates=3.
  const Response big = server->submit(embed_request(
      "module m source synthetic\nport a\nport b\ngate AND2 g1 a b\n"
      "gate INV g2 g1 out\nendmodule\n"));
  EXPECT_EQ(big.error, ErrorCode::kTooLarge);

  // lint_rejected (strict mode): dead gate → NL004 floating-net warning.
  ServerConfig small;
  small.reject_warnings = true;
  auto strict = make_server(small);
  const Response dead = strict->submit(embed_request(
      "module m source synthetic\nport a\nport b\ngate AND2 used a b out\n"
      "gate OR2 dead a b\nendmodule\n"));
  EXPECT_EQ(dead.error, ErrorCode::kLintRejected);
  EXPECT_FALSE(dead.detail.empty());

  // unknown_task — and it must not occupy a cache entry.
  Request pr = embed_request(kAndNetlist, Op::kPredict);
  pr.task = "unregistered";
  EXPECT_EQ(strict->submit(std::move(pr)).error, ErrorCode::kUnknownTask);
  EXPECT_EQ(strict->cache().stats().misses, 0u);
}

/// A `gates`-node netlist (one port, then an INV chain ending in an output).
std::string inv_chain(std::size_t gates) {
  std::string text = "module chain source synthetic\nport n0\n";
  for (std::size_t i = 1; i < gates; ++i) {
    text += "gate INV n" + std::to_string(i) + " n" + std::to_string(i - 1) +
            (i + 1 == gates ? " out\n" : "\n");
  }
  return text + "endmodule\n";
}

TEST(Admission, DefaultMaxGatesBoundsWholeNetlists) {
  // One constant sets the bound for both the admission gate and the server.
  EXPECT_EQ(serve::AdmissionConfig{}.max_gates, serve::kDefaultMaxGates);
  EXPECT_EQ(ServerConfig{}.max_gates, serve::kDefaultMaxGates);
  EXPECT_EQ(serve::kDefaultMaxGates, 4096u);

  serve::ServeMetrics metrics;
  const serve::Admission admission(serve::AdmissionConfig{}, &metrics);
  const std::string at_cap_text = inv_chain(serve::kDefaultMaxGates);
  const std::string over_text = inv_chain(serve::kDefaultMaxGates + 1);
  Request at_cap = embed_request(at_cap_text.c_str());
  Netlist local;
  Response ok;
  const Netlist* admitted = admission.admit(at_cap, &local, &ok);
  ASSERT_NE(admitted, nullptr) << ok.error_message;
  EXPECT_EQ(admitted->size(), serve::kDefaultMaxGates);

  Request over = embed_request(over_text.c_str());
  Response rejected;
  EXPECT_EQ(admission.admit(over, &local, &rejected), nullptr);
  EXPECT_EQ(rejected.error, ErrorCode::kTooLarge);

  // The server's default config rejects it too, before any model work.
  auto server = make_server(ServerConfig{});
  EXPECT_EQ(server->submit(embed_request(over_text.c_str())).error,
            ErrorCode::kTooLarge);
}

TEST(Server, LenientModeAdmitsWarnings) {
  auto server = make_server();  // reject_warnings defaults to false
  const Response dead = server->submit(embed_request(
      "module m source synthetic\nport a\nport b\ngate AND2 used a b out\n"
      "gate OR2 dead a b\nendmodule\n"));
  EXPECT_TRUE(dead.ok()) << dead.error_message;
}

TEST(Server, PredictUsesRegisteredHead) {
  auto server = make_server();
  server->register_task("gate_count",
                        [](const NetTag&, const Netlist& nl) {
                          return std::vector<double>{
                              static_cast<double>(nl.size())};
                        });
  Request r = embed_request(kAndNetlist, Op::kPredict);
  r.task = "gate_count";
  const Response resp = server->submit(std::move(r));
  ASSERT_TRUE(resp.ok()) << resp.error_message;
  Json result;
  std::string err;
  ASSERT_TRUE(Json::parse(resp.result_json, &result, &err)) << err;
  EXPECT_EQ(result.find("task")->as_string(), "gate_count");
  ASSERT_EQ(result.find("scores")->items().size(), 1u);
  EXPECT_DOUBLE_EQ(result.find("scores")->items()[0].as_number(), 3.0);
}

TEST(Server, StatsExposeAllSections) {
  auto server = make_server();
  net::ShardPool pool(*server, 1, 8, 64);
  server->set_stats_extension([&pool](Json* j) { pool.append_stats(j); });
  submit_to(pool, embed_request(kAndNetlist)).get();
  submit_to(pool, embed_request(kAndRenamed)).get();  // cache hit
  submit_to(pool, serve::parse_request("{{{")).get();  // one error
  Request sr;
  sr.op = Op::kStats;
  const Response stats = submit_to(pool, std::move(sr)).get();
  server->set_stats_extension(nullptr);
  ASSERT_TRUE(stats.ok());
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(stats.result_json, &j, &err)) << err;
  for (const char* field :
       {"uptime_seconds", "requests_total", "requests_ok", "requests_error",
        "qps", "latency_ms", "stage_seconds", "text_cache", "shards"}) {
    EXPECT_NE(j.find(field), nullptr) << field;
  }
  for (const char* p : {"p50", "p90", "p99", "max"}) {
    EXPECT_NE(j.find("latency_ms")->find(p), nullptr) << p;
  }
  for (const char* s :
       {"parse", "lint", "tag_build", "text_encode", "tagformer"}) {
    EXPECT_NE(j.find("stage_seconds")->find(s), nullptr) << s;
  }
  ASSERT_EQ(j.find("shards")->items().size(), 1u);
  const Json* shard_cache = j.find("shards")->items()[0].find("result_cache");
  ASSERT_NE(shard_cache, nullptr);
  EXPECT_GT(shard_cache->find("hit_rate")->as_number(), 0.0);
  EXPECT_NE(shard_cache->find("collisions"), nullptr);
  EXPECT_GE(j.find("requests_error")->as_int(), 1);
  EXPECT_GT(j.find("stage_seconds")->find("tagformer")->as_number(), 0.0);
}

TEST(Server, ShutdownSetsFlagAndStillAnswers) {
  auto server = make_server();
  EXPECT_FALSE(server->shutdown_requested());
  const std::string line = server->handle_line("{\"op\":\"shutdown\"}");
  EXPECT_TRUE(server->shutdown_requested());
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(line, &j, &err)) << err;
  EXPECT_EQ(j.find("status")->as_string(), "ok");
}

// --- hot reload --------------------------------------------------------------

Request reload_request(const std::string& prefix = "") {
  Request r;
  r.op = Op::kReload;
  r.model_prefix = prefix;
  return r;
}

/// Saves a servable checkpoint for a tiny model built from `seed`.
std::string save_tiny_checkpoint(const std::string& prefix,
                                 std::uint64_t seed) {
  const NetTag model(tiny_config(), seed);
  save_checkpoint(model, prefix);
  return prefix;
}

void remove_tiny_checkpoint(const std::string& prefix) {
  for (const char* suffix : {".ckpt", ".exprllm.bin", ".tagformer.bin"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Server, ReloadSameWeightsKeepsCacheHits) {
  const std::string prefix = save_tiny_checkpoint("/tmp/nettag_reload_same", 21);
  ServerConfig sc;
  sc.model_prefix = prefix;
  TestServer server(sc, load_checkpoint(prefix));

  const Response first = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(first.ok()) << first.error_message;
  EXPECT_FALSE(first.cached);

  // Prefix-less reload falls back to the configured default, which holds the
  // same weights — every cache entry must stay live.
  const Response rl = server.submit(reload_request());
  ASSERT_TRUE(rl.ok()) << rl.error_message;
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(rl.result_json, &j, &err)) << err;
  EXPECT_FALSE(j.find("params_changed")->as_bool());
  EXPECT_EQ(server.reloads(), 1u);

  const Response second = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cached);
  EXPECT_EQ(second.result_json, first.result_json);
  remove_tiny_checkpoint(prefix);
}

TEST(Server, ReloadNewWeightsNeverReplaysStaleEntries) {
  const std::string old_prefix =
      save_tiny_checkpoint("/tmp/nettag_reload_old", 21);
  const std::string new_prefix =
      save_tiny_checkpoint("/tmp/nettag_reload_new", 3737);  // different weights
  ServerConfig sc;
  sc.model_prefix = old_prefix;
  TestServer server(sc, load_checkpoint(old_prefix));

  const Response before = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(before.ok());

  const Response rl = server.submit(reload_request(new_prefix));
  ASSERT_TRUE(rl.ok()) << rl.error_message;
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(rl.result_json, &j, &err)) << err;
  EXPECT_TRUE(j.find("params_changed")->as_bool());

  // Same netlist, new generation: must be recomputed (never the old bytes),
  // and then cached under the new weights.
  const Response after = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.cached);
  EXPECT_NE(after.result_json, before.result_json);
  const Response again = server.submit(embed_request(kAndNetlist));
  EXPECT_TRUE(again.cached);
  EXPECT_EQ(again.result_json, after.result_json);

  remove_tiny_checkpoint(old_prefix);
  remove_tiny_checkpoint(new_prefix);
}

TEST(Server, FailedReloadKeepsServingOldModel) {
  const std::string prefix = save_tiny_checkpoint("/tmp/nettag_reload_keep", 21);
  ServerConfig sc;
  sc.model_prefix = prefix;
  TestServer server(sc, load_checkpoint(prefix));
  const Response before = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(before.ok());

  const Response rl =
      server.submit(reload_request("/tmp/definitely_missing_nettag_ckpt"));
  EXPECT_EQ(rl.error, ErrorCode::kReloadFailed);
  EXPECT_EQ(server.reloads(), 0u);

  // The old generation (and its cache entries) keep answering.
  const Response after = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.cached);
  EXPECT_EQ(after.result_json, before.result_json);
  remove_tiny_checkpoint(prefix);
}

TEST(Server, ReloadWithoutAnyPrefixRejected) {
  auto server = make_server();  // no config.model_prefix
  const Response rl = server->submit(reload_request());
  EXPECT_EQ(rl.error, ErrorCode::kBadRequest);
}

TEST(Server, StatsReportReloadFields) {
  auto server = make_server();
  const Response stats = server->submit([] {
    Request r;
    r.op = Op::kStats;
    return r;
  }());
  ASSERT_TRUE(stats.ok());
  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(stats.result_json, &j, &err)) << err;
  ASSERT_NE(j.find("reloads"), nullptr);
  EXPECT_EQ(j.find("reloads")->as_int(), 0);
  ASSERT_NE(j.find("weights_crc32"), nullptr);
  EXPECT_EQ(j.find("weights_crc32")->as_string().size(), 8u);
}

// --- int8 quantized serving --------------------------------------------------

/// Parses the "cls" matrix out of an embed_gates result payload.
Mat cls_of(const Response& resp) {
  Json j;
  std::string err;
  EXPECT_TRUE(Json::parse(resp.result_json, &j, &err)) << err;
  Mat cls;
  EXPECT_TRUE(serve::mat_from_json(*j.find("cls"), &cls));
  return cls;
}

TEST(Server, QuantizedEmbedDriftsWithinBudgetAndIsNotFp32) {
  ServerConfig qc;
  qc.quantize = true;
  auto quant = make_server(qc);
  auto fp32 = make_server();  // same seed → identical fp32 weights

  const Response qr = quant->submit(embed_request(kAndNetlist));
  ASSERT_TRUE(qr.ok()) << qr.error_message;
  const Response fr = fp32->submit(embed_request(kAndNetlist));
  ASSERT_TRUE(fr.ok()) << fr.error_message;

  const Mat qcls = cls_of(qr);
  const Mat fcls = cls_of(fr);
  ASSERT_EQ(qcls.v.size(), fcls.v.size());
  // The int8 path must actually run (identical bytes would mean the packed
  // branch never fired) yet stay inside the documented drift budget
  // (docs/PERFORMANCE.md §5): relative L2 distance under 5% for the tiny
  // config's CLS embedding.
  EXPECT_NE(qr.result_json, fr.result_json);
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < fcls.v.size(); ++i) {
    const double d = static_cast<double>(qcls.v[i]) - fcls.v[i];
    num += d * d;
    den += static_cast<double>(fcls.v[i]) * fcls.v[i];
  }
  ASSERT_GT(den, 0.0);
  EXPECT_LT(std::sqrt(num / den), 0.05);
}

TEST(Server, StatsReportNumericBackendAndSimd) {
  auto fp32 = make_server();
  ServerConfig qc;
  qc.quantize = true;
  auto quant = make_server(qc);
  auto stats_of = [](TestServer& s) {
    Request r;
    r.op = Op::kStats;
    Json j;
    std::string err;
    EXPECT_TRUE(Json::parse(s.submit(std::move(r)).result_json, &j, &err))
        << err;
    return j;
  };
  const Json fs = stats_of(*fp32);
  ASSERT_NE(fs.find("backend"), nullptr);
  EXPECT_EQ(fs.find("backend")->as_string(), "fp32");
  ASSERT_NE(fs.find("simd"), nullptr);
  EXPECT_EQ(fs.find("simd")->as_string(), simd_backend_name());
  const Json qs = stats_of(*quant);
  EXPECT_EQ(qs.find("backend")->as_string(), "int8");
}

TEST(Server, QuantizedCacheIsConsistentPerBackend) {
  ServerConfig qc;
  qc.quantize = true;
  auto quant = make_server(qc);
  auto fp32 = make_server();

  // Each backend replays its own bytes on the isomorphic resubmission...
  const Response q1 = quant->submit(embed_request(kAndNetlist));
  const Response q2 = quant->submit(embed_request(kAndRenamed));
  ASSERT_TRUE(q1.ok() && q2.ok());
  EXPECT_FALSE(q1.cached);
  EXPECT_TRUE(q2.cached);
  EXPECT_EQ(q1.result_json, q2.result_json);
  // ...and those bytes are backend-specific (an int8 entry would be a wrong
  // answer under fp32 and vice versa — the cache key keeps them apart).
  const Response f1 = fp32->submit(embed_request(kAndNetlist));
  ASSERT_TRUE(f1.ok());
  EXPECT_NE(f1.result_json, q1.result_json);
}

TEST(Server, ReloadRepacksUnderQuantizedConfig) {
  const std::string prefix =
      save_tiny_checkpoint("/tmp/nettag_reload_quant", 21);
  ServerConfig sc;
  sc.model_prefix = prefix;
  sc.quantize = true;
  TestServer server(sc, load_checkpoint(prefix));

  const Response before = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(before.ok()) << before.error_message;
  const Response rl = server.submit([] {
    Request r;
    r.op = Op::kReload;
    return r;
  }());
  ASSERT_TRUE(rl.ok()) << rl.error_message;

  // Same weights + same backend → the cache entry stays live...
  const Response replay = server.submit(embed_request(kAndNetlist));
  ASSERT_TRUE(replay.ok());
  EXPECT_TRUE(replay.cached);
  EXPECT_EQ(replay.result_json, before.result_json);

  // ...and fresh work on the reloaded generation still runs int8: an
  // uncached netlist must differ from the fp32 offline reference (if reload
  // forgot to repack, the swapped-in model would serve exact fp32 bytes).
  const Response fresh = server.submit(embed_request(kOrNetlist));
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.cached);
  const NetTag offline(tiny_config(), 21);
  const NetTag::ConeEmbedding ref =
      offline.embed(netlist_from_string(kOrNetlist));
  const Mat fresh_cls = cls_of(fresh);
  bool differs = false;
  for (std::size_t i = 0; i < ref.cls.v.size() && !differs; ++i) {
    differs = fresh_cls.v[i] != ref.cls.v[i];
  }
  EXPECT_TRUE(differs);
  remove_tiny_checkpoint(prefix);
}

TEST(ServeJson, NumberRoundTripsDoublesExactly) {
  // 0.1 needs 17 significant digits as a double; a float-widened value
  // (0.25f) stays on the short %.9g path; integral stays integral.
  for (const double v : {0.1, 1.0 / 3.0, 6.02214076e23, 1e-300,
                         static_cast<double>(0.3f), 42.0}) {
    const std::string s = serve::json_number(v);
    EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
  }
  EXPECT_EQ(serve::json_number(0.5), "0.5");  // short spellings stay short
  EXPECT_EQ(serve::json_number(std::numeric_limits<double>::quiet_NaN()),
            "null");
  EXPECT_EQ(serve::json_number(std::numeric_limits<double>::infinity()),
            "null");
}

TEST(ServeJson, AsNumberSaturatesNonFinite) {
  EXPECT_EQ(Json(std::numeric_limits<double>::infinity()).as_number(),
            std::numeric_limits<double>::max());
  EXPECT_EQ(Json(-std::numeric_limits<double>::infinity()).as_number(),
            -std::numeric_limits<double>::max());
  EXPECT_EQ(Json(std::numeric_limits<double>::quiet_NaN()).as_number(7.0),
            7.0);
  // Overflowing literals parse to Inf via strtod and must not escape as Inf.
  Json doc;
  std::string err;
  ASSERT_TRUE(Json::parse(R"({"x":1e999})", &doc, &err)) << err;
  EXPECT_EQ(doc.find("x")->as_number(), std::numeric_limits<double>::max());
}

TEST(Protocol, ReloadRequestParsing) {
  const Request ok = serve::parse_request(
      R"({"op":"reload","model_prefix":"/tmp/ck"})");
  EXPECT_EQ(ok.op, Op::kReload);
  EXPECT_EQ(ok.parse_error, ErrorCode::kNone);
  EXPECT_EQ(ok.model_prefix, "/tmp/ck");

  const Request bare = serve::parse_request(R"({"op":"reload"})");
  EXPECT_EQ(bare.parse_error, ErrorCode::kNone);  // default prefix may apply
  EXPECT_TRUE(bare.model_prefix.empty());

  const Request empty = serve::parse_request(
      R"({"op":"reload","model_prefix":""})");
  EXPECT_EQ(empty.parse_error, ErrorCode::kBadRequest);
  const Request mistyped = serve::parse_request(
      R"({"op":"reload","model_prefix":7})");
  EXPECT_EQ(mistyped.parse_error, ErrorCode::kBadRequest);
}

// --- multi-replica registry (protocol v2) ------------------------------------

Request model_request(const char* text, const std::string& model,
                      Op op = Op::kEmbedGates) {
  Request r = embed_request(text, op);
  r.model = model;
  return r;
}

TEST(Protocol, ModelFieldSelectsReplicaAndDefaultsWhenAbsent) {
  const Request named = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","model":"alt"})");
  EXPECT_EQ(named.parse_error, ErrorCode::kNone);
  EXPECT_EQ(named.model, "alt");

  // v1 line: no "model" field leaves the member empty (the server maps that
  // to the "default" replica — nothing is rewritten at parse time).
  const Request v1 = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m"})");
  EXPECT_EQ(v1.parse_error, ErrorCode::kNone);
  EXPECT_TRUE(v1.model.empty());

  const Request empty = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","model":""})");
  EXPECT_EQ(empty.parse_error, ErrorCode::kBadRequest);
  const Request mistyped = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","model":7})");
  EXPECT_EQ(mistyped.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(mistyped.parse_message, "'model' must be a non-empty string");
}

TEST(Protocol, UnknownOrMisplacedFieldsNameTheOffender) {
  // A field the grammar has never heard of names itself in the error (a typo
  // like "khop" must not silently run — and cache — a default-parameter run).
  const Request unknown = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","khop":3})");
  EXPECT_EQ(unknown.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(unknown.parse_message, "unknown field 'khop' for op 'embed_gates'");

  // A known field on the wrong op is a distinct diagnostic.
  const Request misplaced =
      serve::parse_request(R"({"op":"ping","netlist":"m"})");
  EXPECT_EQ(misplaced.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(misplaced.parse_message,
            "field 'netlist' is not accepted by op 'ping'");

  // quantize belongs to model_load alone.
  const Request q = serve::parse_request(
      R"({"op":"embed_gates","netlist":"m","quantize":true})");
  EXPECT_EQ(q.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(q.parse_message,
            "field 'quantize' is not accepted by op 'embed_gates'");

  // "id" and "op" are exempt from the table on every op.
  const Request ok = serve::parse_request(R"({"id":"7","op":"ping"})");
  EXPECT_EQ(ok.parse_error, ErrorCode::kNone);
}

TEST(Protocol, AdminOpFieldRequirements) {
  const Request load = serve::parse_request(
      R"({"op":"model_load","model":"a","model_prefix":"/tmp/ck","quantize":true})");
  EXPECT_EQ(load.parse_error, ErrorCode::kNone);
  EXPECT_EQ(load.op, Op::kModelLoad);
  EXPECT_EQ(load.model, "a");
  EXPECT_EQ(load.model_prefix, "/tmp/ck");
  EXPECT_EQ(load.quantize, 1);

  // quantize is tri-state: absent stays -1 (inherit the server default).
  const Request inherit = serve::parse_request(
      R"({"op":"model_load","model":"a","model_prefix":"/tmp/ck"})");
  EXPECT_EQ(inherit.parse_error, ErrorCode::kNone);
  EXPECT_EQ(inherit.quantize, -1);
  const Request mistyped = serve::parse_request(
      R"({"op":"model_load","model":"a","model_prefix":"/tmp/ck","quantize":1})");
  EXPECT_EQ(mistyped.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(mistyped.parse_message, "'quantize' must be a boolean");

  const Request no_prefix =
      serve::parse_request(R"({"op":"model_load","model":"a"})");
  EXPECT_EQ(no_prefix.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(no_prefix.parse_message,
            "op 'model_load' requires field 'model_prefix'");
  const Request no_model =
      serve::parse_request(R"({"op":"model_unload"})");
  EXPECT_EQ(no_model.parse_error, ErrorCode::kBadRequest);
  EXPECT_EQ(no_model.parse_message, "op 'model_unload' requires field 'model'");

  const Request list = serve::parse_request(R"({"op":"model_list"})");
  EXPECT_EQ(list.parse_error, ErrorCode::kNone);
  EXPECT_EQ(list.op, Op::kModelList);
}

TEST(Server, TwoReplicasServeIndependently) {
  const std::string pa = save_tiny_checkpoint("/tmp/nettag_replica_a", 21);
  const std::string pb = save_tiny_checkpoint("/tmp/nettag_replica_b", 3737);
  TestServer server{ServerConfig{}};
  std::string err;
  ASSERT_TRUE(server.load_model("a", pa, -1, &err)) << err;
  ASSERT_TRUE(server.load_model("b", pb, -1, &err)) << err;
  EXPECT_EQ(server.registry().size(), 2u);
  EXPECT_NE(server.model_snapshot("a"), nullptr);
  EXPECT_EQ(server.model_snapshot("missing"), nullptr);

  // Distinct weights → distinct bytes, and neither run replays the other's
  // cache entry even though the netlist (and so the WL hash) is identical.
  const Response ra = server.submit(model_request(kAndNetlist, "a"));
  ASSERT_TRUE(ra.ok()) << ra.error_message;
  EXPECT_FALSE(ra.cached);
  const Response rb = server.submit(model_request(kAndNetlist, "b"));
  ASSERT_TRUE(rb.ok()) << rb.error_message;
  EXPECT_FALSE(rb.cached);
  EXPECT_NE(ra.result_json, rb.result_json);

  // Within one replica the isomorphic resubmission still replays.
  const Response ra2 = server.submit(model_request(kAndRenamed, "a"));
  ASSERT_TRUE(ra2.ok());
  EXPECT_TRUE(ra2.cached);
  EXPECT_EQ(ra2.result_json, ra.result_json);

  remove_tiny_checkpoint(pa);
  remove_tiny_checkpoint(pb);
}

TEST(Server, ReloadOneReplicaKeepsOtherReplicasCacheLive) {
  const std::string pa = save_tiny_checkpoint("/tmp/nettag_iso_a", 21);
  const std::string pa2 = save_tiny_checkpoint("/tmp/nettag_iso_a2", 5150);
  const std::string pb = save_tiny_checkpoint("/tmp/nettag_iso_b", 3737);
  TestServer server{ServerConfig{}};
  std::string err;
  ASSERT_TRUE(server.load_model("a", pa, -1, &err)) << err;
  ASSERT_TRUE(server.load_model("b", pb, -1, &err)) << err;

  const Response a1 = server.submit(model_request(kAndNetlist, "a"));
  const Response b1 = server.submit(model_request(kAndNetlist, "b"));
  ASSERT_TRUE(a1.ok() && b1.ok());

  // Hot-swap replica "a" to different weights over the wire.
  Request rl;
  rl.op = Op::kReload;
  rl.model = "a";
  rl.model_prefix = pa2;
  const Response rr = server.submit(std::move(rl));
  ASSERT_TRUE(rr.ok()) << rr.error_message;
  Json j;
  ASSERT_TRUE(Json::parse(rr.result_json, &j, &err)) << err;
  EXPECT_TRUE(j.find("params_changed")->as_bool());
  EXPECT_EQ(server.reloads(), 1u);

  // "b" was untouched: its cache entry replays byte-identically.
  const Response b2 = server.submit(model_request(kAndRenamed, "b"));
  ASSERT_TRUE(b2.ok());
  EXPECT_TRUE(b2.cached);
  EXPECT_EQ(b2.result_json, b1.result_json);

  // "a" serves the new generation: recomputed, different bytes.
  const Response a2 = server.submit(model_request(kAndNetlist, "a"));
  ASSERT_TRUE(a2.ok());
  EXPECT_FALSE(a2.cached);
  EXPECT_NE(a2.result_json, a1.result_json);

  remove_tiny_checkpoint(pa);
  remove_tiny_checkpoint(pa2);
  remove_tiny_checkpoint(pb);
}

TEST(Server, UnknownModelIsStructuredError) {
  auto server = make_server();  // only the "default" replica
  const Response r = server->submit(model_request(kAndNetlist, "nope"));
  EXPECT_EQ(r.error, ErrorCode::kUnknownModel);
  EXPECT_NE(r.error_message.find("nope"), std::string::npos);

  Json j;
  std::string err;
  ASSERT_TRUE(Json::parse(
      server->handle_line(
          R"({"op":"embed_gates","netlist":"module m source synthetic\n)"
          R"(port a\ngate INV g1 a out\nendmodule\n","model":"nope"})"),
      &j, &err))
      << err;
  EXPECT_EQ(j.find("error")->find("code")->as_string(), "unknown_model");
  // Reload of an unknown name takes the same taxonomy path.
  Request rl;
  rl.op = Op::kReload;
  rl.model = "nope";
  rl.model_prefix = "/tmp/whatever";
  EXPECT_EQ(server->submit(std::move(rl)).error, ErrorCode::kUnknownModel);
}

TEST(Server, ModelAdminLifecycleOverTheWire) {
  const std::string p = save_tiny_checkpoint("/tmp/nettag_admin_ck", 21);
  TestServer server{ServerConfig{}};
  Json j;
  std::string err;

  // Empty registry: listable, and netlist traffic answers unknown_model.
  ASSERT_TRUE(Json::parse(server.handle_line(R"({"op":"model_list"})"), &j,
                          &err))
      << err;
  EXPECT_EQ(j.find("result")->find("models")->items().size(), 0u);
  EXPECT_EQ(server.submit(model_request(kAndNetlist, "a")).error,
            ErrorCode::kUnknownModel);

  ASSERT_TRUE(Json::parse(
      server.handle_line(R"({"op":"model_load","model":"a","model_prefix":")" +
                         p + R"("})"),
      &j, &err))
      << err;
  ASSERT_EQ(j.find("status")->as_string(), "ok") << j.dump();
  EXPECT_TRUE(j.find("result")->find("loaded")->as_bool());
  EXPECT_FALSE(j.find("result")->find("replaced")->as_bool());
  EXPECT_EQ(j.find("result")->find("backend")->as_string(), "fp32");
  EXPECT_TRUE(server.submit(model_request(kAndNetlist, "a")).ok());

  // Loading the same name again replaces in place.
  ASSERT_TRUE(Json::parse(
      server.handle_line(R"({"op":"model_load","model":"a","model_prefix":")" +
                         p + R"("})"),
      &j, &err))
      << err;
  EXPECT_TRUE(j.find("result")->find("replaced")->as_bool());

  ASSERT_TRUE(Json::parse(server.handle_line(R"({"op":"model_list"})"), &j,
                          &err))
      << err;
  const auto& rows = j.find("result")->find("models")->items();
  ASSERT_EQ(rows.size(), 1u);
  EXPECT_EQ(rows[0].find("name")->as_string(), "a");
  EXPECT_EQ(rows[0].find("prefix")->as_string(), p);

  ASSERT_TRUE(Json::parse(
      server.handle_line(R"({"op":"model_unload","model":"a"})"), &j, &err))
      << err;
  EXPECT_TRUE(j.find("result")->find("unloaded")->as_bool());
  // Gone: unload again and serve both answer unknown_model.
  ASSERT_TRUE(Json::parse(
      server.handle_line(R"({"op":"model_unload","model":"a"})"), &j, &err))
      << err;
  EXPECT_EQ(j.find("error")->find("code")->as_string(), "unknown_model");
  EXPECT_EQ(server.submit(model_request(kAndNetlist, "a")).error,
            ErrorCode::kUnknownModel);
  // A bad checkpoint path fails closed without registering anything.
  ASSERT_TRUE(Json::parse(
      server.handle_line(
          R"({"op":"model_load","model":"x","model_prefix":"/tmp/no_such_ck"})"),
      &j, &err))
      << err;
  EXPECT_EQ(j.find("status")->as_string(), "error");
  EXPECT_EQ(server.registry().size(), 0u);
  remove_tiny_checkpoint(p);
}

TEST(Server, ModelUnloadDrainsQueuedRequestsWithUnknownModel) {
  const std::string p = save_tiny_checkpoint("/tmp/nettag_unload_ck", 21);
  TestServer server{ServerConfig{}};
  std::string err;
  ASSERT_TRUE(server.load_model("a", p, -1, &err)) << err;

  // Queue traffic for "a" behind a paused shard, then unload the replica
  // out from under it. The queued requests must drain as unknown_model —
  // never crash into a dangling model pointer.
  net::ShardPool pool(server, 1, 8, 64);
  pool.pause();
  std::vector<std::future<Response>> queued;
  for (int i = 0; i < 4; ++i) {
    queued.push_back(submit_to(pool, model_request(kAndNetlist, "a")));
  }
  ASSERT_TRUE(server.unload_model("a"));
  pool.resume();
  for (auto& f : queued) {
    const Response r = f.get();
    EXPECT_EQ(r.error, ErrorCode::kUnknownModel);
    EXPECT_EQ(r.error_message, "no model loaded under 'a'");
  }
  // The server stays healthy afterwards.
  Request ping;
  ping.op = Op::kPing;
  EXPECT_TRUE(server.submit(std::move(ping)).ok());
  remove_tiny_checkpoint(p);
}

TEST(Server, PerReplicaQuantizeBackendsCoexist) {
  const std::string p = save_tiny_checkpoint("/tmp/nettag_quant_pair", 21);
  TestServer server{ServerConfig{}};  // process default: fp32
  std::string err;
  ASSERT_TRUE(server.load_model("f", p, 0, &err)) << err;
  ASSERT_TRUE(server.load_model("q", p, 1, &err)) << err;

  const Response fr = server.submit(model_request(kAndNetlist, "f"));
  const Response qr = server.submit(model_request(kAndNetlist, "q"));
  ASSERT_TRUE(fr.ok() && qr.ok());
  // Same checkpoint, different numeric backends → different bytes, and the
  // fp32 replica is bit-exact against the offline reference.
  EXPECT_NE(fr.result_json, qr.result_json);
  const NetTag offline(tiny_config(), 21);
  const NetTag::ConeEmbedding ref =
      offline.embed(netlist_from_string(kAndNetlist));
  const Mat fcls = cls_of(fr);
  ASSERT_EQ(fcls.v.size(), ref.cls.v.size());
  for (std::size_t i = 0; i < ref.cls.v.size(); ++i) {
    EXPECT_EQ(fcls.v[i], ref.cls.v[i]) << "cls lane " << i;
  }
  for (const serve::ReplicaInfo& info : server.registry().list()) {
    EXPECT_EQ(info.quantize, info.name == "q") << info.name;
  }
  remove_tiny_checkpoint(p);
}

TEST(Server, V1LinesReplayByteIdenticalOnMultiModelServer) {
  const std::string alt = save_tiny_checkpoint("/tmp/nettag_v1_alt", 3737);
  auto v1 = make_server();  // plain single-model server, seed 21
  auto v2 = make_server();  // same default replica...
  std::string err;
  ASSERT_TRUE(v2->load_model("alt", alt, -1, &err)) << err;  // ...plus one

  // A deterministic v1 session: ok paths, a cached replay, and every parse /
  // admin error shape. None of the lines mention "model".
  const std::vector<std::string> lines = {
      R"({"id":"1","op":"embed_gates","netlist":"module m source synthetic\n)"
      R"(port a\nport b\ngate AND2 g1 a b out\nendmodule\n"})",
      R"({"id":"2","op":"embed_cone","netlist":"module m source synthetic\n)"
      R"(port a\nport b\ngate AND2 g1 a b out\nendmodule\n","k_hop":2})",
      R"({"id":"3","op":"embed_gates","netlist":"module other source )"
      R"(synthetic\nport x\nport y\ngate AND2 zz x y out\nendmodule\n"})",
      R"({"id":"4","op":"ping"})",
      R"({"id":"5","op":"reload"})",  // no default prefix configured → error
      R"({"id":"6","op":"embed_gates"})",
      R"({"id":"7","op":"fly"})",
      "{{{",
  };
  for (const std::string& line : lines) {
    // Perturb the v2 server with traffic on the extra replica between every
    // v1 line: it must never leak into the default replica's responses.
    ASSERT_TRUE(v2->submit(model_request(kOrNetlist, "alt")).ok());
    EXPECT_EQ(v1->handle_line(line), v2->handle_line(line)) << line;
  }
}

TEST(Server, StatsReportPerReplicaSectionAndDefaults) {
  const std::string pa = save_tiny_checkpoint("/tmp/nettag_stats_a", 21);
  const std::string pb = save_tiny_checkpoint("/tmp/nettag_stats_b", 3737);
  TestServer server{ServerConfig{}};
  std::string err;
  ASSERT_TRUE(server.load_model("a", pa, -1, &err)) << err;
  ASSERT_TRUE(server.load_model("b", pb, -1, &err)) << err;
  ASSERT_TRUE(server.submit(model_request(kAndNetlist, "a")).ok());
  ASSERT_TRUE(server.submit(model_request(kAndRenamed, "a")).ok());  // hit

  Json j;
  ASSERT_TRUE(Json::parse(server.stats_json(), &j, &err)) << err;
  const Json* models = j.find("models");
  ASSERT_NE(models, nullptr);
  ASSERT_EQ(models->items().size(), 2u);
  const Json& a = models->items()[0];  // registry rows sort by name
  EXPECT_EQ(a.find("name")->as_string(), "a");
  EXPECT_EQ(a.find("requests")->as_int(), 2);
  EXPECT_EQ(a.find("cache_hits")->as_int(), 1);
  EXPECT_EQ(a.find("cache_misses")->as_int(), 1);
  EXPECT_EQ(a.find("backend")->as_string(), "fp32");
  EXPECT_EQ(a.find("weights_crc32")->as_string().size(), 8u);
  const Json& b = models->items()[1];
  EXPECT_EQ(b.find("name")->as_string(), "b");
  EXPECT_EQ(b.find("requests")->as_int(), 0);

  // Effective request defaults are echoed (the deduped max_cone_gates bound
  // among them), and the v1 top-level weight fields only describe a replica
  // actually named "default" — absent here.
  const Json* defaults = j.find("defaults");
  ASSERT_NE(defaults, nullptr);
  EXPECT_EQ(defaults->find("max_cone_gates")->as_int(),
            static_cast<std::int64_t>(serve::kDefaultMaxConeGates));
  EXPECT_EQ(defaults->find("max_gates")->as_int(),
            static_cast<std::int64_t>(serve::kDefaultMaxGates));
  EXPECT_EQ(defaults->find("quantize")->as_bool(), false);
  EXPECT_EQ(j.find("weights_crc32"), nullptr);
  EXPECT_EQ(j.find("backend"), nullptr);

  remove_tiny_checkpoint(pa);
  remove_tiny_checkpoint(pb);
}

}  // namespace
}  // namespace nettag
