// Tests for the src/net daemon subsystem: --listen address parsing, NDJSON
// framing, WL-hash shard routing with too_busy load shedding, the socket
// daemon end-to-end over unix and TCP transports, graceful drain with
// in-flight work, and the SIGTERM-drains-before-exit contract of the serve
// path.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/nettag.hpp"
#include "net/client.hpp"
#include "net/daemon.hpp"
#include "net/framing.hpp"
#include "net/shard.hpp"
#include "netlist/io.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/cli.hpp"
#include "util/signal.hpp"

namespace nettag {
namespace {

using net::Client;
using net::Daemon;
using net::DaemonConfig;
using net::LineBuffer;
using net::ShardPool;
using serve::ErrorCode;
using serve::Json;
using serve::Op;
using serve::Request;
using serve::Response;
using serve::Server;
using serve::ServerConfig;

// --- util/cli listen-address parsing ---------------------------------------

TEST(ListenAddress, AcceptsUnixAndTcpSpecs) {
  cli::ListenAddress a;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address("unix:/tmp/nettag.sock", &a, &err))
      << err;
  EXPECT_EQ(a.kind, cli::ListenAddress::Kind::kUnix);
  EXPECT_EQ(a.path, "/tmp/nettag.sock");
  EXPECT_EQ(a.spec(), "unix:/tmp/nettag.sock");

  ASSERT_TRUE(cli::parse_listen_address("127.0.0.1:8080", &a, &err)) << err;
  EXPECT_EQ(a.kind, cli::ListenAddress::Kind::kTcp);
  EXPECT_EQ(a.host, "127.0.0.1");
  EXPECT_EQ(a.port, 8080);

  // Port 0 is valid: bind ephemeral, read the real port back.
  ASSERT_TRUE(cli::parse_listen_address("localhost:0", &a, &err)) << err;
  EXPECT_EQ(a.port, 0);
}

TEST(ListenAddress, RejectsMalformedSpecs) {
  const char* bad[] = {
      "",            // empty
      "unix:",       // empty path
      "noport",      // no colon
      ":123",        // empty host
      "host:",       // empty port
      "host:abc",    // non-numeric port
      "host:70000",  // port out of range
      "host:-1",     // negative port
      "a:b:c",       // two colons without unix: prefix
      "[::1]:80",    // IPv6 not supported
  };
  for (const char* spec : bad) {
    cli::ListenAddress a;
    std::string err;
    EXPECT_FALSE(cli::parse_listen_address(spec, &a, &err))
        << "accepted: " << spec;
    EXPECT_FALSE(err.empty()) << spec;
  }
}

// --- net/framing ------------------------------------------------------------

TEST(LineBuffer, ReassemblesFragmentedLines) {
  LineBuffer buf(1024);
  std::string line;
  ASSERT_TRUE(buf.feed("{\"op\":\"pi", 9));
  EXPECT_FALSE(buf.next_line(&line));
  ASSERT_TRUE(buf.feed("ng\"}\n{\"op\":\"stats\"}\n{", 21));
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"ping\"}");
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "{\"op\":\"stats\"}");
  EXPECT_FALSE(buf.next_line(&line));
  EXPECT_EQ(buf.pending_bytes(), 1u);
}

TEST(LineBuffer, StripsCarriageReturn) {
  LineBuffer buf(64);
  std::string line;
  ASSERT_TRUE(buf.feed("hello\r\n", 7));
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, "hello");
}

TEST(LineBuffer, OversizedUnterminatedLinePoisonsBuffer) {
  LineBuffer buf(16);
  const std::string big(17, 'x');  // no newline in sight
  EXPECT_FALSE(buf.feed(big.data(), big.size()));
  EXPECT_TRUE(buf.overflowed());
  // Poisoned: further bytes are dropped.
  EXPECT_FALSE(buf.feed("a\n", 2));
  std::string line;
  EXPECT_FALSE(buf.next_line(&line));
}

TEST(LineBuffer, OversizedLineFedInChunksStillPoisons) {
  // The daemon drains lines after every read: feed() and next_line()
  // alternate. The bound must apply to the whole accumulated unterminated
  // line, not just the bytes each feed appends.
  LineBuffer buf(16);
  std::string line;
  bool overflowed = false;
  for (int i = 0; i < 8 && !overflowed; ++i) {
    overflowed = !buf.feed("xxxxxxxx", 8);  // 8-byte chunks, never a newline
    if (!overflowed) EXPECT_FALSE(buf.next_line(&line));
  }
  EXPECT_TRUE(overflowed);
  EXPECT_TRUE(buf.overflowed());
  EXPECT_FALSE(buf.feed("a\n", 2));  // poisoned: further bytes are dropped
  EXPECT_FALSE(buf.next_line(&line));
}

TEST(LineBuffer, CompleteLineWithinBoundSurvivesIncrementalFeeds) {
  LineBuffer buf(16);
  std::string line;
  for (int i = 0; i < 16; ++i) ASSERT_TRUE(buf.feed("x", 1));
  ASSERT_TRUE(buf.feed("\n", 1));  // newline lands exactly at the bound
  ASSERT_TRUE(buf.next_line(&line));
  EXPECT_EQ(line, std::string(16, 'x'));
}

// --- shard routing + shedding ----------------------------------------------

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

NetTagConfig tiny_config() {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.tag_d_model = 32;
  cfg.out_dim = 24;
  return cfg;
}

std::unique_ptr<Server> make_server(ServerConfig sc = {},
                                    std::uint64_t seed = 21) {
  return std::make_unique<Server>(
      sc, std::make_unique<NetTag>(tiny_config(), seed));
}

Request embed_request(const char* text, Op op = Op::kEmbedGates) {
  Request r;
  r.op = op;
  r.netlist_text = text;
  r.pre_parsed = std::make_shared<Netlist>(netlist_from_string(text));
  return r;
}

TEST(ShardPool, RoutesIsomorphicRequestsToSameShard) {
  auto server = make_server();
  ShardPool pool(*server, 8, 4, 64);
  const std::size_t a = pool.route(embed_request(kAndNetlist));
  const std::size_t renamed = pool.route(embed_request(kAndRenamed));
  EXPECT_EQ(a, renamed);  // WL hash ignores names → cache affinity
  // Repeated routing of the identical request is deterministic.
  EXPECT_EQ(pool.route(embed_request(kAndNetlist)), a);
}

TEST(ShardPool, SaturatedQueueShedsWithTooBusy) {
  auto server = make_server();
  const std::size_t kDepth = 2;
  ShardPool pool(*server, 1, kDepth, 64);
  pool.pause();  // workers hold; queue fills deterministically

  std::vector<std::future<Response>> accepted;
  auto submit = [&](const char* text) {
    auto promise = std::make_shared<std::promise<Response>>();
    auto future = promise->get_future();
    Request r = embed_request(text);
    pool.submit(std::move(r),
                [promise](Response resp) { promise->set_value(std::move(resp)); });
    return future;
  };
  for (std::size_t i = 0; i < kDepth; ++i) {
    accepted.push_back(submit(kAndNetlist));
  }
  // Queue is now full: the next netlist op must shed, inline.
  auto shed = submit(kOrNetlist);
  ASSERT_EQ(shed.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  const Response busy = shed.get();
  EXPECT_EQ(busy.error, ErrorCode::kTooBusy);
  EXPECT_FALSE(busy.error_message.empty());

  // Control ops are never shed, even at a full queue.
  Request stats;
  stats.op = Op::kStats;
  auto stats_promise = std::make_shared<std::promise<Response>>();
  auto stats_future = stats_promise->get_future();
  pool.submit(std::move(stats), [stats_promise](Response resp) {
    stats_promise->set_value(std::move(resp));
  });
  EXPECT_NE(stats_future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);  // queued, not shed

  const auto counters = pool.stats();
  ASSERT_EQ(counters.size(), 1u);
  EXPECT_EQ(counters[0].shed, 1u);
  EXPECT_EQ(counters[0].submitted, kDepth + 2);
  // The depth histogram's last bucket holds the full-queue observation.
  EXPECT_GE(counters[0].queue_depth_histogram.back(), 1u);

  pool.resume();
  for (auto& f : accepted) {
    const Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error_message;
  }
  EXPECT_TRUE(stats_future.get().ok());
  pool.drain();
  EXPECT_EQ(pool.pending(), 0u);
}

TEST(ShardPool, RouteComposesReplicaNameIntoTheHash) {
  auto server = make_server();
  ShardPool pool(*server, 8, 4, 64);

  // Per replica the v1 properties hold: deterministic, name-invariant.
  Request alpha = embed_request(kAndNetlist);
  alpha.model = "alpha";
  const std::size_t alpha_shard = pool.route(alpha);
  EXPECT_EQ(pool.route(alpha), alpha_shard);
  Request alpha_renamed = embed_request(kAndRenamed);
  alpha_renamed.model = "alpha";
  EXPECT_EQ(pool.route(alpha_renamed), alpha_shard);

  // An absent model field routes exactly like the explicit default name, so
  // v1 and spelled-out-v2 clients land on the same shard cache.
  Request bare = embed_request(kAndNetlist);
  Request spelled = embed_request(kAndNetlist);
  spelled.model = "default";
  EXPECT_EQ(pool.route(bare), pool.route(spelled));

  // The replica name participates in placement: one netlist fanned across
  // many replicas spreads over shards instead of hot-spotting one.
  std::vector<std::size_t> shards;
  for (const char* name : {"alpha", "beta", "gamma", "delta", "epsilon",
                           "zeta", "eta", "theta"}) {
    Request r = embed_request(kAndNetlist);
    r.model = name;
    shards.push_back(pool.route(r));
  }
  bool spread = false;
  for (const std::size_t s : shards) spread = spread || s != shards[0];
  EXPECT_TRUE(spread);
}

// --- daemon end-to-end ------------------------------------------------------

std::string unique_sock_path(const char* tag) {
  return "/tmp/nettag_test_" + std::string(tag) + "_" +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

/// Daemon + server + background run() thread, torn down via the stop flag.
struct DaemonFixture {
  std::unique_ptr<Server> server;
  std::unique_ptr<Daemon> daemon;
  std::atomic<bool> stop{false};
  std::thread runner;
  int run_result = -1;

  explicit DaemonFixture(DaemonConfig cfg, ServerConfig sc = {}) {
    server = make_server(sc);
    daemon = std::make_unique<Daemon>(*server, cfg);
    std::string error;
    if (!daemon->start(&error)) {
      ADD_FAILURE() << "daemon.start: " << error;
      return;
    }
    runner = std::thread([this] { run_result = daemon->run(&stop); });
  }

  ~DaemonFixture() {
    if (runner.joinable()) {
      stop.store(true);
      runner.join();
    }
  }
};

std::string request_line(const std::string& id, const char* op,
                         const char* netlist) {
  Json j = Json::object();
  j.set("id", id);
  j.set("op", op);
  if (netlist) j.set("netlist", netlist);
  return j.dump();
}

TEST(Daemon, ServesConcurrentClientsOverUnixSocket) {
  const std::string path = unique_sock_path("unix");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 2;
  cfg.queue_depth = 16;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  std::string response;
  ASSERT_TRUE(client.request(request_line("p1", "ping", nullptr), &response,
                             &err))
      << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << err << ": " << response;
  EXPECT_EQ(j.find("id")->as_string(), "p1");
  EXPECT_EQ(j.find("status")->as_string(), "ok");

  // First embed computes; the renamed isomorphic resubmission must land on
  // the same shard and replay from that shard's cache partition.
  ASSERT_TRUE(client.request(request_line("e1", "embed_gates", kAndNetlist),
                             &response, &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  ASSERT_EQ(j.find("status")->as_string(), "ok") << response;
  EXPECT_FALSE(j.find("cached")->as_bool());
  ASSERT_TRUE(client.request(request_line("e2", "embed_gates", kAndRenamed),
                             &response, &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  ASSERT_EQ(j.find("status")->as_string(), "ok") << response;
  EXPECT_TRUE(j.find("cached")->as_bool()) << response;

  // A second concurrent client works the same daemon.
  Client other;
  ASSERT_TRUE(other.connect("unix:" + path, &err)) << err;
  ASSERT_TRUE(other.request(request_line("o1", "embed_gates", kOrNetlist),
                            &response, &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "ok") << response;

  // Stats carries the transport and shard sections the daemon registered.
  ASSERT_TRUE(client.request(request_line("s1", "stats", nullptr), &response,
                             &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  const Json* result = j.find("result");
  ASSERT_NE(result, nullptr) << response;
  const Json* transport = result->find("transport");
  ASSERT_NE(transport, nullptr) << response;
  EXPECT_GE(transport->find("accepts")->as_int(), 2);
  EXPECT_GE(transport->find("responses_out")->as_int(), 4);
  const Json* shards = result->find("shards");
  ASSERT_NE(shards, nullptr) << response;
  EXPECT_EQ(shards->items().size(), 2u);

  // Malformed line → structured error response, connection stays usable.
  ASSERT_TRUE(client.request("this is not json", &response, &err)) << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "error");
  ASSERT_TRUE(client.request(request_line("p2", "ping", nullptr), &response,
                             &err))
      << err;
}

TEST(Daemon, BindsEphemeralTcpPortAndServes) {
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address("127.0.0.1:0", &cfg.listen, &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());
  ASSERT_GT(fx.daemon->tcp_port(), 0);

  Client client;
  ASSERT_TRUE(client.connect(
      "127.0.0.1:" + std::to_string(fx.daemon->tcp_port()), &err))
      << err;
  std::string response;
  ASSERT_TRUE(client.request(request_line("t1", "ping", nullptr), &response,
                             &err))
      << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "ok");
}

TEST(Daemon, SlowReaderExceedingWriteBufferBoundIsClosed) {
  const std::string path = unique_sock_path("slowreader");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  cfg.max_wbuf_bytes = 1;  // any rendered response trips the bound
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  ASSERT_TRUE(client.send_line(request_line("w1", "ping", nullptr), &err))
      << err;
  // The over-bound response is still flushed before the close...
  std::string response;
  ASSERT_TRUE(client.read_line(&response, &err)) << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("id")->as_string(), "w1");
  // ...then the daemon closes the connection rather than buffering further
  // output for a client that is not keeping up.
  EXPECT_FALSE(client.read_line(&response, &err));
  EXPECT_EQ(fx.daemon->transport_stats().slow_reader_closed, 1u);
}

TEST(Daemon, ShutdownRequestDrainsAndStopsRunLoop) {
  const std::string path = unique_sock_path("shutdown");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  std::string response;
  // The shutdown op's own response is part of the drain contract.
  ASSERT_TRUE(client.request(request_line("q1", "shutdown", nullptr),
                             &response, &err))
      << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("status")->as_string(), "ok");
  fx.runner.join();
  EXPECT_EQ(fx.run_result, 0);
}

TEST(Daemon, StopFlagDrainsInFlightRequestsBeforeExit) {
  const std::string path = unique_sock_path("drain");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.queue_depth = 8;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());

  // Hold the shard worker so the request is verifiably in-flight when the
  // stop flag (the SIGTERM path) lands.
  fx.daemon->shard_pool()->pause();
  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  ASSERT_TRUE(client.send_line(request_line("d1", "embed_gates", kAndNetlist),
                               &err))
      << err;
  // Wait until the daemon has read and queued the request.
  for (int i = 0; i < 200 && fx.daemon->shard_pool()->pending() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(fx.daemon->shard_pool()->pending(), 0u);

  fx.stop.store(true);  // SIGTERM equivalent: drain, don't drop
  fx.daemon->shard_pool()->resume();

  std::string response;
  ASSERT_TRUE(client.read_line(&response, &err)) << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("id")->as_string(), "d1");
  EXPECT_EQ(j.find("status")->as_string(), "ok") << response;

  fx.runner.join();
  EXPECT_EQ(fx.run_result, 0);
}

TEST(Daemon, DestructionAfterDrainTimeoutWithQueuedWorkIsSafe) {
  const std::string path = unique_sock_path("dtor");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  cfg.drain_timeout_ms = 100;  // give up on the paused shard quickly
  auto fx = std::make_unique<DaemonFixture>(cfg);
  ASSERT_TRUE(fx->runner.joinable());
  fx->daemon->shard_pool()->pause();  // the queued request never completes

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  ASSERT_TRUE(client.send_line(request_line("d1", "embed_gates", kAndNetlist),
                               &err))
      << err;
  for (int i = 0; i < 200 && fx->daemon->shard_pool()->pending() == 0; ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_GT(fx->daemon->shard_pool()->pending(), 0u);

  fx->stop.store(true);
  fx->runner.join();  // drain times out with the request still queued
  // Destroying the daemon now tears the shard pool down first; pool teardown
  // answers the leftover request through the completion queue, which must
  // still be alive (TSan/ASan guard the member destruction order here).
  fx.reset();
}

TEST(Daemon, ThrowingTaskHeadAnswersInternalAndKeepsServing) {
  const std::string path = unique_sock_path("throw");
  DaemonConfig cfg;
  std::string err;
  ASSERT_TRUE(cli::parse_listen_address(("unix:" + path).c_str(), &cfg.listen,
                                        &err))
      << err;
  cfg.shards = 1;
  cfg.poll_interval_ms = 20;
  DaemonFixture fx(cfg);
  ASSERT_TRUE(fx.runner.joinable());
  fx.server->register_task("boom", [](const NetTag&, const Netlist&)
                                       -> std::vector<double> {
    throw std::runtime_error("head exploded");
  });

  Client client;
  ASSERT_TRUE(client.connect("unix:" + path, &err)) << err;
  Json predict = Json::object();
  predict.set("id", "x1");
  predict.set("op", "predict");
  predict.set("task", "boom");
  predict.set("netlist", kAndNetlist);
  std::string response;
  ASSERT_TRUE(client.request(predict.dump(), &response, &err)) << err;
  Json j;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("id")->as_string(), "x1");
  EXPECT_EQ(j.find("status")->as_string(), "error");
  EXPECT_EQ(j.find("error")->find("code")->as_string(), "internal");
  EXPECT_EQ(j.find("error")->find("message")->as_string(), "head exploded");

  // The shard worker survived: the next request is served normally.
  ASSERT_TRUE(client.request(request_line("x2", "embed_gates", kAndNetlist),
                             &response, &err))
      << err;
  ASSERT_TRUE(Json::parse(response, &j, &err)) << response;
  EXPECT_EQ(j.find("id")->as_string(), "x2");
  EXPECT_EQ(j.find("status")->as_string(), "ok") << response;
}

// --- SIGTERM during in-flight requests (serve path regression) ---------------

TEST(StopSignals, SigtermDuringInFlightBatchStillYieldsWellFormedResponses) {
  const std::atomic<bool>* stop = install_stop_signals();
  stop_signal_flag()->store(false);

  auto server = make_server();
  ShardPool pool(*server, 1, 8, 64);
  pool.pause();  // requests queue; the shard works them off on resume
  auto submit = [&pool](const char* id, const char* netlist) {
    auto done = std::make_shared<std::promise<Response>>();
    std::future<Response> future = done->get_future();
    pool.submit(serve::parse_request(request_line(id, "embed_gates", netlist)),
                [done](Response resp) { done->set_value(std::move(resp)); });
    return future;
  };
  std::vector<std::future<Response>> futures;
  futures.push_back(submit("b1", kAndNetlist));
  futures.push_back(submit("b2", kOrNetlist));

  // SIGTERM lands while both requests are in flight. The handler only sets
  // the flag — processing must complete and produce well-formed responses.
  std::raise(SIGTERM);
  EXPECT_TRUE(stop->load());
  pool.resume();

  for (auto& f : futures) {
    const Response r = f.get();
    EXPECT_TRUE(r.ok()) << r.error_message;
    Json j;
    std::string err;
    ASSERT_TRUE(Json::parse(serve::render_response(r), &j, &err)) << err;
    EXPECT_EQ(j.find("status")->as_string(), "ok");
  }
  stop_signal_flag()->store(false);  // don't leak the stop into other tests
}

TEST(StopSignals, InterruptingVariantSharesTheSameFlag) {
  const std::atomic<bool>* stop = install_stop_signals_interrupting();
  stop_signal_flag()->store(false);
  std::raise(SIGINT);
  EXPECT_TRUE(stop->load());
  stop_signal_flag()->store(false);
  // Restore the restarting handlers for any later test using them.
  install_stop_signals();
}

}  // namespace
}  // namespace nettag
