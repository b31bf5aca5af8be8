// perfbench_tool: the C++ half of the repository benchmark (README.md in this
// directory). run.py orchestrates; this binary does the work that must run
// at native speed or needs the library's own types:
//
//   perfbench_tool host
//       host fingerprint (SIMD backend, compiler, build type, pool width)
//   perfbench_tool gen --workload W --seed S --out DIR [workload knobs]
//       the request bodies of a serve workload (NDJSON without the "id"
//       field, which `drive` stamps per send) plus a TSV of per-line
//       metadata (op, gates, family, pool entry, variant)
//   perfbench_tool ref --model PREFIX --lines FILE --indices LIST --out FILE
//       in-process NetTag::embed / embed_circuit results for sampled lines,
//       rendered exactly as the daemon renders its result object
//   perfbench_tool drive --connect unix:PATH --lines FILE --schedule FILE
//                        --mode open|closed --conns K --seconds T --out FILE
//                        [--dump LIST --dump-out FILE]
//       drives a running daemon; one TSV record per request
//   perfbench_tool corpus --out DIR --seed S
//       build_corpus_stream of the train_stream corpus, timed
//   perfbench_tool train --corpus DIR --seed S --seconds T
//       repeated pretrain_streaming calls at this process's pool width
//   perfbench_tool trace-serve --model PREFIX --lines FILE --warmup FILE
//                              --indices LIST --spans FILE
//       untraced and traced in-process replays of serve requests
//   perfbench_tool trace-train --corpus DIR --seed S --spans FILE
//       spans around generator, flow and shard-load calls
//   perfbench_tool selftest
//       the benchmark's own C++ checks (renamed resubmissions keep their
//       structural hash; generation is seed-deterministic)
//
// Every subcommand prints its result as one JSON object on stdout and exits
// non-zero on any failure.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "analysis/lint.hpp"
#include "core/corpus_stream.hpp"
#include "core/nettag.hpp"
#include "core/pretrain.hpp"
#include "core/tag.hpp"
#include "netlist/cone.hpp"
#include "netlist/io.hpp"
#include "nn/gemm.hpp"
#include "physical/flow.hpp"
#include "rtlgen/generator.hpp"
#include "rtlgen/hierarchy.hpp"
#include "serve/canonical.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

using namespace nettag;

namespace {

using Clock = std::chrono::steady_clock;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "perfbench_tool: %s\n", msg.c_str());
  std::exit(1);
}

// ---------------------------------------------------------------- arguments

struct Args {
  std::map<std::string, std::string> kv;

  Args(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const std::string a = argv[i];
      if (a.rfind("--", 0) != 0 || i + 1 >= argc) die("bad argument " + a);
      kv[a.substr(2)] = argv[++i];
    }
  }
  std::string str(const std::string& key) const {
    auto it = kv.find(key);
    if (it == kv.end()) die("missing --" + key);
    return it->second;
  }
  std::string str(const std::string& key, const std::string& dflt) const {
    auto it = kv.find(key);
    return it == kv.end() ? dflt : it->second;
  }
  long long num(const std::string& key, long long dflt) const {
    auto it = kv.find(key);
    if (it == kv.end()) return dflt;
    char* end = nullptr;
    const long long v = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0') die("bad --" + key);
    return v;
  }
  double real(const std::string& key, double dflt) const {
    auto it = kv.find(key);
    if (it == kv.end()) return dflt;
    char* end = nullptr;
    const double v = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0') die("bad --" + key);
    return v;
  }
};

std::vector<std::size_t> parse_index_list(const std::string& s) {
  std::vector<std::size_t> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(std::stoull(item));
  }
  return out;
}

std::vector<std::string> read_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::uint64_t fnv1a(const std::string& s, std::uint64_t h = 1469598103934665603ull) {
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// --------------------------------------------------------------- generation

/// A copy of `nl` with every instance name and the module name replaced.
/// The structure, gate order and annotations are untouched, so the copy has
/// the same structural hash and canonical fingerprint as the source (the
/// selftest checks this); only the netlist text differs.
Netlist renamed(const Netlist& nl, Rng& rng) {
  Netlist out = nl;
  const std::string salt = "r" + std::to_string(rng.uniform_int(0, 1 << 30));
  std::vector<std::size_t> perm(nl.size());
  for (std::size_t i = 0; i < perm.size(); ++i) perm[i] = i;
  rng.shuffle(perm);
  for (std::size_t i = 0; i < nl.size(); ++i) {
    // The name index is stale after this, which is fine: the copy is only
    // ever serialized (write_netlist reads names through gate ids).
    out.gate(static_cast<GateId>(i)).name = salt + "_" + std::to_string(perm[i]);
  }
  out.set_name(nl.name() + "_" + salt);
  return out;
}

/// A copy of `nl` with a chain of `extra` inverters named `prefix`<k>
/// hanging off its first port (the last one a primary output). It pads a
/// design to an exact gate count, and it makes a structurally distinct
/// netlist of almost the same cost, so repeated serve_large passes miss
/// the result cache without generating new designs.
Netlist with_inverter_chain(const Netlist& nl, std::size_t extra, const std::string& prefix) {
  Netlist out = nl;
  GateId prev = out.ports().at(0);
  for (std::size_t k = 0; k < extra; ++k) {
    prev = out.add_gate(CellType::kInv, prefix + std::to_string(k), {prev});
  }
  if (extra > 0) out.mark_output(prev);
  return out;
}

const char* kOps[] = {"embed_circuit", "embed_gates", "embed_cone"};

std::string request_body(const std::string& op, const Netlist& nl) {
  return "\"op\":\"" + op + "\",\"netlist\":\"" +
         json_escape(netlist_to_string(nl)) + "\"}";
}

struct GenLine {
  std::string body;
  std::string op;
  std::size_t gates = 0;
  std::string family;
  long pool = -1;     ///< serve_warm_zipf: pool entry the line renames
  int variant = -1;   ///< zipf: 0 = original names; large: the pass
};

/// Flat designs from all four families, round-robin, skipping any whose
/// order-insensitive fingerprint was already produced (so cold traffic never
/// repeats a netlist, not even by accident).
std::vector<std::pair<Netlist, std::string>> distinct_flat_designs(
    std::size_t count, Rng& rng, std::set<std::string>* seen,
    const std::string& tag) {
  const auto& families = benchmark_families();
  std::vector<std::pair<Netlist, std::string>> out;
  std::size_t attempt = 0;
  while (out.size() < count) {
    if (attempt > count * 4 + 64) die("generator keeps repeating designs");
    const FamilyProfile& fam = families[attempt % families.size()];
    Rng drng = rng.fork();
    GeneratedDesign g =
        generate_design(fam, drng, tag + std::to_string(attempt));
    ++attempt;
    if (!seen->insert(serve::canonical_fingerprint(g.netlist, false)).second) {
      continue;
    }
    out.emplace_back(std::move(g.netlist), fam.name);
  }
  return out;
}

/// Candidates sized_designs draws per target gate count at most.
constexpr int kSizeTries = 200;

/// One design of exactly each target gate count: the largest of up to
/// kSizeTries candidates (flat, or hierarchical of random shape) that does
/// not exceed the target, stopping early within 1% of it, padded to the
/// target with an inverter chain. Pinning sizes makes runs with different
/// seeds measure the same amount of work (the dense TAGFormer's time grows
/// with the square of it); the seed still picks every design's content.
std::vector<std::pair<Netlist, std::string>> sized_designs(
    const std::vector<std::size_t>& targets, bool hierarchical, Rng& rng,
    std::set<std::string>* seen) {
  const auto& families = benchmark_families();
  std::vector<std::pair<Netlist, std::string>> out;
  for (std::size_t t = 0; t < targets.size(); ++t) {
    Netlist best;
    std::string best_family;
    double best_err = 1e300;
    for (int k = 0; k < kSizeTries && best_err >= 0.01; ++k) {
      const FamilyProfile& fam = families[(t + k) % families.size()];
      const std::string name = "d" + std::to_string(t) + "_" + std::to_string(k);
      Rng drng = rng.fork();
      GeneratedDesign g;
      if (hierarchical) {
        HierarchyOptions ho;
        ho.levels = 1 + static_cast<int>(rng.index(6));
        ho.min_blocks_per_level = 1;
        ho.max_blocks_per_level = 1 + static_cast<int>(rng.index(5));
        ho.shared_blocks = static_cast<int>(rng.index(3));
        g = generate_hierarchical_design(fam, ho, drng, name);
      } else {
        g = generate_design(fam, drng, name);
      }
      if (g.netlist.size() > targets[t]) continue;
      const double err = 1.0 - static_cast<double>(g.netlist.size()) /
                                   static_cast<double>(targets[t]);
      if (err < best_err && !seen->count(serve::canonical_fingerprint(g.netlist, false))) {
        best_err = err;
        best = std::move(g.netlist);
        best_family = fam.name;
      }
    }
    if (best.size() == 0) die("no new design near " + std::to_string(targets[t]) + " gates");
    seen->insert(serve::canonical_fingerprint(best, false));
    out.emplace_back(with_inverter_chain(best, targets[t] - best.size(), "pb_pad"),
                     best_family);
  }
  return out;
}

int cmd_gen(const Args& a) {
  const std::string workload = a.str("workload");
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const std::string dir = a.str("out");
  Rng rng(seed ^ 0x9e3779b97f4a7c15ull);
  std::vector<GenLine> lines, warm;
  std::set<std::string> seen;

  if (workload == "serve_cold") {
    const std::size_t warmup = static_cast<std::size_t>(a.num("warmup", 300));
    const std::size_t count = static_cast<std::size_t>(a.num("count", 1000));
    // Ops round-robin, so every seed sends the same mix. The warm-up set
    // is the same for every seed (it doubles as the peak-RSS probe, which
    // must serve the same requests in every run); `seen` keeps the seeded
    // lines disjoint from it.
    Rng warm_rng(0x3a11c0de);
    auto emit = [&](std::vector<GenLine>* to, std::size_t n, Rng& from, const char* tag) {
      for (auto& [nl, family] : distinct_flat_designs(n, from, &seen, tag)) {
        GenLine l;
        l.op = kOps[to->size() % 3];
        l.gates = nl.size();
        l.family = family;
        l.body = request_body(l.op, nl);
        to->push_back(std::move(l));
      }
    };
    emit(&warm, warmup, warm_rng, "warm");
    emit(&lines, count, rng, "cold");
  } else if (workload == "serve_warm_zipf") {
    // Pool entry p is zipf rank p. Its size and op depend on p only (sizes
    // log-spaced over 60..400 gates, visited in a fixed scrambled order), so
    // every seed puts the same amount of work on each rank.
    const std::size_t pool = static_cast<std::size_t>(a.num("pool", 32));
    const int variants = static_cast<int>(a.num("variants", 16));
    std::vector<std::size_t> targets;
    for (std::size_t p = 0; p < pool; ++p) {
      const double u = static_cast<double>((p * 13) % pool) / static_cast<double>(pool - 1);
      targets.push_back(static_cast<std::size_t>(std::lround(60.0 * std::pow(400.0 / 60.0, u))));
    }
    const auto designs = sized_designs(targets, false, rng, &seen);
    for (std::size_t p = 0; p < designs.size(); ++p) {
      const std::string op = kOps[p % 3];
      for (int v = 0; v < variants; ++v) {
        GenLine l;
        l.op = op;
        l.gates = designs[p].first.size();
        l.family = designs[p].second;
        l.pool = static_cast<long>(p);
        l.variant = v;
        l.body = request_body(op, v == 0 ? designs[p].first
                                         : renamed(designs[p].first, rng));
        lines.push_back(std::move(l));
      }
    }
  } else if (workload == "serve_large") {
    // Line pass * sizes + t: pass 0 is the warm-up pass, pass p > 0 the
    // same designs with p extra inverters.
    const auto designs = sized_designs(parse_index_list(a.str("sizes")), true, rng, &seen);
    const int passes = static_cast<int>(a.num("passes", 8));
    for (int pass = 0; pass < passes; ++pass) {
      for (const auto& [nl, family] : designs) {
        const Netlist v = with_inverter_chain(nl, static_cast<std::size_t>(pass), "pb_inv");
        GenLine l;
        l.op = "embed_gates";
        l.gates = v.size();
        l.family = family;
        l.variant = pass;
        l.body = request_body(l.op, v);
        lines.push_back(std::move(l));
      }
    }
  } else {
    die("unknown serve workload " + workload);
  }

  auto write = [&](const std::vector<GenLine>& v, const std::string& stem) {
    std::ofstream body(dir + "/" + stem + ".ndjson");
    std::ofstream meta(dir + "/" + stem + ".tsv");
    if (!body || !meta) die("cannot write under " + dir);
    for (const GenLine& l : v) {
      body << l.body << "\n";
      meta << l.op << '\t' << l.gates << '\t' << l.family << '\t' << l.pool
           << '\t' << l.variant << "\n";
    }
  };
  write(lines, "lines");
  write(warm, "warmup");
  double gates = 0;
  for (const GenLine& l : lines) gates += static_cast<double>(l.gates);
  std::printf("{\"lines\":%zu,\"warmup\":%zu,\"gates_mean\":%.3f}\n",
              lines.size(), warm.size(),
              lines.empty() ? 0.0 : gates / static_cast<double>(lines.size()));
  return 0;
}

// ----------------------------------------------------------- model requests

/// The daemon's result object for one request (server.cpp renders the same
/// fields in the same order).
std::string render_result(const NetTag& model, const serve::Request& r,
                          const Netlist& nl) {
  const std::string dim = std::to_string(model.embedding_dim());
  if (r.op == serve::Op::kEmbedCircuit) {
    const Mat c = model.embed_circuit(
        nl, r.max_cone_gates ? r.max_cone_gates : serve::kDefaultMaxConeGates);
    return "{\"dim\":" + dim + ",\"registers\":" +
           std::to_string(nl.registers().size()) +
           ",\"circuit\":" + serve::mat_to_json(c) + "}";
  }
  const NetTag::ConeEmbedding e = model.embed(nl, r.k_hop);
  if (r.op == serve::Op::kEmbedGates) {
    return "{\"dim\":" + dim + ",\"nodes\":" + serve::mat_to_json(e.nodes) +
           ",\"cls\":" + serve::mat_to_json(e.cls) + "}";
  }
  return "{\"dim\":" + dim + ",\"cls\":" + serve::mat_to_json(e.cls) + "}";
}

serve::Request parse_body(const std::string& body) {
  serve::Request r = serve::parse_request("{" + body);
  if (r.parse_error != serve::ErrorCode::kNone) die("bad request body: " + r.parse_message);
  return r;
}

int cmd_ref(const Args& a) {
  const std::unique_ptr<NetTag> model = load_checkpoint(a.str("model"));
  const std::vector<std::string> lines = read_lines(a.str("lines"));
  std::ofstream out(a.str("out"));
  if (!out) die("cannot write " + a.str("out"));
  std::size_t n = 0;
  for (const std::size_t idx : parse_index_list(a.str("indices"))) {
    if (idx >= lines.size()) die("ref index out of range");
    const serve::Request r = parse_body(lines[idx]);
    const Netlist nl = netlist_from_string(r.netlist_text);
    out << idx << '\t' << render_result(*model, r, nl) << "\n";
    ++n;
  }
  std::printf("{\"references\":%zu}\n", n);
  return 0;
}

// -------------------------------------------------------------------- drive

/// One NDJSON connection to the daemon over a unix socket (raw POSIX, so the
/// open loop can poll() many of them from one thread).
class Conn {
 public:
  explicit Conn(const std::string& path) {
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) die("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) die("socket path too long");
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      die("cannot connect to " + path + ": " + std::strerror(errno));
    }
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  void send(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t w = ::send(fd_, line.data() + off, line.size() - off, MSG_NOSIGNAL);
      if (w < 0 && errno == EINTR) continue;
      if (w <= 0) die("send failed: " + std::string(std::strerror(errno)));
      off += static_cast<std::size_t>(w);
    }
  }
  int fd() const { return fd_; }

  /// Moves the next complete buffered line (without newline) into *out.
  bool next_line(std::string* out) {
    const std::size_t nl = buf_.find('\n', scan_);
    if (nl == std::string::npos) {
      scan_ = buf_.size();
      return false;
    }
    out->assign(buf_, 0, nl);
    buf_.erase(0, nl + 1);
    scan_ = 0;
    return true;
  }

  /// One recv() into the buffer; false on EOF or error.
  bool fill() {
    char chunk[65536];
    for (;;) {
      const ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r < 0 && errno == EINTR) continue;
      if (r <= 0) return false;
      buf_.append(chunk, static_cast<std::size_t>(r));
      return true;
    }
  }

  /// Next response line, blocking; false on EOF.
  bool read_line(std::string* out) {
    while (!next_line(out)) {
      if (!fill()) return false;
    }
    return true;
  }

 private:
  int fd_ = -1;
  std::string buf_;
  std::size_t scan_ = 0;
};

struct Record {
  std::size_t line = 0;
  std::int64_t due = 0, sent = 0, done = 0;  ///< ns, relative to phase start
  std::string status;                         ///< "ok" or the error code
  bool cached = false;
  std::size_t bytes = 0;
  std::uint64_t result_hash = 0;
};

/// Parses the fixed response prefix the daemon renders:
/// {"id":"<seq>","op":"..","status":"ok","cached":<b>,"result":{...}}
std::size_t parse_response(const std::string& resp, Record* rec) {
  static const std::string kId = "{\"id\":\"";
  if (resp.compare(0, kId.size(), kId) != 0) die("unexpected response: " + resp.substr(0, 80));
  const std::size_t idq = resp.find('"', kId.size());
  const std::size_t seq = std::stoull(resp.substr(kId.size(), idq - kId.size()));
  rec->bytes = resp.size() + 1;
  const std::size_t st = resp.find("\"status\":\"", idq);
  if (st == std::string::npos) die("response without status");
  if (resp.compare(st + 10, 3, "ok\"") == 0) {
    rec->status = "ok";
    rec->cached = resp.find("\"cached\":true", st) != std::string::npos;
    const std::size_t res = resp.find("\"result\":", st);
    if (res == std::string::npos) die("ok response without result");
    // The result object runs to the response's closing brace.
    rec->result_hash = fnv1a(resp.substr(res + 9, resp.size() - res - 10));
  } else {
    const std::size_t code = resp.find("\"code\":\"", st);
    rec->status = code == std::string::npos
                      ? "error"
                      : resp.substr(code + 8, resp.find('"', code + 8) - code - 8);
  }
  return seq;
}

int cmd_drive(const Args& a) {
  std::string addr = a.str("connect");
  if (addr.rfind("unix:", 0) != 0) die("--connect must be unix:PATH");
  addr = addr.substr(5);
  const std::vector<std::string> lines = read_lines(a.str("lines"));
  const bool open = a.str("mode") == "open";
  const std::size_t conns = static_cast<std::size_t>(a.num("conns", 1));
  const double seconds = a.real("seconds", 1.0);
  // Schedule: "due_ns line" (open) or "line" (closed), one request per row.
  std::vector<std::pair<std::int64_t, std::size_t>> sched;
  for (const std::string& row : read_lines(a.str("schedule"))) {
    std::stringstream ss(row);
    std::int64_t due = 0;
    std::size_t line = 0;
    if (open) ss >> due;
    ss >> line;
    if (!ss || line >= lines.size()) die("bad schedule row: " + row);
    sched.emplace_back(due, line);
  }
  std::set<std::size_t> dump_set;
  for (std::size_t s : parse_index_list(a.str("dump", ""))) dump_set.insert(s);
  std::map<std::size_t, std::string> dumped;
  std::mutex dump_mu;

  std::vector<std::unique_ptr<Conn>> cs;
  for (std::size_t i = 0; i < conns; ++i) cs.push_back(std::make_unique<Conn>(addr));
  std::vector<Record> recs(sched.size());
  std::atomic<std::size_t> issued{0};
  const std::int64_t t0 = now_ns();
  const std::int64_t deadline = t0 + static_cast<std::int64_t>(seconds * 1e9);

  auto finish = [&](const std::string& resp) {
    Record tmp;
    const std::size_t seq = parse_response(resp, &tmp);
    if (seq >= recs.size()) die("response for unknown request");
    Record& r = recs[seq];
    r.done = now_ns() - t0;
    r.status = tmp.status;
    r.cached = tmp.cached;
    r.bytes = tmp.bytes;
    r.result_hash = tmp.result_hash;
    if (dump_set.count(seq)) {
      std::lock_guard<std::mutex> lk(dump_mu);
      dumped[seq] = resp;
    }
  };
  auto wire = [&](std::size_t seq) {
    return "{\"id\":\"" + std::to_string(seq) + "\"," + lines[sched[seq].second] + "\n";
  };

  std::vector<std::thread> threads;
  if (open) {
    // One thread sends on the schedule and reads responses in between, with
    // poll() over all connections: requests are pipelined round-robin, so a
    // slow daemon grows its own queues instead of slowing the sender (which
    // is what makes the loop open), and no extra client threads compete
    // with the daemon for the cores.
    std::vector<pollfd> fds(conns);
    for (std::size_t c = 0; c < conns; ++c) fds[c] = {cs[c]->fd(), POLLIN, 0};
    std::size_t sent = 0, answered = 0;
    std::string resp;
    while (answered < sched.size()) {
      const std::int64_t now = now_ns() - t0;
      if (sent < sched.size() && sched[sent].first <= now) {
        recs[sent].line = sched[sent].second;
        recs[sent].due = sched[sent].first;
        const std::string w = wire(sent);
        recs[sent].sent = now_ns() - t0;
        cs[sent % conns]->send(w);
        ++sent;
        continue;
      }
      // Sleep until a response arrives or the next send is due.
      timespec ts{};
      const timespec* timeout = nullptr;
      if (sent < sched.size()) {
        const std::int64_t wait = sched[sent].first - now;
        ts.tv_sec = static_cast<time_t>(wait / 1000000000);
        ts.tv_nsec = static_cast<long>(wait % 1000000000);
        timeout = &ts;
      }
      if (::ppoll(fds.data(), fds.size(), timeout, nullptr) < 0 && errno != EINTR) {
        die("ppoll failed");
      }
      for (std::size_t c = 0; c < conns; ++c) {
        if (!(fds[c].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        if (!cs[c]->fill()) die("daemon closed the connection");
        while (cs[c]->next_line(&resp)) {
          finish(resp);
          ++answered;
        }
      }
    }
    issued = sched.size();
  } else {
    for (std::size_t c = 0; c < conns; ++c) {
      threads.emplace_back([&, c] {
        std::string resp;
        for (;;) {
          if (now_ns() >= deadline) return;
          const std::size_t s = issued.fetch_add(1);
          if (s >= sched.size()) return;
          recs[s].line = sched[s].second;
          const std::string w = wire(s);
          recs[s].sent = recs[s].due = now_ns() - t0;
          cs[c]->send(w);
          if (!cs[c]->read_line(&resp)) die("daemon closed the connection");
          finish(resp);
        }
      });
    }
  }
  for (std::thread& t : threads) t.join();
  const std::int64_t elapsed = now_ns() - t0;
  const std::size_t n = std::min(issued.load(), sched.size());

  std::ofstream out(a.str("out"));
  if (!out) die("cannot write " + a.str("out"));
  for (std::size_t s = 0; s < n; ++s) {
    const Record& r = recs[s];
    out << s << '\t' << r.line << '\t' << r.due << '\t' << r.sent << '\t'
        << r.done << '\t' << r.status << '\t' << (r.cached ? 1 : 0) << '\t'
        << r.bytes << '\t' << hex64(r.result_hash) << "\n";
  }
  if (!dump_set.empty()) {
    std::ofstream dump(a.str("dump-out"));
    for (const auto& [seq, resp] : dumped) dump << seq << '\t' << resp << "\n";
  }
  std::printf("{\"requests\":%zu,\"elapsed_s\":%.9f}\n", n,
              static_cast<double>(elapsed) / 1e9);
  return 0;
}

// -------------------------------------------------------------------- spans

/// Span recorder: name, start, end (ns since the tracer's epoch), parent span
/// index, request id. Kept in memory and written once at the end. A null
/// Tracer* turns every call into a no-op so the untraced replay runs the
/// same code.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::int64_t start = 0, end = 0;
    long parent = -1;
    long req = -1;
  };
  explicit Tracer(std::int64_t epoch) : epoch_(epoch) {}
  long open(const char* name, long parent, long req) {
    spans_.push_back({name, now_ns() - epoch_, 0, parent, req});
    return static_cast<long>(spans_.size()) - 1;
  }
  void close(long id) { spans_[static_cast<std::size_t>(id)].end = now_ns() - epoch_; }
  void add(const char* name, std::int64_t start, std::int64_t end, long parent, long req) {
    spans_.push_back({name, start, end, parent, req});
  }
  const std::vector<Span>& spans() const { return spans_; }

  void write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) die("cannot write " + path);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out << "{\"span\":" << i << ",\"name\":\"" << s.name << "\",\"start_ns\":"
          << s.start << ",\"end_ns\":" << s.end << ",\"parent\":" << s.parent
          << ",\"req\":" << s.req << "}\n";
    }
  }

 private:
  std::int64_t epoch_;
  std::vector<Span> spans_;
};

/// RAII span; inert when the tracer is null.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, long parent, long req)
      : t_(t), id_(t ? t->open(name, parent, req) : -1) {}
  ~Scoped() {
    if (t_) t_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  long id() const { return id_; }

 private:
  Tracer* t_;
  long id_;
};

/// One NetTag::embed call in a "model.embed" span. Its three stages run
/// inside that one public call, so their child spans are laid end to end
/// from the stage timers embed itself keeps (EmbedTiming): durations are
/// measured, boundaries derived.
NetTag::ConeEmbedding traced_embed(const NetTag& model, const Netlist& nl,
                                   int k_hop, Tracer* t, long parent, long req) {
  EmbedTiming timing;
  NetTag::ConeEmbedding e;
  std::int64_t start = 0;
  long id = -1;
  {
    Scoped s(t, "model.embed", parent, req);
    id = s.id();
    if (t) start = t->spans()[static_cast<std::size_t>(id)].start;
    e = model.embed(nl, k_hop, &timing);
  }
  if (t) {
    for (const auto& [name, sec] :
         {std::pair<const char*, double>{"core.tag_build", timing.tag_build.load()},
          {"model.text_encode", timing.text_encode.load()},
          {"model.tagformer", timing.tagformer.load()}}) {
      const std::int64_t end = start + static_cast<std::int64_t>(sec * 1e9);
      t->add(name, start, end, id, req);
      start = end;
    }
  }
  return e;
}

std::string replay_model(const NetTag& model, const serve::Request& r,
                         const Netlist& nl, std::size_t cap, Tracer* t,
                         long parent, long req, std::size_t* cones);

/// Replays one request through the layers the daemon runs (read, lint,
/// cache key, then model work unless `cache` already holds the key, as the
/// daemon's result cache would), serially. Returns the rendered result
/// object.
std::string replay_request(const NetTag& model, const std::string& body,
                           Tracer* t, long req, std::size_t* cones,
                           std::map<std::string, std::string>* cache) {
  Scoped root(t, "request", -1, req);
  const serve::Request r = parse_body(body);
  Netlist nl;
  {
    Scoped s(t, "netlist.read", root.id(), req);
    nl = netlist_from_string(r.netlist_text);
  }
  {
    Scoped s(t, "analysis.lint", root.id(), req);
    const LintReport rep = lint_netlist(nl);
    if (rep.has_errors()) die("replayed request fails lint");
  }
  const std::size_t cap = r.max_cone_gates ? r.max_cone_gates : serve::kDefaultMaxConeGates;
  std::string key;
  {
    Scoped s(t, "serve.cache_key", root.id(), req);
    const serve::CacheKey k = serve::cache_key(
        nl, serve::op_name(r.op), r.k_hop, cap, r.task, r.op == serve::Op::kEmbedGates);
    key = k.key + '\n' + k.fingerprint;
  }
  if (const auto hit = cache->find(key); hit != cache->end()) return hit->second;
  const std::string result = replay_model(model, r, nl, cap, t, root.id(), req, cones);
  cache->emplace(key, result);
  return result;
}

std::string replay_model(const NetTag& model, const serve::Request& r,
                         const Netlist& nl, std::size_t cap, Tracer* t,
                         long parent, long req, std::size_t* cones) {
  const std::string dim = std::to_string(model.embedding_dim());
  if (r.op == serve::Op::kEmbedCircuit) {
    const std::vector<GateId> regs = nl.registers();
    Mat sum(1, model.embedding_dim());
    if (regs.empty()) sum = traced_embed(model, nl, 0, t, parent, req).cls;
    // Register order, like embed_circuit's reduction, so the sum is
    // bit-identical to the daemon's.
    for (const GateId reg : regs) {
      RegisterCone rc;
      {
        Scoped s(t, "netlist.cone_extract", parent, req);
        rc = extract_cone(nl, reg, cap);
      }
      const Mat cls = traced_embed(model, rc.cone, 0, t, parent, req).cls;
      for (int j = 0; j < model.embedding_dim(); ++j) sum.at(0, j) += cls.at(0, j);
    }
    *cones += regs.size();
    return "{\"dim\":" + dim + ",\"registers\":" + std::to_string(regs.size()) +
           ",\"circuit\":" + serve::mat_to_json(sum) + "}";
  }
  const NetTag::ConeEmbedding e = traced_embed(model, nl, r.k_hop, t, parent, req);
  if (r.op == serve::Op::kEmbedGates) {
    return "{\"dim\":" + dim + ",\"nodes\":" + serve::mat_to_json(e.nodes) +
           ",\"cls\":" + serve::mat_to_json(e.cls) + "}";
  }
  return "{\"dim\":" + dim + ",\"cls\":" + serve::mat_to_json(e.cls) + "}";
}

int cmd_trace_serve(const Args& a) {
  const std::string prefix = a.str("model");
  const std::vector<std::string> lines = read_lines(a.str("lines"));
  const std::vector<std::string> warm = read_lines(a.str("warmup", "/dev/null"));
  const std::vector<std::size_t> idx = parse_index_list(a.str("indices"));
  for (const std::size_t i : idx) {
    if (i >= lines.size()) die("trace index out of range");
  }

  // Two model instances with identical warm-up: one replays untraced, the
  // other traced, request by request, taking turns at going first (process
  // state such as the memory planner's tapes favours the second caller), so
  // both see the same cache state and the same process drift.
  std::unique_ptr<NetTag> models[2];
  std::map<std::string, std::string> caches[2];
  double warm_hit_ratio = 0;
  std::uint64_t h0 = 0, m0 = 0;
  for (int k = 0; k < 2; ++k) {
    models[k] = load_checkpoint(prefix);
    std::size_t warm_cones = 0;
    for (const std::string& w : warm) {
      replay_request(*models[k], w, nullptr, -1, &warm_cones, &caches[k]);
    }
    const TextEmbeddingCache& tc = models[k]->text_cache();
    h0 = tc.hits();
    m0 = tc.misses();
    if (h0 + m0 > 0) warm_hit_ratio = static_cast<double>(h0) / static_cast<double>(h0 + m0);
  }
  double pass_seconds[2] = {0, 0};
  std::vector<std::string> results[2];
  Tracer tracer(now_ns());
  std::size_t cones = 0, untraced_cones = 0;
  for (std::size_t pos = 0; pos < idx.size(); ++pos) {
    const std::size_t i = idx[pos];
    for (const int k : {static_cast<int>(pos % 2), static_cast<int>(1 - pos % 2)}) {
      const std::int64_t s0 = now_ns();
      results[k].push_back(replay_request(*models[k], lines[i], k ? &tracer : nullptr,
                                          static_cast<long>(i),
                                          k ? &cones : &untraced_cones, &caches[k]));
      pass_seconds[k] += static_cast<double>(now_ns() - s0) / 1e9;
    }
  }
  const std::uint64_t text_hits = models[1]->text_cache().hits() - h0;
  const std::uint64_t text_misses = models[1]->text_cache().misses() - m0;
  if (results[0] != results[1]) die("traced replay changed the results");
  tracer.write(a.str("spans"));

  // Per-layer totals (seconds) and, per request, tagformer time for the
  // size-scaling fit.
  std::map<std::string, double> total;
  std::map<long, double> tagformer_by_req;
  for (const Tracer::Span& s : tracer.spans()) {
    const double sec = static_cast<double>(s.end - s.start) / 1e9;
    total[s.name] += sec;
    if (s.name == "model.tagformer") tagformer_by_req[s.req] += sec;
  }

  std::printf("{\"requests\":%zu,\"cones\":%zu,\"untraced_s\":%.9f,"
              "\"traced_s\":%.9f,\"text_hits\":%llu,\"text_misses\":%llu,"
              "\"warm_text_hit_ratio\":%.9f,\"layer_s\":{",
              idx.size(), cones, pass_seconds[0], pass_seconds[1],
              static_cast<unsigned long long>(text_hits),
              static_cast<unsigned long long>(text_misses), warm_hit_ratio);
  bool first = true;
  for (const auto& [name, sec] : total) {
    std::printf("%s\"%s\":%.9f", first ? "" : ",", name.c_str(), sec);
    first = false;
  }
  std::printf("},\"tagformer_s_by_req\":{");
  first = true;
  for (const auto& [req, sec] : tagformer_by_req) {
    std::printf("%s\"%ld\":%.9f", first ? "" : ",", req, sec);
    first = false;
  }
  std::printf("}}\n");
  return 0;
}

// -------------------------------------------------------------------- train

/// The train_stream corpus: a small hierarchical sharded corpus with the
/// physical flow on, so the build exercises generator, flow, lint and shard
/// writes, and pre-training can use every objective.
StreamOptions train_stream_options() {
  StreamOptions so;
  so.designs_per_family = 2;
  so.designs_per_shard = 2;
  so.hierarchical = true;
  so.hierarchy.levels = 2;
  so.hierarchy.min_blocks_per_level = 1;
  so.hierarchy.max_blocks_per_level = 2;
  so.hierarchy.shared_blocks = 1;
  so.corpus.with_physical = true;
  return so;
}

/// The fixed step budget of one pre-training call.
PretrainOptions train_stream_budget() {
  PretrainOptions po;
  po.expr_steps = 32;
  po.tag_steps = 32;
  po.aux_steps = 4;
  po.max_expressions = 400;
  po.max_cones = 48;
  return po;
}

int cmd_corpus(const Args& a) {
  const std::string dir = a.str("out");
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const std::int64_t t0 = now_ns();
  const StreamProgress p = build_corpus_stream(dir, train_stream_options(), seed);
  const double sec = static_cast<double>(now_ns() - t0) / 1e9;
  if (!p.complete) die("corpus build incomplete");
  std::printf("{\"seconds\":%.9f,\"shards\":%zu,\"designs\":%zu,\"cones\":%zu,"
              "\"gates\":%zu}\n",
              sec, p.shards_total, p.designs, p.cones, p.gates);
  return 0;
}

std::string losses_json(const std::vector<float>& v) {
  std::string s = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.9g", i ? "," : "", static_cast<double>(v[i]));
    s += buf;
  }
  return s + "]";
}

/// Pre-training calls a trainer process makes at least: the first pays the
/// process's one-time set-up and is not timed.
constexpr int kMinTrainCalls = 2;

int cmd_train(const Args& a) {
  const ShardedCorpus corpus(a.str("corpus"));
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("seed", 1));
  const double seconds = a.real("seconds", 1.0);
  const PretrainOptions po = train_stream_budget();
  const std::int64_t t0 = now_ns();
  std::printf("{\"width\":%d,\"expr_steps\":%d,\"expr_batch\":%d,\"tag_steps\":%d,"
              "\"graph_batch\":%d,\"runs\":[",
              ThreadPool::instance().width(), po.expr_steps, po.expr_batch,
              po.tag_steps, po.graph_batch);
  for (int rep = 0;; ++rep) {
    if (rep >= kMinTrainCalls && static_cast<double>(now_ns() - t0) / 1e9 >= seconds) break;
    NetTagConfig mc;
    mc.expr_llm = TextEncoderConfig::tiny();
    NetTag model(mc, seed ^ 0x7a67);
    // The batch sequence is the same for every seed, like the corpus: it
    // decides the largest batch, which moved peak RSS from one seed to the
    // next by a third. The seed drives model initialisation.
    Rng rng(0xba7c4);
    const std::int64_t s0 = now_ns();
    const PretrainReport r = pretrain_streaming(model, corpus, po, rng);
    const double wall = static_cast<double>(now_ns() - s0) / 1e9;
    std::printf("%s{\"wall_s\":%.9f,\"step1_s\":%.9f,\"step2_s\":%.9f,"
                "\"expr_losses\":%s,\"tag_losses\":%s}",
                rep ? "," : "", wall, r.seconds_step1, r.seconds_step2,
                losses_json(r.expr_losses).c_str(), losses_json(r.tag_losses).c_str());
    std::fflush(stdout);
  }
  std::printf("]}\n");
  return 0;
}

int cmd_trace_train(const Args& a) {
  const std::string dir = a.str("corpus");
  const std::uint64_t seed = static_cast<std::uint64_t>(a.num("seed", 1));
  Tracer tracer(now_ns());
  // Generator and flow, per design, in build_corpus_stream's family order
  // and with its shape options (seeds differ; sizes are alike).
  const StreamOptions so = train_stream_options();
  Rng rng(seed ^ 0x51ed);
  std::size_t designs = 0;
  for (const FamilyProfile& fam : benchmark_families()) {
    for (int d = 0; d < so.designs_per_family; ++d) {
      Rng drng = rng.fork();
      GeneratedDesign g;
      {
        Scoped s(&tracer, "rtlgen.generate", -1, static_cast<long>(designs));
        g = generate_hierarchical_design(fam, so.hierarchy, drng, fam.name);
      }
      {
        Scoped s(&tracer, "physical.flow", -1, static_cast<long>(designs));
        const PhysicalResult pr = run_physical_flow(g.netlist, drng, false, 0.0,
                                                    so.corpus.placement_passes);
        if (!(pr.area.total_area > 0)) die("physical flow reported no area");
      }
      ++designs;
    }
  }
  const ShardedCorpus corpus(dir);
  std::size_t cones = 0;
  for (std::size_t s = 0; s < corpus.num_shards(); ++s) {
    Scoped sp(&tracer, "core.shard_read", -1, static_cast<long>(s));
    const ShardedCorpus::Shard shard = corpus.load(s);
    for (const DesignSample& d : shard.corpus.designs) cones += d.cones.size();
  }
  tracer.write(a.str("spans"));
  std::map<std::string, double> total;
  for (const Tracer::Span& s : tracer.spans()) {
    total[s.name] += static_cast<double>(s.end - s.start) / 1e9;
  }
  std::printf("{\"designs\":%zu,\"shards\":%zu,\"cones\":%zu,"
              "\"generate_s\":%.9f,\"flow_s\":%.9f,\"shard_read_s\":%.9f}\n",
              designs, corpus.num_shards(), cones, total["rtlgen.generate"],
              total["physical.flow"], total["core.shard_read"]);
  return 0;
}

// --------------------------------------------------------------------- host

int cmd_host() {
  const char* threads = std::getenv("NETTAG_THREADS");
  std::printf("{\"simd\":\"%s\",\"compiler\":\"%s\",\"build_type\":\"%s\","
              "\"hardware_concurrency\":%u,\"pool_width\":%d,"
              "\"nettag_threads\":\"%s\"}\n",
              simd_backend_name(), PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE,
              std::thread::hardware_concurrency(), ThreadPool::instance().width(),
              threads ? threads : "");
  return 0;
}

// ----------------------------------------------------------------- selftest

int failures = 0;
void check(bool ok, const std::string& what) {
  std::fprintf(stderr, "%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

int cmd_selftest() {
  Rng rng(42);
  const FamilyProfile& fam = benchmark_families()[1];
  Rng drng = rng.fork();
  const Netlist nl = generate_design(fam, drng, "src").netlist;
  for (int k = 0; k < 4; ++k) {
    const Netlist rn = renamed(nl, rng);
    // The daemon sees text: compare the re-read netlists, as it would.
    const Netlist a = netlist_from_string(netlist_to_string(nl));
    const Netlist b = netlist_from_string(netlist_to_string(rn));
    check(netlist_to_string(a) != netlist_to_string(b),
          "renamed copy " + std::to_string(k) + " has different text");
    for (const bool ordered : {false, true}) {
      check(serve::structural_hash(a, 3, ordered) == serve::structural_hash(b, 3, ordered),
            "renamed copy " + std::to_string(k) + " keeps structural_hash (order_sensitive=" +
                (ordered ? "1" : "0") + ")");
      check(serve::canonical_fingerprint(a, ordered) == serve::canonical_fingerprint(b, ordered),
            "renamed copy " + std::to_string(k) + " keeps canonical_fingerprint");
    }
    for (const char* op : kOps) {
      const bool per_node = std::string(op) == "embed_gates";
      check(serve::cache_key(a, op, 0, 120, "", per_node).key ==
                serve::cache_key(b, op, 0, 120, "", per_node).key,
            std::string("renamed copy keeps the ") + op + " cache key");
    }
  }
  // Same seed, same designs; another seed, other designs.
  auto first_text = [](std::uint64_t seed) {
    Rng r(seed);
    std::set<std::string> seen;
    return netlist_to_string(distinct_flat_designs(1, r, &seen, "d")[0].first);
  };
  check(first_text(7) == first_text(7), "generation is seed-deterministic");
  check(first_text(7) != first_text(8), "another seed gives another design");
  std::printf("{\"failures\":%d}\n", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) die("usage: perfbench_tool <subcommand> [--key value]...");
  const std::string cmd = argv[1];
  try {
    const Args a(argc, argv, 2);
    if (cmd == "host") return cmd_host();
    if (cmd == "gen") return cmd_gen(a);
    if (cmd == "ref") return cmd_ref(a);
    if (cmd == "drive") return cmd_drive(a);
    if (cmd == "corpus") return cmd_corpus(a);
    if (cmd == "train") return cmd_train(a);
    if (cmd == "trace-serve") return cmd_trace_serve(a);
    if (cmd == "trace-train") return cmd_trace_train(a);
    if (cmd == "selftest") return cmd_selftest();
  } catch (const std::exception& e) {
    die(cmd + ": " + e.what());
  }
  die("unknown subcommand " + cmd);
}
