// nettag_lint — standalone lint driver for NetTAG datasets (CI gate).
//
// Modes:
//   nettag_lint [flags] <path>...      lint serialized .nl netlists (a
//                                      directory is expanded to its *.nl
//                                      files, recursively)
//   nettag_lint [flags] --generate D   generate a small corpus with the
//                                      real pipeline, dump the design
//                                      netlists into D, and lint the full
//                                      in-memory corpus (cones, TAGs,
//                                      layout graphs, labels included)
//   nettag_lint [flags] --shards D     validate and lint a sharded corpus
//                                      directory (core/corpus_stream.hpp):
//                                      manifest + per-shard checksums, then
//                                      the full corpus rules shard by shard
//                                      (one shard in RAM at a time)
//   nettag_lint --rules                print the rule catalog and exit
//
// Flags:
//   --json           machine-readable report on stdout
//   --deep           enable semantic rules (TG004 cone/expression match)
//   --max-fanout N   NL007 bound (default 64)
//   --disable RULE   skip a rule id (repeatable)
//   --designs N      designs per family for --generate (default 1)
//   --seed S         generation seed (default 0x5eed)
//   --no-physical    skip the physical flow in --generate (no layout/labels)
//
// Exit codes: 0 clean (warnings allowed), 1 error-severity findings,
// 2 usage / IO failure. CI runs `nettag_lint --generate lint-data --json`
// and fails the build on nonzero exit.
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "analysis/lint.hpp"
#include "core/corpus_stream.hpp"
#include "core/dataset.hpp"
#include "core/tag.hpp"
#include "netlist/io.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace fs = std::filesystem;
using namespace nettag;

namespace {

void usage(std::FILE* to) {
  std::fprintf(to,
               "usage: nettag_lint [--json] [--deep] [--max-fanout N]\n"
               "                   [--disable RULE]... <path>...\n"
               "       nettag_lint [--json] [--deep] --generate DIR\n"
               "                   [--designs N] [--seed S] [--no-physical]\n"
               "       nettag_lint [--json] [--deep] --shards DIR\n"
               "       nettag_lint --rules\n");
}

void print_rules() {
  for (const RuleInfo& r : rule_catalog()) {
    std::printf("%-6s %-8s %-22s [%s] %s\n", r.id, severity_name(r.severity),
                r.name, r.family, r.description);
  }
}

/// Expands one CLI path argument into .nl files to lint.
std::vector<fs::path> expand_path(const fs::path& p) {
  std::vector<fs::path> out;
  std::error_code ec;
  if (fs::is_directory(p, ec)) {
    for (const auto& entry : fs::recursive_directory_iterator(p, ec)) {
      if (entry.is_regular_file() && entry.path().extension() == ".nl") {
        out.push_back(entry.path());
      }
    }
    std::sort(out.begin(), out.end());
  } else {
    out.push_back(p);
  }
  return out;
}

/// Lints one serialized netlist file. Parse failures become IO001 error
/// diagnostics instead of aborting the run, so one corrupt file does not
/// hide findings in the rest of the dataset.
LintReport lint_file(const fs::path& path, const LintOptions& opts) {
  LintReport report;
  std::ifstream is(path);
  if (!is) {
    report.add("IO001", Severity::kError, path.string(),
               "cannot open file for reading");
    return report;
  }
  Netlist nl;
  try {
    nl = read_netlist(is);
  } catch (const std::exception& e) {
    report.add("IO001", Severity::kError, path.string(),
               std::string("parse failed: ") + e.what());
    return report;
  }
  LintReport file_report = lint_netlist(nl, opts);
  if (opts.deep && !file_report.has_errors()) {
    // Semantic pass: rebuild the TAG and check attribute/cone agreement.
    file_report.merge(lint_tag(nl, build_tag(nl, opts.k_hop), opts));
  }
  report.merge(file_report, path.string());
  return report;
}

/// Runs the real generation pipeline, dumps the design netlists, and lints
/// the complete in-memory corpus (all modalities, not just netlists).
LintReport lint_generated(const fs::path& dir, int designs_per_family,
                          std::uint64_t seed, bool with_physical,
                          const LintOptions& opts) {
  LintReport report;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    report.add("IO001", Severity::kError, dir.string(),
               "cannot create output directory: " + ec.message());
    return report;
  }
  CorpusOptions copts;
  copts.designs_per_family = designs_per_family;
  copts.with_physical = with_physical;
  copts.k_hop = opts.k_hop;
  Rng rng(seed);
  const Corpus corpus = build_corpus(copts, rng);
  for (const DesignSample& d : corpus.designs) {
    const fs::path out = dir / (d.gen.netlist.name() + ".nl");
    std::ofstream os(out);
    if (!os) {
      report.add("IO001", Severity::kError, out.string(),
                 "cannot open file for writing");
      continue;
    }
    write_netlist(os, d.gen.netlist);
  }
  report.merge(lint_corpus(corpus, opts));
  if (opts.deep) {
    // Corpus-level lint keeps deep rules off (they rerun per cone below
    // with the TAG actually fed to the model).
    for (const DesignSample& d : corpus.designs) {
      for (const ConeSample& c : d.cones) {
        report.merge(lint_tag(c.cone, build_tag(c.cone, opts.k_hop), opts),
                     d.gen.netlist.name() + "/" + c.register_name);
      }
    }
  }
  return report;
}

/// Validates and lints a sharded corpus directory. Manifest or shard
/// integrity failures (truncation, checksum mismatch — the reader reports
/// the exact line and byte offset) become IO001 errors; intact shards run
/// the same corpus rules as --generate, one shard in RAM at a time.
LintReport lint_shards(const fs::path& dir, const LintOptions& opts) {
  LintReport report;
  std::unique_ptr<ShardedCorpus> corpus;
  try {
    corpus = std::make_unique<ShardedCorpus>(dir.string());
  } catch (const std::exception& e) {
    report.add("IO001", Severity::kError, dir.string(), e.what());
    return report;
  }
  if (!corpus->complete()) {
    report.add("IO001", Severity::kWarning, dir.string(),
               "corpus manifest is marked incomplete (build was interrupted; "
               "resumable)");
  }
  LintOptions sopts = opts;
  sopts.k_hop = corpus->k_hop();  // match the shard-embedded expressions
  for (std::size_t s = 0; s < corpus->num_shards(); ++s) {
    ShardedCorpus::Shard shard;
    try {
      shard = corpus->load(s);
    } catch (const std::exception& e) {
      report.add("IO001", Severity::kError, corpus->shard_path(s), e.what());
      continue;
    }
    report.merge(lint_corpus(shard.corpus, sopts));
    if (sopts.deep) {
      for (const DesignSample& d : shard.corpus.designs) {
        for (const ConeSample& c : d.cones) {
          report.merge(lint_tag(c.cone, build_tag(c.cone, sopts.k_hop), sopts),
                       d.gen.netlist.name() + "/" + c.register_name);
        }
      }
    }
  }
  return report;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool rules_only = false;
  bool with_physical = true;
  int designs_per_family = 1;
  std::uint64_t seed = 0x5eed;
  fs::path generate_dir;
  bool generate = false;
  fs::path shards_dir;
  bool shards = false;
  LintOptions opts;
  std::vector<fs::path> paths;

  auto need_value = [&](int i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "nettag_lint: %s requires a value\n", argv[i]);
      usage(stderr);
      std::exit(2);
    }
    return argv[i + 1];
  };
  auto need_int = [&](int i, long long lo, long long hi) -> long long {
    long long v = 0;
    std::string err;
    if (!cli::parse_int(need_value(i), lo, hi, &v, &err)) {
      std::fprintf(stderr, "nettag_lint: %s: %s\n", argv[i], err.c_str());
      std::exit(2);
    }
    return v;
  };

  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--json")) {
      json = true;
    } else if (!std::strcmp(arg, "--rules")) {
      rules_only = true;
    } else if (!std::strcmp(arg, "--deep")) {
      opts.deep = true;
    } else if (!std::strcmp(arg, "--no-physical")) {
      with_physical = false;
    } else if (!std::strcmp(arg, "--max-fanout")) {
      opts.max_fanout = static_cast<std::size_t>(need_int(i, 1, 1 << 20));
      ++i;
    } else if (!std::strcmp(arg, "--disable")) {
      opts.disabled.insert(need_value(i));
      ++i;
    } else if (!std::strcmp(arg, "--generate")) {
      generate = true;
      generate_dir = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--shards")) {
      shards = true;
      shards_dir = need_value(i);
      ++i;
    } else if (!std::strcmp(arg, "--designs")) {
      designs_per_family = static_cast<int>(need_int(i, 1, 1 << 20));
      ++i;
    } else if (!std::strcmp(arg, "--seed")) {
      std::string err;
      if (!cli::parse_u64(need_value(i), &seed, &err)) {
        std::fprintf(stderr, "nettag_lint: --seed: %s\n", err.c_str());
        return 2;
      }
      ++i;
    } else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      usage(stdout);
      return 0;
    } else if (arg[0] == '-') {
      std::fprintf(stderr, "nettag_lint: unknown flag %s\n", arg);
      usage(stderr);
      return 2;
    } else {
      paths.emplace_back(arg);
    }
  }

  if (rules_only) {
    print_rules();
    return 0;
  }
  if (generate && shards) {
    std::fprintf(stderr, "nettag_lint: --generate and --shards are exclusive\n");
    return 2;
  }
  if (!generate && !shards && paths.empty()) {
    usage(stderr);
    return 2;
  }
  if (generate && designs_per_family < 1) {
    std::fprintf(stderr, "nettag_lint: --designs must be >= 1\n");
    return 2;
  }

  LintReport report;
  std::size_t files = 0;
  try {
    if (generate) {
      report = lint_generated(generate_dir, designs_per_family, seed,
                              with_physical, opts);
    } else if (shards) {
      report = lint_shards(shards_dir, opts);
    } else {
      for (const fs::path& p : paths) {
        for (const fs::path& file : expand_path(p)) {
          report.merge(lint_file(file, opts));
          ++files;
        }
      }
      if (files == 0) {
        std::fprintf(stderr, "nettag_lint: no .nl files found\n");
        return 2;
      }
    }
  } catch (const std::exception& e) {
    // The generation pipeline's own seams throw on error-severity findings;
    // surface them as a lint failure rather than a crash.
    report.add("IO002", Severity::kError, "pipeline",
               std::string("generation failed: ") + e.what());
  }

  if (json) {
    std::printf("%s\n", to_json(report).c_str());
  } else {
    if (!report.empty()) std::printf("%s", to_text(report).c_str());
    std::printf("nettag_lint: %zu finding(s), %zu error(s)\n", report.size(),
                report.count(Severity::kError));
  }
  return report.has_errors() ? 1 : 0;
}
