// Tests for parameter (de)serialization, the crash-safety contract of the
// checkpoint files (docs/ARCHITECTURE.md §8), and TrainState records.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/nettag.hpp"
#include "core/pretrain.hpp"
#include "netlist/io.hpp"
#include "nn/layers.hpp"
#include "nn/serialize.hpp"
#include "nn/train_state.hpp"
#include "util/atomic_io.hpp"

namespace nettag {
namespace {

TEST(Serialize, RoundTripPreservesValues) {
  Rng rng(1);
  Mlp a(4, 8, 2, rng);
  save_params("/tmp/nettag_ser_test.bin", a.params());
  Mlp b(4, 8, 2, rng);  // different init
  load_params("/tmp/nettag_ser_test.bin", b.params());
  const auto pa = a.params();
  const auto pb = b.params();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t k = 0; k < pa.size(); ++k) {
    ASSERT_EQ(pa[k]->value.v.size(), pb[k]->value.v.size());
    for (std::size_t i = 0; i < pa[k]->value.v.size(); ++i) {
      EXPECT_FLOAT_EQ(pa[k]->value.v[i], pb[k]->value.v[i]);
    }
  }
  std::remove("/tmp/nettag_ser_test.bin");
}

TEST(Serialize, ShapeMismatchRejected) {
  Rng rng(2);
  Mlp a(4, 8, 2, rng);
  save_params("/tmp/nettag_ser_test2.bin", a.params());
  Mlp wrong(5, 8, 2, rng);
  EXPECT_THROW(load_params("/tmp/nettag_ser_test2.bin", wrong.params()),
               std::runtime_error);
  std::remove("/tmp/nettag_ser_test2.bin");
}

TEST(Serialize, CountMismatchRejected) {
  Rng rng(3);
  Linear a(4, 2, rng);
  save_params("/tmp/nettag_ser_test3.bin", a.params());
  Mlp more(4, 8, 2, rng);
  EXPECT_THROW(load_params("/tmp/nettag_ser_test3.bin", more.params()),
               std::runtime_error);
  std::remove("/tmp/nettag_ser_test3.bin");
}

TEST(Serialize, MissingFileRejected) {
  Rng rng(4);
  Linear a(2, 2, rng);
  EXPECT_THROW(load_params("/tmp/definitely_missing_nettag.bin", a.params()),
               std::runtime_error);
}

TEST(Serialize, BadMagicRejected) {
  Rng rng(5);
  Linear a(2, 2, rng);
  FILE* f = std::fopen("/tmp/nettag_ser_bad.bin", "wb");
  ASSERT_NE(f, nullptr);
  const char garbage[16] = "not a model";
  std::fwrite(garbage, 1, sizeof(garbage), f);
  std::fclose(f);
  EXPECT_THROW(load_params("/tmp/nettag_ser_bad.bin", a.params()),
               std::runtime_error);
  std::remove("/tmp/nettag_ser_bad.bin");
}

TEST(Serialize, ManifestRoundTrip) {
  const std::vector<std::pair<std::string, std::string>> entries = {
      {"format", "nettag-ckpt-v1"},
      {"out_dim", "48"},
      {"note", "spaces are fine in values"},
  };
  save_manifest("/tmp/nettag_manifest_test.ckpt", entries);
  const auto back = load_manifest("/tmp/nettag_manifest_test.ckpt");
  EXPECT_EQ(back, entries);
  std::remove("/tmp/nettag_manifest_test.ckpt");

  EXPECT_THROW(load_manifest("/tmp/definitely_missing_manifest.ckpt"),
               std::runtime_error);
  EXPECT_THROW(save_manifest("/tmp/nettag_manifest_bad.ckpt",
                             {{"bad key", "value"}}),
               std::runtime_error);
}

TEST(Serialize, CheckpointRoundTripBitIdentical) {
  // Pre-train briefly, checkpoint, reload into a *fresh* differently-seeded
  // model, and require bit-identical embeddings — the serving daemon's
  // correctness rests on this.
  Rng rng(0xc0ffee);
  CorpusOptions co;
  co.designs_per_family = 1;
  co.with_physical = false;
  const Corpus corpus = build_corpus(co, rng);

  NetTagConfig mc;
  mc.expr_llm = TextEncoderConfig::tiny();
  mc.tag_d_model = 32;
  mc.out_dim = 24;
  NetTag model(mc, 5);
  PretrainOptions po;
  po.expr_steps = 6;
  po.tag_steps = 5;
  po.aux_steps = 0;
  po.max_expressions = 120;
  po.max_cones = 12;
  po.objective_align = false;
  pretrain(model, corpus, po, rng);

  const std::string prefix = "/tmp/nettag_ckpt_rt";
  save_checkpoint(model, prefix);

  const NetTagConfig readback = read_checkpoint_config(prefix);
  EXPECT_EQ(readback.out_dim, mc.out_dim);
  EXPECT_EQ(readback.tag_d_model, mc.tag_d_model);
  EXPECT_EQ(readback.expr_llm.d_model, mc.expr_llm.d_model);

  const std::unique_ptr<NetTag> loaded = load_checkpoint(prefix, /*seed=*/99);
  const Netlist nl = netlist_from_string(
      "module m source synthetic\nport a\nport b\n"
      "gate AND2 g1 a b\ngate INV g2 g1 out\nendmodule\n");
  const NetTag::ConeEmbedding want = model.embed(nl);
  const NetTag::ConeEmbedding got = loaded->embed(nl);
  ASSERT_EQ(want.nodes.v.size(), got.nodes.v.size());
  for (std::size_t i = 0; i < want.nodes.v.size(); ++i) {
    ASSERT_EQ(want.nodes.v[i], got.nodes.v[i]) << "node lane " << i;
  }
  for (std::size_t i = 0; i < want.cls.v.size(); ++i) {
    ASSERT_EQ(want.cls.v[i], got.cls.v[i]) << "cls lane " << i;
  }

  const Netlist seq = netlist_from_string(
      "module s source synthetic\nport d\nreg q\n"
      "gate AND2 g1 d q out\ndrive q g1\nendmodule\n");
  const Mat want_c = model.embed_circuit(seq);
  const Mat got_c = loaded->embed_circuit(seq);
  ASSERT_EQ(want_c.v.size(), got_c.v.size());
  for (std::size_t i = 0; i < want_c.v.size(); ++i) {
    ASSERT_EQ(want_c.v[i], got_c.v[i]) << "circuit lane " << i;
  }

  for (const char* suffix : {".ckpt", ".exprllm.bin", ".tagformer.bin"}) {
    std::remove((prefix + suffix).c_str());
  }
}

TEST(Serialize, CheckpointBadFormatRejected) {
  save_manifest("/tmp/nettag_ckpt_badfmt.ckpt",
                {{"format", "nettag-ckpt-v999"}});
  EXPECT_THROW(read_checkpoint_config("/tmp/nettag_ckpt_badfmt"),
               std::runtime_error);
  std::remove("/tmp/nettag_ckpt_badfmt.ckpt");
}

TEST(Serialize, PreLinearAttentionCheckpointRefused) {
  // A v1 manifest names the softmax multi-head TAGFormer. Its parameter
  // files must never be read into the linear-attention parameter list, even
  // when every other key is valid.
  NetTagConfig mc;
  mc.expr_llm = TextEncoderConfig::tiny();
  mc.tag_d_model = 32;
  mc.out_dim = 24;
  const NetTag model(mc, 5);
  const std::string prefix = "/tmp/nettag_ckpt_v1";
  save_checkpoint(model, prefix);
  auto entries = load_manifest(prefix + ".ckpt");
  ASSERT_EQ(entries.front().first, "format");
  EXPECT_EQ(entries.front().second, "nettag-ckpt-v2");
  entries.front().second = "nettag-ckpt-v1";
  save_manifest(prefix + ".ckpt", entries);
  std::string err;
  try {
    read_checkpoint_config(prefix);
  } catch (const std::runtime_error& e) {
    err = e.what();
  }
  EXPECT_NE(err.find("predates the linear-attention TAGFormer"), std::string::npos)
      << err;
  EXPECT_NE(err.find("retrain"), std::string::npos) << err;
  EXPECT_THROW(load_checkpoint(prefix), std::runtime_error);
  for (const char* suffix : {".ckpt", ".exprllm.bin", ".tagformer.bin"}) {
    std::remove((prefix + suffix).c_str());
  }
}

// --- crash-safety contract ---------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(static_cast<bool>(in)) << path;
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  ASSERT_TRUE(static_cast<bool>(out)) << path;
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

std::vector<float> flat_values(const std::vector<Tensor>& params) {
  return flatten_param_values(params);
}

bool file_exists(const std::string& path) {
  std::ifstream in(path);
  return static_cast<bool>(in);
}

// A crash can leave a file truncated at *any* byte. Simulate every one of
// them: the load must throw and the target parameters must be untouched —
// never a partially applied checkpoint.
TEST(Serialize, ParamsTruncatedAtEveryByteRejected) {
  const std::string path = "/tmp/nettag_ser_crash.bin";
  Rng rng(11);
  Linear saved(3, 2, rng);
  save_params(path, saved.params());
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 8u);

  Linear target(3, 2, rng);  // different init than `saved`
  const std::vector<float> before = flat_values(target.params());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, bytes.substr(0, len));
    EXPECT_THROW(load_params(path, target.params()), std::runtime_error)
        << "truncated to " << len << " of " << bytes.size() << " bytes";
    EXPECT_EQ(flat_values(target.params()), before)
        << "partial state applied at truncation length " << len;
  }
  // The intact file still loads (the harness itself is not over-strict).
  write_file(path, bytes);
  load_params(path, target.params());
  EXPECT_EQ(flat_values(target.params()), flat_values(saved.params()));
  std::remove(path.c_str());
}

TEST(Serialize, ParamsTrailingGarbageRejected) {
  const std::string path = "/tmp/nettag_ser_trail.bin";
  Rng rng(12);
  Linear saved(3, 2, rng);
  save_params(path, saved.params());
  std::string bytes = read_file(path);
  bytes.push_back('\0');
  write_file(path, bytes);
  Linear target(3, 2, rng);
  const std::vector<float> before = flat_values(target.params());
  EXPECT_THROW(load_params(path, target.params()), std::runtime_error);
  EXPECT_EQ(flat_values(target.params()), before);
  std::remove(path.c_str());
}

TEST(Serialize, WritersLeaveNoTempFileBehind) {
  const std::string bin = "/tmp/nettag_ser_notmp.bin";
  const std::string man = "/tmp/nettag_ser_notmp.ckpt";
  Rng rng(13);
  Linear l(2, 2, rng);
  save_params(bin, l.params());
  save_manifest(man, {{"format", "x"}});
  EXPECT_TRUE(file_exists(bin));
  EXPECT_TRUE(file_exists(man));
  EXPECT_FALSE(file_exists(bin + ".tmp"));
  EXPECT_FALSE(file_exists(man + ".tmp"));
  std::remove(bin.c_str());
  std::remove(man.c_str());
}

TEST(Serialize, ConcurrentWritersGetDistinctTempPaths) {
  // Two live writers targeting the same final path must never share a temp
  // file (a fixed ".tmp" suffix would make them clobber each other mid-write
  // and commit a torn mix of both payloads).
  const std::string path = "/tmp/nettag_ser_concurrent.bin";
  AtomicFileWriter a(path, /*binary=*/true);
  AtomicFileWriter b(path, /*binary=*/true);
  EXPECT_NE(a.tmp_path(), b.tmp_path());
  EXPECT_NE(a.tmp_path(), path);
  EXPECT_NE(b.tmp_path(), path);

  const std::string payload_a(256, 'A');
  const std::string payload_b(512, 'B');
  // Interleave writes: with distinct temp files neither sees the other's
  // bytes. (With a shared temp file these writes would interleave into one
  // stream and the final file would be a mix.)
  a.stream().write(payload_a.data(), 128);
  b.stream().write(payload_b.data(), 512);
  a.stream().write(payload_a.data() + 128, 128);
  a.commit();
  EXPECT_EQ(read_file(path), payload_a);
  b.commit();  // last rename wins; both are complete files
  EXPECT_EQ(read_file(path), payload_b);
  EXPECT_FALSE(file_exists(a.tmp_path()));
  EXPECT_FALSE(file_exists(b.tmp_path()));
  std::remove(path.c_str());
}

TEST(Serialize, AbandonedWriterRemovesOnlyItsOwnTempFile) {
  const std::string path = "/tmp/nettag_ser_abandon.bin";
  std::string dead_tmp;
  {
    AtomicFileWriter keeper(path, /*binary=*/false);
    keeper.stream() << "kept";
    {
      AtomicFileWriter doomed(path, /*binary=*/false);
      doomed.stream() << "discarded";
      dead_tmp = doomed.tmp_path();
      // destroyed without commit: its temp file must vanish...
    }
    EXPECT_FALSE(file_exists(dead_tmp));
    // ...while the surviving writer's temp file is untouched.
    EXPECT_TRUE(file_exists(keeper.tmp_path()));
    keeper.commit();
  }
  EXPECT_EQ(read_file(path), "kept");
  std::remove(path.c_str());
}

TEST(Serialize, CommitSurvivesCrashSimulationAtEveryStage) {
  // The commit sequence is flush -> fsync(tmp) -> rename -> fsync(dir).
  // We cannot unplug the machine in a unit test, but we can assert the
  // observable contract: after commit() returns, the final path holds the
  // complete payload and no temp file remains; before commit(), the final
  // path is untouched however much has been streamed.
  const std::string path = "/tmp/nettag_ser_stages.bin";
  write_file(path, "previous");
  AtomicFileWriter w(path, /*binary=*/true);
  const std::string big(1 << 16, 'z');  // larger than the stream buffer
  w.stream().write(big.data(), static_cast<std::streamsize>(big.size()));
  EXPECT_EQ(read_file(path), "previous") << "final path mutated pre-commit";
  w.commit();
  EXPECT_EQ(read_file(path).size(), big.size());
  EXPECT_FALSE(file_exists(w.tmp_path()));
  std::remove(path.c_str());
}

TEST(Serialize, ManifestTruncationAndCorruptionRejected) {
  const std::string path = "/tmp/nettag_man_crash.ckpt";
  const std::vector<std::pair<std::string, std::string>> entries = {
      {"format", "nettag-ckpt-v1"}, {"out_dim", "48"}};
  save_manifest(path, entries);
  const std::string bytes = read_file(path);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, bytes.substr(0, len));
    // The contract is all-or-nothing: a truncated manifest either throws or
    // (when the lost bytes carried no data — the final newline) parses to
    // exactly the full entry set. Never a partial/altered one.
    try {
      EXPECT_EQ(load_manifest(path), entries)
          << "partial parse at truncation length " << len;
    } catch (const std::runtime_error&) {
    }
  }
  // One flipped byte anywhere (body or checksum line) must be caught.
  for (std::size_t at = 0; at < bytes.size(); ++at) {
    std::string corrupt = bytes;
    corrupt[at] ^= 0x20;  // keeps printability; changes the byte
    if (corrupt[at] == '\n' || bytes[at] == '\n') continue;  // layout change
    write_file(path, corrupt);
    EXPECT_THROW(load_manifest(path), std::runtime_error)
        << "flip at byte " << at << " undetected";
  }
  write_file(path, bytes);
  EXPECT_EQ(load_manifest(path).size(), 2u);
  std::remove(path.c_str());
}

// --- TrainState records ------------------------------------------------------

TrainState sample_train_state() {
  TrainState st;
  st.phase = "tag";
  st.next_step = 17;
  st.rng_state = "123 456 789";
  st.adam_t = 17;
  Mat m(2, 3), v(2, 3);
  for (std::size_t i = 0; i < m.v.size(); ++i) {
    m.v[i] = 0.25f * static_cast<float>(i);
    v.v[i] = -1.5f + static_cast<float>(i);
  }
  st.adam_m = {m};
  st.adam_v = {v};
  st.extra_params = {1.0f, -2.0f, 3.5f};
  st.loss_history = {9.0f, 8.5f, 8.0f};
  st.prior_losses = {4.0f, 3.0f};
  st.dataset_size = 120;
  st.shard_index = 5;
  return st;
}

TEST(TrainState, RoundTripPreservesEveryField) {
  const std::string path = "/tmp/nettag_trainstate_rt.bin";
  const TrainState st = sample_train_state();
  save_train_state(path, st);
  const TrainState back = load_train_state(path);
  EXPECT_EQ(back.phase, st.phase);
  EXPECT_EQ(back.next_step, st.next_step);
  EXPECT_EQ(back.rng_state, st.rng_state);
  EXPECT_EQ(back.adam_t, st.adam_t);
  ASSERT_EQ(back.adam_m.size(), 1u);
  EXPECT_EQ(back.adam_m[0].v, st.adam_m[0].v);
  EXPECT_EQ(back.adam_m[0].rows, st.adam_m[0].rows);
  EXPECT_EQ(back.adam_v[0].v, st.adam_v[0].v);
  EXPECT_EQ(back.extra_params, st.extra_params);
  EXPECT_EQ(back.loss_history, st.loss_history);
  EXPECT_EQ(back.prior_losses, st.prior_losses);
  EXPECT_EQ(back.dataset_size, st.dataset_size);
  EXPECT_EQ(back.shard_index, st.shard_index);
  std::remove(path.c_str());
}

TEST(TrainState, TruncationAtEveryByteRejected) {
  const std::string path = "/tmp/nettag_trainstate_crash.bin";
  save_train_state(path, sample_train_state());
  const std::string bytes = read_file(path);
  ASSERT_GT(bytes.size(), 16u);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    write_file(path, bytes.substr(0, len));
    EXPECT_THROW(load_train_state(path), std::runtime_error)
        << "truncated to " << len << " of " << bytes.size() << " bytes";
  }
  std::string padded = bytes;
  padded.push_back('x');
  write_file(path, padded);
  EXPECT_THROW(load_train_state(path), std::runtime_error);
  write_file(path, bytes);
  EXPECT_EQ(load_train_state(path).phase, "tag");
  std::remove(path.c_str());
}

// --- read_checkpoint_config validation ---------------------------------------

std::string config_error(const std::string& prefix) {
  try {
    read_checkpoint_config(prefix);
  } catch (const std::exception& e) {
    return e.what();
  }
  return "";
}

TEST(Serialize, CheckpointConfigRejectsDuplicateKeysWithLines) {
  const std::string prefix = "/tmp/nettag_ckpt_dup";
  save_manifest(prefix + ".ckpt", {{"format", "nettag-ckpt-v2"},
                                   {"out_dim", "48"},
                                   {"out_dim", "64"}});
  const std::string err = config_error(prefix);
  EXPECT_NE(err.find("duplicate key 'out_dim'"), std::string::npos) << err;
  EXPECT_NE(err.find("line 3"), std::string::npos) << err;   // the duplicate
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;   // the original
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CheckpointConfigRejectsBadIntegers) {
  const std::string prefix = "/tmp/nettag_ckpt_badint";
  for (const char* bad : {"banana", "0", "-3", "12junk", "99999999999"}) {
    save_manifest(prefix + ".ckpt",
                  {{"format", "nettag-ckpt-v2"}, {"tag_layers", bad}});
    const std::string err = config_error(prefix);
    EXPECT_NE(err.find("tag_layers"), std::string::npos)
        << "value '" << bad << "': " << err;
    EXPECT_FALSE(err.empty()) << "value '" << bad << "' accepted";
  }
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CheckpointConfigRejectsIndivisibleHeads) {
  const std::string prefix = "/tmp/nettag_ckpt_heads";
  save_manifest(prefix + ".ckpt", {{"format", "nettag-ckpt-v2"},
                                   {"expr_d_model", "10"},
                                   {"expr_num_heads", "4"}});
  const std::string err = config_error(prefix);
  EXPECT_NE(err.find("must divide"), std::string::npos) << err;
  std::remove((prefix + ".ckpt").c_str());
}

TEST(Serialize, CheckpointConfigRejectsBadBoolean) {
  const std::string prefix = "/tmp/nettag_ckpt_bool";
  save_manifest(prefix + ".ckpt", {{"format", "nettag-ckpt-v2"},
                                   {"use_text_attributes", "yes"}});
  const std::string err = config_error(prefix);
  EXPECT_NE(err.find("use_text_attributes"), std::string::npos) << err;
  std::remove((prefix + ".ckpt").c_str());
}

}  // namespace
}  // namespace nettag
