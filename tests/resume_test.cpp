// Bit-identical training resume (docs/ARCHITECTURE.md §8): a run interrupted
// at an arbitrary step and resumed from its checkpoint must end in *exactly*
// the state of the uninterrupted run — same parameter bytes, same loss curve.
// These tests interrupt deterministically via TrainCheckpoint::halt_after_steps
// (which follows the same finish-the-step-then-checkpoint path as a real
// SIGINT/SIGTERM) at points inside each phase and at the phase boundary.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/pretrain.hpp"
#include "nn/train_state.hpp"
#include "tasks/finetune.hpp"
#include "util/checksum.hpp"

namespace nettag {
namespace {

NetTagConfig tiny_config() {
  NetTagConfig cfg;
  cfg.expr_llm = TextEncoderConfig::tiny();
  cfg.tag_d_model = 32;
  cfg.out_dim = 24;
  return cfg;
}

PretrainOptions small_options() {
  PretrainOptions po;
  po.expr_steps = 6;
  po.tag_steps = 5;
  po.aux_steps = 0;
  po.max_expressions = 120;
  po.max_cones = 12;
  po.objective_align = false;
  return po;
}

const Corpus& shared_corpus() {
  static const Corpus corpus = [] {
    Rng rng(0xc0ffee);
    CorpusOptions co;
    co.designs_per_family = 1;
    co.with_physical = false;
    return build_corpus(co, rng);
  }();
  return corpus;
}

std::vector<float> model_params(const NetTag& model) {
  std::vector<float> out = flatten_param_values(model.expr_llm().params());
  const std::vector<float> tag = flatten_param_values(model.tagformer().params());
  out.insert(out.end(), tag.begin(), tag.end());
  return out;
}

void remove_checkpoint(const std::string& prefix) {
  for (const char* suffix :
       {".ckpt", ".exprllm.bin", ".tagformer.bin", ".trainer.bin"}) {
    std::remove((prefix + suffix).c_str());
  }
}

struct RunResult {
  std::vector<float> params;
  PretrainReport report;
};

/// One complete or interrupted pre-training run from a fixed seed. With
/// halt_after >= 0 the run stops after that many loop steps and leaves a
/// checkpoint under `prefix`.
RunResult run_pretrain(const std::string& prefix, long halt_after,
                       int every = 0) {
  NetTag model(tiny_config(), 5);
  PretrainOptions po = small_options();
  po.checkpoint.prefix = prefix;
  po.checkpoint.every = every;
  po.checkpoint.halt_after_steps = halt_after;
  Rng rng(7);
  RunResult out;
  out.report = pretrain(model, shared_corpus(), po, rng);
  out.params = model_params(model);
  return out;
}

/// Resumes a run interrupted under `prefix`. The model seed deliberately
/// differs from run_pretrain's — every trained value must come from the
/// checkpoint, not from construction. halt_after >= 0 interrupts the resumed
/// run itself (counted over steps executed in this call).
RunResult resume_run(const std::string& prefix, long halt_after = -1) {
  NetTag model(tiny_config(), 99);
  PretrainOptions po = small_options();
  po.checkpoint.prefix = prefix;
  po.checkpoint.halt_after_steps = halt_after;
  Rng rng(7);
  RunResult out;
  out.report = resume_pretrain(model, shared_corpus(), po, rng);
  out.params = model_params(model);
  return out;
}

void expect_identical(const RunResult& resumed, const RunResult& baseline) {
  ASSERT_EQ(resumed.params.size(), baseline.params.size());
  for (std::size_t i = 0; i < resumed.params.size(); ++i) {
    ASSERT_EQ(resumed.params[i], baseline.params[i]) << "param lane " << i;
  }
  EXPECT_EQ(resumed.report.expr_losses, baseline.report.expr_losses);
  EXPECT_EQ(resumed.report.tag_losses, baseline.report.tag_losses);
  EXPECT_EQ(resumed.report.expr_loss_first, baseline.report.expr_loss_first);
  EXPECT_EQ(resumed.report.expr_loss_last, baseline.report.expr_loss_last);
  EXPECT_EQ(resumed.report.tag_loss_first, baseline.report.tag_loss_first);
  EXPECT_EQ(resumed.report.tag_loss_last, baseline.report.tag_loss_last);
  EXPECT_FALSE(resumed.report.interrupted);
}

TEST(PretrainResume, MidExprPhaseBitIdentical) {
  const std::string prefix = "/tmp/nettag_resume_expr";
  const RunResult baseline = run_pretrain(/*prefix=*/"", /*halt_after=*/-1);
  const RunResult halted = run_pretrain(prefix, /*halt_after=*/3);
  EXPECT_TRUE(halted.report.interrupted);
  EXPECT_EQ(halted.report.expr_losses.size(), 3u);
  const TrainState st = load_train_state(train_state_path(prefix));
  EXPECT_EQ(st.phase, "expr");
  EXPECT_EQ(st.next_step, 3u);
  expect_identical(resume_run(prefix), baseline);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, ChainedResumesAcrossPhaseBoundaryBitIdentical) {
  const std::string prefix = "/tmp/nettag_resume_boundary";
  const RunResult baseline = run_pretrain("", -1);
  // Halt exactly at the end of step 1: the record is still an "expr"
  // checkpoint (the step-1/step-2 handoff record is only written once the
  // phase completes without a stop).
  const RunResult halted = run_pretrain(prefix, /*halt_after=*/6);
  EXPECT_TRUE(halted.report.interrupted);
  const TrainState st = load_train_state(train_state_path(prefix));
  EXPECT_EQ(st.phase, "expr");
  EXPECT_EQ(st.next_step, 6u);
  // Resume across the boundary, then interrupt again two tag steps in — a
  // second-generation checkpoint of the resumed process.
  const RunResult mid = resume_run(prefix, /*halt_after=*/2);
  EXPECT_TRUE(mid.report.interrupted);
  const TrainState st2 = load_train_state(train_state_path(prefix));
  EXPECT_EQ(st2.phase, "tag");
  EXPECT_EQ(st2.next_step, 2u);
  // The final resume of the twice-interrupted run matches the single
  // uninterrupted one exactly.
  expect_identical(resume_run(prefix), baseline);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, MidTagPhaseWithPeriodicCheckpointsBitIdentical) {
  const std::string prefix = "/tmp/nettag_resume_tag";
  const RunResult baseline = run_pretrain("", -1);
  // Periodic checkpoints every 2 steps must not perturb the math either.
  const RunResult halted = run_pretrain(prefix, /*halt_after=*/8, /*every=*/2);
  EXPECT_TRUE(halted.report.interrupted);
  const TrainState st = load_train_state(train_state_path(prefix));
  EXPECT_EQ(st.phase, "tag");
  EXPECT_EQ(st.next_step, 2u);
  EXPECT_EQ(st.prior_losses.size(), 6u);  // full expr curve travels along
  expect_identical(resume_run(prefix), baseline);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, CompletedRunResumesAsNoOp) {
  const std::string prefix = "/tmp/nettag_resume_done";
  const RunResult finished = run_pretrain(prefix, /*halt_after=*/-1);
  EXPECT_FALSE(finished.report.interrupted);
  const TrainState st = load_train_state(train_state_path(prefix));
  EXPECT_EQ(st.phase, "done");
  const RunResult again = resume_run(prefix);
  expect_identical(again, finished);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, DatasetSizeMismatchRejected) {
  const std::string prefix = "/tmp/nettag_resume_mismatch";
  run_pretrain(prefix, /*halt_after=*/3);
  // A resume whose options prepare a different dataset cannot be
  // bit-identical; the recorded dataset size catches it up front.
  NetTag model(tiny_config(), 99);
  PretrainOptions po = small_options();
  po.max_expressions = 60;  // original prepared 120
  po.checkpoint.prefix = prefix;
  Rng r(7);
  EXPECT_THROW(resume_pretrain(model, shared_corpus(), po, r),
               std::runtime_error);
  remove_checkpoint(prefix);
}

TEST(PretrainResume, MissingCheckpointRejected) {
  NetTag model(tiny_config(), 99);
  PretrainOptions po = small_options();
  po.checkpoint.prefix = "/tmp/definitely_missing_nettag_resume";
  Rng rng(7);
  EXPECT_THROW(resume_pretrain(model, shared_corpus(), po, rng),
               std::runtime_error);
}

TEST(PretrainResume, PreLinearAttentionTrainStateRejected) {
  // Rewrite a real record as the pre-linear-attention "NTS2" version, with
  // a valid CRC, so only the version can refuse it.
  const std::string prefix = "/tmp/nettag_resume_nts2";
  run_pretrain(prefix, /*halt_after=*/8);  // stops inside the tag phase
  const std::string path = prefix + ".trainer.bin";
  std::string buf;
  {
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(static_cast<bool>(in));
    buf.assign(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
  }
  ASSERT_GT(buf.size(), 8u);
  buf.resize(buf.size() - sizeof(std::uint32_t));
  const std::uint32_t nts2 = 0x4e545332;
  std::memcpy(buf.data(), &nts2, sizeof(nts2));
  const std::uint32_t crc = crc32(buf);
  buf.append(reinterpret_cast<const char*>(&crc), sizeof(crc));
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(buf.data(), static_cast<std::streamsize>(buf.size()));
  }
  NetTag model(tiny_config(), 99);
  PretrainOptions po = small_options();
  po.checkpoint.prefix = prefix;
  Rng rng(7);
  std::string err;
  try {
    resume_pretrain(model, shared_corpus(), po, rng);
  } catch (const std::runtime_error& e) {
    err = e.what();
  }
  EXPECT_NE(err.find("NTS2"), std::string::npos) << err;
  EXPECT_NE(err.find("linear attention"), std::string::npos) << err;
  remove_checkpoint(prefix);
}

// --- fine-tuning heads -------------------------------------------------------

Mat synthetic_features(int rows, int cols) {
  Mat x(rows, cols);
  Rng rng(31);
  for (float& v : x.v) v = static_cast<float>(rng.normal());
  return x;
}

TEST(FinetuneResume, ClassifierHeadBitIdentical) {
  const std::string prefix = "/tmp/nettag_resume_cls";
  const Mat x = synthetic_features(48, 6);
  std::vector<int> y(48);
  for (int i = 0; i < 48; ++i) y[i] = i % 3;
  FinetuneOptions fo;
  fo.steps = 20;
  fo.batch = 16;
  fo.hidden = 8;

  Rng init(5);
  ClassifierHead baseline(6, 3, fo, init);
  Rng fit_rng(9);
  EXPECT_TRUE(baseline.fit(x, y, fit_rng));

  FinetuneOptions fo2 = fo;
  fo2.checkpoint.prefix = prefix;
  fo2.checkpoint.halt_after_steps = 7;
  Rng init2(5);
  ClassifierHead halted(6, 3, fo2, init2);
  Rng fit2(9);
  EXPECT_FALSE(halted.fit(x, y, fit2));  // stopped early, record saved
  EXPECT_EQ(load_train_state(train_state_path(prefix)).phase, "head");

  FinetuneOptions fo3 = fo;
  fo3.checkpoint.prefix = prefix;
  Rng init3(77);  // construction state must not matter after resume
  ClassifierHead resumed(6, 3, fo3, init3);
  Rng fit3(9);
  EXPECT_TRUE(resumed.resume_fit(x, y, fit3));

  const Mat want = baseline.scores(x);
  const Mat got = resumed.scores(x);
  ASSERT_EQ(want.v.size(), got.v.size());
  for (std::size_t i = 0; i < want.v.size(); ++i) {
    ASSERT_EQ(want.v[i], got.v[i]) << "score lane " << i;
  }
  std::remove(train_state_path(prefix).c_str());
}

TEST(FinetuneResume, RegressorHeadBitIdentical) {
  const std::string prefix = "/tmp/nettag_resume_reg";
  const Mat x = synthetic_features(40, 5);
  std::vector<double> y(40);
  for (int i = 0; i < 40; ++i) y[i] = 0.25 * i - 3.0;
  FinetuneOptions fo;
  fo.steps = 18;
  fo.batch = 10;
  fo.hidden = 8;

  Rng init(5);
  RegressorHead baseline(5, fo, init);
  Rng fit_rng(9);
  EXPECT_TRUE(baseline.fit(x, y, fit_rng));

  FinetuneOptions fo2 = fo;
  fo2.checkpoint.prefix = prefix;
  fo2.checkpoint.halt_after_steps = 5;
  Rng init2(5);
  RegressorHead halted(5, fo2, init2);
  Rng fit2(9);
  EXPECT_FALSE(halted.fit(x, y, fit2));

  FinetuneOptions fo3 = fo;
  fo3.checkpoint.prefix = prefix;
  Rng init3(77);
  RegressorHead resumed(5, fo3, init3);
  Rng fit3(9);
  EXPECT_TRUE(resumed.resume_fit(x, y, fit3));

  const std::vector<double> want = baseline.predict(x);
  const std::vector<double> got = resumed.predict(x);
  ASSERT_EQ(want.size(), got.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(want[i], got[i]) << "prediction " << i;
  }
  std::remove(train_state_path(prefix).c_str());
}

TEST(FinetuneResume, DatasetMismatchRejected) {
  const std::string prefix = "/tmp/nettag_resume_headmm";
  const Mat x = synthetic_features(30, 4);
  std::vector<int> y(30, 0);
  for (int i = 0; i < 30; i += 2) y[i] = 1;
  FinetuneOptions fo;
  fo.steps = 12;
  fo.batch = 8;
  fo.hidden = 8;
  fo.checkpoint.prefix = prefix;
  fo.checkpoint.halt_after_steps = 4;
  Rng init(5);
  ClassifierHead halted(4, 2, fo, init);
  Rng fit_rng(9);
  EXPECT_FALSE(halted.fit(x, y, fit_rng));

  const Mat wrong = synthetic_features(20, 4);  // different row count
  std::vector<int> wy(20, 0);
  FinetuneOptions fo2 = fo;
  fo2.checkpoint.halt_after_steps = -1;
  Rng init2(5);
  ClassifierHead resumed(4, 2, fo2, init2);
  Rng fit2(9);
  EXPECT_THROW(resumed.resume_fit(wrong, wy, fit2), std::runtime_error);
  std::remove(train_state_path(prefix).c_str());
}

}  // namespace
}  // namespace nettag
