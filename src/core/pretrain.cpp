#include "core/pretrain.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "analysis/check.hpp"
#include "expr/expr.hpp"
#include "expr/transform.hpp"
#include "model/graph.hpp"
#include "rtlgen/optimize.hpp"
#include "util/parallel.hpp"
#include "util/timer.hpp"

namespace nettag {

namespace {

// ---------------------------------------------------------------------------
// Data-parallel training-step machinery.
//
// A training step at width W > 1 splits the batch into contiguous shards,
// forwards each shard on its own model replica, detaches the shard outputs
// into leaf tensors, runs the (cheap) loss head plus its backward serially on
// the joint leaf graph, then continues the backward pass into each shard's
// replica graph in parallel — replica parameters are the per-worker gradient
// buffers, so no two threads ever touch the same gradient. The replica
// gradients are finally reduced into the master parameters in fixed shard
// order (0, 1, 2, ...), making multi-threaded runs bit-identical run-to-run
// at a fixed width. At width 1 the original joint-graph code path runs
// instead, so NETTAG_THREADS=1 reproduces the serial trainer exactly.
// ---------------------------------------------------------------------------

/// Contiguous [begin, end) batch ranges, one per shard (same split rule as
/// parallel_for so the partition is a pure function of (n, shards)).
std::vector<std::pair<int, int>> shard_ranges(int n, int shards) {
  std::vector<std::pair<int, int>> r;
  r.reserve(static_cast<std::size_t>(shards));
  for (int s = 0; s < shards; ++s) {
    r.emplace_back(n * s / shards, n * (s + 1) / shards);
  }
  return r;
}

/// Master parameters plus per-shard replica parameters (parallel index
/// order). Replicas act as per-worker gradient buffers.
struct ReplicaSet {
  std::vector<Tensor> master;
  std::vector<std::vector<Tensor>> clones;

  bool active() const { return !clones.empty(); }

  /// Copies master values into every replica and zeroes replica gradients
  /// (called once per step, before the sharded forwards).
  void refresh() {
    ThreadPool::instance().run_indexed(clones.size(), [&](std::size_t s) {
      for (std::size_t k = 0; k < master.size(); ++k) {
        clones[s][k]->value = master[k]->value;
        clones[s][k]->ensure_grad();
        clones[s][k]->zero_grad();
      }
    });
  }

  /// Accumulates replica gradients into the master gradients. The shard loop
  /// is innermost and strictly ordered (s = 0, 1, ...), so the float-addition
  /// sequence per element is fixed; parallelism is across parameters, which
  /// are independent.
  void reduce() {
    for (const Tensor& p : master) p->ensure_grad();
    ThreadPool::instance().run_indexed(master.size(), [&](std::size_t k) {
      Mat& g = master[k]->grad;
      for (std::size_t s = 0; s < clones.size(); ++s) {
        const Mat& cg = clones[s][k]->grad;
        for (std::size_t i = 0; i < g.v.size(); ++i) g.v[i] += cg.v[i];
      }
    });
  }
};

/// Copies the gradient accumulated on a detached leaf back onto the replica
/// output it shadows and continues the backward pass into the replica graph.
/// No-op when the leaf never received a gradient (output unused this step).
void backward_through_leaf(const Tensor& leaf, const Tensor& raw) {
  if (leaf->grad.v.empty()) return;
  raw->grad = leaf->grad;
  backward_seeded(raw);
}

// ---------------------------------------------------------------------------
// Checkpoint / interruption plumbing shared by both training phases.
//
// The resume contract (nn/train_state.hpp): every RNG stream a phase uses is
// forked from the caller's rng in a fixed order, so a resumed run re-derives
// the same streams, replays all *deterministic* preparation (corpus
// collection, auxiliary encoders, cone precomputation, head init), and then
// overwrites only *trained* state — model parameters from the checkpoint
// files, head values / Adam moments / the loop RNG from the TrainState
// record. Stop checks run once per loop iteration, after the optimizer
// step, so a signal always leaves a consistent "step fully applied" state.
// ---------------------------------------------------------------------------

/// Per-phase view of the TrainCheckpoint policy plus the cross-phase
/// iteration counter backing halt_after_steps.
struct PhaseCtx {
  const TrainCheckpoint* ck = nullptr;  ///< null: checkpointing/stop both off
  long* global_steps = nullptr;

  bool stop_requested() const {
    if (!ck) return false;
    if (ck->stop && ck->stop->load(std::memory_order_relaxed)) return true;
    return ck->halt_after_steps >= 0 && global_steps &&
           *global_steps >= ck->halt_after_steps;
  }
  bool checkpoint_due(long completed_steps) const {
    return ck && ck->every > 0 && completed_steps % ck->every == 0;
  }
  void count_step() const {
    if (global_steps) ++*global_steps;
  }
};

/// Training-step sanity: the loss must always be finite (a single-float
/// check, on in every build); with deep checks on, the global gradient norm
/// over `params` must additionally be finite and non-explosive before the
/// optimizer consumes it.
void check_training_step(const Tensor& loss, const std::vector<Tensor>& params,
                         const char* phase, int step) {
  NETTAG_CHECK(std::isfinite(loss->value.v[0]),
               std::string(phase) + ": loss became non-finite at step " +
                   std::to_string(step));
  if (!deep_checks_enabled()) return;
  double sq = 0.0;
  for (const Tensor& p : params) {
    for (const float g : p->grad.v) sq += static_cast<double>(g) * g;
  }
  const double norm = std::sqrt(sq);
  NETTAG_CHECK(std::isfinite(norm) && norm < 1e12,
               std::string(phase) + ": gradient norm " +
                   std::to_string(norm) + " at step " + std::to_string(step) +
                   " (non-finite or exploding)");
}

/// Applies random equivalence rewrites to an expression *text* (parse ->
/// transform -> print). Falls back to the original on parse failure (cannot
/// happen for our own printer output, but keeps the trainer total).
std::string transformed_expression(const std::string& text, int steps, Rng& rng) {
  try {
    return to_string(random_equivalent(parse_expr(text), rng, steps));
  } catch (const std::exception&) {
    return text;
  }
}

/// Shuffles the statement lines of an RTL snippet (positive-pair
/// augmentation for the RTL encoder).
std::string shuffled_lines(const std::string& text, Rng& rng) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  rng.shuffle(lines);
  std::ostringstream out;
  for (const auto& l : lines) out << l << "\n";
  return out.str();
}

/// Multiplicative jitter on layout node features (positive-pair
/// augmentation for the layout encoder: same topology, perturbed RC values).
Mat jittered_layout_features(const LayoutGraph& lg, Rng& rng) {
  Mat f = layout_features(lg);
  for (float& x : f.v) {
    x *= static_cast<float>(1.0 + rng.normal(0.0, 0.08));
  }
  return f;
}

}  // namespace

namespace {

/// Static-analysis property vector of an expression: log1p of operator
/// counts (AND/OR/XOR/NOT), tree depth, and support size.
Mat expression_properties(const std::string& text) {
  Mat y(1, 6);
  try {
    const ExprPtr e = parse_expr(text);
    int n_and = 0, n_or = 0, n_xor = 0, n_not = 0;
    std::function<void(const ExprPtr&)> walk = [&](const ExprPtr& node) {
      switch (node->kind()) {
        case ExprKind::kAnd: ++n_and; break;
        case ExprKind::kOr: ++n_or; break;
        case ExprKind::kXor: ++n_xor; break;
        case ExprKind::kNot: ++n_not; break;
        default: break;
      }
      for (const auto& c : node->children()) walk(c);
    };
    walk(e);
    y.at(0, 0) = std::log1p(static_cast<float>(n_and));
    y.at(0, 1) = std::log1p(static_cast<float>(n_or));
    y.at(0, 2) = std::log1p(static_cast<float>(n_xor));
    y.at(0, 3) = std::log1p(static_cast<float>(n_not));
    y.at(0, 4) = std::log1p(static_cast<float>(e->depth()));
    y.at(0, 5) = std::log1p(static_cast<float>(support(e).size()));
  } catch (const std::exception&) {
    // Non-expression text (shouldn't happen for our printer output).
  }
  return y;
}

}  // namespace

namespace {

/// Step-1 training loop (Objective #1 + the property auxiliary), factored so
/// pretrain() can checkpoint/resume it. `resume` (may be null) must be an
/// "expr"-phase TrainState; `save_state` (may be null) persists one. Returns
/// the per-step loss history; *stopped reports an early cooperative exit.
std::vector<float> train_expr_phase(
    TextEncoder& encoder, const std::vector<std::string>& expressions,
    const PretrainOptions& options, Rng& rng, const TrainState* resume,
    const PhaseCtx& ctx, const std::function<void(TrainState)>& save_state,
    bool* stopped) {
  *stopped = false;
  std::vector<float> losses;
  if (expressions.empty() || options.expr_steps <= 0) return losses;
  if (resume && resume->next_step > 0 &&
      resume->dataset_size != expressions.size()) {
    throw std::runtime_error(
        "resume_pretrain: expression dataset has " +
        std::to_string(expressions.size()) + " entries but the checkpoint saw " +
        std::to_string(resume->dataset_size) +
        " (corpus or options changed — resume cannot be bit-identical)");
  }
  Rng head_rng = rng.fork();
  Mlp prop_head(encoder.config().out_dim, 32, 6, head_rng);
  std::vector<Tensor> params = encoder.params();
  if (options.objective_expr_props) {
    for (const Tensor& p : prop_head.params()) params.push_back(p);
  }
  Adam opt(params, options.expr_lr);

  int start_step = 0;
  if (resume && resume->next_step > 0) {
    // Encoder weights were already loaded from the checkpoint's parameter
    // files; the rest of the trained state lives in the TrainState record.
    restore_param_values(prop_head.params(), resume->extra_params);
    opt.restore(resume->adam_t, resume->adam_m, resume->adam_v);
    rng.set_state(resume->rng_state);
    losses = resume->loss_history;
    start_step = static_cast<int>(resume->next_step);
  }

  // Encoder replicas for the sharded step (width > 1 only; at width 1 the
  // joint-graph serial path below runs instead). Replica init weights are
  // irrelevant — refresh() overwrites them each step.
  const int shards = std::min(parallel_width(), options.expr_batch);
  std::vector<std::unique_ptr<TextEncoder>> clones;
  ReplicaSet reps;
  if (shards > 1) {
    reps.master = encoder.params();
    Rng clone_rng(0);
    for (int s = 0; s < shards; ++s) {
      clones.push_back(std::make_unique<TextEncoder>(
          encoder.vocab(), encoder.config(), clone_rng));
      reps.clones.push_back(clones.back()->params());
    }
  }

  for (int step = start_step; step < options.expr_steps; ++step) {
    std::vector<std::string> anchors, positives;
    for (int b = 0; b < options.expr_batch; ++b) {
      const std::string& e = expressions[rng.index(expressions.size())];
      anchors.push_back(e);
      positives.push_back(
          transformed_expression(e, options.expr_transform_steps, rng));
    }
    Tensor a, p;
    std::vector<Tensor> raw_a(static_cast<std::size_t>(shards)),
        raw_p(static_cast<std::size_t>(shards));
    std::vector<Tensor> leaf_a, leaf_p;
    if (reps.active()) {
      reps.refresh();
      const auto ranges = shard_ranges(options.expr_batch, shards);
      ThreadPool::instance().run_indexed(
          static_cast<std::size_t>(shards), [&](std::size_t s) {
            const auto [b, e] = ranges[s];
            raw_a[s] = clones[s]->encode_batch(
                {anchors.begin() + b, anchors.begin() + e});
            raw_p[s] = clones[s]->encode_batch(
                {positives.begin() + b, positives.begin() + e});
          });
      for (int s = 0; s < shards; ++s) {
        leaf_a.push_back(make_tensor(raw_a[static_cast<std::size_t>(s)]->value, true));
        leaf_p.push_back(make_tensor(raw_p[static_cast<std::size_t>(s)]->value, true));
      }
      a = concat_rows(leaf_a);
      p = concat_rows(leaf_p);
    } else {
      a = encoder.encode_batch(anchors);
      p = encoder.encode_batch(positives);
    }
    Tensor loss = info_nce(a, p, options.temperature);
    if (options.objective_expr_props) {
      Mat targets(static_cast<int>(anchors.size()), 6);
      for (std::size_t i = 0; i < anchors.size(); ++i) {
        const Mat y = expression_properties(anchors[i]);
        for (int j = 0; j < 6; ++j) targets.at(static_cast<int>(i), j) = y.at(0, j);
      }
      loss = add(loss, mse_loss(prop_head.forward(a), targets));
    }
    backward(loss);
    if (reps.active()) {
      // Continue the backward pass through each shard's replica graph, then
      // fold replica gradients into the master encoder in shard order.
      ThreadPool::instance().run_indexed(
          static_cast<std::size_t>(shards), [&](std::size_t s) {
            backward_through_leaf(leaf_a[s], raw_a[s]);
            backward_through_leaf(leaf_p[s], raw_p[s]);
          });
      reps.reduce();
    }
    check_training_step(loss, params, "pretrain step 1 (expr)", step);
    opt.step();
    losses.push_back(loss->value.v[0]);
    ctx.count_step();
    const bool stop_now = ctx.stop_requested();
    if (save_state && (stop_now || ctx.checkpoint_due(step + 1))) {
      TrainState st;
      st.phase = "expr";
      st.next_step = static_cast<std::uint64_t>(step) + 1;
      st.rng_state = rng.state();
      st.adam_t = opt.step_count();
      st.adam_m = opt.moment1();
      st.adam_v = opt.moment2();
      st.extra_params = flatten_param_values(prop_head.params());
      st.loss_history = losses;
      st.dataset_size = expressions.size();
      save_state(std::move(st));
    }
    if (stop_now) {
      *stopped = true;
      break;
    }
  }
  return losses;
}

}  // namespace

std::pair<float, float> pretrain_expr_encoder(
    TextEncoder& encoder, const std::vector<std::string>& expressions,
    const PretrainOptions& options, Rng& rng) {
  bool stopped = false;
  const std::vector<float> losses = train_expr_phase(
      encoder, expressions, options, rng, nullptr, PhaseCtx{}, nullptr, &stopped);
  if (losses.empty()) return {0.f, 0.f};
  return {losses.front(), losses.back()};
}

void pretrain_rtl_encoder(TextEncoder& encoder,
                          const std::vector<std::string>& rtl_texts,
                          const PretrainOptions& options, Rng& rng) {
  if (rtl_texts.empty()) return;
  Adam opt(encoder.params(), options.aux_lr);
  for (int step = 0; step < options.aux_steps; ++step) {
    std::vector<std::string> anchors, positives;
    for (int b = 0; b < options.aux_batch; ++b) {
      const std::string& t = rtl_texts[rng.index(rtl_texts.size())];
      anchors.push_back(t);
      positives.push_back(shuffled_lines(t, rng));
    }
    Tensor loss = info_nce(encoder.encode_batch(anchors),
                           encoder.encode_batch(positives), options.temperature);
    backward(loss);
    opt.step();
  }
}

void pretrain_layout_encoder(Gcn& encoder,
                             const std::vector<LayoutGraph>& layouts,
                             const PretrainOptions& options, Rng& rng) {
  if (layouts.empty()) return;
  Adam opt(encoder.params(), options.aux_lr);
  for (int step = 0; step < options.aux_steps; ++step) {
    // Sample serially (rng draw order must match the serial trainer), then
    // fan the pure GCN forwards out across the pool in item order.
    std::vector<const LayoutGraph*> graphs;
    std::vector<Mat> jittered;
    for (int b = 0; b < options.aux_batch; ++b) {
      const LayoutGraph& lg = layouts[rng.index(layouts.size())];
      if (lg.node_feats.empty()) continue;
      graphs.push_back(&lg);
      jittered.push_back(jittered_layout_features(lg, rng));
    }
    std::vector<Tensor> anchors(graphs.size()), positives(graphs.size());
    ThreadPool::instance().run_indexed(graphs.size(), [&](std::size_t i) {
      const LayoutGraph& lg = *graphs[i];
      const int n = static_cast<int>(lg.node_feats.size());
      const CsrPtr adj = normalized_adjacency(n, lg.edges);
      anchors[i] = encoder.forward_graph(
          make_tensor(layout_features(lg), false), adj);
      positives[i] = encoder.forward_graph(
          make_tensor(jittered[i], false), adj);
    });
    if (anchors.size() < 2) continue;
    Tensor loss = info_nce(concat_rows(anchors), concat_rows(positives),
                           options.temperature);
    backward(loss);
    opt.step();
  }
}

namespace {

/// Everything precomputed once per cone for step 2.
struct PreparedCone {
  TagGraph tag;
  Mat features;          ///< TAGFormer input (text emb | phys) — constant
  TagGraph tag_aug;      ///< functionally-equivalent rewrite
  Mat features_aug;
  std::vector<int> gate_class;  ///< per node; -1 for non-logic
  Mat size_target;              ///< 1 x num_gate_classes, log1p counts
  Mat rtl_emb;                  ///< 1 x out_dim (frozen RTL encoder), may be empty
  Mat layout_emb;               ///< 1 x out_dim (frozen layout encoder), may be empty
};

Mat size_target_of(const Netlist& nl) {
  Mat t(1, num_gate_classes());
  for (const Gate& g : nl.gates()) {
    const int cls = gate_class_of(g.type);
    if (cls >= 0) t.at(0, cls) += 1.f;
  }
  for (float& x : t.v) x = std::log1p(x);
  return t;
}

}  // namespace

namespace {

/// `shard_exprs` (may be null): precomputed per-cone expressions for this
/// corpus (the streaming shard embed product) — used instead of re-deriving
/// them. `outer_steps` (may be null): cross-shard iteration counter backing
/// halt_after_steps across a whole streaming run.
PretrainReport pretrain_impl(NetTag& model, const Corpus& corpus,
                             const PretrainOptions& options, Rng& rng,
                             const TrainState* resume,
                             const CorpusExpressions* shard_exprs = nullptr,
                             long* outer_steps = nullptr) {
  PretrainReport report;
  Timer timer;
  const TrainCheckpoint& ck = options.checkpoint;
  long global_steps = 0;
  PhaseCtx ctx;
  if (ck.enabled() || ck.stop || ck.halt_after_steps >= 0) {
    ctx.ck = &ck;
    ctx.global_steps = outer_steps ? outer_steps : &global_steps;
  }

  // A finished run needs no recomputation: report the recorded curves.
  if (resume && resume->phase == "done") {
    report.expr_losses = resume->prior_losses;
    report.tag_losses = resume->loss_history;
    if (!report.expr_losses.empty()) {
      report.expr_loss_first = report.expr_losses.front();
      report.expr_loss_last = report.expr_losses.back();
    }
    if (!report.tag_losses.empty()) {
      report.tag_loss_first = report.tag_losses.front();
      report.tag_loss_last = report.tag_losses.back();
    }
    return report;
  }

  // Fixed-order stream derivation — the heart of bit-identical resume: each
  // phase owns a fork, so a resumed run re-derives every phase stream
  // without replaying the draws an earlier (already-trained) phase made.
  Rng rng_expr = rng.fork();
  Rng rng_aux = rng.fork();
  Rng rng_prep = rng.fork();
  Rng rng_tag = rng.fork();

  const TrainState* expr_resume =
      (resume && resume->phase == "expr") ? resume : nullptr;
  const TrainState* tag_resume =
      (resume && resume->phase == "tag") ? resume : nullptr;
  if (resume && !expr_resume && !tag_resume) {
    throw std::runtime_error("resume_pretrain: unknown checkpoint phase '" +
                             resume->phase + "'");
  }

  auto save_phase_state = [&](TrainState st, std::vector<float> prior) {
    st.prior_losses = std::move(prior);
    st.shard_index = options.checkpoint_shard;
    save_checkpoint(model, ck.prefix);
    save_train_state(train_state_path(ck.prefix), st);
  };

  // ---------------- Step 1: ExprLLM expression contrastive -----------------
  std::vector<float> expr_losses;
  if (resume && !expr_resume) {
    // Expr phase completed before the checkpoint: its trained weights came
    // from the parameter files, its curve from the record.
    expr_losses = resume->prior_losses;
  } else if (model.config().use_text_attributes && options.objective_expr_cl) {
    std::vector<std::string> exprs =
        shard_exprs ? collect_expressions(corpus, *shard_exprs)
                    : collect_expressions(corpus, model.config().k_hop);
    if (exprs.size() > options.max_expressions) {
      rng_expr.shuffle(exprs);
      exprs.resize(options.max_expressions);
    }
    report.expr_dataset_size = exprs.size();
    bool stopped = false;
    expr_losses = train_expr_phase(
        model.expr_llm(), exprs, options, rng_expr, expr_resume, ctx,
        ck.enabled() ? std::function<void(TrainState)>([&](TrainState st) {
          save_phase_state(std::move(st), {});
        })
                     : std::function<void(TrainState)>(),
        &stopped);
    model.clear_text_cache();  // encoder weights changed
    if (stopped) {
      report.interrupted = true;
      report.expr_losses = std::move(expr_losses);
      report.expr_loss_first = report.expr_losses.front();
      report.expr_loss_last = report.expr_losses.back();
      report.seconds_step1 = timer.seconds();
      return report;
    }
  }
  report.expr_losses = expr_losses;
  if (!expr_losses.empty()) {
    report.expr_loss_first = expr_losses.front();
    report.expr_loss_last = expr_losses.back();
  }
  report.seconds_step1 = timer.seconds();
  timer.reset();

  // Step-1 → step-2 boundary checkpoint: phase "tag" at step 0 with no
  // trained loop state; resuming from it re-runs step 2 from scratch on the
  // step-1 weights, exactly like the uninterrupted run.
  if (ck.enabled() && !tag_resume) {
    TrainState st;
    st.phase = "tag";
    save_phase_state(std::move(st), expr_losses);
  }

  // ---------------- Auxiliary encoders (alignment only) --------------------
  std::unique_ptr<TextEncoder> rtl_encoder;
  std::unique_ptr<Gcn> layout_encoder;
  if (options.objective_align) {
    Rng aux_rng = rng_aux.fork();
    rtl_encoder = std::make_unique<TextEncoder>(
        model.vocab(), TextEncoderConfig::small(), aux_rng);
    std::vector<std::string> rtl_texts;
    std::vector<LayoutGraph> layouts;
    for (const DesignSample& d : corpus.designs) {
      for (const ConeSample& c : d.cones) {
        if (!c.rtl_text.empty()) rtl_texts.push_back(c.rtl_text);
        if (c.has_layout && !c.layout.node_feats.empty()) {
          layouts.push_back(c.layout);
        }
      }
    }
    pretrain_rtl_encoder(*rtl_encoder, rtl_texts, options, aux_rng);
    GcnConfig gc;
    gc.in_dim = layout_feature_dim();
    gc.out_dim = model.embedding_dim();
    layout_encoder = std::make_unique<Gcn>(gc, aux_rng);
    pretrain_layout_encoder(*layout_encoder, layouts, options, aux_rng);
  }

  // ---------------- Step 2: TAGFormer multi-objective ----------------------
  // Gather cones (capped, shuffled for family balance).
  std::vector<const ConeSample*> cones;
  for (const DesignSample& d : corpus.designs) {
    for (const ConeSample& c : d.cones) cones.push_back(&c);
  }
  rng_prep.shuffle(cones);
  if (cones.size() > options.max_cones) cones.resize(options.max_cones);
  report.cones_used = cones.size();
  if (tag_resume && tag_resume->next_step > 0 &&
      tag_resume->dataset_size != cones.size()) {
    throw std::runtime_error(
        "resume_pretrain: cone dataset has " + std::to_string(cones.size()) +
        " entries but the checkpoint saw " +
        std::to_string(tag_resume->dataset_size) +
        " (corpus or options changed — resume cannot be bit-identical)");
  }
  auto save_done_state = [&](const std::vector<float>& tag_losses) {
    if (!ck.enabled()) return;
    TrainState st;
    st.phase = "done";
    st.next_step = static_cast<std::uint64_t>(options.tag_steps);
    st.loss_history = tag_losses;
    st.dataset_size = cones.size();
    save_phase_state(std::move(st), expr_losses);
  };
  if (cones.empty() || options.tag_steps <= 0) {
    save_done_state({});
    return report;
  }

  // Precompute per-cone artifacts (ExprLLM frozen => features are constant).
  auto prepare_cone = [&](const ConeSample* c, Rng& cone_rng) {
    PreparedCone p;
    p.tag = build_tag(c->cone, model.config().k_hop);
    const Mat base = model.config().use_text_attributes
                         ? Mat()
                         : netlist_base_features(c->cone);
    p.features = model.input_features(p.tag, base);
    // Functionally-equivalent augmentation (positive sample for #2.2).
    Netlist aug = cleanup(logic_rewrite(c->cone, cone_rng, 0.3));
    p.tag_aug = build_tag(aug, model.config().k_hop);
    const Mat base_aug = model.config().use_text_attributes
                             ? Mat()
                             : netlist_base_features(aug);
    p.features_aug = model.input_features(p.tag_aug, base_aug);
    p.gate_class.reserve(c->cone.size());
    for (const Gate& g : c->cone.gates()) {
      p.gate_class.push_back(gate_class_of(g.type));
    }
    p.size_target = size_target_of(c->cone);
    if (options.objective_align && rtl_encoder && !c->rtl_text.empty()) {
      p.rtl_emb = rtl_encoder->encode(c->rtl_text)->value;
    }
    if (options.objective_align && layout_encoder && c->has_layout &&
        !c->layout.node_feats.empty()) {
      const int n = static_cast<int>(c->layout.node_feats.size());
      const CsrPtr adj = normalized_adjacency(n, c->layout.edges);
      p.layout_emb = layout_encoder
                         ->forward_graph(make_tensor(layout_features(c->layout),
                                                     false),
                                         adj)
                         ->value;
    }
    return p;
  };
  std::vector<PreparedCone> prepared(cones.size());
  if (parallel_width() > 1) {
    // Fork one rng per cone serially (deterministic substreams), then
    // prepare cones in parallel — dominated by frozen-encoder forwards.
    std::vector<Rng> cone_rngs;
    cone_rngs.reserve(cones.size());
    for (std::size_t i = 0; i < cones.size(); ++i) {
      cone_rngs.push_back(rng_prep.fork());
    }
    ThreadPool::instance().run_indexed(cones.size(), [&](std::size_t i) {
      prepared[i] = prepare_cone(cones[i], cone_rngs[i]);
    });
  } else {
    for (std::size_t i = 0; i < cones.size(); ++i) {
      prepared[i] = prepare_cone(cones[i], rng_prep);
    }
  }

  // Pre-training heads. Init always runs (it consumes head_rng draws the
  // same way in fresh and resumed runs); trained values are then restored
  // over the init when resuming mid-phase.
  Rng head_rng = rng_tag.fork();
  Mlp class_head(model.embedding_dim(), 64, num_gate_classes(), head_rng);
  Mlp size_head(model.embedding_dim(), 64, num_gate_classes(), head_rng);
  Tensor mask_emb = make_param(1, model.tag_in_dim(), head_rng, 0.5f);

  std::vector<Tensor> params = model.tagformer().params();
  std::vector<Tensor> extra_params;  // saved in TrainState, fixed order
  for (const Tensor& t : class_head.params()) extra_params.push_back(t);
  for (const Tensor& t : size_head.params()) extra_params.push_back(t);
  extra_params.push_back(mask_emb);
  for (const Tensor& t : extra_params) params.push_back(t);
  Adam opt(params, options.tag_lr);

  std::vector<float> tag_losses;
  int tag_start = 0;
  if (tag_resume && tag_resume->next_step > 0) {
    restore_param_values(extra_params, tag_resume->extra_params);
    opt.restore(tag_resume->adam_t, tag_resume->adam_m, tag_resume->adam_v);
    rng_tag.set_state(tag_resume->rng_state);
    tag_losses = tag_resume->loss_history;
    tag_start = static_cast<int>(tag_resume->next_step);
  }

  // TAGFormer replicas for the sharded step (width > 1 only).
  const int tag_shards = std::min(parallel_width(), options.graph_batch);
  std::vector<std::unique_ptr<TagFormer>> tf_clones;
  ReplicaSet tf_reps;
  if (tag_shards > 1) {
    tf_reps.master = model.tagformer().params();
    Rng clone_rng(0);
    for (int s = 0; s < tag_shards; ++s) {
      tf_clones.push_back(
          std::make_unique<TagFormer>(model.tagformer().config(), clone_rng));
      tf_reps.clones.push_back(tf_clones.back()->params());
    }
  }

  for (int step = tag_start; step < options.tag_steps; ++step) {
    // Sample a batch of cones.
    std::vector<const PreparedCone*> batch;
    for (int b = 0; b < options.graph_batch; ++b) {
      batch.push_back(&prepared[rng_tag.index(prepared.size())]);
    }
    const std::size_t bsz = batch.size();
    const auto ranges = shard_ranges(static_cast<int>(bsz), tag_shards);

    // Sharded forwards: each shard runs its items on its own replica; the
    // [CLS] outputs are detached below so the loss head runs on leaves.
    std::vector<Tensor> raw_orig(bsz), raw_aug(bsz);
    if (tf_reps.active()) {
      tf_reps.refresh();
      ThreadPool::instance().run_indexed(
          static_cast<std::size_t>(tag_shards), [&](std::size_t s) {
            auto fwd = [&](const Mat& feats,
                           const std::vector<std::pair<int, int>>& edges) {
              return tf_clones[s]->forward(make_tensor(feats, false), edges);
            };
            for (int i = ranges[s].first; i < ranges[s].second; ++i) {
              const PreparedCone* p = batch[static_cast<std::size_t>(i)];
              raw_orig[static_cast<std::size_t>(i)] =
                  fwd(p->features, p->tag.edges).cls;
              if (options.objective_graph_cl) {
                raw_aug[static_cast<std::size_t>(i)] =
                    fwd(p->features_aug, p->tag_aug.edges).cls;
              }
            }
          });
    }

    std::vector<Tensor> losses;
    std::vector<Tensor> cls_orig, cls_aug, rtl_rows, layout_rows;
    bool all_aligned = true;

    for (std::size_t i = 0; i < bsz; ++i) {
      const PreparedCone* p = batch[i];
      cls_orig.push_back(
          tf_reps.active()
              ? make_tensor(raw_orig[i]->value, true)
              : model.forward_features(p->features, p->tag.edges).cls);
      // #2.3 size prediction on the graph embedding.
      if (options.objective_size) {
        losses.push_back(
            mse_loss(size_head.forward(cls_orig.back()), p->size_target));
      }
      if (options.objective_graph_cl) {
        cls_aug.push_back(
            tf_reps.active()
                ? make_tensor(raw_aug[i]->value, true)
                : model.forward_features(p->features_aug, p->tag_aug.edges).cls);
      }
      if (p->rtl_emb.rows == 1) {
        rtl_rows.push_back(make_tensor(p->rtl_emb, false));
      } else {
        all_aligned = false;
      }
      if (p->layout_emb.rows == 1) {
        layout_rows.push_back(make_tensor(p->layout_emb, false));
      } else {
        all_aligned = false;
      }
    }

    // #2.1 masked gate reconstruction on one cone per step.
    if (options.objective_mask) {
      const PreparedCone* p = batch[0];
      std::vector<int> maskable;
      for (std::size_t i = 0; i < p->gate_class.size(); ++i) {
        if (p->gate_class[i] >= 0) maskable.push_back(static_cast<int>(i));
      }
      if (maskable.size() >= 2) {
        const std::size_t k = std::max<std::size_t>(
            1, static_cast<std::size_t>(options.mask_fraction *
                                        static_cast<double>(maskable.size())));
        const auto pick = rng_tag.sample_indices(maskable.size(), k);
        Mat zeroed = p->features;
        Mat indicator(zeroed.rows, 1);
        std::vector<int> mask_nodes, mask_labels;
        for (std::size_t s : pick) {
          const int node = maskable[s];
          for (int j = 0; j < zeroed.cols; ++j) zeroed.at(node, j) = 0.f;
          indicator.at(node, 0) = 1.f;
          mask_nodes.push_back(node);
          mask_labels.push_back(p->gate_class[static_cast<std::size_t>(node)]);
        }
        Tensor feats = add(make_tensor(zeroed, false),
                           matmul(make_tensor(indicator, false), mask_emb));
        TagFormer::Output masked = model.forward_tensor(feats, p->tag.edges);
        std::vector<Tensor> rows;
        for (int node : mask_nodes) {
          rows.push_back(slice_rows(masked.nodes, node, 1));
        }
        losses.push_back(
            cross_entropy(class_head.forward(concat_rows(rows)), mask_labels));
      }
    }

    // #2.2 netlist graph contrastive.
    if (options.objective_graph_cl && cls_aug.size() >= 2) {
      losses.push_back(info_nce(concat_rows(cls_orig), concat_rows(cls_aug),
                                options.temperature));
    }
    // #3 cross-stage alignment.
    if (options.objective_align && all_aligned && cls_orig.size() >= 2) {
      Tensor n_cls = concat_rows(cls_orig);
      losses.push_back(
          info_nce(n_cls, concat_rows(rtl_rows), options.temperature));
      losses.push_back(
          info_nce(n_cls, concat_rows(layout_rows), options.temperature));
    }

    if (!losses.empty()) {
      Tensor total = losses[0];
      for (std::size_t i = 1; i < losses.size(); ++i) {
        total = add(total, losses[i]);
      }
      backward(total);
      if (tf_reps.active()) {
        ThreadPool::instance().run_indexed(
            static_cast<std::size_t>(tag_shards), [&](std::size_t s) {
              for (int i = ranges[s].first; i < ranges[s].second; ++i) {
                const std::size_t u = static_cast<std::size_t>(i);
                backward_through_leaf(cls_orig[u], raw_orig[u]);
                if (options.objective_graph_cl) {
                  backward_through_leaf(cls_aug[u], raw_aug[u]);
                }
              }
            });
        tf_reps.reduce();
      }
      check_training_step(total, params, "pretrain step 2 (tag)", step);
      opt.step();
      tag_losses.push_back(total->value.v[0]);
    }
    // Stop/checkpoint decisions run once per iteration — even for the rare
    // iteration that produced no loss — so a resumed run re-enters the loop
    // at exactly the iteration boundary the checkpoint captured.
    ctx.count_step();
    const bool stop_now = ctx.stop_requested();
    if (ck.enabled() && (stop_now || ctx.checkpoint_due(step + 1))) {
      TrainState st;
      st.phase = "tag";
      st.next_step = static_cast<std::uint64_t>(step) + 1;
      st.rng_state = rng_tag.state();
      st.adam_t = opt.step_count();
      st.adam_m = opt.moment1();
      st.adam_v = opt.moment2();
      st.extra_params = flatten_param_values(extra_params);
      st.loss_history = tag_losses;
      st.dataset_size = cones.size();
      save_phase_state(std::move(st), expr_losses);
    }
    if (stop_now) {
      report.interrupted = true;
      break;
    }
  }
  if (!report.interrupted) save_done_state(tag_losses);
  report.tag_losses = std::move(tag_losses);
  if (!report.tag_losses.empty()) {
    report.tag_loss_first = report.tag_losses.front();
    report.tag_loss_last = report.tag_losses.back();
  }
  report.seconds_step2 = timer.seconds();
  return report;
}

/// Streaming driver: trains shard after shard, each on a slice of the global
/// step budget, with one rng.fork() consumed per shard in index order (the
/// fixed-order discipline that makes mid-corpus resume bit-identical — a
/// resumed run re-derives every shard stream without reloading trained
/// shards). `resume` non-null: skip shards before resume->shard_index, hand
/// the TrainState to that shard's pretrain_impl, and run the rest fresh.
PretrainReport pretrain_streaming_impl(NetTag& model,
                                       const ShardedCorpus& corpus,
                                       const PretrainOptions& options, Rng& rng,
                                       const TrainState* resume) {
  if (!corpus.complete()) {
    throw std::runtime_error(
        "pretrain_streaming: corpus manifest is marked incomplete — finish "
        "build_corpus_stream before training");
  }
  const std::size_t shards = corpus.num_shards();
  if (shards == 0) {
    throw std::runtime_error("pretrain_streaming: corpus has no shards");
  }
  const std::size_t start_shard =
      resume ? static_cast<std::size_t>(resume->shard_index) : 0;
  if (start_shard >= shards) {
    throw std::runtime_error(
        "resume_pretrain_streaming: checkpoint shard index " +
        std::to_string(start_shard) + " out of range (corpus has " +
        std::to_string(shards) + " shards)");
  }
  // Shard expressions were embedded at the manifest's k_hop; they substitute
  // for on-the-fly derivation only when the model agrees.
  const bool reuse_exprs = corpus.k_hop() == model.config().k_hop;

  // Each phase's step budget is split across shards so the corpus-wide step
  // count matches the in-memory run's options: shard s of S gets
  // total*(s+1)/S - total*s/S steps (the remainders spread evenly).
  auto slice = [shards](int total, std::size_t s) {
    const long t = static_cast<long>(total);
    const long n = static_cast<long>(shards);
    const long lo = t * static_cast<long>(s) / n;
    const long hi = t * static_cast<long>(s + 1) / n;
    return static_cast<int>(hi - lo);
  };

  PretrainReport report;
  long global_steps = 0;  // halt_after_steps counts across shards
  for (std::size_t s = 0; s < shards; ++s) {
    Rng shard_rng = rng.fork();  // always consumed, trained or skipped
    if (s < start_shard) continue;

    const TrainState* shard_resume = (resume && s == start_shard) ? resume
                                                                  : nullptr;
    if (shard_resume && shard_resume->phase == "done") {
      // This shard finished right before the interruption: its curves come
      // from the record, and the next shard starts fresh.
      report.expr_losses.insert(report.expr_losses.end(),
                                shard_resume->prior_losses.begin(),
                                shard_resume->prior_losses.end());
      report.tag_losses.insert(report.tag_losses.end(),
                               shard_resume->loss_history.begin(),
                               shard_resume->loss_history.end());
      continue;
    }

    const ShardedCorpus::Shard shard = corpus.load(s);
    PretrainOptions so = options;
    so.expr_steps = slice(options.expr_steps, s);
    so.tag_steps = slice(options.tag_steps, s);
    so.checkpoint_shard = s;
    const PretrainReport r =
        pretrain_impl(model, shard.corpus, so, shard_rng, shard_resume,
                      reuse_exprs ? &shard.exprs : nullptr, &global_steps);

    report.expr_losses.insert(report.expr_losses.end(), r.expr_losses.begin(),
                              r.expr_losses.end());
    report.tag_losses.insert(report.tag_losses.end(), r.tag_losses.begin(),
                             r.tag_losses.end());
    report.expr_dataset_size += r.expr_dataset_size;
    report.cones_used += r.cones_used;
    report.seconds_step1 += r.seconds_step1;
    report.seconds_step2 += r.seconds_step2;
    if (r.interrupted) {
      report.interrupted = true;
      break;
    }
  }
  if (!report.expr_losses.empty()) {
    report.expr_loss_first = report.expr_losses.front();
    report.expr_loss_last = report.expr_losses.back();
  }
  if (!report.tag_losses.empty()) {
    report.tag_loss_first = report.tag_losses.front();
    report.tag_loss_last = report.tag_losses.back();
  }
  return report;
}

}  // namespace

PretrainReport pretrain(NetTag& model, const Corpus& corpus,
                        const PretrainOptions& options, Rng& rng) {
  return pretrain_impl(model, corpus, options, rng, nullptr);
}

PretrainReport resume_pretrain(NetTag& model, const Corpus& corpus,
                               const PretrainOptions& options, Rng& rng) {
  if (!options.checkpoint.enabled()) {
    throw std::runtime_error(
        "resume_pretrain: options.checkpoint.prefix is empty");
  }
  const TrainState state =
      load_train_state(train_state_path(options.checkpoint.prefix));
  // Model weights as of the checkpoint; the expression encoder must be
  // restored *before* cone preparation, whose input features it produces.
  model.load(options.checkpoint.prefix);
  return pretrain_impl(model, corpus, options, rng, &state);
}

PretrainReport pretrain_streaming(NetTag& model, const ShardedCorpus& corpus,
                                  const PretrainOptions& options, Rng& rng) {
  return pretrain_streaming_impl(model, corpus, options, rng, nullptr);
}

PretrainReport resume_pretrain_streaming(NetTag& model,
                                         const ShardedCorpus& corpus,
                                         const PretrainOptions& options,
                                         Rng& rng) {
  if (!options.checkpoint.enabled()) {
    throw std::runtime_error(
        "resume_pretrain_streaming: options.checkpoint.prefix is empty");
  }
  const TrainState state =
      load_train_state(train_state_path(options.checkpoint.prefix));
  model.load(options.checkpoint.prefix);
  return pretrain_streaming_impl(model, corpus, options, rng, &state);
}

}  // namespace nettag
