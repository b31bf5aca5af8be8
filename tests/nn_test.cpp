// Autograd correctness: finite-difference gradient checks for every op,
// the sparse graph kernels (CSR adjacency, spmm, linear attention) against
// dense references, Mat dimension hardening, ensure_grad zeroing on reallocation, plus
// end-to-end training sanity (XOR learning, InfoNCE convergence).
#include <gtest/gtest.h>

#include <climits>
#include <cmath>
#include <functional>

#include "analysis/check.hpp"
#include "model/graph.hpp"
#include "nn/layers.hpp"
#include "nn/tensor.hpp"

namespace nettag {
namespace {

/// Finite-difference gradient check: `build` must construct the loss graph
/// from scratch using `params` (leaf tensors with requires_grad).
void gradcheck(const std::function<Tensor()>& build,
               const std::vector<Tensor>& params, float tol = 2e-2f,
               float h = 1e-3f) {
  // Analytic gradients.
  for (const Tensor& p : params) {
    p->ensure_grad();
    p->zero_grad();
  }
  Tensor loss = build();
  backward(loss);
  for (const Tensor& p : params) {
    ASSERT_TRUE(p->requires_grad);
    for (std::size_t i = 0; i < p->value.v.size(); ++i) {
      const float orig = p->value.v[i];
      p->value.v[i] = orig + h;
      const float up = build()->value.v[0];
      p->value.v[i] = orig - h;
      const float down = build()->value.v[0];
      p->value.v[i] = orig;
      const float numeric = (up - down) / (2 * h);
      const float analytic = p->grad.v[i];
      const float denom = std::max({std::abs(numeric), std::abs(analytic), 1.f});
      EXPECT_NEAR(analytic / denom, numeric / denom, tol)
          << "param entry " << i << " analytic=" << analytic
          << " numeric=" << numeric;
    }
  }
}

Tensor rand_param(int r, int c, std::uint64_t seed) {
  Rng rng(seed);
  Mat m(r, c);
  for (float& x : m.v) x = static_cast<float>(rng.normal(0, 0.8));
  return make_tensor(std::move(m), true);
}

Mat rand_mat(int r, int c, std::uint64_t seed) {
  Rng rng(seed);
  Mat m(r, c);
  for (float& x : m.v) x = static_cast<float>(rng.normal(0, 0.8));
  return m;
}

// Reduce any matrix to a scalar for gradcheck via a fixed weighting.
Tensor to_scalar(const Tensor& t) {
  const int n = t->value.rows, d = t->value.cols;
  Mat w(d, 1);
  for (int i = 0; i < d; ++i) w.at(i, 0) = 0.3f + 0.1f * static_cast<float>(i);
  Tensor wt = make_tensor(std::move(w), false);
  Tensor col = matmul(t, wt);  // Nx1
  Mat u(1, n);
  for (int i = 0; i < n; ++i) u.at(0, i) = 0.5f + 0.05f * static_cast<float>(i);
  return matmul(make_tensor(std::move(u), false), col);  // 1x1
}

TEST(Autograd, MatmulGrad) {
  Tensor a = rand_param(3, 4, 1);
  Tensor b = rand_param(4, 2, 2);
  gradcheck([&] { return to_scalar(matmul(a, b)); }, {a, b});
}

TEST(Autograd, AddSubMulGrad) {
  Tensor a = rand_param(3, 3, 3);
  Tensor b = rand_param(3, 3, 4);
  gradcheck([&] { return to_scalar(add(a, b)); }, {a, b});
  gradcheck([&] { return to_scalar(sub(a, b)); }, {a, b});
  gradcheck([&] { return to_scalar(mul(a, b)); }, {a, b});
}

TEST(Autograd, AddRowvecGrad) {
  Tensor a = rand_param(4, 3, 5);
  Tensor b = rand_param(1, 3, 6);
  gradcheck([&] { return to_scalar(add_rowvec(a, b)); }, {a, b});
}

TEST(Autograd, ActivationGrads) {
  Tensor a = rand_param(3, 4, 7);
  gradcheck([&] { return to_scalar(relu(a)); }, {a});
  gradcheck([&] { return to_scalar(gelu(a)); }, {a});
  gradcheck([&] { return to_scalar(tanh_op(a)); }, {a});
  gradcheck([&] { return to_scalar(sigmoid(a)); }, {a});
}

TEST(Autograd, ShapeOpGrads) {
  Tensor a = rand_param(4, 3, 8);
  Tensor b = rand_param(4, 2, 9);
  gradcheck([&] { return to_scalar(transpose(a)); }, {a});
  gradcheck([&] { return to_scalar(concat_cols(a, b)); }, {a, b});
  gradcheck([&] { return to_scalar(slice_rows(a, 1, 2)); }, {a});
  gradcheck([&] { return to_scalar(mean_rows(a)); }, {a});
  gradcheck([&] { return to_scalar(sum_rows(a)); }, {a});
}

TEST(Autograd, SoftmaxGrad) {
  Tensor a = rand_param(3, 5, 10);
  gradcheck([&] { return to_scalar(softmax_rows(a)); }, {a});
}

TEST(Autograd, LayerNormGrad) {
  Tensor a = rand_param(3, 6, 11);
  Tensor g = rand_param(1, 6, 12);
  Tensor b = rand_param(1, 6, 13);
  gradcheck([&] { return to_scalar(layernorm_rows(a, g, b)); }, {a, g, b},
            4e-2f);
}

TEST(Autograd, EmbeddingGrad) {
  Tensor table = rand_param(7, 4, 14);
  const std::vector<int> ids = {2, 5, 2, 0};
  gradcheck([&] { return to_scalar(embedding(table, ids)); }, {table});
}

TEST(Autograd, NormalizeGrad) {
  Tensor a = rand_param(3, 4, 15);
  gradcheck([&] { return to_scalar(normalize_rows(a)); }, {a});
}

TEST(Autograd, CrossEntropyGrad) {
  Tensor logits = rand_param(4, 3, 16);
  const std::vector<int> targets = {0, 2, 1, 2};
  gradcheck([&] { return cross_entropy(logits, targets); }, {logits});
}

TEST(Autograd, MseGrad) {
  Tensor pred = rand_param(3, 2, 17);
  const Mat target = rand_mat(3, 2, 18);
  gradcheck([&] { return mse_loss(pred, target); }, {pred});
}

TEST(Autograd, InfoNceGrad) {
  Tensor a = rand_param(4, 6, 19);
  Tensor p = rand_param(4, 6, 20);
  gradcheck([&] { return info_nce(a, p, 0.2f); }, {a, p}, 3e-2f);
}

TEST(Autograd, CompositeGraphGrad) {
  // A small transformer-ish composite to exercise graph reuse.
  Tensor x = rand_param(4, 6, 21);
  Tensor w = rand_param(6, 6, 22);
  gradcheck(
      [&] {
        Tensor h = relu(matmul(x, w));
        Tensor s = softmax_rows(matmul(h, transpose(h)));
        return to_scalar(matmul(s, h));
      },
      {x, w}, 3e-2f);
}

TEST(Autograd, SharedNodeGradAccumulates) {
  // f = sum(a*a + a) — a appears twice; grads must accumulate once each.
  Tensor a = rand_param(2, 2, 23);
  gradcheck([&] { return to_scalar(add(mul(a, a), a)); }, {a});

  // Diamond: tanh feeds relu and sigmoid, whose paths reconverge in a mul
  // with the tanh output itself. Fixed inputs keep relu off its kink.
  Tensor x = make_tensor(Mat(2, 4), true);
  for (std::size_t i = 0; i < x->value.v.size(); ++i) {
    x->value.v[i] = 0.25f * static_cast<float>(i) - 0.8f;
  }
  gradcheck(
      [&] {
        Tensor t = tanh_op(x);
        return to_scalar(mul(add(relu(t), sigmoid(t)), t));
      },
      {x});

  // Repeated parent: both row blocks of concat_rows({y, y}) accumulate into
  // y's single gradient buffer.
  Tensor y = rand_param(2, 3, 24);
  Tensor w = rand_param(3, 2, 25);
  gradcheck([&] { return to_scalar(matmul(concat_rows({y, y}), w)); }, {y, w});
}

TEST(Autograd, OpOutputGradientAllocatedByBackward) {
  // A forward that never runs backward (a serve embed) must not pay for
  // gradient buffers: op outputs get one on the first backward write.
  Tensor a = rand_param(2, 3, 26);
  Tensor h = relu(a);
  Tensor loss = to_scalar(h);
  EXPECT_TRUE(h->grad.v.empty());
  EXPECT_TRUE(loss->grad.v.empty());
  backward(loss);
  EXPECT_EQ(h->grad.rows, 2);
  EXPECT_EQ(h->grad.cols, 3);
  EXPECT_EQ(a->grad.v.size(), 6u);
}

// --- graph kernels: CSR adjacency, spmm, linear attention -------------------

/// D^-1/2 (A + I) D^-1/2 built densely, step for step as the dense builder
/// that the CSR one replaced: the reference its values must equal exactly.
Mat dense_normalized_adjacency(int n,
                               const std::vector<std::pair<int, int>>& edges) {
  Mat a(n, n);
  for (int i = 0; i < n; ++i) a.at(i, i) = 1.f;
  for (const auto& [u, v] : edges) {
    a.at(u, v) = 1.f;
    a.at(v, u) = 1.f;
  }
  std::vector<float> deg(static_cast<std::size_t>(n), 0.f);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) deg[static_cast<std::size_t>(i)] += a.at(i, j);
  }
  for (int i = 0; i < n; ++i) {
    const float di = 1.f / std::sqrt(std::max(deg[static_cast<std::size_t>(i)], 1.f));
    for (int j = 0; j < n; ++j) {
      const float dj = 1.f / std::sqrt(std::max(deg[static_cast<std::size_t>(j)], 1.f));
      a.at(i, j) *= di * dj;
    }
  }
  return a;
}

Mat to_dense(const Csr& a) {
  Mat m(a.rows, a.cols);
  for (int i = 0; i < a.rows; ++i) {
    for (int p = a.row_ptr[static_cast<std::size_t>(i)];
         p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      m.at(i, a.col[static_cast<std::size_t>(p)]) += a.val[static_cast<std::size_t>(p)];
    }
  }
  return m;
}

/// Exact equality with the dense reference, plus CSR well-formedness: no
/// stored zeros, strictly ascending columns within each row.
void expect_matches_dense(const Csr& a, const Mat& want) {
  ASSERT_EQ(a.rows, want.rows);
  ASSERT_EQ(a.cols, want.cols);
  const Mat got = to_dense(a);
  for (std::size_t i = 0; i < want.v.size(); ++i) {
    ASSERT_EQ(got.v[i], want.v[i]) << "entry " << i;
  }
  std::size_t nonzero = 0;
  for (float x : want.v) nonzero += x != 0.f ? 1 : 0;
  EXPECT_EQ(a.nnz(), nonzero);
  for (int i = 0; i < a.rows; ++i) {
    for (int p = a.row_ptr[static_cast<std::size_t>(i)] + 1;
         p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      EXPECT_LT(a.col[static_cast<std::size_t>(p) - 1],
                a.col[static_cast<std::size_t>(p)])
          << "row " << i;
    }
  }
}

TEST(GraphKernels, CsrAdjacencyEqualsDenseReference) {
  // Duplicate, reversed and self-loop edges, and an isolated node (5).
  const std::vector<std::pair<int, int>> edges = {
      {0, 1}, {1, 0}, {0, 1}, {2, 2}, {1, 2}, {3, 4}, {4, 3}, {2, 0}, {4, 4}};
  expect_matches_dense(*normalized_adjacency(6, edges),
                       dense_normalized_adjacency(6, edges));

  // A random multigraph with many repeats and self loops, and the TAGFormer
  // form of it with the virtual [CLS] node appended at index n.
  Rng rng(77);
  const int n = 40;
  std::vector<std::pair<int, int>> random_edges;
  for (int e = 0; e < 150; ++e) {
    random_edges.emplace_back(static_cast<int>(rng.index(n)),
                              static_cast<int>(rng.index(n)));
  }
  random_edges.push_back(random_edges.front());
  random_edges.emplace_back(random_edges.back().second, random_edges.back().first);
  expect_matches_dense(*normalized_adjacency(n, random_edges),
                       dense_normalized_adjacency(n, random_edges));
  std::vector<std::pair<int, int>> with_cls = random_edges;
  for (int i = 0; i < n; ++i) with_cls.emplace_back(i, n);
  expect_matches_dense(*tag_adjacency(n, random_edges),
                       dense_normalized_adjacency(n + 1, with_cls));

  EXPECT_EQ(normalized_adjacency(0, {})->nnz(), 0u);
  EXPECT_THROW(normalized_adjacency(3, {{0, 3}}), CheckError);
  EXPECT_THROW(normalized_adjacency(3, {{-1, 0}}), CheckError);
}

TEST(GraphKernels, SpmmMatchesDenseAndGradChecks) {
  // Rectangular and asymmetric, with an empty row: the backward must gather
  // through the true transpose, not assume a symmetric adjacency.
  auto a = std::make_shared<Csr>();
  a->rows = 3;
  a->cols = 4;
  a->row_ptr = {0, 2, 2, 5};
  a->col = {0, 3, 1, 2, 3};
  a->val = {0.5f, -1.2f, 0.7f, 2.f, 0.3f};
  const CsrPtr sparse = a;
  Tensor x = rand_param(4, 3, 40);
  const Tensor got = spmm(sparse, x);
  const Tensor want = matmul(make_tensor(to_dense(*sparse), false), x);
  ASSERT_EQ(got->value.rows, 3);
  for (std::size_t i = 0; i < want->value.v.size(); ++i) {
    EXPECT_NEAR(got->value.v[i], want->value.v[i], 1e-6f);
  }
  gradcheck([&] { return to_scalar(spmm(sparse, x)); }, {x});
  const CsrPtr adj = normalized_adjacency(4, {{0, 1}, {1, 2}, {3, 3}});
  gradcheck([&] { return to_scalar(relu(spmm(adj, spmm(adj, x)))); }, {x});
  EXPECT_THROW(spmm(adj, rand_param(5, 3, 41)), CheckError);
}

TEST(GraphKernels, LinearAttentionGrad) {
  // Fused op: covers the Frobenius normalization of q and k, the K^T V and
  // K^T 1 reductions, and the row-wise division.
  Tensor q = rand_param(5, 3, 42);
  Tensor k = rand_param(5, 3, 43);
  Tensor v = rand_param(5, 4, 44);
  gradcheck([&] { return to_scalar(linear_attention(q, k, v)); }, {q, k, v});
  // One input feeding all three projections accumulates three gradients.
  Tensor x = rand_param(4, 3, 45);
  Tensor w = rand_param(3, 3, 46);
  gradcheck(
      [&] {
        Tensor h = matmul(x, w);
        return to_scalar(linear_attention(h, tanh_op(h), h));
      },
      {x, w});
}

TEST(GraphKernels, LinearAttentionMatchesNaiveDenseFormula) {
  // out_i = (v_i + sum_j (Q_i . K_j) v_j / M) / (1 + sum_j (Q_i . K_j) / M)
  // with Q, K Frobenius-normalized — evaluated here through the explicit
  // M x M score matrix the op never forms.
  const int m = 9, d = 4, dv = 5;
  const Mat q = rand_mat(m, d, 47), k = rand_mat(m, d, 48), v = rand_mat(m, dv, 49);
  const Tensor out = linear_attention(make_tensor(q), make_tensor(k), make_tensor(v));
  ASSERT_EQ(out->value.rows, m);
  ASSERT_EQ(out->value.cols, dv);
  auto frob = [](const Mat& x) {
    double s = 0;
    for (float e : x.v) s += static_cast<double>(e) * e;
    return std::sqrt(s);
  };
  const double qn = frob(q), kn = frob(k);
  for (int i = 0; i < m; ++i) {
    double den = 1.0;
    std::vector<double> num(static_cast<std::size_t>(dv));
    for (int c = 0; c < dv; ++c) num[static_cast<std::size_t>(c)] = v.at(i, c);
    for (int j = 0; j < m; ++j) {
      double score = 0;
      for (int p = 0; p < d; ++p) score += (q.at(i, p) / qn) * (k.at(j, p) / kn);
      den += score / m;
      for (int c = 0; c < dv; ++c) {
        num[static_cast<std::size_t>(c)] += score * v.at(j, c) / m;
      }
    }
    for (int c = 0; c < dv; ++c) {
      EXPECT_NEAR(out->value.at(i, c), num[static_cast<std::size_t>(c)] / den, 1e-5)
          << "row " << i << " col " << c;
    }
  }
  EXPECT_THROW(linear_attention(make_tensor(q), make_tensor(rand_mat(m, d + 1, 50)),
                                make_tensor(v)),
               CheckError);
}

TEST(Autograd, DropoutEvalIsIdentity) {
  Rng rng(1);
  Tensor a = rand_param(3, 3, 24);
  Tensor out = dropout(a, 0.5f, /*train=*/false, rng);
  EXPECT_EQ(out.get(), a.get());
}

TEST(Autograd, DropoutTrainScales) {
  Rng rng(2);
  Mat m(1, 1000);
  std::fill(m.v.begin(), m.v.end(), 1.f);
  Tensor a = make_tensor(std::move(m), false);
  Tensor out = dropout(a, 0.5f, true, rng);
  double sum = 0;
  for (float x : out->value.v) sum += x;
  // Inverted dropout keeps the expectation ~ 1000.
  EXPECT_NEAR(sum / 1000.0, 1.0, 0.15);
}

// --- Mat dimension hardening -------------------------------------------------

TEST(MatHardening, NegativeDimensionsThrow) {
  EXPECT_THROW(Mat(-1, 4), CheckError);
  EXPECT_THROW(Mat(4, -1), CheckError);
  EXPECT_THROW(Mat(-3, -3), CheckError);
}

TEST(MatHardening, RowsTimesColsOverflowThrows) {
  // INT_MAX * INT_MAX ~ 4.6e18 elements: far beyond the element cap, and
  // without the guarded multiply it wraps std::size_t arithmetic paths.
  EXPECT_THROW(Mat(INT_MAX, INT_MAX), CheckError);
  // ~1.2e12 elements: each factor is individually fine, the product is not.
  EXPECT_THROW(Mat(1'100'000, 1'100'000), CheckError);
}

TEST(MatHardening, ZeroAndModestShapesAllowed) {
  EXPECT_NO_THROW(Mat(0, INT_MAX));
  EXPECT_NO_THROW(Mat(INT_MAX, 0));
  Mat m(3, 5);
  EXPECT_EQ(m.size(), 15u);
}

// --- ensure_grad must zero on shape-mismatch realloc -------------------------

TEST(EnsureGrad, ZeroesOnShapeMismatchRealloc) {
  Tensor t = make_tensor(Mat(2, 3), true);
  ASSERT_EQ(t->grad.rows, 2);
  for (auto& g : t->grad.v) g = 42.f;
  t->value = Mat(3, 2);  // reshaped mid-graph
  t->ensure_grad();
  ASSERT_EQ(t->grad.rows, 3);
  ASSERT_EQ(t->grad.cols, 2);
  for (const float g : t->grad.v) EXPECT_EQ(g, 0.f);
}

TEST(EnsureGrad, NoStaleGradientAcrossReshapedSteps) {
  // Step 1: accumulate a nonzero gradient into x at shape 1x2.
  Tensor x = make_tensor(Mat(1, 2), true);
  x->value.at(0, 0) = 1.f;
  x->value.at(0, 1) = 2.f;
  auto scalar_loss = [](const Tensor& t) {
    return sum_rows(transpose(sum_rows(t)));  // NxD -> 1x1
  };
  backward(scalar_loss(mul(x, x)));
  ASSERT_NE(x->grad.at(0, 0), 0.f);

  // Step 2: reshape the same leaf and rerun. The fresh gradient must equal
  // the one computed on a brand-new node — no bytes from step 1 may leak.
  x->value = Mat(2, 2);
  for (int i = 0; i < 4; ++i) x->value.v[static_cast<std::size_t>(i)] = 1.f + i;
  x->ensure_grad();
  backward(scalar_loss(mul(x, x)));

  Tensor fresh = make_tensor(x->value, true);
  backward(scalar_loss(mul(fresh, fresh)));
  ASSERT_EQ(x->grad.v, fresh->grad.v);
}

TEST(Layers, ShapesAndParamCounts) {
  Rng rng(3);
  Linear lin(8, 4, rng);
  EXPECT_EQ(lin.num_params(), 8u * 4 + 4);
  Tensor x = rand_param(5, 8, 25);
  Tensor y = lin.forward(x);
  EXPECT_EQ(y->value.rows, 5);
  EXPECT_EQ(y->value.cols, 4);

  TransformerBlock blk(8, 2, 16, rng);
  Tensor z = blk.forward(rand_param(6, 8, 26));
  EXPECT_EQ(z->value.rows, 6);
  EXPECT_EQ(z->value.cols, 8);

  Mlp mlp(8, 16, 3, rng);
  Tensor p = mlp.forward(rand_param(2, 8, 27));
  EXPECT_EQ(p->value.cols, 3);
}

TEST(Layers, TransformerBlockGradFlows) {
  Rng rng(4);
  TransformerBlock blk(8, 2, 12, rng);
  Tensor x = rand_param(5, 8, 28);
  Tensor loss = to_scalar(blk.forward(x));
  backward(loss);
  // Every block parameter must receive some gradient signal.
  int nonzero_params = 0;
  for (const Tensor& p : blk.params()) {
    double s = 0;
    for (float g : p->grad.v) s += std::abs(g);
    if (s > 0) ++nonzero_params;
  }
  EXPECT_GT(nonzero_params, static_cast<int>(blk.params().size()) - 3);
}

TEST(Training, MlpLearnsXor) {
  Rng rng(5);
  Mlp mlp(2, 16, 2, rng);
  Adam opt(mlp.params(), 5e-3f);
  Mat x(4, 2);
  const int xs[4][2] = {{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<int> ys = {0, 1, 1, 0};
  for (int i = 0; i < 4; ++i) {
    x.at(i, 0) = static_cast<float>(xs[i][0]);
    x.at(i, 1) = static_cast<float>(xs[i][1]);
  }
  Tensor input = make_tensor(x, false);
  float final_loss = 1e9f;
  for (int step = 0; step < 400; ++step) {
    Tensor loss = cross_entropy(mlp.forward(input), ys);
    backward(loss);
    opt.step();
    final_loss = loss->value.v[0];
  }
  EXPECT_LT(final_loss, 0.1f);
  // Predictions correct.
  Tensor logits = mlp.forward(input);
  for (int i = 0; i < 4; ++i) {
    const int pred = logits->value.at(i, 0) > logits->value.at(i, 1) ? 0 : 1;
    EXPECT_EQ(pred, ys[static_cast<std::size_t>(i)]) << "sample " << i;
  }
}

TEST(Training, InfoNceAlignsPairs) {
  // Two trainable embedding sets; InfoNCE must pull matched rows together.
  Rng rng(6);
  Tensor a = make_param(6, 8, rng, 1.0f);
  Tensor b = make_param(6, 8, rng, 1.0f);
  Adam opt({a, b}, 1e-2f);
  float first = 0, last = 0;
  for (int step = 0; step < 150; ++step) {
    Tensor loss = info_nce(a, b, 0.2f);
    if (step == 0) first = loss->value.v[0];
    backward(loss);
    opt.step();
    last = loss->value.v[0];
  }
  EXPECT_LT(last, first * 0.5f);
  // Matched rows are now the most similar.
  Tensor an = normalize_rows(a);
  Tensor bn = normalize_rows(b);
  Tensor sim = matmul(an, transpose(bn));
  for (int i = 0; i < 6; ++i) {
    int best = 0;
    for (int j = 1; j < 6; ++j) {
      if (sim->value.at(i, j) > sim->value.at(i, best)) best = j;
    }
    EXPECT_EQ(best, i);
  }
}

TEST(Adam, ConvergesOnQuadratic) {
  Rng rng(7);
  Tensor p = make_param(1, 4, rng, 2.0f);
  Adam opt({p}, 5e-2f);
  Mat target(1, 4);
  target.at(0, 0) = 1.f;
  target.at(0, 1) = -2.f;
  target.at(0, 2) = 0.5f;
  target.at(0, 3) = 3.f;
  for (int i = 0; i < 500; ++i) {
    Tensor loss = mse_loss(p, target);
    backward(loss);
    opt.step();
  }
  for (int j = 0; j < 4; ++j) {
    EXPECT_NEAR(p->value.at(0, j), target.at(0, j), 0.05f);
  }
}

}  // namespace
}  // namespace nettag
