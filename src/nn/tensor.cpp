#include "nn/tensor.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "analysis/check.hpp"
#include "nn/gemm.hpp"
#include "nn/packed.hpp"
#include "util/parallel.hpp"

namespace nettag {

namespace {

/// "RxC" shape string for check messages.
std::string sh(const Mat& m) {
  return std::to_string(m.rows) + "x" + std::to_string(m.cols);
}

/// Deep-mode guard: every entry of `m` must be finite.
void check_finite(const Mat& m, const char* op, const char* what) {
  for (std::size_t i = 0; i < m.v.size(); ++i) {
    NETTAG_CHECK(std::isfinite(m.v[i]),
                 std::string(op) + ": non-finite " + what + " at element " +
                     std::to_string(i) + " of " + sh(m));
  }
}

/// Builds an op node: value + parents + a gradient closure that receives the
/// finished output node (so it can read out->grad). Parents are captured by
/// shared_ptr inside the node, keeping the graph alive until backward().
/// `op` names the operation in invariant-violation messages.
Tensor make_op(const char* op, Mat value, std::vector<Tensor> parents,
               std::function<void(Node*)> grad_fn) {
  if (deep_checks_enabled()) check_finite(value, op, "forward output");
  bool rg = false;
  for (const Tensor& p : parents) rg = rg || p->requires_grad;
  // The gradient is allocated by the first backward write (ensure_grad), so
  // a forward that never runs backward, such as a serve embed, allocates none.
  auto node = std::make_shared<Node>(std::move(value));
  node->requires_grad = rg;
  node->op = op;
  if (rg) {
    node->parents = std::move(parents);
    Node* raw = node.get();
    node->backward_fn = [raw, fn = std::move(grad_fn)]() { fn(raw); };
  }
  return node;
}

void accumulate(Node* p, const Mat& delta) {
  if (!p->requires_grad) return;
  p->ensure_grad();
  NETTAG_CHECK(p->grad.v.size() == delta.v.size(),
               "accumulate: gradient shape " + sh(p->grad) +
                   " vs delta shape " + sh(delta));
  float* g = p->grad.v.data();
  const float* d = delta.v.data();
  parallel_for(delta.v.size(), par::kMinOps,
               [g, d](std::size_t b, std::size_t e) {
                 for (std::size_t i = b; i < e; ++i) g[i] += d[i];
               });
}

/// Row partition for per-row kernels (softmax, layernorm, ...): each row is
/// written by exactly one task, so results are bit-identical at any width.
void for_rows(int n, std::size_t per_row_cost, std::size_t min_ops,
              const std::function<void(int, int)>& body) {
  parallel_for(static_cast<std::size_t>(n), par::grain(per_row_cost, min_ops),
               [&body](std::size_t b, std::size_t e) {
                 body(static_cast<int>(b), static_cast<int>(e));
               });
}

/// Element partition for elementwise kernels.
void for_elems(std::size_t n, std::size_t min_ops,
               const std::function<void(std::size_t, std::size_t)>& body) {
  parallel_for(n, min_ops, body);
}

}  // namespace

Tensor make_tensor(Mat m, bool requires_grad) {
  return std::make_shared<Node>(std::move(m), requires_grad);
}

Tensor make_param(int rows, int cols, Rng& rng, float scale) {
  Mat m(rows, cols);
  const float stddev = scale / std::sqrt(static_cast<float>(cols));
  for (float& x : m.v) x = static_cast<float>(rng.normal(0.0, stddev));
  return make_tensor(std::move(m), true);
}

Tensor scalar(float v) {
  Mat m(1, 1);
  m.v[0] = v;
  return make_tensor(std::move(m), false);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  NETTAG_CHECK(a->value.cols == b->value.rows,
               "matmul: inner dimensions differ: " + sh(a->value) + " x " +
                   sh(b->value));
  const int n = a->value.rows, k = a->value.cols, m = b->value.cols;
  Mat out(n, m);
  if (b->packed) {
    // Serve-time int8 path (nn/packed.hpp): b carries a packed copy of its
    // fp32 weights. Inference-only — backward still reads the fp32 values.
    packed_matmul(a->value, *b->packed, &out);
  } else {
    gemm_nn(n, k, m, a->value.v.data(), b->value.v.data(), out.v.data());
  }
  Node* an = a.get();
  Node* bn = b.get();
  return make_op("matmul", std::move(out), {a, b}, [an, bn, n, k, m](Node* o) {
    const float* g = o->grad.v.data();
    if (an->requires_grad) {
      an->ensure_grad();
      // dA[i,p] = sum_j dOut[i,j] B[p,j]
      gemm_nt(n, k, m, g, bn->value.v.data(), an->grad.v.data());
    }
    if (bn->requires_grad) {
      bn->ensure_grad();
      // dB[p,j] = sum_i A[i,p] dOut[i,j]
      gemm_tn(n, k, m, an->value.v.data(), g, bn->grad.v.data());
    }
  });
}

namespace {

/// out[i,:] += sum_p val[p] * x[col[p],:] over every row i of `a`. Rows are
/// split over the pool and each is written by one task, in column order.
void csr_gather(const Csr& a, const float* x, int d, float* out) {
  const std::size_t avg_nnz =
      std::max<std::size_t>(1, a.nnz() / static_cast<std::size_t>(std::max(a.rows, 1)));
  for_rows(a.rows, avg_nnz * static_cast<std::size_t>(d), par::kMinOps,
           [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      float* o = out + static_cast<std::size_t>(i) * d;
      for (int p = a.row_ptr[static_cast<std::size_t>(i)];
           p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
        const float w = a.val[static_cast<std::size_t>(p)];
        const float* xr =
            x + static_cast<std::size_t>(a.col[static_cast<std::size_t>(p)]) * d;
        for (int j = 0; j < d; ++j) o[j] += w * xr[j];
      }
    }
  });
}

/// A^T by a stable counting sort on columns: each transposed row lists its
/// entries in ascending original-row order.
Csr csr_transpose(const Csr& a) {
  Csr t;
  t.rows = a.cols;
  t.cols = a.rows;
  t.row_ptr.assign(static_cast<std::size_t>(a.cols) + 1, 0);
  for (int c : a.col) ++t.row_ptr[static_cast<std::size_t>(c) + 1];
  for (std::size_t i = 1; i < t.row_ptr.size(); ++i) t.row_ptr[i] += t.row_ptr[i - 1];
  t.col.resize(a.nnz());
  t.val.resize(a.nnz());
  std::vector<int> next(t.row_ptr.begin(), t.row_ptr.end() - 1);
  for (int i = 0; i < a.rows; ++i) {
    for (int p = a.row_ptr[static_cast<std::size_t>(i)];
         p < a.row_ptr[static_cast<std::size_t>(i) + 1]; ++p) {
      const auto at = static_cast<std::size_t>(
          next[static_cast<std::size_t>(a.col[static_cast<std::size_t>(p)])]++);
      t.col[at] = i;
      t.val[at] = a.val[static_cast<std::size_t>(p)];
    }
  }
  return t;
}

/// Frobenius inner product <a, b> in a width-independent order: one partial
/// per row (each row summed by one task), then a serial sum over rows.
double frobenius_dot(const Mat& a, const Mat& b) {
  std::vector<double> part(static_cast<std::size_t>(a.rows));
  for_rows(a.rows, static_cast<std::size_t>(a.cols), par::kMinOps,
           [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      double s = 0.0;
      for (int j = 0; j < a.cols; ++j) {
        s += static_cast<double>(a.at(i, j)) * static_cast<double>(b.at(i, j));
      }
      part[static_cast<std::size_t>(i)] = s;
    }
  });
  double s = 0.0;
  for (double p : part) s += p;
  return s;
}

/// x / ||x||_F; `norm` receives the divisor (with a tiny epsilon so an
/// all-zero x stays finite).
Mat frobenius_normalize(const Mat& x, float* norm) {
  const float nm = static_cast<float>(std::sqrt(frobenius_dot(x, x))) + 1e-8f;
  *norm = nm;
  Mat out = x;
  float* o = out.v.data();
  for_elems(out.v.size(), par::kMinOps, [o, nm](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) o[i] /= nm;
  });
  return out;
}

/// Gradient of x -> x / ||x||_F: grad += (dxh - xh <dxh, xh>) / norm.
void frobenius_normalize_backward(const Mat& xh, const Mat& dxh, float norm,
                                  Mat& grad) {
  const float dot = static_cast<float>(frobenius_dot(dxh, xh));
  float* g = grad.v.data();
  const float* d = dxh.v.data();
  const float* y = xh.v.data();
  for_elems(grad.v.size(), par::kMinOps, [=](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) g[i] += (d[i] - y[i] * dot) / norm;
  });
}

}  // namespace

Tensor spmm(const CsrPtr& a, const Tensor& x) {
  NETTAG_CHECK(a && a->cols == x->value.rows &&
                   a->row_ptr.size() == static_cast<std::size_t>(a->rows) + 1,
               "spmm: sparse operand " +
                   (a ? std::to_string(a->rows) + "x" + std::to_string(a->cols)
                      : std::string("(null)")) +
                   " does not fit dense operand " + sh(x->value));
  const int d = x->value.cols;
  Mat out(a->rows, d);
  csr_gather(*a, x->value.v.data(), d, out.v.data());
  Node* xn = x.get();
  return make_op("spmm", std::move(out), {x}, [a, xn, d](Node* o) {
    if (!xn->requires_grad) return;
    xn->ensure_grad();
    // dX = A^T dOut, gathered row by row: no two tasks write one row.
    csr_gather(csr_transpose(*a), o->grad.v.data(), d, xn->grad.v.data());
  });
}

Tensor linear_attention(const Tensor& q, const Tensor& k, const Tensor& v) {
  const int m = q->value.rows, d = q->value.cols, dv = v->value.cols;
  NETTAG_CHECK(m > 0 && k->value.rows == m && k->value.cols == d &&
                   v->value.rows == m,
               "linear_attention: q " + sh(q->value) + ", k " + sh(k->value) +
                   ", v " + sh(v->value) +
                   " (want q, k: M x d and v: M x dv, M > 0)");
  const float inv_m = 1.f / static_cast<float>(m);
  float q_norm = 0.f, k_norm = 0.f;
  Mat qh = frobenius_normalize(q->value, &q_norm);
  Mat kh = frobenius_normalize(k->value, &k_norm);
  // kv = K^T V (d x dv) and ksum = K^T 1 (d x 1): the only global reductions.
  Mat kv(d, dv);
  gemm_tn(m, d, dv, kh.v.data(), v->value.v.data(), kv.v.data());
  const std::vector<float> ones(static_cast<std::size_t>(m), 1.f);
  std::vector<float> ksum(static_cast<std::size_t>(d), 0.f);
  gemm_tn(m, d, 1, kh.v.data(), ones.data(), ksum.data());
  Mat out(m, dv);
  gemm_nn(m, d, dv, qh.v.data(), kv.v.data(), out.v.data());
  std::vector<float> den(static_cast<std::size_t>(m));
  for_rows(m, static_cast<std::size_t>(d + dv), par::kMinOps, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      float qs = 0.f;
      for (int p = 0; p < d; ++p) qs += qh.at(i, p) * ksum[static_cast<std::size_t>(p)];
      const float dn = 1.f + qs * inv_m;
      den[static_cast<std::size_t>(i)] = dn;
      for (int j = 0; j < dv; ++j) {
        out.at(i, j) = (v->value.at(i, j) + out.at(i, j) * inv_m) / dn;
      }
    }
  });
  Node* qn = q.get();
  Node* kn = k.get();
  Node* vn = v.get();
  return make_op(
      "linear_attention", std::move(out), {q, k, v},
      [qn, kn, vn, m, d, dv, inv_m, q_norm, k_norm, qh = std::move(qh),
       kh = std::move(kh), kv = std::move(kv), ksum = std::move(ksum),
       den = std::move(den)](Node* o) {
        // Through the row division: dnum = G / den, dden = -<G, out> / den.
        Mat gn(m, dv);
        std::vector<float> dden(static_cast<std::size_t>(m));
        for_rows(m, static_cast<std::size_t>(dv) * 2, par::kMinOps,
                 [&](int i0, int i1) {
          for (int i = i0; i < i1; ++i) {
            const float dn = den[static_cast<std::size_t>(i)];
            float dot = 0.f;
            for (int j = 0; j < dv; ++j) {
              gn.at(i, j) = o->grad.at(i, j) / dn;
              dot += o->grad.at(i, j) * o->value.at(i, j);
            }
            dden[static_cast<std::size_t>(i)] = -dot / dn;
          }
        });
        // dkv = Q^T dnum / M and dksum = Q^T dden / M.
        Mat dkv(d, dv);
        gemm_tn(m, d, dv, qh.v.data(), gn.v.data(), dkv.v.data());
        for (float& x : dkv.v) x *= inv_m;
        std::vector<float> dksum(static_cast<std::size_t>(d), 0.f);
        gemm_tn(m, d, 1, qh.v.data(), dden.data(), dksum.data());
        for (float& x : dksum) x *= inv_m;
        if (vn->requires_grad) {
          accumulate(vn, gn);  // dv = dnum + K dkv
          gemm_nn(m, d, dv, kh.v.data(), dkv.v.data(), vn->grad.v.data());
        }
        if (qn->requires_grad) {
          qn->ensure_grad();
          Mat dqh(m, d);
          gemm_nt(m, d, dv, gn.v.data(), kv.v.data(), dqh.v.data());
          for_rows(m, static_cast<std::size_t>(d), par::kMinOps, [&](int i0, int i1) {
            for (int i = i0; i < i1; ++i) {
              const float dn = dden[static_cast<std::size_t>(i)];
              for (int p = 0; p < d; ++p) {
                dqh.at(i, p) =
                    (dqh.at(i, p) + dn * ksum[static_cast<std::size_t>(p)]) * inv_m;
              }
            }
          });
          frobenius_normalize_backward(qh, dqh, q_norm, qn->grad);
        }
        if (kn->requires_grad) {
          kn->ensure_grad();
          Mat dkh(m, d);
          gemm_nt(m, d, dv, vn->value.v.data(), dkv.v.data(), dkh.v.data());
          for_rows(m, static_cast<std::size_t>(d), par::kMinOps, [&](int i0, int i1) {
            for (int i = i0; i < i1; ++i) {
              for (int p = 0; p < d; ++p) {
                dkh.at(i, p) += dksum[static_cast<std::size_t>(p)];
              }
            }
          });
          frobenius_normalize_backward(kh, dkh, k_norm, kn->grad);
        }
      });
}

Tensor add(const Tensor& a, const Tensor& b) {
  NETTAG_CHECK(
      a->value.rows == b->value.rows && a->value.cols == b->value.cols,
      "add: shape mismatch: " + sh(a->value) + " vs " + sh(b->value));
  Mat out = a->value;
  {
    float* ov = out.v.data();
    const float* bv = b->value.v.data();
    for_elems(out.v.size(), par::kMinOps, [ov, bv](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) ov[i] += bv[i];
    });
  }
  Node* an = a.get();
  Node* bn = b.get();
  return make_op("add", std::move(out), {a, b}, [an, bn](Node* o) {
    accumulate(an, o->grad);
    accumulate(bn, o->grad);
  });
}

Tensor add_rowvec(const Tensor& a, const Tensor& b) {
  NETTAG_CHECK(b->value.rows == 1 && a->value.cols == b->value.cols,
               "add_rowvec: want NxD + 1xD, got " + sh(a->value) + " + " +
                   sh(b->value));
  Mat out = a->value;
  const int n = out.rows, d = out.cols;
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) out.at(i, j) += b->value.at(0, j);
  }
  Node* an = a.get();
  Node* bn = b.get();
  return make_op("add_rowvec", std::move(out), {a, b}, [an, bn, n, d](Node* o) {
    accumulate(an, o->grad);
    if (bn->requires_grad) {
      bn->ensure_grad();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < d; ++j) bn->grad.at(0, j) += o->grad.at(i, j);
      }
    }
  });
}

Tensor sub(const Tensor& a, const Tensor& b) {
  NETTAG_CHECK(
      a->value.rows == b->value.rows && a->value.cols == b->value.cols,
      "sub: shape mismatch: " + sh(a->value) + " vs " + sh(b->value));
  Mat out = a->value;
  for (std::size_t i = 0; i < out.v.size(); ++i) out.v[i] -= b->value.v[i];
  Node* an = a.get();
  Node* bn = b.get();
  return make_op("sub", std::move(out), {a, b}, [an, bn](Node* o) {
    accumulate(an, o->grad);
    if (bn->requires_grad) {
      bn->ensure_grad();
      for (std::size_t i = 0; i < o->grad.v.size(); ++i) {
        bn->grad.v[i] -= o->grad.v[i];
      }
    }
  });
}

Tensor mul(const Tensor& a, const Tensor& b) {
  NETTAG_CHECK(a->value.v.size() == b->value.v.size(),
               "mul: element count mismatch: " + sh(a->value) + " vs " +
                   sh(b->value));
  Mat out = a->value;
  {
    float* ov = out.v.data();
    const float* bv = b->value.v.data();
    for_elems(out.v.size(), par::kMinOps, [ov, bv](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) ov[i] *= bv[i];
    });
  }
  Node* an = a.get();
  Node* bn = b.get();
  return make_op("mul", std::move(out), {a, b}, [an, bn](Node* o) {
    if (an->requires_grad) {
      an->ensure_grad();
      for_elems(o->grad.v.size(), par::kMinOps,
                [&](std::size_t i0, std::size_t i1) {
                  for (std::size_t i = i0; i < i1; ++i) {
                    an->grad.v[i] += o->grad.v[i] * bn->value.v[i];
                  }
                });
    }
    if (bn->requires_grad) {
      bn->ensure_grad();
      for_elems(o->grad.v.size(), par::kMinOps,
                [&](std::size_t i0, std::size_t i1) {
                  for (std::size_t i = i0; i < i1; ++i) {
                    bn->grad.v[i] += o->grad.v[i] * an->value.v[i];
                  }
                });
    }
  });
}

Tensor scale(const Tensor& a, float s) {
  Mat out = a->value;
  {
    float* ov = out.v.data();
    for_elems(out.v.size(), par::kMinOps, [ov, s](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) ov[i] *= s;
    });
  }
  Node* an = a.get();
  return make_op("scale", std::move(out), {a}, [an, s](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for_elems(o->grad.v.size(), par::kMinOps,
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  an->grad.v[i] += s * o->grad.v[i];
                }
              });
  });
}

Tensor relu(const Tensor& a) {
  Mat out = a->value;
  {
    float* ov = out.v.data();
    for_elems(out.v.size(), par::kMinOps, [ov](std::size_t i0, std::size_t i1) {
      for (std::size_t i = i0; i < i1; ++i) ov[i] = std::max(ov[i], 0.f);
    });
  }
  Node* an = a.get();
  return make_op("relu", std::move(out), {a}, [an](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for_elems(o->grad.v.size(), par::kMinOps,
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  if (an->value.v[i] > 0.f) an->grad.v[i] += o->grad.v[i];
                }
              });
  });
}

namespace {
// GELU tanh-approximation constants.
constexpr float kGeluC = 0.7978845608f;  // sqrt(2/pi)
constexpr float kGeluB = 0.044715f;
}  // namespace

Tensor gelu(const Tensor& a) {
  // tanh approximation: 0.5 x (1 + tanh(c (x + 0.044715 x^3)))
  constexpr float kC = kGeluC;
  constexpr float kB = kGeluB;
  Mat out = a->value;
  {
    float* ov = out.v.data();
    for_elems(out.v.size(), par::kMinExpOps,
              [ov](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  const float x = ov[i];
                  const float t = std::tanh(kC * (x + kB * x * x * x));
                  ov[i] = 0.5f * x * (1.f + t);
                }
              });
  }
  Node* an = a.get();
  return make_op("gelu", std::move(out), {a}, [an](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for_elems(o->grad.v.size(), par::kMinExpOps,
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  const float x = an->value.v[i];
                  const float u = kGeluC * (x + kGeluB * x * x * x);
                  const float t = std::tanh(u);
                  const float du = kGeluC * (1.f + 3.f * kGeluB * x * x);
                  const float dy =
                      0.5f * (1.f + t) + 0.5f * x * (1.f - t * t) * du;
                  an->grad.v[i] += o->grad.v[i] * dy;
                }
              });
  });
}

Tensor tanh_op(const Tensor& a) {
  Mat out = a->value;
  {
    float* ov = out.v.data();
    for_elems(out.v.size(), par::kMinExpOps,
              [ov](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) ov[i] = std::tanh(ov[i]);
              });
  }
  Node* an = a.get();
  return make_op("tanh", std::move(out), {a}, [an](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for_elems(o->grad.v.size(), par::kMinOps,
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  const float y = o->value.v[i];
                  an->grad.v[i] += o->grad.v[i] * (1.f - y * y);
                }
              });
  });
}

Tensor sigmoid(const Tensor& a) {
  Mat out = a->value;
  {
    float* ov = out.v.data();
    for_elems(out.v.size(), par::kMinExpOps,
              [ov](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  ov[i] = 1.f / (1.f + std::exp(-ov[i]));
                }
              });
  }
  Node* an = a.get();
  return make_op("sigmoid", std::move(out), {a}, [an](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for_elems(o->grad.v.size(), par::kMinOps,
              [&](std::size_t i0, std::size_t i1) {
                for (std::size_t i = i0; i < i1; ++i) {
                  const float y = o->value.v[i];
                  an->grad.v[i] += o->grad.v[i] * y * (1.f - y);
                }
              });
  });
}

Tensor transpose(const Tensor& a) {
  const int n = a->value.rows, m = a->value.cols;
  Mat out(m, n);
  transpose_mat(n, m, a->value.v.data(), out.v.data());
  Node* an = a.get();
  return make_op("transpose", std::move(out), {a}, [an, n, m](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < m; ++j) an->grad.at(i, j) += o->grad.at(j, i);
    }
  });
}

Tensor concat_cols(const Tensor& a, const Tensor& b) {
  NETTAG_CHECK(a->value.rows == b->value.rows,
               "concat_cols: row mismatch: " + sh(a->value) + " vs " +
                   sh(b->value));
  const int n = a->value.rows, da = a->value.cols, db = b->value.cols;
  Mat out(n, da + db);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < da; ++j) out.at(i, j) = a->value.at(i, j);
    for (int j = 0; j < db; ++j) out.at(i, da + j) = b->value.at(i, j);
  }
  Node* an = a.get();
  Node* bn = b.get();
  return make_op("concat_cols", std::move(out), {a, b}, [an, bn, n, da, db](Node* o) {
    if (an->requires_grad) {
      an->ensure_grad();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < da; ++j) an->grad.at(i, j) += o->grad.at(i, j);
      }
    }
    if (bn->requires_grad) {
      bn->ensure_grad();
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < db; ++j) bn->grad.at(i, j) += o->grad.at(i, da + j);
      }
    }
  });
}

Tensor concat_rows(const std::vector<Tensor>& parts) {
  NETTAG_CHECK(!parts.empty(), "concat_rows: empty part list");
  const int d = parts[0]->value.cols;
  int total = 0;
  for (const Tensor& p : parts) {
    NETTAG_CHECK(p->value.cols == d,
                 "concat_rows: part shape " + sh(p->value) +
                     " differs in width from first part (" +
                     std::to_string(d) + " cols)");
    total += p->value.rows;
  }
  Mat out(total, d);
  int row = 0;
  for (const Tensor& p : parts) {
    std::copy(p->value.v.begin(), p->value.v.end(),
              out.v.begin() + static_cast<std::ptrdiff_t>(row) * d);
    row += p->value.rows;
  }
  std::vector<Node*> raw;
  raw.reserve(parts.size());
  for (const Tensor& p : parts) raw.push_back(p.get());
  return make_op("concat_rows", std::move(out), parts, [raw, d](Node* o) {
    int row = 0;
    for (Node* p : raw) {
      if (p->requires_grad) {
        p->ensure_grad();
        for (int i = 0; i < p->value.rows; ++i) {
          for (int j = 0; j < d; ++j) {
            p->grad.at(i, j) += o->grad.at(row + i, j);
          }
        }
      }
      row += p->value.rows;
    }
  });
}

Tensor slice_rows(const Tensor& a, int start, int count) {
  NETTAG_CHECK(start >= 0 && count >= 0 && start + count <= a->value.rows,
               "slice_rows: rows [" + std::to_string(start) + ", " +
                   std::to_string(start + count) + ") outside " +
                   sh(a->value));
  const int d = a->value.cols;
  Mat out(count, d);
  for (int i = 0; i < count; ++i) {
    for (int j = 0; j < d; ++j) out.at(i, j) = a->value.at(start + i, j);
  }
  Node* an = a.get();
  return make_op("slice_rows", std::move(out), {a}, [an, start, count, d](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for (int i = 0; i < count; ++i) {
      for (int j = 0; j < d; ++j) an->grad.at(start + i, j) += o->grad.at(i, j);
    }
  });
}

Tensor mean_rows(const Tensor& a) {
  const int n = a->value.rows, d = a->value.cols;
  Mat out(1, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) out.at(0, j) += a->value.at(i, j);
  }
  for (int j = 0; j < d; ++j) out.at(0, j) /= static_cast<float>(n);
  Node* an = a.get();
  return make_op("mean_rows", std::move(out), {a}, [an, n, d](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    const float inv = 1.f / static_cast<float>(n);
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) an->grad.at(i, j) += o->grad.at(0, j) * inv;
    }
  });
}

Tensor sum_rows(const Tensor& a) {
  const int n = a->value.rows, d = a->value.cols;
  Mat out(1, d);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < d; ++j) out.at(0, j) += a->value.at(i, j);
  }
  Node* an = a.get();
  return make_op("sum_rows", std::move(out), {a}, [an, n, d](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < d; ++j) an->grad.at(i, j) += o->grad.at(0, j);
    }
  });
}

Tensor softmax_rows(const Tensor& a) {
  const int n = a->value.rows, d = a->value.cols;
  const std::size_t row_cost = static_cast<std::size_t>(d);
  Mat out(n, d);
  for_rows(n, row_cost, par::kMinExpOps, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      float mx = a->value.at(i, 0);
      for (int j = 1; j < d; ++j) mx = std::max(mx, a->value.at(i, j));
      float sum = 0.f;
      for (int j = 0; j < d; ++j) {
        const float e = std::exp(a->value.at(i, j) - mx);
        out.at(i, j) = e;
        sum += e;
      }
      for (int j = 0; j < d; ++j) out.at(i, j) /= sum;
    }
  });
  Node* an = a.get();
  return make_op("softmax_rows", std::move(out), {a}, [an, n, d, row_cost](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for_rows(n, row_cost, par::kMinOps, [&](int i0, int i1) {
      for (int i = i0; i < i1; ++i) {
        float dot = 0.f;
        for (int j = 0; j < d; ++j) dot += o->grad.at(i, j) * o->value.at(i, j);
        for (int j = 0; j < d; ++j) {
          an->grad.at(i, j) += o->value.at(i, j) * (o->grad.at(i, j) - dot);
        }
      }
    });
  });
}

Tensor layernorm_rows(const Tensor& a, const Tensor& gamma, const Tensor& beta,
                      float eps) {
  const int n = a->value.rows, d = a->value.cols;
  NETTAG_CHECK(gamma->value.cols == d && beta->value.cols == d,
               "layernorm_rows: gamma " + sh(gamma->value) + " / beta " +
                   sh(beta->value) + " do not match input " + sh(a->value));
  Mat out(n, d);
  Mat xhat(n, d);
  std::vector<float> inv_sigma(static_cast<std::size_t>(n));
  for_rows(n, static_cast<std::size_t>(d), par::kMinOps, [&](int i0, int i1) {
    for (int i = i0; i < i1; ++i) {
      float mean = 0.f;
      for (int j = 0; j < d; ++j) mean += a->value.at(i, j);
      mean /= static_cast<float>(d);
      float var = 0.f;
      for (int j = 0; j < d; ++j) {
        const float c = a->value.at(i, j) - mean;
        var += c * c;
      }
      var /= static_cast<float>(d);
      const float is = 1.f / std::sqrt(var + eps);
      inv_sigma[static_cast<std::size_t>(i)] = is;
      for (int j = 0; j < d; ++j) {
        const float xh = (a->value.at(i, j) - mean) * is;
        xhat.at(i, j) = xh;
        out.at(i, j) = gamma->value.at(0, j) * xh + beta->value.at(0, j);
      }
    }
  });
  Node* an = a.get();
  Node* gn = gamma.get();
  Node* bn = beta.get();
  return make_op(
      "layer_norm", std::move(out), {a, gamma, beta},
      [an, gn, bn, n, d, xhat = std::move(xhat),
       inv_sigma = std::move(inv_sigma)](Node* o) {
        if (gn->requires_grad) {
          gn->ensure_grad();
          for (int i = 0; i < n; ++i) {
            for (int j = 0; j < d; ++j) {
              gn->grad.at(0, j) += o->grad.at(i, j) * xhat.at(i, j);
            }
          }
        }
        if (bn->requires_grad) {
          bn->ensure_grad();
          for (int i = 0; i < n; ++i) {
            for (int j = 0; j < d; ++j) bn->grad.at(0, j) += o->grad.at(i, j);
          }
        }
        if (an->requires_grad) {
          an->ensure_grad();
          for_rows(n, static_cast<std::size_t>(d), par::kMinOps,
                   [&](int i0, int i1) {
            for (int i = i0; i < i1; ++i) {
              // g = dOut * gamma ; dx = is * (g - mean(g) - xhat * mean(g*xhat))
              float mg = 0.f, mgx = 0.f;
              for (int j = 0; j < d; ++j) {
                const float g = o->grad.at(i, j) * gn->value.at(0, j);
                mg += g;
                mgx += g * xhat.at(i, j);
              }
              mg /= static_cast<float>(d);
              mgx /= static_cast<float>(d);
              const float is = inv_sigma[static_cast<std::size_t>(i)];
              for (int j = 0; j < d; ++j) {
                const float g = o->grad.at(i, j) * gn->value.at(0, j);
                an->grad.at(i, j) += is * (g - mg - xhat.at(i, j) * mgx);
              }
            }
          });
        }
      });
}

Tensor embedding(const Tensor& table, const std::vector<int>& ids) {
  const int d = table->value.cols;
  Mat out(static_cast<int>(ids.size()), d);
  parallel_for(ids.size(), par::grain(static_cast<std::size_t>(d), par::kMinOps),
               [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) {
      NETTAG_CHECK(ids[i] >= 0 && ids[i] < table->value.rows,
                   "embedding: id " + std::to_string(ids[i]) +
                       " outside table " + sh(table->value));
      for (int j = 0; j < d; ++j) {
        out.at(static_cast<int>(i), j) = table->value.at(ids[i], j);
      }
    }
  });
  // Backward stays serial: the scatter-add over repeated ids is
  // order-sensitive, and the table is small relative to the gather.
  Node* tn = table.get();
  return make_op("embedding", std::move(out), {table}, [tn, ids, d](Node* o) {
    if (!tn->requires_grad) return;
    tn->ensure_grad();
    for (std::size_t i = 0; i < ids.size(); ++i) {
      for (int j = 0; j < d; ++j) {
        tn->grad.at(ids[i], j) += o->grad.at(static_cast<int>(i), j);
      }
    }
  });
}

Tensor normalize_rows(const Tensor& a, float eps) {
  const int n = a->value.rows, d = a->value.cols;
  Mat out(n, d);
  std::vector<float> norms(static_cast<std::size_t>(n));
  const std::size_t row_cost = static_cast<std::size_t>(d) * 3;
  for_rows(n, row_cost, par::kMinOps, [&](int b, int e) {
    for (int i = b; i < e; ++i) {
      float s = 0.f;
      for (int j = 0; j < d; ++j) s += a->value.at(i, j) * a->value.at(i, j);
      const float nm = std::sqrt(s) + eps;
      norms[static_cast<std::size_t>(i)] = nm;
      for (int j = 0; j < d; ++j) out.at(i, j) = a->value.at(i, j) / nm;
    }
  });
  Node* an = a.get();
  return make_op("normalize_rows", std::move(out), {a},
                 [an, n, d, row_cost, norms = std::move(norms)](Node* o) {
                   if (!an->requires_grad) return;
                   an->ensure_grad();
                   for_rows(n, row_cost, par::kMinOps, [&](int b, int e) {
                     for (int i = b; i < e; ++i) {
                       float dot = 0.f;
                       for (int j = 0; j < d; ++j) {
                         dot += o->grad.at(i, j) * o->value.at(i, j);
                       }
                       const float inv =
                           1.f / norms[static_cast<std::size_t>(i)];
                       for (int j = 0; j < d; ++j) {
                         an->grad.at(i, j) +=
                             (o->grad.at(i, j) - o->value.at(i, j) * dot) * inv;
                       }
                     }
                   });
                 });
}

Tensor dropout(const Tensor& a, float p, bool train, Rng& rng) {
  if (!train || p <= 0.f) return a;
  Mat out = a->value;
  std::vector<float> mask(out.v.size());
  const float keep = 1.f - p;
  for (std::size_t i = 0; i < out.v.size(); ++i) {
    mask[i] = rng.chance(p) ? 0.f : 1.f / keep;
    out.v[i] *= mask[i];
  }
  Node* an = a.get();
  return make_op("dropout", std::move(out), {a}, [an, mask = std::move(mask)](Node* o) {
    if (!an->requires_grad) return;
    an->ensure_grad();
    for (std::size_t i = 0; i < o->grad.v.size(); ++i) {
      an->grad.v[i] += o->grad.v[i] * mask[i];
    }
  });
}

Tensor cross_entropy(const Tensor& logits, const std::vector<int>& targets) {
  const int n = logits->value.rows, c = logits->value.cols;
  NETTAG_CHECK(static_cast<int>(targets.size()) == n,
               "cross_entropy: " + std::to_string(targets.size()) +
                   " targets for logits " + sh(logits->value));
  Mat probs(n, c);
  // Per-row terms in parallel; the final reduction stays a serial loop in row
  // order so the loss matches the serial float-addition sequence exactly.
  std::vector<double> row_loss(static_cast<std::size_t>(n));
  for_rows(n, static_cast<std::size_t>(c) * 3, par::kMinExpOps,
           [&](int rb, int re) {
    for (int i = rb; i < re; ++i) {
      float mx = logits->value.at(i, 0);
      for (int j = 1; j < c; ++j) mx = std::max(mx, logits->value.at(i, j));
      float sum = 0.f;
      for (int j = 0; j < c; ++j) {
        const float e = std::exp(logits->value.at(i, j) - mx);
        probs.at(i, j) = e;
        sum += e;
      }
      for (int j = 0; j < c; ++j) probs.at(i, j) /= sum;
      row_loss[static_cast<std::size_t>(i)] = -std::log(std::max(
          probs.at(i, targets[static_cast<std::size_t>(i)]), 1e-12f));
    }
  });
  double loss = 0.0;
  for (int i = 0; i < n; ++i) loss += row_loss[static_cast<std::size_t>(i)];
  Mat out(1, 1);
  out.v[0] = static_cast<float>(loss / n);
  Node* ln = logits.get();
  return make_op("cross_entropy", std::move(out), {logits},
                 [ln, targets, n, c, probs = std::move(probs)](Node* o) {
                   if (!ln->requires_grad) return;
                   ln->ensure_grad();
                   const float g = o->grad.v[0] / static_cast<float>(n);
                   for_rows(n, static_cast<std::size_t>(c) * 2, par::kMinOps,
                            [&](int rb, int re) {
                     for (int i = rb; i < re; ++i) {
                       for (int j = 0; j < c; ++j) {
                         float d = probs.at(i, j);
                         if (j == targets[static_cast<std::size_t>(i)]) {
                           d -= 1.f;
                         }
                         ln->grad.at(i, j) += g * d;
                       }
                     }
                   });
                 });
}

Tensor mse_loss(const Tensor& pred, const Mat& target) {
  NETTAG_CHECK(pred->value.v.size() == target.v.size(),
               "mse_loss: prediction " + sh(pred->value) +
                   " vs target " + sh(target));
  double sum = 0.0;
  for (std::size_t i = 0; i < target.v.size(); ++i) {
    const double d = pred->value.v[i] - target.v[i];
    sum += d * d;
  }
  Mat out(1, 1);
  out.v[0] = static_cast<float>(sum / static_cast<double>(target.v.size()));
  Node* pn = pred.get();
  return make_op("mse_loss", std::move(out), {pred}, [pn, target](Node* o) {
    if (!pn->requires_grad) return;
    pn->ensure_grad();
    const float g = o->grad.v[0] * 2.f / static_cast<float>(target.v.size());
    for_elems(target.v.size(), par::kMinOps, [&](std::size_t b, std::size_t e) {
      for (std::size_t i = b; i < e; ++i) {
        pn->grad.v[i] += g * (pn->value.v[i] - target.v[i]);
      }
    });
  });
}

Tensor info_nce(const Tensor& anchors, const Tensor& positives,
                float temperature) {
  NETTAG_CHECK(anchors->value.rows == positives->value.rows,
               "info_nce: anchors " + sh(anchors->value) +
                   " vs positives " + sh(positives->value));
  const int n = anchors->value.rows;
  Tensor a = normalize_rows(anchors);
  Tensor p = normalize_rows(positives);
  Tensor sim = matmul(a, transpose(p));         // NxN cosine similarities
  Tensor logits = scale(sim, 1.f / temperature);
  std::vector<int> targets(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) targets[static_cast<std::size_t>(i)] = i;
  return cross_entropy(logits, targets);
}

namespace {

/// Runs the backward sweep from `root`, assuming root->grad is already
/// seeded. Topological order via iterative DFS over parents.
void run_backward(Node* root) {
  std::vector<Node*> order;
  std::unordered_set<Node*> visited;
  std::vector<std::pair<Node*, std::size_t>> stack{{root, 0}};
  visited.insert(root);
  while (!stack.empty()) {
    auto& [node, idx] = stack.back();
    if (idx < node->parents.size()) {
      Node* parent = node->parents[idx].get();
      ++idx;
      if (parent->requires_grad && !visited.count(parent)) {
        visited.insert(parent);
        stack.emplace_back(parent, 0);
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  // `order` is post-order (parents first); traverse in reverse.
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) {
      (*it)->ensure_grad();
      (*it)->backward_fn();
    }
  }
  // Deep-mode NaN/Inf sweep over every gradient produced by this pass,
  // attributed to the node's producing op.
  if (deep_checks_enabled()) {
    for (const Node* node : order) {
      if (node->requires_grad && !node->grad.v.empty()) {
        check_finite(node->grad, node->op, "gradient");
      }
    }
  }
}

}  // namespace

void backward(const Tensor& loss) {
  NETTAG_CHECK(loss->value.rows == 1 && loss->value.cols == 1,
               "backward: loss must be 1x1, got " + sh(loss->value));
  if (!loss->requires_grad) return;
  loss->ensure_grad();
  loss->grad.v[0] = 1.f;
  run_backward(loss.get());
}

void backward_seeded(const Tensor& root) {
  if (!root->requires_grad) return;
  run_backward(root.get());
}

Adam::Adam(std::vector<Tensor> params, float lr, float beta1, float beta2,
           float eps)
    : params_(std::move(params)), lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps) {
  for (const Tensor& p : params_) {
    m_.emplace_back(p->value.rows, p->value.cols);
    v_.emplace_back(p->value.rows, p->value.cols);
  }
}

void Adam::step() {
  ++t_;
  const float bc1 = 1.f - std::pow(beta1_, static_cast<float>(t_));
  const float bc2 = 1.f - std::pow(beta2_, static_cast<float>(t_));
  // Each parameter tensor is updated independently — parallel over params.
  for (std::size_t k = 0; k < params_.size(); ++k) params_[k]->ensure_grad();
  if (deep_checks_enabled()) {
    for (std::size_t k = 0; k < params_.size(); ++k) {
      check_finite(params_[k]->grad, "Adam::step", "parameter gradient");
    }
  }
  ThreadPool::instance().run_indexed(params_.size(), [&](std::size_t k) {
    Node& p = *params_[k];
    for (std::size_t i = 0; i < p.value.v.size(); ++i) {
      const float g = p.grad.v[i];
      m_[k].v[i] = beta1_ * m_[k].v[i] + (1.f - beta1_) * g;
      v_[k].v[i] = beta2_ * v_[k].v[i] + (1.f - beta2_) * g * g;
      const float mhat = m_[k].v[i] / bc1;
      const float vhat = v_[k].v[i] / bc2;
      p.value.v[i] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  });
  zero_grad();
}

void Adam::zero_grad() {
  for (const Tensor& p : params_) {
    p->ensure_grad();
    p->zero_grad();
  }
}

void Adam::restore(long t, std::vector<Mat> m, std::vector<Mat> v) {
  if (t < 0) {
    throw std::runtime_error("Adam::restore: negative step count");
  }
  if (m.size() != params_.size() || v.size() != params_.size()) {
    throw std::runtime_error(
        "Adam::restore: moment count does not match parameter list (" +
        std::to_string(m.size()) + "/" + std::to_string(v.size()) + " vs " +
        std::to_string(params_.size()) + " params)");
  }
  for (std::size_t k = 0; k < params_.size(); ++k) {
    const Mat& p = params_[k]->value;
    if (m[k].rows != p.rows || m[k].cols != p.cols || v[k].rows != p.rows ||
        v[k].cols != p.cols) {
      throw std::runtime_error("Adam::restore: moment shape mismatch at "
                               "parameter " + std::to_string(k));
    }
  }
  t_ = t;
  m_ = std::move(m);
  v_ = std::move(v);
}

}  // namespace nettag
