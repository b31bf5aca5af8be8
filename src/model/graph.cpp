#include "model/graph.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <string>

namespace nettag {

std::vector<std::pair<int, int>> netlist_edges(const Netlist& nl) {
  std::set<std::pair<int, int>> uniq;
  for (const Gate& g : nl.gates()) {
    for (GateId f : g.fanins) {
      uniq.emplace(static_cast<int>(f), static_cast<int>(g.id));
    }
  }
  return {uniq.begin(), uniq.end()};
}

CsrPtr normalized_adjacency(int n, const std::vector<std::pair<int, int>>& edges) {
  NETTAG_CHECK(n >= 0, "normalized_adjacency: negative node count " +
                           std::to_string(n));
  const auto un = static_cast<std::size_t>(n);
  // Bucket each row's entries of A + I (both directions of every edge plus
  // the self loop), then sort and dedupe each bucket, so duplicate,
  // reversed and self-loop edges count once.
  std::vector<std::size_t> start(un + 1, 1);
  start[0] = 0;
  for (const auto& [u, v] : edges) {
    NETTAG_CHECK(u >= 0 && u < n && v >= 0 && v < n,
                 "normalized_adjacency: edge (" + std::to_string(u) + ", " +
                     std::to_string(v) + ") outside " + std::to_string(n) +
                     " nodes");
    ++start[static_cast<std::size_t>(u) + 1];
    ++start[static_cast<std::size_t>(v) + 1];
  }
  for (std::size_t i = 1; i <= un; ++i) start[i] += start[i - 1];
  std::vector<int> bucket(start[un]);
  std::vector<std::size_t> next(start.begin(), start.end() - 1);
  for (std::size_t i = 0; i < un; ++i) bucket[next[i]++] = static_cast<int>(i);
  for (const auto& [u, v] : edges) {
    bucket[next[static_cast<std::size_t>(u)]++] = v;
    bucket[next[static_cast<std::size_t>(v)]++] = u;
  }
  auto a = std::make_shared<Csr>();
  a->rows = a->cols = n;
  a->row_ptr.push_back(0);
  for (std::size_t i = 0; i < un; ++i) {
    const auto b = bucket.begin() + static_cast<std::ptrdiff_t>(start[i]);
    const auto e = bucket.begin() + static_cast<std::ptrdiff_t>(start[i + 1]);
    std::sort(b, e);
    a->col.insert(a->col.end(), b, std::unique(b, e));
    a->row_ptr.push_back(static_cast<int>(a->col.size()));
  }
  // deg = row length of A + I; entry (i, j) = deg_i^-1/2 * deg_j^-1/2.
  std::vector<float> inv_sqrt(un);
  for (std::size_t i = 0; i < un; ++i) {
    const float deg = static_cast<float>(a->row_ptr[i + 1] - a->row_ptr[i]);
    inv_sqrt[i] = 1.f / std::sqrt(std::max(deg, 1.f));
  }
  a->val.reserve(a->col.size());
  for (std::size_t i = 0; i < un; ++i) {
    for (int p = a->row_ptr[i]; p < a->row_ptr[i + 1]; ++p) {
      a->val.push_back(inv_sqrt[i] *
                       inv_sqrt[static_cast<std::size_t>(a->col[static_cast<std::size_t>(p)])]);
    }
  }
  return a;
}

CsrPtr tag_adjacency(int n, const std::vector<std::pair<int, int>>& edges) {
  std::vector<std::pair<int, int>> with_cls;
  with_cls.reserve(edges.size() + static_cast<std::size_t>(n));
  with_cls.insert(with_cls.end(), edges.begin(), edges.end());
  for (int i = 0; i < n; ++i) with_cls.emplace_back(i, n);
  return normalized_adjacency(n + 1, with_cls);
}

int netlist_base_feature_dim() { return kNumCellTypes + 7; }

Mat netlist_base_features(const Netlist& nl) {
  const int n = static_cast<int>(nl.size());
  Mat f(n, netlist_base_feature_dim());
  // Depth for normalization.
  std::vector<int> depth(nl.size(), 0);
  int max_depth = 1;
  for (GateId id : nl.topo_order()) {
    const Gate& g = nl.gate(id);
    if (g.type == CellType::kDff || g.type == CellType::kPort) continue;
    int d = 0;
    for (GateId x : g.fanins) d = std::max(d, depth[static_cast<std::size_t>(x)] + 1);
    depth[static_cast<std::size_t>(id)] = d;
    max_depth = std::max(max_depth, d);
  }
  for (const Gate& g : nl.gates()) {
    const int i = static_cast<int>(g.id);
    f.at(i, static_cast<int>(g.type)) = 1.f;
    int j = kNumCellTypes;
    f.at(i, j++) = static_cast<float>(g.fanins.size()) / 4.f;
    f.at(i, j++) = std::min(static_cast<float>(g.fanouts.size()) / 8.f, 2.f);
    f.at(i, j++) = static_cast<float>(depth[static_cast<std::size_t>(g.id)]) /
                   static_cast<float>(max_depth);
    f.at(i, j++) = g.is_primary_output ? 1.f : 0.f;
    f.at(i, j++) = g.type == CellType::kDff ? 1.f : 0.f;
    f.at(i, j++) = g.type == CellType::kPort ? 1.f : 0.f;
    f.at(i, j++) = 1.f;  // bias feature
  }
  return f;
}

int netlist_phys_feature_dim() { return 9; }

Mat netlist_phys_features(const Netlist& nl) {
  const int n = static_cast<int>(nl.size());
  // Netlist-stage activity report: propagated signal probability and toggle
  // rate with pin-cap-only loads (no placement needed).
  Parasitics zero_wire;
  zero_wire.nets.resize(nl.size());
  for (const Gate& g : nl.gates()) {
    for (GateId s : g.fanouts) {
      zero_wire.nets[static_cast<std::size_t>(g.id)].pin_cap +=
          cell_info(nl.gate(s).type).input_cap;
    }
  }
  const PowerReport activity = run_power(nl, zero_wire);

  Mat f(n, netlist_phys_feature_dim());
  for (const Gate& g : nl.gates()) {
    const CellInfo& info = cell_info(g.type);
    const int i = static_cast<int>(g.id);
    int j = 0;
    f.at(i, j++) = static_cast<float>(info.area) / 5.f;
    f.at(i, j++) = static_cast<float>(info.leakage) / 10.f;
    f.at(i, j++) = static_cast<float>(info.input_cap) / 3.f;
    f.at(i, j++) = static_cast<float>(info.drive_res) / 0.2f;
    f.at(i, j++) = static_cast<float>(info.intrinsic_delay) / 0.1f;
    f.at(i, j++) = static_cast<float>(g.fanins.size()) / 4.f;
    f.at(i, j++) = std::min(static_cast<float>(g.fanouts.size()) / 8.f, 2.f);
    f.at(i, j++) = static_cast<float>(activity.prob[static_cast<std::size_t>(i)]);
    f.at(i, j++) = static_cast<float>(activity.toggle[static_cast<std::size_t>(i)]);
  }
  return f;
}

int layout_feature_dim() { return 6; }

Mat layout_features(const LayoutGraph& lg) {
  const int n = static_cast<int>(lg.node_feats.size());
  Mat f(n, layout_feature_dim());
  for (int i = 0; i < n; ++i) {
    const auto& nf = lg.node_feats[static_cast<std::size_t>(i)];
    f.at(i, 0) = static_cast<float>(nf[0]) / 10.f;   // wire cap
    f.at(i, 1) = static_cast<float>(nf[1]) / 5.f;    // wire res
    f.at(i, 2) = static_cast<float>(nf[2]) / 20.f;   // load
    f.at(i, 3) = static_cast<float>(nf[3]) / 0.2f;   // stage delay
    f.at(i, 4) = static_cast<float>(nf[4]) / 100.f;  // x
    f.at(i, 5) = static_cast<float>(nf[5]) / 100.f;  // y
  }
  return f;
}

}  // namespace nettag
