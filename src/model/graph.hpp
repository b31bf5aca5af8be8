// Graph utilities shared by TAGFormer, the layout encoder, and the GCN
// baselines: normalized adjacency construction and feature extraction from
// netlists / layout graphs.
//
// Adjacency is sparse (CSR, consumed by the spmm op), so whole netlists of
// tens of thousands of gates cost O(N + E); symmetric normalization with
// self-loops follows the standard GCN recipe (D^-1/2 (A + I) D^-1/2).
#pragma once

#include <utility>
#include <vector>

#include "netlist/netlist.hpp"
#include "nn/tensor.hpp"
#include "physical/analysis.hpp"

namespace nettag {

/// Directed edges driver->sink for a netlist (one per sink pin, deduped).
std::vector<std::pair<int, int>> netlist_edges(const Netlist& nl);

/// Symmetrically normalized adjacency with self loops over `n` nodes, as an
/// n x n CSR matrix. Edges are undirected and binary: reversed, duplicate
/// and self-loop edges add nothing beyond the first. Throws CheckError on an
/// endpoint outside [0, n).
CsrPtr normalized_adjacency(int n, const std::vector<std::pair<int, int>>& edges);

/// Adjacency for TAGFormer: n graph nodes plus a virtual [CLS] node at index
/// n connected to every node (paper §II-C), normalized as above. Result is
/// (n+1) x (n+1).
CsrPtr tag_adjacency(int n, const std::vector<std::pair<int, int>>& edges);

/// Structural node features used by graph-only baselines and the
/// "w/o text attributes" ablation: one-hot cell type + normalized fanin /
/// fanout / depth + port/register/output flags.
Mat netlist_base_features(const Netlist& nl);
int netlist_base_feature_dim();

/// Physical characteristics vector x_phys per gate (paper §II-B: power,
/// area, delay, toggle rate, probability, load, cap, ...) — concatenated to
/// the text embedding at TAGFormer's input. Toggle/probability come from a
/// zero-wire activity propagation (the netlist-stage PrimeTime report).
Mat netlist_phys_features(const Netlist& nl);
int netlist_phys_feature_dim();

/// Node features for layout graphs (cap/res/load/delay/position).
Mat layout_features(const LayoutGraph& lg);
int layout_feature_dim();

}  // namespace nettag
