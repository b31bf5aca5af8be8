// Plain GCN backbone used by every task-specific baseline (GNN-RE, ReIGNN,
// the timing GNN of [2], the PowPrediCT-style power GNN, and the FGNN /
// DeepGate-style AIG encoders). Standard D^-1/2(A+I)D^-1/2 propagation with
// ReLU, plus mean-pool graph readout.
#pragma once

#include <memory>
#include <vector>

#include "nn/layers.hpp"

namespace nettag {

struct GcnConfig {
  int in_dim = 0;
  int hidden = 48;
  int num_layers = 3;
  int out_dim = 48;
};

class Gcn : public Module {
 public:
  Gcn(const GcnConfig& config, Rng& rng);

  /// Node embeddings: N x out_dim. `adj`: N x N normalized adjacency
  /// (model/graph.hpp normalized_adjacency).
  Tensor forward_nodes(const Tensor& feats, const CsrPtr& adj) const;

  /// Graph embedding: 1 x out_dim (mean pooled).
  Tensor forward_graph(const Tensor& feats, const CsrPtr& adj) const;

  const GcnConfig& config() const { return config_; }
  std::vector<Tensor> params() const override;

 private:
  GcnConfig config_;
  std::vector<std::unique_ptr<Linear>> layers_;
};

}  // namespace nettag
