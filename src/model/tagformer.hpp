// TAGFormer: the graph-transformer half of NetTAG (SGFormer backbone
// substitute, paper §II-C).
//
// Takes per-gate input features (ExprLLM text embedding concatenated with
// the physical characteristics vector), refines them with interleaved
// global attention and graph convolution over the netlist topology, and
// emits per-gate embeddings plus a graph-level [CLS] embedding. The [CLS]
// node is virtual: a learned input row connected to every gate.
//
// The global attention is SGFormer's single-head simple global attention
// (linear_attention in nn/tensor.hpp) and the convolution is a sparse spmm
// over the normalized netlist adjacency, so time and memory grow linearly
// in N + E for N gates and E edges (no N x N buffer).
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "nn/layers.hpp"

namespace nettag {

struct TagFormerConfig {
  int in_dim = 0;      ///< set by caller: text_emb_dim + phys_dim
  int d_model = 64;
  int num_layers = 2;
  int out_dim = 48;    ///< final embedding dimension
};

class TagFormer : public Module {
 public:
  struct Output {
    Tensor nodes;  ///< N x out_dim gate embeddings
    Tensor cls;    ///< 1 x out_dim graph embedding
  };

  TagFormer(const TagFormerConfig& config, Rng& rng);

  /// `feats`: N x in_dim node features; `edges`: driver->sink pairs over
  /// [0, N). The [CLS] node is appended at index N.
  Output forward(const Tensor& feats,
                 const std::vector<std::pair<int, int>>& edges) const;

  const TagFormerConfig& config() const { return config_; }
  std::vector<Tensor> params() const override;

 private:
  TagFormerConfig config_;
  Tensor cls_feat_;  ///< learned 1 x in_dim CLS input row
  std::unique_ptr<Linear> proj_in_;
  struct Layer {
    std::unique_ptr<Linear> wq, wk, wv;  ///< single-head global attention
    std::unique_ptr<LayerNorm> ln_attn;
    std::unique_ptr<Linear> gcn;
    std::unique_ptr<LayerNorm> ln_gcn;
  };
  std::vector<Layer> layers_;
  std::unique_ptr<Linear> proj_out_;
};

}  // namespace nettag
