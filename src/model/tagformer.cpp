#include "model/tagformer.hpp"

#include "model/graph.hpp"

namespace nettag {

TagFormer::TagFormer(const TagFormerConfig& config, Rng& rng) : config_(config) {
  cls_feat_ = make_param(1, config.in_dim, rng, 0.5f);
  proj_in_ = std::make_unique<Linear>(config.in_dim, config.d_model, rng);
  for (int l = 0; l < config.num_layers; ++l) {
    Layer layer;
    layer.wq = std::make_unique<Linear>(config.d_model, config.d_model, rng);
    layer.wk = std::make_unique<Linear>(config.d_model, config.d_model, rng);
    layer.wv = std::make_unique<Linear>(config.d_model, config.d_model, rng);
    layer.ln_attn = std::make_unique<LayerNorm>(config.d_model);
    layer.gcn = std::make_unique<Linear>(config.d_model, config.d_model, rng);
    layer.ln_gcn = std::make_unique<LayerNorm>(config.d_model);
    layers_.push_back(std::move(layer));
  }
  // Jumping-knowledge output: the final projection sees both the refined
  // representation and the input projection, so gate-level text semantics
  // survive the structural mixing (TAGFormer "refines" ExprLLM embeddings
  // rather than replacing them).
  proj_out_ = std::make_unique<Linear>(2 * config.d_model, config.out_dim, rng);
}

TagFormer::Output TagFormer::forward(
    const Tensor& feats, const std::vector<std::pair<int, int>>& edges) const {
  const int n = feats->value.rows;
  const CsrPtr adj = tag_adjacency(n, edges);
  // Append the virtual CLS node's learned feature row.
  Tensor x = concat_rows({feats, cls_feat_});
  x = proj_in_->forward(x);
  const Tensor x0 = x;
  for (const Layer& layer : layers_) {
    // SGFormer simple global attention over all N+1 nodes.
    Tensor attn = linear_attention(layer.wq->forward(x), layer.wk->forward(x),
                                   layer.wv->forward(x));
    x = layer.ln_attn->forward(add(x, attn));
    // Graph propagation over the netlist topology.
    Tensor conv = relu(layer.gcn->forward(spmm(adj, x)));
    x = layer.ln_gcn->forward(add(x, conv));
  }
  x = proj_out_->forward(concat_cols(x, x0));
  Output out;
  out.nodes = slice_rows(x, 0, n);
  out.cls = slice_rows(x, n, 1);
  return out;
}

std::vector<Tensor> TagFormer::params() const {
  std::vector<Tensor> out{cls_feat_};
  for (const Tensor& p : proj_in_->params()) out.push_back(p);
  for (const Layer& layer : layers_) {
    for (const Tensor& p :
         collect_params({layer.wq.get(), layer.wk.get(), layer.wv.get(),
                         layer.ln_attn.get(), layer.gcn.get(),
                         layer.ln_gcn.get()})) {
      out.push_back(p);
    }
  }
  for (const Tensor& p : proj_out_->params()) out.push_back(p);
  return out;
}

}  // namespace nettag
