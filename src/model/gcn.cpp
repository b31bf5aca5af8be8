#include "model/gcn.hpp"

namespace nettag {

Gcn::Gcn(const GcnConfig& config, Rng& rng) : config_(config) {
  int in = config.in_dim;
  for (int l = 0; l < config.num_layers; ++l) {
    const int out = l + 1 == config.num_layers ? config.out_dim : config.hidden;
    layers_.push_back(std::make_unique<Linear>(in, out, rng));
    in = out;
  }
}

Tensor Gcn::forward_nodes(const Tensor& feats, const CsrPtr& adj) const {
  Tensor x = feats;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    x = layers_[l]->forward(spmm(adj, x));
    if (l + 1 < layers_.size()) x = relu(x);
  }
  return x;
}

Tensor Gcn::forward_graph(const Tensor& feats, const CsrPtr& adj) const {
  return mean_rows(forward_nodes(feats, adj));
}

std::vector<Tensor> Gcn::params() const {
  std::vector<Tensor> out;
  for (const auto& l : layers_) {
    for (const Tensor& p : l->params()) out.push_back(p);
  }
  return out;
}

}  // namespace nettag
