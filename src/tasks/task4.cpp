#include "tasks/task4.hpp"

#include "tasks/gbdt.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "model/gcn.hpp"
#include "model/graph.hpp"
#include "util/parallel.hpp"

namespace nettag {

namespace {

/// Supervised graph-level GCN regressor for one target (PowPrediCT-style):
/// per-node contributions are *sum*-pooled (PowPrediCT sums per-cell power),
/// so the model scales with netlist size, then a linear head maps the pooled
/// vector to the log-domain target.
std::vector<double> train_eval_gnn(const std::vector<Mat>& feats,
                                   const std::vector<CsrPtr>& adjs,
                                   const std::vector<double>& labels,
                                   const std::vector<int>& train,
                                   const std::vector<int>& test, int steps,
                                   float lr, Rng& rng) {
  GcnConfig gc;
  gc.in_dim = feats[0].cols;
  gc.num_layers = 3;
  gc.out_dim = 8;
  Gcn gnn(gc, rng);
  Linear head(gc.out_dim, 1, rng);
  std::vector<Tensor> params = gnn.params();
  for (const Tensor& p : head.params()) params.push_back(p);
  Adam opt(params, lr);
  // Log-scale z-normalization (area/power are positive, heavy-tailed).
  double mean = 0, stdv = 1;
  {
    double sum = 0, sq = 0;
    for (int d : train) {
      const double v = std::log(std::max(labels[static_cast<std::size_t>(d)], 1e-6));
      sum += v;
      sq += v * v;
    }
    mean = sum / static_cast<double>(train.size());
    stdv = std::sqrt(std::max(sq / static_cast<double>(train.size()) - mean * mean,
                              1e-9));
  }
  auto forward = [&](std::size_t d) {
    Tensor nodes = gnn.forward_nodes(make_tensor(feats[d], false), adjs[d]);
    // Scaled sum pooling: keeps size information while staying in a range
    // the linear head can map onto z-scored log targets.
    return head.forward(scale(sum_rows(nodes), 0.02f));
  };
  for (int step = 0; step < steps; ++step) {
    const std::size_t d =
        static_cast<std::size_t>(train[rng.index(train.size())]);
    Mat target(1, 1);
    target.at(0, 0) =
        static_cast<float>((std::log(std::max(labels[d], 1e-6)) - mean) / stdv);
    Tensor loss = mse_loss(forward(d), target);
    backward(loss);
    opt.step();
  }
  std::vector<double> pred;
  for (int d : test) {
    Tensor out = forward(static_cast<std::size_t>(d));
    // Clamp in normalized space: an untrained tail must not explode
    // through the exp back-transform.
    const double z = std::clamp(static_cast<double>(out->value.v[0]), -4.0, 4.0);
    pred.push_back(std::exp(z * stdv + mean));
  }
  return pred;
}

}  // namespace

Task4Result run_task4(NetTag& model, const Corpus& corpus,
                      const Task4Options& options, Rng& rng) {
  const std::size_t n = corpus.designs.size();
  std::vector<int> order(n);
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const std::size_t n_test = std::max<std::size_t>(
      2, static_cast<std::size_t>(options.test_fraction * static_cast<double>(n)));
  std::vector<int> test(order.begin(), order.begin() + static_cast<long>(n_test));
  std::vector<int> train(order.begin() + static_cast<long>(n_test), order.end());

  // Labels and tool estimates.
  std::vector<double> area_wo(n), area_w(n), power_wo(n), power_w(n);
  std::vector<double> tool_area(n), tool_power(n);
  for (std::size_t d = 0; d < n; ++d) {
    const DesignSample& ds = corpus.designs[d];
    area_wo[d] = ds.area_wo_opt;
    area_w[d] = ds.area_w_opt;
    power_wo[d] = ds.power_wo_opt;
    power_w[d] = ds.power_w_opt;
    tool_area[d] = ds.tool_area;
    tool_power[d] = ds.tool_power;
  }

  // NetTAG circuit embeddings, augmented with the (log) tool estimates and
  // netlist-stage structural statistics — mirroring how PowPrediCT feeds
  // synthesis reports. The structural stats (size, levels, fanout) drive the
  // layout wirelength the tool estimate is blind to.
  const int extra = 7;
  Mat x_all(static_cast<int>(n), model.embedding_dim() + extra);
  ThreadPool::instance().run_indexed(n, [&](std::size_t d) {
    const Netlist& nl = corpus.designs[d].gen.netlist;
    const Mat emb = model.embed_circuit(nl);
    for (int j = 0; j < model.embedding_dim(); ++j) {
      x_all.at(static_cast<int>(d), j) = emb.at(0, j);
    }
    // Logic depth and fanout statistics.
    std::vector<int> depth(nl.size(), 0);
    int max_depth = 1;
    double fanout_sum = 0;
    for (GateId id : nl.topo_order()) {
      const Gate& g = nl.gate(id);
      fanout_sum += static_cast<double>(g.fanouts.size());
      if (g.type == CellType::kDff || g.type == CellType::kPort) continue;
      int dep = 0;
      for (GateId f : g.fanins) dep = std::max(dep, depth[static_cast<std::size_t>(f)] + 1);
      depth[static_cast<std::size_t>(id)] = dep;
      max_depth = std::max(max_depth, dep);
    }
    int at = model.embedding_dim();
    x_all.at(static_cast<int>(d), at++) =
        static_cast<float>(std::log(std::max(tool_area[d], 1e-6)));
    x_all.at(static_cast<int>(d), at++) =
        static_cast<float>(std::log(std::max(tool_power[d], 1e-6)));
    x_all.at(static_cast<int>(d), at++) =
        std::log1p(static_cast<float>(nl.size()));
    x_all.at(static_cast<int>(d), at++) =
        std::log1p(static_cast<float>(nl.size()) / static_cast<float>(max_depth));
    x_all.at(static_cast<int>(d), at++) =
        static_cast<float>(fanout_sum / static_cast<double>(nl.size()));
    x_all.at(static_cast<int>(d), at++) = static_cast<float>(max_depth) / 20.f;
    // Netlist-stage *propagated-activity* power report: captures the
    // activity structure the flat tool estimate misses.
    x_all.at(static_cast<int>(d), at++) = static_cast<float>(
        std::log(std::max(netlist_stage_power(nl).total(), 1e-6)));
  });

  // GNN features: structural + physical + the per-gate netlist-stage power
  // estimate (PowPrediCT consumes per-cell synthesis reports the same way).
  std::vector<Mat> feats(n);
  std::vector<CsrPtr> adjs(n);
  for (std::size_t d = 0; d < n; ++d) {
    const Netlist& nl = corpus.designs[d].gen.netlist;
    const Mat base = netlist_base_features(nl);
    const Mat phys = netlist_phys_features(nl);
    Mat f(base.rows, base.cols + phys.cols + 1);
    for (int i = 0; i < base.rows; ++i) {
      for (int j = 0; j < base.cols; ++j) f.at(i, j) = base.at(i, j);
      for (int j = 0; j < phys.cols; ++j) f.at(i, base.cols + j) = phys.at(i, j);
      const Gate& g = nl.gate(static_cast<GateId>(i));
      double pin_cap = 0.0;
      for (GateId s : g.fanouts) pin_cap += cell_info(nl.gate(s).type).input_cap;
      const double node_power =
          0.5 * pin_cap * 1.1 * 1.1 * 0.2 + cell_info(g.type).leakage * 1e-3;
      f.at(i, base.cols + phys.cols) = static_cast<float>(node_power);
    }
    feats[d] = std::move(f);
    adjs[d] = normalized_adjacency(static_cast<int>(nl.size()), netlist_edges(nl));
  }

  auto eval_target = [&](const std::vector<double>& labels,
                         const std::vector<double>& tool_est) {
    Task4Cell cell;
    // Tool estimate directly.
    std::vector<double> truth, tool_pred;
    for (int d : test) {
      truth.push_back(labels[static_cast<std::size_t>(d)]);
      tool_pred.push_back(tool_est[static_cast<std::size_t>(d)]);
    }
    cell.tool = regression_report(truth, tool_pred);
    // GNN.
    Rng gnn_rng = rng.fork();
    cell.gnn = regression_report(
        truth, train_eval_gnn(feats, adjs, labels, train, test,
                              options.gnn_steps, options.gnn_lr, gnn_rng));
    // NetTAG: residual learning against the netlist-stage estimate — the
    // head predicts log(label / tool_estimate), so it only has to model the
    // layout-stage correction the tool cannot see. Tree-based fine-tuning
    // (paper §II-F: "MLPs or tree-based models") is the robust choice at
    // tens of training designs.
    Rng head_rng = rng.fork();
    std::vector<double> y_ratio;
    double ratio_lo = 1e9, ratio_hi = -1e9;
    std::vector<int> train_rows(train.begin(), train.end());
    for (int d : train) {
      const std::size_t di = static_cast<std::size_t>(d);
      const double r = std::log(std::max(labels[di], 1e-6) /
                                std::max(tool_est[di], 1e-6));
      y_ratio.push_back(r);
      ratio_lo = std::min(ratio_lo, r);
      ratio_hi = std::max(ratio_hi, r);
    }
    GbdtRegressor head;
    head.fit(take_rows(x_all, train_rows), y_ratio, head_rng);
    std::vector<int> test_rows(test.begin(), test.end());
    std::vector<double> pred_ratio = head.predict(take_rows(x_all, test_rows));
    std::vector<double> pred;
    for (std::size_t i = 0; i < test.size(); ++i) {
      // Stay inside the correction range seen in training.
      const double r = std::clamp(pred_ratio[i], ratio_lo, ratio_hi);
      pred.push_back(tool_est[static_cast<std::size_t>(test[i])] * std::exp(r));
    }
    cell.nettag = regression_report(truth, pred);
    return cell;
  };

  Task4Result result;
  result.area_wo_opt = eval_target(area_wo, tool_area);
  result.area_w_opt = eval_target(area_w, tool_area);
  result.power_wo_opt = eval_target(power_wo, tool_power);
  result.power_w_opt = eval_target(power_w, tool_power);
  return result;
}

}  // namespace nettag
