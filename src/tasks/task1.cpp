#include "tasks/task1.hpp"

#include <algorithm>
#include <numeric>

#include "model/gcn.hpp"
#include "model/graph.hpp"
#include "util/parallel.hpp"
#include "tasks/labels.hpp"

namespace nettag {

void task1_gate_labels(const Netlist& nl, std::vector<int>* gate_rows,
                       std::vector<int>* labels) {
  gate_rows->clear();
  labels->clear();
  for (const Gate& g : nl.gates()) {
    if (gate_class_of(g.type) < 0) continue;  // logic gates only
    const int label = task1_class_id(g.rtl_block);
    if (label < 0) continue;
    gate_rows->push_back(static_cast<int>(g.id));
    labels->push_back(label);
  }
}

ClassificationReport average_reports(
    const std::vector<ClassificationReport>& reports) {
  ClassificationReport avg;
  if (reports.empty()) return avg;
  for (const auto& r : reports) {
    avg.accuracy += r.accuracy;
    avg.precision += r.precision;
    avg.recall += r.recall;
    avg.f1 += r.f1;
    avg.num_samples += r.num_samples;
  }
  const double k = static_cast<double>(reports.size());
  avg.accuracy /= k;
  avg.precision /= k;
  avg.recall /= k;
  avg.f1 /= k;
  return avg;
}

Task1Result run_task1(NetTag& model, const Corpus& corpus,
                      const Task1Options& options, Rng& rng) {
  const int num_classes = static_cast<int>(task1_classes().size());

  // Split designs: first num_test_designs of a shuffled order are test.
  std::vector<int> order(corpus.designs.size());
  std::iota(order.begin(), order.end(), 0);
  rng.shuffle(order);
  const int n_test = std::min<int>(options.num_test_designs,
                                   static_cast<int>(order.size()) / 2);
  std::vector<int> test(order.begin(), order.begin() + n_test);
  std::vector<int> train(order.begin() + n_test, order.end());

  // Per-design labeled gates.
  struct DesignData {
    const Netlist* nl;
    std::vector<int> gate_rows;
    std::vector<int> labels;
  };
  std::vector<DesignData> data(corpus.designs.size());
  for (std::size_t i = 0; i < corpus.designs.size(); ++i) {
    data[i].nl = &corpus.designs[i].gen.netlist;
    task1_gate_labels(*data[i].nl, &data[i].gate_rows, &data[i].labels);
  }

  // ---------------- NetTAG: frozen embeddings + MLP head -------------------
  // Gate feature = TAGFormer-refined embedding concatenated with the raw
  // input features (ExprLLM text embedding + x_phys): the head fine-tunes on
  // both granularities of the frozen representation.
  std::vector<Mat> embeddings(corpus.designs.size());
  ThreadPool::instance().run_indexed(corpus.designs.size(), [&](std::size_t i) {
    const NetTag::ConeEmbedding emb = model.embed(*data[i].nl);
    Mat joined(emb.nodes.rows, emb.nodes.cols + emb.inputs.cols);
    for (int r = 0; r < emb.nodes.rows; ++r) {
      for (int j = 0; j < emb.nodes.cols; ++j) joined.at(r, j) = emb.nodes.at(r, j);
      for (int j = 0; j < emb.inputs.cols; ++j) {
        joined.at(r, emb.nodes.cols + j) = emb.inputs.at(r, j);
      }
    }
    embeddings[i] = std::move(joined);
  });
  std::vector<Mat> x_parts;
  std::vector<int> y_train;
  for (int d : train) {
    const auto& dd = data[static_cast<std::size_t>(d)];
    if (dd.gate_rows.empty()) continue;
    x_parts.push_back(take_rows(embeddings[static_cast<std::size_t>(d)], dd.gate_rows));
    y_train.insert(y_train.end(), dd.labels.begin(), dd.labels.end());
  }
  ClassifierHead nettag_head(model.embedding_dim() + model.tag_in_dim(),
                             num_classes, options.head, rng);
  if (!x_parts.empty()) nettag_head.fit(vstack(x_parts), y_train, rng);

  // ---------------- GNN-RE baseline: supervised GCN ------------------------
  Rng gnn_rng = rng.fork();
  GcnConfig gc;
  gc.in_dim = netlist_base_feature_dim();
  gc.hidden = 48;
  gc.num_layers = 3;
  gc.out_dim = num_classes;
  Gcn gnn(gc, gnn_rng);
  Adam gnn_opt(gnn.params(), options.gnn_lr);
  // Precompute features/adjacency per design.
  std::vector<Mat> feats(corpus.designs.size());
  std::vector<CsrPtr> adjs(corpus.designs.size());
  for (std::size_t i = 0; i < corpus.designs.size(); ++i) {
    feats[i] = netlist_base_features(*data[i].nl);
    adjs[i] = normalized_adjacency(static_cast<int>(data[i].nl->size()),
                                   netlist_edges(*data[i].nl));
  }
  for (int step = 0; step < options.gnn_steps; ++step) {
    const int d = train[gnn_rng.index(train.size())];
    const auto& dd = data[static_cast<std::size_t>(d)];
    if (dd.gate_rows.empty()) continue;
    Tensor nodes = gnn.forward_nodes(
        make_tensor(feats[static_cast<std::size_t>(d)], false),
        adjs[static_cast<std::size_t>(d)]);
    std::vector<Tensor> rows;
    rows.reserve(dd.gate_rows.size());
    for (int r : dd.gate_rows) rows.push_back(slice_rows(nodes, r, 1));
    Tensor loss = cross_entropy(concat_rows(rows), dd.labels);
    backward(loss);
    gnn_opt.step();
  }

  // ---------------- evaluation ---------------------------------------------
  Task1Result result;
  std::vector<ClassificationReport> gnn_reports, nettag_reports;
  for (int d : test) {
    const auto& dd = data[static_cast<std::size_t>(d)];
    if (dd.gate_rows.empty()) continue;
    Task1Row row;
    row.design = dd.nl->name();
    // NetTAG predictions.
    const Mat x = take_rows(embeddings[static_cast<std::size_t>(d)], dd.gate_rows);
    row.nettag = classification_report(dd.labels, nettag_head.predict(x));
    // GNN predictions.
    Tensor nodes = gnn.forward_nodes(
        make_tensor(feats[static_cast<std::size_t>(d)], false),
        adjs[static_cast<std::size_t>(d)]);
    std::vector<int> pred;
    for (int r : dd.gate_rows) {
      int best = 0;
      for (int j = 1; j < num_classes; ++j) {
        if (nodes->value.at(r, j) > nodes->value.at(r, best)) best = j;
      }
      pred.push_back(best);
    }
    row.gnnre = classification_report(dd.labels, pred);
    gnn_reports.push_back(row.gnnre);
    nettag_reports.push_back(row.nettag);
    result.rows.push_back(std::move(row));
  }
  result.gnnre_avg = average_reports(gnn_reports);
  result.nettag_avg = average_reports(nettag_reports);
  return result;
}

}  // namespace nettag
