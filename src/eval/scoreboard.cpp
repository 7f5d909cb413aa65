#include "eval/scoreboard.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/json.hpp"
#include "common/timer.hpp"
#include "datagen/workloads.hpp"

namespace mafia::eval {

namespace {

/// Truth Clustering from a generated workload: record labels straight off
/// the Dataset, subspace dims from the planted ClusterSpecs.
Clustering truth_of(const GeneratorConfig& config, const Dataset& data) {
  Clustering truth;
  truth.labels.assign(data.labels().begin(), data.labels().end());
  truth.cluster_dims.reserve(config.clusters.size());
  for (const ClusterSpec& spec : config.clusters) {
    truth.cluster_dims.push_back(spec.dims);
  }
  return truth;
}

AlgorithmScore run_one(const std::string& algorithm, const Dataset& data,
                       const Clustering& truth, const AdapterHints& hints,
                       int ranks) {
  AlgorithmScore row;
  row.algorithm = algorithm;
  Timer timer;
  try {
    AdapterOutput out = run_algorithm(algorithm, data, hints, ranks);
    row.seconds = timer.seconds();
    row.clusters_found = out.clusters_found;
    row.scores = score_clustering(out.clustering, truth);
    row.ok = true;
  } catch (const std::exception& e) {
    row.seconds = timer.seconds();
    row.error = e.what();
    row.ok = false;
  }
  return row;
}

void check_algorithms(const std::vector<std::string>& algorithms) {
  for (const std::string& a : algorithms) {
    if (!is_algorithm(a)) {
      throw Error("unknown algorithm: " + a, ErrorClass::Usage);
    }
  }
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {
      "tab3-boundary", "lshape-boundary", "highdim-200", "overlap-shared",
      "mixed-categorical", "drift"};
  return names;
}

bool is_workload(const std::string& name) {
  const std::vector<std::string>& names = workload_names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Workload make_workload(const std::string& name, RecordIndex records,
                       std::uint64_t seed) {
  Workload w;
  w.name = name;
  if (name == "tab3-boundary") {
    // The paper's Table 3 setup: extents misaligned with CLIQUE's uniform
    // grid, so its edge bins drop below tau and "large parts of the
    // clusters were thrown away as outliers" (§5.9) — the boundary gate.
    w.boundary = true;
    w.config = workloads::tab3_quality(records, seed);
    w.hints.true_clusters = 2;
    w.hints.avg_cluster_dims = 4;
    // Low enough that CLIQUE's 4-d cells of the planted clusters go dense
    // (the central cell holds ~1.4% of the records), high enough that pure
    // background cells do not; CLIQUE still bleeds F1 on the misaligned
    // edge bins and on its lower-dim projection clusters.
    w.hints.clique_tau = 0.015;
  } else if (name == "lshape-boundary") {
    // Non-hyper-rectangular shape with misaligned arms: adaptive windows
    // hug the L, a fixed grid loses the arm edges.
    w.boundary = true;
    w.config = workloads::l_shape_demo(records, seed);
    w.hints.true_clusters = 1;
    w.hints.avg_cluster_dims = 2;
    w.hints.clique_tau = 0.08;  // the L's arm cells hold less mass than a box
  } else if (name == "highdim-200") {
    w.config = workloads::highdim(records, seed);
    w.hints.true_clusters = 3;
    w.hints.avg_cluster_dims = 12;
    w.hints.birch_threshold_factor = 0.30;  // see AdapterHints: CF-tree
                                            // degenerates below this at d=200
  } else if (name == "overlap-shared") {
    w.config = workloads::overlap(records, seed);
    w.hints.true_clusters = 2;
    w.hints.avg_cluster_dims = 4;
  } else if (name == "drift") {
    // The streaming-append workload's combined footprint: a stationary
    // anchor plus a drifting cluster's swept (two-box) region — the data a
    // base + `pmafia append` sequence ends up clustering.
    w.config = workloads::drift_combined(records, seed);
    w.hints.true_clusters = 2;
    w.hints.avg_cluster_dims = 3;
  } else if (name == "mixed-categorical") {
    w.config = workloads::mixed(records, seed);
    w.hints.true_clusters = 2;
    w.hints.avg_cluster_dims = 3;
    // Two categorical dims make every level pair a real 2-d dense region;
    // the planted clusters are 3-d, so report from 3 dims up.
    w.hints.min_cluster_dims = 3;
  } else {
    throw Error("unknown workload: " + name, ErrorClass::Usage);
  }
  w.hints.seed = seed;
  return w;
}

WorkloadScore score_workload(const Workload& workload, const Dataset& data,
                             const std::vector<std::string>& algorithms,
                             int ranks) {
  check_algorithms(algorithms);
  const Clustering truth = truth_of(workload.config, data);
  WorkloadScore ws;
  ws.name = workload.name;
  ws.boundary = workload.boundary;
  ws.num_dims = data.num_dims();
  ws.num_records = data.num_records();
  ws.planted_clusters = workload.config.clusters.size();
  for (const std::string& a : algorithms) {
    ws.algorithms.push_back(run_one(a, data, truth, workload.hints, ranks));
  }
  return ws;
}

WorkloadScore score_dataset(const std::string& name, const Dataset& data,
                            const std::vector<std::string>& algorithms,
                            const AdapterHints& hints, int ranks) {
  check_algorithms(algorithms);
  Clustering truth;
  truth.labels.assign(data.labels().begin(), data.labels().end());
  WorkloadScore ws;
  ws.name = name;
  ws.num_dims = data.num_dims();
  ws.num_records = data.num_records();
  for (const std::string& a : algorithms) {
    ws.algorithms.push_back(run_one(a, data, truth, hints, ranks));
  }
  return ws;
}

ScoreboardResult run_scoreboard(const std::vector<std::string>& workloads,
                                const std::vector<std::string>& algorithms,
                                RecordIndex records, std::uint64_t seed,
                                int ranks) {
  check_algorithms(algorithms);
  for (const std::string& w : workloads) {
    if (!is_workload(w)) throw Error("unknown workload: " + w, ErrorClass::Usage);
  }
  ScoreboardResult result;
  result.records = records;
  result.seed = seed;
  result.ranks = ranks;
  for (const std::string& name : workloads) {
    const Workload workload = make_workload(name, records, seed);
    const Dataset data = generate(workload.config);
    result.workloads.push_back(
        score_workload(workload, data, algorithms, ranks));
  }
  return result;
}

std::string scoreboard_json(const ScoreboardResult& result) {
  JsonWriter w;
  w.begin_object();
  w.key("schema").value(kScoreboardSchema);
  w.key("records").value(static_cast<std::uint64_t>(result.records));
  w.key("seed").value(static_cast<std::uint64_t>(result.seed));
  w.key("ranks").value(result.ranks);
  w.key("workloads").begin_array();
  for (const WorkloadScore& ws : result.workloads) {
    w.begin_object();
    w.key("name").value(ws.name);
    w.key("boundary").value(ws.boundary);
    w.key("dims").value(static_cast<std::uint64_t>(ws.num_dims));
    w.key("rows").value(static_cast<std::uint64_t>(ws.num_records));
    w.key("planted_clusters").value(static_cast<std::uint64_t>(ws.planted_clusters));
    w.key("algorithms").begin_array();
    for (const AlgorithmScore& a : ws.algorithms) {
      w.begin_object();
      w.key("name").value(a.algorithm);
      w.key("status").value(a.ok ? "ok" : "failed");
      w.key("seconds").value(a.seconds);
      if (a.ok) {
        w.key("clusters_found").value(static_cast<std::uint64_t>(a.clusters_found));
        w.key("metrics").begin_object();
        w.key("f1").value(a.scores.f1);
        w.key("precision").value(a.scores.precision);
        w.key("recall").value(a.scores.recall);
        w.key("entropy").value(a.scores.entropy);
        w.key("coverage").value(a.scores.coverage);
        // NaN (truth subspaces unknown) serializes as null.
        w.key("subspace_recovery").value(a.scores.subspace_recovery);
        w.end_object();
        w.key("matched_clusters").value(static_cast<std::uint64_t>(a.scores.matched_clusters));
      } else {
        w.key("error").value(a.error);
      }
      w.end_object();
    }
    w.end_array();
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

}  // namespace mafia::eval
