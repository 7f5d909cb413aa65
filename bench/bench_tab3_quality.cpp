// Table 3: quality of clustering — CLIQUE (fixed 10 bins), CLIQUE
// (variable bins), and pMAFIA on the same data set.
//
// Paper: 400,000 records, 10-d, 2 clusters each in a different 4-d subspace
// ({1,7,8,9} and {2,3,4,5}).  CLIQUE with 10 fixed bins found both
// subspaces but "detected the 2 clusters only partially and large parts of
// the clusters were thrown away as outliers"; with arbitrary per-dimension
// bin counts (5..20) it "completely failed to detect one of the clusters";
// pMAFIA reported both clusters and their boundaries accurately.
#include "bench_common.hpp"

#include "clique/clique.hpp"
#include "cluster/membership.hpp"
#include "cluster/quality.hpp"
#include "core/mafia.hpp"
#include "datagen/workloads.hpp"
#include "io/data_source.hpp"

namespace {

void print_row(const char* name, const mafia::QualityReport& q,
               const char* paper) {
  std::printf("%-26s %-10zu %-10zu %-11.3f %-12.4f %s\n", name,
              q.subspaces_matched, q.discovered_clusters, q.mean_coverage,
              q.mean_boundary_error, paper);
}

}  // namespace

int main() {
  using namespace mafia;

  const RecordIndex records = bench::scaled(50000);
  bench::print_header(
      "Table 3 — Quality of clustering",
      "400k records, 10-d, clusters in {1,7,8,9} and {2,3,4,5}, 16 procs",
      "scaled records, same subspaces; extents misaligned with fixed grids");

  const GeneratorConfig cfg = workloads::tab3_quality(records);
  const Dataset data = generate(cfg);
  InMemorySource source(data);
  const auto truth = ground_truth(cfg);

  // CLIQUE, fixed 10 bins, tau = 1% (the paper's first configuration).
  CliqueOptions fixed;
  fixed.fixed_domain = {{0.0f, 100.0f}};
  fixed.xi = 10;
  fixed.tau_fraction = 0.01;
  const MafiaResult r_fixed = run_clique(source, fixed, 16);
  const QualityReport q_fixed =
      evaluate_quality(r_fixed.clusters, r_fixed.grids, truth);

  // CLIQUE, arbitrary per-dimension bins in [5, 20] (second configuration).
  CliqueOptions variable = fixed;
  variable.bins_per_dim = {8, 20, 11, 6, 14, 9, 17, 5, 12, 19};
  const MafiaResult r_var = run_clique(source, variable, 16);
  const QualityReport q_var = evaluate_quality(r_var.clusters, r_var.grids, truth);

  // pMAFIA, no parameters.
  MafiaOptions mo;
  mo.fixed_domain = {{0.0f, 100.0f}};
  const MafiaResult r_mafia = run_pmafia(source, mo, 16);
  const QualityReport q_mafia =
      evaluate_quality(r_mafia.clusters, r_mafia.grids, truth);

  std::printf("\n%-26s %-10s %-10s %-11s %-12s %s\n", "algorithm",
              "subspaces", "clusters", "coverage", "bnd error", "paper verdict");
  print_row("CLIQUE (fixed 10 bins)", q_fixed,
            "both subspaces, partial detection");
  print_row("CLIQUE (variable bins)", q_var, "one cluster missed entirely");
  print_row("pMAFIA", q_mafia, "both clusters, accurate boundaries");

  // Record-level cluster/noise separation over ALL discovered clusters.
  // Spurious clusters swallow noise records and cost precision; the
  // "thrown away as outliers" loss shows up in the volume-coverage column
  // above (a low-dimensional projection cluster still captures the records,
  // so recall alone cannot see it).
  const auto point_row = [&](const char* name, const MafiaResult& r) {
    const auto labels = assign_members(source, r.clusters, r.grids);
    const PointScores s = point_level_scores(
        labels, {data.labels().begin(), data.labels().end()});
    std::printf("  %-26s precision %.3f  recall %.3f  F1 %.3f\n", name,
                s.precision, s.recall, s.f1());
  };
  std::printf("\nrecord-level scores (cluster vs outlier separation):\n");
  point_row("CLIQUE (fixed 10 bins)", r_fixed);
  point_row("CLIQUE (variable bins)", r_var);
  point_row("pMAFIA", r_mafia);

  std::printf("\nper-cluster detail (coverage / boundary error):\n");
  const char* names[] = {"{1,7,8,9}", "{2,3,4,5}"};
  for (std::size_t t = 0; t < truth.size(); ++t) {
    std::printf("  %-10s fixed: %.3f/%.4f   variable: %.3f/%.4f   pMAFIA: "
                "%.3f/%.4f\n",
                names[t], q_fixed.per_box[t].volume_coverage,
                q_fixed.per_box[t].boundary_error,
                q_var.per_box[t].volume_coverage,
                q_var.per_box[t].boundary_error,
                q_mafia.per_box[t].volume_coverage,
                q_mafia.per_box[t].boundary_error);
  }
  return 0;
}
