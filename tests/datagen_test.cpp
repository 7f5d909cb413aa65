// Tests for the Section 5.1 synthetic data generator: record accounting,
// noise fraction, label fidelity, the unit-cube coverage guarantee, record
// permutation, engine selection, and the canned workload configurations.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <vector>

#include "datagen/generator.hpp"
#include "datagen/workloads.hpp"

namespace mafia {
namespace {

GeneratorConfig small_config() {
  GeneratorConfig cfg;
  cfg.num_dims = 6;
  cfg.num_records = 5000;
  cfg.seed = 3;
  cfg.clusters.push_back(ClusterSpec::box({1, 3}, {20, 40}, {40, 60}));
  return cfg;
}

TEST(Generator, RecordCountIncludesAdditionalNoise) {
  const GeneratorConfig cfg = small_config();
  const Dataset data = generate(cfg);
  // "An additional 10% noise records is added".
  EXPECT_EQ(data.num_records(), 5500u);
  EXPECT_EQ(data.num_dims(), 6u);
}

TEST(Generator, NoiseFractionIsRespected) {
  GeneratorConfig cfg = small_config();
  cfg.noise_fraction = 0.25;
  const Dataset data = generate(cfg);
  std::size_t noise = 0;
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    noise += (data.label(i) == -1);
  }
  EXPECT_EQ(noise, 1250u);
  EXPECT_EQ(data.num_records(), 6250u);
}

TEST(Generator, ClusterRecordsLieInsideTheirBoxes) {
  const GeneratorConfig cfg = small_config();
  const Dataset data = generate(cfg);
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    if (data.label(i) != 0) continue;
    EXPECT_GE(data.at(i, 1), 20.0f);
    EXPECT_LE(data.at(i, 1), 40.0f);
    EXPECT_GE(data.at(i, 3), 40.0f);
    EXPECT_LE(data.at(i, 3), 60.0f);
  }
}

TEST(Generator, NonSubspaceDimsSpanTheDomain) {
  const GeneratorConfig cfg = small_config();
  const Dataset data = generate(cfg);
  Value lo = 100.0f;
  Value hi = 0.0f;
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    if (data.label(i) != 0) continue;
    lo = std::min(lo, data.at(i, 0));
    hi = std::max(hi, data.at(i, 0));
  }
  EXPECT_LT(lo, 5.0f);
  EXPECT_GT(hi, 95.0f);
}

TEST(Generator, UnitCubeCoverageGuarantee) {
  // "Data points are generated such that each unit cube, part of the user
  // defined cluster, in this scaled space contains at least one point."
  // Cluster 20x20 in scaled units => 400 unit cubes, 4545 cluster records.
  const GeneratorConfig cfg = small_config();
  const Dataset data = generate(cfg);
  std::set<std::pair<int, int>> cubes;
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    if (data.label(i) != 0) continue;
    const int a = std::min(19, static_cast<int>((data.at(i, 1) - 20.0f)));
    const int b = std::min(19, static_cast<int>((data.at(i, 3) - 40.0f)));
    cubes.insert({a, b});
  }
  EXPECT_EQ(cubes.size(), 400u) << "some unit cube of the cluster is empty";
}

TEST(Generator, DeterministicPerSeed) {
  const GeneratorConfig cfg = small_config();
  const Dataset a = generate(cfg);
  const Dataset b = generate(cfg);
  EXPECT_TRUE(std::ranges::equal(a.values(), b.values()));
  EXPECT_TRUE(std::ranges::equal(a.labels(), b.labels()));
}

TEST(Generator, DifferentSeedsDiffer) {
  GeneratorConfig cfg = small_config();
  const Dataset a = generate(cfg);
  cfg.seed = 4;
  const Dataset b = generate(cfg);
  EXPECT_FALSE(std::ranges::equal(a.values(), b.values()));
}

TEST(Generator, PermutationShufflesLabels) {
  // With permutation on, cluster and noise records interleave; a long
  // prefix of only-cluster labels would betray ordering.
  const GeneratorConfig cfg = small_config();
  const Dataset data = generate(cfg);
  bool noise_in_first_quarter = false;
  for (RecordIndex i = 0; i < data.num_records() / 4; ++i) {
    noise_in_first_quarter = noise_in_first_quarter || data.label(i) == -1;
  }
  EXPECT_TRUE(noise_in_first_quarter);
}

TEST(Generator, NoPermutationKeepsGenerationOrder) {
  GeneratorConfig cfg = small_config();
  cfg.permute_records = false;
  const Dataset data = generate(cfg);
  // All noise records sit at the tail.
  for (RecordIndex i = 0; i < 5000; ++i) EXPECT_EQ(data.label(i), 0);
  for (RecordIndex i = 5000; i < data.num_records(); ++i) {
    EXPECT_EQ(data.label(i), -1);
  }
}

TEST(Generator, LcgEngineProducesDifferentData) {
  GeneratorConfig cfg = small_config();
  const Dataset icg = generate(cfg);
  cfg.engine = GeneratorConfig::Engine::Lcg;
  const Dataset lcg = generate(cfg);
  EXPECT_FALSE(std::ranges::equal(icg.values(), lcg.values()));
  EXPECT_EQ(lcg.num_records(), icg.num_records());
}

TEST(Generator, MultiBoxClusterSplitsByVolume) {
  GeneratorConfig cfg;
  cfg.num_dims = 4;
  cfg.num_records = 4000;
  cfg.seed = 5;
  ClusterSpec spec;
  spec.dims = {0, 2};
  spec.boxes.push_back(ClusterBox{{10, 10}, {30, 30}});  // area 400
  spec.boxes.push_back(ClusterBox{{60, 60}, {70, 70}});  // area 100
  cfg.clusters.push_back(std::move(spec));
  const Dataset data = generate(cfg);
  std::size_t in_big = 0;
  std::size_t in_small = 0;
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    if (data.label(i) != 0) continue;
    const Value a = data.at(i, 0);
    const Value c = data.at(i, 2);
    if (a >= 10 && a <= 30 && c >= 10 && c <= 30) ++in_big;
    if (a >= 60 && a <= 70 && c >= 60 && c <= 70) ++in_small;
  }
  EXPECT_EQ(in_big + in_small, 4000u);
  // 4:1 volume ratio within 15% relative tolerance.
  EXPECT_NEAR(static_cast<double>(in_big) / in_small, 4.0, 0.6);
}

TEST(Generator, WeightsSplitRecordsAcrossClusters) {
  GeneratorConfig cfg;
  cfg.num_dims = 4;
  cfg.num_records = 3000;
  cfg.seed = 6;
  cfg.clusters.push_back(ClusterSpec::box({0}, {10}, {20}, 2.0));
  cfg.clusters.push_back(ClusterSpec::box({1}, {10}, {20}, 1.0));
  const Dataset data = generate(cfg);
  std::size_t c0 = 0;
  std::size_t c1 = 0;
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    c0 += (data.label(i) == 0);
    c1 += (data.label(i) == 1);
  }
  EXPECT_EQ(c0 + c1, 3000u);
  EXPECT_NEAR(static_cast<double>(c0) / c1, 2.0, 0.05);
}

TEST(Generator, ValidationCatchesBadSpecs) {
  GeneratorConfig cfg = small_config();
  cfg.clusters[0].dims = {3, 1};  // not ascending
  EXPECT_THROW((void)generate(cfg), Error);

  cfg = small_config();
  cfg.clusters[0].boxes[0].hi[0] = 10;  // hi < lo
  EXPECT_THROW((void)generate(cfg), Error);

  cfg = small_config();
  cfg.clusters[0].dims = {1, 9};  // out of range for 6 dims
  EXPECT_THROW((void)generate(cfg), Error);

  cfg = small_config();
  cfg.num_records = 0;
  EXPECT_THROW((void)generate(cfg), Error);
}

TEST(Generator, GroundTruthMirrorsSpecs) {
  GeneratorConfig cfg = small_config();
  ClusterSpec two_box;
  two_box.dims = {0, 5};
  two_box.boxes.push_back(ClusterBox{{1, 1}, {2, 2}});
  two_box.boxes.push_back(ClusterBox{{3, 3}, {4, 4}});
  cfg.clusters.push_back(std::move(two_box));
  const auto truth = ground_truth(cfg);
  ASSERT_EQ(truth.size(), 3u);  // 1 + 2 boxes
  EXPECT_EQ(truth[0].dims, (std::vector<DimId>{1, 3}));
  EXPECT_EQ(truth[1].dims, (std::vector<DimId>{0, 5}));
  EXPECT_EQ(truth[2].lo, (std::vector<Value>{3, 3}));
}

// ------------------------------------------------------- canned workloads

TEST(Workloads, AllConfigsValidate) {
  workloads::fig3_parallel(1000).validate();
  workloads::tab1_vs_clique(1000).validate();
  workloads::tab2_cdu_counts(1000).validate();
  workloads::fig5_dbsize(1000).validate();
  workloads::fig6_datadim(1000, 10).validate();
  workloads::fig6_datadim(1000, 100).validate();
  workloads::fig7_clusterdim(1000, 3).validate();
  workloads::fig7_clusterdim(1000, 10).validate();
  workloads::tab3_quality(1000).validate();
  workloads::dax_like().validate();
  workloads::ionosphere_like().validate();
  workloads::eachmovie_like(1000).validate();
  workloads::l_shape_demo(1000).validate();
}

TEST(Workloads, StructuralShapesMatchThePaper) {
  EXPECT_EQ(workloads::fig3_parallel(1000).num_dims, 30u);
  EXPECT_EQ(workloads::fig3_parallel(1000).clusters.size(), 5u);
  for (const auto& c : workloads::fig3_parallel(1000).clusters) {
    EXPECT_EQ(c.dims.size(), 6u);
  }

  EXPECT_EQ(workloads::tab1_vs_clique(1000).num_dims, 15u);
  EXPECT_EQ(workloads::tab1_vs_clique(1000).clusters.size(), 1u);
  EXPECT_EQ(workloads::tab1_vs_clique(1000).clusters[0].dims.size(), 5u);

  EXPECT_EQ(workloads::tab2_cdu_counts(1000).clusters[0].dims.size(), 7u);

  // Fig 6: exactly 9 distinct cluster dims regardless of data dims.
  for (const std::size_t d : {10u, 40u, 100u}) {
    const auto cfg = workloads::fig6_datadim(1000, d);
    std::set<DimId> distinct;
    for (const auto& c : cfg.clusters) {
      distinct.insert(c.dims.begin(), c.dims.end());
    }
    EXPECT_EQ(distinct.size(), 9u) << "data dims " << d;
    EXPECT_EQ(cfg.num_dims, d);
  }

  EXPECT_EQ(workloads::dax_like().num_records, 2757u);
  EXPECT_EQ(workloads::dax_like().num_dims, 22u);
  EXPECT_EQ(workloads::ionosphere_like().num_records, 351u);
  EXPECT_EQ(workloads::ionosphere_like().num_dims, 34u);
  EXPECT_EQ(workloads::eachmovie_like(1000).num_dims, 4u);
  EXPECT_EQ(workloads::eachmovie_like(1000).clusters.size(), 7u);
}

TEST(Workloads, Fig7ClusterDimsAreDistinct) {
  for (std::size_t k = 3; k <= 10; ++k) {
    const auto cfg = workloads::fig7_clusterdim(1000, k);
    const auto& dims = cfg.clusters[0].dims;
    EXPECT_EQ(dims.size(), k);
    EXPECT_TRUE(std::is_sorted(dims.begin(), dims.end()));
    EXPECT_EQ(std::set<DimId>(dims.begin(), dims.end()).size(), k);
  }
}

// ------------------------------------------- scoreboard stress workloads

TEST(StressWorkloads, ConfigsValidate) {
  workloads::highdim(1000).validate();
  workloads::overlap(1000).validate();
  workloads::mixed(1000).validate();
}

TEST(StressWorkloads, HighdimRecordsLieInsideTheirBoxes) {
  const GeneratorConfig cfg = workloads::highdim(900);
  EXPECT_EQ(cfg.num_dims, 200u);
  ASSERT_EQ(cfg.clusters.size(), 3u);
  EXPECT_EQ(cfg.clusters[0].dims.size(), 10u);
  EXPECT_EQ(cfg.clusters[1].dims.size(), 12u);
  EXPECT_EQ(cfg.clusters[2].dims.size(), 15u);
  const Dataset data = generate(cfg);
  std::size_t per_cluster[3] = {0, 0, 0};
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    const std::int32_t label = data.label(i);
    if (label == kNoiseLabel) continue;
    ASSERT_GE(label, 0);
    ASSERT_LT(label, 3);
    ++per_cluster[label];
    const ClusterSpec& spec = cfg.clusters[static_cast<std::size_t>(label)];
    for (std::size_t k = 0; k < spec.dims.size(); ++k) {
      EXPECT_GE(data.at(i, spec.dims[k]), spec.boxes[0].lo[k]);
      EXPECT_LE(data.at(i, spec.dims[k]), spec.boxes[0].hi[k]);
    }
  }
  EXPECT_GT(per_cluster[0], 0u);
  EXPECT_GT(per_cluster[1], 0u);
  EXPECT_GT(per_cluster[2], 0u);
}

TEST(StressWorkloads, OverlapIsRealizedInTheSharedRegion) {
  // Both clusters share dims {2,4,6}; their boxes intersect on [40,50]
  // there.  Records from BOTH clusters must land in the shared region,
  // otherwise the workload does not actually exercise ambiguity.
  const Dataset data = generate(workloads::overlap(2000));
  std::size_t shared[2] = {0, 0};
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    const std::int32_t label = data.label(i);
    if (label != 0 && label != 1) continue;
    bool in_shared = true;
    for (const DimId d : {2, 4, 6}) {
      in_shared = in_shared && data.at(i, d) >= 40.0f && data.at(i, d) <= 50.0f;
    }
    shared[label] += in_shared;
  }
  EXPECT_GT(shared[0], 0u);
  EXPECT_GT(shared[1], 0u);
}

TEST(StressWorkloads, MixedCategoricalDimsOnlyTakeLevelValues) {
  const GeneratorConfig cfg = workloads::mixed(1500);
  const Dataset data = generate(cfg);
  const std::set<Value> levels = {10, 30, 50, 70, 90};
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    // Every record — cluster or noise — snaps dims 6/7 to a level.
    EXPECT_TRUE(levels.count(data.at(i, 6))) << data.at(i, 6);
    EXPECT_TRUE(levels.count(data.at(i, 7))) << data.at(i, 7);
    if (data.label(i) == 0) {
      EXPECT_EQ(data.at(i, 6), 50.0f);  // only level inside [44,56]
      EXPECT_GE(data.at(i, 9), 200.0f);
      EXPECT_LE(data.at(i, 9), 360.0f);
    } else if (data.label(i) == 1) {
      EXPECT_EQ(data.at(i, 7), 70.0f);  // only level inside [64,76]
      EXPECT_GE(data.at(i, 10), 600.0f);
      EXPECT_LE(data.at(i, 10), 760.0f);
    }
  }
}

TEST(StressWorkloads, MixedScaleDimsSpanTheirOwnDomains) {
  const Dataset data = generate(workloads::mixed(3000));
  Value hi8 = 0.0f;
  Value hi0 = 0.0f;
  for (RecordIndex i = 0; i < data.num_records(); ++i) {
    hi8 = std::max(hi8, data.at(i, 8));
    hi0 = std::max(hi0, data.at(i, 0));
  }
  EXPECT_GT(hi8, 500.0f);   // [0,1000] background actually used
  EXPECT_LE(hi0, 100.0f);   // [0,100] dims never exceed their domain
}

TEST(StressWorkloads, DeterministicPerSeed) {
  for (int variant = 0; variant < 3; ++variant) {
    const auto make = [&](std::uint64_t seed) {
      switch (variant) {
        case 0: return workloads::highdim(700, seed);
        case 1: return workloads::overlap(700, seed);
        default: return workloads::mixed(700, seed);
      }
    };
    const Dataset a = generate(make(5));
    const Dataset b = generate(make(5));
    EXPECT_TRUE(std::ranges::equal(a.values(), b.values())) << "variant " << variant;
    EXPECT_TRUE(std::ranges::equal(a.labels(), b.labels())) << "variant " << variant;
    const Dataset c = generate(make(6));
    EXPECT_FALSE(std::ranges::equal(a.values(), c.values())) << "variant " << variant;
  }
}

TEST(StressWorkloads, DimSpecValidationCatchesBadSpecs) {
  GeneratorConfig cfg = workloads::mixed(1000);
  cfg.dim_specs.resize(5);  // wrong arity
  EXPECT_THROW((void)generate(cfg), Error);

  cfg = workloads::mixed(1000);
  cfg.dim_specs[6].levels = {30, 10};  // not ascending
  EXPECT_THROW((void)generate(cfg), Error);

  cfg = workloads::mixed(1000);
  cfg.clusters[0].boxes[0].lo[1] = 51;  // box [51,56] contains no level
  cfg.clusters[0].boxes[0].hi[1] = 56;
  EXPECT_THROW((void)generate(cfg), Error);

  cfg = workloads::mixed(1000);
  cfg.clusters[1].boxes[0].hi[2] = 1200;  // beyond dim 10's [0,1000] domain
  EXPECT_THROW((void)generate(cfg), Error);
}

}  // namespace
}  // namespace mafia
