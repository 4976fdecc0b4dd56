#include "wiki/generator.h"

#include <gtest/gtest.h>

#include <set>

#include "tind/validator.h"
#include "wiki/preprocess.h"

namespace tind::wiki {
namespace {

GeneratorOptions SmallOptions(uint64_t seed = 7) {
  GeneratorOptions opts;
  opts.seed = seed;
  opts.num_days = 600;
  opts.num_families = 6;
  opts.num_noise_attributes = 30;
  opts.num_catchall_attributes = 2;
  opts.shared_vocabulary = 120;
  opts.entities_per_family_pool = 80;
  return opts;
}

TEST(GeneratorTest, DeterministicInSeed) {
  const WikiGenerator gen(SmallOptions(11));
  auto a = gen.GenerateDataset();
  auto b = gen.GenerateDataset();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->dataset.size(), b->dataset.size());
  for (size_t i = 0; i < a->dataset.size(); ++i) {
    const auto& ha = a->dataset.attribute(static_cast<AttributeId>(i));
    const auto& hb = b->dataset.attribute(static_cast<AttributeId>(i));
    ASSERT_EQ(ha.change_timestamps(), hb.change_timestamps());
    ASSERT_EQ(ha.versions().size(), hb.versions().size());
  }
  EXPECT_EQ(a->ground_truth.pairs(), b->ground_truth.pairs());
}

TEST(GeneratorTest, DifferentSeedsDiffer) {
  auto a = WikiGenerator(SmallOptions(1)).GenerateDataset();
  auto b = WikiGenerator(SmallOptions(2)).GenerateDataset();
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  // Extremely unlikely to coincide.
  EXPECT_NE(a->dataset.ComputeStats().total_versions,
            b->dataset.ComputeStats().total_versions);
}

TEST(GeneratorTest, DatasetPassesMirrorFilters) {
  auto result = WikiGenerator(SmallOptions()).GenerateDataset();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->dataset.size(), 20u);
  for (AttributeId id = 0; id < result->dataset.size(); ++id) {
    const AttributeHistory& attr = result->dataset.attribute(id);
    EXPECT_GE(attr.num_versions(), 5u) << attr.meta().FullName();
    EXPECT_GE(attr.MedianCardinality(), 5u) << attr.meta().FullName();
  }
  EXPECT_EQ(result->attribute_names.size(), result->dataset.size());
  EXPECT_EQ(result->scripts_total,
            result->dataset.size() + result->scripts_filtered);
}

TEST(GeneratorTest, GroundTruthNonEmptyAndWellFormed) {
  auto result = WikiGenerator(SmallOptions()).GenerateDataset();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->ground_truth.size(), 5u);
  const auto id_pairs =
      result->ground_truth.ToIdPairs(result->attribute_names);
  EXPECT_GT(id_pairs.size(), 0u);
  for (const auto& [lhs, rhs] : id_pairs) {
    EXPECT_NE(lhs, rhs);
    EXPECT_LT(lhs, result->dataset.size());
    EXPECT_LT(rhs, result->dataset.size());
  }
}

TEST(GeneratorTest, GenuinePairsAreRelaxedTinds) {
  // The planted inclusions must be discoverable with the paper's default
  // relaxation (eps=3, delta=7) for a decent majority — lags and transient
  // errors are bounded by construction (variants excepted).
  auto result = WikiGenerator(SmallOptions()).GenerateDataset();
  ASSERT_TRUE(result.ok());
  const Dataset& dataset = result->dataset;
  const ConstantWeight w(dataset.domain().num_timestamps());
  const auto id_pairs = result->ground_truth.ToIdPairs(result->attribute_names);
  ASSERT_GT(id_pairs.size(), 0u);
  size_t valid = 0;
  for (const auto& [lhs, rhs] : id_pairs) {
    const TindParams params{6.0, 10, &w};
    if (ValidateTind(dataset.attribute(lhs), dataset.attribute(rhs), params,
                     dataset.domain())) {
      ++valid;
    }
  }
  EXPECT_GT(static_cast<double>(valid) / id_pairs.size(), 0.5);
}

TEST(GeneratorTest, GenuinePairsMostlyNotStrictTinds) {
  // Errors and lags mean strictness should fail for a good share of the
  // genuine pairs — the motivation for the relaxations.
  auto result = WikiGenerator(SmallOptions()).GenerateDataset();
  ASSERT_TRUE(result.ok());
  const Dataset& dataset = result->dataset;
  const ConstantWeight w(dataset.domain().num_timestamps());
  const auto id_pairs = result->ground_truth.ToIdPairs(result->attribute_names);
  size_t strict_valid = 0;
  for (const auto& [lhs, rhs] : id_pairs) {
    const TindParams params{0.0, 0, &w};
    if (ValidateTind(dataset.attribute(lhs), dataset.attribute(rhs), params,
                     dataset.domain())) {
      ++strict_valid;
    }
  }
  EXPECT_LT(strict_valid, id_pairs.size());
}

TEST(GeneratorTest, ChangeCountsSpreadAcrossBuckets) {
  auto result = WikiGenerator(SmallOptions()).GenerateDataset();
  ASSERT_TRUE(result.ok());
  size_t low = 0, mid = 0, high = 0;
  for (AttributeId id = 0; id < result->dataset.size(); ++id) {
    const AttributeHistory& attr = result->dataset.attribute(id);
    const size_t c = attr.num_changes();
    if (c < 8) {
      ++low;
    } else if (c < 16) {
      ++mid;
    } else {
      ++high;
    }
  }
  EXPECT_GT(low, 0u);
  EXPECT_GT(mid, 0u);
  EXPECT_GT(high, 0u);
}

TEST(GeneratorTest, RejectsTinyDomain) {
  GeneratorOptions opts = SmallOptions();
  opts.num_days = 5;
  EXPECT_TRUE(
      WikiGenerator(opts).GenerateDataset().status().IsInvalidArgument());
  EXPECT_TRUE(
      WikiGenerator(opts).GenerateRawCorpus().status().IsInvalidArgument());
}

TEST(GeneratorTest, ValidateRejectsInconsistentKnobs) {
  const auto rejects = [](void (*mutate)(GeneratorOptions*)) {
    GeneratorOptions opts = SmallOptions();
    mutate(&opts);
    const Status st = ValidateGeneratorOptions(opts);
    return !st.ok() && st.IsInvalidArgument();
  };
  EXPECT_TRUE(rejects([](GeneratorOptions* o) { o->chain_probability = 1.5; }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) { o->burstiness = 1.0; }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) { o->burstiness = -0.1; }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) { o->zipf_skew = -1.0; }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) { o->birth_fraction = 0.0; }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) {
    o->subset_fraction_min = 0.9;
    o->subset_fraction_max = 0.5;
  }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) { o->shared_vocabulary = 0; }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) {
    o->num_noise_attributes = 10;
    o->shared_vocabulary = o->noise_cardinality_max - 1;
  }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) {
    o->num_adversarial_attributes = 4;
    o->adversarial_cardinality = 0;
  }));
  EXPECT_TRUE(rejects([](GeneratorOptions* o) {
    o->noise_attributes_per_table = 0;
  }));
}

TEST(GeneratorTest, ValidateAcceptsDefaultsAndNewKnobs) {
  EXPECT_TRUE(ValidateGeneratorOptions(SmallOptions()).ok());
  GeneratorOptions opts = SmallOptions();
  opts.burstiness = 0.9;
  opts.num_adversarial_attributes = 8;
  opts.adversarial_cardinality = 16;
  opts.adversarial_changes_mean = 32.0;
  EXPECT_TRUE(ValidateGeneratorOptions(opts).ok());
}

TEST(GeneratorRawTest, RevisionsStrictlyIncreasing) {
  auto result = WikiGenerator(SmallOptions()).GenerateRawCorpus();
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->raw.tables.size(), 10u);
  for (const auto& table : result->raw.tables) {
    ASSERT_FALSE(table.versions.empty());
    for (size_t i = 1; i < table.versions.size(); ++i) {
      EXPECT_LT(table.versions[i - 1].revision_minute,
                table.versions[i].revision_minute)
          << table.page_title;
    }
    for (const auto& v : table.versions) {
      EXPECT_EQ(v.headers.size(), v.columns.size());
      EXPECT_GE(v.revision_minute, 0);
      EXPECT_LT(v.revision_minute, result->raw.num_days * kMinutesPerDay);
    }
  }
}

TEST(GeneratorRawTest, ContainsLinkMarkupAndVandalism) {
  auto result = WikiGenerator(SmallOptions()).GenerateRawCorpus();
  ASSERT_TRUE(result.ok());
  bool saw_link = false, saw_vandal = false, saw_numeric_header = false;
  for (const auto& table : result->raw.tables) {
    for (const auto& v : table.versions) {
      for (const auto& h : v.headers) {
        if (h == "Year") saw_numeric_header = true;
      }
      for (const auto& col : v.columns) {
        for (const auto& cell : col) {
          if (cell.rfind("[[", 0) == 0) saw_link = true;
          if (cell.rfind("VANDAL", 0) == 0) saw_vandal = true;
        }
      }
    }
  }
  EXPECT_TRUE(saw_link);
  EXPECT_TRUE(saw_vandal);
  EXPECT_TRUE(saw_numeric_header);
}

TEST(GeneratorRawTest, PipelineRecoversGenerator) {
  // End-to-end: raw corpus -> preprocessing -> dataset whose attributes and
  // planted inclusions match the direct path's.
  const WikiGenerator gen(SmallOptions(21));
  auto raw = gen.GenerateRawCorpus();
  ASSERT_TRUE(raw.ok());
  auto direct = gen.GenerateDataset();
  ASSERT_TRUE(direct.ok());

  auto processed = PreprocessRawCorpus(raw->raw, PreprocessOptions());
  ASSERT_TRUE(processed.ok());
  // Vandalism and numeric decoys must have been filtered.
  EXPECT_EQ(processed->dataset.dictionary().Lookup("VANDAL 0"),
            kInvalidValueId);
  for (AttributeId id = 0; id < processed->dataset.size(); ++id) {
    const AttributeHistory& attr = processed->dataset.attribute(id);
    EXPECT_NE(attr.meta().column, "Year");
  }
  // The recovered attribute count is in the same ballpark as the direct
  // path (renames/aggregation may shift a few across filter thresholds).
  const double ratio = static_cast<double>(processed->dataset.size()) /
                       static_cast<double>(direct->dataset.size());
  EXPECT_GT(ratio, 0.7);
  EXPECT_LT(ratio, 1.3);
  // Ground-truth pairs must map onto the processed corpus too.
  const auto id_pairs =
      raw->ground_truth.ToIdPairs(processed->attribute_names);
  EXPECT_GT(id_pairs.size(), 0u);
}

TEST(GroundTruthTest, LookupAndRemap) {
  GroundTruth truth;
  truth.AddGenuine("a", "b");
  truth.AddGenuine("a", "c");
  EXPECT_TRUE(truth.IsGenuine("a", "b"));
  EXPECT_FALSE(truth.IsGenuine("b", "a"));
  EXPECT_EQ(truth.size(), 2u);
  const auto ids = truth.ToIdPairs({"c", "a", "zzz"});
  // Only (a, c) maps: "b" is absent.
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_EQ(*ids.begin(), (std::pair<AttributeId, AttributeId>{1, 0}));
}

}  // namespace
}  // namespace tind::wiki
