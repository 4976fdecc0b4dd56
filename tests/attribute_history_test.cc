#include "temporal/attribute_history.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "temporal/dataset.h"

namespace tind {
namespace {

AttributeHistory MakeHistory(
    const TimeDomain& domain,
    const std::vector<std::pair<Timestamp, ValueSet>>& versions,
    AttributeId id = 0) {
  AttributeHistoryBuilder b(id, AttributeMeta{"p", "t", "c"}, domain);
  for (const auto& [ts, values] : versions) {
    EXPECT_TRUE(b.AddVersion(ts, values).ok());
  }
  auto result = b.Finish();
  EXPECT_TRUE(result.ok());
  return std::move(result).ValueOrDie();
}

TEST(AttributeHistoryBuilderTest, RejectsOutOfDomainTimestamp) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  EXPECT_TRUE(b.AddVersion(10, ValueSet{1}).IsInvalidArgument());
  EXPECT_TRUE(b.AddVersion(-1, ValueSet{1}).IsInvalidArgument());
}

TEST(AttributeHistoryBuilderTest, RejectsDecreasingTimestamps) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(5, ValueSet{1}).ok());
  EXPECT_TRUE(b.AddVersion(4, ValueSet{2}).IsInvalidArgument());
}

TEST(AttributeHistoryBuilderTest, SameDayLaterObservationWins) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(2, ValueSet{1}).ok());
  ASSERT_TRUE(b.AddVersion(2, ValueSet{2}).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_versions(), 1u);
  EXPECT_EQ(h->VersionAt(2), (ValueSet{2}));
}

TEST(AttributeHistoryBuilderTest, SameDayOverwriteCoalescesWithPredecessor) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(1, ValueSet{7}).ok());
  ASSERT_TRUE(b.AddVersion(3, ValueSet{8}).ok());
  ASSERT_TRUE(b.AddVersion(3, ValueSet{7}).ok());  // Back to the old value.
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_versions(), 1u);
}

TEST(AttributeHistoryBuilderTest, CoalescesIdenticalConsecutiveVersions) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(1, ValueSet{1, 2}).ok());
  ASSERT_TRUE(b.AddVersion(5, ValueSet{2, 1}).ok());  // Same set.
  ASSERT_TRUE(b.AddVersion(7, ValueSet{3}).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_versions(), 2u);
}

TEST(AttributeHistoryBuilderTest, LeadingEmptyObservationSkipped) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(1, ValueSet()).ok());
  ASSERT_TRUE(b.AddVersion(3, ValueSet{1}).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->birth(), 3);
}

TEST(AttributeHistoryBuilderTest, EmptyHistoryFails) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  EXPECT_TRUE(b.Finish().status().IsInvalidArgument());
}

TEST(AttributeHistoryBuilderTest, DoubleFinishFails) {
  AttributeHistoryBuilder b(0, {}, TimeDomain(10));
  ASSERT_TRUE(b.AddVersion(0, ValueSet{1}).ok());
  ASSERT_TRUE(b.Finish().ok());
  EXPECT_TRUE(b.Finish().status().IsFailedPrecondition());
  EXPECT_TRUE(b.AddVersion(5, ValueSet{2}).IsFailedPrecondition());
}

TEST(AttributeHistoryTest, VersionAtResolvesByBinarySearch) {
  const TimeDomain domain(20);
  const AttributeHistory h = MakeHistory(
      domain, {{2, ValueSet{1}}, {5, ValueSet{1, 2}}, {10, ValueSet{3}}});
  EXPECT_TRUE(h.VersionAt(0).empty());  // Before birth: unobservable.
  EXPECT_TRUE(h.VersionAt(1).empty());
  EXPECT_EQ(h.VersionAt(2), (ValueSet{1}));
  EXPECT_EQ(h.VersionAt(4), (ValueSet{1}));
  EXPECT_EQ(h.VersionAt(5), (ValueSet{1, 2}));
  EXPECT_EQ(h.VersionAt(9), (ValueSet{1, 2}));
  EXPECT_EQ(h.VersionAt(10), (ValueSet{3}));
  EXPECT_EQ(h.VersionAt(19), (ValueSet{3}));  // Last version persists.
}

TEST(AttributeHistoryTest, CountsAndBirth) {
  const TimeDomain domain(20);
  const AttributeHistory h = MakeHistory(
      domain, {{2, ValueSet{1}}, {5, ValueSet{2}}, {10, ValueSet{3}}});
  EXPECT_EQ(h.num_versions(), 3u);
  EXPECT_EQ(h.num_changes(), 2u);  // 3 versions == 2 changes.
  EXPECT_EQ(h.birth(), 2);
  EXPECT_EQ(h.LifetimeTimestamps(), 18);
}

TEST(AttributeHistoryTest, ValidityIntervals) {
  const TimeDomain domain(20);
  const AttributeHistory h =
      MakeHistory(domain, {{2, ValueSet{1}}, {5, ValueSet{2}}});
  EXPECT_EQ(h.ValidityInterval(0), (Interval{2, 4}));
  EXPECT_EQ(h.ValidityInterval(1), (Interval{5, 19}));
}

TEST(AttributeHistoryTest, VersionRangeInInterval) {
  const TimeDomain domain(30);
  const AttributeHistory h = MakeHistory(
      domain, {{5, ValueSet{1}}, {10, ValueSet{2}}, {20, ValueSet{3}}});
  // Entirely before birth.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{0, 4}).second, -1);
  // Spanning birth.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{0, 7}), (std::pair<int64_t, int64_t>{0, 0}));
  // Middle.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{6, 12}),
            (std::pair<int64_t, int64_t>{0, 1}));
  // All.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{0, 29}),
            (std::pair<int64_t, int64_t>{0, 2}));
  // Clamping beyond the domain.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{25, 99}),
            (std::pair<int64_t, int64_t>{2, 2}));
  // Single timestamp.
  EXPECT_EQ(h.VersionRangeInInterval(Interval{10, 10}),
            (std::pair<int64_t, int64_t>{1, 1}));
}

TEST(AttributeHistoryTest, UnionInInterval) {
  const TimeDomain domain(30);
  const AttributeHistory h = MakeHistory(
      domain, {{5, ValueSet{1}}, {10, ValueSet{2}}, {20, ValueSet{3}}});
  EXPECT_EQ(h.UnionInInterval(Interval{0, 4}), ValueSet());
  EXPECT_EQ(h.UnionInInterval(Interval{5, 9}), (ValueSet{1}));
  EXPECT_EQ(h.UnionInInterval(Interval{9, 10}), (ValueSet{1, 2}));
  EXPECT_EQ(h.UnionInInterval(Interval{0, 29}), (ValueSet{1, 2, 3}));
  EXPECT_EQ(h.UnionInInterval(Interval{-5, 6}), (ValueSet{1}));
}

TEST(AttributeHistoryTest, AllValuesCached) {
  const TimeDomain domain(10);
  const AttributeHistory h =
      MakeHistory(domain, {{0, ValueSet{1, 2}}, {5, ValueSet{2, 3}}});
  EXPECT_EQ(h.AllValues(), (ValueSet{1, 2, 3}));
}

/// The invariant exact validation relies on (tind/validator.cc resolves
/// every Q version into AllValues() by a forward merge): AllValues() is
/// exactly the union of the versions, so every version is a subset of it.
void ExpectAllValuesIsUnionOfVersions(const AttributeHistory& h) {
  std::vector<const ValueSet*> sets;
  for (const ValueSet& v : h.versions()) {
    EXPECT_TRUE(v.IsSubsetOf(h.AllValues()));
    sets.push_back(&v);
  }
  EXPECT_EQ(h.AllValues(), ValueSet::UnionOf(sets));
}

TEST(AttributeHistoryTest, EveryVersionIsSubsetOfAllValues) {
  // Large overlapping versions, built at once and grown by AppendVersion
  // with same-day overwrites (which may drop values from A[T]) and
  // coalescing appends.
  const TimeDomain domain(200);
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    const auto random_version = [&] {
      std::vector<ValueId> values;
      const size_t base = rng.Uniform(300);
      const size_t card = 1 + rng.Uniform(300);
      for (size_t i = 0; i < card; ++i) {
        values.push_back(static_cast<ValueId>(base + rng.Uniform(400)));
      }
      return ValueSet::FromUnsorted(std::move(values));
    };
    AttributeHistoryBuilder b(0, {}, domain);
    Timestamp t = static_cast<Timestamp>(rng.Uniform(50));
    ASSERT_TRUE(b.AddVersion(t, random_version()).ok());
    for (int v = 0; v < 5; ++v) {
      t += static_cast<Timestamp>(rng.Uniform(3));  // 0: same-day overwrite.
      ASSERT_TRUE(b.AddVersion(t, random_version()).ok());
    }
    auto h = b.Finish();
    ASSERT_TRUE(h.ok());
    ExpectAllValuesIsUnionOfVersions(*h);
    for (int v = 0; v < 12; ++v) {
      t += static_cast<Timestamp>(rng.Uniform(3));
      switch (rng.Uniform(3)) {
        case 0:  // Same set as the current version: coalesces away.
          ASSERT_TRUE(h->AppendVersion(t, h->versions().back()).ok());
          break;
        case 1:  // Same set as the previous one: an overwrite may coalesce.
          if (h->num_versions() >= 2) {
            ASSERT_TRUE(
                h->AppendVersion(h->change_timestamps().back(),
                                 h->versions()[h->num_versions() - 2])
                    .ok());
            break;
          }
          [[fallthrough]];
        default:
          ASSERT_TRUE(h->AppendVersion(t, random_version()).ok());
      }
      ExpectAllValuesIsUnionOfVersions(*h);
    }
  }
}

TEST(AttributeHistoryTest, MedianCardinality) {
  const TimeDomain domain(10);
  const AttributeHistory h = MakeHistory(
      domain,
      {{0, ValueSet{1}}, {2, ValueSet{1, 2, 3}}, {4, ValueSet{1, 2, 3, 4, 5}}});
  EXPECT_EQ(h.MedianCardinality(), 3u);
}

TEST(AttributeHistoryTest, ForEachVersionCoversTimeline) {
  const TimeDomain domain(10);
  const AttributeHistory h =
      MakeHistory(domain, {{1, ValueSet{1}}, {6, ValueSet{2}}});
  std::vector<Interval> intervals;
  h.ForEachVersion([&](const ValueSet&, const Interval& i) {
    intervals.push_back(i);
  });
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0], (Interval{1, 5}));
  EXPECT_EQ(intervals[1], (Interval{6, 9}));
}

TEST(AttributeHistoryTest, DeletionYieldsEmptyVersion) {
  const TimeDomain domain(10);
  AttributeHistoryBuilder b(0, {}, domain);
  ASSERT_TRUE(b.AddVersion(1, ValueSet{1}).ok());
  ASSERT_TRUE(b.AddDeletion(5).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_versions(), 2u);
  EXPECT_TRUE(h->VersionAt(7).empty());
  EXPECT_EQ(h->VersionAt(3), (ValueSet{1}));
}

TEST(AttributeHistoryTest, MetaAndId) {
  const TimeDomain domain(5);
  AttributeHistoryBuilder b(42, AttributeMeta{"Page", "Table", "Col"}, domain);
  ASSERT_TRUE(b.AddVersion(0, ValueSet{1}).ok());
  const auto h = b.Finish();
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->id(), 42u);
  EXPECT_EQ(h->meta().FullName(), "Page/Table/Col");
}

TEST(DatasetTest, StatsComputation) {
  Dataset dataset(TimeDomain(365 * 4), std::make_shared<ValueDictionary>());
  ValueDictionary* dict = dataset.mutable_dictionary();
  const ValueId a = dict->Intern("a");
  const ValueId b = dict->Intern("b");
  AttributeHistoryBuilder b0(0, {}, dataset.domain());
  ASSERT_TRUE(b0.AddVersion(0, ValueSet{a}).ok());
  ASSERT_TRUE(b0.AddVersion(10, ValueSet{a, b}).ok());
  dataset.Add(std::move(*b0.Finish()));
  AttributeHistoryBuilder b1(1, {}, dataset.domain());
  ASSERT_TRUE(b1.AddVersion(365 * 2, ValueSet{b}).ok());
  dataset.Add(std::move(*b1.Finish()));

  const DatasetStats stats = dataset.ComputeStats();
  EXPECT_EQ(stats.num_attributes, 2u);
  EXPECT_EQ(stats.num_distinct_values, 2u);
  EXPECT_DOUBLE_EQ(stats.avg_changes, 0.5);  // (1 + 0) / 2.
  EXPECT_EQ(stats.total_versions, 3u);
  // Avg cardinality: (1 + 2 + 1) / 3.
  EXPECT_NEAR(stats.avg_version_cardinality, 4.0 / 3, 1e-12);
  // Lifetimes: 1460 and 730 days -> avg 1095 days = 3 years.
  EXPECT_NEAR(stats.avg_lifetime_years, 1095.0 / 365.25, 1e-9);
  EXPECT_GT(stats.memory_bytes, 0u);
}

}  // namespace
}  // namespace tind
