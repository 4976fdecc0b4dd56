#include "wiki/preprocess.h"

#include <gtest/gtest.h>

namespace tind::wiki {
namespace {

/// Builds a one-column table history from (minute, values) observations.
RawTableHistory OneColumnTable(
    const std::string& page, const std::string& header,
    const std::vector<std::pair<int64_t, std::vector<std::string>>>& revs) {
  RawTableHistory table;
  table.page_title = page;
  table.table_caption = "t";
  for (const auto& [minute, values] : revs) {
    RawTableVersion v;
    v.revision_minute = minute;
    v.headers = {header};
    v.columns = {values};
    table.versions.push_back(std::move(v));
  }
  return table;
}

/// Default options relaxed so tiny test tables survive the corpus filters.
PreprocessOptions Lenient() {
  PreprocessOptions opts;
  opts.min_versions = 1;
  opts.min_median_cardinality = 1;
  return opts;
}

int64_t Morning(int64_t day) { return day * kMinutesPerDay + 8 * 60; }
int64_t Evening(int64_t day) { return day * kMinutesPerDay + 22 * 60; }

TEST(PreprocessTest, SingleColumnBasicFlow) {
  RawCorpus corpus;
  corpus.num_days = 30;
  corpus.tables.push_back(OneColumnTable(
      "P", "Name",
      {{Morning(0), {"a", "b"}}, {Morning(10), {"a", "b", "c"}}}));
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->dataset.size(), 1u);
  const AttributeHistory& h = result->dataset.attribute(0);
  EXPECT_EQ(h.num_versions(), 2u);
  EXPECT_EQ(h.birth(), 0);
  EXPECT_EQ(h.change_timestamps()[1], 10);
  EXPECT_EQ(h.VersionAt(5).size(), 2u);
  EXPECT_EQ(h.VersionAt(15).size(), 3u);
  EXPECT_EQ(result->attribute_names[0], "P/t/Name");
}

TEST(PreprocessTest, LinkResolutionUnifiesRepresentations) {
  RawCorpus corpus;
  corpus.num_days = 10;
  corpus.tables.push_back(OneColumnTable(
      "P", "C", {{Morning(0), {"[[United States|USA]]", "[[Germany]]"}}}));
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  const auto& dict = result->dataset.dictionary();
  EXPECT_NE(dict.Lookup("United States"), kInvalidValueId);
  EXPECT_NE(dict.Lookup("Germany"), kInvalidValueId);
  EXPECT_EQ(dict.Lookup("USA"), kInvalidValueId);
}

TEST(PreprocessTest, NullsDropped) {
  RawCorpus corpus;
  corpus.num_days = 10;
  corpus.tables.push_back(OneColumnTable(
      "P", "C", {{Morning(0), {"a", "-", "n/a", "", "b"}}}));
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.attribute(0).VersionAt(0).size(), 2u);
}

TEST(PreprocessTest, DailyAggregationPicksLongestValid) {
  RawCorpus corpus;
  corpus.num_days = 10;
  // Day 3: vandalized at 12:00, reverted at 12:10 — the pre-vandal version
  // holds the rest of the day and must win.
  corpus.tables.push_back(OneColumnTable(
      "P", "C",
      {{Morning(0), {"a", "b"}},
       {3 * kMinutesPerDay + 12 * 60, {"a", "b", "VANDAL"}},
       {3 * kMinutesPerDay + 12 * 60 + 10, {"a", "b"}}}));
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  const AttributeHistory& h = result->dataset.attribute(0);
  EXPECT_EQ(h.num_versions(), 1u);  // Vandalism never surfaces.
  EXPECT_EQ(result->dataset.dictionary().Lookup("VANDAL"), kInvalidValueId);
}

TEST(PreprocessTest, LateRevisionLandsNextDay) {
  RawCorpus corpus;
  corpus.num_days = 10;
  // Change at 22:00 of day 2: old version was valid 22h that day, so day 2
  // keeps the old version and the new one takes over from day 3.
  corpus.tables.push_back(OneColumnTable(
      "P", "C", {{Morning(0), {"a"}}, {Evening(2), {"z"}}}));
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  const AttributeHistory& h = result->dataset.attribute(0);
  ASSERT_EQ(h.num_versions(), 2u);
  EXPECT_EQ(h.change_timestamps()[1], 3);
  const ValueId a = result->dataset.dictionary().Lookup("a");
  EXPECT_TRUE(h.VersionAt(2).Contains(a));
}

TEST(PreprocessTest, EarlyRevisionLandsSameDay) {
  RawCorpus corpus;
  corpus.num_days = 10;
  corpus.tables.push_back(OneColumnTable(
      "P", "C", {{Morning(0), {"a"}}, {2 * kMinutesPerDay + 30, {"z"}}}));
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.attribute(0).change_timestamps()[1], 2);
}

TEST(PreprocessTest, NumericColumnsFiltered) {
  RawCorpus corpus;
  corpus.num_days = 10;
  RawTableHistory table;
  table.page_title = "P";
  table.table_caption = "t";
  RawTableVersion v;
  v.revision_minute = Morning(0);
  v.headers = {"Name", "Year"};
  v.columns = {{"a", "b"}, {"1996", "1999"}};
  table.versions.push_back(v);
  corpus.tables.push_back(table);
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.size(), 1u);
  EXPECT_EQ(result->stats.dropped_numeric, 1u);
  EXPECT_EQ(result->dataset.attribute(0).meta().column, "Name");
}

TEST(PreprocessTest, MinVersionFilter) {
  RawCorpus corpus;
  corpus.num_days = 50;
  corpus.tables.push_back(OneColumnTable(
      "P", "C",
      {{Morning(0), {"a"}}, {Morning(10), {"b"}}, {Morning(20), {"c"}}}));
  PreprocessOptions opts;
  opts.min_versions = 5;  // Paper default; this table has only 3.
  opts.min_median_cardinality = 1;
  auto result = PreprocessRawCorpus(corpus, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.size(), 0u);
  EXPECT_EQ(result->stats.dropped_few_versions, 1u);
}

TEST(PreprocessTest, MedianCardinalityFilter) {
  RawCorpus corpus;
  corpus.num_days = 50;
  corpus.tables.push_back(OneColumnTable(
      "P", "C", {{Morning(0), {"a", "b"}}, {Morning(10), {"a", "c"}}}));
  PreprocessOptions opts;
  opts.min_versions = 1;
  opts.min_median_cardinality = 5;  // Paper default; median here is 2.
  auto result = PreprocessRawCorpus(corpus, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->dataset.size(), 0u);
  EXPECT_EQ(result->stats.dropped_small_cardinality, 1u);
}

TEST(PreprocessTest, ColumnRenameTracedThroughValues) {
  RawCorpus corpus;
  corpus.num_days = 30;
  RawTableHistory table;
  table.page_title = "P";
  table.table_caption = "t";
  RawTableVersion v1;
  v1.revision_minute = Morning(0);
  v1.headers = {"Name"};
  v1.columns = {{"alpha", "beta", "gamma"}};
  RawTableVersion v2;
  v2.revision_minute = Morning(10);
  v2.headers = {"Title"};  // Renamed; values overlap strongly.
  v2.columns = {{"alpha", "beta", "gamma", "delta"}};
  table.versions = {v1, v2};
  corpus.tables.push_back(table);
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->dataset.size(), 1u);  // One chain, not two.
  EXPECT_EQ(result->dataset.attribute(0).num_versions(), 2u);
  EXPECT_EQ(result->stats.column_chains, 1u);
}

TEST(PreprocessTest, ColumnDeletionRecorded) {
  RawCorpus corpus;
  corpus.num_days = 30;
  RawTableHistory table;
  table.page_title = "P";
  table.table_caption = "t";
  RawTableVersion v1;
  v1.revision_minute = Morning(0);
  v1.headers = {"Keep", "Drop"};
  v1.columns = {{"a", "b"}, {"x", "y"}};
  RawTableVersion v2;
  v2.revision_minute = Morning(10);
  v2.headers = {"Keep"};
  v2.columns = {{"a", "b"}};
  table.versions = {v1, v2};
  corpus.tables.push_back(table);
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->dataset.size(), 2u);
  // The dropped column has an empty version from day 10 on.
  const AttributeHistory* dropped = nullptr;
  for (AttributeId id = 0; id < result->dataset.size(); ++id) {
    const AttributeHistory& attr = result->dataset.attribute(id);
    if (attr.meta().column == "Drop") dropped = &attr;
  }
  ASSERT_NE(dropped, nullptr);
  EXPECT_EQ(dropped->num_versions(), 2u);
  EXPECT_TRUE(dropped->VersionAt(15).empty());
  EXPECT_EQ(dropped->VersionAt(5).size(), 2u);
}

TEST(PreprocessTest, EmptyCorpusRejected) {
  RawCorpus corpus;
  corpus.num_days = 0;
  EXPECT_TRUE(PreprocessRawCorpus(corpus, Lenient()).status().IsInvalidArgument());
}

TEST(PreprocessTest, StatsAccounting) {
  RawCorpus corpus;
  corpus.num_days = 20;
  corpus.tables.push_back(OneColumnTable("P1", "C", {{Morning(0), {"a", "b"}}}));
  corpus.tables.push_back(OneColumnTable("P2", "C", {{Morning(1), {"1", "2"}}}));
  auto result = PreprocessRawCorpus(corpus, Lenient());
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->stats.tables, 2u);
  EXPECT_EQ(result->stats.revisions, 2u);
  EXPECT_EQ(result->stats.column_chains, 2u);
  EXPECT_EQ(result->stats.dropped_numeric, 1u);
  EXPECT_EQ(result->stats.kept, 1u);
}

}  // namespace
}  // namespace tind::wiki
