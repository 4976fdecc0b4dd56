/// Unit coverage of the live-ingest stack below the differential harness:
/// AppendVersion's builder semantics, ApplyDeltaToDataset validation and
/// failure atomicity, UpdateStats accounting, injected-fault behavior, the
/// ApplyDelta wire codec, CompactSnapshot byte-identity, and per-delta-kind
/// golden fixtures (tests/golden/update_*_expected.txt — see tests/README.md
/// for regeneration).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault_injection.h"
#include "scenario/mutate.h"
#include "serve/wire.h"
#include "snapshot/snapshot.h"
#include "snapshot/snapshot_format.h"
#include "temporal/weights.h"
#include "tind/index.h"
#include "tind/update.h"
#include "wiki/generator.h"

namespace tind {
namespace {

ValueSet Values(std::initializer_list<ValueId> ids) {
  return ValueSet::FromUnsorted(std::vector<ValueId>(ids));
}

Result<AttributeHistory> MakeHistory(const TimeDomain& domain) {
  AttributeHistoryBuilder builder(0, AttributeMeta{"p", "t", "c"}, domain);
  EXPECT_TRUE(builder.AddVersion(5, Values({1, 2})).ok());
  EXPECT_TRUE(builder.AddVersion(20, Values({2, 3})).ok());
  return builder.Finish();
}

TEST(AppendVersionTest, AppendsGrowTheHistoryAndAllValues) {
  const TimeDomain domain(100);
  auto history = MakeHistory(domain);
  ASSERT_TRUE(history.ok());
  ASSERT_TRUE(history->AppendVersion(40, Values({7})).ok());
  EXPECT_EQ(history->num_versions(), 3u);
  EXPECT_EQ(history->VersionAt(45), Values({7}));
  EXPECT_TRUE(history->AllValues().Contains(7));
  EXPECT_TRUE(history->AllValues().Contains(1));
}

TEST(AppendVersionTest, SameTimestampOverwritesAndMayCoalesce) {
  const TimeDomain domain(100);
  auto history = MakeHistory(domain);
  ASSERT_TRUE(history.ok());
  // Overwrite the version at t=20 with different values: still 2 versions.
  ASSERT_TRUE(history->AppendVersion(20, Values({9})).ok());
  EXPECT_EQ(history->num_versions(), 2u);
  EXPECT_EQ(history->VersionAt(20), Values({9}));
  // AllValues must have dropped the overwritten {2,3} remnant value 3.
  EXPECT_EQ(history->AllValues(), Values({1, 2, 9}));
  // Overwrite with values equal to the predecessor: the change point pops.
  ASSERT_TRUE(history->AppendVersion(20, Values({1, 2})).ok());
  EXPECT_EQ(history->num_versions(), 1u);
  EXPECT_EQ(history->VersionAt(50), Values({1, 2}));
  EXPECT_EQ(history->AllValues(), Values({1, 2}));
}

TEST(AppendVersionTest, EqualToCurrentCoalescesAway) {
  const TimeDomain domain(100);
  auto history = MakeHistory(domain);
  ASSERT_TRUE(history.ok());
  ASSERT_TRUE(history->AppendVersion(60, Values({2, 3})).ok());
  EXPECT_EQ(history->num_versions(), 2u);  // No new change point.
}

TEST(AppendVersionTest, RejectsOutOfOrderAndOutOfDomain) {
  const TimeDomain domain(100);
  auto history = MakeHistory(domain);
  ASSERT_TRUE(history.ok());
  EXPECT_TRUE(history->AppendVersion(10, Values({1})).IsInvalidArgument());
  EXPECT_TRUE(history->AppendVersion(100, Values({1})).IsInvalidArgument());
  EXPECT_TRUE(history->AppendVersion(-1, Values({1})).IsInvalidArgument());
}

Dataset MakeCorpus(uint64_t seed) {
  wiki::GeneratorOptions gen;
  gen.seed = seed;
  gen.num_days = 120;
  gen.num_families = 3;
  gen.num_noise_attributes = 14;
  gen.num_drifter_attributes = 6;
  gen.num_catchall_attributes = 2;
  gen.shared_vocabulary = 100;
  gen.entities_per_family_pool = 60;
  auto generated = wiki::WikiGenerator(gen).GenerateDataset();
  EXPECT_TRUE(generated.ok());
  return std::move(generated->dataset);
}

TindIndexOptions IndexOpts(const WeightFunction* weight) {
  TindIndexOptions opts;
  opts.bloom_bits = 512;
  opts.num_hashes = 2;
  opts.num_slices = 6;
  opts.delta = 7;
  opts.epsilon = 3.0;
  opts.build_reverse_index = true;
  opts.reverse_slices = 2;
  opts.weight = weight;
  opts.seed = 99;
  return opts;
}

TEST(ApplyDeltaToDatasetTest, RejectsInvalidOpsWithoutSideEffects) {
  const Dataset corpus = MakeCorpus(31);
  const size_t base_dict = corpus.dictionary().size();

  RevisionDelta unknown;
  unknown.ops.emplace_back();
  unknown.ops.back().kind = RevisionOp::Kind::kAppendVersion;
  unknown.ops.back().attribute =
      static_cast<AttributeId>(corpus.size() + 5);
  unknown.ops.back().timestamp = 10;
  unknown.ops.back().values = {"x"};
  EXPECT_TRUE(ApplyDeltaToDataset(corpus, unknown)
                  .status()
                  .IsInvalidArgument());

  RevisionDelta empty_add;
  empty_add.ops.emplace_back();
  empty_add.ops.back().kind = RevisionOp::Kind::kAddAttribute;
  empty_add.ops.back().meta = AttributeMeta{"p", "t", "c"};
  EXPECT_FALSE(ApplyDeltaToDataset(corpus, empty_add).ok());

  // The base dataset (and its shared dictionary) must be untouched even
  // though the failing op may have interned values before being rejected —
  // the apply works on a private copy.
  EXPECT_EQ(corpus.dictionary().size(), base_dict);
}

TEST(ApplyDeltaToDatasetTest, TracksDirtAndDictionaryGrowth) {
  const Dataset corpus = MakeCorpus(32);
  // Appends must come at or after each target's last change point.
  const Timestamp append_t = std::min(
      corpus.domain().last(),
      std::max<Timestamp>(corpus.attribute(2).change_timestamps().back() + 1,
                          corpus.domain().last() - 20));
  const Timestamp retire_t = std::min(
      corpus.domain().last(),
      std::max<Timestamp>(corpus.attribute(3).change_timestamps().back() + 1,
                          corpus.domain().last() - 10));
  ASSERT_TRUE(corpus.domain().Contains(append_t));
  ASSERT_TRUE(corpus.domain().Contains(retire_t));
  RevisionDelta delta;
  {
    RevisionOp op;
    op.kind = RevisionOp::Kind::kAppendVersion;
    op.attribute = 2;
    op.timestamp = append_t;
    op.values = {"a-value-no-generator-would-emit"};
    delta.ops.push_back(op);
  }
  {
    RevisionOp op;
    op.kind = RevisionOp::Kind::kRetireAttribute;
    op.attribute = 3;
    op.timestamp = retire_t;
    delta.ops.push_back(op);
  }
  auto applied = ApplyDeltaToDataset(corpus, delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_TRUE(applied->dictionary_grew);
  EXPECT_GT(applied->dataset->dictionary().size(),
            corpus.dictionary().size());
  ASSERT_EQ(applied->dirty.size(), 2u);
  EXPECT_EQ(applied->dirty.at(2), append_t);
  EXPECT_EQ(applied->dirty.at(3), retire_t);
  // Retire resolves to the empty set from t onward.
  EXPECT_EQ(applied->dataset->attribute(3).VersionAt(retire_t).size(), 0u);
  // The base is untouched (copy-on-write): the delta's targets were copied
  // before the write, every other history is shared, not copied.
  EXPECT_NE(corpus.attribute(3).VersionAt(retire_t).size(), 0u);
  EXPECT_EQ(corpus.attribute(2).num_versions() + 1,
            applied->dataset->attribute(2).num_versions());
  EXPECT_NE(&corpus.attribute(2), &applied->dataset->attribute(2));
  EXPECT_NE(&corpus.attribute(3), &applied->dataset->attribute(3));
  EXPECT_EQ(&corpus.attribute(0), &applied->dataset->attribute(0));
  EXPECT_EQ(&corpus.attribute(4), &applied->dataset->attribute(4));
}

TEST(IndexUpdaterTest, StatsAccountForPatchingWork) {
  const Dataset corpus = MakeCorpus(33);
  const ConstantWeight weight(corpus.domain().num_timestamps());
  auto built = TindIndex::Build(corpus, IndexOpts(&weight));
  ASSERT_TRUE(built.ok());

  RevisionDelta delta;
  RevisionOp op;
  op.kind = RevisionOp::Kind::kAppendVersion;
  op.attribute = 1;
  // Append at the very end of the domain: only slices whose δ-expanded
  // interval reaches the last day can be dirty.
  op.timestamp = corpus.domain().last();
  op.values = {"late-breaking-value"};
  delta.ops.push_back(op);

  auto updated = IndexUpdater::ApplyDelta(**built, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  const UpdateStats& stats = updated->stats;
  EXPECT_EQ(stats.attributes_touched, 1u);
  EXPECT_EQ(stats.versions_appended, 1u);
  EXPECT_EQ(stats.slices_rebuilt, 0u);
  EXPECT_FALSE(stats.slice_intervals_changed);
  EXPECT_GT(stats.slices_skipped, 0u)
      << "a domain-end append dirtied every slice; overlap pruning is dead";
  EXPECT_GE(stats.columns_reset, 1u);
  EXPECT_TRUE(stats.dictionary_dirty);
  EXPECT_TRUE(stats.attribute_meta_dirty);
  ASSERT_EQ(stats.slice_dirty.size(), (*built)->slice_intervals().size());
  size_t dirty_slices = 0;
  for (const bool d : stats.slice_dirty) dirty_slices += d ? 1 : 0;
  EXPECT_EQ(dirty_slices, stats.slices_patched);
}

TEST(IndexUpdaterTest, SharedHistoryIsExcludedFromItsOwnResult) {
  const Dataset corpus = MakeCorpus(35);
  const ConstantWeight weight(corpus.domain().num_timestamps());
  auto built = TindIndex::Build(corpus, IndexOpts(&weight));
  ASSERT_TRUE(built.ok());
  RevisionDelta delta;
  RevisionOp op;
  op.kind = RevisionOp::Kind::kAppendVersion;
  op.attribute = 1;
  op.timestamp = corpus.domain().last();
  op.values = {"late-breaking-value"};
  delta.ops.push_back(op);
  auto updated = IndexUpdater::ApplyDelta(**built, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();

  // Attribute 0 is untouched, so the base and the new epoch share one
  // history: probing the new index with the base's copy is a self-probe.
  const AttributeHistory& shared = corpus.attribute(0);
  ASSERT_EQ(&shared, &updated->dataset->attribute(0));
  const TindParams params{3.0, 7, &weight};
  const std::vector<AttributeId> ids = updated->index->Search(shared, params);
  EXPECT_EQ(std::count(ids.begin(), ids.end(), AttributeId{0}), 0);
  EXPECT_EQ(ids, updated->index->Search(updated->dataset->attribute(0),
                                        params));
}

TEST(IndexUpdaterTest, InjectedFaultsLeaveTheBaseServing) {
  const Dataset corpus = MakeCorpus(34);
  const ConstantWeight weight(corpus.domain().num_timestamps());
  auto built = TindIndex::Build(corpus, IndexOpts(&weight));
  ASSERT_TRUE(built.ok());
  const TindParams params{3.0, 7, &weight};
  const AttributeHistory& probe = corpus.attribute(0);
  const std::vector<AttributeId> before = (*built)->Search(probe, params);

  scenario::MutationSpec spec;
  spec.num_ops = 8;
  const RevisionDelta delta = scenario::MutateCorpus(corpus, 4, spec);
  for (const char* point : {"update/alloc", "update/patch"}) {
    ASSERT_TRUE(FaultInjector::Global()
                    .Configure(std::string(point) + "=1.0", 7)
                    .ok());
    auto updated = IndexUpdater::ApplyDelta(**built, delta);
    FaultInjector::Global().Reset();
    ASSERT_FALSE(updated.ok()) << point;
    EXPECT_TRUE(updated.status().IsOutOfMemory() ||
                updated.status().IsInternal())
        << point << ": " << updated.status().ToString();
    // The base index must be byte-for-byte unaffected by the failed apply.
    EXPECT_EQ((*built)->Search(probe, params), before) << point;
  }
  // And with faults cleared the same delta applies cleanly.
  auto updated = IndexUpdater::ApplyDelta(**built, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
}

TEST(WireCodecTest, ApplyDeltaRoundTripsEveryOpKind) {
  const Dataset corpus = MakeCorpus(35);
  scenario::MutationSpec spec;
  spec.num_ops = 24;  // Defaults mix all three kinds.
  const RevisionDelta delta = scenario::MutateCorpus(corpus, 6, spec);
  const std::string payload = serve::EncodeApplyDeltaRequest(delta);
  auto decoded = serve::DecodeApplyDeltaRequest(payload);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->ops.size(), delta.ops.size());
  for (size_t i = 0; i < delta.ops.size(); ++i) {
    EXPECT_EQ(decoded->ops[i].kind, delta.ops[i].kind) << i;
    EXPECT_EQ(decoded->ops[i].attribute, delta.ops[i].attribute) << i;
    EXPECT_EQ(decoded->ops[i].timestamp, delta.ops[i].timestamp) << i;
    EXPECT_EQ(decoded->ops[i].values, delta.ops[i].values) << i;
    EXPECT_EQ(decoded->ops[i].meta.FullName(), delta.ops[i].meta.FullName())
        << i;
    EXPECT_EQ(decoded->ops[i].versions, delta.ops[i].versions) << i;
  }
  // Truncated payloads decode as typed errors, never crashes.
  for (const size_t cut : {payload.size() / 3, payload.size() - 1}) {
    EXPECT_TRUE(serve::DecodeApplyDeltaRequest(payload.substr(0, cut))
                    .status()
                    .IsInvalidArgument());
  }

  serve::ApplyDeltaResponse response;
  response.sequence = 42;
  response.attributes_touched = 3;
  response.slices_patched = 5;
  response.columns_reset = 9;
  auto response_decoded =
      serve::DecodeApplyDeltaResponse(serve::EncodeApplyDeltaResponse(response));
  ASSERT_TRUE(response_decoded.ok());
  EXPECT_EQ(response_decoded->sequence, 42u);
  EXPECT_EQ(response_decoded->attributes_touched, 3u);
  EXPECT_EQ(response_decoded->slices_patched, 5u);
  EXPECT_EQ(response_decoded->columns_reset, 9u);
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

TEST(CompactSnapshotTest, OutputIsByteIdenticalToFullSave) {
  const Dataset corpus = MakeCorpus(36);
  const ConstantWeight weight(corpus.domain().num_timestamps());
  auto built = TindIndex::Build(corpus, IndexOpts(&weight));
  ASSERT_TRUE(built.ok());
  const std::string base_path =
      ::testing::TempDir() + "/tind_update_base.tsnap";
  ASSERT_TRUE((*built)->SaveSnapshot(base_path).ok());

  // A small delta so most slice sections stay clean and get byte-reused.
  scenario::MutationSpec spec;
  spec.num_ops = 4;
  spec.add_weight = 0;
  spec.retire_weight = 0;
  spec.max_attributes_touched = 1;
  const RevisionDelta delta = scenario::MutateCorpus(corpus, 5, spec);
  auto updated = IndexUpdater::ApplyDelta(**built, delta);
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  ASSERT_GT(updated->stats.slices_skipped, 0u)
      << "no clean slices: the reuse path is not actually exercised";

  const std::string full_path =
      ::testing::TempDir() + "/tind_update_full.tsnap";
  const std::string compact_path =
      ::testing::TempDir() + "/tind_update_compact.tsnap";
  ASSERT_TRUE(updated->index->SaveSnapshot(full_path).ok());
  const Status compacted = updated->index->CompactSnapshot(
      base_path, compact_path, updated->stats);
  ASSERT_TRUE(compacted.ok()) << compacted.ToString();

  EXPECT_EQ(ReadFileBytes(compact_path), ReadFileBytes(full_path))
      << "CompactSnapshot must be indistinguishable from SaveSnapshot";

  // And the compacted artifact round-trips through the loader.
  ASSERT_TRUE(snapshot::VerifySnapshot(compact_path).ok());
  SnapshotLoadOptions load;
  load.weight = &weight;
  auto loaded =
      TindIndex::LoadSnapshot(*updated->dataset, compact_path, load);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  std::remove(base_path.c_str());
  std::remove(full_path.c_str());
  std::remove(compact_path.c_str());
}

TEST(CompactSnapshotTest, CorruptPreviousArtifactIsRejected) {
  const Dataset corpus = MakeCorpus(37);
  const ConstantWeight weight(corpus.domain().num_timestamps());
  auto built = TindIndex::Build(corpus, IndexOpts(&weight));
  ASSERT_TRUE(built.ok());
  const std::string base_path =
      ::testing::TempDir() + "/tind_update_rot.tsnap";
  ASSERT_TRUE((*built)->SaveSnapshot(base_path).ok());

  // Flip one byte inside the slice-intervals payload — a section the
  // compactor always reuses when intervals are stable — so the reuse path
  // must notice the rot via the stored CRC.
  std::string bytes = ReadFileBytes(base_path);
  snapshot::FileHeader header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  uint64_t target_offset = 0;
  for (uint32_t i = 0; i < header.section_count; ++i) {
    snapshot::SectionEntry entry;
    std::memcpy(&entry,
                bytes.data() + sizeof(header) + i * sizeof(entry),
                sizeof(entry));
    if (entry.id == snapshot::kSectionSliceIntervals) {
      ASSERT_GT(entry.size, 0u);
      target_offset = entry.offset;
      break;
    }
  }
  ASSERT_GT(target_offset, 0u) << "slice-intervals section not found";
  bytes[target_offset] = static_cast<char>(bytes[target_offset] ^ 0x40);
  {
    std::ofstream out(base_path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  scenario::MutationSpec spec;
  spec.num_ops = 2;
  spec.add_weight = 0;
  spec.retire_weight = 0;
  spec.max_attributes_touched = 1;
  const RevisionDelta delta = scenario::MutateCorpus(corpus, 5, spec);
  auto updated = IndexUpdater::ApplyDelta(**built, delta);
  ASSERT_TRUE(updated.ok());
  const std::string out_path =
      ::testing::TempDir() + "/tind_update_rot_out.tsnap";
  const Status compacted =
      updated->index->CompactSnapshot(base_path, out_path, updated->stats);
  EXPECT_TRUE(compacted.IsIOError()) << compacted.ToString();
  std::remove(base_path.c_str());
  std::remove(out_path.c_str());
}

// ---- Golden fixtures: one per delta kind ----------------------------------
// Pins what each RevisionOp kind does to the served answers (results and
// patch stats) on a fixed corpus. Regenerate after an INTENDED change:
//   TIND_REGEN_GOLDEN=1 ./build/tests/update_test
// then inspect the diff of tests/golden/update_*_expected.txt and commit it
// with the change that explains it (the test fails while regenerating so a
// stale TIND_REGEN_GOLDEN cannot pass CI). See tests/README.md.

std::string GoldenPath(const std::string& kind) {
  return std::string(TIND_SOURCE_DIR) + "/tests/golden/update_" + kind +
         "_expected.txt";
}

std::string RenderDeltaGolden(const std::string& kind) {
  const Dataset corpus = MakeCorpus(424242);
  const ConstantWeight weight(corpus.domain().num_timestamps());
  auto built = TindIndex::Build(corpus, IndexOpts(&weight));
  if (!built.ok()) std::abort();

  scenario::MutationSpec spec;
  spec.num_ops = 6;
  spec.append_weight = kind == "append" ? 1.0 : 0.0;
  spec.add_weight = kind == "add" ? 1.0 : 0.0;
  spec.retire_weight = kind == "retire" ? 1.0 : 0.0;
  const RevisionDelta delta = scenario::MutateCorpus(corpus, 7, spec);
  auto updated = IndexUpdater::ApplyDelta(**built, delta);
  if (!updated.ok()) std::abort();

  std::ostringstream out;
  out << "# Live-ingest golden (" << kind << "): corpus seed 424242, delta "
      << "seed 7, " << spec.num_ops << " ops.\n";
  out << "# Regenerate: TIND_REGEN_GOLDEN=1 ./update_test (see tests/README.md)\n";
  const UpdateStats& s = updated->stats;
  out << "stats touched=" << s.attributes_touched << " added="
      << s.attributes_added << " retired=" << s.attributes_retired
      << " appended=" << s.versions_appended << " patched="
      << s.slices_patched << " skipped=" << s.slices_skipped << " rebuilt="
      << s.slices_rebuilt << " columns=" << s.columns_reset << " dict="
      << (s.dictionary_dirty ? 1 : 0) << "\n";
  const TindParams params{3.0, 7, &weight};
  const Dataset& dataset = *updated->dataset;
  for (size_t q = 0; q < dataset.size(); ++q) {
    const AttributeHistory& query =
        dataset.attribute(static_cast<AttributeId>(q));
    for (const bool forward : {true, false}) {
      const auto ids = forward
                           ? updated->index->Search(query, params)
                           : updated->index->ReverseSearch(query, params);
      out << (forward ? "F" : "R") << " " << q << ":";
      for (size_t i = 0; i < ids.size(); ++i) {
        out << (i == 0 ? " " : ",") << ids[i];
      }
      out << "\n";
    }
  }
  return out.str();
}

class UpdateGoldenTest : public ::testing::TestWithParam<const char*> {};

TEST_P(UpdateGoldenTest, DeltaKindMatchesGoldenFile) {
  const std::string kind = GetParam();
  const std::string actual = RenderDeltaGolden(kind);
  const std::string path = GoldenPath(kind);
  if (std::getenv("TIND_REGEN_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    out.close();
    FAIL() << "regenerated " << path
           << "; unset TIND_REGEN_GOLDEN and rerun to verify";
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "missing golden file " << path
                         << " — regenerate with TIND_REGEN_GOLDEN=1";
  std::ostringstream expected;
  expected << in.rdbuf();
  std::istringstream actual_lines(actual);
  std::istringstream expected_lines(expected.str());
  std::string a, e;
  size_t line = 0;
  while (true) {
    const bool has_a = static_cast<bool>(std::getline(actual_lines, a));
    const bool has_e = static_cast<bool>(std::getline(expected_lines, e));
    ++line;
    if (!has_a && !has_e) break;
    ASSERT_TRUE(has_a) << "golden has extra line " << line << ": " << e;
    ASSERT_TRUE(has_e) << "output has extra line " << line << ": " << a;
    ASSERT_EQ(a, e) << "golden mismatch at line " << line;
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaKinds, UpdateGoldenTest,
                         ::testing::Values("append", "add", "retire"));

}  // namespace
}  // namespace tind
