#include "tind/discovery.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "bloom/bloom_batch.h"
#include "common/fault_injection.h"
#include "obs/metrics.h"
#include "test_util.h"
#include "tind/checkpoint.h"
#include "tind/validator.h"

namespace tind {
namespace {

/// Restores the global metrics enabled flag after enabling it.
class MetricsEnabledGuard {
 public:
  MetricsEnabledGuard() : previous_(obs::MetricsRegistry::Global().enabled()) {
    obs::MetricsRegistry::Global().set_enabled(true);
  }
  ~MetricsEnabledGuard() {
    obs::MetricsRegistry::Global().set_enabled(previous_);
  }

 private:
  bool previous_;
};

class DiscoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Rng rng(17);
    dataset_ = Dataset(TimeDomain(90), std::make_shared<ValueDictionary>());
    for (size_t i = 0; i < 35; ++i) {
      dataset_.Add(testutil::RandomHistory(dataset_.domain(), &rng, 12,
                                           static_cast<AttributeId>(i), 5, 5));
    }
    weight_ = std::make_unique<ConstantWeight>(90);
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 4;
    opts.delta = 4;
    opts.epsilon = 3.0;
    opts.weight = weight_.get();
    auto index = TindIndex::Build(dataset_, opts);
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);
  }

  std::set<TindPair> NaiveAllPairs(const TindParams& params) const {
    std::set<TindPair> expected;
    for (AttributeId a = 0; a < dataset_.size(); ++a) {
      for (AttributeId b = 0; b < dataset_.size(); ++b) {
        if (a == b) continue;
        if (ValidateTindNaive(dataset_.attribute(a), dataset_.attribute(b),
                              params, dataset_.domain())) {
          expected.insert(TindPair{a, b});
        }
      }
    }
    return expected;
  }

  Dataset dataset_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
};

TEST_F(DiscoveryTest, SequentialMatchesNaive) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult result = DiscoverAllTinds(*index_, params, nullptr);
  const std::set<TindPair> expected = NaiveAllPairs(params);
  EXPECT_EQ(std::set<TindPair>(result.pairs.begin(), result.pairs.end()),
            expected);
  EXPECT_EQ(result.num_queries, dataset_.size());
  EXPECT_GE(result.elapsed_seconds, 0.0);
}

TEST_F(DiscoveryTest, ParallelMatchesSequential) {
  ThreadPool pool(4);
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult serial = DiscoverAllTinds(*index_, params, nullptr);
  const AllPairsResult parallel = DiscoverAllTinds(*index_, params, &pool);
  EXPECT_EQ(serial.pairs, parallel.pairs);
}

TEST_F(DiscoveryTest, PairsSortedAndUnique) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult result = DiscoverAllTinds(*index_, params, nullptr);
  for (size_t i = 1; i < result.pairs.size(); ++i) {
    EXPECT_TRUE(result.pairs[i - 1] < result.pairs[i]);
  }
}

TEST_F(DiscoveryTest, NoSelfPairs) {
  const TindParams params{90.0, 4, weight_.get()};  // Everything included.
  const AllPairsResult result = DiscoverAllTinds(*index_, params, nullptr);
  for (const TindPair& p : result.pairs) EXPECT_NE(p.lhs, p.rhs);
  // With eps = total weight, every ordered pair holds.
  EXPECT_EQ(result.pairs.size(), dataset_.size() * (dataset_.size() - 1));
}

TEST_F(DiscoveryTest, StrictSubsetOfRelaxed) {
  const TindParams strict{0.0, 0, weight_.get()};
  const TindParams relaxed{3.0, 2, weight_.get()};
  const AllPairsResult s = DiscoverAllTinds(*index_, strict, nullptr);
  const AllPairsResult r = DiscoverAllTinds(*index_, relaxed, nullptr);
  const std::set<TindPair> relaxed_set(r.pairs.begin(), r.pairs.end());
  for (const TindPair& p : s.pairs) {
    EXPECT_TRUE(relaxed_set.count(p)) << p.lhs << " in " << p.rhs;
  }
}

TEST_F(DiscoveryTest, OptionsOverloadMatchesLegacy) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult legacy = DiscoverAllTinds(*index_, params, nullptr);
  auto result = DiscoverAllTinds(*index_, params, DiscoveryOptions{});
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pairs, legacy.pairs);
  EXPECT_EQ(result->resumed_queries, 0u);
  EXPECT_EQ(result->checkpoints_written, 0u);
}

TEST_F(DiscoveryTest, PreCancelledTokenStopsImmediately) {
  const TindParams params{3.0, 2, weight_.get()};
  CancellationToken cancel;
  cancel.Cancel();
  DiscoveryOptions options;
  options.cancel = &cancel;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsCancelled()) << result.status().ToString();
}

TEST_F(DiscoveryTest, MemoryBudgetOverflowIsOutOfMemoryAndReleased) {
  const TindParams params{90.0, 4, weight_.get()};  // Maximal result set.
  MemoryBudget budget(16);  // Room for four result ids in total.
  DiscoveryOptions options;
  options.memory = &budget;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(budget.used(), 0u);  // The reservation was returned.
}

TEST_F(DiscoveryTest, CheckpointWrittenAndDeletedOnSuccess) {
  const TindParams params{3.0, 2, weight_.get()};
  const std::string path = ::testing::TempDir() + "disc-success-ckpt";
  std::remove(path.c_str());
  DiscoveryOptions options;
  options.checkpoint_path = path;
  options.checkpoint_interval = 4;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->checkpoints_written, 0u);
  EXPECT_EQ(result->checkpoint_failures, 0u);
  EXPECT_FALSE(std::ifstream(path).good()) << "checkpoint not cleaned up";
}

TEST_F(DiscoveryTest, ResumeFromCheckpointProducesIdenticalPairs) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult baseline = DiscoverAllTinds(*index_, params, nullptr);

  // Simulate a killed run: persist a checkpoint carrying the first 20
  // queries' results, then resume. The resumed run must skip those queries
  // and still produce a pair set bit-identical to the uninterrupted one.
  DiscoveryCheckpoint checkpoint;
  checkpoint.num_queries = dataset_.size();
  for (AttributeId q = 0; q < 20; ++q) {
    std::vector<AttributeId> rhs =
        index_->Search(dataset_.attribute(q), params);
    checkpoint.completed.emplace_back(q, std::move(rhs));
  }
  const std::string path = ::testing::TempDir() + "disc-resume-ckpt";
  ASSERT_TRUE(SaveDiscoveryCheckpoint(checkpoint, path).ok());

  DiscoveryOptions options;
  options.checkpoint_path = path;
  auto resumed = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->resumed_queries, 20u);
  EXPECT_EQ(resumed->pairs, baseline.pairs);
  std::remove(path.c_str());
}

TEST_F(DiscoveryTest, CorruptCheckpointIsIgnoredNotFatal) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult baseline = DiscoverAllTinds(*index_, params, nullptr);
  const std::string path = ::testing::TempDir() + "disc-corrupt-ckpt";
  {
    std::ofstream out(path, std::ios::trunc);
    out << "TIND-CKPT 1 9999\nnot a record at all\n";
  }
  DiscoveryOptions options;
  options.checkpoint_path = path;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->resumed_queries, 0u);
  EXPECT_EQ(result->pairs, baseline.pairs);
  std::remove(path.c_str());
}

TEST_F(DiscoveryTest, ParallelWithOptionsMatchesSequential) {
  ThreadPool pool(4);
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult baseline = DiscoverAllTinds(*index_, params, nullptr);
  DiscoveryOptions options;
  options.pool = &pool;
  options.checkpoint_path = ::testing::TempDir() + "disc-par-ckpt";
  options.checkpoint_interval = 8;
  auto result = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->pairs, baseline.pairs);
}

#if !TIND_FAULT_INJECTION_DISABLED
TEST_F(DiscoveryTest, InjectedPreemptionThenResumeMatchesBaseline) {
  const TindParams params{3.0, 2, weight_.get()};
  const AllPairsResult baseline = DiscoverAllTinds(*index_, params, nullptr);
  const std::string path = ::testing::TempDir() + "disc-preempt-ckpt";
  std::remove(path.c_str());

  ASSERT_TRUE(
      FaultInjector::Global().Configure("discovery/preempt=0.2", 5).ok());
  DiscoveryOptions options;
  options.checkpoint_path = path;
  options.checkpoint_interval = 4;
  auto preempted = DiscoverAllTinds(*index_, params, options);
  const uint64_t fired = FaultInjector::Global().fired("discovery/preempt");
  FaultInjector::Global().Reset();
  ASSERT_GT(fired, 0u) << "seed never fired; pick another";
  ASSERT_FALSE(preempted.ok());
  EXPECT_TRUE(preempted.status().IsCancelled())
      << preempted.status().ToString();

  auto resumed = DiscoverAllTinds(*index_, params, options);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->pairs, baseline.pairs);
  std::remove(path.c_str());
}
#endif  // !TIND_FAULT_INJECTION_DISABLED

#if !TIND_FAULT_INJECTION_DISABLED
TEST_F(DiscoveryTest, CheckpointWriteRetriesRideOutTransientFaults) {
  const TindParams params{3.0, 2, weight_.get()};
  const std::string path = ::testing::TempDir() + "disc-retry-ckpt";
  std::remove(path.c_str());

  // Fail ~35% of checkpoint writes. With backoff retries (3 per write) a
  // transient fault is retried through, so no write is recorded as failed.
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("discovery/checkpoint_write=0.35", 11)
                  .ok());
  DiscoveryOptions options;
  options.checkpoint_path = path;
  options.checkpoint_interval = 2;
  options.checkpoint_retries = 8;  // 0.35^8: a full exhaustion is ~1e-4.
  auto result = DiscoverAllTinds(*index_, params, options);
  const uint64_t fired =
      FaultInjector::Global().fired("discovery/checkpoint_write");
  FaultInjector::Global().Reset();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_GT(fired, 0u) << "seed never fired; pick another";
  EXPECT_EQ(result->checkpoint_failures, 0u);
  EXPECT_GT(result->checkpoints_written, 0u);

  // Same faults without retries must record failures: proves the retries —
  // not luck — absorbed them above.
  std::remove(path.c_str());
  ASSERT_TRUE(FaultInjector::Global()
                  .Configure("discovery/checkpoint_write=0.35", 11)
                  .ok());
  options.checkpoint_retries = 0;
  auto no_retry = DiscoverAllTinds(*index_, params, options);
  FaultInjector::Global().Reset();
  ASSERT_TRUE(no_retry.ok()) << no_retry.status().ToString();
  EXPECT_GT(no_retry->checkpoint_failures, 0u);
  std::remove(path.c_str());
}
#endif  // !TIND_FAULT_INJECTION_DISABLED

// Discovery over several query groups (kBloomBatchGroupSize each), so the
// groups run concurrently and commit out of their finishing order. A
// cluster of attributes with hundreds of values per version sits at
// adjacent ids: nested versions make most of its pairs survive the Bloom
// funnel, so its group is the straggler that the groups after it overtake.
class MultiGroupDiscoveryTest : public ::testing::Test {
 protected:
  static constexpr size_t kAttributes = 5 * kBloomBatchGroupSize + 32;
  static constexpr size_t kClusterBegin = 140;
  static constexpr size_t kClusterSize = 24;
  static constexpr int64_t kDays = 48;

  static void SetUpTestSuite() {
    Rng rng(23);
    dataset_ = new Dataset(TimeDomain(kDays),
                           std::make_shared<ValueDictionary>());
    // The cluster shares its change points up to a ±1 day jitter; version
    // v of member k is the first 100 + 8k values of one shuffled pool per
    // version, so lower members nest inside higher ones.
    std::vector<Timestamp> cluster_ts;
    for (int i = 0; i < 8; ++i) {
      cluster_ts.push_back(static_cast<Timestamp>(rng.Uniform(kDays)));
    }
    std::sort(cluster_ts.begin(), cluster_ts.end());
    cluster_ts.erase(std::unique(cluster_ts.begin(), cluster_ts.end()),
                     cluster_ts.end());
    std::vector<std::vector<ValueId>> pools(cluster_ts.size());
    for (auto& pool : pools) {
      for (ValueId v = 0; v < 400; ++v) pool.push_back(v);
      for (size_t i = pool.size() - 1; i > 0; --i) {
        std::swap(pool[i], pool[rng.Uniform(i + 1)]);
      }
    }
    for (size_t id = 0; id < kAttributes; ++id) {
      const AttributeId aid = static_cast<AttributeId>(id);
      if (id < kClusterBegin || id >= kClusterBegin + kClusterSize) {
        dataset_->Add(
            testutil::RandomHistory(dataset_->domain(), &rng, 12, aid, 5, 5));
        continue;
      }
      const size_t k = id - kClusterBegin;
      AttributeHistoryBuilder b(aid, {}, dataset_->domain());
      Timestamp prev = 0;
      for (size_t v = 0; v < cluster_ts.size(); ++v) {
        const Timestamp t = std::clamp<Timestamp>(
            cluster_ts[v] + static_cast<Timestamp>(rng.Uniform(3)) - 1, prev,
            kDays - 1);
        prev = t;
        std::vector<ValueId> values(pools[v].begin(),
                                    pools[v].begin() + 100 + 8 * k);
        ASSERT_TRUE(
            b.AddVersion(t, ValueSet::FromUnsorted(std::move(values))).ok());
      }
      auto history = b.Finish();
      ASSERT_TRUE(history.ok());
      dataset_->Add(std::move(*history));
    }
    weight_ = new ConstantWeight(kDays);
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 4;
    opts.delta = 2;
    opts.epsilon = 3.0;
    opts.weight = weight_;
    auto index = TindIndex::Build(*dataset_, opts);
    ASSERT_TRUE(index.ok());
    index_ = index->release();

    // Brute-force oracle, independent of the index: every ordered pair
    // through the per-timestamp validator.
    const TindParams params = Params();
    oracle_rhs_ = new std::vector<std::vector<AttributeId>>(kAttributes);
    oracle_pairs_ = new std::vector<TindPair>();
    for (AttributeId a = 0; a < kAttributes; ++a) {
      for (AttributeId b = 0; b < kAttributes; ++b) {
        if (a != b &&
            ValidateTindNaive(dataset_->attribute(a), dataset_->attribute(b),
                              params, dataset_->domain())) {
          (*oracle_rhs_)[a].push_back(b);
          oracle_pairs_->push_back(TindPair{a, b});
        }
      }
    }
  }

  static void TearDownTestSuite() {
    delete oracle_pairs_;
    delete oracle_rhs_;
    delete index_;
    delete weight_;
    delete dataset_;
  }

  static TindParams Params() { return TindParams{3.0, 2, weight_}; }

  /// Asserts that `checkpoint` holds exactly the queries [0, k) with their
  /// oracle answers, and returns k.
  static size_t ExpectOraclePrefix(const DiscoveryCheckpoint& checkpoint) {
    EXPECT_EQ(checkpoint.num_queries, kAttributes);
    for (size_t i = 0; i < checkpoint.completed.size(); ++i) {
      const auto& [q, rhs] = checkpoint.completed[i];
      EXPECT_EQ(q, i) << "completed queries are not a prefix";
      if (q < kAttributes) {
        EXPECT_EQ(rhs, (*oracle_rhs_)[q]) << "query " << q;
      }
    }
    return checkpoint.completed.size();
  }

  static Dataset* dataset_;
  static ConstantWeight* weight_;
  static TindIndex* index_;
  static std::vector<std::vector<AttributeId>>* oracle_rhs_;
  static std::vector<TindPair>* oracle_pairs_;
};

Dataset* MultiGroupDiscoveryTest::dataset_ = nullptr;
ConstantWeight* MultiGroupDiscoveryTest::weight_ = nullptr;
TindIndex* MultiGroupDiscoveryTest::index_ = nullptr;
std::vector<std::vector<AttributeId>>* MultiGroupDiscoveryTest::oracle_rhs_ =
    nullptr;
std::vector<TindPair>* MultiGroupDiscoveryTest::oracle_pairs_ = nullptr;

TEST_F(MultiGroupDiscoveryTest, FixtureHasAStragglerCluster) {
  // Members nest, so the cluster alone contributes at least the chain
  // k ⊆ k+1 of each adjacent pair.
  size_t cluster_pairs = 0;
  for (const TindPair& p : *oracle_pairs_) {
    if (p.lhs >= kClusterBegin && p.lhs < kClusterBegin + kClusterSize &&
        p.rhs >= kClusterBegin && p.rhs < kClusterBegin + kClusterSize) {
      ++cluster_pairs;
    }
  }
  EXPECT_GE(cluster_pairs, kClusterSize - 1);
  EXPECT_GE(dataset_->attribute(kClusterBegin).AllValues().size(), 100u);
}

TEST_F(MultiGroupDiscoveryTest, MatchesOracleAtEveryPoolWidth) {
  const AllPairsResult sequential = DiscoverAllTinds(*index_, Params());
  EXPECT_EQ(sequential.pairs, *oracle_pairs_);
  for (const size_t width : {1u, 2u, 4u}) {
    ThreadPool pool(width);
    const AllPairsResult pooled = DiscoverAllTinds(*index_, Params(), &pool);
    EXPECT_EQ(pooled.pairs, *oracle_pairs_) << "pool width " << width;
    EXPECT_EQ(pooled.total_validations, sequential.total_validations)
        << "pool width " << width;
  }
}

#if !TIND_FAULT_INJECTION_DISABLED
TEST_F(MultiGroupDiscoveryTest, PooledPreemptionLeavesExactPrefix) {
  const std::string path = ::testing::TempDir() + "disc-multi-preempt-ckpt";
  // Fault firing depends only on (seed, arrival index) and the point is
  // reached once per commit in query order, so the pooled and the
  // sequential run stop at the same query.
  size_t stopped_at[2] = {0, 0};
  for (const bool pooled : {false, true}) {
    std::remove(path.c_str());
    ThreadPool pool(4);
    DiscoveryOptions options;
    options.pool = pooled ? &pool : nullptr;
    options.checkpoint_path = path;
    options.checkpoint_interval = 16;
    ASSERT_TRUE(
        FaultInjector::Global().Configure("discovery/preempt=0.004", 3).ok());
    auto preempted = DiscoverAllTinds(*index_, Params(), options);
    const uint64_t fired = FaultInjector::Global().fired("discovery/preempt");
    FaultInjector::Global().Reset();
    ASSERT_EQ(fired, 1u);
    ASSERT_FALSE(preempted.ok());
    EXPECT_TRUE(preempted.status().IsCancelled())
        << preempted.status().ToString();
    auto checkpoint = LoadDiscoveryCheckpoint(path);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    stopped_at[pooled] = ExpectOraclePrefix(*checkpoint);

    options.pool = &pool;
    auto resumed = DiscoverAllTinds(*index_, Params(), options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->resumed_queries, stopped_at[pooled]);
    EXPECT_EQ(resumed->pairs, *oracle_pairs_);
  }
  // The stop lands past the first group and before the last one.
  EXPECT_GT(stopped_at[0], kBloomBatchGroupSize);
  EXPECT_LT(stopped_at[0], kAttributes - kBloomBatchGroupSize);
  EXPECT_EQ(stopped_at[1], stopped_at[0]);
  std::remove(path.c_str());
}
#endif  // !TIND_FAULT_INJECTION_DISABLED

TEST_F(MultiGroupDiscoveryTest, PooledUserCancelLeavesPrefixAndResumes) {
  const std::string path = ::testing::TempDir() + "disc-multi-cancel-ckpt";
  ThreadPool pool(4);
  // The cancel comes from another thread as soon as the first checkpoint
  // lands, so where the run stops is up to the scheduler; whatever the
  // stop, the checkpoint must hold a prefix of the queries. Writing a
  // checkpoint after every query keeps the run long enough for the cancel
  // to land mid-run; a run that still finishes first is retried.
  bool stopped_mid_run = false;
  for (int attempt = 0; attempt < 5 && !stopped_mid_run; ++attempt) {
    std::remove(path.c_str());
    CancellationToken cancel;
    DiscoveryOptions options;
    options.pool = &pool;
    options.cancel = &cancel;
    options.checkpoint_path = path;
    options.checkpoint_interval = 1;
    std::atomic<bool> finished{false};
    std::thread watcher([&] {
      while (!finished.load() && !std::ifstream(path).good()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      cancel.Cancel();
    });
    auto run = DiscoverAllTinds(*index_, Params(), options);
    finished.store(true);
    watcher.join();
    if (run.ok()) continue;  // Finished before the cancel landed.
    EXPECT_TRUE(run.status().IsCancelled()) << run.status().ToString();
    auto checkpoint = LoadDiscoveryCheckpoint(path);
    ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
    const size_t stopped_at = ExpectOraclePrefix(*checkpoint);
    stopped_mid_run = stopped_at < kAttributes;

    options.cancel = nullptr;
    options.checkpoint_interval = 64;
    auto resumed = DiscoverAllTinds(*index_, Params(), options);
    ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
    EXPECT_EQ(resumed->resumed_queries, stopped_at);
    EXPECT_EQ(resumed->pairs, *oracle_pairs_);
  }
  EXPECT_TRUE(stopped_mid_run);
  std::remove(path.c_str());
}

TEST_F(MultiGroupDiscoveryTest, PooledBudgetStopIsOutOfMemoryAtExactQuery) {
  // The cap admits the oracle answers of queries [0, 200); query 200 (the
  // first with a non-empty answer from there on) overflows it.
  size_t cap = 0;
  for (size_t q = 0; q < 200; ++q) {
    cap += (*oracle_rhs_)[q].size() * sizeof(AttributeId);
  }
  size_t expected_stop = 200;
  while (expected_stop < kAttributes && (*oracle_rhs_)[expected_stop].empty()) {
    ++expected_stop;
  }
  ASSERT_LT(expected_stop, kAttributes);
  const std::string path = ::testing::TempDir() + "disc-multi-oom-ckpt";
  std::remove(path.c_str());
  ThreadPool pool(4);
  MemoryBudget budget(cap);
  DiscoveryOptions options;
  options.pool = &pool;
  options.memory = &budget;
  options.checkpoint_path = path;
  auto result = DiscoverAllTinds(*index_, Params(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(budget.used(), 0u);  // The reservation was returned.
  auto checkpoint = LoadDiscoveryCheckpoint(path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(ExpectOraclePrefix(*checkpoint), expected_stop);
  std::remove(path.c_str());
}

// A run of many small groups, so the groups after the commit frontier far
// outnumber the look-ahead within which a budgeted run claims groups (two
// per thread that runs groups: the pool's workers and the calling thread).
class DiscoveryLookaheadTest : public ::testing::Test {
 protected:
  static constexpr size_t kGroups = 16;
  static constexpr size_t kQueries = kGroups * kBloomBatchGroupSize;
  static constexpr int64_t kDays = 60;

  void SetUp() override {
    Rng rng(29);
    dataset_ = Dataset(TimeDomain(kDays), std::make_shared<ValueDictionary>());
    for (size_t id = 0; id < kQueries; ++id) {
      dataset_.Add(testutil::RandomHistory(
          dataset_.domain(), &rng, 40, static_cast<AttributeId>(id), 4, 4));
    }
    weight_ = std::make_unique<ConstantWeight>(kDays);
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 4;
    opts.delta = 2;
    opts.epsilon = 3.0;
    opts.weight = weight_.get();
    auto index = TindIndex::Build(dataset_, opts);
    ASSERT_TRUE(index.ok());
    index_ = std::move(*index);
  }

  TindParams Params() const { return TindParams{3.0, 2, weight_.get()}; }

  static size_t LookaheadQueries(const ThreadPool& pool) {
    return 2 * (pool.num_threads() + 1) * kBloomBatchGroupSize;
  }

  Dataset dataset_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
};

// Answers that finish ahead of the commit frontier are not charged to the
// budget until they commit. A checkpoint write after every query makes the
// committer the slow part and lets the other workers race ahead; the
// parked-answer high-water must still stay within the look-ahead, and the
// budget must still stop the run at the exact query.
TEST_F(DiscoveryLookaheadTest, ParkedAnswersStayWithinLookaheadOfSlowCommitter) {
#if TIND_OBS_DISABLED
  GTEST_SKIP() << "the parked-answer peak is an obs gauge; requires "
                  "TIND_ENABLE_METRICS=ON";
#else
  // The cap admits the answers of queries [0, 3/4 of the run); the first
  // query from there on with a non-empty answer overflows it.
  const AllPairsResult baseline = DiscoverAllTinds(*index_, Params());
  std::vector<size_t> answer_sizes(kQueries, 0);
  for (const TindPair& p : baseline.pairs) ++answer_sizes[p.lhs];
  size_t expected_stop = kQueries * 3 / 4;
  size_t cap = 0;
  for (size_t q = 0; q < expected_stop; ++q) {
    cap += answer_sizes[q] * sizeof(AttributeId);
  }
  while (expected_stop < kQueries && answer_sizes[expected_stop] == 0) {
    ++expected_stop;
  }
  ASSERT_LT(expected_stop, kQueries);

  MetricsEnabledGuard metrics;
  obs::Gauge* parked_peak = obs::MetricsRegistry::Global().GetGauge(
      "discovery/parked_queries_peak");
  parked_peak->Reset();
  const std::string path = ::testing::TempDir() + "disc-lookahead-ckpt";
  std::remove(path.c_str());
  ThreadPool pool(2);
  ASSERT_LT(LookaheadQueries(pool), expected_stop);
  MemoryBudget budget(cap);
  DiscoveryOptions options;
  options.pool = &pool;
  options.memory = &budget;
  options.checkpoint_path = path;
  options.checkpoint_interval = 1;
  auto result = DiscoverAllTinds(*index_, Params(), options);
  ASSERT_FALSE(result.ok());
  EXPECT_TRUE(result.status().IsOutOfMemory()) << result.status().ToString();
  EXPECT_EQ(budget.used(), 0u);
  auto checkpoint = LoadDiscoveryCheckpoint(path);
  ASSERT_TRUE(checkpoint.ok()) << checkpoint.status().ToString();
  EXPECT_EQ(checkpoint->completed.size(), expected_stop);
  EXPECT_GT(parked_peak->value(), 0.0);
  EXPECT_LE(parked_peak->value(), static_cast<double>(LookaheadQueries(pool)));
  std::remove(path.c_str());
#endif  // TIND_OBS_DISABLED
}

#if !TIND_FAULT_INJECTION_DISABLED
// A pool task that throws before its group is claimed must not strand the
// workers waiting for the frontier: the run ends with Internal, not a hang.
// An uncapped budget turns the look-ahead on without stopping the run.
TEST_F(DiscoveryLookaheadTest, ThrowingPoolTaskEndsTheRunAsInternal) {
  const AllPairsResult baseline = DiscoverAllTinds(*index_, Params());
  size_t faulted_runs = 0;
  for (const size_t width : {1u, 2u}) {
    ThreadPool pool(width);
    for (uint64_t seed = 1; seed <= 8; ++seed) {
      ASSERT_TRUE(
          FaultInjector::Global().Configure("thread_pool/task=0.2", seed).ok());
      MemoryBudget uncapped;
      DiscoveryOptions options;
      options.pool = &pool;
      options.memory = &uncapped;
      auto result = DiscoverAllTinds(*index_, Params(), options);
      const uint64_t fired = FaultInjector::Global().fired("thread_pool/task");
      FaultInjector::Global().Reset();
      if (fired == 0) {
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        EXPECT_EQ(result->pairs, baseline.pairs) << "seed " << seed;
        continue;
      }
      ++faulted_runs;
      ASSERT_FALSE(result.ok()) << "seed " << seed;
      EXPECT_TRUE(result.status().IsInternal()) << result.status().ToString();
    }
  }
  EXPECT_GE(faulted_runs, 8u);
}
#endif  // !TIND_FAULT_INJECTION_DISABLED

TEST(CheckpointTest, SaveLoadRoundTrip) {
  DiscoveryCheckpoint checkpoint;
  checkpoint.num_queries = 10;
  checkpoint.completed.emplace_back(0, std::vector<AttributeId>{1, 2, 3});
  checkpoint.completed.emplace_back(4, std::vector<AttributeId>{});
  checkpoint.completed.emplace_back(9, std::vector<AttributeId>{0});
  const std::string path = ::testing::TempDir() + "ckpt-roundtrip";
  ASSERT_TRUE(SaveDiscoveryCheckpoint(checkpoint, path).ok());
  auto loaded = LoadDiscoveryCheckpoint(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->num_queries, checkpoint.num_queries);
  EXPECT_EQ(loaded->completed, checkpoint.completed);
  RemoveDiscoveryCheckpoint(path);
  EXPECT_TRUE(LoadDiscoveryCheckpoint(path).status().IsNotFound());
}

TEST(CheckpointTest, DetectsTruncationAndBitRot) {
  DiscoveryCheckpoint checkpoint;
  checkpoint.num_queries = 5;
  checkpoint.completed.emplace_back(1, std::vector<AttributeId>{2, 3});
  const std::string path = ::testing::TempDir() + "ckpt-corrupt";
  ASSERT_TRUE(SaveDiscoveryCheckpoint(checkpoint, path).ok());
  std::string contents;
  {
    std::ifstream in(path);
    std::getline(in, contents, '\0');
  }
  {  // Drop the footer: truncation.
    std::ofstream out(path, std::ios::trunc);
    out << contents.substr(0, contents.find("footer"));
  }
  auto truncated = LoadDiscoveryCheckpoint(path);
  EXPECT_FALSE(truncated.ok());
  EXPECT_TRUE(truncated.status().IsIOError());
  {  // Flip one payload byte: CRC mismatch.
    std::string tampered = contents;
    tampered[tampered.find("Q 1") + 2] = '2';
    std::ofstream out(path, std::ios::trunc);
    out << tampered;
  }
  auto tampered = LoadDiscoveryCheckpoint(path);
  EXPECT_FALSE(tampered.ok());
  std::remove(path.c_str());
}

TEST(TindPairTest, Ordering) {
  EXPECT_TRUE((TindPair{1, 2}) < (TindPair{1, 3}));
  EXPECT_TRUE((TindPair{1, 9}) < (TindPair{2, 0}));
  EXPECT_TRUE((TindPair{1, 2}) == (TindPair{1, 2}));
  EXPECT_FALSE((TindPair{1, 2}) == (TindPair{2, 1}));
}

}  // namespace
}  // namespace tind
