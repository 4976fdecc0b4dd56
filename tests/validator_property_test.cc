#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <tuple>

#include "test_util.h"
#include "tind/validator.h"

namespace tind {
namespace {

/// The central correctness property: Algorithm 2 (sliding-window interval
/// sweep) must agree exactly with the per-timestamp naive oracle on random
/// history pairs, for every (ε, δ, w) combination.
class ValidatorEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<int, int64_t, double, int>> {};

TEST_P(ValidatorEquivalenceTest, SweepMatchesNaiveOracle) {
  const auto [seed, delta, eps, weight_kind] = GetParam();
  Rng rng(static_cast<uint64_t>(seed) * 7919 + 13);
  const int64_t n = 60;
  const TimeDomain domain(n);
  std::unique_ptr<WeightFunction> weight;
  switch (weight_kind) {
    case 0:
      weight = std::make_unique<ConstantWeight>(n);
      break;
    case 1:
      weight = std::make_unique<ExponentialDecayWeight>(n, 0.93);
      break;
    default:
      weight = std::make_unique<LinearDecayWeight>(n);
  }
  for (int trial = 0; trial < 40; ++trial) {
    const auto q = testutil::RandomHistory(domain, &rng, 12, 0);
    const auto a = testutil::RandomHistory(domain, &rng, 12, 1);
    const TindParams params{eps, delta, weight.get()};
    const bool fast = ValidateTind(q, a, params, domain);
    const bool naive = ValidateTindNaive(q, a, params, domain);
    ASSERT_EQ(fast, naive)
        << "seed=" << seed << " trial=" << trial << " delta=" << delta
        << " eps=" << eps << " w=" << weight->ToString();
    const double v_fast = ComputeViolationWeight(q, a, delta, *weight, domain);
    const double v_naive =
        ComputeViolationWeightNaive(q, a, delta, *weight, domain);
    ASSERT_NEAR(v_fast, v_naive, 1e-7)
        << "seed=" << seed << " trial=" << trial << " delta=" << delta;
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomPairs, ValidatorEquivalenceTest,
    ::testing::Combine(::testing::Values(1, 2, 3),
                       ::testing::Values<int64_t>(0, 1, 3, 7, 25),
                       ::testing::Values(0.0, 1.0, 4.0),
                       ::testing::Values(0, 1, 2)));

/// A history whose versions hold hundreds of values from a sliding window
/// of the value space, so consecutive versions overlap heavily (the shape
/// of the corpus catch-all attributes). The first version lands at `birth`.
AttributeHistory OverlappingHistory(const TimeDomain& domain, Rng* rng,
                                    AttributeId id, Timestamp birth) {
  AttributeHistoryBuilder b(id, {}, domain);
  Timestamp t = birth;
  size_t base = rng->Uniform(100);
  const size_t num_versions = 2 + rng->Uniform(10);
  for (size_t v = 0; v < num_versions && t < domain.num_timestamps(); ++v) {
    std::vector<ValueId> values;
    const size_t card = 150 + rng->Uniform(250);
    for (size_t i = 0; i < card; ++i) {
      values.push_back(static_cast<ValueId>(base + rng->Uniform(500)));
    }
    (void)b.AddVersion(t, ValueSet::FromUnsorted(std::move(values)));
    base += rng->Uniform(40);
    t += 1 + static_cast<Timestamp>(rng->Uniform(15));
  }
  return std::move(*b.Finish());
}

/// Q's history with each version's change point shifted by up to ±3 days,
/// a few values dropped (violations that δ may or may not absorb) and some
/// extra values added.
AttributeHistory PerturbedCopy(const AttributeHistory& q,
                               const TimeDomain& domain, Rng* rng,
                               AttributeId id) {
  AttributeHistoryBuilder b(id, {}, domain);
  Timestamp prev = 0;
  for (size_t v = 0; v < q.num_versions(); ++v) {
    const Timestamp t = std::clamp<Timestamp>(
        q.change_timestamps()[v] + static_cast<Timestamp>(rng->Uniform(7)) - 3,
        prev, domain.num_timestamps() - 1);
    prev = t;
    std::vector<ValueId> values;
    for (const ValueId value : q.versions()[v].values()) {
      if (!rng->Bernoulli(0.01)) values.push_back(value);
    }
    for (int i = 0; i < 20; ++i) {
      values.push_back(static_cast<ValueId>(rng->Uniform(700)));
    }
    (void)b.AddVersion(t, ValueSet::FromUnsorted(std::move(values)));
  }
  return std::move(*b.Finish());
}

void ExpectSweepMatchesNaive(const AttributeHistory& q,
                             const AttributeHistory& a,
                             const TimeDomain& domain,
                             const WeightFunction& weight) {
  for (const int64_t delta : {0, 2, 7}) {
    for (const double eps : {0.0, 3.0, 12.0}) {
      const TindParams params{eps, delta, &weight};
      ASSERT_EQ(ValidateTind(q, a, params, domain),
                ValidateTindNaive(q, a, params, domain))
          << "delta=" << delta << " eps=" << eps;
    }
    ASSERT_NEAR(ComputeViolationWeight(q, a, delta, weight, domain),
                ComputeViolationWeightNaive(q, a, delta, weight, domain), 1e-7)
        << "delta=" << delta;
  }
}

TEST(ValidatorLargeUniverseTest, OverlappingVersionsMatchNaiveOracle) {
  Rng rng(91);
  const TimeDomain domain(120);
  const ExponentialDecayWeight weight(120, 0.97);
  size_t valid = 0;
  size_t invalid = 0;
  for (int trial = 0; trial < 30; ++trial) {
    // Every third Q is born late, past the domain's midpoint.
    const Timestamp birth = trial % 3 == 0
                                ? 60 + static_cast<Timestamp>(rng.Uniform(40))
                                : static_cast<Timestamp>(rng.Uniform(10));
    const AttributeHistory q = OverlappingHistory(domain, &rng, 0, birth);
    const AttributeHistory near = PerturbedCopy(q, domain, &rng, 1);
    const AttributeHistory other = OverlappingHistory(domain, &rng, 2, 0);
    ASSERT_GE(q.AllValues().size(), 150u);
    for (const AttributeHistory* a : {&near, &other}) {
      ExpectSweepMatchesNaive(q, *a, domain, weight);
      ExpectSweepMatchesNaive(*a, q, domain, weight);
      const TindParams params{3.0, 2, &weight};
      ++(ValidateTindNaive(q, *a, params, domain) ? valid : invalid);
    }
  }
  // Both verdicts occur, so the agreement above is not vacuous.
  EXPECT_GT(valid, 0u);
  EXPECT_GT(invalid, 0u);
}

TEST(ValidatorLargeUniverseTest, AppendGrownHistoriesMatchNaiveOracle) {
  // Histories grown by live ingest: AppendVersion with same-day overwrites
  // and coalescing appends, validated after every append in both roles.
  Rng rng(92);
  const TimeDomain domain(100);
  const ConstantWeight weight(100);
  for (int trial = 0; trial < 6; ++trial) {
    AttributeHistory q = OverlappingHistory(domain, &rng, 0, 0);
    AttributeHistory a = PerturbedCopy(q, domain, &rng, 1);
    Timestamp t = std::max(q.change_timestamps().back(),
                           a.change_timestamps().back());
    for (int step = 0; step < 8 && t < domain.num_timestamps() - 3; ++step) {
      t += static_cast<Timestamp>(rng.Uniform(3));  // 0: same-day overwrite.
      AttributeHistory& grown = rng.Bernoulli(0.5) ? q : a;
      const AttributeHistory& peer = &grown == &q ? a : q;
      ValueSet values = rng.Bernoulli(0.25)
                            ? peer.versions().back()  // May coalesce later.
                            : OverlappingHistory(domain, &rng, 2, 0)
                                  .versions()
                                  .front();
      ASSERT_TRUE(grown.AppendVersion(t, std::move(values)).ok());
      ASSERT_TRUE(grown.AppendVersion(t, grown.versions().back()).ok());
      ExpectSweepMatchesNaive(q, a, domain, weight);
      ExpectSweepMatchesNaive(a, q, domain, weight);
    }
  }
}

TEST(ValidatorMonotonicityTest, ViolationWeightNonIncreasingInDelta) {
  Rng rng(71);
  const TimeDomain domain(80);
  const ConstantWeight w(80);
  for (int trial = 0; trial < 60; ++trial) {
    const auto q = testutil::RandomHistory(domain, &rng, 15, 0);
    const auto a = testutil::RandomHistory(domain, &rng, 15, 1);
    double prev = ComputeViolationWeight(q, a, 0, w, domain);
    for (const int64_t delta : {1, 2, 4, 8, 16, 40}) {
      const double cur = ComputeViolationWeight(q, a, delta, w, domain);
      ASSERT_LE(cur, prev + 1e-9) << "trial " << trial << " delta " << delta;
      prev = cur;
    }
  }
}

TEST(ValidatorMonotonicityTest, ValidityMonotoneInEpsilon) {
  Rng rng(72);
  const TimeDomain domain(70);
  const ConstantWeight w(70);
  for (int trial = 0; trial < 60; ++trial) {
    const auto q = testutil::RandomHistory(domain, &rng, 10, 0);
    const auto a = testutil::RandomHistory(domain, &rng, 10, 1);
    bool prev_valid = false;
    for (const double eps : {0.0, 1.0, 2.0, 5.0, 10.0, 70.0}) {
      const TindParams p{eps, 2, &w};
      const bool valid = ValidateTind(q, a, p, domain);
      // Once valid at a smaller eps, must stay valid at larger eps.
      if (prev_valid) {
        ASSERT_TRUE(valid) << "trial " << trial << " eps " << eps;
      }
      prev_valid = valid;
    }
    // At eps = total weight, everything is valid.
    const TindParams all{w.Total(), 0, &w};
    ASSERT_TRUE(ValidateTind(q, a, all, domain));
  }
}

TEST(ValidatorReflexivityTest, EveryHistoryIncludesItself) {
  // Reflexivity holds for all relaxed tIND variants (Section 3.4).
  Rng rng(73);
  const TimeDomain domain(50);
  const ConstantWeight w(50);
  for (int trial = 0; trial < 50; ++trial) {
    const auto q = testutil::RandomHistory(domain, &rng, 20, 0);
    for (const int64_t delta : {0, 3}) {
      const TindParams p{0.0, delta, &w};
      ASSERT_TRUE(ValidateTind(q, q, p, domain)) << "trial " << trial;
    }
  }
}

TEST(ValidatorSubsetTest, TrueSubsetHistoriesAlwaysValid) {
  // If at every timestamp Q[t] ⊆ A[t] by construction, the strict tIND must
  // hold for any delta and any weight.
  Rng rng(74);
  const TimeDomain domain(60);
  const ConstantWeight w(60);
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = testutil::RandomHistory(domain, &rng, 15, 1, 10, 8);
    // Derive Q from A's own versions, dropping random values, with changes
    // exactly at A's change points.
    AttributeHistoryBuilder qb(0, {}, domain);
    for (size_t v = 0; v < a.num_versions(); ++v) {
      std::vector<ValueId> kept;
      for (const ValueId val : a.versions()[v].values()) {
        if (rng.Bernoulli(0.6)) kept.push_back(val);
      }
      (void)qb.AddVersion(a.change_timestamps()[v],
                          ValueSet::FromUnsorted(std::move(kept)));
    }
    if (qb.num_versions() == 0) continue;
    auto q = qb.Finish();
    ASSERT_TRUE(q.ok());
    // Q is born when A is born and is a per-timestamp subset afterwards —
    // except Q may be born *later* than A if leading versions were empty;
    // both cases keep Q[t] ⊆ A[t] for all t.
    const TindParams p{0.0, 0, &w};
    ASSERT_TRUE(ValidateTind(*q, a, p, domain)) << "trial " << trial;
  }
}

}  // namespace
}  // namespace tind
