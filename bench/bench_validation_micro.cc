/// Ablation microbenchmark (design choice from Section 4.3): Algorithm 2's
/// change-point interval sweep vs the naive per-timestamp validator, across
/// history densities and δ values. The speedup grows with the ratio of
/// timestamps to change points — the paper's corpus averages 13 changes
/// over ~2000 daily timestamps, a ~150x sparsity factor.

#include <benchmark/benchmark.h>

#include <map>
#include <memory>

#include "common/rng.h"
#include "temporal/attribute_history.h"
#include "temporal/dataset.h"
#include "tind/validator.h"

namespace tind {
namespace {

AttributeHistory MakeRandomHistory(Rng* rng, const TimeDomain& domain,
                                   size_t versions, size_t cardinality,
                                   AttributeId id) {
  AttributeHistoryBuilder b(id, {}, domain);
  const int64_t n = domain.num_timestamps();
  std::vector<Timestamp> ts;
  for (size_t i = 0; i < versions; ++i) {
    ts.push_back(static_cast<Timestamp>(rng->Uniform(n)));
  }
  std::sort(ts.begin(), ts.end());
  ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
  for (const Timestamp t : ts) {
    std::vector<ValueId> vals;
    for (size_t v = 0; v < cardinality; ++v) {
      vals.push_back(static_cast<ValueId>(rng->Uniform(200)));
    }
    (void)b.AddVersion(t, ValueSet::FromUnsorted(std::move(vals)));
  }
  if (b.num_versions() == 0) (void)b.AddVersion(0, ValueSet{0});
  return std::move(*b.Finish());
}

struct Fixture {
  TimeDomain domain{2000};
  ConstantWeight weight{2000};
  std::vector<AttributeHistory> qs, as;

  explicit Fixture(size_t versions) {
    Rng rng(9 + versions);
    for (int i = 0; i < 16; ++i) {
      qs.push_back(MakeRandomHistory(&rng, domain, versions, 28,
                                     static_cast<AttributeId>(2 * i)));
      as.push_back(MakeRandomHistory(&rng, domain, versions, 28,
                                     static_cast<AttributeId>(2 * i + 1)));
    }
  }
};

Fixture* GetFixture(size_t versions) {
  static std::map<size_t, std::unique_ptr<Fixture>> fixtures;
  auto& f = fixtures[versions];
  if (!f) f = std::make_unique<Fixture>(versions);
  return f.get();
}

void BM_ValidateAlgorithm2(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<size_t>(state.range(0)));
  const TindParams params{3.0, state.range(1), &f->weight};
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    benchmark::DoNotOptimize(
        ValidateTind(f->qs[j], f->as[j], params, f->domain));
  }
}
BENCHMARK(BM_ValidateAlgorithm2)
    ->ArgsProduct({{5, 13, 50, 200}, {0, 7, 90}})
    ->ArgNames({"versions", "delta"});

void BM_ValidateNaive(benchmark::State& state) {
  Fixture* f = GetFixture(static_cast<size_t>(state.range(0)));
  const TindParams params{3.0, state.range(1), &f->weight};
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    benchmark::DoNotOptimize(
        ValidateTindNaive(f->qs[j], f->as[j], params, f->domain));
  }
}
BENCHMARK(BM_ValidateNaive)
    ->ArgsProduct({{5, 13, 50}, {0, 7}})
    ->ArgNames({"versions", "delta"});

void BM_ViolationWeightSweep(benchmark::State& state) {
  // The Fig. 15 grid-search primitive: full violation weight, no early exit.
  Fixture* f = GetFixture(13);
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    benchmark::DoNotOptimize(ComputeViolationWeight(
        f->qs[j], f->as[j], state.range(0), f->weight, f->domain));
  }
}
BENCHMARK(BM_ViolationWeightSweep)->Arg(0)->Arg(7)->Arg(90)->ArgName("delta");

/// The corpus catch-all shape: 3-4k values per version, drawn from a
/// sliding window of the value space so consecutive versions overlap
/// heavily. Each A is Q's history with its change points shifted a few days
/// and extra values mixed in, so Algorithm 2 sweeps every interval instead
/// of exiting at the first violation.
struct CatchAllFixture {
  TimeDomain domain{2000};
  ConstantWeight weight{2000};
  std::vector<AttributeHistory> qs, as;

  explicit CatchAllFixture(size_t versions) {
    Rng rng(31 + versions);
    for (int i = 0; i < 8; ++i) {
      AttributeHistoryBuilder qb(static_cast<AttributeId>(2 * i), {}, domain);
      AttributeHistoryBuilder ab(static_cast<AttributeId>(2 * i + 1), {},
                                 domain);
      const int64_t step = domain.num_timestamps() / (versions + 1);
      size_t base = 0;
      for (size_t v = 0; v < versions; ++v) {
        std::vector<ValueId> vals;
        const size_t card = 3000 + rng.Uniform(1000);
        for (size_t k = 0; k < card; ++k) {
          vals.push_back(static_cast<ValueId>(base + rng.Uniform(6000)));
        }
        std::vector<ValueId> a_vals = vals;
        for (size_t k = 0; k < 500; ++k) {
          a_vals.push_back(static_cast<ValueId>(rng.Uniform(12000)));
        }
        const Timestamp t = static_cast<Timestamp>(v) * step;
        (void)qb.AddVersion(t, ValueSet::FromUnsorted(std::move(vals)));
        (void)ab.AddVersion(t + static_cast<Timestamp>(rng.Uniform(4)),
                            ValueSet::FromUnsorted(std::move(a_vals)));
        base += 300;
      }
      qs.push_back(std::move(*qb.Finish()));
      as.push_back(std::move(*ab.Finish()));
    }
  }
};

void BM_ValidateCatchAll(benchmark::State& state) {
  static std::map<size_t, std::unique_ptr<CatchAllFixture>> fixtures;
  auto& f = fixtures[static_cast<size_t>(state.range(0))];
  if (!f) f = std::make_unique<CatchAllFixture>(state.range(0));
  const TindParams params{3.0, 7, &f->weight};
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    benchmark::DoNotOptimize(
        ValidateTind(f->qs[j], f->as[j], params, f->domain));
  }
}
BENCHMARK(BM_ValidateCatchAll)->Arg(6)->Arg(16)->ArgName("versions");

void BM_RequiredValuesStyleVersionScan(benchmark::State& state) {
  // Cost of one full pass over a history's versions (index-build primitive).
  Fixture* f = GetFixture(static_cast<size_t>(state.range(0)));
  size_t i = 0;
  for (auto _ : state) {
    const size_t j = i++ % f->qs.size();
    size_t total = 0;
    f->qs[j].ForEachVersion(
        [&](const ValueSet& v, const Interval&) { total += v.size(); });
    benchmark::DoNotOptimize(total);
  }
}
BENCHMARK(BM_RequiredValuesStyleVersionScan)
    ->Arg(13)
    ->Arg(200)
    ->ArgName("versions");

}  // namespace
}  // namespace tind

BENCHMARK_MAIN();
