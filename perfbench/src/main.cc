/// tind_perfbench: the repository benchmark. One invocation runs one
/// workload from a seed and prints every metric by name with its unit, then
/// one JSON line with the result (perfbench/README.md describes the
/// workloads, the rates and the metrics).
///
///   tind_perfbench --workload=discover-batch|serve-mixed
///                  --seed=N --seconds=S --trace=0|1 --work_dir=DIR
///                  [--cache_dir=DIR] [--scale=full|smoke]
///                  [--plant_wrong_answer=1]
///
/// Every phase calls the program only through its public API: ReadDatasetFile,
/// TindIndex::Build / LoadSnapshot / BatchSearch, SearchCursor,
/// DiscoverAllTinds, IndexUpdater::ApplyDelta, the serve/wire.h codecs, and a
/// TindServer reached over loopback TCP (open-loop load through the wire
/// frames, closed-loop probes and ingest through serve::TindClient). Exit
/// status: 0 when every answer checked was right, 1 on a wrong answer, 2 when
/// the run could not start.

#include <sys/stat.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/flags.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "loadgen.h"
#include "obs/metrics.h"
#include "scenario/mutate.h"
#include "scenario/scenario.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "support.h"
#include "temporal/weights.h"
#include "tind/discovery.h"
#include "tind/index.h"
#include "tind/planner.h"
#include "tind/progressive.h"
#include "tind/update.h"
#include "wiki/corpus_io.h"

namespace perfbench {
namespace {

namespace serve = tind::serve;
using tind::Dataset;
using tind::TindIndex;

/// Knee conditions. The p99 limit is the server's own default request
/// deadline (ServerOptions::default_deadline_ms), not a 10 ms interactive
/// limit: single catch-all queries hold the batcher for 25-95 ms, so served
/// p99 already sits near 60 ms at 500 req/s. A limit on that flat floor
/// would make the knee a coin flip; at 200 ms it marks where queueing makes
/// p99 climb steeply, i.e. the server's capacity.
constexpr double kKneeP99LimitMs = 200.0;
constexpr double kMaxFailedFrac = 0.01;
/// The generator has a growing backlog when the median request of a rung's
/// last third went out later than this after its due time. A backlog at the
/// server shows in the p99 and in deadline failures.
constexpr double kMaxBacklogMs = kKneeP99LimitMs / 4;
/// A failed request counts as a miss: it enters the p99 at this latency.
constexpr double kMissLatencyMs = 1e9;

/// The corpus, the hot set and the request sequence of each phase are fixed
/// per workload, like the paper's one Wikipedia corpus and a fixed query
/// log; --seed draws the arrival times, the deltas and the checked samples.
/// 7 is the corpus seed of the repository's experiment harnesses.
constexpr uint64_t kWorkloadSeed = 7;
/// Both workloads' served traffic. Attributes and directions follow the
/// repository's zipf-hot-traffic scenario (90% of requests to a Zipf-ranked
/// hot set of 2% of the attributes, one reverse search in four). Every
/// request consents to a degraded answer, as in bench_serving. The stream
/// share has no source in the repository; it is an assumption (README).
constexpr const char* kTrafficScenario = "zipf-hot-traffic";
constexpr double kStreamFraction = 0.5;
constexpr size_t kLoadConnections = 3;  ///< Plus one ingest connection.
constexpr double kMiB = 1024.0 * 1024.0;

/// Fixed per-workload settings. Durations are for --seconds=10 and scale
/// linearly with it; rates do not scale.
struct Config {
  size_t target_attributes = 0;
  int64_t days = 3000;
  bool snapshot_setup = false;  ///< serve-mixed: setup loads a snapshot.
  /// The timed part runs in rounds of discovery passes, a base-rate phase
  /// and, every climb_every rounds, a climb of the knee ladder; discovery
  /// and the knee are medians over passes and climbs. On a shared machine
  /// other tenants slow the program by up to 2x for spells of a fraction of
  /// a second to minutes; spread over the run, a spell touches a share of
  /// the samples, not all.
  int rounds = 3;
  int climb_every = 1;      ///< Rounds 0, k, 2k, ... climb the ladder.
  int discover_passes = 1;  ///< DiscoverAllTinds passes per round.
  double base_rate = 0;
  std::vector<double> ladder;  ///< Rungs above the base rate, ascending.
  double base_s = 0;  ///< Per round.
  /// Duration of a ladder rung. Every rung replays the same fixed request
  /// sequence from its start, so a faster rung asks the slower rung's
  /// requests and then some.
  double rung_s = 0;
  size_t deltas = 0;
  double delta_rate = 0;  ///< Deltas per second.
  /// Brute-force checked queries per direction: the two attributes the
  /// traffic asks about most, plus this many seeded picks among all.
  size_t oracle_seeded = 2;
  size_t final_checks = 0;    ///< Final-epoch queries checked per direction.
  int setup_reps = 3;
};

std::optional<Config> ConfigFor(const std::string& workload, bool smoke) {
  Config c;
  if (workload == "discover-batch") {
    c.target_attributes = 28000;
    c.rounds = 5;
    c.climb_every = 2;
    c.base_rate = 500;
    c.ladder = {2000, 3000, 4000, 5000, 6000, 7000, 8000, 9000, 10000, 12000,
                14000, 16000};
    c.base_s = 3;
    c.rung_s = 0.7;
    c.deltas = 5;
    c.delta_rate = 1.5;
  } else if (workload == "serve-mixed") {
    c.target_attributes = 8000;
    c.snapshot_setup = true;
    c.rounds = 6;
    c.climb_every = 2;
    c.discover_passes = 1;
    c.base_rate = 1000;
    c.ladder = {4000, 5000, 6000, 7000, 8000, 9000, 10000, 12000, 14000, 16000,
                18000, 20000, 24000};
    c.base_s = 2;
    c.rung_s = 0.8;
    c.setup_reps = 5;
    c.deltas = 24;
    c.delta_rate = 6;
  } else {
    return std::nullopt;
  }
  c.final_checks = 24;
  if (smoke) {
    c.target_attributes = 400;
    c.days = 400;
    c.rounds = 2;
    c.discover_passes = 1;
    c.base_rate = 100;
    c.ladder = {200, 400};
    c.base_s = 0.4;
    c.rung_s = 0.4;
    c.deltas = 4;
    c.delta_rate = 10;
    c.oracle_seeded = 1;
    c.final_checks = 4;
    c.setup_reps = 1;
  }
  return c;
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool plant_wrong_answer = false;
  std::string work_dir;   ///< Scratch files of this run.
  std::string cache_dir;  ///< Inputs shared by runs of one build.
};

/// Brute-force answers for a few queries per direction, from one dataset.
struct Oracle {
  std::map<AttributeId, std::vector<AttributeId>> forward;
  std::map<AttributeId, std::vector<AttributeId>> reverse;

  const std::vector<AttributeId>* Find(AttributeId a, bool rev) const {
    const auto& m = rev ? reverse : forward;
    const auto it = m.find(a);
    return it == m.end() ? nullptr : &it->second;
  }
};

Oracle ComputeOracle(const Dataset& dataset,
                     const std::vector<AttributeId>& forward,
                     const std::vector<AttributeId>& reverse,
                     const tind::TindParams& params, tind::ThreadPool* pool) {
  Oracle oracle;
  for (const AttributeId a : forward) {
    oracle.forward[a] = NaiveAnswer(dataset, a, false, params, pool);
  }
  for (const AttributeId a : reverse) {
    oracle.reverse[a] = NaiveAnswer(dataset, a, true, params, pool);
  }
  return oracle;
}

double CounterValue(const char* name) {
  return static_cast<double>(
      tind::obs::MetricsRegistry::Global().GetCounter(name)->value());
}

/// Latencies (or times to first result) of a phase's answered requests.
std::vector<double> Latencies(const PhaseResult& phase, bool ttfr) {
  std::vector<double> out;
  for (const Response& r : phase.responses) {
    if (IsFailure(r.outcome)) continue;
    const double v = ttfr ? r.ttfr_ms : r.latency_ms;
    if (v >= 0) out.push_back(v);
  }
  return out;
}

/// The median over rounds of one percentile of each round's answered
/// requests: a round or two slowed by the machine do not move it.
double MedianOfRounds(const std::vector<PhaseResult>& phases, double p,
                      bool ttfr) {
  std::vector<double> per_round;
  for (const PhaseResult& phase : phases) {
    per_round.push_back(Percentile(Latencies(phase, ttfr), p));
  }
  return Median(std::move(per_round));
}

/// One percentile over the answered requests of all rounds' phases. The
/// tail is set by the few heavy queries of the log and the requests queued
/// behind them; a round holds only a few, all rounds together tens.
double PooledPercentile(const std::vector<PhaseResult>& phases, double p,
                        bool ttfr) {
  std::vector<double> all;
  for (const PhaseResult& phase : phases) {
    const std::vector<double> v = Latencies(phase, ttfr);
    all.insert(all.end(), v.begin(), v.end());
  }
  return Percentile(std::move(all), p);
}

struct RungStats {
  double rate = 0;
  double p99_ms = 0;  ///< Misses included.
  double failed_frac = 0;
  /// Median send lateness of the last third of a phase (the worst phase of
  /// the rung).
  double backlog_ms = 0;

  bool Passes() const {
    return p99_ms <= kKneeP99LimitMs && failed_frac <= kMaxFailedFrac &&
           backlog_ms <= kMaxBacklogMs;
  }
};

RungStats EvaluateRung(const std::vector<const PhaseResult*>& phases,
                       double rate) {
  RungStats stats;
  stats.rate = rate;
  std::vector<double> all;
  size_t failed = 0;
  for (const PhaseResult* phase : phases) {
    const size_t n = phase->responses.size();
    std::vector<double> late;
    for (size_t i = 0; i < n; ++i) {
      const Response& r = phase->responses[i];
      const bool miss = IsFailure(r.outcome);
      failed += miss ? 1 : 0;
      all.push_back(miss ? kMissLatencyMs : r.latency_ms);
      if (3 * i >= 2 * n) late.push_back(r.send_late_ms);
    }
    stats.backlog_ms = std::max(stats.backlog_ms, Median(std::move(late)));
  }
  if (all.empty()) return stats;
  stats.p99_ms = Percentile(all, 99);
  stats.failed_frac = static_cast<double>(failed) / static_cast<double>(all.size());
  return stats;
}

/// The knee between the last passing rung `a` and the first failing rung
/// `b`: the lowest rate at which a violated condition crosses its limit, by
/// linear interpolation between the two rungs. A discrete rung would move
/// in whole ladder steps; the crossing moves with the measurement.
double KneeBetween(const RungStats& a, const RungStats& b) {
  double frac = 1;
  const auto cross = [&](double va, double vb, double limit) {
    if (vb > limit) frac = std::min(frac, (limit - va) / (vb - va));
  };
  cross(a.failed_frac, b.failed_frac, kMaxFailedFrac);
  cross(a.backlog_ms, b.backlog_ms, kMaxBacklogMs);
  // With more than 1% misses the p99 is a miss; the failure share crossed.
  if (b.p99_ms < kMissLatencyMs) cross(a.p99_ms, b.p99_ms, kKneeP99LimitMs);
  return a.rate + std::clamp(frac, 0.0, 1.0) * (b.rate - a.rate);
}

class Workload {
 public:
  Workload(const Args& args, const Config& config)
      : args_(args),
        config_(config),
        scale_(args.seconds / 10.0),
        pool_(std::thread::hardware_concurrency()) {}

  int Run();

 private:
  bool PrepareInputs();
  bool MakeDeltas();
  void ChooseSamples();
  bool Setup();
  bool StartServer();
  void Discover(int passes);
  void ProbeServer();
  /// An open-loop phase asking the request log from `log_offset` on, with
  /// arrivals drawn from --seed and `salt`.
  PhaseResult ServePhase(double rate, double duration_s, size_t log_offset,
                         uint64_t salt);
  void Ingest();
  serve::ClientOptions ClientFor(uint32_t timeout_ms) const;
  /// One climb of the knee ladder from the round's base phase; its knee.
  double Climb(const PhaseResult& base);
  void FinalEpochQueries();
  void CheckAnswers();
  void CheckPhase(const PhaseResult& phase, const Oracle& oracle);
  void PlantWrongAnswer();
  void TallyPhase(const PhaseResult& phase);
  void EmitEndToEnd();
  void BuildLayers();
  void TracedLayers();

  tind::TindIndexOptions IndexOptions() const {
    tind::TindIndexOptions o;
    o.bloom_bits = 4096;
    o.num_slices = 16;
    o.delta = 7;
    o.epsilon = 3.0;
    o.weight = weight_.get();
    return o;
  }
  tind::TindParams Params() const { return {3.0, 7, weight_.get()}; }
  std::string WorkPath(const char* file) const {
    return args_.work_dir + "/" + file;
  }

  const Args args_;
  const Config config_;
  const double scale_;
  tind::ThreadPool pool_;
  Report report_;
  SpanLog spans_;

  std::string corpus_path_;
  std::string snapshot_path_;
  std::unique_ptr<tind::ConstantWeight> weight_;
  size_t num_attributes_ = 0;  ///< Epoch 0.
  std::unique_ptr<Dataset> dataset_;
  std::unique_ptr<TindIndex> index_;
  std::unique_ptr<serve::TindServer> server_;
  serve::TindServer::Counters counters_before_;
  serve::TindServer::Counters counters_after_;

  /// The seeded delta chain: delta k applies to the dataset after k-1.
  std::vector<tind::RevisionDelta> deltas_;
  size_t final_num_attributes_ = 0;
  std::vector<double> apply_dataset_ms_;

  /// The run's fixed request log: round r's base phase asks the r-th slice
  /// of `base_slice_` requests, every ladder rung the slice after them.
  std::vector<Request> log_;
  size_t base_slice_ = 0;
  std::vector<Request> base_schedule_;  ///< Round 0's base phase.
  std::vector<uint8_t> tracked_;
  std::vector<AttributeId> oracle_forward_;
  std::vector<AttributeId> oracle_reverse_;

  // Results of the timed phases.
  int discover_passes_run_ = 0;
  std::vector<double> discover_qps_;
  std::vector<double> discover_ms_traced_;
  std::vector<double> discover_ms_untraced_;
  std::vector<double> discover_cpu_util_;
  std::vector<tind::TindPair> discovered_;
  std::vector<PhaseResult> base_phases_;
  std::vector<PhaseResult> rung_phases_;
  std::vector<double> knees_;  ///< One per climb.
  size_t ladder_offered_ = 0;
  size_t ladder_failed_ = 0;
  struct {
    std::vector<double> latency_ms;  ///< Ack minus due time, per delta.
    std::vector<serve::ApplyDeltaResponse> acks;
    size_t failures = 0;
  } ingest_;
  double peak_rss_mb_ = 0;
  double queue_depth_max_ = 0;
  std::map<std::pair<AttributeId, bool>, std::vector<AttributeId>>
      final_answers_;

  // Per-layer inputs gathered along the way.
  std::map<std::string, double> discover_counters_;
  double unloaded_rtt_ms_ = 0;
  double closed_search_ms_ = 0;
  double serve_overhead_ms_ = 0;
  double snapshot_mb_ = 0;
};

int Workload::Run() {
  tind::obs::MetricsRegistry::Global().set_enabled(args_.trace);
  if (!PrepareInputs() || !Setup()) return 2;
  // One untimed pass first: it faults in the index pages (the snapshot is
  // mapped, not read) before any timed phase.
  tind::DiscoverAllTinds(*index_, Params(), &pool_);
  if (args_.trace) BuildLayers();
  ChooseSamples();
  ResetPeakRss();
  if (server_ == nullptr && !StartServer()) return 2;
  if (args_.trace) ProbeServer();
  counters_before_ = server_->counters();

  for (int round = 0; round < config_.rounds; ++round) {
    Discover(config_.discover_passes);
    base_phases_.push_back(ServePhase(config_.base_rate,
                                      config_.base_s * scale_,
                                      round * base_slice_, 100 * round + 1));
    TallyPhase(base_phases_.back());
    const std::vector<double> latency = Latencies(base_phases_.back(), false);
    std::printf("round %d base: p50 %.3f ms, p99 %.3f ms over %zu\n", round,
                Percentile(latency, 50), Percentile(latency, 99),
                latency.size());
    if (round % config_.climb_every == 0) {
      knees_.push_back(Climb(base_phases_.back()));
    }
  }
  // The delta chain is made only now, untimed and outside the peak RSS, so
  // the read phases run on a heap that does not depend on --seed.
  peak_rss_mb_ = PeakRssMb();
  if (!MakeDeltas()) return 2;
  ResetPeakRss();
  Ingest();
  peak_rss_mb_ = std::max(peak_rss_mb_, PeakRssMb());
  counters_after_ = server_->counters();
  report_.Attempted(deltas_.size());
  report_.Failed(ingest_.failures);
  FinalEpochQueries();
  server_->Shutdown();
  server_.reset();
  CheckAnswers();
  EmitEndToEnd();
  if (args_.trace) TracedLayers();

  std::printf("workload %s seed %llu: %llu attempted, %llu failed, %s\n",
              args_.workload.c_str(),
              static_cast<unsigned long long>(args_.seed),
              static_cast<unsigned long long>(report_.attempted()),
              static_cast<unsigned long long>(report_.failed()),
              report_.correct() ? "all checked answers correct"
                                : "WRONG ANSWERS");
  report_.PrintTable();
  std::printf("%s\n", report_.ToJsonLine().c_str());
  std::fflush(stdout);
  return report_.correct() ? 0 : 1;
}

bool Workload::PrepareInputs() {
  // The corpus (and the snapshot built from it) depend only on the workload
  // and the program, so one copy per build serves every run and seed.
  const std::string stem = args_.cache_dir + "/" +
                           std::to_string(config_.target_attributes) + "-" +
                           std::to_string(config_.days);
  corpus_path_ = stem + ".tds";
  snapshot_path_ = stem + ".tsnap";
  struct stat st {};
  const bool have_corpus = ::stat(corpus_path_.c_str(), &st) == 0;
  const bool have_snapshot =
      !config_.snapshot_setup || ::stat(snapshot_path_.c_str(), &st) == 0;
  if (!have_corpus || !have_snapshot) {
    // The Section 5.1 mix of genuine families, noise, drifters and
    // registries, at the workload's scale.
    tind::scenario::ScenarioSpec spec;
    spec.name = args_.workload;
    spec.seed = kWorkloadSeed;
    spec.corpus.attributes = config_.target_attributes;
    spec.corpus.days = config_.days;
    auto generated = tind::scenario::MaterializeCorpus(spec);
    if (!generated.ok()) {
      std::cerr << "corpus generation failed: "
                << generated.status().ToString() << "\n";
      return false;
    }
    const Dataset& dataset = generated->dataset;
    tind::Status status =
        tind::wiki::WriteDatasetFile(dataset, nullptr, corpus_path_);
    if (status.ok() && config_.snapshot_setup) {
      // The snapshot is written untimed; only loading it is set-up.
      const tind::ConstantWeight weight(dataset.domain().num_timestamps());
      tind::TindIndexOptions options = IndexOptions();
      options.weight = &weight;
      auto index = TindIndex::Build(dataset, options);
      status = index.ok() ? (*index)->SaveSnapshot(snapshot_path_)
                          : index.status();
    }
    if (!status.ok()) {
      std::cerr << "writing the inputs failed: " << status.ToString() << "\n";
      return false;
    }
  }
  if (config_.snapshot_setup && ::stat(snapshot_path_.c_str(), &st) == 0) {
    snapshot_mb_ = static_cast<double>(st.st_size) / kMiB;
  }
  return true;
}

bool Workload::MakeDeltas() {
  // The delta chain (each delta touches at most 1% of the attributes),
  // generated from --seed and applied to datasets untimed.
  tind::scenario::MutationSpec spec;
  spec.num_ops = 24;
  spec.max_attributes_touched = std::max<size_t>(1, num_attributes_ / 100);
  std::shared_ptr<const Dataset> mutated;
  for (size_t k = 0; k < config_.deltas; ++k) {
    const Dataset& base = mutated ? *mutated : *dataset_;
    tind::RevisionDelta delta =
        tind::scenario::MutateCorpus(base, args_.seed * 1000003 + k, spec);
    const Clock::time_point t0 = Clock::now();
    auto applied = tind::ApplyDeltaToDataset(base, delta);
    apply_dataset_ms_.push_back(MillisBetween(t0, Clock::now()));
    if (!applied.ok()) {
      std::cerr << "delta " << k << " does not apply: "
                << applied.status().ToString() << "\n";
      return false;
    }
    mutated = applied->dataset;
    deltas_.push_back(std::move(delta));
  }
  final_num_attributes_ = mutated ? mutated->size() : num_attributes_;
  return true;
}

void Workload::ChooseSamples() {
  num_attributes_ = dataset_->size();
  Mix mix;
  mix.traffic = tind::scenario::FindBuiltinScenario(kTrafficScenario)->traffic;
  mix.stream_fraction = kStreamFraction;
  mix.allow_degraded = true;
  // Slices with room for the Poisson spread of a phase's arrival count.
  const auto slice = [](double expected) {
    return static_cast<size_t>(expected * 1.25) + 16;
  };
  base_slice_ = slice(config_.base_rate * config_.base_s * scale_);
  log_ = MakeRequestLog(mix, num_attributes_,
                        config_.rounds * base_slice_ +
                            slice(config_.ladder.back() * config_.rung_s * scale_),
                        kWorkloadSeed);
  base_schedule_ = MakeSchedule(log_, 0, config_.base_rate,
                                config_.base_s * scale_, args_.seed * 31 + 1);
  // The brute-force sample per direction: the two attributes the base
  // phases ask about most (their answers recur in every phase), then seeded
  // picks among all attributes, so a seed also checks the cold tail.
  std::map<AttributeId, size_t> counts[2];
  for (size_t i = 0; i < config_.rounds * base_slice_; ++i) {
    ++counts[IsReverse(log_[i].op)][log_[i].attribute];
  }
  tind::Rng rng(args_.seed * 17 + 11);
  for (const bool reverse : {false, true}) {
    std::vector<std::pair<size_t, AttributeId>> ranked;
    for (const auto& [a, n] : counts[reverse]) ranked.emplace_back(n, a);
    std::sort(ranked.begin(), ranked.end(), [](const auto& x, const auto& y) {
      return x.first != y.first ? x.first > y.first : x.second < y.second;
    });
    std::vector<AttributeId>& out = reverse ? oracle_reverse_ : oracle_forward_;
    for (size_t i = 0; i < ranked.size() && i < 2; ++i) {
      out.push_back(ranked[i].second);
    }
    const size_t want = out.size() + config_.oracle_seeded;
    while (out.size() < want && out.size() < num_attributes_) {
      const auto a = static_cast<AttributeId>(rng.Uniform(num_attributes_));
      if (std::find(out.begin(), out.end(), a) == out.end()) out.push_back(a);
    }
  }
  tracked_.assign(num_attributes_, 0);
  for (const AttributeId a : oracle_forward_) tracked_[a] |= 1;
  for (const AttributeId a : oracle_reverse_) tracked_[a] |= 2;
}

bool Workload::Setup() {
  // Per-layer build figures count only the builds from here on.
  tind::obs::MetricsRegistry::Global().Reset();
  std::vector<double> setup_ms;
  for (int rep = 0; rep < config_.setup_reps; ++rep) {
    server_.reset();
    index_.reset();
    dataset_.reset();
    SpanLog::Scope setup(&spans_, "setup");
    {
      SpanLog::Scope span(&spans_, "read_corpus");
      auto loaded = tind::wiki::ReadDatasetFile(corpus_path_);
      if (!loaded.ok()) {
        std::cerr << "corpus read failed: " << loaded.status().ToString()
                  << "\n";
        return false;
      }
      dataset_ = std::make_unique<Dataset>(std::move(loaded->dataset));
    }
    if (weight_ == nullptr) {
      weight_ = std::make_unique<tind::ConstantWeight>(
          dataset_->domain().num_timestamps());
    }
    if (config_.snapshot_setup) {
      SpanLog::Scope span(&spans_, "load_snapshot");
      tind::SnapshotLoadOptions options;
      options.weight = weight_.get();
      auto index =
          TindIndex::LoadSnapshot(*dataset_, snapshot_path_, options);
      if (!index.ok()) {
        std::cerr << "snapshot load failed: " << index.status().ToString()
                  << "\n";
        return false;
      }
      index_ = std::move(*index);
      if (!StartServer()) return false;
    } else {
      SpanLog::Scope span(&spans_, "build");
      auto index = TindIndex::Build(*dataset_, IndexOptions());
      if (!index.ok()) {
        std::cerr << "build failed: " << index.status().ToString() << "\n";
        return false;
      }
      index_ = std::move(*index);
    }
    setup_ms.push_back(setup.ElapsedMs());
  }
  report_.Set("setup_s", Median(setup_ms) / 1000.0, "s");
  report_.Set("index_mb",
              static_cast<double>(index_->MemoryUsageBytes()) / kMiB, "MB");
  return true;
}

bool Workload::StartServer() {
  serve::ServerOptions options;
  options.allow_ingest = true;
  SpanLog::Scope span(&spans_, "server_start");
  server_ = std::make_unique<serve::TindServer>(*index_, Params(), options);
  const tind::Status started = server_->Start();
  if (!started.ok()) {
    std::cerr << "server start failed: " << started.ToString() << "\n";
    return false;
  }
  return true;
}

void Workload::Discover(int passes) {
  static const char* const kCounters[] = {
      "bloom/batch_rows_visited",    "bloom/batch_word_ops",
      "bloom/batch_blocks_skipped",  "bloom/batch_probe_early_deaths",
      "bloom/batch_probes",          "bloom/batch_superset_groups",
      "bloom/batch_subset_groups",   "discovery/batches"};
  auto& registry = tind::obs::MetricsRegistry::Global();
  for (int k = 0; k < passes; ++k) {
    const int pass = discover_passes_run_++;
    // The traced run alternates registry-off passes with registry-on ones
    // to measure the registry's overhead on the same job.
    const bool untraced = args_.trace && pass % 2 == 1;
    if (untraced) registry.set_enabled(false);
    if (pass == 0) {
      for (const char* name : kCounters) discover_counters_[name] = -CounterValue(name);
    }
    const double cpu0 = ProcessCpuSeconds();
    SpanLog::Scope span(&spans_, "discover");
    tind::AllPairsResult result =
        tind::DiscoverAllTinds(*index_, Params(), &pool_);
    const double ms = span.ElapsedMs();
    const double cpu = ProcessCpuSeconds() - cpu0;
    if (untraced) registry.set_enabled(true);
    if (pass == 0) {
      for (const char* name : kCounters) discover_counters_[name] += CounterValue(name);
    }
    std::printf("discovery pass %d: %.1f ms, %zu queries\n", pass, ms,
                result.num_queries);
    (untraced ? discover_ms_untraced_ : discover_ms_traced_).push_back(ms);
    discover_qps_.push_back(static_cast<double>(result.num_queries) /
                            (ms / 1000.0));
    discover_cpu_util_.push_back(
        cpu / (ms / 1000.0 * static_cast<double>(pool_.num_threads())));
    report_.Attempted(result.num_queries);
    if (pass == 0) {
      discovered_ = std::move(result.pairs);
    } else if (result.pairs != discovered_) {
      report_.WrongAnswer("discovery pass " + std::to_string(pass) +
                          " differs from pass 0");
    }
  }
}

serve::ClientOptions Workload::ClientFor(uint32_t timeout_ms) const {
  // One attempt, no hedging: the call's time is the request's round trip.
  serve::ClientOptions options;
  options.port = server_->port();
  options.response_timeout_ms = timeout_ms;
  options.deadline_ms = timeout_ms;
  options.max_attempts = 1;
  options.epsilon = Params().epsilon;
  options.delta = Params().delta;
  return options;
}

void Workload::ProbeServer() {
  serve::TindClient client(ClientFor(5000));
  std::vector<double> pings;
  for (int i = 0; i < 200; ++i) {
    const Clock::time_point t0 = Clock::now();
    if (client.Ping().ok()) pings.push_back(MillisBetween(t0, Clock::now()));
  }
  unloaded_rtt_ms_ = Median(pings);

  // Closed-loop single searches against the same query's in-index time.
  std::vector<double> rtts, overheads;
  size_t probed = 0;
  for (const Request& r : base_schedule_) {
    if (r.op != Op::kForward || probed >= 64) continue;
    ++probed;
    report_.Attempted(1);
    const Clock::time_point t0 = Clock::now();
    if (!client.Search(r.attribute).ok()) {
      report_.Failed(1);
      continue;
    }
    const double rtt = MillisBetween(t0, Clock::now());
    std::vector<double> in_index;
    for (int k = 0; k < 3; ++k) {
      const Clock::time_point t0 = Clock::now();
      index_->BatchSearch({&index_->dataset().attribute(r.attribute)}, Params());
      in_index.push_back(MillisBetween(t0, Clock::now()));
    }
    rtts.push_back(rtt);
    overheads.push_back(rtt - Median(in_index));
  }
  closed_search_ms_ = Median(rtts);
  serve_overhead_ms_ = Median(overheads);
}

PhaseResult Workload::ServePhase(double rate, double duration_s,
                                 size_t log_offset, uint64_t salt) {
  std::vector<Request> schedule =
      salt == 1 ? base_schedule_
                : MakeSchedule(log_, log_offset, rate, duration_s,
                               args_.seed * 31 + salt);
  OpenLoopOptions options;
  options.port = server_->port();
  options.connections = kLoadConnections;
  options.num_attributes = num_attributes_;
  options.tracked = &tracked_;
  if (args_.trace) {
    auto* depth =
        tind::obs::MetricsRegistry::Global().GetGauge("serve/queue_depth");
    options.poll = [this, depth] {
      queue_depth_max_ = std::max(queue_depth_max_, depth->value());
    };
  }
  return RunOpenLoop(options, std::move(schedule), duration_s);
}

double Workload::Climb(const PhaseResult& base) {
  // The round's base phase is the first rung; the ladder climbs from there
  // until a rung fails. A failed rung is measured once more before it
  // counts, so one transient stall of the machine does not end the climb.
  const auto rung = [&](double rate) {
    rung_phases_.push_back(
        ServePhase(rate, config_.rung_s * scale_,
                   config_.rounds * base_slice_, 100 * base_phases_.size() + 10));
    ladder_offered_ += rung_phases_.back().requests.size();
    for (const Response& r : rung_phases_.back().responses) {
      ladder_failed_ += IsFailure(r.outcome) ? 1 : 0;
    }
    const RungStats stats = EvaluateRung({&rung_phases_.back()}, rate);
    std::printf("rung %.0f req/s: p99 %.3f ms, failed %.4f, backlog %.3f ms\n",
                rate, stats.p99_ms, stats.failed_frac, stats.backlog_ms);
    return stats;
  };
  std::vector<RungStats> rungs = {EvaluateRung({&base}, config_.base_rate)};
  // The ladder drives the server into overload on purpose: its refusals and
  // deadline misses are the measurement, reported apart from the run's
  // failures. Its answers are still checked.
  for (size_t i = 0; i <= config_.ladder.size(); ++i) {
    if (!rungs.back().Passes()) {
      rungs.back() = rung(rungs.back().rate);
      if (!rungs.back().Passes()) break;
    }
    if (i < config_.ladder.size()) rungs.push_back(rung(config_.ladder[i]));
  }
  for (size_t i = 0; i < rungs.size(); ++i) {
    if (!rungs[i].Passes()) {
      return i == 0 ? 0 : KneeBetween(rungs[i - 1], rungs[i]);
    }
  }
  return rungs.back().rate;
}

void Workload::FinalEpochQueries() {
  // The brute-force sample plus seeded attributes of the final epoch, added
  // attributes included, each asked once in each direction.
  std::vector<AttributeId> picks = oracle_forward_;
  picks.insert(picks.end(), oracle_reverse_.begin(), oracle_reverse_.end());
  tind::Rng rng(args_.seed * 7 + 3);
  for (size_t i = 0; i < config_.final_checks; ++i) {
    picks.push_back(static_cast<AttributeId>(rng.Uniform(final_num_attributes_)));
  }
  serve::TindClient client(ClientFor(5000));
  for (const AttributeId a : picks) {
    for (const bool reverse : {false, true}) {
      if (final_answers_.count({a, reverse}) > 0) continue;
      report_.Attempted(1);
      auto reply = reverse ? client.ReverseSearch(a) : client.Search(a);
      if (!reply.ok()) {
        report_.Failed(1);
        continue;
      }
      final_answers_[{a, reverse}] = std::move(reply->ids);
    }
  }
}

void Workload::Ingest() {
  // One connection, delta k due at k / delta_rate and sent after the
  // previous ack; each latency runs from the due time to the ack.
  serve::TindClient client(ClientFor(30000));
  const Clock::time_point start = Clock::now();
  for (size_t k = 0; k < deltas_.size(); ++k) {
    const Clock::time_point due =
        start + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(k / config_.delta_rate));
    std::this_thread::sleep_until(due);
    auto ack = client.ApplyDelta(deltas_[k]);
    if (!ack.ok()) {
      // Later deltas apply to the epoch this one would have made.
      ingest_.failures += deltas_.size() - k;
      break;
    }
    ingest_.latency_ms.push_back(MillisBetween(due, Clock::now()));
    ingest_.acks.push_back(*ack);
  }
}

void Workload::TallyPhase(const PhaseResult& phase) {
  report_.Attempted(phase.requests.size());
  for (const Response& r : phase.responses) {
    if (IsFailure(r.outcome)) report_.Failed(1);
  }
}

void Workload::CheckPhase(const PhaseResult& phase, const Oracle& oracle) {
  std::unordered_map<uint64_t, uint64_t> seen;  // (attr, dir) -> ids hash
  for (size_t i = 0; i < phase.requests.size(); ++i) {
    const Request& q = phase.requests[i];
    const Response& r = phase.responses[i];
    if (r.outcome == Outcome::kMalformed) {
      report_.WrongAnswer("malformed answer for attribute " +
                          std::to_string(q.attribute));
      continue;
    }
    if (IsFailure(r.outcome)) continue;
    const bool reverse = IsReverse(q.op);
    const std::string what = std::string(reverse ? "reverse" : "forward") +
                             (IsStream(q.op) ? " stream" : "") +
                             " attribute " + std::to_string(q.attribute);
    if (const auto* expected = oracle.Find(q.attribute, reverse)) {
      if (r.outcome == Outcome::kExact && r.ids != *expected) {
        report_.WrongAnswer(what + ": exact answer differs from the oracle");
      }
      if (r.outcome == Outcome::kDegraded &&
          !IsSortedSubset(*expected, r.ids)) {
        report_.WrongAnswer(what + ": degraded answer is not a superset");
      }
      if (r.has_partial && !IsSortedSubset(*expected, r.partial)) {
        report_.WrongAnswer(what + ": partial frame is not a superset");
      }
    }
    if (r.outcome == Outcome::kExact) {
      const uint64_t key = (static_cast<uint64_t>(q.attribute) << 1) | reverse;
      const auto [it, inserted] = seen.emplace(key, r.ids_hash);
      if (!inserted && it->second != r.ids_hash) {
        report_.WrongAnswer(what + ": two exact answers in one epoch differ");
      }
    }
  }
}

void Workload::PlantWrongAnswer() {
  // Smoke-test hook: corrupt one served answer that the gate checks (the
  // final epoch's answer for a sampled attribute) by adding the query
  // attribute itself, which is never in its own answer.
  const AttributeId a = oracle_forward_.front();
  std::vector<AttributeId>& ids = final_answers_[{a, false}];
  ids.insert(std::lower_bound(ids.begin(), ids.end(), a), a);
}

void Workload::CheckAnswers() {
  const tind::TindParams params = Params();
  // Epoch 0: discovery pairs and every served read (the deltas come after).
  const Oracle epoch0 = ComputeOracle(*dataset_, oracle_forward_,
                                      oracle_reverse_, params, &pool_);
  for (const auto& [lhs, expected] : epoch0.forward) {
    std::vector<AttributeId> got;
    for (const tind::TindPair& p : discovered_) {
      if (p.lhs == lhs) got.push_back(p.rhs);
    }
    if (got != expected) {
      report_.WrongAnswer("discovery pairs of attribute " +
                          std::to_string(lhs) + " differ from the oracle");
    }
  }

  // The final epoch, rebuilt here rather than kept from MakeDeltas() so the
  // timed phases carry no extra dataset copy.
  std::shared_ptr<const Dataset> mutated;
  for (const tind::RevisionDelta& delta : deltas_) {
    auto applied =
        tind::ApplyDeltaToDataset(mutated ? *mutated : *dataset_, delta);
    if (!applied.ok()) {
      report_.WrongAnswer("the delta chain no longer applies");
      return;
    }
    mutated = applied->dataset;
  }
  const Dataset& final_dataset = mutated ? *mutated : *dataset_;
  const Oracle final_oracle = ComputeOracle(final_dataset, oracle_forward_,
                                            oracle_reverse_, params, &pool_);

  if (args_.plant_wrong_answer) PlantWrongAnswer();
  for (auto* phases : {&base_phases_, &rung_phases_}) {
    for (const PhaseResult& phase : *phases) CheckPhase(phase, epoch0);
  }

  // The final epoch's served answers against a fresh Build of the mutated
  // dataset, and the sample against brute force.
  if (ingest_.acks.size() != deltas_.size()) return;  // Counted failed.
  auto fresh = TindIndex::Build(final_dataset, IndexOptions());
  if (!fresh.ok()) {
    report_.WrongAnswer("fresh build of the final dataset failed");
    return;
  }
  for (const auto& [key, served] : final_answers_) {
    const auto [a, reverse] = key;
    const auto* query = &final_dataset.attribute(a);
    const auto expected = reverse
                              ? (*fresh)->BatchReverseSearch({query}, params)
                              : (*fresh)->BatchSearch({query}, params);
    const std::string what = std::string(reverse ? "reverse" : "forward") +
                             " attribute " + std::to_string(a);
    if (served != expected[0]) {
      report_.WrongAnswer("final epoch " + what + " differs from a fresh build");
    }
    if (const auto* naive = final_oracle.Find(a, reverse);
        naive != nullptr && served != *naive) {
      report_.WrongAnswer("final epoch " + what + " differs from the oracle");
    }
  }
}

void Workload::EmitEndToEnd() {
  report_.Set("discover_qps", Median(discover_qps_), "queries/s");
  report_.Set("latency_p50_ms", MedianOfRounds(base_phases_, 50, false), "ms");
  report_.Set("latency_p99_ms", PooledPercentile(base_phases_, 99, false), "ms");
  report_.Set("ttfr_p50_ms", MedianOfRounds(base_phases_, 50, true), "ms");
  report_.Set("ttfr_p99_ms", PooledPercentile(base_phases_, 99, true), "ms");
  report_.Set("knee_qps", Median(knees_), "req/s");
  report_.Set("ingest_p50_ms", Percentile(ingest_.latency_ms, 50), "ms");
  report_.Set("ingest_p90_ms", Percentile(ingest_.latency_ms, 90), "ms");
  report_.Set("peak_rss_mb", peak_rss_mb_, "MB");

  // Load-generator health and the failure share (per-layer metrics).
  std::vector<double> late;
  size_t offered = 0, samples = 0;
  for (auto* phases : {&base_phases_, &rung_phases_}) {
    for (const PhaseResult& phase : *phases) {
      offered += phase.requests.size();
      samples += Latencies(phase, false).size();
    }
  }
  for (const PhaseResult& phase : base_phases_) {
    for (const Response& r : phase.responses) late.push_back(r.send_late_ms);
  }
  report_.Set("load.send_late_p99_ms", Percentile(late, 99), "ms");
  report_.Set("load.offered", static_cast<double>(offered), "count");
  report_.Set("load.samples", static_cast<double>(samples), "count");
  report_.Set("load.ladder_offered", static_cast<double>(ladder_offered_),
              "count");
  report_.Set("load.ladder_failed", static_cast<double>(ladder_failed_),
              "count");
  report_.Set("load.failed_frac",
              static_cast<double>(report_.failed()) /
                  static_cast<double>(std::max<uint64_t>(1, report_.attempted())),
              "ratio");
}

void Workload::BuildLayers() {
  // Read right after set-up, before the final-epoch check builds again.
  auto& registry = tind::obs::MetricsRegistry::Global();
  const auto span_mean_s = [&](const char* name) {
    const tind::obs::Histogram* h = registry.GetHistogram(name);
    return h->count() == 0 ? 0.0 : h->sum() / h->count() / 1000.0;
  };
  if (config_.snapshot_setup) {
    // serve-mixed loads its index from a snapshot; build it once to time the
    // layer.
    SpanLog::Scope span(&spans_, "build");
    if (!TindIndex::Build(*dataset_, IndexOptions()).ok()) report_.Failed(1);
  }
  report_.Set("wiki.read_corpus_s",
              Median(spans_.DurationsMs("read_corpus")) / 1000, "s");
  // Means: the stage figures are registry means over the same builds.
  const std::vector<double> builds = spans_.DurationsMs("build");
  double build_s = 0;
  for (const double ms : builds) build_s += ms / 1000 / builds.size();
  const double m_t = span_mean_s("span/index_build/m_t");
  const double slices = span_mean_s("span/index_build/slices");
  const double m_r = span_mean_s("span/index_build/m_r");
  report_.Set("tind.build_s", build_s, "s");
  report_.Set("tind.build_m_t_s", m_t, "s");
  report_.Set("tind.build_slices_s", slices, "s");
  report_.Set("tind.build_m_r_s", m_r, "s");
  report_.Set("tind.build_self_s", build_s - m_t - slices - m_r, "s");
  report_.Set("tind.index_mb.m_t",
              registry.GetGauge("memory/index_m_t_bytes")->value() / kMiB, "MB");
  report_.Set("tind.index_mb.m_r",
              registry.GetGauge("memory/index_m_r_bytes")->value() / kMiB, "MB");
  report_.Set("tind.index_mb.slices",
              registry.GetGauge("memory/index_slices_bytes")->value() / kMiB,
              "MB");
  report_.Set("bench.setup_self_ms",
              spans_.SelfMs("setup") / config_.setup_reps, "ms");
}

void Workload::TracedLayers() {
  auto& registry = tind::obs::MetricsRegistry::Global();
  const tind::TindParams params = Params();
  if (!config_.snapshot_setup) {
    // discover-batch loads no snapshot in its set-up; the traced run
    // measures one round trip of its index so the layer is still covered.
    if (index_->SaveSnapshot(WorkPath("index.tsnap")).ok()) {
      struct stat st {};
      if (::stat(WorkPath("index.tsnap").c_str(), &st) == 0) {
        snapshot_mb_ = static_cast<double>(st.st_size) / kMiB;
      }
      tind::SnapshotLoadOptions options;
      options.weight = weight_.get();
      SpanLog::Scope span(&spans_, "load_snapshot");
      auto loaded = TindIndex::LoadSnapshot(*dataset_, WorkPath("index.tsnap"), options);
      if (!loaded.ok()) report_.Failed(1);
    }
    std::remove(WorkPath("index.tsnap").c_str());
  }
  report_.Set("snapshot.load_s",
              Median(spans_.DurationsMs("load_snapshot")) / 1000, "s");
  report_.Set("snapshot.mb", snapshot_mb_, "MB");

  // bloom kernels over the first (traced) discovery pass.
  const auto& d = discover_counters_;
  const double queries = static_cast<double>(num_attributes_);
  const double blocks_per_call =
      std::ceil(std::ceil(static_cast<double>(num_attributes_) / 64) / 16);
  const double calls =
      d.at("bloom/batch_superset_groups") + d.at("bloom/batch_subset_groups");
  report_.Set("bloom.rows_visited_per_query",
              d.at("bloom/batch_rows_visited") / queries, "rows");
  report_.Set("bloom.word_ops_per_query", d.at("bloom/batch_word_ops") / queries,
              "words");
  report_.Set("bloom.bytes_moved_per_query",
              d.at("bloom/batch_word_ops") * 8 / queries, "bytes");
  report_.Set("bloom.blocks_skipped_frac",
              d.at("bloom/batch_blocks_skipped") /
                  std::max(1.0, calls * blocks_per_call),
              "ratio");
  report_.Set("bloom.probe_early_death_frac",
              d.at("bloom/batch_probe_early_deaths") /
                  std::max(1.0, d.at("bloom/batch_probes") * blocks_per_call),
              "ratio");
  report_.Set("tind.discover_batches", d.at("discovery/batches"), "count");
  report_.Set("common.pool_cpu_util", Median(discover_cpu_util_), "ratio");
  report_.Set("trace.overhead_discover_frac",
              discover_ms_untraced_.empty()
                  ? 0
                  : Median(discover_ms_traced_) / Median(discover_ms_untraced_) - 1,
              "ratio");

  // The tind funnel over the workload's query sample, one query at a time
  // (the per-query path times each stage; its counts equal the batch
  // path's) so the counts repeat exactly for a seed.
  std::vector<const tind::AttributeHistory*> fwd, rev, streamed;
  const Dataset& ds = index_->dataset();
  for (const Request& r : base_schedule_) {
    (IsReverse(r.op) ? rev : fwd).push_back(&ds.attribute(r.attribute));
    if (IsStream(r.op)) streamed.push_back(&ds.attribute(r.attribute));
  }
  if (!config_.snapshot_setup) {
    // discover-batch: the funnel of the discovery job itself, on a seeded
    // sample of forward queries.
    fwd.clear();
    rev.clear();
    tind::Rng rng(args_.seed * 13 + 5);
    for (int i = 0; i < 4096; ++i) {
      fwd.push_back(&ds.attribute(static_cast<AttributeId>(rng.Uniform(ds.size()))));
    }
  }
  std::vector<tind::QueryStats> stats(fwd.size() + rev.size());
  for (size_t i = 0; i < fwd.size(); ++i) {
    index_->Search(*fwd[i], params, &stats[i]);
  }
  for (size_t i = 0; i < rev.size(); ++i) {
    index_->ReverseSearch(*rev[i], params, &stats[fwd.size() + i]);
  }
  tind::QueryStats sum;
  for (const tind::QueryStats& s : stats) {
    sum.initial_candidates += s.initial_candidates;
    sum.after_slices += s.after_slices;
    sum.after_exact_check += s.after_exact_check;
    sum.validations += s.validations;
    sum.num_results += s.num_results;
    sum.probe_ms += s.probe_ms;
    sum.slices_ms += s.slices_ms;
    sum.recheck_ms += s.recheck_ms;
    sum.validate_ms += s.validate_ms;
  }
  report_.Set("tind.probe_ms", sum.probe_ms, "ms");
  report_.Set("tind.slices_ms", sum.slices_ms, "ms");
  report_.Set("tind.recheck_ms", sum.recheck_ms, "ms");
  report_.Set("tind.validate_ms", sum.validate_ms, "ms");
  report_.Set("tind.candidates_probe", sum.initial_candidates, "count");
  report_.Set("tind.candidates_slices", sum.after_slices, "count");
  report_.Set("tind.candidates_recheck", sum.after_exact_check, "count");
  report_.Set("tind.validations", sum.validations, "count");
  report_.Set("tind.results", sum.num_results, "count");
  report_.Set("tind.slice_prune_frac",
              sum.initial_candidates == 0
                  ? 0
                  : 1 - static_cast<double>(sum.after_slices) /
                            static_cast<double>(sum.initial_candidates),
              "ratio");
  report_.Set("tind.validation_yield",
              sum.validations == 0 ? 0
                                   : static_cast<double>(sum.num_results) /
                                         static_cast<double>(sum.validations),
              "ratio");

  // Stage 1 of the streamed requests' attributes through SearchCursor in
  // both directions, with the server's planner deciding the rest of each
  // funnel.
  tind::CostModelPlanner planner(*index_);
  size_t skipped = 0, planned = 0;
  const auto cursor_stage1 = [&](const auto& queries, bool reverse) {
    std::vector<double> ms;
    for (const tind::AttributeHistory* q : queries) {
      tind::SearchCursor::Options options;
      options.reverse = reverse;
      options.planner = &planner;
      tind::SearchCursor cursor(*index_, *q, params, options);
      const Clock::time_point t0 = Clock::now();
      cursor.Step();
      ms.push_back(MillisBetween(t0, Clock::now()));
      cursor.RunToCompletion();
      planner.Observe(cursor.stats());
      ++planned;
      if (cursor.stats().plan_skipped_slices || cursor.stats().plan_skipped_recheck) {
        ++skipped;
      }
    }
    return Median(ms);
  };
  report_.Set("tind.cursor_stage1_ms.fwd", cursor_stage1(streamed, false), "ms");
  report_.Set("tind.cursor_stage1_ms.rev", cursor_stage1(streamed, true), "ms");
  report_.Set("tind.planner_skip_frac",
              planned == 0 ? 0
                           : static_cast<double>(skipped) /
                                 static_cast<double>(planned),
              "ratio");

  // serve: codecs on the run's real payloads, closed-loop probes, registry.
  std::vector<std::string> payloads;
  for (auto* phases : {&base_phases_, &rung_phases_}) {
    for (const PhaseResult& phase : *phases) {
      payloads.insert(payloads.end(), phase.payload_samples.begin(),
                      phase.payload_samples.end());
    }
  }
  std::vector<serve::SearchResponse> decoded;
  const Clock::time_point t0 = Clock::now();
  for (int rep = 0; rep < 20; ++rep) {
    for (const std::string& p : payloads) {
      auto r = serve::DecodeSearchResponse(p);
      if (rep == 0 && r.ok()) decoded.push_back(std::move(*r));
    }
  }
  const double decode_us = MillisBetween(t0, Clock::now()) * 1000 /
                           std::max<double>(1, 20.0 * payloads.size());
  const Clock::time_point t1 = Clock::now();
  size_t bytes = 0;
  for (int rep = 0; rep < 20; ++rep) {
    for (const serve::SearchResponse& r : decoded) {
      bytes += serve::EncodeSearchResponse(r).size();
    }
  }
  const double encode_us = MillisBetween(t1, Clock::now()) * 1000 /
                           std::max<double>(1, 20.0 * decoded.size());
  if (bytes == 0 && !decoded.empty()) report_.Failed(1);
  report_.Set("serve.decode_us", decode_us, "us");
  report_.Set("serve.encode_us", encode_us, "us");
  report_.Set("serve.unloaded_rtt_ms", unloaded_rtt_ms_, "ms");
  report_.Set("serve.overhead_ms", serve_overhead_ms_, "ms");
  report_.Set("serve.wait_ms",
              report_.Get("latency_p50_ms") - closed_search_ms_, "ms");
  const tind::obs::Histogram* batch = registry.GetHistogram("serve/batch_size");
  report_.Set("serve.batch_size_mean", batch->Mean(), "requests");
  report_.Set("serve.batch_size_p99", batch->Percentile(99), "requests");
  report_.Set("serve.queue_depth_max", queue_depth_max_, "requests");
  const auto& a = counters_after_;
  const auto& b = counters_before_;
  report_.Set("serve.accepted", static_cast<double>(a.accepted - b.accepted), "count");
  report_.Set("serve.completed", static_cast<double>(a.completed - b.completed),
              "count");
  report_.Set("serve.shed", static_cast<double>(a.shed - b.shed), "count");
  report_.Set("serve.degraded", static_cast<double>(a.degraded - b.degraded), "count");
  report_.Set("serve.deadline_exceeded",
              static_cast<double>(a.deadline_exceeded - b.deadline_exceeded), "count");
  report_.Set("serve.protocol_errors",
              static_cast<double>(a.protocol_errors - b.protocol_errors), "count");

  // update: the acked UpdateStats, and the first delta applied in-process
  // (dataset copy, then the index patch as the rest of ApplyDelta).
  double columns_reset = 0, patched = 0, rebuilt = 0;
  for (const serve::ApplyDeltaResponse& ack : ingest_.acks) {
    columns_reset += ack.columns_reset;
    patched += ack.slices_patched;
    rebuilt += ack.slices_rebuilt;
  }
  report_.Set("tind.columns_reset", columns_reset, "count");
  report_.Set("tind.slices_patched", patched, "count");
  report_.Set("tind.slices_rebuilt", rebuilt, "count");
  std::vector<double> apply_ms;
  for (int rep = 0; rep < 3 && !deltas_.empty(); ++rep) {
    const Clock::time_point t = Clock::now();
    auto updated = tind::IndexUpdater::ApplyDelta(*index_, deltas_[0]);
    apply_ms.push_back(MillisBetween(t, Clock::now()));
    if (!updated.ok()) report_.Failed(1);
  }
  const double apply_dataset = Median(apply_dataset_ms_);
  report_.Set("tind.apply_dataset_ms", apply_dataset, "ms");
  report_.Set("tind.apply_index_ms", Median(apply_ms) - apply_dataset, "ms");
  report_.Set("serve.epoch_swap_ms",
              Percentile(ingest_.latency_ms, 50) - Median(apply_ms), "ms");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const tind::Flags flags = tind::Flags::Parse(argc, argv);
  perfbench::Args args;
  args.workload = flags.GetString("workload", "");
  args.seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  args.seconds = flags.GetDouble("seconds", 10);
  args.trace = flags.GetInt("trace", 0) != 0;
  args.smoke = flags.GetString("scale", "full") == "smoke";
  args.plant_wrong_answer = flags.GetInt("plant_wrong_answer", 0) != 0;
  args.work_dir = flags.GetString("work_dir", "");
  args.cache_dir = flags.GetString("cache_dir", args.work_dir);
  const auto config = perfbench::ConfigFor(args.workload, args.smoke);
  if (!config || args.work_dir.empty() || args.seconds <= 0) {
    std::cerr << "usage: tind_perfbench --workload=discover-batch|serve-mixed "
                 "--seed=N --seconds=S --trace=0|1 "
                 "--work_dir=DIR [--scale=full|smoke]\n";
    return 2;
  }
  perfbench::Workload workload(args, *config);
  return workload.Run();
}
