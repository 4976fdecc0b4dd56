#ifndef TIND_PERFBENCH_SUPPORT_H_
#define TIND_PERFBENCH_SUPPORT_H_

/// \file support.h
/// Benchmark plumbing shared by the workloads: the metric report, the
/// benchmark's own spans around calls into the program, order statistics,
/// process resource probes, and the brute-force oracle.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "temporal/dataset.h"
#include "tind/params.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using tind::AttributeId;

inline double MillisBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// Percentile (p in [0, 100]) of `values` as obs::PercentileOfSorted
/// defines it, the definition every latency report of the repository uses;
/// 0 when empty.
double Percentile(std::vector<double> values, double p);
inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

/// \brief Named metrics with units plus the run's operation tally.
///
/// A wrong answer marks the run incorrect and counts as a failed operation;
/// its description goes to stderr (the first few only).
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  double Get(const std::string& name) const;

  void Attempted(uint64_t n) { attempted_ += n; }
  void Failed(uint64_t n) { failed_ += n; }
  void WrongAnswer(const std::string& what);

  bool correct() const { return wrong_answers_ == 0; }
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

  /// One "name value unit" line per metric, for people reading the log.
  void PrintTable() const;
  /// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
  std::string ToJsonLine() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t wrong_answers_ = 0;
};

/// \brief The benchmark's own spans, kept in memory on the main thread.
///
/// A span covers one call into a layer (ReadDatasetFile, Build, ...); a
/// span opened while another is open becomes its child, so a layer's self
/// time is its duration minus the time its children cover.
class SpanLog {
 public:
  class Scope {
   public:
    Scope(SpanLog* log, std::string name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    /// Milliseconds since the span opened.
    double ElapsedMs() const;

   private:
    SpanLog* log_;
    size_t index_;
  };

  /// Durations in ms of every closed span with this name, in order.
  std::vector<double> DurationsMs(const std::string& name) const;
  /// Summed self time in ms of every closed span with this name.
  double SelfMs(const std::string& name) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    Clock::time_point start;
    Clock::time_point end;
    bool closed = false;
  };
  std::vector<Span> spans_;
  int open_ = -1;
};

/// Peak resident set since the last ResetPeakRss() in MB (VmHWM); falls
/// back to the process-lifetime getrusage peak where VmHWM cannot be reset.
void ResetPeakRss();
double PeakRssMb();
/// User + system CPU seconds consumed by the process so far.
double ProcessCpuSeconds();

/// Brute-force answer for one query: every other attribute A with
/// Q ⊆ A (forward) or A ⊆ Q (reverse), checked by ValidateTindNaive at
/// every timestamp. Independent of the index; parallel over candidates.
std::vector<AttributeId> NaiveAnswer(const tind::Dataset& dataset,
                                     AttributeId query, bool reverse,
                                     const tind::TindParams& params,
                                     tind::ThreadPool* pool);

/// True iff `subset` ⊆ `superset`; both ascending.
bool IsSortedSubset(const std::vector<AttributeId>& subset,
                    const std::vector<AttributeId>& superset);

}  // namespace perfbench

#endif  // TIND_PERFBENCH_SUPPORT_H_
