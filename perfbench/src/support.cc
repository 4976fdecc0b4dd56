#include "support.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/latency.h"
#include "tind/validator.h"

namespace perfbench {

double Percentile(std::vector<double> values, double p) {
  std::sort(values.begin(), values.end());
  return tind::obs::PercentileOfSorted(values, p);
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit) {
  if (!std::isfinite(value)) {
    std::cerr << "perfbench: metric " << name << " is not finite\n";
    value = 0;
  }
  metrics_[name] = Metric{value, unit};
}

double Report::Get(const std::string& name) const {
  const auto it = metrics_.find(name);
  return it == metrics_.end() ? 0 : it->second.value;
}

void Report::WrongAnswer(const std::string& what) {
  ++wrong_answers_;
  ++failed_;
  if (wrong_answers_ <= 10) std::cerr << "perfbench: WRONG ANSWER: " << what << "\n";
}

void Report::PrintTable() const {
  for (const auto& [name, metric] : metrics_) {
    std::printf("  %-36s %16.6f %s\n", name.c_str(), metric.value,
                metric.unit.c_str());
  }
}

std::string Report::ToJsonLine() const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct() ? "true" : "false")
     << ", \"attempted\": " << attempted_ << ", \"failed\": " << failed_
     << ", \"metrics\": {";
  bool first = true;
  char buffer[64];
  for (const auto& [name, metric] : metrics_) {
    std::snprintf(buffer, sizeof(buffer), "%.17g", metric.value);
    os << (first ? "" : ", ") << "\"" << name << "\": {\"value\": " << buffer
       << ", \"unit\": \"" << metric.unit << "\"}";
    first = false;
  }
  os << "}}";
  return os.str();
}

SpanLog::Scope::Scope(SpanLog* log, std::string name) : log_(log) {
  Span span;
  span.name = std::move(name);
  span.parent = log_->open_;
  span.start = Clock::now();
  index_ = log_->spans_.size();
  log_->spans_.push_back(std::move(span));
  log_->open_ = static_cast<int>(index_);
}

SpanLog::Scope::~Scope() {
  Span& span = log_->spans_[index_];
  span.end = Clock::now();
  span.closed = true;
  log_->open_ = span.parent;
}

double SpanLog::Scope::ElapsedMs() const {
  return MillisBetween(log_->spans_[index_].start, Clock::now());
}

std::vector<double> SpanLog::DurationsMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.closed && span.name == name) {
      out.push_back(MillisBetween(span.start, span.end));
    }
  }
  return out;
}

double SpanLog::SelfMs(const std::string& name) const {
  double total = 0;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (!span.closed || span.name != name) continue;
    total += MillisBetween(span.start, span.end);
    for (const Span& child : spans_) {
      if (child.closed && child.parent == static_cast<int>(i)) {
        total -= MillisBetween(child.start, child.end);
      }
    }
  }
  return total;
}

void ResetPeakRss() {
  // Writing 5 to clear_refs resets VmHWM to the current RSS (Linux >= 4.0).
  std::ofstream clear("/proc/self/clear_refs");
  if (clear) clear << "5";
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + tv.tv_usec * 1e-6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

std::vector<AttributeId> NaiveAnswer(const tind::Dataset& dataset,
                                     AttributeId query, bool reverse,
                                     const tind::TindParams& params,
                                     tind::ThreadPool* pool) {
  const size_t n = dataset.size();
  std::vector<uint8_t> hit(n, 0);
  const tind::AttributeHistory& q = dataset.attribute(query);
  pool->ParallelFor(0, n, [&](size_t a) {
    if (a == query) return;
    const tind::AttributeHistory& other =
        dataset.attribute(static_cast<AttributeId>(a));
    hit[a] = reverse ? tind::ValidateTindNaive(other, q, params, dataset.domain())
                     : tind::ValidateTindNaive(q, other, params, dataset.domain());
  });
  std::vector<AttributeId> out;
  for (size_t a = 0; a < n; ++a) {
    if (hit[a]) out.push_back(static_cast<AttributeId>(a));
  }
  return out;
}

bool IsSortedSubset(const std::vector<AttributeId>& subset,
                    const std::vector<AttributeId>& superset) {
  return std::includes(superset.begin(), superset.end(), subset.begin(),
                       subset.end());
}

}  // namespace perfbench
