#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <mutex>

namespace tind::obs {

namespace {

/// Portable atomic double accumulate (std::atomic<double>::fetch_add is
/// C++20 but not universally lowered well; a CAS loop is dependable).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMin(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value < current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (value > current && !target->compare_exchange_weak(
                                current, value, std::memory_order_relaxed)) {
  }
}

}  // namespace

void Gauge::Add(double delta) { AtomicAdd(&value_, delta); }

void Gauge::UpdateMax(double v) { AtomicMax(&value_, v); }

const std::vector<double>& DefaultLatencyBoundsMs() {
  // 1 µs … 1 min, alternating ×5/×2 for two buckets per decade.
  static const std::vector<double> kBounds = {
      0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1,     5,
      10,    50,    100,  500,  1e3, 5e3, 1e4, 6e4};
  return kBounds;
}

std::vector<double> ExponentialBuckets(double start, double factor,
                                       size_t count) {
  std::vector<double> bounds;
  bounds.reserve(count);
  double bound = start;
  for (size_t i = 0; i < count; ++i) {
    bounds.push_back(bound);
    bound *= factor;
  }
  return bounds;
}

Histogram::Histogram(std::string name, std::vector<double> bounds)
    : name_(std::move(name)), bounds_(std::move(bounds)) {
  if (bounds_.empty()) bounds_ = DefaultLatencyBoundsMs();
  // Bucket search assumes ascending bounds.
  std::sort(bounds_.begin(), bounds_.end());
  buckets_ = std::make_unique<std::atomic<uint64_t>[]>(bounds_.size() + 1);
  for (size_t i = 0; i <= bounds_.size(); ++i) buckets_[i].store(0);
}

void Histogram::Observe(double value) {
  // Bounds are upper-inclusive ("le" semantics): bucket i counts values in
  // (bounds[i-1], bounds[i]].
  const size_t bucket = static_cast<size_t>(
      std::lower_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
  const uint64_t prior = count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  if (prior == 0) {
    // First observation seeds min/max; racing observers fix it up below.
    double expected = 0;
    min_.compare_exchange_strong(expected, value, std::memory_order_relaxed);
    expected = 0;
    max_.compare_exchange_strong(expected, value, std::memory_order_relaxed);
  }
  AtomicMin(&min_, value);
  AtomicMax(&max_, value);
}

double Histogram::min() const {
  return count() == 0 ? 0 : min_.load(std::memory_order_relaxed);
}

double Histogram::max() const {
  return count() == 0 ? 0 : max_.load(std::memory_order_relaxed);
}

double Histogram::Mean() const {
  const uint64_t n = count();
  return n == 0 ? 0 : sum() / static_cast<double>(n);
}

std::vector<uint64_t> Histogram::BucketCounts() const {
  std::vector<uint64_t> counts(bounds_.size() + 1);
  for (size_t i = 0; i < counts.size(); ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
  }
  return counts;
}

double Histogram::Percentile(double p) const {
  const std::vector<uint64_t> counts = BucketCounts();
  uint64_t total = 0;
  for (const uint64_t c : counts) total += c;
  if (total == 0) return 0;
  const double target = p / 100.0 * static_cast<double>(total);
  uint64_t cumulative = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    const uint64_t next = cumulative + counts[i];
    if (static_cast<double>(next) >= target) {
      // Interpolate within [lower, upper); the overflow bucket has no upper
      // bound, so report the observed max.
      if (i >= bounds_.size()) return max();
      const double lower = i == 0 ? std::min(min(), bounds_[0]) : bounds_[i - 1];
      const double upper = bounds_[i];
      const double frac =
          (target - static_cast<double>(cumulative)) /
          static_cast<double>(counts[i]);
      // A bucket edge can lie outside every observed value; no percentile
      // may (one 149 ms sample is p50 = 149, not the bucket midpoint).
      return std::clamp(lower + frac * (upper - lower), min(), max());
    }
    cumulative = next;
  }
  return max();
}

void Histogram::Reset() {
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    buckets_[i].store(0, std::memory_order_relaxed);
  }
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  min_.store(0, std::memory_order_relaxed);
  max_.store(0, std::memory_order_relaxed);
}

MetricsRegistry& MetricsRegistry::Global() {
  static MetricsRegistry* registry = new MetricsRegistry();  // Never freed.
  return *registry;
}

Counter* MetricsRegistry::GetCounter(std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = counter_index_.find(name);
    if (it != counter_index_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = counter_index_.find(name);
  if (it != counter_index_.end()) return it->second;
  counters_.emplace_back(new Counter(std::string(name)));
  Counter* counter = counters_.back().get();
  counter_index_.emplace(counter->name(), counter);
  return counter;
}

Gauge* MetricsRegistry::GetGauge(std::string_view name) {
  {
    std::shared_lock lock(mutex_);
    const auto it = gauge_index_.find(name);
    if (it != gauge_index_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = gauge_index_.find(name);
  if (it != gauge_index_.end()) return it->second;
  gauges_.emplace_back(new Gauge(std::string(name)));
  Gauge* gauge = gauges_.back().get();
  gauge_index_.emplace(gauge->name(), gauge);
  return gauge;
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         const std::vector<double>& bounds) {
  {
    std::shared_lock lock(mutex_);
    const auto it = histogram_index_.find(name);
    if (it != histogram_index_.end()) return it->second;
  }
  std::unique_lock lock(mutex_);
  const auto it = histogram_index_.find(name);
  if (it != histogram_index_.end()) return it->second;
  histograms_.emplace_back(new Histogram(std::string(name), bounds));
  Histogram* histogram = histograms_.back().get();
  histogram_index_.emplace(histogram->name(), histogram);
  return histogram;
}

void MetricsRegistry::Reset() {
  std::unique_lock lock(mutex_);
  for (const auto& c : counters_) c->Reset();
  for (const auto& g : gauges_) g->Reset();
  for (const auto& h : histograms_) h->Reset();
}

JsonValue MetricsRegistry::ToJson() const {
  std::shared_lock lock(mutex_);
  JsonValue root = JsonValue::Object();
  root.Set("enabled", JsonValue(enabled()));

  JsonValue counters = JsonValue::Object();
  // The name→metric maps are sorted, giving a deterministic export order.
  for (const auto& [name, counter] : counter_index_) {
    counters.Set(name, JsonValue(counter->value()));
  }
  root.Set("counters", std::move(counters));

  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gauge] : gauge_index_) {
    gauges.Set(name, JsonValue(gauge->value()));
  }
  root.Set("gauges", std::move(gauges));

  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, histogram] : histogram_index_) {
    JsonValue h = JsonValue::Object();
    h.Set("count", JsonValue(histogram->count()));
    h.Set("sum", JsonValue(histogram->sum()));
    h.Set("min", JsonValue(histogram->min()));
    h.Set("max", JsonValue(histogram->max()));
    h.Set("mean", JsonValue(histogram->Mean()));
    h.Set("p50", JsonValue(histogram->Percentile(50)));
    h.Set("p95", JsonValue(histogram->Percentile(95)));
    JsonValue bounds = JsonValue::Array();
    for (const double b : histogram->bounds()) bounds.Append(JsonValue(b));
    h.Set("bounds", std::move(bounds));
    JsonValue bucket_counts = JsonValue::Array();
    for (const uint64_t c : histogram->BucketCounts()) {
      bucket_counts.Append(JsonValue(c));
    }
    h.Set("bucket_counts", std::move(bucket_counts));
    histograms.Set(name, std::move(h));
  }
  root.Set("histograms", std::move(histograms));
  return root;
}

std::string MetricsRegistry::ToJsonString(int indent) const {
  return ToJson().Dump(indent);
}

std::string MetricsRegistry::ToCsv() const {
  std::shared_lock lock(mutex_);
  std::string out = "kind,name,field,value\n";
  char buf[64];
  const auto append = [&](const char* kind, const std::string& name,
                          const char* field, double value) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out += kind;
    out += ',';
    out += name;  // Metric names never contain commas or quotes.
    out += ',';
    out += field;
    out += ',';
    out += buf;
    out += '\n';
  };
  for (const auto& [name, counter] : counter_index_) {
    append("counter", name, "value", static_cast<double>(counter->value()));
  }
  for (const auto& [name, gauge] : gauge_index_) {
    append("gauge", name, "value", gauge->value());
  }
  for (const auto& [name, histogram] : histogram_index_) {
    append("histogram", name, "count",
           static_cast<double>(histogram->count()));
    append("histogram", name, "sum", histogram->sum());
    append("histogram", name, "min", histogram->min());
    append("histogram", name, "max", histogram->max());
    append("histogram", name, "mean", histogram->Mean());
    append("histogram", name, "p50", histogram->Percentile(50));
    append("histogram", name, "p95", histogram->Percentile(95));
  }
  return out;
}

bool MetricsRegistry::WriteJsonFile(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string json = ToJsonString();
  const bool ok = std::fwrite(json.data(), 1, json.size(), f) == json.size() &&
                  std::fputc('\n', f) != EOF;
  return std::fclose(f) == 0 && ok;
}

namespace {

/// Per-thread stack of open span paths (already joined, so pushing a child
/// is O(parent length), not a re-join of the whole chain).
thread_local std::vector<std::string> tls_span_paths;

}  // namespace

ScopedTimer::ScopedTimer(std::string_view label, MetricsRegistry* registry) {
  MetricsRegistry& reg =
      registry != nullptr ? *registry : MetricsRegistry::Global();
  if (!reg.enabled()) return;  // Inert: histogram_ stays null.
  std::string path;
  if (tls_span_paths.empty()) {
    path = std::string(label);
  } else {
    path.reserve(tls_span_paths.back().size() + 1 + label.size());
    path = tls_span_paths.back();
    path += '/';
    path += label;
  }
  histogram_ = reg.GetHistogram("span/" + path);
  tls_span_paths.push_back(std::move(path));
  start_ = std::chrono::steady_clock::now();
}

ScopedTimer::~ScopedTimer() {
  if (histogram_ == nullptr) return;
  const double elapsed_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start_)
          .count();
  histogram_->Observe(elapsed_ms);
  tls_span_paths.pop_back();
}

std::string ScopedTimer::CurrentPath() {
  return tls_span_paths.empty() ? std::string() : tls_span_paths.back();
}

}  // namespace tind::obs
