#include "scenario/mutate.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"

namespace tind::scenario {
namespace {

/// Tracks the evolving corpus shape while ops are generated, so every op is
/// valid against the dataset *as mutated by the preceding ops*.
struct ShapeTracker {
  explicit ShapeTracker(const Dataset& base) : domain(base.domain()) {
    last_stamp.reserve(base.size());
    for (AttributeId id = 0; id < base.size(); ++id) {
      const AttributeHistory& h = base.attribute(id);
      last_stamp.push_back(h.change_timestamps().empty()
                               ? 0
                               : h.change_timestamps().back());
    }
  }

  size_t size() const { return last_stamp.size(); }

  TimeDomain domain;
  std::vector<Timestamp> last_stamp;
};

std::string FreshToken(uint64_t seed, size_t* counter) {
  return "ingest-v" + std::to_string(seed) + "-" +
         std::to_string((*counter)++);
}

std::vector<std::string> DrawValues(const Dataset& base,
                                    const MutationSpec& spec, uint64_t seed,
                                    Rng* rng, size_t* fresh_counter) {
  const size_t count =
      1 + static_cast<size_t>(
              rng->Uniform(std::max<size_t>(spec.max_values_per_version, 1)));
  std::vector<std::string> values;
  values.reserve(count);
  const size_t dict_size = base.dictionary().size();
  for (size_t i = 0; i < count; ++i) {
    if (dict_size == 0 || rng->Bernoulli(spec.new_value_probability)) {
      values.push_back(FreshToken(seed, fresh_counter));
    } else {
      values.push_back(base.dictionary().GetString(
          static_cast<ValueId>(rng->Uniform(dict_size))));
    }
  }
  return values;
}

}  // namespace

RevisionDelta MutateCorpus(const Dataset& base, uint64_t seed,
                           const MutationSpec& spec) {
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  RevisionDelta delta;
  delta.ops.reserve(spec.num_ops);
  ShapeTracker shape(base);
  size_t fresh_counter = 0;

  // Optional target pool: confine append/retire to a fixed sample so the
  // delta's blast radius is bounded (bench_update's ≤1%-dirty shape).
  std::vector<AttributeId> pool;
  if (spec.max_attributes_touched > 0 && shape.size() > 0) {
    const size_t k = std::min(spec.max_attributes_touched, shape.size());
    for (const size_t idx : rng.SampleWithoutReplacement(shape.size(), k)) {
      pool.push_back(static_cast<AttributeId>(idx));
    }
    std::sort(pool.begin(), pool.end());
  }
  const auto pick_target = [&]() -> AttributeId {
    if (!pool.empty()) {
      return pool[static_cast<size_t>(rng.Uniform(pool.size()))];
    }
    return static_cast<AttributeId>(rng.Uniform(shape.size()));
  };

  std::vector<double> kind_weights = {spec.append_weight, spec.add_weight,
                                      spec.retire_weight};
  if (kind_weights[0] + kind_weights[1] + kind_weights[2] <= 0) {
    kind_weights = {1.0, 0.0, 0.0};
  }

  const Timestamp domain_last = shape.domain.last();
  for (size_t i = 0; i < spec.num_ops; ++i) {
    size_t kind = rng.WeightedIndex(kind_weights);
    if (shape.size() == 0) kind = 1;  // Nothing to append to or retire yet.
    RevisionOp op;
    switch (kind) {
      case 0: {  // Append a version.
        op.kind = RevisionOp::Kind::kAppendVersion;
        op.attribute = pick_target();
        // Any t >= the target's current last change point is appendable
        // (t == back exercises the same-day-overwrite path on purpose).
        const Timestamp back = shape.last_stamp[op.attribute];
        op.timestamp = rng.UniformInt(std::min(back, domain_last),
                                      domain_last);
        op.values = DrawValues(base, spec, seed, &rng, &fresh_counter);
        shape.last_stamp[op.attribute] =
            std::max(shape.last_stamp[op.attribute], op.timestamp);
        break;
      }
      case 1: {  // Add an attribute.
        op.kind = RevisionOp::Kind::kAddAttribute;
        const size_t id = shape.size();
        op.meta.page = "ingest-page-" + std::to_string(seed);
        op.meta.table = "t" + std::to_string(id);
        op.meta.column = "c" + std::to_string(i);
        const size_t num_versions =
            1 + static_cast<size_t>(rng.Uniform(
                    std::max<size_t>(spec.max_versions_per_add, 1)));
        Timestamp t = rng.UniformInt(0, domain_last);
        Timestamp last = t;
        for (size_t v = 0; v < num_versions && t <= domain_last; ++v) {
          op.versions.emplace_back(
              t, DrawValues(base, spec, seed, &rng, &fresh_counter));
          last = t;
          t += 1 + rng.UniformInt(0, std::max<int64_t>(
                                         (domain_last - t) / 4, 0));
        }
        shape.last_stamp.push_back(last);
        break;
      }
      default: {  // Retire.
        op.kind = RevisionOp::Kind::kRetireAttribute;
        op.attribute = pick_target();
        const Timestamp back = shape.last_stamp[op.attribute];
        op.timestamp = rng.UniformInt(std::min(back, domain_last),
                                      domain_last);
        shape.last_stamp[op.attribute] =
            std::max(shape.last_stamp[op.attribute], op.timestamp);
        break;
      }
    }
    delta.ops.push_back(std::move(op));
  }
  return delta;
}

}  // namespace tind::scenario
