#ifndef TIND_PERFBENCH_LOADGEN_H_
#define TIND_PERFBENCH_LOADGEN_H_

/// \file loadgen.h
/// Load generators that speak the public serve/wire.h protocol directly.
///
/// RunOpenLoop is an open loop: arrivals follow a seeded Poisson schedule
/// fixed before the phase starts, and each connection pipelines requests by
/// id without waiting for earlier answers, so a slow server builds a real
/// backlog in its admission and batching queues. One thread owns each
/// connection and both sends and receives on it. Every latency is measured
/// from the request's due time, so a late send counts against the system.
/// (Closed-loop probes and ingest use serve::TindClient instead.)

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "scenario/scenario.h"
#include "serve/wire.h"
#include "support.h"

namespace perfbench {

enum class Op : uint8_t { kForward, kReverse, kStreamForward, kStreamReverse };
inline bool IsReverse(Op op) {
  return op == Op::kReverse || op == Op::kStreamReverse;
}
inline bool IsStream(Op op) {
  return op == Op::kStreamForward || op == Op::kStreamReverse;
}

struct Request {
  double due_s = 0;  ///< Offset from the phase start.
  AttributeId attribute = 0;
  Op op = Op::kForward;
  bool allow_degraded = false;
};

enum class Outcome : uint8_t {
  kPending,
  kExact,
  kDegraded,
  kShed,       ///< ResourceExhausted / OutOfMemory: refused by admission.
  kDeadline,   ///< DeadlineExceeded.
  kTransport,  ///< Connection failure or no answer before the drain limit.
  kOther,      ///< Any other typed error.
  kMalformed,  ///< Undecodable or structurally invalid answer.
};
inline bool IsFailure(Outcome o) {
  return o != Outcome::kExact && o != Outcome::kDegraded;
}

struct Response {
  Outcome outcome = Outcome::kPending;
  double send_late_ms = 0;  ///< Send time minus due time.
  double latency_ms = -1;   ///< Final frame minus due time.
  double ttfr_ms = -1;      ///< First kSearchPartial minus due time.
  uint64_t ids_hash = 0;    ///< FNV-1a over the final ids.
  /// Kept only for attributes the caller tracks (the oracle sample).
  std::vector<AttributeId> ids;
  std::vector<AttributeId> partial;
  bool has_partial = false;
};

/// The request mix. Attributes and directions come from
/// scenario::BuildTrafficPlan over `traffic` (one query per batch); each
/// request is then streamed with probability `stream_fraction`, and every
/// request consents to a degraded answer when `allow_degraded` is set.
struct Mix {
  tind::scenario::TrafficSpec traffic;
  double stream_fraction = 0;
  bool allow_degraded = false;
};

/// A fixed request log of `length` requests without due times: the k-th
/// request depends only on `seed` and k, and one seed fixes the hot set.
std::vector<Request> MakeRequestLog(const Mix& mix, size_t num_attributes,
                                    size_t length, uint64_t seed);

/// Poisson arrivals at `rate` per second over `duration_s`; the k-th
/// arrival asks request (offset + k) of `log`, wrapping around its end.
/// The arrival times depend only on `arrival_seed`.
std::vector<Request> MakeSchedule(const std::vector<Request>& log,
                                  size_t offset, double rate,
                                  double duration_s, uint64_t arrival_seed);

struct PhaseResult {
  std::vector<Request> requests;
  std::vector<Response> responses;
  /// A few raw kSearchResult payloads, for timing the wire codecs.
  std::vector<std::string> payload_samples;
};

struct OpenLoopOptions {
  uint16_t port = 0;
  size_t connections = 3;
  size_t num_attributes = 0;  ///< Ids at or above this are malformed.
  /// Per attribute: bit 0 keeps forward answers, bit 1 reverse answers.
  const std::vector<uint8_t>* tracked = nullptr;
  /// Called about every millisecond on the calling thread while the phase
  /// runs (queue-depth sampling).
  std::function<void()> poll;
};

PhaseResult RunOpenLoop(const OpenLoopOptions& options,
                        std::vector<Request> schedule, double duration_s);

uint64_t HashIds(const std::vector<AttributeId>& ids);

}  // namespace perfbench

#endif  // TIND_PERFBENCH_LOADGEN_H_
