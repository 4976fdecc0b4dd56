#include "loadgen.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "common/rng.h"

namespace perfbench {

namespace serve = tind::serve;

namespace {

constexpr int kIoTimeoutMs = 5000;
/// How long after a phase's last due time answers may still arrive.
constexpr double kDrainTimeoutS = 3;
/// Open-loop requests carry a 1 s budget rather than the server's 200 ms
/// default: a slow answer is measured as latency (and against the knee's
/// p99 limit), and only a server that is really behind fails requests.
constexpr uint32_t kRequestDeadlineMs = 1000;

Clock::time_point At(Clock::time_point start, double offset_s) {
  return start + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(offset_s));
}

/// Waits up to `timeout` for `fd` to become readable, with sub-millisecond
/// resolution (the wire helpers poll in whole milliseconds).
bool WaitReadable(int fd, Clock::duration timeout) {
  if (timeout < Clock::duration::zero()) timeout = Clock::duration::zero();
  const auto ns =
      std::chrono::duration_cast<std::chrono::nanoseconds>(timeout).count();
  timespec ts{static_cast<time_t>(ns / 1000000000),
              static_cast<long>(ns % 1000000000)};
  pollfd p{fd, POLLIN, 0};
  return ::ppoll(&p, 1, &ts, nullptr) > 0;
}

bool WellFormed(const std::vector<AttributeId>& ids, size_t num_attributes) {
  for (size_t i = 0; i < ids.size(); ++i) {
    if (ids[i] >= num_attributes) return false;
    if (i > 0 && ids[i] <= ids[i - 1]) return false;
  }
  return true;
}

Outcome ClassifyError(const tind::Status& status) {
  if (status.IsResourceExhausted() || status.IsOutOfMemory()) {
    return Outcome::kShed;
  }
  if (status.IsDeadlineExceeded()) return Outcome::kDeadline;
  return Outcome::kOther;
}

std::string EncodeRequest(const Request& r) {
  serve::SearchRequest request;
  request.attribute = r.attribute;
  request.deadline_ms = kRequestDeadlineMs;
  request.allow_degraded = r.allow_degraded;
  if (IsStream(r.op)) {
    serve::SearchStreamRequest stream;
    stream.base = request;
    stream.reverse = IsReverse(r.op);
    return serve::EncodeSearchStreamRequest(stream);
  }
  return serve::EncodeSearchRequest(request);
}

serve::MessageType RequestType(Op op) {
  switch (op) {
    case Op::kForward:
      return serve::MessageType::kSearch;
    case Op::kReverse:
      return serve::MessageType::kReverseSearch;
    default:
      return serve::MessageType::kSearchStream;
  }
}

/// One connection's share of an open-loop phase: `mine` lists the global
/// request indices it sends (ascending due times); request id = index.
void ConnectionLoop(const OpenLoopOptions& options,
                    const std::vector<Request>& requests,
                    const std::vector<size_t>& mine, Clock::time_point start,
                    Clock::time_point drain_deadline,
                    std::vector<Response>* responses,
                    std::vector<std::string>* samples) {
  // Marks every request of this connection still without an answer.
  const auto fail_pending = [&](Outcome outcome) {
    for (const size_t i : mine) {
      Response& r = (*responses)[i];
      if (r.outcome == Outcome::kPending) r.outcome = outcome;
    }
  };
  auto fd = serve::ConnectTcp("127.0.0.1", options.port, kIoTimeoutMs);
  if (!fd.ok()) {
    fail_pending(Outcome::kTransport);
    return;
  }
  size_t next = 0;
  size_t outstanding = 0;
  const auto tracked = [&](const Request& r) {
    if (options.tracked == nullptr) return false;
    const uint8_t bit = IsReverse(r.op) ? 2 : 1;
    return ((*options.tracked)[r.attribute] & bit) != 0;
  };
  for (;;) {
    Clock::time_point now = Clock::now();
    while (next < mine.size()) {
      const Request& r = requests[mine[next]];
      const Clock::time_point due = At(start, r.due_s);
      if (due > now) break;
      const tind::Status sent =
          serve::SendFrame(*fd, RequestType(r.op), mine[next], EncodeRequest(r),
                           kIoTimeoutMs);
      (*responses)[mine[next]].send_late_ms = MillisBetween(due, now);
      ++next;
      if (!sent.ok()) {
        fail_pending(Outcome::kTransport);
        serve::CloseFd(*fd);
        return;
      }
      ++outstanding;
      now = Clock::now();
    }
    if (next == mine.size() && outstanding == 0) break;
    if (now >= drain_deadline) {
      fail_pending(Outcome::kTransport);
      break;
    }
    const Clock::time_point wake =
        next < mine.size()
            ? std::min(At(start, requests[mine[next]].due_s), drain_deadline)
            : drain_deadline;
    if (!WaitReadable(*fd, wake - now)) continue;
    // Drain every frame that is ready.
    for (;;) {
      auto frame = serve::RecvFrame(*fd, 0, kIoTimeoutMs);
      if (!frame.ok()) {
        if (frame.status().IsDeadlineExceeded()) break;
        fail_pending(Outcome::kTransport);
        serve::CloseFd(*fd);
        return;
      }
      const Clock::time_point received = Clock::now();
      const uint64_t id = frame->header.request_id;
      if (id >= responses->size() ||
          (*responses)[id].outcome != Outcome::kPending) {
        continue;  // Not ours or already final: ignored.
      }
      const Request& r = requests[id];
      Response& resp = (*responses)[id];
      const double since_due = MillisBetween(At(start, r.due_s), received);
      switch (frame->header.type) {
        case serve::MessageType::kSearchPartial: {
          if (resp.ttfr_ms < 0) resp.ttfr_ms = since_due;
          if (tracked(r) && !resp.has_partial) {
            auto partial = serve::DecodeSearchPartial(frame->payload);
            if (partial.ok()) {
              resp.partial = std::move(partial->ids);
              resp.has_partial = true;
            }
          }
          continue;
        }
        case serve::MessageType::kSearchResult: {
          resp.latency_ms = since_due;
          auto decoded = serve::DecodeSearchResponse(frame->payload);
          if (!decoded.ok() || !WellFormed(decoded->ids, options.num_attributes)) {
            resp.outcome = Outcome::kMalformed;
          } else {
            resp.outcome =
                decoded->degraded ? Outcome::kDegraded : Outcome::kExact;
            resp.ids_hash = HashIds(decoded->ids);
            if (tracked(r)) resp.ids = std::move(decoded->ids);
          }
          if (samples->size() < 64) samples->push_back(frame->payload);
          break;
        }
        case serve::MessageType::kError:
          resp.latency_ms = since_due;
          resp.outcome =
              ClassifyError(serve::DecodeErrorResponse(frame->payload));
          break;
        default:
          resp.latency_ms = since_due;
          resp.outcome = Outcome::kMalformed;
          break;
      }
      --outstanding;
    }
  }
  serve::CloseFd(*fd);
}

}  // namespace

uint64_t HashIds(const std::vector<AttributeId>& ids) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const AttributeId id : ids) {
    h = (h ^ id) * 0x100000001b3ULL;
  }
  return h ^ ids.size();
}

std::vector<Request> MakeRequestLog(const Mix& mix, size_t num_attributes,
                                    size_t length, uint64_t seed) {
  tind::scenario::ScenarioSpec spec;
  spec.seed = seed;
  spec.traffic = mix.traffic;
  spec.traffic.queries = length;
  spec.traffic.batch_sizes = {1};
  spec.traffic.batch_weights.clear();
  const tind::scenario::TrafficPlan plan =
      tind::scenario::BuildTrafficPlan(spec, num_attributes);
  // The stream draws use their own stream, so the plan's attributes and
  // directions are exactly those BuildTrafficPlan gives for the seed.
  tind::Rng rng(seed ^ 0x57AEA3ULL);
  std::vector<Request> log;
  log.reserve(length);
  for (const tind::scenario::QueryBatch& batch : plan.batches) {
    Request r;
    r.attribute = batch.queries.front();
    const bool stream = rng.Bernoulli(mix.stream_fraction);
    r.op = batch.forward ? (stream ? Op::kStreamForward : Op::kForward)
                         : (stream ? Op::kStreamReverse : Op::kReverse);
    r.allow_degraded = mix.allow_degraded;
    log.push_back(r);
  }
  return log;
}

std::vector<Request> MakeSchedule(const std::vector<Request>& log,
                                  size_t offset, double rate,
                                  double duration_s, uint64_t arrival_seed) {
  tind::Rng arrivals(arrival_seed);
  std::vector<Request> out;
  double t = arrivals.Exponential(rate);
  while (t < duration_s && !log.empty()) {
    Request r = log[(offset + out.size()) % log.size()];
    r.due_s = t;
    out.push_back(r);
    t += arrivals.Exponential(rate);
  }
  return out;
}

PhaseResult RunOpenLoop(const OpenLoopOptions& options,
                        std::vector<Request> schedule, double duration_s) {
  PhaseResult result;
  result.requests = std::move(schedule);
  result.responses.resize(result.requests.size());
  const size_t conns = std::max<size_t>(1, options.connections);
  std::vector<std::vector<size_t>> mine(conns);
  for (size_t i = 0; i < result.requests.size(); ++i) {
    mine[i % conns].push_back(i);
  }
  std::vector<std::vector<std::string>> samples(conns);
  // Connections open before the first due time.
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  const Clock::time_point drain_deadline =
      At(start, duration_s + kDrainTimeoutS);
  std::atomic<size_t> running{conns};
  std::vector<std::thread> threads;
  threads.reserve(conns);
  for (size_t c = 0; c < conns; ++c) {
    threads.emplace_back([&, c] {
      ConnectionLoop(options, result.requests, mine[c], start, drain_deadline,
                     &result.responses, &samples[c]);
      running.fetch_sub(1);
    });
  }
  while (options.poll && running.load() > 0) {
    options.poll();
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  for (std::thread& t : threads) t.join();
  for (auto& s : samples) {
    for (auto& p : s) result.payload_samples.push_back(std::move(p));
  }
  return result;
}

}  // namespace perfbench
