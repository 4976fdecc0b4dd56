#ifndef TIND_SERVE_SERVER_H_
#define TIND_SERVE_SERVER_H_

/// \file server.h
/// TindServer: a long-lived, overload-resilient query service over a built
/// (or mmap-loaded) TindIndex. One listener thread accepts loopback TCP
/// connections; one reader thread per connection parses wire.h frames; a
/// pool of executor threads drains the bounded admission queue and answers
/// it through TindIndex::BatchSearch; a deadline watcher cancels requests
/// whose budget elapses mid-funnel (via BatchExecOptions cancellation
/// tokens).
///
/// Natural group commit: an executor never waits for a window to fill. It
/// blocks until the queue is non-empty, then takes up to `batch_window` of
/// whatever queued while every executor was busy. An idle server answers a
/// lone request at once; a loaded one forms larger windows by itself, so
/// the Bloom matrices still stream once per group. There is one executor
/// per hardware thread, at least two, so a heavy query (or a streamed
/// cursor) on one executor never stalls the requests behind it. Responses
/// on one connection may therefore arrive out of request order; clients
/// correlate them by request id.
///
/// Overload ladder (in admission order):
///  1. accept + enqueue (normal operation);
///  2. queue depth at dispatch >= degrade_watermark → requests that opted
///     in (`allow_degraded`) get a Bloom-superset answer with the degraded
///     flag set (stages 3–4 of the funnel are skipped);
///  3. queue full, memory budget exhausted, or draining → the request is
///     shed immediately with a typed error (ResourceExhausted for queue /
///     drain, OutOfMemory for the budget) — never silently dropped, never
///     queued past the bound.
///
/// Shutdown() drains: new requests are rejected, in-flight ones finish
/// (bounded by their deadlines), then every thread is joined. Safe to call
/// from a signal-watcher thread.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/memory_budget.h"
#include "common/status.h"
#include "serve/wire.h"
#include "temporal/dataset.h"
#include "tind/index.h"
#include "tind/params.h"
#include "tind/update.h"

namespace tind::obs {
class Histogram;
}  // namespace tind::obs

namespace tind {
class CostModelPlanner;  // tind/planner.h
}  // namespace tind

namespace tind::serve {

struct ServerOptions {
  uint16_t port = 0;  ///< 0 binds an ephemeral port (see TindServer::port()).
  /// Admission bound: requests beyond this many queued + executing are shed
  /// with ResourceExhausted. Counting executing requests keeps the bound
  /// independent of the number of executors.
  size_t max_inflight = 256;
  /// Queue depth at dispatch time at or above which consenting requests are
  /// answered in degraded (Bloom-superset) mode. Set >= max_inflight to
  /// never degrade, 0 to always degrade consenting requests.
  size_t degrade_watermark = 192;
  uint32_t default_deadline_ms = 200;  ///< Applied when a request sends 0.
  uint32_t max_deadline_ms = 5000;     ///< Clamp on client-supplied budgets.
  /// Slow-loris guard: a frame that started must complete, and a response
  /// write must drain, within this budget or the connection is dropped.
  uint32_t io_timeout_ms = 2000;
  /// Natural group commit: the most requests one executor takes from the
  /// queue per dispatch; a window holds whatever queued while the executors
  /// were busy.
  size_t batch_window = 64;
  size_t max_connections = 64;
  /// Optional admission budget (not owned). Each admitted request reserves
  /// its worst-case response bytes; reservation failure sheds the request
  /// with OutOfMemory.
  MemoryBudget* memory = nullptr;
  /// Per-query admission cost in bytes; 0 derives it from the dataset size
  /// (worst-case id list) at Start().
  size_t request_cost_bytes = 0;
  /// Live ingest: when false (the default), kApplyDelta frames are rejected
  /// with FailedPrecondition. Enable only for servers that own their index
  /// lifetime (tind_serve --ingest).
  bool allow_ingest = false;
  /// Test/chaos hook: a simulated cost per index query. An executor sleeps
  /// this long per query it answers: a stream once, between its partial
  /// frame and the rest of its funnel; a batched window once for all its
  /// queries (a discovery window counts its width), before BatchSearch.
  /// Lets tests land a deadline (or a kill) mid-execution and build queues
  /// deterministically. 0 (the default) runs at full speed; tind_serve
  /// never sets it.
  uint32_t execution_pace_ms = 0;
};

class TindServer {
 public:
  /// `index` and `params.weight` must outlive the server. `params` supplies
  /// the weight function; epsilon/delta come from each request.
  TindServer(const TindIndex& index, const TindParams& params,
             const ServerOptions& options);
  ~TindServer();

  TindServer(const TindServer&) = delete;
  TindServer& operator=(const TindServer&) = delete;

  /// Binds, spawns the service threads, and returns. IOError when the port
  /// cannot be bound.
  Status Start();

  /// The bound port (valid after a successful Start()).
  uint16_t port() const { return port_; }

  /// Drain-then-stop: rejects new work, completes in-flight requests
  /// (bounded by their deadlines), joins all threads. Idempotent; safe from
  /// a signal-watcher thread. The destructor calls it too.
  void Shutdown();

  /// Monotonic service totals (exact, independent of the obs registry).
  struct Counters {
    uint64_t connections = 0;         ///< Accepted connections.
    uint64_t connections_rejected = 0;  ///< Over max_connections.
    uint64_t accepted = 0;            ///< Requests admitted to the queue.
    uint64_t completed = 0;           ///< Answered with a result.
    uint64_t degraded = 0;            ///< Answered in superset mode.
    uint64_t shed = 0;                ///< Typed overload rejections.
    uint64_t deadline_exceeded = 0;   ///< Cancelled or expired in queue.
    uint64_t protocol_errors = 0;     ///< Malformed frames / payloads.
    /// Well-formed requests naming an attribute or discovery window outside
    /// the dataset.
    uint64_t request_invalid = 0;
    uint64_t slow_loris_drops = 0;    ///< Connections cut mid-frame.
    uint64_t deltas_applied = 0;      ///< Successful live-ingest epoch swaps.
  };
  Counters counters() const;

  /// Applies a revision delta to the serving index and atomically swaps the
  /// epoch (clone-and-patch RCU: queries in flight keep answering against
  /// the epoch they snapshotted; new batches see the new one). Serialized —
  /// concurrent callers apply one at a time against the latest epoch. On
  /// error nothing is swapped and the old epoch keeps serving: there is no
  /// torn state. Returns the new epoch sequence plus the patch stats.
  /// FailedPrecondition unless `ServerOptions::allow_ingest` is set.
  struct IngestResult {
    uint64_t sequence = 0;
    UpdateStats stats;
  };
  Result<IngestResult> ApplyDelta(const RevisionDelta& delta);

  /// The epoch sequence currently serving (0 = the index passed at
  /// construction, incremented per applied delta).
  uint64_t epoch_sequence() const;

  /// p50/p99 of accepted-request latency in ms (admission → response).
  double LatencyPercentileMs(double p) const;

 private:
  struct Connection;
  struct PendingRequest;

  /// One immutable serving view. The base epoch (sequence 0) borrows the
  /// index passed at construction; every ingested delta produces a fresh
  /// epoch owning its dataset + index. Batches snapshot one epoch pointer
  /// and answer the whole window against it, so a mid-batch swap can never
  /// mix pre- and post-delta answers.
  struct IndexEpoch {
    std::shared_ptr<const Dataset> owned_dataset;
    std::shared_ptr<const TindIndex> owned_index;
    const TindIndex* index = nullptr;  ///< Borrowed base or owned_index.get().
    uint64_t sequence = 0;
  };
  std::shared_ptr<const IndexEpoch> CurrentEpoch() const;

  void AcceptLoop();
  void ReaderLoop(std::shared_ptr<Connection> conn);
  void WatcherLoop();
  void ExecutorLoop();

  void DispatchFrame(const std::shared_ptr<Connection>& conn,
                     const Frame& frame);
  /// Admission control; responds immediately on rejection.
  void AdmitRequest(const std::shared_ptr<Connection>& conn,
                    const Frame& frame);
  void ProcessBatch(std::vector<PendingRequest>&& batch, size_t depth_at_pop);
  /// Sleeps `execution_pace_ms` per index query (test hook; no-op at 0).
  void Pace(size_t queries) const;
  /// One streaming (kSearchStream) request: probe stage → kSearchPartial
  /// frame → cost-model plan → remaining stages → exact kSearchResult. A
  /// deadline firing mid-funnel degrades to the best completed stage's
  /// superset when the request consented, instead of shedding.
  void ProcessStream(PendingRequest& request, const TindIndex& index,
                     bool degrade_window);
  void RespondError(PendingRequest& request, const Status& status);
  void SendToConnection(const std::shared_ptr<Connection>& conn,
                        MessageType type, uint64_t request_id,
                        const std::string& payload);
  void FinishRequest(PendingRequest& request);
  void CountProtocolError();
  void CountInvalidRequest();

  const TindIndex& index_;
  const TindParams params_;
  ServerOptions options_;
  size_t request_cost_bytes_ = 0;

  /// RCU epoch state: readers copy the shared_ptr under epoch_mutex_ (a
  /// pointer copy, never blocking on an apply); ApplyDelta builds the next
  /// epoch outside the lock and swaps it in. ingest_mutex_ serializes
  /// appliers so each delta patches the latest epoch.
  mutable std::mutex epoch_mutex_;
  std::shared_ptr<const IndexEpoch> epoch_;
  std::mutex ingest_mutex_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> shutting_down_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stop_{false};
  std::atomic<bool> stop_readers_{false};

  std::thread accept_thread_;
  std::vector<std::thread> executor_threads_;
  std::thread watcher_thread_;
  std::mutex conns_mutex_;
  std::vector<std::thread> reader_threads_;
  std::vector<std::weak_ptr<Connection>> conns_;

  std::mutex queue_mutex_;
  std::condition_variable queue_cv_;
  std::deque<PendingRequest> queue_;
  /// Admitted but not yet responded (queued + executing); drain waits on 0.
  size_t inflight_ = 0;
  std::condition_variable drain_cv_;

  /// Deadline watcher state: a lazily-pruned min-heap of (due, token).
  struct DeadlineEntry {
    std::chrono::steady_clock::time_point due;
    CancellationToken token;
    bool operator>(const DeadlineEntry& o) const { return due > o.due; }
  };
  std::mutex watcher_mutex_;
  std::condition_variable watcher_cv_;
  std::vector<DeadlineEntry> watcher_heap_;

  std::atomic<uint64_t> connections_{0};
  std::atomic<uint64_t> connections_rejected_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> completed_{0};
  std::atomic<uint64_t> degraded_{0};
  std::atomic<uint64_t> shed_{0};
  std::atomic<uint64_t> deadline_exceeded_{0};
  std::atomic<uint64_t> protocol_errors_{0};
  std::atomic<uint64_t> request_invalid_{0};
  std::atomic<uint64_t> slow_loris_drops_{0};
  std::atomic<uint64_t> deltas_applied_{0};

  /// Always-on latency histogram (registered in the global registry under
  /// "serve/latency_ms" but recorded directly, bypassing the enable gate).
  obs::Histogram* latency_ms_ = nullptr;
  /// Time-to-first-result for streaming requests (admission → partial
  /// frame), recorded directly like latency_ms_.
  obs::Histogram* ttfr_ms_ = nullptr;
  /// Cost model consulted per streaming query after its probe stage and fed
  /// back each finished query's stats. Built once at Start() from the base
  /// index; it copies what it needs, so epoch swaps never invalidate it.
  std::unique_ptr<CostModelPlanner> planner_;
};

}  // namespace tind::serve

#endif  // TIND_SERVE_SERVER_H_
