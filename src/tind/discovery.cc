#include "tind/discovery.h"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "bloom/bloom_batch.h"
#include "common/backoff.h"
#include "common/fault_injection.h"
#include "common/stopwatch.h"
#include "obs/metrics.h"
#include "tind/checkpoint.h"

namespace tind {

namespace {

/// Snapshots the completed queries for a checkpoint write.
DiscoveryCheckpoint MakeCheckpoint(
    size_t n, const std::vector<char>& done,
    const std::vector<std::vector<AttributeId>>& per_query) {
  DiscoveryCheckpoint checkpoint;
  checkpoint.num_queries = n;
  for (size_t q = 0; q < n; ++q) {
    if (done[q]) {
      checkpoint.completed.emplace_back(static_cast<AttributeId>(q),
                                        per_query[q]);
    }
  }
  return checkpoint;
}

/// Returns accumulated result bytes to the budget on every exit path.
struct BudgetGuard {
  MemoryBudget* budget;
  const size_t* bytes;
  ~BudgetGuard() {
    if (budget != nullptr) budget->Free(*bytes);
  }
};

}  // namespace

AllPairsResult DiscoverAllTinds(const TindIndex& index, const TindParams& params,
                                ThreadPool* pool) {
  DiscoveryOptions options;
  options.pool = pool;
  auto result = DiscoverAllTinds(index, params, options);
  if (!result.ok()) {
    // With no cancellation, budget, or checkpointing configured the
    // options overload can only fail on a throwing task; preserve the
    // legacy exception contract for that case.
    throw std::runtime_error(result.status().ToString());
  }
  return std::move(*result);
}

Result<AllPairsResult> DiscoverAllTinds(const TindIndex& index,
                                        const TindParams& params,
                                        const DiscoveryOptions& options) {
  const Dataset& dataset = index.dataset();
  const size_t n = dataset.size();
  Stopwatch timer;
  TIND_OBS_SCOPED_TIMER("discover_all_pairs");

  std::vector<std::vector<AttributeId>> per_query(n);
  std::vector<char> done(n, 0);
  size_t resumed = 0;
  if (!options.checkpoint_path.empty()) {
    auto loaded = LoadDiscoveryCheckpoint(options.checkpoint_path);
    if (loaded.ok() && loaded->num_queries == n) {
      for (auto& [q, rhs_list] : loaded->completed) {
        if (q < n && !done[q]) {
          per_query[q] = std::move(rhs_list);
          done[q] = 1;
          ++resumed;
        }
      }
      TIND_OBS_COUNTER_ADD("discovery/resumed_queries", resumed);
    } else if (!loaded.ok() && !loaded.status().IsNotFound()) {
      // Corrupt checkpoint: start fresh rather than fail the whole run.
      TIND_OBS_COUNTER_ADD("discovery/checkpoints_corrupt", 1);
    }
  }
  TIND_OBS_COUNTER_ADD("discover/queries", n - resumed);

  // Run state. Only the committer (see run_group) reads or writes it, and
  // the committer role passes between threads under commit_mutex, so it
  // needs no lock of its own. `internal_cancel` trips on user cancellation,
  // budget exhaustion, or an injected preemption; it stops the group
  // schedule and abandons in-flight groups mid-funnel.
  CancellationToken internal_cancel;
  bool user_cancelled = false;
  size_t total_validations = 0;
  size_t reserved_bytes = 0;
  BudgetGuard budget_guard{options.memory, &reserved_bytes};
  Status oom_status;
  size_t completed = resumed;
  size_t since_checkpoint = 0;
  size_t checkpoints_written = 0;
  size_t checkpoint_failures = 0;

  const auto record_checkpoint_write = [&](const Status& written) {
    if (written.ok()) {
      ++checkpoints_written;
      TIND_OBS_COUNTER_ADD("discovery/checkpoints_written", 1);
    } else {
      // Non-fatal: the run only loses resume granularity.
      ++checkpoint_failures;
      TIND_OBS_COUNTER_ADD("discovery/checkpoint_failures", 1);
    }
  };

  // Checkpoint writes ride out transient sidecar I/O failures (full disk
  // briefly, injected "discovery/checkpoint_write" faults) with bounded
  // decorrelated-jitter retries before a write is recorded as failed. The
  // seed is fixed: retry schedules stay reproducible across chaos runs.
  const auto save_checkpoint_with_retry = [&] {
    const DiscoveryCheckpoint snapshot = MakeCheckpoint(n, done, per_query);
    Status written = SaveDiscoveryCheckpoint(snapshot, options.checkpoint_path);
    if (!written.ok() && options.checkpoint_retries > 0) {
      BackoffOptions backoff_options;
      backoff_options.initial_us = 200;
      backoff_options.max_us = 10000;
      backoff_options.max_retries = options.checkpoint_retries;
      ExponentialBackoff backoff(backoff_options, /*seed=*/0x74494e44);
      uint64_t delay_us = 0;
      while (!written.ok() && backoff.NextDelayUs(&delay_us)) {
        std::this_thread::sleep_for(std::chrono::microseconds(delay_us));
        TIND_OBS_COUNTER_ADD("discovery/checkpoint_retries", 1);
        written = SaveDiscoveryCheckpoint(snapshot, options.checkpoint_path);
      }
    }
    record_checkpoint_write(written);
  };

  // Commits one answered query; queries commit in ascending order. The stop
  // checks run first — user cancellation and the chaos fault points (an
  // injected preemption behaves like an external stop request, an injected
  // die simulates power loss: the checkpoint on disk must carry the
  // recovery on its own) — then validation count, result-byte budgeting
  // and checkpoint cadence. Returns false when the run stops: this query
  // and every later one stay uncommitted, exactly as if they had never
  // run, so a stop at query q leaves exactly the queries before q
  // completed. (Their answers may be computed already — wasted work, never
  // wrong state.)
  const auto commit_query = [&](size_t q, std::vector<AttributeId> rhs_list,
                                const QueryStats& stats) {
    if ((options.cancel != nullptr && options.cancel->cancelled()) ||
        TIND_FAULT_POINT("discovery/preempt")) {
      user_cancelled = true;
      internal_cancel.Cancel();
      return false;
    }
    if (TIND_FAULT_POINT("discovery/die")) std::raise(SIGKILL);
    total_validations += stats.validations;
    if (options.memory != nullptr) {
      const size_t bytes = rhs_list.size() * sizeof(AttributeId);
      const Status reserve = options.memory->Allocate(bytes);
      if (!reserve.ok()) {
        oom_status = reserve;
        internal_cancel.Cancel();
        return false;
      }
      reserved_bytes += bytes;
    }
    per_query[q] = std::move(rhs_list);
    done[q] = 1;
    ++completed;
    if (!options.checkpoint_path.empty() &&
        ++since_checkpoint >= options.checkpoint_interval) {
      since_checkpoint = 0;
      save_checkpoint_with_retry();
    }
    return true;
  };

  const auto write_final_checkpoint = [&] {
    if (!options.checkpoint_path.empty()) save_checkpoint_with_retry();
  };

  // Pending queries are cut into groups of kBloomBatchGroupSize, each
  // answered by one unpooled BatchSearch call, and the groups are scheduled
  // over the pool with no barrier between them. Every call of run_group
  // claims the next group in query order, so a worker never queues groups
  // behind a straggler group (a cluster of catch-all attributes): the
  // others keep claiming past it. Answers park in their group's slot;
  // whichever thread finds the slot at the commit frontier ready becomes
  // the committer and commits parked groups in ascending query order until
  // it reaches one still running. One committer at a time, and it commits
  // without holding the lock, so checkpoint writes never stall the workers.
  //
  // Parked answers are charged to the budget only when they commit, so in
  // a budgeted run a group is claimed only within `lookahead` groups of the
  // frontier (two per thread that can run groups: the pool's workers and
  // the calling thread). That bounds the uncharged answers to a few groups
  // per worker. An unbudgeted run claims freely: its parked answers are
  // part of the result it returns anyway, and holding the workers back
  // behind a straggler group would only cost throughput. The wait cannot
  // deadlock: a group is claimed inside run_group (a pool task that throws
  // before calling it holds none), so every group below the next claim is
  // running or parked and the frontier advances until a stop or a throwing
  // group trips internal_cancel, which wakes the waiters.
  std::vector<size_t> pending;
  for (size_t q = 0; q < n; ++q) {
    if (!done[q]) pending.push_back(q);  // Others restored from checkpoint.
  }
  const size_t num_groups =
      (pending.size() + kBloomBatchGroupSize - 1) / kBloomBatchGroupSize;
  const size_t lookahead =
      options.memory == nullptr
          ? num_groups
          : 2 * (options.pool != nullptr ? options.pool->num_threads() + 1 : 1);
  struct GroupAnswers {
    std::vector<std::vector<AttributeId>> rhs;
    std::vector<QueryStats> stats;
    bool ready = false;
  };
  std::vector<GroupAnswers> parked(num_groups);
  std::mutex commit_mutex;
  std::condition_variable frontier_moved;
  size_t next_group = 0;      // Next group to claim; guarded.
  size_t frontier = 0;        // First uncommitted group; guarded.
  size_t parked_queries = 0;  // Answered, not yet committed; guarded.
  bool committing = false;    // A thread holds the committer role; guarded.

  const auto run_group = [&] {
    std::unique_lock<std::mutex> lock(commit_mutex);
    frontier_moved.wait(lock, [&] {
      return next_group >= num_groups || next_group < frontier + lookahead ||
             internal_cancel.cancelled();
    });
    if (internal_cancel.cancelled() || next_group >= num_groups) return;
    const size_t g = next_group++;
    lock.unlock();

    const size_t lo = g * kBloomBatchGroupSize;
    const size_t hi = std::min(pending.size(), lo + kBloomBatchGroupSize);
    std::vector<const AttributeHistory*> queries;
    queries.reserve(hi - lo);
    for (size_t i = lo; i < hi; ++i) {
      queries.push_back(
          &dataset.attribute(static_cast<AttributeId>(pending[i])));
    }
    const std::vector<const CancellationToken*> cancels(hi - lo,
                                                        &internal_cancel);
    BatchExecOptions exec;
    exec.cancels = cancels.data();
    TIND_OBS_COUNTER_ADD("discovery/batches", 1);
    // Validation stays sequential inside the group: with one group per
    // worker in flight, nesting validation parallelism only adds contention.
    GroupAnswers answers;
    try {
      answers.rhs = index.BatchSearch(queries, params, exec, &answers.stats);
    } catch (...) {
      // The frontier will never pass g: release the waiters, then let the
      // pool report the exception.
      internal_cancel.Cancel();
      lock.lock();
      frontier_moved.notify_all();
      throw;
    }
    answers.ready = true;

    lock.lock();
    parked[g] = std::move(answers);
    parked_queries += hi - lo;
    TIND_OBS_GAUGE_MAX("discovery/parked_queries_peak", parked_queries);
    if (committing) return;  // The active committer reaches g in order.
    committing = true;
    while (frontier < num_groups && parked[frontier].ready &&
           !internal_cancel.cancelled()) {
      GroupAnswers group = std::move(parked[frontier]);
      const size_t base = frontier * kBloomBatchGroupSize;
      lock.unlock();
      for (size_t i = 0; i < group.rhs.size(); ++i) {
        if (!commit_query(pending[base + i], std::move(group.rhs[i]),
                          group.stats[i])) {
          break;
        }
      }
      lock.lock();
      parked_queries -= group.rhs.size();
      ++frontier;
      frontier_moved.notify_all();
    }
    committing = false;
    frontier_moved.notify_all();  // A stop may have tripped internal_cancel.
  };

  try {
    if (options.pool != nullptr) {
      // ParallelFor keeps the pool's task contract: a throwing group drains
      // the others and rethrows here. Each call claims the next group
      // itself; the index only counts the calls.
      options.pool->ParallelFor(
          0, num_groups, [&](size_t) { run_group(); }, &internal_cancel);
    } else {
      for (size_t g = 0; g < num_groups && !internal_cancel.cancelled(); ++g) {
        run_group();
      }
    }
  } catch (const std::exception& e) {
    // A query task threw. Preserve completed work, degrade to a Status.
    write_final_checkpoint();
    return Status::Internal(std::string("discovery query task failed: ") +
                            e.what());
  }

  if (!oom_status.ok()) {
    write_final_checkpoint();
    return Status::OutOfMemory(
        oom_status.message() + " (discovery stopped after " +
        std::to_string(completed) + "/" + std::to_string(n) +
        " queries; result bytes reserved: " +
        std::to_string(reserved_bytes) + ")");
  }
  if (user_cancelled ||
      (options.cancel != nullptr && options.cancel->cancelled())) {
    write_final_checkpoint();
    return Status::Cancelled(
        "discovery cancelled after " + std::to_string(completed) + "/" +
        std::to_string(n) + " queries" +
        (options.checkpoint_path.empty()
             ? ""
             : "; checkpoint at " + options.checkpoint_path));
  }

  AllPairsResult result;
  result.num_queries = n;
  result.total_validations = total_validations;
  result.resumed_queries = resumed;
  result.checkpoints_written = checkpoints_written;
  result.checkpoint_failures = checkpoint_failures;
  size_t total_pairs = 0;
  for (const auto& rhs_list : per_query) total_pairs += rhs_list.size();
  result.pairs.reserve(total_pairs);
  for (size_t q = 0; q < n; ++q) {
    for (const AttributeId rhs : per_query[q]) {
      result.pairs.push_back(TindPair{static_cast<AttributeId>(q), rhs});
    }
  }
  // Per-query results are ascending in rhs and queries are visited in
  // ascending lhs order, so the concatenation is already (lhs, rhs)-sorted.
  result.elapsed_seconds = timer.ElapsedSeconds();
  TIND_OBS_COUNTER_ADD("discover/pairs", result.pairs.size());
  TIND_OBS_COUNTER_ADD("discover/validations", result.total_validations);
  // The run completed: the sidecar has served its purpose.
  if (!options.checkpoint_path.empty()) {
    RemoveDiscoveryCheckpoint(options.checkpoint_path);
  }
  return result;
}

}  // namespace tind
