#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "scenario/mutate.h"
#include "serve/client.h"
#include "serve/load.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "temporal/weights.h"
#include "tind/discovery.h"
#include "tind/index.h"
#include "tind/progressive.h"
#include "tind/update.h"
#include "wiki/generator.h"

/// \file serve_test.cc
/// End-to-end contracts of the tIND query service: served answers are
/// bit-identical to direct TindIndex calls; overload is shed with typed
/// errors; consenting requests degrade to flagged supersets under
/// watermark pressure; queue-expired deadlines surface as DeadlineExceeded;
/// the client's retry/backoff machinery converges; and Shutdown() drains
/// in-flight work before tearing down.

namespace tind::serve {
namespace {

#if defined(__unix__) || defined(__APPLE__)

/// Deadline-based wait for an asynchronous server-side condition. A fixed
/// spin count flakes under scheduler jitter; a wall-clock deadline does not.
bool WaitUntil(const std::function<bool()>& ready,
               std::chrono::milliseconds deadline =
                   std::chrono::milliseconds(10000)) {
  const auto until = std::chrono::steady_clock::now() + deadline;
  while (!ready()) {
    if (std::chrono::steady_clock::now() >= until) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    wiki::GeneratorOptions gen;
    gen.seed = 31;
    gen.num_days = 120;
    gen.num_families = 3;
    gen.num_noise_attributes = 14;
    gen.num_drifter_attributes = 6;
    gen.num_catchall_attributes = 2;
    gen.shared_vocabulary = 100;
    gen.entities_per_family_pool = 60;
    auto generated = wiki::WikiGenerator(gen).GenerateDataset();
    ASSERT_TRUE(generated.ok()) << generated.status().ToString();
    corpus_ = std::make_unique<wiki::GeneratedDataset>(std::move(*generated));
    weight_ = std::make_unique<ConstantWeight>(
        corpus_->dataset.domain().num_timestamps());
    auto built = TindIndex::Build(corpus_->dataset, BuildOptions());
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    index_ = std::move(*built);
  }

  TindIndexOptions BuildOptions() const {
    TindIndexOptions opts;
    opts.bloom_bits = 512;
    opts.num_hashes = 2;
    opts.num_slices = 4;
    opts.delta = 7;
    opts.epsilon = 3.0;
    opts.build_reverse_index = true;
    opts.reverse_slices = 2;
    opts.weight = weight_.get();
    return opts;
  }

  TindParams Params() const { return TindParams{3.0, 7, weight_.get()}; }

  std::unique_ptr<TindServer> StartServer(ServerOptions options) {
    auto server =
        std::make_unique<TindServer>(*index_, Params(), options);
    const Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  ClientOptions ClientFor(const TindServer& server) const {
    ClientOptions options;
    options.port = server.port();
    options.epsilon = 3.0;
    options.delta = 7;
    options.max_attempts = 1;
    return options;
  }

  std::unique_ptr<wiki::GeneratedDataset> corpus_;
  std::unique_ptr<ConstantWeight> weight_;
  std::unique_ptr<TindIndex> index_;
};

TEST_F(ServeTest, ServedAnswersMatchDirectIndexCalls) {
  auto server = StartServer(ServerOptions{});
  TindClient client(ClientFor(*server));
  ASSERT_TRUE(client.Ping().ok());
  const size_t n = corpus_->dataset.size();
  const TindParams params = Params();
  for (size_t q = 0; q < n; ++q) {
    const AttributeId attr = static_cast<AttributeId>(q);
    const auto& history = corpus_->dataset.attribute(attr);
    auto reply = client.Search(attr);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_FALSE(reply->degraded);
    EXPECT_EQ(reply->ids, index_->Search(history, params)) << "q=" << q;
    auto reverse = client.ReverseSearch(attr);
    ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
    EXPECT_EQ(reverse->ids, index_->ReverseSearch(history, params))
        << "q=" << q;
  }
  server->Shutdown();
  const auto counters = server->counters();
  EXPECT_EQ(counters.completed, 2 * n);
  EXPECT_EQ(counters.shed, 0u);
  EXPECT_EQ(counters.protocol_errors, 0u);
}

TEST_F(ServeTest, DiscoveryWindowMatchesAllPairsDiscovery) {
  auto server = StartServer(ServerOptions{});
  TindClient client(ClientFor(*server));
  const size_t n = corpus_->dataset.size();
  const AllPairsResult all = DiscoverAllTinds(*index_, Params());
  std::vector<TindPair> served;
  // Cover [0, n) in a few windows; concatenation must equal the full
  // discovery pair set (both are (lhs, rhs)-sorted).
  const AttributeId step = 7;
  for (AttributeId lo = 0; lo < n; lo += step) {
    const AttributeId hi =
        std::min<AttributeId>(static_cast<AttributeId>(n), lo + step);
    auto reply = client.DiscoveryWindow(lo, hi);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    served.insert(served.end(), reply->pairs.begin(), reply->pairs.end());
  }
  EXPECT_EQ(served, all.pairs);
}

TEST_F(ServeTest, InvalidRequestsAreTypedAndNotRetried) {
  auto server = StartServer(ServerOptions{});
  TindClient client(ClientFor(*server));
  const auto bad_attr = client.Search(
      static_cast<AttributeId>(corpus_->dataset.size() + 10));
  EXPECT_TRUE(bad_attr.status().IsInvalidArgument())
      << bad_attr.status().ToString();
  const auto bad_window = client.DiscoveryWindow(5, 5);
  EXPECT_TRUE(bad_window.status().IsInvalidArgument());
  const auto huge_window = client.DiscoveryWindow(
      0, static_cast<AttributeId>(kMaxDiscoveryWindow + 2));
  EXPECT_TRUE(huge_window.status().IsInvalidArgument());
  EXPECT_EQ(client.counters().retries, 0u);
  // Well-formed frames naming data that does not exist: counted by cause.
  EXPECT_EQ(server->counters().request_invalid, 3u);
  EXPECT_EQ(server->counters().protocol_errors, 0u);
}

TEST_F(ServeTest, FullQueueShedsWithTypedOverloadAndClientRetries) {
  ServerOptions options;
  options.max_inflight = 0;  // Every request is over the bound.
  auto server = StartServer(options);
  ClientOptions client_options = ClientFor(*server);
  client_options.max_attempts = 3;
  client_options.backoff.initial_us = 100;
  client_options.backoff.max_us = 1000;
  TindClient client(client_options);
  const auto reply = client.Search(0);
  ASSERT_TRUE(reply.status().IsResourceExhausted())
      << reply.status().ToString();
  EXPECT_NE(reply.status().message().find("overloaded"), std::string::npos);
  EXPECT_EQ(client.counters().retries, 2u);  // All attempts were shed.
  EXPECT_GE(server->counters().shed, 3u);
}

TEST_F(ServeTest, MemoryBudgetShedsAsOutOfMemory) {
  MemoryBudget budget(64);  // Far below one request's admission cost.
  ServerOptions options;
  options.memory = &budget;
  auto server = StartServer(options);
  TindClient client(ClientFor(*server));
  const auto reply = client.Search(0);
  ASSERT_TRUE(reply.status().IsOutOfMemory()) << reply.status().ToString();
  EXPECT_EQ(server->counters().shed, 1u);
  EXPECT_EQ(budget.used(), 0u);  // Reservation released on rejection.
}

TEST_F(ServeTest, WatermarkDegradesConsentingRequestsToSupersets) {
  ServerOptions options;
  options.degrade_watermark = 0;  // Every dispatch window is "overloaded".
  auto server = StartServer(options);
  ClientOptions degraded_options = ClientFor(*server);
  degraded_options.allow_degraded = true;
  TindClient degraded_client(degraded_options);
  TindClient strict_client(ClientFor(*server));
  const TindParams params = Params();
  for (AttributeId attr = 0;
       attr < std::min<size_t>(corpus_->dataset.size(), 8); ++attr) {
    const auto exact = index_->Search(corpus_->dataset.attribute(attr), params);
    auto soft = degraded_client.Search(attr);
    ASSERT_TRUE(soft.ok()) << soft.status().ToString();
    EXPECT_TRUE(soft->degraded);
    // Sound superset: every exact answer is present.
    const std::set<AttributeId> ids(soft->ids.begin(), soft->ids.end());
    for (const AttributeId id : exact) EXPECT_TRUE(ids.count(id)) << id;
    // A client that did not consent still gets the exact answer.
    auto hard = strict_client.Search(attr);
    ASSERT_TRUE(hard.ok());
    EXPECT_FALSE(hard->degraded);
    EXPECT_EQ(hard->ids, exact);
  }
  EXPECT_GT(server->counters().degraded, 0u);
}

TEST_F(ServeTest, QueueExpiredDeadlineIsDeadlineExceeded) {
  auto server = StartServer(ServerOptions{});
  ClientOptions client_options = ClientFor(*server);
  client_options.deadline_ms = 1;
  TindClient client(client_options);
  // Occupy the executors with wide discovery windows so a trailing 1 ms
  // request may expire in the queue behind them. Raw frames: the client
  // API would wait for each response in turn.
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  SearchRequest wide;
  wide.attribute = 0;
  wide.window_end = static_cast<AttributeId>(
      std::min<size_t>(corpus_->dataset.size(), kMaxDiscoveryWindow));
  wide.epsilon = 3.0;
  wide.delta = 7;
  for (uint64_t id = 1; id <= 4; ++id) {
    ASSERT_TRUE(SendFrame(*fd, MessageType::kDiscoveryWindow, id,
                          EncodeSearchRequest(wide), 1000)
                    .ok());
  }
  const auto reply = client.Search(0);
  // Depending on scheduling the tiny-deadline request may still complete;
  // accept either a typed deadline error or a successful answer, but it
  // must never hang (the test itself is the hang detector).
  if (!reply.ok()) {
    EXPECT_TRUE(reply.status().IsDeadlineExceeded())
        << reply.status().ToString();
  }
  // Drain the raw connection: all four wide requests must terminate.
  size_t terminal = 0;
  while (terminal < 4) {
    auto frame = RecvFrame(*fd, 5000, 5000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(frame->header.type == MessageType::kDiscoveryResult ||
                frame->header.type == MessageType::kError);
    ++terminal;
  }
  CloseFd(*fd);
}

TEST_F(ServeTest, MalformedFramesGetTypedErrorsAndServerSurvives) {
  auto server = StartServer(ServerOptions{});
  // Garbage bytes: the server answers with an InvalidArgument error frame
  // and drops the connection.
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  ASSERT_TRUE(SendAll(*fd, "this is not a frame, not even close....", 1000)
                  .ok());
  auto error_frame = RecvFrame(*fd, 2000, 2000);
  ASSERT_TRUE(error_frame.ok()) << error_frame.status().ToString();
  EXPECT_EQ(error_frame->header.type, MessageType::kError);
  EXPECT_TRUE(DecodeErrorResponse(error_frame->payload).IsInvalidArgument());
  CloseFd(*fd);
  // A bit-flipped CRC likewise.
  auto fd2 = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd2.ok());
  std::string frame = EncodeFrame(MessageType::kSearch, 9,
                                  EncodeSearchRequest(SearchRequest{}));
  frame[kFrameHeaderBytes] ^= 0x01;
  ASSERT_TRUE(SendAll(*fd2, frame, 1000).ok());
  auto crc_error = RecvFrame(*fd2, 2000, 2000);
  ASSERT_TRUE(crc_error.ok());
  EXPECT_EQ(crc_error->header.type, MessageType::kError);
  CloseFd(*fd2);
  // The server still answers healthy clients afterwards.
  TindClient client(ClientFor(*server));
  EXPECT_TRUE(client.Search(0).ok());
  EXPECT_GE(server->counters().protocol_errors, 2u);
}

TEST_F(ServeTest, SlowLorisConnectionIsCutWithoutHangingTheServer) {
  ServerOptions options;
  options.io_timeout_ms = 100;
  auto server = StartServer(options);
  auto loris = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(loris.ok());
  const std::string frame =
      EncodeFrame(MessageType::kSearch, 1, EncodeSearchRequest({}));
  ASSERT_TRUE(SendAll(*loris, std::string_view(frame).substr(0, 6), 1000)
                  .ok());
  // While the loris dangles, normal traffic keeps flowing.
  TindClient client(ClientFor(*server));
  EXPECT_TRUE(client.Search(0).ok());
  // The server must cut the stalled connection within its io timeout.
  const auto cut = RecvFrame(*loris, 3000, 3000);
  EXPECT_TRUE(cut.status().IsIOError()) << cut.status().ToString();
  CloseFd(*loris);
  EXPECT_GE(server->counters().slow_loris_drops, 1u);
}

TEST_F(ServeTest, ShutdownDrainsInFlightRequests) {
  ServerOptions options;
  options.execution_pace_ms = 20;  // Hold each query so work queues up.
  auto server = StartServer(options);
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  SearchRequest request;
  request.attribute = 0;
  request.epsilon = 3.0;
  request.delta = 7;
  constexpr uint64_t kBurst = 6;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    ASSERT_TRUE(SendFrame(*fd, MessageType::kSearch, id,
                          EncodeSearchRequest(request), 1000)
                    .ok());
  }
  // Wait for the whole burst to be admitted: the drain guarantee covers
  // admitted requests, not bytes still sitting in the kernel's buffers.
  ASSERT_TRUE(
      WaitUntil([&] { return server->counters().accepted >= kBurst; }));
  ASSERT_EQ(server->counters().accepted, kBurst);
  server->Shutdown();  // Must drain: every queued request gets an answer.
  std::set<uint64_t> answered;
  for (uint64_t i = 0; i < kBurst; ++i) {
    auto frame = RecvFrame(*fd, 2000, 2000);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    ASSERT_TRUE(frame->header.type == MessageType::kSearchResult ||
                frame->header.type == MessageType::kError)
        << static_cast<int>(frame->header.type);
    answered.insert(frame->header.request_id);
  }
  EXPECT_EQ(answered.size(), kBurst);
  CloseFd(*fd);
  const auto counters = server->counters();
  EXPECT_EQ(counters.accepted,
            counters.completed + counters.deadline_exceeded);
}

TEST_F(ServeTest, IngestDisabledRejectsApplyDeltaAsFailedPrecondition) {
  auto server = StartServer(ServerOptions{});  // allow_ingest defaults off.
  TindClient client(ClientFor(*server));
  scenario::MutationSpec spec;
  spec.num_ops = 4;
  const RevisionDelta delta =
      scenario::MutateCorpus(corpus_->dataset, 3, spec);
  const auto reply = client.ApplyDelta(delta);
  EXPECT_TRUE(reply.status().IsFailedPrecondition())
      << reply.status().ToString();
  EXPECT_EQ(server->counters().deltas_applied, 0u);
  EXPECT_EQ(server->epoch_sequence(), 0u);
  // The refusal must not poison the connection for queries.
  EXPECT_TRUE(client.Search(0).ok());
}

TEST_F(ServeTest, LiveIngestFlipsServedAnswersToThePostDeltaIndex) {
  ServerOptions options;
  options.allow_ingest = true;
  auto server = StartServer(options);
  TindClient client(ClientFor(*server));

  scenario::MutationSpec spec;
  spec.num_ops = 12;
  const RevisionDelta delta =
      scenario::MutateCorpus(corpus_->dataset, 17, spec);
  auto oracle = ApplyDeltaToDataset(corpus_->dataset, delta);
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_GT(oracle->dataset->size(), corpus_->dataset.size())
      << "delta added no attribute; pick another seed";
  auto rebuilt = TindIndex::Build(*oracle->dataset, BuildOptions());
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();

  // Pre-delta the first added id does not exist on the server.
  const AttributeId first_added =
      static_cast<AttributeId>(corpus_->dataset.size());
  EXPECT_TRUE(client.Search(first_added).status().IsInvalidArgument());

  auto applied = client.ApplyDelta(delta);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->sequence, 1u);
  EXPECT_EQ(applied->versions_appended + applied->attributes_added +
                applied->attributes_retired,
            spec.num_ops);
  EXPECT_EQ(applied->slices_rebuilt, 0u);
  EXPECT_EQ(server->epoch_sequence(), 1u);
  EXPECT_EQ(server->counters().deltas_applied, 1u);

  // Post-delta every served answer — including for the new ids — must match
  // a fresh Build over the mutated corpus.
  const TindParams params = Params();
  for (size_t q = 0; q < oracle->dataset->size(); ++q) {
    const AttributeId attr = static_cast<AttributeId>(q);
    const auto& history = oracle->dataset->attribute(attr);
    auto reply = client.Search(attr);
    ASSERT_TRUE(reply.ok()) << "q=" << q << ": " << reply.status().ToString();
    EXPECT_EQ(reply->ids, (*rebuilt)->Search(history, params)) << "q=" << q;
    auto reverse = client.ReverseSearch(attr);
    ASSERT_TRUE(reverse.ok()) << reverse.status().ToString();
    EXPECT_EQ(reverse->ids, (*rebuilt)->ReverseSearch(history, params))
        << "q=" << q;
  }
  server->Shutdown();
  // Exactly one invalid request: the deliberate pre-delta out-of-range
  // probe. It is well-formed, so it is no protocol error.
  EXPECT_EQ(server->counters().request_invalid, 1u);
  EXPECT_EQ(server->counters().protocol_errors, 0u);
}

TEST_F(ServeTest, OpenLoopLoadAccountsForEveryRequest) {
  auto server = StartServer(ServerOptions{});
  LoadOptions load;
  load.client = ClientFor(*server);
  load.client.max_attempts = 3;
  load.qps = 120;
  load.duration_s = 0.5;
  load.workers = 2;
  load.reverse_fraction = 0.3;
  load.discovery_fraction = 0.1;
  load.num_attributes = corpus_->dataset.size();
  load.seed = 5;
  const LoadReport report = RunOpenLoopLoad(load);
  EXPECT_GT(report.offered, 0u);
  EXPECT_TRUE(report.AllAccounted())
      << report.ToJson().Dump(2);
  EXPECT_GT(report.ok, 0u);
  server->Shutdown();
}

// ---- Executor pool --------------------------------------------------------

TEST_F(ServeTest, HeavyWindowDoesNotBlockSearchOnAnotherConnection) {
  // Every query costs 40 ms: the 16-wide discovery window holds its executor
  // for 640 ms, one search for 40 ms. A second executor must answer the
  // search while the window is still in flight.
  ServerOptions options;
  options.execution_pace_ms = 40;
  options.default_deadline_ms = 5000;
  auto server = StartServer(options);
  TindClient client(ClientFor(*server));
  ASSERT_TRUE(client.Ping().ok());  // Connected before the window goes out.
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  SearchRequest window;
  window.attribute = 0;
  window.window_end = 16;
  ASSERT_LE(window.window_end, corpus_->dataset.size());
  ASSERT_TRUE(SendFrame(*fd, MessageType::kDiscoveryWindow, 1,
                        EncodeSearchRequest(window), 1000)
                  .ok());
  ASSERT_TRUE(WaitUntil([&] { return server->counters().accepted >= 1; }));

  const TindParams params = Params();
  auto reply = client.Search(3);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  EXPECT_EQ(reply->ids, index_->Search(corpus_->dataset.attribute(3), params));
  // The search is done while the paced window on the other executor is not.
  EXPECT_EQ(server->counters().completed, 1u);

  auto frame = RecvFrame(*fd, 5000, 5000);
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_EQ(frame->header.type, MessageType::kDiscoveryResult);
  auto discovered = DecodeDiscoveryResponse(frame->payload);
  ASSERT_TRUE(discovered.ok()) << discovered.status().ToString();
  std::vector<TindPair> expected;
  for (AttributeId lhs = window.attribute; lhs < window.window_end; ++lhs) {
    for (const AttributeId rhs :
         index_->Search(corpus_->dataset.attribute(lhs), params)) {
      expected.push_back(TindPair{lhs, rhs});
    }
  }
  EXPECT_EQ(discovered->pairs, expected);
  CloseFd(*fd);
  server->Shutdown();
  EXPECT_EQ(server->counters().completed, 2u);
}

TEST_F(ServeTest, PipelinedMixedLoadOverConnectionsMatchesDirectIndex) {
  // Three connections each pipeline forward, reverse, streamed and
  // discovery-window requests without waiting for answers; the executors
  // answer them concurrently and in any order. Every answer, matched by
  // request id, must equal the direct index call.
  ServerOptions options;
  options.default_deadline_ms = 5000;
  auto server = StartServer(options);
  const size_t n = corpus_->dataset.size();
  const TindParams params = Params();
  const auto forward = [&](AttributeId a) {
    return index_->Search(corpus_->dataset.attribute(a), params);
  };
  const auto reverse = [&](AttributeId a) {
    return index_->ReverseSearch(corpus_->dataset.attribute(a), params);
  };
  constexpr size_t kConnections = 3;
  constexpr uint64_t kPerConnection = 48;
  constexpr AttributeId kWindow = 5;
  enum class Kind { kForward, kReverse, kStream, kReverseStream, kWindow };
  const auto kind_of = [](uint64_t id) { return static_cast<Kind>(id % 5); };
  const auto attribute_of = [n](uint64_t id) {
    return static_cast<AttributeId>((id * 7) % n);
  };

  // Each connection sends its whole share, then collects every frame.
  std::vector<std::vector<Frame>> received(kConnections);
  std::vector<Status> failures(kConnections, Status::OK());
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
      if (!fd.ok()) {
        failures[c] = fd.status();
        return;
      }
      for (uint64_t i = 0; i < kPerConnection; ++i) {
        const uint64_t id = c * kPerConnection + i;
        SearchRequest request;
        request.attribute = attribute_of(id);
        MessageType type = MessageType::kSearch;
        std::string payload;
        switch (kind_of(id)) {
          case Kind::kForward:
            payload = EncodeSearchRequest(request);
            break;
          case Kind::kReverse:
            type = MessageType::kReverseSearch;
            payload = EncodeSearchRequest(request);
            break;
          case Kind::kStream:
          case Kind::kReverseStream: {
            type = MessageType::kSearchStream;
            SearchStreamRequest stream;
            stream.base = request;
            stream.reverse = kind_of(id) == Kind::kReverseStream;
            payload = EncodeSearchStreamRequest(stream);
            break;
          }
          case Kind::kWindow:
            type = MessageType::kDiscoveryWindow;
            request.window_end = static_cast<AttributeId>(
                std::min<size_t>(n, request.attribute + kWindow));
            payload = EncodeSearchRequest(request);
            break;
        }
        const Status sent = SendFrame(*fd, type, id, payload, 1000);
        if (!sent.ok()) {
          failures[c] = sent;
          CloseFd(*fd);
          return;
        }
      }
      uint64_t terminal = 0;
      while (terminal < kPerConnection) {
        auto frame = RecvFrame(*fd, 10000, 5000);
        if (!frame.ok()) {
          failures[c] = frame.status();
          break;
        }
        if (frame->header.type != MessageType::kSearchPartial) ++terminal;
        received[c].push_back(std::move(*frame));
      }
      CloseFd(*fd);
    });
  }
  for (std::thread& t : threads) t.join();

  for (size_t c = 0; c < kConnections; ++c) {
    ASSERT_TRUE(failures[c].ok()) << "conn " << c << ": "
                                  << failures[c].ToString();
    std::set<uint64_t> answered;
    std::set<uint64_t> partials;
    for (const Frame& frame : received[c]) {
      const uint64_t id = frame.header.request_id;
      ASSERT_EQ(id / kPerConnection, c) << "answer on the wrong connection";
      const AttributeId attr = attribute_of(id);
      const Kind kind = kind_of(id);
      const bool reverse_stream = kind == Kind::kReverseStream;
      switch (frame.header.type) {
        case MessageType::kSearchPartial: {
          ASSERT_TRUE(kind == Kind::kStream || reverse_stream) << id;
          EXPECT_FALSE(answered.count(id)) << "partial after final: " << id;
          auto partial = DecodeSearchPartial(frame.payload);
          ASSERT_TRUE(partial.ok()) << partial.status().ToString();
          const std::set<AttributeId> ids(partial->ids.begin(),
                                          partial->ids.end());
          for (const AttributeId exact :
               reverse_stream ? reverse(attr) : forward(attr)) {
            EXPECT_TRUE(ids.count(exact)) << "id=" << id << " " << exact;
          }
          partials.insert(id);
          break;
        }
        case MessageType::kSearchResult: {
          ASSERT_NE(kind, Kind::kWindow) << id;
          auto response = DecodeSearchResponse(frame.payload);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          EXPECT_FALSE(response->degraded) << id;
          const bool is_reverse = kind == Kind::kReverse || reverse_stream;
          EXPECT_EQ(response->ids, is_reverse ? reverse(attr) : forward(attr))
              << "id=" << id;
          EXPECT_TRUE(answered.insert(id).second) << "answered twice: " << id;
          break;
        }
        case MessageType::kDiscoveryResult: {
          ASSERT_EQ(kind, Kind::kWindow) << id;
          auto response = DecodeDiscoveryResponse(frame.payload);
          ASSERT_TRUE(response.ok()) << response.status().ToString();
          std::vector<TindPair> expected;
          const AttributeId end =
              static_cast<AttributeId>(std::min<size_t>(n, attr + kWindow));
          for (AttributeId lhs = attr; lhs < end; ++lhs) {
            for (const AttributeId rhs : forward(lhs)) {
              expected.push_back(TindPair{lhs, rhs});
            }
          }
          EXPECT_EQ(response->pairs, expected) << "id=" << id;
          EXPECT_TRUE(answered.insert(id).second) << "answered twice: " << id;
          break;
        }
        default:
          ADD_FAILURE() << "id=" << id << " frame type "
                        << static_cast<int>(frame.header.type) << ": "
                        << DecodeErrorResponse(frame.payload).ToString();
      }
    }
    EXPECT_EQ(answered.size(), kPerConnection) << "conn " << c;
    for (uint64_t i = 0; i < kPerConnection; ++i) {
      const uint64_t id = c * kPerConnection + i;
      const Kind kind = kind_of(id);
      if (kind == Kind::kStream || kind == Kind::kReverseStream) {
        EXPECT_TRUE(partials.count(id)) << "stream without partial: " << id;
      }
    }
  }
  server->Shutdown();
  const auto counters = server->counters();
  EXPECT_EQ(counters.accepted, kConnections * kPerConnection);
  EXPECT_EQ(counters.accepted,
            counters.completed + counters.deadline_exceeded);
  EXPECT_EQ(counters.deadline_exceeded, 0u);
  EXPECT_EQ(counters.shed, 0u);
}

// ---- Streaming (anytime) op ---------------------------------------------

TEST_F(ServeTest, StreamedAnswersMatchDirectIndexCallsWithSoundPartials) {
  auto server = StartServer(ServerOptions{});
  TindClient client(ClientFor(*server));
  const TindParams params = Params();
  const size_t n = corpus_->dataset.size();
  for (size_t q = 0; q < n; ++q) {
    const AttributeId attr = static_cast<AttributeId>(q);
    const auto& history = corpus_->dataset.attribute(attr);
    for (const bool reverse : {false, true}) {
      StreamReply reply;
      const Status status = reverse ? client.ReverseSearchStream(attr, &reply)
                                    : client.SearchStream(attr, &reply);
      ASSERT_TRUE(status.ok()) << status.ToString();
      const auto exact = reverse ? index_->ReverseSearch(history, params)
                                 : index_->Search(history, params);
      EXPECT_FALSE(reply.degraded) << "q=" << q;
      EXPECT_EQ(reply.ids, exact) << "q=" << q << " reverse=" << reverse;
      // Exactly one partial preceded the final frame, and it is a sound
      // superset of the exact answer.
      ASSERT_TRUE(reply.got_partial) << "q=" << q;
      EXPECT_EQ(reply.partial_stage,
                static_cast<uint8_t>(SearchStage::kProbe));
      const std::set<AttributeId> partial(reply.partial_ids.begin(),
                                          reply.partial_ids.end());
      for (const AttributeId id : exact) {
        EXPECT_TRUE(partial.count(id)) << "q=" << q << " id=" << id;
      }
      EXPECT_LE(reply.ttfr_ms, reply.total_ms) << "q=" << q;
    }
  }
  server->Shutdown();
  EXPECT_EQ(server->counters().completed, 2 * n);
  EXPECT_EQ(server->counters().degraded, 0u);
}

TEST_F(ServeTest, StreamDeadlineDegradesToBestStageWithConsent) {
  // execution_pace_ms holds the funnel between the partial and the final
  // frame long enough for the 50 ms deadline to fire deterministically
  // mid-stream.
  ServerOptions options;
  options.execution_pace_ms = 300;
  auto server = StartServer(options);
  ClientOptions client_options = ClientFor(*server);
  client_options.deadline_ms = 50;
  client_options.allow_degraded = true;
  TindClient client(client_options);
  StreamReply reply;
  const Status status = client.SearchStream(0, &reply);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reply.got_partial);
  EXPECT_TRUE(reply.degraded);
  // The degraded final is the best completed stage's superset: still sound.
  const auto exact = index_->Search(corpus_->dataset.attribute(0), Params());
  const std::set<AttributeId> ids(reply.ids.begin(), reply.ids.end());
  for (const AttributeId id : exact) EXPECT_TRUE(ids.count(id)) << id;
  EXPECT_TRUE(WaitUntil([&] { return server->counters().degraded >= 1; }));
  server->Shutdown();
}

TEST_F(ServeTest, StreamDeadlineWithoutConsentErrorsAfterPartial) {
  ServerOptions options;
  options.execution_pace_ms = 300;
  auto server = StartServer(options);
  ClientOptions client_options = ClientFor(*server);
  client_options.deadline_ms = 50;  // No degraded consent.
  TindClient client(client_options);
  StreamReply reply;
  const Status status = client.SearchStream(0, &reply);
  EXPECT_TRUE(status.IsDeadlineExceeded()) << status.ToString();
  // The partial frame arrived before the deadline killed the funnel — the
  // caller still holds a usable superset (the whole point of the op).
  EXPECT_TRUE(reply.got_partial);
  const auto exact = index_->Search(corpus_->dataset.attribute(0), Params());
  const std::set<AttributeId> partial(reply.partial_ids.begin(),
                                      reply.partial_ids.end());
  for (const AttributeId id : exact) EXPECT_TRUE(partial.count(id)) << id;
  EXPECT_TRUE(
      WaitUntil([&] { return server->counters().deadline_exceeded >= 1; }));
  server->Shutdown();
}

TEST_F(ServeTest, StreamUnderWatermarkDegradesLikeBatchRequests) {
  ServerOptions options;
  options.degrade_watermark = 0;  // Every dispatch window is "overloaded".
  auto server = StartServer(options);
  ClientOptions client_options = ClientFor(*server);
  client_options.allow_degraded = true;
  TindClient client(client_options);
  StreamReply reply;
  const Status status = client.SearchStream(0, &reply);
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(reply.got_partial);
  EXPECT_TRUE(reply.degraded);
  const auto exact = index_->Search(corpus_->dataset.attribute(0), Params());
  const std::set<AttributeId> ids(reply.ids.begin(), reply.ids.end());
  for (const AttributeId id : exact) EXPECT_TRUE(ids.count(id)) << id;
  server->Shutdown();
}

TEST_F(ServeTest, MalformedStreamRequestIsTypedErrorAndServerSurvives) {
  auto server = StartServer(ServerOptions{});
  auto fd = ConnectTcp("127.0.0.1", server->port(), 1000);
  ASSERT_TRUE(fd.ok());
  // A syntactically valid frame whose payload is not a stream request.
  ASSERT_TRUE(SendFrame(*fd, MessageType::kSearchStream, 3,
                        "garbage stream payload", 1000)
                  .ok());
  auto error_frame = RecvFrame(*fd, 2000, 2000);
  ASSERT_TRUE(error_frame.ok()) << error_frame.status().ToString();
  EXPECT_EQ(error_frame->header.type, MessageType::kError);
  EXPECT_TRUE(DecodeErrorResponse(error_frame->payload).IsInvalidArgument());
  CloseFd(*fd);
  // Out-of-range attribute over the real codec path.
  TindClient client(ClientFor(*server));
  StreamReply reply;
  const Status status =
      client.SearchStream(static_cast<AttributeId>(1u << 20), &reply);
  EXPECT_TRUE(status.IsInvalidArgument()) << status.ToString();
  EXPECT_FALSE(reply.got_partial);
  // The server still answers healthy streams afterwards.
  StreamReply healthy;
  EXPECT_TRUE(client.SearchStream(0, &healthy).ok());
  // The garbage payload is a protocol error; the out-of-range attribute is
  // an invalid request.
  EXPECT_EQ(server->counters().protocol_errors, 1u);
  EXPECT_EQ(server->counters().request_invalid, 1u);
  server->Shutdown();
}

TEST_F(ServeTest, LoadDriverStreamsReportTimeToFirstResult) {
  auto server = StartServer(ServerOptions{});
  LoadOptions load;
  load.client = ClientFor(*server);
  load.client.max_attempts = 3;
  load.qps = 120;
  load.duration_s = 0.5;
  load.workers = 2;
  load.reverse_fraction = 0.3;
  load.stream_fraction = 1.0;  // Every query over the streaming op.
  load.hot_fraction = 0.8;     // Exercise the Zipf hot-set picker too.
  load.hot_set_fraction = 0.1;
  load.num_attributes = corpus_->dataset.size();
  load.seed = 5;
  const LoadReport report = RunOpenLoopLoad(load);
  EXPECT_GT(report.offered, 0u);
  EXPECT_TRUE(report.AllAccounted()) << report.ToJson().Dump(2);
  EXPECT_GT(report.ok, 0u);
  EXPECT_EQ(report.streams, report.offered);
  EXPECT_GE(report.stream_partials, report.ok);
  EXPECT_GT(report.ttfr_p50_ms, 0.0);
  EXPECT_LE(report.ttfr_p50_ms, report.max_ms + 1e-9)
      << report.ToJson().Dump(2);
  server->Shutdown();
}

#endif  // defined(__unix__) || defined(__APPLE__)

}  // namespace
}  // namespace tind::serve
