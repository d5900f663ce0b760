// Suite for the overload-resilience subsystem (labels `resilience` and,
// for the ChaosNet-driven tests, `chaos`): the CoDel admission controller
// and brownout latch, the frame deadline and bounded drain, and a live
// service abused through the fault-injecting ChaosNet proxy (torn frames,
// RSTs, freezes, byte-trickling), which must keep serving fresh clients
// after every fault. The admission state machine and the drain are shared
// across threads by design, so this binary belongs in the TSAN run:
//   cmake -B build-tsan -S . -DREGAL_SANITIZE=thread
//   cmake --build build-tsan -j && ctest --test-dir build-tsan -L chaos
// (-L resilience runs the whole suite; ASAN/UBSAN configs take it the
// same way.)

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <filesystem>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "chaosnet.h"
#include "query/engine.h"
#include "recovery/durable.h"
#include "safety/admission.h"
#include "safety/failpoint.h"
#include "server/client.h"
#include "server/net.h"
#include "server/protocol.h"
#include "server/service.h"
#include "util/status.h"

namespace regal {
namespace {

using safety::AdmitOutcome;

constexpr char kDoc[] =
    "<doc><sec><para>alpha beta</para><para>gamma</para></sec>"
    "<sec><para>delta epsilon</para></sec></doc>";

int64_t WallMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// The typed shed verdict and its wire fields.

TEST(ResilienceStatusTest, OverloadedCodeRoundTrips) {
  Status shed = Status::Overloaded("too busy");
  EXPECT_EQ(shed.code(), StatusCode::kOverloaded);
  EXPECT_EQ(StatusCodeToString(shed.code()), std::string("OVERLOADED"));

  server::Request request;
  request.tenant = "t";
  request.query = "sec";
  request.priority = 2;
  auto parsed = server::ParseRequest(server::RenderRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->priority, 2);

  server::Response response;
  response.id = 1;
  response.ok = false;
  response.code = "OVERLOADED";
  response.retry_after_ms = 37.5;
  auto back = server::ParseResponse(server::RenderResponse(response));
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_DOUBLE_EQ(back->retry_after_ms, 37.5);

  // retry_after_ms is omitted from the wire when it carries no hint.
  response.retry_after_ms = 0;
  EXPECT_EQ(server::RenderResponse(response).find("retry_after_ms"),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Admission controller: refusal paths, then the CoDel control law and the
// brownout latch on a fake clock.

TEST(AdmissionTest, ImmediateAdmitBelowCapacity) {
  safety::AdmissionOptions options;
  options.capacity = 2;
  safety::AdmissionController controller(options);
  EXPECT_EQ(controller.Admit(0).outcome, AdmitOutcome::kAdmitted);
  EXPECT_EQ(controller.Admit(0).outcome, AdmitOutcome::kAdmitted);
  safety::AdmissionSnapshot snap = controller.Snapshot();
  EXPECT_EQ(snap.in_flight, 2);
  EXPECT_EQ(snap.admitted_total, 2);
  controller.Leave();
  controller.Leave();
  EXPECT_EQ(controller.Snapshot().in_flight, 0);
}

TEST(AdmissionTest, QueueFullRefusedImmediatelyWithRetryHint) {
  safety::AdmissionOptions options;
  options.capacity = 1;
  options.max_queue = 1;
  safety::AdmissionController controller(options);
  ASSERT_EQ(controller.Admit(1).outcome, AdmitOutcome::kAdmitted);

  // One waiter fills the bounded queue...
  std::thread waiter([&] { controller.Admit(0); });
  while (controller.Snapshot().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  // ...so the next arrival is refused without waiting at all — even at
  // priority: the queue bound protects memory, not fairness.
  safety::AdmitDecision decision = controller.Admit(5);
  EXPECT_EQ(decision.outcome, AdmitOutcome::kQueueFull);
  EXPECT_GT(decision.retry_after_ms, 0);
  controller.Leave();
  waiter.join();
  controller.Leave();
}

TEST(AdmissionTest, WaiterTimesOutWhenSlotNeverFrees) {
  safety::AdmissionOptions options;
  options.capacity = 1;
  options.max_wait_ms = 50;
  safety::AdmissionController controller(options);
  ASSERT_EQ(controller.Admit(1).outcome, AdmitOutcome::kAdmitted);
  const int64_t start = WallMs();
  safety::AdmitDecision decision = controller.Admit(0);
  EXPECT_EQ(decision.outcome, AdmitOutcome::kTimedOut);
  EXPECT_GE(WallMs() - start, 45);
  EXPECT_GT(decision.retry_after_ms, 0);
  EXPECT_EQ(controller.Snapshot().shed_total, 1);
  controller.Leave();
}

TEST(AdmissionTest, ShutdownWakesWaitersAndRefusesNewWork) {
  safety::AdmissionOptions options;
  options.capacity = 1;
  options.max_wait_ms = 60000;
  safety::AdmissionController controller(options);
  ASSERT_EQ(controller.Admit(1).outcome, AdmitOutcome::kAdmitted);
  std::atomic<int> outcome{-1};
  std::thread waiter([&] {
    outcome.store(static_cast<int>(controller.Admit(0).outcome));
  });
  while (controller.Snapshot().queued < 1) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  controller.Shutdown();
  waiter.join();
  EXPECT_EQ(outcome.load(), static_cast<int>(AdmitOutcome::kShutdown));
  EXPECT_EQ(controller.Admit(1).outcome, AdmitOutcome::kShutdown);
}

// Drives a controller through a deterministic CoDel episode on a fake
// clock: waiter threads park in Admit(0); the test owns when the clock
// moves and when the current slot holder leaves, so sojourn times — and
// therefore every control-law transition — are exact.
class CodelHarness {
 public:
  explicit CodelHarness(safety::AdmissionController* controller)
      : controller_(controller) {}

  ~CodelHarness() { Join(); }

  void SpawnWaiter() {
    std::lock_guard<std::mutex> lock(mu_);
    threads_.emplace_back([this] {
      safety::AdmitDecision decision = controller_->Admit(0);
      std::unique_lock<std::mutex> lock(mu_);
      if (decision.outcome == AdmitOutcome::kShed) ++shed_;
      if (decision.outcome == AdmitOutcome::kAdmitted) {
        const int order = ++admitted_;
        cv_.notify_all();
        cv_.wait(lock, [&] { return released_ >= order; });
        lock.unlock();
        controller_->Leave();
        return;
      }
      cv_.notify_all();
    });
  }

  void WaitAdmitted(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return admitted_ >= n; });
  }

  void WaitShed(int n) {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return shed_ >= n; });
  }

  void WaitQueued(int n) {
    while (controller_->Snapshot().queued < n) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  /// Lets the longest-held admitted waiter release its slot.
  void ReleaseOne() {
    std::lock_guard<std::mutex> lock(mu_);
    ++released_;
    cv_.notify_all();
  }

  int shed() {
    std::lock_guard<std::mutex> lock(mu_);
    return shed_;
  }

  void Join() {
    std::vector<std::thread> threads;
    {
      std::lock_guard<std::mutex> lock(mu_);
      threads.swap(threads_);
    }
    for (auto& thread : threads) thread.join();
  }

 private:
  safety::AdmissionController* controller_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::thread> threads_;
  int admitted_ = 0;
  int released_ = 0;
  int shed_ = 0;
};

safety::AdmissionOptions FakeClockCodelOptions(
    const std::shared_ptr<std::atomic<int64_t>>& clock) {
  safety::AdmissionOptions options;
  options.capacity = 1;
  options.max_queue = 64;
  options.max_wait_ms = 1'000'000;
  options.target_ms = 1;
  options.interval_ms = 10;
  options.brownout_after_ms = 50;
  options.brownout_exit_ms = 30;
  options.clock_ms = [clock] { return clock->load(); };
  return options;
}

// Runs the scripted episode that latches brownout: standing queue above
// target for an interval -> dropping; one shed at the drop cadence;
// dropping sustained past brownout_after_ms -> brownout. Leaves the
// controller with the slot free, brownout latched, and `dropping` still
// set. Shared with the service-level brownout test below.
void DriveIntoBrownout(safety::AdmissionController* controller,
                       std::atomic<int64_t>* clock, CodelHarness* harness) {
  // t=0: an unrelated request holds the only slot; two waiters queue.
  ASSERT_EQ(controller->Admit(1).outcome, AdmitOutcome::kAdmitted);
  harness->SpawnWaiter();
  harness->SpawnWaiter();
  harness->WaitQueued(2);

  // t=10: slot frees; the winner's sojourn (10ms) is over target with the
  // queue still populated, starting the one-interval grace period.
  clock->store(10);
  controller->Leave();
  harness->WaitAdmitted(1);
  harness->SpawnWaiter();
  harness->WaitQueued(2);

  // t=30: past the grace interval -> the controller enters `dropping`
  // (the first drop is scheduled one period out, so this winner passes).
  clock->store(30);
  harness->ReleaseOne();
  harness->WaitAdmitted(2);
  EXPECT_TRUE(controller->Snapshot().dropping);
  harness->SpawnWaiter();
  harness->WaitQueued(2);

  // A third waiter keeps the queue populated through the next admission:
  // a winner that empties the queue would (correctly) read that as the
  // congestion clearing and reset the dropping state.
  harness->SpawnWaiter();
  harness->WaitQueued(3);

  // t=45: past drop_next -> the first waiter to wake is shed (the cadence
  // advances), the next takes the slot, the last stays parked.
  clock->store(45);
  harness->ReleaseOne();
  harness->WaitShed(1);
  harness->WaitAdmitted(3);
  EXPECT_EQ(harness->shed(), 1);
  EXPECT_GE(controller->Snapshot().drop_count, 2);
  EXPECT_TRUE(controller->Snapshot().dropping);

  // t=85: dropping has been continuous since t=30 (> brownout_after_ms):
  // brownout latches.
  clock->store(85);
  EXPECT_TRUE(controller->InBrownout());
  EXPECT_EQ(controller->Snapshot().brownout_entries, 1);

  // Drain the episode: the parked waiter is the last out, and its
  // empty-queue admission ends the dropping state (brownout stays latched
  // until the calm has lasted brownout_exit_ms).
  harness->ReleaseOne();
  harness->WaitAdmitted(4);
  harness->ReleaseOne();
  harness->Join();
}

TEST(AdmissionTest, CodelShedsStandingQueueAndBrownoutLatches) {
  auto clock = std::make_shared<std::atomic<int64_t>>(0);
  safety::AdmissionController controller(FakeClockCodelOptions(clock));
  CodelHarness harness(&controller);
  DriveIntoBrownout(&controller, clock.get(), &harness);

  // Load gone: a below-target admission leaves the dropping state, which
  // starts (not completes) the brownout exit clock.
  safety::AdmitDecision calm = controller.Admit(1);
  ASSERT_EQ(calm.outcome, AdmitOutcome::kAdmitted);
  controller.Leave();
  EXPECT_FALSE(controller.Snapshot().dropping);
  EXPECT_TRUE(controller.InBrownout());

  clock->store(85 + 25);  // Calm, but shy of brownout_exit_ms.
  EXPECT_TRUE(controller.InBrownout());
  clock->store(85 + 35);  // Calm past the exit threshold: unlatch.
  EXPECT_FALSE(controller.InBrownout());
  EXPECT_EQ(controller.Snapshot().brownout_entries, 1);
}

// ---------------------------------------------------------------------------
// Frame deadline and bounded drain (socket-level units; the service
// versions run under ChaosNet below).

// Writes `frame` to `fd`: the header at once, then the payload one byte
// every `gap_ms`. Stops early once the reader has gone.
void TrickleFrame(int fd, const std::string& frame, int gap_ms) {
  if (!net::SendAll(fd, frame.data(), server::kFrameHeaderBytes)) return;
  for (size_t i = server::kFrameHeaderBytes; i < frame.size(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(gap_ms));
    if (!net::SendAll(fd, frame.data() + i, 1)) return;
  }
}

TEST(FrameDeadlineTest, ReadFrameExpiresOverdueAndSparesPromptFrames) {
  const std::string body = "{\"query\": \"para within sec\"}";
  const std::string frame = server::EncodeFrame(body);
  std::string payload;
  int prompt[2], trickled[2], slow[2], silent[2];
  for (int* pair : {prompt, trickled, slow, silent}) {
    ASSERT_EQ(socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  }

  // A frame that is already buffered reads at once.
  ASSERT_TRUE(net::SendAll(prompt[1], frame));
  EXPECT_EQ(server::ReadFrame(prompt[0], 1024, &payload, /*deadline_ms=*/50),
            server::FrameRead::kOk);
  EXPECT_EQ(payload, body);

  // A trickled payload keeps every per-recv timeout fresh but misses the
  // whole-frame deadline: expired within the deadline plus slack.
  net::SetSocketTimeouts(trickled[0], 2000);
  std::thread trickler([&] { TrickleFrame(trickled[1], frame, 20); });
  const int64_t start = WallMs();
  EXPECT_EQ(server::ReadFrame(trickled[0], 1024, &payload, 50),
            server::FrameRead::kExpired);
  const int64_t elapsed = WallMs() - start;
  EXPECT_GE(elapsed, 45);
  EXPECT_LT(elapsed, 50 + 1000);
  shutdown(trickled[0], SHUT_RDWR);  // The trickler's next send fails.
  trickler.join();

  // A deadline of 0 leaves only the socket's receive timeout: the same
  // trickle completes...
  net::SetSocketTimeouts(slow[0], 2000);
  std::thread slow_sender([&] { TrickleFrame(slow[1], frame, 5); });
  EXPECT_EQ(server::ReadFrame(slow[0], 1024, &payload, 0),
            server::FrameRead::kOk);
  EXPECT_EQ(payload, body);
  slow_sender.join();

  // ...and a peer silent after its header times out at that receive
  // timeout, which also ends the wait first when it is the shorter bound.
  net::SetSocketTimeouts(silent[0], 50);
  ASSERT_TRUE(
      net::SendAll(silent[1], frame.data(), server::kFrameHeaderBytes));
  EXPECT_EQ(server::ReadFrame(silent[0], 1024, &payload, 0),
            server::FrameRead::kTimeout);
  ASSERT_TRUE(
      net::SendAll(silent[1], frame.data(), server::kFrameHeaderBytes));
  EXPECT_EQ(server::ReadFrame(silent[0], 1024, &payload, 10000),
            server::FrameRead::kTimeout);

  for (int* pair : {prompt, trickled, slow, silent}) {
    close(pair[0]);
    close(pair[1]);
  }
}

TEST(ConnectionSetTest, DrainForceClosesSendWedgedHandler) {
  // A handler wedged in send() toward a peer that stopped reading is the
  // one shutdown case SHUT_RD can't cure; the drain must force it.
  auto listener = net::Listener::Open(net::ListenerOptions{});
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto peer = server::Client::Connect("127.0.0.1", listener->port());
  ASSERT_TRUE(peer.ok()) << peer.status();
  // Shrink the receive window so the sender wedges after a few KB.
  int tiny = 2048;
  setsockopt(peer->fd(), SOL_SOCKET, SO_RCVBUF, &tiny, sizeof(tiny));
  std::atomic<bool> never_stop{false};
  int fd = listener->AcceptOne(never_stop, nullptr);
  ASSERT_GE(fd, 0);

  net::ConnectionSet conns;
  std::atomic<bool> handler_started{false};
  ASSERT_TRUE(conns.Spawn(
      fd,
      [&](int conn_fd) {
        int small = 2048;
        setsockopt(conn_fd, SOL_SOCKET, SO_SNDBUF, &small, sizeof(small));
        handler_started.store(true);
        std::string chunk(8192, 'x');
        // The peer never reads: this loop blocks in send() until the
        // force phase shuts the socket down under it.
        while (net::SendAll(conn_fd, chunk)) {
        }
      },
      /*max_connections=*/4));
  while (!handler_started.load()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));

  const int64_t start = WallMs();
  int forced = conns.DrainAndJoin(/*grace_ms=*/200);
  const int64_t elapsed = WallMs() - start;
  EXPECT_EQ(forced, 1);
  // Bounded: roughly the grace period, never the send timeout.
  EXPECT_LT(elapsed, 5000);
  peer->Close();
}

// ---------------------------------------------------------------------------
// Checkpointer pause: the brownout side effect, at the engine level.

TEST(CheckpointerPauseTest, PausedCheckpointerDefersUntilResumed) {
  std::string dir = testing::TempDir() + "/resilience_ckpt";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  recovery::DurableOptions durable;
  durable.checkpoint_every_records = 1;  // Every mutation wants a snapshot.
  auto engine = QueryEngine::OpenDurable(dir, durable);
  ASSERT_TRUE(engine.ok()) << engine.status();
  ASSERT_TRUE(engine->StartBackgroundCheckpointer(5).ok());
  engine->SetCheckpointerPaused(true);
  EXPECT_TRUE(engine->checkpointer_paused());

  ASSERT_TRUE(engine->DefineRegions("a", RegionSet{Region{0, 4}}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  // Work is pending but the paused checkpointer must not have taken it.
  EXPECT_TRUE(engine->durable_store()->ShouldCheckpoint());

  engine->SetCheckpointerPaused(false);
  EXPECT_FALSE(engine->checkpointer_paused());
  const int64_t deadline = WallMs() + 10000;
  while (engine->durable_store()->ShouldCheckpoint() && WallMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_FALSE(engine->durable_store()->ShouldCheckpoint());
  engine->StopBackgroundCheckpointer();
}

// ---------------------------------------------------------------------------
// Live service: overload shedding and brownout over the wire.

class ResilienceServiceTest : public ::testing::Test {
 protected:
  void TearDown() override {
    safety::FailpointRegistry::Default().DisarmAll();
    if (chaos_ != nullptr) chaos_->Stop();
    if (service_ != nullptr) service_->Stop();
  }

  void StartService(server::ServiceOptions options = {}) {
    auto started = server::QueryService::Start(std::move(options));
    ASSERT_TRUE(started.ok()) << started.status();
    service_ = std::move(started).value();
    auto engine = QueryEngine::FromSgmlSource(kDoc);
    ASSERT_TRUE(engine.ok()) << engine.status();
    ASSERT_TRUE(
        service_->AddInstance("corpus1", std::move(engine).value()).ok());
  }

  void StartChaos(server::ChaosOptions options = {}) {
    options.upstream_port = service_->port();
    auto started = server::ChaosNet::Start(std::move(options));
    ASSERT_TRUE(started.ok()) << started.status();
    chaos_ = std::move(started).value();
  }

  server::Request MakeRequest(const std::string& tenant,
                              const std::string& query) {
    server::Request request;
    request.tenant = tenant;
    request.instance = "corpus1";
    request.query = query;
    return request;
  }

  // A fresh client connecting to `port` gets a correct answer.
  void ExpectServedVia(int port) {
    auto client = server::Client::Connect("127.0.0.1", port);
    ASSERT_TRUE(client.ok()) << client.status();
    auto response = client->Call(MakeRequest("probe", "para within sec"));
    ASSERT_TRUE(response.ok()) << response.status();
    EXPECT_TRUE(response->ok) << response->message;
    EXPECT_EQ(response->row_count, 3);
  }

  // Direct (chaos-free) liveness probe: after whatever a test dished out,
  // the service must still answer a fresh client correctly.
  void ExpectStillServing() {
    ASSERT_FALSE(service_->stopping());
    ExpectServedVia(service_->port());
  }

  std::unique_ptr<server::QueryService> service_;
  std::unique_ptr<server::ChaosNet> chaos_;
};

TEST_F(ResilienceServiceTest, OverloadShedsTypedRepliesAndRecovers) {
  server::ServiceOptions options;
  options.admission.capacity = 1;
  options.admission.max_queue = 2;
  options.admission.max_wait_ms = 100;
  options.admission.target_ms = 1;
  options.admission.interval_ms = 10;
  options.admission.brownout_after_ms = 1'000'000;  // Not under test here.
  StartService(std::move(options));

  // Occupy the only execution slot (as a long-running request would), so
  // the storm below meets a genuinely saturated service.
  ASSERT_EQ(service_->admission().Admit(1).outcome, AdmitOutcome::kAdmitted);

  std::atomic<int> overloaded{0};
  std::atomic<int> transport_errors{0};
  std::atomic<int> hintless_sheds{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 6; ++t) {
    clients.emplace_back([&] {
      auto client = server::Client::Connect("127.0.0.1", service_->port());
      if (!client.ok()) {
        transport_errors.fetch_add(1);
        return;
      }
      for (int i = 0; i < 3; ++i) {
        auto response = client->Call(MakeRequest("burst", "para within sec"));
        if (!response.ok()) {
          transport_errors.fetch_add(1);
          return;
        }
        if (!response->ok && response->code == "OVERLOADED") {
          overloaded.fetch_add(1);
          if (response->retry_after_ms <= 0) hintless_sheds.fetch_add(1);
        }
      }
    });
  }
  for (auto& client : clients) client.join();

  // Every storm request got a *typed* refusal with a backoff hint on a
  // healthy connection — never a dropped frame or a torn socket.
  EXPECT_EQ(transport_errors.load(), 0);
  EXPECT_EQ(overloaded.load(), 6 * 3);
  EXPECT_EQ(hintless_sheds.load(), 0);
  EXPECT_GE(service_->admission().Snapshot().shed_total, overloaded.load());

  // Load gone: the service answers immediately again.
  service_->admission().Leave();
  ExpectStillServing();
}

TEST_F(ResilienceServiceTest, BrownoutServesCacheResidentQueriesOnly) {
  auto clock = std::make_shared<std::atomic<int64_t>>(0);
  server::ServiceOptions options;
  options.admission = FakeClockCodelOptions(clock);
  StartService(std::move(options));

  // Warm the result cache while healthy: this query (and only it) will
  // stay answerable during the brownout.
  {
    auto client = server::Client::Connect("127.0.0.1", service_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    for (int i = 0; i < 2; ++i) {
      auto warm = client->Call(MakeRequest("warm", "para within sec"));
      ASSERT_TRUE(warm.ok()) << warm.status();
      ASSERT_TRUE(warm->ok) << warm->message;
    }
  }

  // Latch brownout deterministically through the service's controller.
  CodelHarness harness(&service_->admission());
  DriveIntoBrownout(&service_->admission(), clock.get(), &harness);
  ASSERT_TRUE(service_->admission().InBrownout());

  auto client = server::Client::Connect("127.0.0.1", service_->port());
  ASSERT_TRUE(client.ok()) << client.status();

  // Cold query: typed brownout refusal with a retry hint.
  server::Request cold = MakeRequest("brown", "word \"alpha\"");
  cold.priority = 1;  // Above the CoDel shed line: the refusal we see is
                      // the brownout's, not the control law's.
  auto refused = client->Call(cold);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_FALSE(refused->ok);
  EXPECT_EQ(refused->code, "OVERLOADED");
  EXPECT_NE(refused->message.find("brownout"), std::string::npos)
      << refused->message;
  EXPECT_GT(refused->retry_after_ms, 0);

  // Warm query: still served, browned out or not.
  server::Request hot = MakeRequest("brown", "para within sec");
  hot.priority = 1;
  auto served = client->Call(hot);
  ASSERT_TRUE(served.ok()) << served.status();
  EXPECT_TRUE(served->ok) << served->message;
  EXPECT_EQ(served->row_count, 3);

  // Calm long enough and the latch releases: cold queries work again.
  clock->fetch_add(1000);
  auto recovered = client->Call(cold);
  ASSERT_TRUE(recovered.ok()) << recovered.status();
  EXPECT_TRUE(recovered->ok) << recovered->message;
  EXPECT_FALSE(service_->admission().InBrownout());
  ExpectStillServing();
}

TEST_F(ResilienceServiceTest, BrownoutReportsUnknownNamesNotOverload) {
  auto clock = std::make_shared<std::atomic<int64_t>>(0);
  server::ServiceOptions options;
  options.admission = FakeClockCodelOptions(clock);
  StartService(std::move(options));
  CodelHarness harness(&service_->admission());
  DriveIntoBrownout(&service_->admission(), clock.get(), &harness);
  ASSERT_TRUE(service_->admission().InBrownout());

  auto client = server::Client::Connect("127.0.0.1", service_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  // No retry can make an unknown region run, so the request gets its own
  // error rather than the brownout's retryable refusal.
  server::Request unknown = MakeRequest("brown", "nosuch within sec");
  unknown.priority = 1;  // Above the CoDel shed line, as below.
  auto answered = client->Call(unknown);
  ASSERT_TRUE(answered.ok()) << answered.status();
  EXPECT_FALSE(answered->ok);
  EXPECT_EQ(answered->code, "NOT_FOUND") << answered->message;
  EXPECT_EQ(answered->retry_after_ms, 0);

  // Runnable cold work is still refused while browned out.
  server::Request cold = MakeRequest("brown", "word \"alpha\"");
  cold.priority = 1;
  auto refused = client->Call(cold);
  ASSERT_TRUE(refused.ok()) << refused.status();
  EXPECT_EQ(refused->code, "OVERLOADED") << refused->message;
}

// ---------------------------------------------------------------------------
// ChaosNet-driven tests (extra ctest label `chaos` via the name hook).

using ResilienceChaosTest = ResilienceServiceTest;

TEST_F(ResilienceChaosTest, TornFrameFailsOneCallThenFreshClientIsServed) {
  StartService();
  StartChaos();
  // Exactly the first proxied connection tears the request mid-frame.
  ASSERT_TRUE(safety::FailpointRegistry::Default()
                  .ArmFromSpec("chaos.net.torn#1")
                  .ok());
  auto client = server::Client::Connect("127.0.0.1", chaos_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_FALSE(client->Call(MakeRequest("t", "para within sec")).ok());
  EXPECT_EQ(chaos_->faults_injected(), 1);
  // The fault is spent: the next connection through the proxy is clean.
  ExpectServedVia(chaos_->port());
  ExpectStillServing();
}

TEST_F(ResilienceChaosTest, RstMidRequestFailsOneCallThenFreshClientIsServed) {
  StartService();
  StartChaos();
  // The first proxied connection is reset both ways as its request arrives.
  ASSERT_TRUE(safety::FailpointRegistry::Default()
                  .ArmFromSpec("chaos.net.rst#1")
                  .ok());
  auto client = server::Client::Connect("127.0.0.1", chaos_->port());
  ASSERT_TRUE(client.ok()) << client.status();
  EXPECT_FALSE(client->Call(MakeRequest("t", "para within sec")).ok());
  EXPECT_EQ(chaos_->faults_injected(), 1);
  ExpectServedVia(chaos_->port());
  ExpectStillServing();
}

TEST_F(ResilienceChaosTest, RstStormFailsEveryCallThenServiceRecovers) {
  StartService();
  StartChaos();
  // Every proxied connection dies by RST until disarmed.
  safety::FailpointRegistry::Default().Arm("chaos.net.rst");
  constexpr int kStorm = 5;
  for (int i = 0; i < kStorm; ++i) {
    auto client = server::Client::Connect("127.0.0.1", chaos_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    EXPECT_FALSE(client->Call(MakeRequest("t", "para within sec")).ok())
        << "call " << i;
  }
  EXPECT_EQ(chaos_->faults_injected(), kStorm);

  // Fault cleared: a fresh client through the same proxy is served again.
  safety::FailpointRegistry::Default().DisarmAll();
  ExpectServedVia(chaos_->port());
  ExpectStillServing();
}

TEST_F(ResilienceChaosTest, TrickledFrameIsReapedByWatchdog) {
  server::ServiceOptions options;
  options.frame_deadline_ms = 150;
  options.idle_timeout_ms = 2000;
  StartService(std::move(options));
  server::ChaosOptions chaos;
  chaos.trickle_bytes = 1;
  chaos.trickle_gap_ms = 30;
  StartChaos(std::move(chaos));
  safety::FailpointRegistry::Default().Arm("chaos.net.trickle");

  // The trickled bytes keep every per-recv timeout fresh, so only the
  // whole-frame deadline can end this connection.
  auto client = server::Client::Connect("127.0.0.1", chaos_->port(),
                                        /*timeout_ms=*/15000);
  ASSERT_TRUE(client.ok()) << client.status();
  auto response = client->Call(MakeRequest("sly", "para within sec"));
  EXPECT_FALSE(response.ok());

  const int64_t deadline = WallMs() + 10000;
  while (service_->watchdog_reaped() < 1 && WallMs() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(service_->watchdog_reaped(), 1);
  ExpectStillServing();
}

TEST_F(ResilienceChaosTest, FrozenConnectionsDoNotUnboundStop) {
  server::ServiceOptions options;
  options.drain_grace_ms = 300;
  options.idle_timeout_ms = 30000;
  options.frame_deadline_ms = 0;  // Watchdog off: the drain alone must cope.
  StartService(std::move(options));
  server::ChaosOptions chaos;
  chaos.freeze_ms = 30000;
  StartChaos(std::move(chaos));
  safety::FailpointRegistry::Default().Arm("chaos.net.freeze");

  // Two clients park requests behind frozen proxy connections and never
  // hear back; the server's handlers idle in their next frame read.
  std::vector<server::Client> frozen;
  for (int i = 0; i < 2; ++i) {
    auto client = server::Client::Connect("127.0.0.1", chaos_->port());
    ASSERT_TRUE(client.ok()) << client.status();
    ASSERT_TRUE(client->SendRaw(server::EncodeFrame(
        server::RenderRequest(MakeRequest("ice", "para within sec")))));
    frozen.push_back(std::move(client).value());
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  const int64_t start = WallMs();
  service_->Stop();
  const int64_t elapsed = WallMs() - start;
  // Bounded by the drain grace plus scheduling noise — never the
  // 30-second freeze or the idle timeout.
  EXPECT_LT(elapsed, 5000);
  EXPECT_TRUE(service_->stopping());
}

TEST_F(ResilienceChaosTest, FrozenConnectionTimesOutThenFreshClientIsServed) {
  StartService();
  server::ChaosOptions chaos;
  chaos.freeze_ms = 20000;
  StartChaos(std::move(chaos));
  // Only the first proxied connection freezes, once its request is through.
  ASSERT_TRUE(safety::FailpointRegistry::Default()
                  .ArmFromSpec("chaos.net.freeze#1")
                  .ok());

  // A short client timeout makes the frozen call fail fast.
  auto client = server::Client::Connect("127.0.0.1", chaos_->port(),
                                        /*timeout_ms=*/200);
  ASSERT_TRUE(client.ok()) << client.status();
  auto frozen = client->Call(MakeRequest("t", "para within sec"));
  ASSERT_FALSE(frozen.ok());
  EXPECT_EQ(frozen.status().code(), StatusCode::kDeadlineExceeded)
      << frozen.status();
  EXPECT_EQ(chaos_->faults_injected(), 1);
  ExpectServedVia(chaos_->port());
  ExpectStillServing();
}

}  // namespace
}  // namespace regal
