// Experiment: the multi-tenant query service front-end must add only
// transport overhead on top of the engine it hosts, and must hold its tail
// latency when clients misbehave. BM_ConcurrentTenants is the acceptance
// configuration — 8 concurrent closed-loop clients split across 2 tenants
// and 2 hosted corpora, result cache hot, reporting p50/p99 per-request
// latency and aggregate QPS. BM_ConcurrentTenantsWithChaos runs the same
// load while a chaos thread storms the service with connections it kills
// mid-request (RST), the SIGPIPE/accept-loop regression scenario: the
// numbers should not collapse, and the run aborts if the service stops
// answering. BM_SingleClient isolates the per-request wire overhead
// (framing, JSON, governance) without concurrency.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_report.h"
#include "doc/dictionary.h"
#include "query/engine.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/service.h"
#include "util/timer.h"

namespace regal {
namespace {

constexpr int kClients = 8;
constexpr int kRequestsPerClientPerIter = 25;
const char* const kTenants[] = {"team-a", "team-b"};
const char* const kInstances[] = {"corpus1", "corpus2"};
// Mid-weight structural query; repeated issue means the result cache
// serves it hot after the warmup pass (the paper's analyst access
// pattern, and the regime where transport overhead is visible at all).
const char* kQuery = "(quote within sense) | (def within sense)";

std::unique_ptr<server::QueryService> StartLoadedService() {
  auto service = server::QueryService::Start({});
  if (!service.ok()) std::abort();
  DictionaryGeneratorOptions corpus;
  corpus.entries = 200;
  for (const char* name : kInstances) {
    auto engine = QueryEngine::FromSgmlSource(GenerateDictionarySource(corpus));
    if (!engine.ok()) std::abort();
    if (!(*service)->AddInstance(name, std::move(engine).value()).ok()) {
      std::abort();
    }
  }
  // Warm the result caches so iterations measure the steady state.
  for (const char* instance : kInstances) {
    auto client = server::Client::Connect("127.0.0.1", (*service)->port());
    if (!client.ok()) std::abort();
    server::Request request;
    request.tenant = "warmup";
    request.instance = instance;
    request.query = kQuery;
    auto response = client->Call(request);
    if (!response.ok() || !response->ok) std::abort();
  }
  return std::move(*service);
}

struct LatencySink {
  std::mutex mu;
  std::vector<double> ms;
  std::atomic<int64_t> errors{0};

  void Add(const std::vector<double>& batch) {
    std::lock_guard<std::mutex> lock(mu);
    ms.insert(ms.end(), batch.begin(), batch.end());
  }
  double Percentile(double p) {
    std::lock_guard<std::mutex> lock(mu);
    if (ms.empty()) return 0;
    std::sort(ms.begin(), ms.end());
    return ms[static_cast<size_t>(p * static_cast<double>(ms.size() - 1))];
  }
  size_t count() {
    std::lock_guard<std::mutex> lock(mu);
    return ms.size();
  }
};

// One closed-loop client: its own connection, one tenant, one corpus.
void ClientLoop(int port, int client_index, LatencySink* sink) {
  auto client = server::Client::Connect("127.0.0.1", port);
  if (!client.ok()) {
    sink->errors.fetch_add(kRequestsPerClientPerIter);
    return;
  }
  server::Request request;
  request.tenant = kTenants[client_index % 2];
  request.instance = kInstances[(client_index / 2) % 2];
  request.query = kQuery;
  request.limit = 0;  // Measure evaluation + transport, not row rendering.
  std::vector<double> latencies;
  latencies.reserve(kRequestsPerClientPerIter);
  for (int i = 0; i < kRequestsPerClientPerIter; ++i) {
    Timer timer;
    auto response = client->Call(request);
    if (!response.ok() || !response->ok) {
      sink->errors.fetch_add(1);
      continue;
    }
    latencies.push_back(timer.Millis());
  }
  sink->Add(latencies);
}

void FinishCounters(benchmark::State& state, LatencySink& sink,
                    double elapsed_s) {
  state.counters["p50_ms"] = sink.Percentile(0.50);
  state.counters["p99_ms"] = sink.Percentile(0.99);
  state.counters["qps"] =
      elapsed_s > 0 ? static_cast<double>(sink.count()) / elapsed_s : 0;
  state.counters["errors"] = static_cast<double>(sink.errors.load());
  if (sink.errors.load() != 0) std::abort();  // A failed request is a bug.
}

void BM_ConcurrentTenants(benchmark::State& state) {
  auto service = StartLoadedService();
  LatencySink sink;
  Timer wall;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop, service->port(), c, &sink);
    }
    for (auto& t : clients) t.join();
  }
  FinishCounters(state, sink, wall.Seconds());
}
BENCHMARK(BM_ConcurrentTenants)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_ConcurrentTenantsWithChaos(benchmark::State& state) {
  auto service = StartLoadedService();
  LatencySink sink;
  std::atomic<bool> stop_chaos{false};
  // The chaos client: connect, fire a request, RST without reading the
  // response, repeat. Forces sends onto dead sockets and aborted
  // handshakes into the accept loop for the whole measurement.
  std::thread chaos([&] {
    while (!stop_chaos.load(std::memory_order_relaxed)) {
      auto victim = server::Client::Connect("127.0.0.1", service->port());
      if (!victim.ok()) continue;
      server::Request request;
      request.tenant = "chaos";
      request.instance = kInstances[0];
      request.query = kQuery;
      victim->SendRaw(server::EncodeFrame(server::RenderRequest(request)));
      victim->Close(/*rst=*/true);
    }
  });
  Timer wall;
  for (auto _ : state) {
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(ClientLoop, service->port(), c, &sink);
    }
    for (auto& t : clients) t.join();
  }
  const double elapsed_s = wall.Seconds();
  stop_chaos.store(true, std::memory_order_relaxed);
  chaos.join();
  // The whole point: after the storm the service must still answer.
  auto probe = server::Client::Connect("127.0.0.1", service->port());
  if (!probe.ok()) std::abort();
  server::Request request;
  request.tenant = "probe";
  request.instance = kInstances[0];
  request.query = kQuery;
  auto response = probe->Call(request);
  if (!response.ok() || !response->ok) std::abort();
  FinishCounters(state, sink, elapsed_s);
}
BENCHMARK(BM_ConcurrentTenantsWithChaos)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_SingleClient(benchmark::State& state) {
  auto service = StartLoadedService();
  auto client = server::Client::Connect("127.0.0.1", service->port());
  if (!client.ok()) std::abort();
  server::Request request;
  request.tenant = "solo";
  request.instance = kInstances[0];
  request.query = kQuery;
  request.limit = 0;
  for (auto _ : state) {
    auto response = client->Call(request);
    if (!response.ok() || !response->ok) std::abort();
    benchmark::DoNotOptimize(response->row_count);
  }
}
BENCHMARK(BM_SingleClient)->Unit(benchmark::kMillisecond)->UseRealTime();

}  // namespace
}  // namespace regal

int main(int argc, char** argv) {
  return regal::RunBenchmarksWithJson(argc, argv, "BENCH_server.json");
}
