// regal_e2e: the repository's end-to-end benchmark.
//
// One process hosts an in-process server::QueryService and loads it over
// loopback TCP with seeded traffic, then checks every answer:
//
//   regal_e2e --workload warm_served --seed 3 --seconds 10 --trace 0
//             --workdir .bench_build/e2ebench/run
//
// Workloads (see metrics.json for why each exists):
//   warm_served   2 closed-loop connections, 2 tenants, two 2,000-entry
//                 dictionary corpora, a 32-query hot set: cache-resident.
//   cold_analyst  2 closed-loop connections over one 4,000-entry corpus,
//                 a stream of distinct queries: evaluation and eviction.
//   ingest_mixed  a durable 2,000-entry corpus; one open-loop writer
//                 beside 2 closed-loop readers: WAL, checkpoints, epochs.
//
// With --trace 0 the run reports the end-to-end metrics of one untraced
// window. With --trace 1 it runs the untraced window (registry counts come
// from it), then a traced window of up to 5 s: spans around every
// client call, and afterwards a replay of the window's first requests on
// shadow engines fed the same sequence, with a span around each public
// stage call. The last stdout line is the JSON result; the exit code is
// non-zero on any wrong answer or lost acknowledged write.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "admin/admin_server.h"
#include "core/algebra.h"
#include "core/eval.h"
#include "core/expr.h"
#include "core/simd/simd_kernels.h"
#include "doc/dictionary.h"
#include "doc/sgml.h"
#include "obs/metrics.h"
#include "opt/cost.h"
#include "opt/optimizer.h"
#include "query/engine.h"
#include "query/parser.h"
#include "recovery/durable.h"
#include "server/client.h"
#include "server/protocol.h"
#include "server/service.h"
#include "stats.h"
#include "streams.h"
#include "util/random.h"
#include "util/timer.h"

#ifndef REGAL_E2E_BUILD_TYPE
#define REGAL_E2E_BUILD_TYPE "unknown"
#endif

namespace regal {
namespace e2e {
namespace {

namespace fs = std::filesystem;

// --- Fixed workload shape ----------------------------------------------------

constexpr int kSetupRepeats = 3;  // setup_s is the median of these.
constexpr int kRowLimit = 10;     // Every read asks for 10 rendered rows.
constexpr double kLeadInSeconds = 5;
constexpr size_t kHotQueries = 32;
constexpr int kMarks = 8;
constexpr double kWritesPerSecond = 100;
constexpr int64_t kCheckpointEveryRecords = 128;
constexpr double kSyncIntervalMs = 5;
constexpr double kCheckpointerIntervalMs = 100;
constexpr double kTracedWindowSeconds = 5;
constexpr size_t kReplayCap = 3000;    // Traced requests replayed on shadows.
constexpr size_t kColdPrefeed = 1500;  // Untimed replay before those.
constexpr int kReferenceThreads = 4;
// A ⊃_d query in every read-only warm-up: it builds the instance's lazy
// region tree before concurrent readers can race on building it.
constexpr char kTreeWarmup[] = "(entry dincluding sense)";

enum class Workload { kWarmServed, kColdAnalyst, kIngestMixed };
enum class Inject { kNone, kWrongRead, kLostWrite };

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kWarmServed: return "warm_served";
    case Workload::kColdAnalyst: return "cold_analyst";
    case Workload::kIngestMixed: return "ingest_mixed";
  }
  return "?";
}

std::optional<Workload> ParseWorkload(const std::string& name) {
  for (Workload w : {Workload::kWarmServed, Workload::kColdAnalyst,
                     Workload::kIngestMixed}) {
    if (name == WorkloadName(w)) return w;
  }
  return std::nullopt;
}

struct RunConfig {
  Workload workload = Workload::kWarmServed;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workdir;    // Durable stores live here.
  std::string trace_out;  // Spans JSONL of a traced run; empty: not written.
  int entries = 2000;     // Entries per corpus (cold_analyst uses twice).
  int setup_repeats = kSetupRepeats;
  double lead_in_s = kLeadInSeconds;
  Inject inject = Inject::kNone;  // Self-test: a fault the gate must catch.
};

// Windows whose reads and writes are reported.
enum Phase : int { kLeadIn = 0, kWindow = 1, kTraced = 2, kStop = 3 };

const auto kEpoch = std::chrono::steady_clock::now();
int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB -> MiB
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  Rng rng(seed * 0x9e3779b97f4a7c15ULL + salt);
  return rng.Next();
}

std::string Hex(uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
  return buf;
}

// --- Metrics as printed ------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::string note;  // Printed after the value, e.g. sample counts.
};

class Metrics {
 public:
  void Add(std::string name, double value, std::string unit,
           std::string note = "") {
    items_.push_back(
        {std::move(name), value, std::move(unit), std::move(note)});
  }
  const std::vector<Metric>& items() const { return items_; }
  double Get(const std::string& name) const {
    for (const Metric& m : items_) {
      if (m.name == name) return m.value;
    }
    return 0;
  }

 private:
  std::vector<Metric> items_;
};

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// --- Registry deltas ---------------------------------------------------------

using Snapshot = std::vector<obs::MetricSnapshot>;

bool LabelsInclude(const obs::Labels& have, const obs::Labels& want) {
  for (const auto& [key, value] : want) {
    auto it = have.find(key);
    if (it == have.end() || it->second != value) return false;
  }
  return true;
}

// Counter/gauge value, or histogram count, summed over matching label sets.
double Sum(const Snapshot& snap, const std::string& name,
           const obs::Labels& want = {}) {
  double total = 0;
  for (const obs::MetricSnapshot& m : snap) {
    if (m.name != name || !LabelsInclude(m.labels, want)) continue;
    total += m.kind == obs::MetricSnapshot::Kind::kHistogram
                 ? static_cast<double>(m.count)
                 : m.value;
  }
  return total;
}

double HistogramSum(const Snapshot& snap, const std::string& name) {
  double total = 0;
  for (const obs::MetricSnapshot& m : snap) {
    if (m.name == name && m.kind == obs::MetricSnapshot::Kind::kHistogram) {
      total += m.sum;
    }
  }
  return total;
}

struct Window {
  Snapshot before, after;
  double Delta(const std::string& name, const obs::Labels& want = {}) const {
    return Sum(after, name, want) - Sum(before, name, want);
  }
  // Mean of a histogram's observations inside the window (0 when none).
  double HistogramMean(const std::string& name) const {
    const double n = Delta(name);
    return n > 0 ? (HistogramSum(after, name) - HistogramSum(before, name)) / n
                 : 0;
  }
};

// --- Inputs ------------------------------------------------------------------

struct Inputs {
  std::vector<std::string> corpus_names;
  std::vector<std::string> sources;  // Generated SGML, one per corpus.
  std::vector<int> entries;
  // The query table. warm_served and ingest_mixed index it through the
  // per-connection sequences; cold_analyst walks it in order through one
  // shared cursor, so no query is sent twice unless the stream wraps.
  std::vector<std::string> queries;
  std::vector<std::vector<uint32_t>> sequences;
  std::vector<int> connection_corpus;  // Corpus each connection reads.
  // Warm-up requests (corpus index, query), sent once during set-up.
  std::vector<std::pair<int, std::string>> warmup;
  MutationPlan mutations;  // ingest_mixed only.
  Digraph rig;
  uint64_t query_digest = 0;
  uint64_t mutation_digest = 0;
  int connections = 2;
};

std::string Tenant(int connection) {
  return std::string("tenant-") + static_cast<char>('a' + connection);
}

// The traced window: long enough to give the replay its requests, short
// enough that a traced run's reference checks stay well inside its time.
double TracedSeconds(const RunConfig& cfg) {
  return cfg.trace ? std::min(cfg.seconds, kTracedWindowSeconds) : 0;
}

// Upper bound on the load phase's length, for sizing sequences and the cold
// stream (they wrap if a run outpaces it).
double RunSeconds(const RunConfig& cfg) {
  return cfg.lead_in_s + cfg.seconds + TracedSeconds(cfg) + 1;
}

// Reference engines evaluate without the result cache and without parallel
// evaluation; ReferenceAnswer also skips the optimizer and renders rows
// exactly as the service does (QueryService caps the limit at the row count).
std::unique_ptr<QueryEngine> ReferenceEngine(Instance instance,
                                             const Digraph& rig) {
  auto engine = std::make_unique<QueryEngine>(std::move(instance), rig);
  engine->set_result_cache_enabled(false);
  engine->set_parallel_enabled(false);
  engine->set_telemetry_enabled(false);
  // Instance::EnsureTree builds the region tree lazily and unsynchronized,
  // so concurrent first use of ⊃_d / ⊂_d / BI races; build it up front.
  (void)engine->instance().TreeSize();
  return engine;
}

RegionSet LeafRegions(const Instance& instance) {
  return Union(**instance.Get("def"), **instance.Get("qtext"));
}

Result<Inputs> MakeInputs(const RunConfig& cfg) {
  Inputs in;
  const int corpora = cfg.workload == Workload::kWarmServed ? 2 : 1;
  const int entries =
      cfg.workload == Workload::kColdAnalyst ? 2 * cfg.entries : cfg.entries;
  for (int i = 0; i < corpora; ++i) {
    DictionaryGeneratorOptions options;
    options.entries = entries;
    options.seed = Mix(cfg.seed, 100 + static_cast<uint64_t>(i));
    in.corpus_names.push_back("corpus" + std::to_string(i + 1));
    in.sources.push_back(GenerateDictionarySource(options));
    in.entries.push_back(entries);
  }
  for (int c = 0; c < in.connections; ++c) {
    in.connection_corpus.push_back(corpora == 2 ? c : 0);
  }
  const size_t per_connection =
      static_cast<size_t>(RunSeconds(cfg) * 40000.0);
  // The warm hot set is sized on a reference engine over the first corpus,
  // and the ingest writer's sub-spans are planned over its leaves; both are
  // input generation, outside every timed phase.
  std::unique_ptr<QueryEngine> reference;
  if (cfg.workload != Workload::kColdAnalyst) {
    REGAL_ASSIGN_OR_RETURN(Instance parsed, ParseSgml(in.sources[0]));
    reference = ReferenceEngine(std::move(parsed), DictionaryRig());
  }
  switch (cfg.workload) {
    case Workload::kWarmServed: {
      in.queries = HotSet(
          Mix(cfg.seed, 1), kHotQueries / 8, 0.1, [&](const std::string& q) {
            Result<QueryAnswer> answer = reference->Run(q, /*optimize=*/false);
            return answer.ok() ? static_cast<int64_t>(answer->regions.size())
                               : -1;
          });
      for (int c = 0; c < in.connections; ++c) {
        in.sequences.push_back(IndexSequence(
            Mix(cfg.seed, 10 + static_cast<uint64_t>(c)), per_connection,
            in.queries.size()));
      }
      for (int corpus = 0; corpus < corpora; ++corpus) {
        in.warmup.emplace_back(corpus, kTreeWarmup);
        for (const std::string& q : in.queries) {
          in.warmup.emplace_back(corpus, q);
        }
      }
      in.rig = DictionaryRig();
      break;
    }
    case Workload::kColdAnalyst: {
      const size_t stream = static_cast<size_t>(RunSeconds(cfg) * 4000.0);
      in.queries = DistinctQueries(Mix(cfg.seed, 2), stream, 0.08);
      in.warmup.emplace_back(0, kTreeWarmup);
      for (const std::string& q : DistinctQueries(Mix(cfg.seed, 3), 16, 0.08)) {
        in.warmup.emplace_back(0, q);
      }
      in.rig = DictionaryRig();
      break;
    }
    case Workload::kIngestMixed: {
      // Every write invalidates the cache, so reads mostly evaluate: both
      // halves come from fixed templates, keeping the cost per read alike
      // across seeds. Neither uses ⊃_d / ⊂_d / BI: writes also invalidate
      // the region tree, and its lazy rebuild races under concurrent reads.
      in.queries = MarkQueries(Mix(cfg.seed, 4), kMarks, kHotQueries / 2);
      for (std::string& q : StaticQueries(Mix(cfg.seed, 5), kHotQueries / 2)) {
        in.queries.push_back(std::move(q));
      }
      for (int c = 0; c < in.connections; ++c) {
        in.sequences.push_back(IndexSequence(
            Mix(cfg.seed, 20 + static_cast<uint64_t>(c)), per_connection,
            in.queries.size()));
      }
      for (const std::string& q : in.queries) in.warmup.emplace_back(0, q);
      const size_t writes =
          static_cast<size_t>((RunSeconds(cfg) + 1) * kWritesPerSecond);
      in.mutations = PlanMutations(LeafRegions(reference->instance()),
                                   Mix(cfg.seed, 6), kMarks, writes);
      in.rig = IngestRig(kMarks, in.mutations.adds);
      std::vector<recovery::Mutation> all = in.mutations.initial;
      all.insert(all.end(), in.mutations.stream.begin(),
                 in.mutations.stream.end());
      in.mutation_digest = DigestMutations(all);
      break;
    }
  }
  in.query_digest = DigestQueries(in.queries);
  for (const auto& seq : in.sequences) {
    in.query_digest = DigestIndices(seq, in.query_digest);
  }
  return in;
}

recovery::DurableOptions DurableOptionsForIngest() {
  recovery::DurableOptions options;
  options.wal.sync = recovery::SyncPolicy::kInterval;
  options.wal.sync_interval_ms = kSyncIntervalMs;
  options.checkpoint_every_records = kCheckpointEveryRecords;
  return options;
}

std::string SyncPolicyDescription(Workload w) {
  if (w != Workload::kIngestMixed) return "none";
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "%s/%.0fms,checkpoint_every=%lld_records,"
                "background_checkpointer=%.0fms",
                recovery::SyncPolicyName(recovery::SyncPolicy::kInterval),
                kSyncIntervalMs,
                static_cast<long long>(kCheckpointEveryRecords),
                kCheckpointerIntervalMs);
  return buf;
}

// --- Set-up ------------------------------------------------------------------

struct Deployment {
  std::unique_ptr<server::QueryService> service;
  std::shared_ptr<QueryEngine> durable;  // ingest_mixed only.
  std::string durable_dir;
  int admin_port = 0;
  double setup_s = 0;
  double index_build_s = 0;
};

// Seeds an empty durable engine with the parsed corpus and the writer's
// initial marks through the journaled mutation API, then checkpoints.
Status SeedDurable(QueryEngine* engine, const std::string& source,
                   const Instance& parsed, const MutationPlan& plan) {
  REGAL_RETURN_NOT_OK(engine->BindText(source));
  for (const std::string& name : parsed.names()) {
    REGAL_ASSIGN_OR_RETURN(const RegionSet* regions, parsed.Get(name));
    REGAL_RETURN_NOT_OK(engine->DefineRegions(name, *regions));
  }
  for (const recovery::Mutation& m : plan.initial) {
    REGAL_RETURN_NOT_OK(engine->Apply(m));
  }
  return engine->Checkpoint();
}

Status WarmUp(const Inputs& in, int port) {
  REGAL_ASSIGN_OR_RETURN(server::Client client,
                         server::Client::Connect("127.0.0.1", port, 30000));
  server::Request request;
  request.tenant = "warmup";
  request.limit = kRowLimit;
  for (const auto& [corpus, query] : in.warmup) {
    request.instance = in.corpus_names[static_cast<size_t>(corpus)];
    request.query = query;
    REGAL_ASSIGN_OR_RETURN(server::Response response, client.Call(request));
    if (!response.ok) {
      return Status::Internal("warm-up query failed: " + query + ": " +
                              response.message);
    }
  }
  return Status::OK();
}

Result<Deployment> Deploy(const RunConfig& cfg, const Inputs& in, int attempt) {
  Timer total;
  Deployment d;
  REGAL_ASSIGN_OR_RETURN(d.service, server::QueryService::Start({}));
  for (size_t i = 0; i < in.sources.size(); ++i) {
    Timer build;
    REGAL_ASSIGN_OR_RETURN(Instance parsed, ParseSgml(in.sources[i]));
    d.index_build_s += build.Seconds();
    if (cfg.workload != Workload::kIngestMixed) {
      REGAL_RETURN_NOT_OK(d.service->AddInstance(
          in.corpus_names[i], QueryEngine(std::move(parsed), in.rig)));
      continue;
    }
    d.durable_dir = (fs::path(cfg.workdir) /
                     ("durable-" + std::to_string(attempt)))
                        .string();
    std::error_code ec;
    fs::remove_all(d.durable_dir, ec);
    fs::create_directories(d.durable_dir, ec);
    REGAL_ASSIGN_OR_RETURN(
        QueryEngine engine,
        QueryEngine::OpenDurable(d.durable_dir, DurableOptionsForIngest(),
                                 nullptr, in.rig));
    REGAL_RETURN_NOT_OK(
        SeedDurable(&engine, in.sources[i], parsed, in.mutations));
    REGAL_RETURN_NOT_OK(
        d.service->AddInstance(in.corpus_names[i], std::move(engine)));
    d.durable = d.service->engine(in.corpus_names[i]);
    REGAL_RETURN_NOT_OK(
        d.durable->StartBackgroundCheckpointer(kCheckpointerIntervalMs));
  }
  REGAL_RETURN_NOT_OK(d.service->EnableAdminServer());
  d.admin_port = d.service->admin_server()->port();
  REGAL_RETURN_NOT_OK(WarmUp(in, d.service->port()));
  d.setup_s = total.Seconds();
  return d;
}

void Teardown(Deployment* d) {
  if (d->durable != nullptr) d->durable->StopBackgroundCheckpointer();
  if (d->service != nullptr) d->service->Stop();
  d->service.reset();
  d->durable.reset();
  if (!d->durable_dir.empty()) {
    std::error_code ec;
    fs::remove_all(d->durable_dir, ec);
  }
}

// --- Load --------------------------------------------------------------------

struct Answer {
  int64_t row_count = -1;  // -1: the request failed.
  uint64_t digest = 0;
  bool operator==(const Answer& o) const {
    return row_count == o.row_count && digest == o.digest;
  }
};

struct ReadRecord {
  uint32_t query = 0;
  Answer answer;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
};

// warm_served checks each read against the first answer its query got and
// checks that first answer against the reference afterwards: the same
// verdict as comparing every read, without a per-read record.
struct Tally {
  bool seen = false;
  Answer first;
  int64_t matched = 0;
  int64_t mismatched = 0;
};

struct CallSpan {
  int64_t request_id = 0;
  int64_t send_ns = 0;
  int64_t recv_ns = 0;
  double server_ms = 0;
};

struct KeptMessage {
  server::Request request;
  server::Response response;
  int64_t send_ns = 0;
};

struct ConnectionResult {
  std::vector<double> latency_ms[3];  // By phase.
  std::vector<int64_t> send_ns[3];    // Parallel to latency_ms.
  int64_t sent[3] = {0, 0, 0};
  int64_t ok[3] = {0, 0, 0};
  std::vector<ReadRecord> records;  // cold_analyst, ingest_mixed.
  std::vector<Tally> tallies;       // warm_served.
  std::vector<CallSpan> calls;      // Traced window.
  std::vector<KeptMessage> kept;    // First traced requests, for replay.
  std::string error;
};

struct WriteRecord {
  size_t index = 0;
  int phase = kLeadIn;
  bool ok = false;
  int64_t sched_ns = 0;
  int64_t start_ns = 0;
  int64_t ack_ns = 0;
};

struct LoadState {
  std::atomic<int> phase{kLeadIn};
  std::atomic<uint64_t> cursor{0};  // cold_analyst stream position.
};

int64_t RequestId(int connection, int64_t seq) {
  return (static_cast<int64_t>(connection + 1) << 40) | seq;
}

void RunConnection(const RunConfig& cfg, const Inputs& in, int port,
                   int connection, LoadState* state, ConnectionResult* out) {
  auto client = server::Client::Connect("127.0.0.1", port, 30000);
  if (!client.ok()) {
    out->error = client.status().ToString();
    return;
  }
  const bool cold = cfg.workload == Workload::kColdAnalyst;
  const bool tally = cfg.workload == Workload::kWarmServed;
  if (tally) out->tallies.resize(in.queries.size());
  const size_t expected = static_cast<size_t>(cfg.seconds * 60000.0);
  for (int phase : {kWindow, kTraced}) {
    if (phase == kTraced && !cfg.trace) continue;
    out->latency_ms[phase].reserve(expected);
    out->send_ns[phase].reserve(expected);
  }
  server::Request request;
  request.tenant = Tenant(connection);
  request.instance = in.corpus_names[static_cast<size_t>(
      in.connection_corpus[static_cast<size_t>(connection)])];
  request.limit = kRowLimit;
  const std::vector<uint32_t>* sequence =
      cold ? nullptr : &in.sequences[static_cast<size_t>(connection)];
  int64_t seq = 0;
  for (;;) {
    const int phase = state->phase.load(std::memory_order_acquire);
    if (phase == kStop) break;
    const uint32_t query =
        cold ? static_cast<uint32_t>(state->cursor.fetch_add(1) %
                                     in.queries.size())
             : (*sequence)[static_cast<size_t>(seq) % sequence->size()];
    request.query = in.queries[query];
    request.id = RequestId(connection, seq++);
    const int64_t send = NowNs();
    Result<server::Response> response = client->Call(request);
    const int64_t recv = NowNs();
    ++out->sent[phase];
    out->latency_ms[phase].push_back(static_cast<double>(recv - send) / 1e6);
    out->send_ns[phase].push_back(send);
    Answer answer;
    if (response.ok() && response->ok) {
      ++out->ok[phase];
      answer = {response->row_count, RowsDigest(response->rows)};
    }
    if (tally) {
      // Failed reads are counted from sent - ok; only answers are tallied.
      Tally& t = out->tallies[query];
      if (answer.row_count >= 0) {
        if (!t.seen) {
          t.seen = true;
          t.first = answer;
        }
        (t.first == answer ? t.matched : t.mismatched) += 1;
      }
    } else {
      out->records.push_back({query, answer, send, recv});
    }
    if (phase == kTraced) {
      out->calls.push_back({request.id, send, recv,
                            answer.row_count >= 0 ? response->elapsed_ms : 0});
      if (answer.row_count >= 0 && out->kept.size() < kReplayCap) {
        out->kept.push_back({request, std::move(response).value(), send});
      }
    }
    if (!response.ok()) {
      // A transport failure kills the connection; reconnect once.
      auto again = server::Client::Connect("127.0.0.1", port, 30000);
      if (!again.ok()) {
        out->error = again.status().ToString();
        return;
      }
      client = std::move(again);
    }
  }
}

// The open-loop writer: mutation i is due at start + i / rate whatever
// happened to earlier ones, and its latency runs from that due time.
void RunWriter(const Inputs& in, QueryEngine* engine, LoadState* state,
               int64_t start_ns, std::vector<WriteRecord>* out) {
  const double gap_ns = 1e9 / kWritesPerSecond;
  for (size_t i = 0; i < in.mutations.stream.size(); ++i) {
    const int64_t due =
        start_ns + static_cast<int64_t>(static_cast<double>(i) * gap_ns);
    for (int64_t now = NowNs(); now < due; now = NowNs()) {
      if (state->phase.load(std::memory_order_acquire) == kStop) return;
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(due - now, 2000000)));
    }
    const int phase = state->phase.load(std::memory_order_acquire);
    if (phase == kStop) return;
    WriteRecord w;
    w.index = i;
    w.phase = phase;
    w.sched_ns = due;
    w.start_ns = NowNs();
    w.ok = engine->Apply(in.mutations.stream[i]).ok();
    w.ack_ns = NowNs();
    out->push_back(w);
  }
}

// --- Reference answers -------------------------------------------------------

Answer ReferenceAnswer(QueryEngine* engine, const std::string& query) {
  Result<QueryAnswer> answer = engine->Run(query, /*optimize=*/false);
  if (!answer.ok()) return Answer{};
  const int64_t rows = static_cast<int64_t>(answer->regions.size());
  const int limit = static_cast<int>(std::min<int64_t>(kRowLimit, rows));
  std::vector<std::string> rendered;
  if (limit > 0) rendered = answer->Rows(engine->instance(), limit);
  return Answer{rows, RowsDigest(rendered)};
}

// Answers for `queries` (indices into `table`), computed on kReferenceThreads
// threads sharing one reference engine (Run is safe to call concurrently).
std::vector<Answer> ReferenceAnswers(QueryEngine* engine,
                                     const std::vector<std::string>& table,
                                     const std::vector<uint32_t>& queries) {
  std::vector<Answer> out(queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kReferenceThreads; ++t) {
    threads.emplace_back([&] {
      for (size_t i = next.fetch_add(1); i < queries.size();
           i = next.fetch_add(1)) {
        out[i] = ReferenceAnswer(engine, table[queries[i]]);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return out;
}

// --- Spans -------------------------------------------------------------------

struct Span {
  const char* name = "";
  int64_t request_id = 0;
  int64_t parent = -1;  // Index into the span list; -1 for a root.
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration() const { return end_ns - start_ns; }
};

class SpanList {
 public:
  int64_t Add(const char* name, int64_t request_id, int64_t parent,
              int64_t start_ns, int64_t end_ns) {
    spans_.push_back({name, request_id, parent, start_ns, end_ns});
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  const std::vector<Span>& spans() const { return spans_; }

  // Self time: a span's duration minus its children's. Children replayed
  // after the request ran are attributed to it by parent link; a request's
  // children never overlap one another, so the sum is their coverage.
  std::vector<int64_t> SelfTimes() const {
    std::vector<int64_t> self(spans_.size());
    for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].duration();
    for (const Span& s : spans_) {
      if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration();
    }
    return self;
  }

  Status Write(const std::string& path) const {
    std::error_code ec;
    fs::create_directories(fs::path(path).parent_path(), ec);
    std::ofstream out(path);
    if (!out) return Status::Internal("cannot write " + path);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "{\"id\": %zu, \"name\": \"%s\", \"request\": %" PRId64
                    ", \"parent\": %" PRId64
                    ", \"start_us\": %.3f, \"dur_us\": %.3f}\n",
                    i, s.name, s.request_id, s.parent,
                    static_cast<double>(s.start_ns) / 1e3,
                    static_cast<double>(s.duration()) / 1e3);
      out << line;
    }
    return out.good() ? Status::OK()
                      : Status::Internal("write failed: " + path);
  }

 private:
  std::vector<Span> spans_;
};

// One corpus's shadow pair: `run` answers QueryEngine::Run, `staged` is
// driven stage by stage. Both start from the served corpus and receive the
// same requests and mutations, so their caches evolve like the served one.
struct Shadow {
  std::unique_ptr<QueryEngine> run;
  std::unique_ptr<QueryEngine> staged;
  CatalogStats stats;  // Of `staged`, refreshed after each mutation.
  ParallelEvalPolicy policy;
};

struct StageOutcome {
  int rules_applied = 0;
  EvalStats eval;
  int64_t result_rows = 0;
  bool parallel = false;
};

// The engine's stages, each a public call with a span around it:
// ParseStatement -> Optimize -> ExprCanonicalizer -> ResultCache::Lookup ->
// Evaluator::Evaluate -> QueryAnswer::Rows.
StageOutcome RunStages(Shadow* shadow, const std::string& query,
                       int64_t request_id, int64_t parent, SpanList* spans) {
  StageOutcome out;
  QueryEngine& engine = *shadow->staged;
  auto span = [&](const char* name, int64_t start) {
    if (spans != nullptr) spans->Add(name, request_id, parent, start, NowNs());
  };
  int64_t t = NowNs();
  Result<QueryStatement> statement = ParseStatement(query);
  span("query.parse", t);
  if (!statement.ok()) return out;

  OptimizerOptions options;
  options.stats = shadow->stats;
  if (engine.rig().has_value()) options.rig = &*engine.rig();
  t = NowNs();
  OptimizeOutcome optimized = Optimize(statement->expr, options);
  span("opt.optimize", t);
  out.rules_applied = optimized.rules_applied;
  const ExprPtr& executed = optimized.expr;

  t = NowNs();
  ExprCanonicalizer canonicalizer;
  ExprPtr canonical = canonicalizer.Canonical(executed);
  const uint64_t fingerprint = canonicalizer.Hash(executed);
  span("core.canonicalize", t);

  if (executed->kind() != OpKind::kName) {
    t = NowNs();
    cache::ResultCache::Key key{engine.instance().id(),
                                engine.instance().epoch(), fingerprint};
    (void)engine.result_cache().Lookup(key, canonical);
    span("cache.lookup", t);
  }

  EvalOptions eval_options;
  eval_options.result_cache = &engine.result_cache();
  out.parallel = engine.parallel_enabled() &&
                 EstimateCost(executed, shadow->stats).cost >=
                     engine.parallel_cost_threshold();
  if (out.parallel) eval_options.parallel = &shadow->policy;
  t = NowNs();
  Evaluator evaluator(&engine.instance(), eval_options);
  Result<RegionSet> result = evaluator.Evaluate(executed);
  span("core.eval", t);
  out.eval = evaluator.stats();
  if (!result.ok()) return out;

  QueryAnswer answer;
  answer.regions = std::move(result).value();
  out.result_rows = static_cast<int64_t>(answer.regions.size());
  const int limit =
      static_cast<int>(std::min<int64_t>(kRowLimit, out.result_rows));
  t = NowNs();
  std::vector<std::string> rows = answer.Rows(engine.instance(), limit);
  span("query.rows", t);
  return out;
}

void ApplyToShadow(Shadow* shadow, const recovery::Mutation& m) {
  (void)shadow->run->Apply(m);
  (void)shadow->staged->Apply(m);
  shadow->stats = StatsFromInstance(shadow->staged->instance());
}


// --- The run -----------------------------------------------------------------

// The end-to-end names BENCHMARK.json gates, in its order: the JSON line of
// an untraced run carries exactly these, a traced run exactly the layer
// metrics. Throughput, latency and CPU per operation are printed by every
// untraced run but travel in the traced JSON: on a shared host they follow
// the host's CPU steal across seeds by more than any bound the gate allows.
// The write metrics exist in one workload only.
const char* const kEndToEndNames[] = {"setup_s", "peak_rss_mb"};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> header;  // Provenance lines.
  std::vector<std::string> notes;   // Check failures and diagnostics.
  Metrics end_to_end;
  Metrics layers;
  std::vector<std::string> span_table;
};

struct LatencySummary {
  size_t n = 0;
  double p50 = 0;
  double p99 = 0;
  int64_t beyond_p99 = 0;
};

LatencySummary Summarize(const std::vector<double>& ms) {
  LatencySummary s;
  s.n = ms.size();
  s.p50 = Percentile(ms, 0.50);
  s.p99 = Percentile(ms, 0.99);
  s.beyond_p99 = SamplesBeyond(ms.size(), 0.99);
  return s;
}

// The window cut into one-second slices by send time; the reported read
// metrics are medians over slices, so a stall of the host in one second
// moves one slice, not the result.
struct SliceMedians {
  size_t slices = 0;
  std::vector<double> slice_qps;
  double qps = 0;
  double p50 = 0;
  double p99 = 0;
  int64_t min_beyond_p99 = 0;  // Fewest samples beyond p99 in any slice.
};

SliceMedians SliceWindow(const std::vector<double>& latency_ms,
                         const std::vector<int64_t>& send_ns, int64_t start_ns,
                         double seconds) {
  const size_t slices = std::max<size_t>(1, static_cast<size_t>(seconds));
  const double slice_ns = seconds * 1e9 / static_cast<double>(slices);
  std::vector<std::vector<double>> by_slice(slices);
  for (size_t i = 0; i < latency_ms.size(); ++i) {
    const double at = static_cast<double>(send_ns[i] - start_ns) / slice_ns;
    const size_t k =
        std::min(slices - 1, static_cast<size_t>(std::max(0.0, at)));
    by_slice[k].push_back(latency_ms[i]);
  }
  std::vector<double> qps, p50, p99;
  SliceMedians out;
  out.slices = slices;
  out.min_beyond_p99 = std::numeric_limits<int64_t>::max();
  for (const std::vector<double>& ms : by_slice) {
    qps.push_back(static_cast<double>(ms.size()) / (slice_ns / 1e9));
    p50.push_back(Percentile(ms, 0.50));
    p99.push_back(Percentile(ms, 0.99));
    out.min_beyond_p99 =
        std::min(out.min_beyond_p99, SamplesBeyond(ms.size(), 0.99));
  }
  out.slice_qps = qps;
  out.qps = Median(qps);
  out.p50 = Median(p50);
  out.p99 = Median(p99);
  return out;
}

std::string SampleNote(const LatencySummary& s) {
  std::string note = "n=" + std::to_string(s.n) +
                     " beyond_p99=" + std::to_string(s.beyond_p99);
  if (s.beyond_p99 < 10) note += " (fewer than 10 samples beyond p99)";
  return note;
}

// What the traced replay measured, per replayed request.
struct ReplayResult {
  size_t replayed = 0;
  double call_us = 0;
  double overhead_us = 0;
  double protocol_us = 0;
  double parse_us = 0;
  double run_us = 0;
  double rows_us = 0;
  double unattributed_us = 0;
  double optimize_us = 0;
  double rules_applied = 0;
  double canonicalize_us = 0;
  double eval_us = 0;
  double operator_evals = 0;
  double rows_scanned = 0;
  double result_rows = 0;
  double lookup_us = 0;
  double apply_us = 0;
};

class Run {
 public:
  explicit Run(RunConfig cfg) : cfg_(std::move(cfg)) {}

  Report Execute();

 private:
  void Load(Deployment* d);
  void ScrapeUntil(int admin_port, int64_t deadline_ns, bool mark_cpu);
  void CloseAndReopen(Deployment* d, const Instance& corpus);
  void CheckReads(const std::vector<Instance>& corpora);
  void CheckIngestReads(const Instance& corpus);
  void InjectWrongRead();
  void ParallelShare(const std::vector<Instance>& corpora);
  void Replay(const std::vector<Instance>& corpora);
  void EndToEnd();
  void Layers();
  void Fail(int64_t count, const std::string& why) {
    if (count <= 0) return;
    report_.failed += count;
    report_.correct = false;
    report_.notes.push_back(why + " (" + std::to_string(count) + ")");
  }
  std::vector<double> Latencies(int phase) const;
  std::vector<int64_t> SendTimes(int phase) const;
  int64_t Sent(int phase) const;
  int64_t Ok(int phase) const;
  double WindowSeconds(int phase) const {
    return static_cast<double>(phase_start_ns_[phase + 1] -
                               phase_start_ns_[phase]) /
           1e9;
  }

  RunConfig cfg_;
  Inputs in_;
  Report report_;
  std::vector<double> setup_times_;
  std::vector<double> build_times_;
  std::vector<size_t> corpus_regions_;
  LoadState state_;
  std::vector<ConnectionResult> conns_;
  std::vector<WriteRecord> writes_;
  std::vector<double> scrape_ms_;
  Window window_;
  int64_t phase_start_ns_[4] = {0, 0, 0, 0};
  uint64_t cursor_at_[4] = {0, 0, 0, 0};
  double window_cpu_s_ = 0;
  double peak_rss_mb_ = 0;
  double reopen_s_ = 0;
  double cache_bytes_ = 0;
  double parallel_share_ = 0;
  LatencySummary writes_summary_;
  SliceMedians read_slices_;
  // (time, process CPU seconds) at each one-second mark of the untraced
  // window, for the per-slice CPU cost.
  std::vector<std::pair<int64_t, double>> cpu_marks_;
  double write_amp_ = 0;
  ReplayResult replay_;
  SpanList spans_;
};

std::vector<double> Run::Latencies(int phase) const {
  std::vector<double> all;
  for (const ConnectionResult& c : conns_) {
    all.insert(all.end(), c.latency_ms[phase].begin(),
               c.latency_ms[phase].end());
  }
  return all;
}

std::vector<int64_t> Run::SendTimes(int phase) const {
  std::vector<int64_t> all;
  for (const ConnectionResult& c : conns_) {
    all.insert(all.end(), c.send_ns[phase].begin(), c.send_ns[phase].end());
  }
  return all;
}

int64_t Run::Sent(int phase) const {
  int64_t n = 0;
  for (const ConnectionResult& c : conns_) n += c.sent[phase];
  return n;
}

int64_t Run::Ok(int phase) const {
  int64_t n = 0;
  for (const ConnectionResult& c : conns_) n += c.ok[phase];
  return n;
}

void Run::ScrapeUntil(int admin_port, int64_t deadline_ns,
                      bool mark_cpu) {
  // /metrics is scraped once a second from the orchestrating thread, as an
  // operator's collector would.
  for (int64_t now = NowNs(); now < deadline_ns; now = NowNs()) {
    if (mark_cpu) cpu_marks_.emplace_back(now, ProcessCpuSeconds());
    Timer scrape;
    Result<std::string> body =
        admin::HttpGet("127.0.0.1", admin_port, "/metrics");
    if (body.ok()) scrape_ms_.push_back(scrape.Millis());
    const int64_t next = std::min<int64_t>(now + 1000000000LL, deadline_ns);
    for (int64_t t = NowNs(); t < next; t = NowNs()) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(std::min<int64_t>(next - t, 50000000)));
    }
  }
}

void Run::Load(Deployment* d) {
  conns_.assign(static_cast<size_t>(in_.connections), ConnectionResult());
  std::vector<std::thread> threads;
  const int port = d->service->port();
  phase_start_ns_[kLeadIn] = NowNs();
  for (int c = 0; c < in_.connections; ++c) {
    threads.emplace_back(RunConnection, std::cref(cfg_), std::cref(in_), port,
                         c, &state_, &conns_[static_cast<size_t>(c)]);
  }
  if (d->durable != nullptr) {
    threads.emplace_back(RunWriter, std::cref(in_), d->durable.get(), &state_,
                         phase_start_ns_[kLeadIn], &writes_);
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(cfg_.lead_in_s));

  // Registry and CPU snapshots bracket the untraced window.
  const int64_t window_ns = static_cast<int64_t>(cfg_.seconds * 1e9);
  window_.before = obs::Registry::Default().Snapshot();
  const double cpu_before = ProcessCpuSeconds();
  cursor_at_[kWindow] = state_.cursor.load();
  phase_start_ns_[kWindow] = NowNs();
  state_.phase.store(kWindow, std::memory_order_release);
  ScrapeUntil(d->admin_port, phase_start_ns_[kWindow] + window_ns,
              /*mark_cpu=*/true);

  const int next = cfg_.trace ? kTraced : kStop;
  window_.after = obs::Registry::Default().Snapshot();
  window_cpu_s_ = ProcessCpuSeconds() - cpu_before;
  cpu_marks_.emplace_back(NowNs(), cpu_before + window_cpu_s_);
  cursor_at_[next] = state_.cursor.load();
  phase_start_ns_[next] = NowNs();
  state_.phase.store(next, std::memory_order_release);
  if (!cfg_.trace) {
    // No traced window: it is empty, starting and ending where this ends.
    cursor_at_[kTraced] = cursor_at_[kStop];
    phase_start_ns_[kTraced] = phase_start_ns_[kStop];
  } else {
    ScrapeUntil(d->admin_port,
                phase_start_ns_[kTraced] +
                    static_cast<int64_t>(TracedSeconds(cfg_) * 1e9),
                /*mark_cpu=*/false);
    cursor_at_[kStop] = state_.cursor.load();
    phase_start_ns_[kStop] = NowNs();
    state_.phase.store(kStop, std::memory_order_release);
  }
  for (std::thread& t : threads) t.join();
  for (const ConnectionResult& c : conns_) {
    if (!c.error.empty()) Fail(1, "connection error: " + c.error);
  }
  peak_rss_mb_ = PeakRssMb();
  for (const std::string& name : d->service->instance_names()) {
    cache_bytes_ +=
        static_cast<double>(d->service->engine(name)->result_cache().bytes());
  }
}

void Run::CloseAndReopen(Deployment* d, const Instance& corpus) {
  // A clean close, then recovery from the directory alone: every
  // acknowledged mutation must be there and the catalog must validate.
  d->durable->StopBackgroundCheckpointer();
  d->service->Stop();
  d->service.reset();
  Status closed = d->durable->durable_store()->Close();
  if (!closed.ok()) Fail(1, "durable close: " + closed.ToString());
  d->durable.reset();

  Timer reopen;
  Result<QueryEngine> reopened = QueryEngine::OpenDurable(
      d->durable_dir, DurableOptionsForIngest(), nullptr, in_.rig);
  reopen_s_ = reopen.Seconds();
  if (!reopened.ok()) {
    Fail(1, "reopen: " + reopened.status().ToString());
    return;
  }
  Status valid = reopened->Validate();
  if (!valid.ok()) Fail(1, "Validate after reopen: " + valid.ToString());

  // The acknowledged state: the seeded text and names, then the last
  // acknowledged write of every name the writer touched.
  const Instance& recovered = reopened->instance();
  if (recovered.text() == nullptr ||
      recovered.text()->content() != corpus.text()->content()) {
    Fail(1, "seeded text missing after reopen");
  }
  std::map<std::string, const RegionSet*> expected;
  for (const std::string& name : corpus.names()) {
    expected[name] = *corpus.Get(name);
  }
  for (const recovery::Mutation& m : in_.mutations.initial) {
    expected[m.name] = &m.regions;
  }
  int64_t failed_writes = 0;
  for (const WriteRecord& w : writes_) {
    if (!w.ok) {
      ++failed_writes;
      continue;
    }
    const recovery::Mutation& m = in_.mutations.stream[w.index];
    expected[m.name] = &m.regions;
  }
  Fail(failed_writes, "writes refused");
  int64_t lost = 0;
  bool inject = cfg_.inject == Inject::kLostWrite;
  for (const auto& [name, regions] : expected) {
    RegionSet want = *regions;
    if (inject) {
      // Self-test: pretend the writer was acknowledged for a region the
      // store does not hold; the check must report a lost write.
      std::vector<Region> more = want.regions();
      more.push_back(Region{0, 0});
      want = RegionSet::FromUnsorted(std::move(more));
      inject = false;
    }
    Result<const RegionSet*> found = recovered.Get(name);
    if (!found.ok() || !(**found == want)) ++lost;
  }
  Fail(lost, "acknowledged mutations missing after reopen");
}

void Run::InjectWrongRead() {
  // Self-test: corrupt one recorded answer; the gate must notice.
  for (ConnectionResult& c : conns_) {
    for (Tally& t : c.tallies) {
      if (t.seen) {
        t.first.row_count += 1;
        return;
      }
    }
    for (ReadRecord& r : c.records) {
      if (r.answer.row_count >= 0) {
        r.answer.row_count += 1;
        return;
      }
    }
  }
}

// Reads of mutated names race the writer, so each is checked against every
// state it could have observed: at least the writes acknowledged before its
// send, at most those started before its receive.
void Run::CheckIngestReads(const Instance& corpus) {
  std::vector<int64_t> acked, started;  // Acknowledged writes, in order.
  std::vector<int> mark_of;             // Mark each of them set, or -1.
  std::vector<const RegionSet*> content;
  for (const WriteRecord& w : writes_) {
    if (!w.ok) continue;
    const recovery::Mutation& m = in_.mutations.stream[w.index];
    acked.push_back(w.ack_ns);
    started.push_back(w.start_ns);
    mark_of.push_back(MarkOf(m.name, kMarks));
    content.push_back(&m.regions);
  }
  std::vector<int> query_mark(in_.queries.size());
  for (size_t q = 0; q < in_.queries.size(); ++q) {
    query_mark[q] = MarkOf(in_.queries[q], kMarks);
  }
  std::unique_ptr<QueryEngine> reference =
      ReferenceEngine(corpus.Clone(), in_.rig);
  for (const recovery::Mutation& m : in_.mutations.initial) {
    (void)reference->Apply(m);
  }

  // Candidate mark contents of each read: -1 is the initial content, v the
  // v-th acknowledged write.
  std::vector<const ReadRecord*> reads;
  std::vector<std::vector<int64_t>> candidates;
  std::map<std::pair<int, int64_t>, std::vector<uint32_t>> wanted;
  std::vector<Answer> static_answers(in_.queries.size());
  std::vector<char> static_known(in_.queries.size(), 0);
  for (const ConnectionResult& c : conns_) {
    for (const ReadRecord& r : c.records) {
      if (r.answer.row_count < 0) continue;  // Counted as failed already.
      const int k = query_mark[r.query];
      if (k < 0) {
        static_known[r.query] = 1;
        continue;
      }
      const size_t lo = static_cast<size_t>(
          std::lower_bound(acked.begin(), acked.end(), r.send_ns) -
          acked.begin());
      const size_t hi = static_cast<size_t>(
          std::lower_bound(started.begin(), started.end(), r.recv_ns) -
          started.begin());
      std::vector<int64_t> versions;
      int64_t current = -1;
      for (size_t v = 0; v < lo; ++v) {
        if (mark_of[v] == k) current = static_cast<int64_t>(v);
      }
      versions.push_back(current);
      for (size_t v = lo; v < hi && v < mark_of.size(); ++v) {
        if (mark_of[v] == k) versions.push_back(static_cast<int64_t>(v));
      }
      for (int64_t v : versions) {
        std::vector<uint32_t>& list = wanted[{k, v}];
        if (std::find(list.begin(), list.end(), r.query) == list.end()) {
          list.push_back(r.query);
        }
      }
      reads.push_back(&r);
      candidates.push_back(std::move(versions));
    }
  }
  // Static queries read names the writer never touches: one answer each.
  for (size_t q = 0; q < in_.queries.size(); ++q) {
    if (static_known[q]) {
      static_answers[q] = ReferenceAnswer(reference.get(), in_.queries[q]);
    }
  }
  std::map<std::pair<uint32_t, int64_t>, Answer> mark_answers;
  for (const auto& [key, queries] : wanted) {
    const int k = key.first;
    const int64_t v = key.second;
    const RegionSet& regions =
        v < 0 ? in_.mutations.initial[static_cast<size_t>(k)].regions
              : *content[static_cast<size_t>(v)];
    (void)reference->ReplaceRegions(MarkName(k), regions);
    for (uint32_t q : queries) {
      mark_answers[{q, v}] = ReferenceAnswer(reference.get(), in_.queries[q]);
    }
  }
  int64_t wrong = 0;
  for (const ConnectionResult& c : conns_) {
    for (const ReadRecord& r : c.records) {
      if (r.answer.row_count >= 0 && query_mark[r.query] < 0 &&
          !(r.answer == static_answers[r.query])) {
        ++wrong;
      }
    }
  }
  for (size_t i = 0; i < reads.size(); ++i) {
    bool matched = false;
    for (int64_t v : candidates[i]) {
      matched =
          matched || mark_answers[{reads[i]->query, v}] == reads[i]->answer;
    }
    if (!matched) ++wrong;
  }
  Fail(wrong, "reads matching no state they could have observed");
}

void Run::CheckReads(const std::vector<Instance>& corpora) {
  int64_t failed_reads = 0;
  for (int phase = kLeadIn; phase < kStop; ++phase) {
    failed_reads += Sent(phase) - Ok(phase);
  }
  Fail(failed_reads, "reads failed or refused");
  if (cfg_.inject == Inject::kWrongRead) InjectWrongRead();
  if (cfg_.workload == Workload::kIngestMixed) {
    CheckIngestReads(corpora[0]);
    return;
  }
  for (size_t corpus = 0; corpus < corpora.size(); ++corpus) {
    std::vector<char> used(in_.queries.size(), 0);
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (in_.connection_corpus[c] != static_cast<int>(corpus)) continue;
      for (size_t q = 0; q < conns_[c].tallies.size(); ++q) {
        if (conns_[c].tallies[q].seen) used[q] = 1;
      }
      for (const ReadRecord& r : conns_[c].records) {
        if (r.answer.row_count >= 0) used[r.query] = 1;
      }
    }
    std::vector<uint32_t> queries;
    for (size_t q = 0; q < used.size(); ++q) {
      if (used[q]) queries.push_back(static_cast<uint32_t>(q));
    }
    std::unique_ptr<QueryEngine> reference =
        ReferenceEngine(corpora[corpus].Clone(), in_.rig);
    std::vector<Answer> answers =
        ReferenceAnswers(reference.get(), in_.queries, queries);
    std::vector<Answer> by_query(in_.queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
      by_query[queries[i]] = answers[i];
    }
    int64_t wrong = 0;
    for (size_t c = 0; c < conns_.size(); ++c) {
      if (in_.connection_corpus[c] != static_cast<int>(corpus)) continue;
      for (size_t q = 0; q < conns_[c].tallies.size(); ++q) {
        const Tally& t = conns_[c].tallies[q];
        // Reads sharing a wrong first answer are all wrong; otherwise the
        // ones that differed from it are.
        if (t.seen) wrong += t.first == by_query[q] ? t.mismatched : t.matched;
      }
      for (const ReadRecord& r : conns_[c].records) {
        if (r.answer.row_count >= 0 && !(r.answer == by_query[r.query])) {
          ++wrong;
        }
      }
    }
    Fail(wrong, "wrong answers");
  }
}

// Share of the window's queries whose optimized plan reaches the engine's
// parallel cost threshold: the engine's own decision, recomputed outside.
void Run::ParallelShare(const std::vector<Instance>& corpora) {
  const CatalogStats stats = StatsFromInstance(corpora[0]);
  const QueryEngine probe(corpora[0].Clone(), in_.rig);
  OptimizerOptions options;
  options.stats = stats;
  options.rig = &in_.rig;
  uint64_t begin = 0, end = in_.queries.size();
  if (cfg_.workload == Workload::kColdAnalyst) {
    begin = cursor_at_[kWindow];
    end = cursor_at_[cfg_.trace ? kTraced : kStop];
  }
  int64_t parallel = 0, total = 0;
  for (uint64_t pos = begin; pos < end; ++pos) {
    Result<ExprPtr> parsed = ParseQuery(in_.queries[pos % in_.queries.size()]);
    if (!parsed.ok()) continue;
    const ExprPtr executed = Optimize(*parsed, options).expr;
    ++total;
    if (EstimateCost(executed, stats).cost >= probe.parallel_cost_threshold()) {
      ++parallel;
    }
  }
  parallel_share_ = total > 0 ? static_cast<double>(parallel) /
                                    static_cast<double>(total)
                              : 0;
}

void Run::Replay(const std::vector<Instance>& corpora) {
  std::map<std::string, Shadow> shadows;
  for (size_t i = 0; i < corpora.size(); ++i) {
    Shadow& s = shadows[in_.corpus_names[i]];
    s.run = std::make_unique<QueryEngine>(corpora[i].Clone(), in_.rig);
    s.staged = std::make_unique<QueryEngine>(corpora[i].Clone(), in_.rig);
    for (const recovery::Mutation& m : in_.mutations.initial) {
      ApplyToShadow(&s, m);
    }
    s.stats = StatsFromInstance(s.staged->instance());
  }
  auto feed = [&](const std::string& instance, const std::string& query) {
    Shadow& s = shadows[instance];
    (void)s.run->Run(query);
    RunStages(&s, query, 0, -1, nullptr);
  };
  // Bring the shadows to the served engine's state at the traced window's
  // start: the warm-up, the writes before it and, for cold_analyst, the
  // stream just before it.
  for (const auto& [corpus, query] : in_.warmup) {
    feed(in_.corpus_names[static_cast<size_t>(corpus)], query);
  }
  std::vector<const WriteRecord*> traced_writes;
  std::vector<double> apply_us;
  for (const WriteRecord& w : writes_) {
    if (!w.ok) continue;
    if (w.phase < kTraced) {
      ApplyToShadow(&shadows[in_.corpus_names[0]],
                    in_.mutations.stream[w.index]);
      continue;
    }
    traced_writes.push_back(&w);
    spans_.Add("recovery.apply",
               (int64_t{0xff} << 40) | static_cast<int64_t>(w.index), -1,
               w.start_ns, w.ack_ns);
    apply_us.push_back(static_cast<double>(w.ack_ns - w.start_ns) / 1e3);
  }
  if (cfg_.workload == Workload::kColdAnalyst) {
    const uint64_t end = cursor_at_[kTraced];
    const uint64_t begin = end > kColdPrefeed ? end - kColdPrefeed : 0;
    for (uint64_t pos = begin; pos < end; ++pos) {
      feed(in_.corpus_names[0], in_.queries[pos % in_.queries.size()]);
    }
  }

  // Every traced call gets a span; the first kReplayCap by send time are
  // replayed stage by stage under it.
  std::unordered_map<int64_t, int64_t> call_span;
  std::vector<double> call_us, overhead_us;
  for (const ConnectionResult& c : conns_) {
    for (const CallSpan& call : c.calls) {
      call_span[call.request_id] = spans_.Add(
          "server.call", call.request_id, -1, call.send_ns, call.recv_ns);
      const double us = static_cast<double>(call.recv_ns - call.send_ns) / 1e3;
      call_us.push_back(us);
      overhead_us.push_back(us - call.server_ms * 1e3);
    }
  }
  std::vector<const KeptMessage*> kept;
  for (const ConnectionResult& c : conns_) {
    for (const KeptMessage& m : c.kept) kept.push_back(&m);
  }
  std::sort(kept.begin(), kept.end(),
            [](const KeptMessage* a, const KeptMessage* b) {
              return a->send_ns < b->send_ns;
            });
  if (kept.size() > kReplayCap) kept.resize(kReplayCap);

  std::vector<double> protocol_us, run_us, unattributed_us;
  std::vector<char> replayed_call(spans_.spans().size(), 0);
  double rules = 0, operator_evals = 0, rows_scanned = 0, result_rows = 0;
  size_t next_write = 0;
  for (const KeptMessage* m : kept) {
    while (next_write < traced_writes.size() &&
           traced_writes[next_write]->ack_ns <= m->send_ns) {
      ApplyToShadow(&shadows[in_.corpus_names[0]],
                    in_.mutations.stream[traced_writes[next_write]->index]);
      ++next_write;
    }
    const int64_t id = m->request.id;
    const int64_t parent = call_span[id];
    replayed_call[static_cast<size_t>(parent)] = 1;

    // The protocol functions, on this request's own messages.
    int64_t t = NowNs();
    const std::string request_payload = server::RenderRequest(m->request);
    const std::string request_frame = server::EncodeFrame(request_payload);
    Result<server::Request> parsed_request =
        server::ParseRequest(request_payload);
    const std::string response_payload = server::RenderResponse(m->response);
    const std::string response_frame = server::EncodeFrame(response_payload);
    Result<server::Response> parsed_response =
        server::ParseResponse(response_payload);
    int64_t end = NowNs();
    spans_.Add("server.protocol", id, parent, t, end);
    protocol_us.push_back(static_cast<double>(end - t) / 1e3);
    if (!parsed_request.ok() || !parsed_response.ok() ||
        parsed_response->row_count != m->response.row_count ||
        request_frame.size() <= request_payload.size() ||
        response_frame.size() <= response_payload.size()) {
      Fail(1, "protocol round trip of a served message");
    }

    Shadow& shadow = shadows[m->request.instance];
    t = NowNs();
    (void)shadow.run->Run(m->request.query);
    end = NowNs();
    const int64_t run = spans_.Add("query.run", id, parent, t, end);
    const size_t first_stage = spans_.spans().size();
    StageOutcome outcome =
        RunStages(&shadow, m->request.query, id, run, &spans_);
    int64_t staged_ns = 0;
    for (size_t i = first_stage; i < spans_.spans().size(); ++i) {
      staged_ns += spans_.spans()[i].duration();
    }
    run_us.push_back(static_cast<double>(end - t) / 1e3);
    unattributed_us.push_back(static_cast<double>(end - t - staged_ns) / 1e3);
    rules += outcome.rules_applied;
    operator_evals += static_cast<double>(outcome.eval.operator_evals);
    rows_scanned += static_cast<double>(outcome.eval.rows_scanned);
    result_rows += static_cast<double>(outcome.result_rows);
  }

  // Median duration and self time of each span name. server.call spans are
  // counted only where the replay gave them children.
  const std::vector<int64_t> self = spans_.SelfTimes();
  std::map<std::string, std::pair<std::vector<double>, std::vector<double>>>
      by_name;
  for (size_t i = 0; i < spans_.spans().size(); ++i) {
    const Span& s = spans_.spans()[i];
    if (i < replayed_call.size() && std::string(s.name) == "server.call" &&
        !replayed_call[i]) {
      continue;
    }
    auto& values = by_name[s.name];
    values.first.push_back(static_cast<double>(s.duration()) / 1e3);
    values.second.push_back(static_cast<double>(self[i]) / 1e3);
  }
  for (const auto& [name, values] : by_name) {
    char line[200];
    std::snprintf(line, sizeof(line),
                  "span %-18s n=%-6zu median_us=%-12.3f self_median_us=%.3f",
                  name.c_str(), values.first.size(), Median(values.first),
                  Median(values.second));
    report_.span_table.push_back(line);
  }
  auto median_of = [&](const char* name) {
    auto it = by_name.find(name);
    return it == by_name.end() ? 0.0 : Median(it->second.first);
  };
  const double n = std::max<double>(1, static_cast<double>(kept.size()));
  replay_.replayed = kept.size();
  replay_.call_us = Median(call_us);
  replay_.overhead_us = Median(overhead_us);
  replay_.protocol_us = Median(protocol_us);
  replay_.parse_us = median_of("query.parse");
  replay_.run_us = Median(run_us);
  replay_.rows_us = median_of("query.rows");
  replay_.unattributed_us = Median(unattributed_us);
  replay_.optimize_us = median_of("opt.optimize");
  replay_.rules_applied = rules / n;
  replay_.canonicalize_us = median_of("core.canonicalize");
  replay_.eval_us = median_of("core.eval");
  replay_.operator_evals = operator_evals / n;
  replay_.rows_scanned = rows_scanned / n;
  replay_.result_rows = result_rows / n;
  replay_.lookup_us = median_of("cache.lookup");
  replay_.apply_us = Median(apply_us);
  if (!cfg_.trace_out.empty()) {
    Status written = spans_.Write(cfg_.trace_out);
    if (!written.ok()) report_.notes.push_back(written.ToString());
  }
}

void Run::EndToEnd() {
  const double window_s = WindowSeconds(kWindow);
  const LatencySummary reads = Summarize(Latencies(kWindow));
  const int64_t ok_reads = Ok(kWindow);
  std::vector<double> write_ms, lag_ms;
  int64_t ok_writes = 0, payload = 0;
  for (const WriteRecord& w : writes_) {
    if (w.phase != kWindow) continue;
    write_ms.push_back(static_cast<double>(w.ack_ns - w.sched_ns) / 1e6);
    lag_ms.push_back(static_cast<double>(w.start_ns - w.sched_ns) / 1e6);
    if (w.ok) {
      ++ok_writes;
      payload += PayloadBytes(in_.mutations.stream[w.index]);
    }
  }
  writes_summary_ = Summarize(write_ms);
  // The storage counter sees every Env write, WAL appends included.
  const double stored = window_.Delta("regal_storage_bytes_written_total");
  write_amp_ = payload > 0 ? stored / static_cast<double>(payload) : 0;

  char note[320];
  std::string setups;
  for (double s : setup_times_) {
    std::snprintf(note, sizeof(note), "%s%.4f", setups.empty() ? "" : ",", s);
    setups += note;
  }
  Metrics& e = report_.end_to_end;
  e.Add("setup_s", Median(setup_times_), "s", "median of setups " + setups);
  const SliceMedians sliced =
      SliceWindow(Latencies(kWindow), SendTimes(kWindow),
                  phase_start_ns_[kWindow], cfg_.seconds);
  std::snprintf(note, sizeof(note),
                "median of %zu one-second slices; whole window %.2f req/s "
                "(reads=%lld window_s=%.4f)",
                sliced.slices,
                window_s > 0 ? static_cast<double>(ok_reads) / window_s : 0,
                static_cast<long long>(ok_reads), window_s);
  std::string per_slice;
  for (double q : sliced.slice_qps) {
    per_slice += (per_slice.empty() ? "" : ",") +
                 std::to_string(static_cast<int64_t>(q));
  }
  e.Add("read_qps", sliced.qps, "req/s",
        std::string(note) + " slices=" + per_slice);
  std::snprintf(note, sizeof(note),
                "median of %zu slices; whole window %.6f ms (%s)",
                sliced.slices, reads.p50, SampleNote(reads).c_str());
  e.Add("read_p50_ms", sliced.p50, "ms", note);
  std::snprintf(note, sizeof(note),
                "median of %zu slices, each >= %lld samples beyond p99; "
                "whole window %.6f ms (%s)",
                sliced.slices, static_cast<long long>(sliced.min_beyond_p99),
                reads.p99, SampleNote(reads).c_str());
  e.Add("read_p99_ms", sliced.p99, "ms", note);
  read_slices_ = sliced;
  if (cfg_.workload == Workload::kIngestMixed) {
    std::snprintf(note, sizeof(note),
                  "from due time; %s; generator lag p99=%.4f ms max=%.4f ms",
                  SampleNote(writes_summary_).c_str(), Percentile(lag_ms, 0.99),
                  lag_ms.empty() ? 0.0
                                 : *std::max_element(lag_ms.begin(),
                                                     lag_ms.end()));
    e.Add("write_p50_ms", writes_summary_.p50, "ms", note);
    e.Add("write_p99_ms", writes_summary_.p99, "ms", note);
    std::snprintf(note, sizeof(note),
                  "stored=%.0f B (wal=%.0f B) payload=%lld B writes=%lld",
                  stored, window_.Delta("regal_wal_bytes_written_total"),
                  static_cast<long long>(payload),
                  static_cast<long long>(ok_writes));
    e.Add("write_amp", write_amp_, "B/B", note);
  }
  e.Add("peak_rss_mb", peak_rss_mb_, "MB");
  // CPU per operation per one-second mark interval, median over them.
  std::vector<int64_t> op_times = SendTimes(kWindow);
  for (const WriteRecord& w : writes_) {
    if (w.phase == kWindow) op_times.push_back(w.start_ns);
  }
  std::sort(op_times.begin(), op_times.end());
  std::vector<double> slice_cpu_us;
  for (size_t k = 0; k + 1 < cpu_marks_.size(); ++k) {
    const auto [from, cpu_from] = cpu_marks_[k];
    const auto [to, cpu_to] = cpu_marks_[k + 1];
    const auto ops_in = std::lower_bound(op_times.begin(), op_times.end(), to) -
                        std::lower_bound(op_times.begin(), op_times.end(), from);
    if (ops_in > 0) {
      slice_cpu_us.push_back((cpu_to - cpu_from) * 1e6 /
                             static_cast<double>(ops_in));
    }
  }
  const int64_t ops = ok_reads + ok_writes;
  std::snprintf(note, sizeof(note),
                "median of %zu slices; whole window %.4f us (process cpu_s=%.4f "
                "ops=%lld)",
                slice_cpu_us.size(),
                ops > 0 ? window_cpu_s_ * 1e6 / static_cast<double>(ops) : 0,
                window_cpu_s_, static_cast<long long>(ops));
  e.Add("cpu_us_per_op", Median(slice_cpu_us), "us", note);
}

void Run::Layers() {
  const Window& w = window_;
  const double requests =
      std::max<double>(1, static_cast<double>(Sent(kWindow)));
  const double hits = w.Delta("regal_cache_hits_total");
  const double misses = w.Delta("regal_cache_misses_total");
  const double wal_records = w.Delta("regal_wal_records_total");
  const double traced_qps =
      cfg_.trace && WindowSeconds(kTraced) > 0
          ? static_cast<double>(Ok(kTraced)) / WindowSeconds(kTraced)
          : 0;
  const double qps = report_.end_to_end.Get("read_qps");
  const bool ingest = cfg_.workload == Workload::kIngestMixed;
  Metrics& L = report_.layers;
  L.Add("server.call_us", replay_.call_us, "us");
  L.Add("server.overhead_us", replay_.overhead_us, "us");
  L.Add("server.protocol_us", replay_.protocol_us, "us");
  L.Add("server.response_bytes",
        w.Delta("regal_server_bytes_sent_total") / requests, "B/req");
  L.Add("safety.admitted", w.Delta("regal_resilience_admitted_total"), "count");
  L.Add("safety.shed", w.Delta("regal_resilience_shed_total"), "count");
  L.Add("safety.rejected",
        w.Delta("regal_server_admission_rejects_total") +
            w.Delta("regal_safety_queries_rejected_total"),
        "count");
  L.Add("safety.sojourn_ms", w.HistogramMean("regal_resilience_sojourn_ms"),
        "ms");
  L.Add("query.parse_us", replay_.parse_us, "us");
  L.Add("query.run_us", replay_.run_us, "us");
  L.Add("query.rows_us", replay_.rows_us, "us");
  L.Add("query.unattributed_us", replay_.unattributed_us, "us");
  L.Add("opt.optimize_us", replay_.optimize_us, "us");
  L.Add("opt.rules_applied", replay_.rules_applied, "count/req");
  L.Add("core.canonicalize_us", replay_.canonicalize_us, "us");
  L.Add("core.eval_us", replay_.eval_us, "us");
  L.Add("core.operator_evals", replay_.operator_evals, "count/req");
  L.Add("core.rows_scanned", replay_.rows_scanned, "count/req");
  L.Add("core.result_rows", replay_.result_rows, "count/req");
  L.Add("cache.lookup_us", replay_.lookup_us, "us");
  L.Add("cache.hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0,
        "ratio");
  L.Add("cache.evictions", w.Delta("regal_cache_evictions_total"), "count");
  L.Add("cache.insert_failures", w.Delta("regal_cache_insert_failures_total"),
        "count");
  L.Add("cache.bytes", cache_bytes_, "B");
  L.Add("exec.parallel_share", parallel_share_, "ratio");
  L.Add("exec.parallel_ops",
        w.Delta("regal_exec_parallel_ops_total") / requests, "count/req");
  L.Add("exec.tasks", w.Delta("regal_exec_tasks_total") / requests,
        "count/req");
  L.Add("exec.steals", w.Delta("regal_exec_steals_total") / requests,
        "count/req");
  L.Add("recovery.apply_us", replay_.apply_us, "us");
  L.Add("recovery.wal_bytes_per_record",
        wal_records > 0 ? w.Delta("regal_wal_bytes_written_total") / wal_records
                        : 0,
        "B/record");
  L.Add("recovery.wal_syncs", w.Delta("regal_wal_syncs_total"), "count");
  L.Add("recovery.checkpoints",
        w.Delta("regal_recovery_checkpoints_total", {{"outcome", "ok"}}),
        "count");
  L.Add("recovery.reopen_s", reopen_s_, "s");
  L.Add("read_qps", read_slices_.qps, "req/s");
  L.Add("cpu_us_per_op", report_.end_to_end.Get("cpu_us_per_op"), "us");
  L.Add("read_p50_ms", read_slices_.p50, "ms");
  L.Add("read_p99_ms", read_slices_.p99, "ms");
  L.Add("write_p50_ms", ingest ? writes_summary_.p50 : 0, "ms");
  L.Add("write_p99_ms", ingest ? writes_summary_.p99 : 0, "ms");
  L.Add("write_amp", write_amp_, "B/B");
  L.Add("storage.save_ms", w.HistogramMean("regal_storage_save_latency_ms"),
        "ms");
  L.Add("storage.snapshot_bytes",
        w.HistogramMean("regal_storage_snapshot_bytes"), "B");
  L.Add("storage.fsyncs", w.Delta("regal_storage_fsyncs_total"), "count");
  L.Add("index.build_s", Median(build_times_), "s");
  L.Add("admin.scrape_ms", Median(scrape_ms_), "ms");
  L.Add("obs.recorder_kept", w.Delta("regal_recorder_kept_total"), "count");
  L.Add("trace.overhead_pct",
        traced_qps > 0 ? (qps / traced_qps - 1) * 100 : 0, "%",
        "untraced vs traced read_qps");
}

Report Run::Execute() {
  auto abort_run = [&](const Status& status) {
    Fail(1, "run aborted: " + status.ToString());
    report_.attempted = std::max<int64_t>(report_.attempted, 1);
    return report_;
  };
  Result<Inputs> inputs = MakeInputs(cfg_);
  if (!inputs.ok()) return abort_run(inputs.status());
  in_ = std::move(inputs).value();
  std::error_code ec;
  fs::create_directories(cfg_.workdir, ec);

  Deployment deployment;
  for (int attempt = 0; attempt < cfg_.setup_repeats; ++attempt) {
    Result<Deployment> d = Deploy(cfg_, in_, attempt);
    if (!d.ok()) return abort_run(d.status());
    setup_times_.push_back(d->setup_s);
    build_times_.push_back(d->index_build_s);
    if (attempt + 1 < cfg_.setup_repeats) {
      Teardown(&*d);
    } else {
      deployment = std::move(d).value();
    }
  }
  Load(&deployment);

  std::vector<Instance> corpora;  // Fresh parses, for checks and replay.
  for (const std::string& source : in_.sources) {
    Result<Instance> parsed = ParseSgml(source);
    if (!parsed.ok()) return abort_run(parsed.status());
    corpus_regions_.push_back(parsed->NumRegions());
    corpora.push_back(std::move(parsed).value());
  }
  if (deployment.durable != nullptr) CloseAndReopen(&deployment, corpora[0]);
  Teardown(&deployment);
  CheckReads(corpora);
  EndToEnd();
  if (cfg_.trace) {
    ParallelShare(corpora);
    Replay(corpora);
    Layers();
  }

  for (int phase = kLeadIn; phase < kStop; ++phase) {
    report_.attempted += Sent(phase);
  }
  report_.attempted += static_cast<int64_t>(writes_.size());
  report_.attempted = std::max<int64_t>(report_.attempted, 1);

  char line[512];
  std::snprintf(line, sizeof(line),
                "# e2ebench workload=%s seed=%" PRIu64 " seconds=%g trace=%d",
                WorkloadName(cfg_.workload), cfg_.seed, cfg_.seconds,
                cfg_.trace ? 1 : 0);
  report_.header.push_back(line);
  for (size_t i = 0; i < in_.sources.size(); ++i) {
    std::snprintf(line, sizeof(line),
                  "# corpus %s entries=%d text_bytes=%zu regions=%zu",
                  in_.corpus_names[i].c_str(), in_.entries[i],
                  in_.sources[i].size(), corpus_regions_[i]);
    report_.header.push_back(line);
  }
  std::snprintf(
      line, sizeof(line),
      "# streams queries=%zu query_digest=%s mutations=%zu "
      "mutation_digest=%s connections=%d load_threads=%d",
      in_.queries.size(), Hex(in_.query_digest).c_str(),
      in_.mutations.initial.size() + in_.mutations.stream.size(),
      Hex(in_.mutation_digest).c_str(), in_.connections,
      in_.connections + (cfg_.workload == Workload::kIngestMixed ? 1 : 0));
  report_.header.push_back(line);
  std::snprintf(line, sizeof(line),
                "# provenance build_type=%s simd=%s nproc=%u sync_policy=%s",
                REGAL_E2E_BUILD_TYPE, simd::ActiveKernels().name,
                std::thread::hardware_concurrency(),
                SyncPolicyDescription(cfg_.workload).c_str());
  report_.header.push_back(line);
  if (cfg_.trace) {
    std::snprintf(line, sizeof(line),
                  "# trace replayed=%zu spans=%zu", replay_.replayed,
                  spans_.spans().size());
    report_.header.push_back(line);
  }
  report_.end_to_end.Add(
      "failed_frac",
      static_cast<double>(report_.failed) /
          static_cast<double>(report_.attempted),
      "ratio",
      "failed=" + std::to_string(report_.failed) +
          " attempted=" + std::to_string(report_.attempted));
  return report_;
}

// --- Output ------------------------------------------------------------------

void PrintMetric(const char* kind, const Metric& m) {
  std::printf("%s %-26s %.6g %s%s%s\n", kind, m.name.c_str(), m.value,
              m.unit.c_str(), m.note.empty() ? "" : "  # ", m.note.c_str());
}

std::string ResultJson(const Report& report, bool trace) {
  std::string json = "{\"correct\": ";
  json += report.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  auto add = [&](const Metric& m) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + m.name + "\": {\"value\": " + JsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  };
  if (trace) {
    for (const Metric& m : report.layers.items()) add(m);
  } else {
    for (const char* name : kEndToEndNames) {
      for (const Metric& m : report.end_to_end.items()) {
        if (m.name == name) add(m);
      }
    }
  }
  json += "}}";
  return json;
}

void PrintReport(const Report& report, const std::string& git_rev,
                 const std::string& src_digest, bool trace) {
  for (const std::string& line : report.header) {
    std::printf("%s\n", line.c_str());
  }
  std::printf("# source git_rev=%s src_digest=%s\n", git_rev.c_str(),
              src_digest.c_str());
  for (const Metric& m : report.end_to_end.items()) PrintMetric("metric", m);
  for (const Metric& m : report.layers.items()) PrintMetric("layer", m);
  for (const std::string& line : report.span_table) {
    std::printf("%s\n", line.c_str());
  }
  for (const std::string& note : report.notes) {
    std::printf("# FAILED: %s\n", note.c_str());
  }
  std::printf("%s\n", ResultJson(report, trace).c_str());
  std::fflush(stdout);
}

// --- Self-test ---------------------------------------------------------------

int self_test_failures = 0;

void Expect(bool condition, const std::string& what) {
  if (!condition) {
    ++self_test_failures;
    std::printf("self-test FAILED: %s\n", what.c_str());
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestStreams() {
  Expect(DistinctQueries(7, 300, 0.1) == DistinctQueries(7, 300, 0.1),
         "same seed gives the same queries");
  Expect(DistinctQueries(7, 300, 0.1) != DistinctQueries(8, 300, 0.1),
         "another seed gives other queries");
  Expect(MarkQueries(7, kMarks, 16) == MarkQueries(7, kMarks, 16) &&
             MarkQueries(7, kMarks, 16) != MarkQueries(8, kMarks, 16),
         "mark queries follow the seed");
  Expect(StaticQueries(7, 16) == StaticQueries(7, 16) &&
             StaticQueries(7, 16) != StaticQueries(8, 16),
         "static queries follow the seed");
  auto length = [](const std::string& q) {
    return static_cast<int64_t>(q.size() * 97 % 9000);
  };
  Expect(HotSet(7, 4, 0.1, length) == HotSet(7, 4, 0.1, length) &&
             HotSet(7, 4, 0.1, length) != HotSet(8, 4, 0.1, length) &&
             HotSet(7, 4, 0.1, length).size() == 32,
         "hot sets follow the seed");
  Expect(IndexSequence(7, 1000, 32) == IndexSequence(7, 1000, 32) &&
             IndexSequence(7, 1000, 32) != IndexSequence(8, 1000, 32),
         "index sequences follow the seed");
  DictionaryGeneratorOptions options;
  options.entries = 60;
  Result<Instance> corpus = ParseSgml(GenerateDictionarySource(options));
  Expect(corpus.ok(), "small corpus parses");
  if (!corpus.ok()) return;
  const RegionSet leaves = LeafRegions(*corpus);
  const MutationPlan a = PlanMutations(leaves, 7, kMarks, 200);
  const MutationPlan b = PlanMutations(leaves, 7, kMarks, 200);
  const MutationPlan c = PlanMutations(leaves, 8, kMarks, 200);
  Expect(DigestMutations(a.stream) == DigestMutations(b.stream) &&
             DigestMutations(a.initial) == DigestMutations(b.initial),
         "same seed gives the same mutations");
  Expect(DigestMutations(a.stream) != DigestMutations(c.stream),
         "another seed gives other mutations");
  // Applying the whole plan keeps the instance hierarchical and RIG-true.
  QueryEngine engine(corpus->Clone(), IngestRig(kMarks, a.adds));
  bool applied = true;
  for (const auto* list : {&a.initial, &a.stream}) {
    for (const recovery::Mutation& m : *list) {
      applied = applied && engine.Apply(m).ok();
    }
  }
  Expect(applied && engine.Validate().ok(),
         "planned mutations apply and validate");
  for (const auto& queries :
       {MarkQueries(7, kMarks, 16), StaticQueries(7, 16)}) {
    for (const std::string& q : queries) {
      Expect(engine.Run(q).ok(), "templated query runs: " + q);
    }
  }
  for (const std::string& q : DistinctQueries(9, 200, 0.2)) {
    Expect(engine.Run(q).ok(), "generated query runs: " + q);
  }
}

void TestStats() {
  std::vector<double> one_to_ten;
  for (int i = 1; i <= 10; ++i) one_to_ten.push_back(i);
  Expect(Near(Percentile(one_to_ten, 0.5), 5) &&
             Near(Percentile(one_to_ten, 0.9), 9) &&
             Near(Percentile(one_to_ten, 0.99), 10) &&
             Near(Percentile({3, 1, 2}, 0.5), 2),
         "nearest-rank percentiles");
  Expect(SamplesBeyond(1000, 0.99) == 10 && SamplesBeyond(100, 0.99) == 1 &&
             SamplesBeyond(1001, 0.99) == 10,
         "samples beyond p99");
  Expect(Near(Median({1, 2, 3, 4}), 2.5) && Near(Median({7}), 7),
         "median");
}

// Miniature runs of every workload: clean ones must pass the gate and
// ones with an injected fault must trip it.
void TestGate(const std::string& workdir) {
  for (Workload w : {Workload::kWarmServed, Workload::kColdAnalyst,
                     Workload::kIngestMixed}) {
    for (Inject inject :
         {Inject::kNone, Inject::kWrongRead, Inject::kLostWrite}) {
      if (inject == Inject::kLostWrite && w != Workload::kIngestMixed) continue;
      RunConfig cfg;
      cfg.workload = w;
      cfg.seed = 11;
      cfg.seconds = 0.4;
      cfg.lead_in_s = 0.1;
      cfg.entries = 60;
      cfg.setup_repeats = 1;
      cfg.trace = inject == Inject::kNone;
      cfg.inject = inject;
      cfg.workdir = (fs::path(workdir) / WorkloadName(w)).string();
      const Report report = Run(cfg).Execute();
      const std::string what = std::string(WorkloadName(w)) +
                               (inject == Inject::kNone ? " clean run"
                                : inject == Inject::kWrongRead
                                    ? " with a wrong answer"
                                    : " with a lost write");
      if (inject == Inject::kNone) {
        Expect(report.correct && report.failed == 0 && report.attempted > 0,
               what + " passes the gate");
        for (const std::string& note : report.notes) {
          std::printf("  note: %s\n", note.c_str());
        }
        Expect(report.layers.items().size() > 40, what + " reports layers");
      } else {
        Expect(!report.correct && report.failed > 0, what + " trips the gate");
      }
      std::error_code ec;
      fs::remove_all(cfg.workdir, ec);
    }
  }
}

int SelfTest(const std::string& workdir) {
  TestStats();
  TestStreams();
  TestGate(workdir);
  std::printf("self-test %s (%d failures)\n",
              self_test_failures == 0 ? "passed" : "FAILED",
              self_test_failures);
  return self_test_failures == 0 ? 0 : 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: regal_e2e --workload NAME --seed N --seconds S "
               "--trace 0|1 --workdir DIR [--trace-out FILE]\n"
               "                 [--git-rev REV] [--src-digest HEX]\n"
               "       regal_e2e --self-test --workdir DIR\n");
  return 2;
}

int Main(int argc, char** argv) {
  RunConfig cfg;
  std::string git_rev = "unknown", src_digest = "unknown";
  bool self_test = false, have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    auto take = [&]() -> std::string {
      ++i;
      return value;
    };
    if (arg == "--self-test") {
      self_test = true;
    } else if (value == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      std::optional<Workload> w = ParseWorkload(take());
      if (!w.has_value()) return Usage();
      cfg.workload = *w;
      have_workload = true;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(take().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      cfg.seconds = std::atof(take().c_str());
    } else if (arg == "--trace") {
      cfg.trace = take() == "1";
    } else if (arg == "--workdir") {
      cfg.workdir = take();
    } else if (arg == "--trace-out") {
      cfg.trace_out = take();
    } else if (arg == "--git-rev") {
      git_rev = take();
    } else if (arg == "--src-digest") {
      src_digest = take();
    } else {
      return Usage();
    }
  }
  if (cfg.workdir.empty()) return Usage();
  if (self_test) return SelfTest(cfg.workdir);
  if (!have_workload || cfg.seconds <= 0 || cfg.seconds > 60) return Usage();
  const Report report = Run(cfg).Execute();
  PrintReport(report, git_rev, src_digest, cfg.trace);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace e2e
}  // namespace regal

int main(int argc, char** argv) { return regal::e2e::Main(argc, argv); }
