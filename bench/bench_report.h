// Shared bench harness: runs google-benchmark with the usual console output
// plus a machine-readable JSON report (the BENCH_*.json files referenced by
// EXPERIMENTS.md), written with the obs JSON writer so the bench binaries add
// no dependencies.

#ifndef REGAL_BENCH_BENCH_REPORT_H_
#define REGAL_BENCH_BENCH_REPORT_H_

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "core/simd/simd_kernels.h"
#include "exec/thread_pool.h"
#include "obs/json.h"
#include "util/cpu.h"

// Build provenance, injected by bench/CMakeLists.txt so that every BENCH_*.json
// records which revision and build type produced it.
#ifndef REGAL_GIT_REVISION
#define REGAL_GIT_REVISION "unknown"
#endif
#ifndef REGAL_BUILD_TYPE
#define REGAL_BUILD_TYPE "unknown"
#endif

namespace regal {

/// Display reporter that keeps the normal console output and additionally
/// streams every run into one JSON document:
///   {"context": {...}, "benchmarks": [{"name": ..., "iterations": ...,
///    "real_time_ns": ..., "cpu_time_ns": ..., <user counters>...}, ...]}
/// Times are converted to nanoseconds whatever unit a bench reports in. A
/// coefficient-of-variation aggregate (the `_cv` row of a repeated bench) is
/// a ratio, not a time: it carries `"cv": <real-time CV>` instead of the two
/// time fields.
/// Wrapping the console reporter (instead of using the file-reporter slot)
/// sidesteps google-benchmark's requirement that file reporters come with an
/// explicit --benchmark_out flag.
class BenchJsonReporter : public benchmark::BenchmarkReporter {
 public:
  explicit BenchJsonReporter(std::string path) : path_(std::move(path)) {}

  bool ReportContext(const Context& context) override {
    console_.SetOutputStream(&GetOutputStream());
    console_.SetErrorStream(&GetErrorStream());
    const benchmark::CPUInfo& cpu = benchmark::CPUInfo::Get();
    writer_.BeginObject();
    writer_.Key("context").BeginObject();
    writer_.Key("num_cpus").Int(cpu.num_cpus);
    writer_.Key("mhz_per_cpu").Double(cpu.cycles_per_second / 1e6);
    // Numbers from different thread counts / revisions / build types are not
    // comparable; record all three so stale baselines are detectable.
    writer_.Key("num_threads").Int(exec::ThreadPool::DefaultNumThreads());
    writer_.Key("git_revision").String(REGAL_GIT_REVISION);
    writer_.Key("build_type").String(REGAL_BUILD_TYPE);
    // The ISA tier the operator kernels dispatched to (after the REGAL_SIMD
    // override, if any) plus the raw CPU features; numbers from different
    // tiers are not comparable either.
    writer_.Key("simd_isa").String(simd::ActiveKernels().name);
    writer_.Key("cpu_sse42").Bool(util::CpuInfo().sse42);
    writer_.Key("cpu_avx2").Bool(util::CpuInfo().avx2);
    writer_.EndObject();
    writer_.Key("benchmarks").BeginArray();
    return console_.ReportContext(context);
  }

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      // Adjusted times come in the run's own unit (ms or us for some).
      const double to_ns =
          1e9 / benchmark::GetTimeUnitMultiplier(run.time_unit);
      writer_.BeginObject();
      writer_.Key("name").String(run.benchmark_name());
      writer_.Key("iterations").Int(run.iterations);
      if (run.aggregate_unit == benchmark::kPercentage) {
        // The statistic itself, unscaled by iterations or time unit (the
        // console prints it as a percentage from the same field).
        writer_.Key("cv").Double(run.real_accumulated_time);
      } else {
        writer_.Key("real_time_ns").Double(run.GetAdjustedRealTime() * to_ns);
        writer_.Key("cpu_time_ns").Double(run.GetAdjustedCPUTime() * to_ns);
      }
      for (const auto& [counter_name, counter] : run.counters) {
        writer_.Key(counter_name).Double(counter.value);
      }
      writer_.EndObject();
    }
    console_.ReportRuns(runs);
  }

  void Finalize() override {
    console_.Finalize();
    writer_.EndArray().EndObject();
    std::string doc = writer_.Take();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench_report: cannot open %s for writing\n",
                   path_.c_str());
      return;
    }
    std::fwrite(doc.data(), 1, doc.size(), f);
    std::fclose(f);
    std::fprintf(stderr, "bench_report: wrote %s\n", path_.c_str());
  }

 private:
  std::string path_;
  obs::JsonWriter writer_;
  // Colorless tabular output: these binaries are usually logged or piped.
  benchmark::ConsoleReporter console_{benchmark::ConsoleReporter::OO_Tabular};
};

/// Drop-in replacement for BENCHMARK_MAIN()'s body. The JSON report lands at
/// `default_path` (relative to the working directory) unless the
/// REGAL_BENCH_JSON environment variable overrides it.
inline int RunBenchmarksWithJson(int argc, char** argv,
                                 const char* default_path) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  const char* override_path = std::getenv("REGAL_BENCH_JSON");
  BenchJsonReporter reporter(override_path != nullptr ? override_path
                                                      : default_path);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return 0;
}

}  // namespace regal

#endif  // REGAL_BENCH_BENCH_REPORT_H_
