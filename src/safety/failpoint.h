#ifndef REGAL_SAFETY_FAILPOINT_H_
#define REGAL_SAFETY_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "util/random.h"
#include "util/status.h"

namespace regal {
namespace safety {

/// Deterministic fault-injection registry. Failpoints are named sites
/// planted on the execution paths that a production deployment must survive
/// (thread pool dispatch, partitioned kernels, index builds, evaluator
/// nodes, the FMFT emptiness search, and — via the storage
/// FaultInjectionEnv, see storage/fault_env.h — the snapshot write path:
/// storage.env.{open,write,sync,rename,dirsync}.eio, storage.env.write.
/// {enospc,short,bitflip} and storage.env.crash). A site is *disabled*
/// unless armed, and
/// the disabled check is a single relaxed atomic load of a process-wide
/// armed-site counter plus one branch — no lock, no map lookup, no string
/// hashing — so shipping the probes costs nothing (bench_safety measures
/// this).
///
/// Arming is programmatic (Arm / ArmFromSpec) or via the REGAL_FAILPOINTS
/// environment variable, parsed once when the default registry is first
/// used. Firing decisions come from a per-failpoint xorshift Rng seeded at
/// arm time, so a stress run is reproducible from (spec, seed) alone.
///
/// Two call styles match the two failure modes the engine supports:
///   * CheckFailpoint(name)  — fatal injection: returns a non-OK Status
///     ("injected failure at '<name>'") that propagates like any other
///     error. Planted where a Status can flow.
///   * FailpointFires(name)  — degradation trigger: returns bool; the site
///     falls back to its sequential / slow path and records the fallback.
///     Planted where execution must continue (kernels, pool saturation).
class FailpointRegistry {
 public:
  /// How an armed failpoint decides to fire.
  struct Config {
    /// Probability that an armed hit fires, decided by the seeded Rng.
    double probability = 1.0;
    /// Hits to let through before the failpoint may fire (0 = immediately).
    int64_t skip = 0;
    /// Cap on total fires; < 0 means unlimited.
    int64_t max_fires = -1;
    /// Seed for the per-failpoint Rng (probability < 1 draws from it).
    uint64_t seed = 1;
  };

  /// The process-wide registry. First use parses REGAL_FAILPOINTS (same
  /// syntax as ArmFromSpec); a malformed variable is reported to stderr and
  /// ignored rather than aborting startup.
  static FailpointRegistry& Default();

  FailpointRegistry() = default;
  FailpointRegistry(const FailpointRegistry&) = delete;
  FailpointRegistry& operator=(const FailpointRegistry&) = delete;

  void Arm(const std::string& name);  // Fires every hit (default Config).
  void Arm(const std::string& name, Config config);
  void Disarm(const std::string& name);
  void DisarmAll();

  /// Arms failpoints from a spec string:
  ///   spec     := entry (';' entry)*
  ///   entry    := name ['=' probability] ['@' seed] ['#' max_fires]
  /// e.g. "exec.kernel.degrade;eval.node=0.5@7;index.build=1#1".
  Status ArmFromSpec(const std::string& spec);

  /// True iff `name` is currently armed (regardless of whether it would
  /// fire on the next hit).
  bool IsArmed(const std::string& name) const;

  /// Times `name` fired since it was (re-)armed. 0 when not armed.
  int64_t FireCount(const std::string& name) const;

  /// Armed failpoint names, sorted (diagnostics / tests).
  std::vector<std::string> Armed() const;

  /// Decides one hit of `name`. Internal — call through FailpointFires /
  /// CheckFailpoint, which apply the zero-cost disabled gate first.
  bool ShouldFire(const char* name);

  /// Relaxed count of armed failpoints across every registry instance; the
  /// disabled fast path is `armed == 0`.
  static int64_t ArmedCountRelaxed() {
    return armed_count_.load(std::memory_order_relaxed);
  }

 private:
  struct Entry {
    Config config;
    Rng rng{1};
    int64_t hits = 0;
    int64_t fires = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Entry> entries_;
  // Process-wide so the inline fast path needs no registry pointer.
  static std::atomic<int64_t> armed_count_;
};

/// Degradation-style probe: true iff `name` is armed and fires on this hit.
/// Disabled cost: one relaxed load + branch.
inline bool FailpointFires(const char* name) {
  if (FailpointRegistry::ArmedCountRelaxed() == 0) return false;
  return FailpointRegistry::Default().ShouldFire(name);
}

/// Fatal-style probe: a non-OK Status when `name` fires, OK otherwise.
/// Pair with REGAL_RETURN_NOT_OK at the planted site.
inline Status CheckFailpoint(const char* name) {
  if (FailpointFires(name)) {
    return Status::Internal(std::string("injected failure at '") + name + "'");
  }
  return Status::OK();
}

}  // namespace safety
}  // namespace regal

#endif  // REGAL_SAFETY_FAILPOINT_H_
