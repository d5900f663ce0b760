#ifndef REGAL_SAFETY_TENANT_H_
#define REGAL_SAFETY_TENANT_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "safety/context.h"
#include "util/status.h"

namespace regal {
namespace safety {

/// Per-tenant resource quota for the multi-tenant query service. Extends
/// the per-query QueryLimits discipline one level up: a tenant's *aggregate*
/// footprint (concurrent queries, response bytes in flight) is bounded the
/// same way a single query's work is.
struct TenantQuota {
  /// Hard cap on this tenant's concurrent queries; <= 0 means "a fair
  /// share of the admission capacity" (see TenantGovernor::Admit).
  int max_concurrent = 0;
  /// Byte cap on this tenant's responses currently being serialized and
  /// sent (backpressure: a tenant streaming giant results cannot buffer
  /// without bound); <= 0 means unlimited.
  int64_t max_inflight_response_bytes = 0;
  /// Limits applied to each of the tenant's queries (deadline, memory
  /// budget, expression complexity, cancellation).
  QueryLimits limits;
};

/// Thread-safe per-tenant accountant: fair-share arbitration of the
/// admission capacity plus byte-accounted response backpressure.
///
/// The global concurrency cap belongs to the AdmissionController in front
/// of the governor (safety/admission.h): a request reaches Admit() only
/// while it holds one of that controller's `capacity` slots. The governor
/// divides those slots among tenants. With A tenants currently holding at
/// least one slot (the candidate counts as active), a tenant without an
/// explicit max_concurrent may hold up to max(1, capacity / A) of them.
/// The bound adapts as tenants come and go — a tenant alone on the box
/// uses all of it; the moment a second tenant shows up, neither can
/// starve the other below half. Rejection is immediate (no queueing):
/// the service surfaces kResourceExhausted and the client retries, which
/// under load beats accumulating blocked handler threads.
class TenantGovernor {
 public:
  struct Options {
    /// Quota for tenants without an explicit SetQuota entry.
    TenantQuota default_quota;
  };

  /// `capacity` is the admission controller's slot count, the pool that
  /// fair share divides.
  explicit TenantGovernor(int capacity, Options options = {})
      : capacity_(capacity), options_(std::move(options)) {}

  void SetQuota(const std::string& tenant, TenantQuota quota);
  TenantQuota QuotaFor(const std::string& tenant) const;

  /// Takes one concurrency slot for `tenant`, or fails with
  /// kResourceExhausted when the tenant is over its (explicit or
  /// fair-share) cap. On success the caller must Release() exactly once
  /// (AdmissionTicket below).
  Status Admit(const std::string& tenant);
  void Release(const std::string& tenant);

  /// Charges `bytes` of response payload against the tenant's in-flight
  /// byte cap; kResourceExhausted when the cap would be exceeded (nothing
  /// is charged then). Release with ReleaseResponseBytes once sent.
  Status ChargeResponseBytes(const std::string& tenant, int64_t bytes);
  void ReleaseResponseBytes(const std::string& tenant, int64_t bytes);

  int active_tenants() const;
  int64_t inflight_response_bytes_total() const;

  /// Per-tenant rows for /statusz: name, in-flight queries, in-flight
  /// response bytes, admitted/rejected totals.
  std::vector<std::pair<std::string, std::string>> StatusRows() const;

 private:
  struct TenantState {
    int inflight = 0;
    int64_t response_bytes = 0;
    int64_t admitted_total = 0;
    int64_t rejected_total = 0;
  };

  const int capacity_;
  Options options_;
  mutable std::mutex mu_;
  std::map<std::string, TenantQuota> quotas_;
  std::map<std::string, TenantState> state_;
};

/// RAII admission slot: releases on destruction. Empty (ok() == false)
/// when admission was rejected.
class AdmissionTicket {
 public:
  AdmissionTicket() = default;
  AdmissionTicket(TenantGovernor* governor, std::string tenant)
      : governor_(governor), tenant_(std::move(tenant)) {}
  ~AdmissionTicket() { Release(); }
  AdmissionTicket(AdmissionTicket&& other) noexcept
      : governor_(std::exchange(other.governor_, nullptr)),
        tenant_(std::move(other.tenant_)) {}
  AdmissionTicket& operator=(AdmissionTicket&& other) noexcept {
    if (this != &other) {
      Release();
      governor_ = std::exchange(other.governor_, nullptr);
      tenant_ = std::move(other.tenant_);
    }
    return *this;
  }
  AdmissionTicket(const AdmissionTicket&) = delete;
  AdmissionTicket& operator=(const AdmissionTicket&) = delete;

  bool ok() const { return governor_ != nullptr; }
  void Release() {
    if (governor_ != nullptr) {
      governor_->Release(tenant_);
      governor_ = nullptr;
    }
  }

 private:
  TenantGovernor* governor_ = nullptr;
  std::string tenant_;
};

}  // namespace safety
}  // namespace regal

#endif  // REGAL_SAFETY_TENANT_H_
