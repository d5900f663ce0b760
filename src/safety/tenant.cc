#include "safety/tenant.h"

#include <algorithm>

namespace regal {
namespace safety {

void TenantGovernor::SetQuota(const std::string& tenant, TenantQuota quota) {
  std::lock_guard<std::mutex> lock(mu_);
  quotas_[tenant] = std::move(quota);
}

TenantQuota TenantGovernor::QuotaFor(const std::string& tenant) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = quotas_.find(tenant);
  return it != quotas_.end() ? it->second : options_.default_quota;
}

Status TenantGovernor::Admit(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  TenantState& state = state_[tenant];
  auto quota_it = quotas_.find(tenant);
  const TenantQuota& quota =
      quota_it != quotas_.end() ? quota_it->second : options_.default_quota;
  int cap = quota.max_concurrent;
  if (cap <= 0) {
    // Fair share of the admission capacity among currently-active
    // tenants, the candidate included. Recomputed per admission, so the
    // share grows back automatically as other tenants drain.
    int active = 0;
    for (const auto& [name, other] : state_) {
      if (other.inflight > 0 && name != tenant) ++active;
    }
    ++active;  // The candidate.
    cap = std::max(1, capacity_ / active);
  }
  if (state.inflight >= cap) {
    ++state.rejected_total;
    return Status::ResourceExhausted("tenant '" + tenant +
                                     "' over fair share (" +
                                     std::to_string(cap) +
                                     " concurrent queries)");
  }
  ++state.inflight;
  ++state.admitted_total;
  return Status::OK();
}

void TenantGovernor::Release(const std::string& tenant) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(tenant);
  if (it == state_.end() || it->second.inflight <= 0) return;
  --it->second.inflight;
}

Status TenantGovernor::ChargeResponseBytes(const std::string& tenant,
                                           int64_t bytes) {
  if (bytes <= 0) return Status::OK();
  std::lock_guard<std::mutex> lock(mu_);
  auto quota_it = quotas_.find(tenant);
  const TenantQuota& quota =
      quota_it != quotas_.end() ? quota_it->second : options_.default_quota;
  TenantState& state = state_[tenant];
  if (quota.max_inflight_response_bytes > 0 &&
      state.response_bytes + bytes > quota.max_inflight_response_bytes) {
    return Status::ResourceExhausted(
        "tenant '" + tenant + "' response backpressure: " +
        std::to_string(state.response_bytes + bytes) + " bytes in flight > " +
        std::to_string(quota.max_inflight_response_bytes) + " byte cap");
  }
  state.response_bytes += bytes;
  return Status::OK();
}

void TenantGovernor::ReleaseResponseBytes(const std::string& tenant,
                                          int64_t bytes) {
  if (bytes <= 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  auto it = state_.find(tenant);
  if (it == state_.end()) return;
  it->second.response_bytes = std::max<int64_t>(0, it->second.response_bytes - bytes);
}

int TenantGovernor::active_tenants() const {
  std::lock_guard<std::mutex> lock(mu_);
  int active = 0;
  for (const auto& [name, state] : state_) {
    (void)name;
    if (state.inflight > 0) ++active;
  }
  return active;
}

int64_t TenantGovernor::inflight_response_bytes_total() const {
  std::lock_guard<std::mutex> lock(mu_);
  int64_t total = 0;
  for (const auto& [name, state] : state_) {
    (void)name;
    total += state.response_bytes;
  }
  return total;
}

std::vector<std::pair<std::string, std::string>> TenantGovernor::StatusRows()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::string>> rows;
  for (const auto& [name, state] : state_) {
    rows.emplace_back(
        name, "inflight=" + std::to_string(state.inflight) +
                  " response_bytes=" + std::to_string(state.response_bytes) +
                  " admitted=" + std::to_string(state.admitted_total) +
                  " rejected=" + std::to_string(state.rejected_total));
  }
  return rows;
}

}  // namespace safety
}  // namespace regal
