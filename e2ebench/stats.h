#ifndef REGAL_E2EBENCH_STATS_H_
#define REGAL_E2EBENCH_STATS_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace regal {
namespace e2e {

/// Nearest-rank percentile of `values` (0 < p <= 1): the smallest sample
/// with at least p of the samples at or below it. Sorts a copy; 0 when
/// empty.
double Percentile(std::vector<double> values, double p);

/// Samples strictly beyond the nearest-rank p-th percentile position, i.e.
/// n - ceil(p * n). A tail percentile is reported only when this is >= 10.
int64_t SamplesBeyond(size_t n, double p);

/// Median (sorts a copy; 0 when empty).
double Median(std::vector<double> values);

/// FNV-1a 64-bit, chained through `seed` so several buffers can be folded
/// into one digest.
uint64_t Fnv1a(std::string_view bytes, uint64_t seed = 0xcbf29ce484222325ULL);

/// Digest of a row list: each row plus a separator, so ["ab"] != ["a","b"].
uint64_t RowsDigest(const std::vector<std::string>& rows);

}  // namespace e2e
}  // namespace regal

#endif  // REGAL_E2EBENCH_STATS_H_
