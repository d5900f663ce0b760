#include "stats.h"

#include <algorithm>
#include <cmath>

namespace regal {
namespace e2e {

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(p * n));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

int64_t SamplesBeyond(size_t n, double p) {
  const int64_t rank =
      static_cast<int64_t>(std::ceil(p * static_cast<double>(n)));
  return static_cast<int64_t>(n) - rank;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

uint64_t Fnv1a(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

uint64_t RowsDigest(const std::vector<std::string>& rows) {
  uint64_t h = Fnv1a("rows");
  for (const std::string& row : rows) {
    h = Fnv1a(row, h);
    h = Fnv1a(std::string_view("\n", 1), h);
  }
  return h;
}

}  // namespace e2e
}  // namespace regal
