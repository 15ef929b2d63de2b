// Order statistics for the benchmark's timing samples.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median: the middle sample, or the mean of the two middle samples when
/// the count is even.  0 for an empty sample.
double Median(std::vector<double> samples);

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it (p in (0, 100]).  0 for an empty sample.
double Percentile(std::vector<double> samples, double p);

/// Number of samples strictly above `threshold`.
int64_t CountAbove(const std::vector<double>& samples, double threshold);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
