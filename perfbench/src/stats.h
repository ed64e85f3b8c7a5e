/**
 * @file
 * Sample statistics the benchmark reports: the median and the tail
 * rule (the highest percentile that still has at least ten samples
 * beyond it, reported with its sample count).
 */

#ifndef PERFBENCH_STATS_H
#define PERFBENCH_STATS_H

#include <cstddef>
#include <vector>

namespace perfbench {

/** Samples that must lie beyond a reported tail value. */
inline constexpr std::size_t kTailBeyond = 10;

/** Median of @p samples (mean of the middle two for even counts).
 * Throws std::invalid_argument when empty. */
double median(std::vector<double> samples);

/** Arithmetic mean; throws when empty. */
double mean(const std::vector<double> &samples);

struct Tail
{
    /** The sample with exactly kTailBeyond samples above it. */
    double value = 0.0;
    /** Its percentile, 100 * (n - kTailBeyond) / n. */
    double percentile = 0.0;
    /** Sample count the tail was taken from. */
    std::size_t samples = 0;
};

/**
 * Highest percentile of @p samples that has at least kTailBeyond
 * samples beyond it. Throws std::invalid_argument when fewer than
 * kTailBeyond + 1 samples exist: such a run supports no tail.
 */
Tail tail(std::vector<double> samples);

/** Fewest samples a windowedTail window holds. */
inline constexpr std::size_t kWindowSamples = 500;

/**
 * Tail of a run that is robust to transient stalls: @p samples (in the
 * order they were taken) are cut into n / kWindowSamples contiguous
 * windows (at least one), the tail rule is applied to each, and the
 * median window tail is returned with the percentile and sample count
 * of the smallest window.
 */
Tail windowedTail(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_STATS_H
