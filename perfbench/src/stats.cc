#include "stats.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

namespace perfbench {

double
median(std::vector<double> samples)
{
    if (samples.empty())
        throw std::invalid_argument("median of no samples");
    const std::size_t n = samples.size();
    std::sort(samples.begin(), samples.end());
    return n % 2 == 1 ? samples[n / 2]
                      : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double
mean(const std::vector<double> &samples)
{
    if (samples.empty())
        throw std::invalid_argument("mean of no samples");
    return std::accumulate(samples.begin(), samples.end(), 0.0) /
           static_cast<double>(samples.size());
}

Tail
tail(std::vector<double> samples)
{
    const std::size_t n = samples.size();
    if (n <= kTailBeyond)
        throw std::invalid_argument(
            "tail needs more than " + std::to_string(kTailBeyond) +
            " samples, got " + std::to_string(n));
    std::sort(samples.begin(), samples.end());
    Tail t;
    t.value = samples[n - 1 - kTailBeyond];
    t.percentile = 100.0 * static_cast<double>(n - kTailBeyond) /
                   static_cast<double>(n);
    t.samples = n;
    return t;
}

Tail
windowedTail(const std::vector<double> &samples)
{
    const std::size_t n = samples.size();
    const std::size_t windows = std::max<std::size_t>(1, n / kWindowSamples);
    std::vector<double> values;
    Tail smallest;
    for (std::size_t w = 0; w < windows; ++w) {
        const auto begin = samples.begin() + static_cast<long>(w * n / windows);
        const auto end =
            samples.begin() + static_cast<long>((w + 1) * n / windows);
        const Tail t = tail(std::vector<double>(begin, end));
        values.push_back(t.value);
        if (w == 0 || t.samples < smallest.samples)
            smallest = t;
    }
    smallest.value = median(values);
    return smallest;
}

} // namespace perfbench
