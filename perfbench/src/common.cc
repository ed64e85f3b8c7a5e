#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "obs/metrics.h"
#include "stats.h"

namespace perfbench {

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB -> MB
}

std::uint64_t
obsCounter(const char *name)
{
    return pimdl::obs::MetricsRegistry::instance().counter(name).value();
}

namespace {

/** Library work counters read around a traced phase. */
struct CounterSnapshot
{
    std::uint64_t parallel_calls = obsCounter("parallel.calls");
    std::uint64_t lut_rows = obsCounter("kernels.lut.rows");
};

std::size_t
currentThreads()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("Threads:", 0) == 0)
            return std::stoul(line.substr(8));
    return 0;
}

/** Samples the process's OS thread count every 0.5 ms until stopped. */
class ThreadSampler
{
  public:
    ThreadSampler()
        : thread_([this] {
              while (!stop_.load()) {
                  peak_.store(std::max(peak_.load(), currentThreads()));
                  std::this_thread::sleep_for(
                      std::chrono::microseconds(500));
              }
          })
    {}
    ~ThreadSampler() { stop(); }
    ThreadSampler(const ThreadSampler &) = delete;
    ThreadSampler &operator=(const ThreadSampler &) = delete;

    /** Stops sampling and returns the peak thread count seen. */
    std::size_t
    stop()
    {
        stop_.store(true);
        if (thread_.joinable())
            thread_.join();
        return peak_.load();
    }

  private:
    std::atomic<bool> stop_{false};
    std::atomic<std::size_t> peak_{0};
    std::thread thread_;
};

} // namespace

void
runTracedPhases(RunResult &result, Tracer &tracer, double seconds,
                const Phase &phase)
{
    // Untraced and traced quarters in ABBA order, so a steady drift of
    // the host's speed cancels out of the overhead, and the thread
    // sampler runs through all four, so its cost falls on both sides.
    Tracer off(false);
    const CounterSnapshot before;
    ThreadSampler sampler;
    std::vector<double> plain = phase(seconds / 4, off);
    std::vector<double> traced = phase(seconds / 4, tracer);
    const std::vector<double> traced2 = phase(seconds / 4, tracer);
    const std::vector<double> plain2 = phase(seconds / 4, off);
    const std::size_t threads_peak = sampler.stop();
    const CounterSnapshot after;
    traced.insert(traced.end(), traced2.begin(), traced2.end());
    plain.insert(plain.end(), plain2.begin(), plain2.end());

    // Benchmark spans do not touch library counters, so the counts are
    // taken per operation over all four quarters.
    const double n = static_cast<double>(plain.size() + traced.size());
    const auto per_op = [n](std::uint64_t a, std::uint64_t b) {
        return static_cast<double>(b - a) / n;
    };
    result.metric("parallel.calls_per_op",
                  per_op(before.parallel_calls, after.parallel_calls),
                  "count");
    result.metric("parallel.threads_peak",
                  static_cast<double>(threads_peak), "count");
    result.metric("kernels.lut_rows_per_op",
                  per_op(before.lut_rows, after.lut_rows), "count");
    result.metric("trace_overhead_frac", median(traced) / median(plain) - 1.0,
                  "frac");
    result.metric("op_tail_ms", windowedTail(traced).value * 1e3, "ms");
}

double
medianSeconds(Tracer &tracer, const std::string &name, std::size_t reps,
              const std::function<void()> &fn)
{
    fn();
    pimdl::SteadyClock &clock = pimdl::SteadyClock::instance();
    std::vector<double> samples;
    samples.reserve(reps);
    for (std::size_t i = 0; i < reps; ++i) {
        ScopedSpan span(tracer, name);
        const double t0 = clock.now();
        fn();
        samples.push_back(clock.now() - t0);
    }
    return median(samples);
}

void
note(const std::string &line)
{
    std::cout << line << "\n";
}

std::string
fmt(double value, int digits)
{
    std::ostringstream out;
    out.setf(std::ios::fixed);
    out.precision(digits);
    out << value;
    return out.str();
}

} // namespace perfbench
