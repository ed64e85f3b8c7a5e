/**
 * @file
 * Shared pieces of the benchmark program: the run result every workload
 * returns, the workload and probe entry points, the traced-phase runner,
 * and process-level measurements (peak memory, obs counters).
 */

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cli.h"
#include "common/clock.h"
#include "tracer.h"

namespace perfbench {

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Outcome of one workload run. */
struct RunResult
{
    /** Operations attempted (requests, forwards or estimates). */
    std::size_t attempted = 0;
    /** Operations that failed, were refused, or gave a wrong output. */
    std::size_t failed = 0;
    /** Other failed checks (e.g. a modeled breakdown that does not sum
     * to its total); any entry makes the run incorrect. */
    std::vector<std::string> check_errors;
    std::vector<Metric> metrics;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

RunResult runServeOpen(const Options &opts, Tracer &tracer);
RunResult runOfflinePim(const Options &opts, Tracer &tracer);
RunResult runModelSweep(const Options &opts, Tracer &tracer);

/**
 * Per-layer probe suite, identical on every workload's traced run:
 * times direct calls into each layer's public functions and appends
 * one metric per probe to @p result.
 */
void runLayerProbes(Tracer &tracer, RunResult &result);

/** Peak resident set of this process so far, MB (getrusage). */
double peakRssMb();

/** Current value of an obs counter the library publishes. */
std::uint64_t obsCounter(const char *name);

/** One timed phase of a workload: runs for about @p seconds with its
 * spans going to @p tracer and returns per-operation seconds. */
using Phase =
    std::function<std::vector<double>(double seconds, Tracer &tracer)>;

/**
 * The workload part of a traced run: runs @p phase four times for a
 * quarter of @p seconds each on identical inputs, untraced, traced,
 * traced, untraced, and appends the workload-derived per-layer
 * metrics: library counters per operation, the peak OS thread count,
 * the tail of the traced operation times, and the tracing overhead
 * (traced over untraced median operation time, - 1).
 */
void runTracedPhases(RunResult &result, Tracer &tracer, double seconds,
                     const Phase &phase);

/**
 * Runs @p fn @p reps times after one untimed warm-up call, each call
 * inside a span named @p name, and returns the median seconds.
 */
double medianSeconds(Tracer &tracer, const std::string &name,
                     std::size_t reps, const std::function<void()> &fn);

/** Line printed for a human reader (never the last stdout line). */
void note(const std::string &line);

/** Fixed-precision formatting for notes. */
std::string fmt(double value, int digits = 3);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
