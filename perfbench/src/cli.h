/**
 * @file
 * Strict command line of the benchmark program.
 *
 *   perfbench --workload <name> [--seed <n>] [--seconds <s>]
 *             [--trace <0|1>] [--trace-out <path>]
 *
 * Unknown flags, positional arguments, repeated flags, missing or
 * malformed values and flag-like output paths are all rejected, so a
 * typo can never be read as a different run.
 */

#ifndef PERFBENCH_CLI_H
#define PERFBENCH_CLI_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace perfbench {

/** Accepted --seconds range. Below it the shortest phases hold too
 * few operations for a tail; above it a run with its set-up and probes
 * no longer ends within the runner's timeout (perfbench/run.py). */
inline constexpr double kMinSeconds = 1.0;
inline constexpr double kMaxSeconds = 120.0;

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Measured seconds per run (the workload's main phase). */
    double seconds = 20.0;
    bool trace = false;
    /** chrome://tracing output of a traced run ("" = default path). */
    std::string trace_out;
    bool help = false;
};

/** Parse outcome: options, or the reason the command line is invalid. */
struct ParseResult
{
    std::optional<Options> options;
    std::string error;
};

/** Parses argv[1..argc). Never exits; the caller maps errors to exit 2. */
ParseResult parseArgs(const std::vector<std::string> &args);

/** Usage text printed on --help and after a parse error. */
std::string usage();

} // namespace perfbench

#endif // PERFBENCH_CLI_H
