/**
 * @file
 * Shared helpers for the benchmark harnesses: geometric means, the
 * standard observability flags (--metrics-out / --trace-out / --smoke),
 * and artifact emission so every bench binary leaves behind a
 * machine-readable metrics snapshot for CI and run-to-run comparison.
 */

#ifndef PIMDL_BENCH_BENCH_UTIL_H
#define PIMDL_BENCH_BENCH_UTIL_H

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "backend/backend.h"
#include "obs/json.h"
#include "obs/snapshot.h"
#include "plan/schedule.h"
#include "verify/verify.h"

namespace pimdl {
namespace bench {

/** Geometric mean of a list of positive ratios. */
inline double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double log_sum = 0.0;
    for (double v : values)
        log_sum += std::log(v);
    return std::exp(log_sum / static_cast<double>(values.size()));
}

/** Command-line options shared by all bench binaries. */
struct BenchOptions
{
    /** Write pimdl::obs::snapshotJson() here after the run. */
    std::string metrics_out;
    /** Write the Chrome trace of the run here. */
    std::string trace_out;
    /** Reduced workload for CI smoke runs. */
    bool smoke = false;
    /** Run the plan verifier on every lowered plan (--verify-plans;
     * also enabled by the PIMDL_VERIFY_PLANS environment variable). */
    bool verify_plans = false;
    /** Timing backend (--backend; default: PIMDL_BACKEND env or
     * analytical, see defaultTimingBackendKind()). */
    TimingBackendKind backend = TimingBackendKind::Analytical;
};

/**
 * Parses a --backend value; exits with the valid spellings on anything
 * else so a typo fails loudly instead of silently running the default
 * backend.
 */
inline TimingBackendKind
parseBackendKind(const std::string &name)
{
    TimingBackendKind kind = TimingBackendKind::Analytical;
    if (!parseTimingBackendKind(name, &kind)) {
        std::cerr << "unknown --backend '" << name
                  << "' (valid: analytical, transaction)\n";
        std::exit(2);
    }
    return kind;
}

/**
 * Parses a --policy value; exits with the valid spellings on anything
 * else so a typo fails loudly instead of silently running the default
 * scheduler.
 */
inline SchedulePolicy
parseSchedulePolicy(const std::string &name)
{
    if (name == "sequential")
        return SchedulePolicy::Sequential;
    if (name == "pipelined")
        return SchedulePolicy::Pipelined;
    if (name == "overlap")
        return SchedulePolicy::Overlap;
    std::cerr << "unknown --policy '" << name
              << "' (valid: sequential, pipelined, overlap)\n";
    std::exit(2);
}

/** Parses @p value as a finite, strictly positive number or exits. */
inline double
parsePositiveDouble(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(v) ||
        v <= 0.0) {
        std::cerr << flag << " expects a positive number, got '" << value
                  << "'\n";
        std::exit(2);
    }
    return v;
}

/** Parses @p value as a probability in [0, 1] or exits. */
inline double
parseUnitInterval(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (end == value.c_str() || *end != '\0' || !std::isfinite(v) ||
        v < 0.0 || v > 1.0) {
        std::cerr << flag << " expects a rate in [0, 1], got '" << value
                  << "'\n";
        std::exit(2);
    }
    return v;
}

/** Parses @p value as a strictly positive integer or exits. */
inline std::size_t
parsePositiveSize(const std::string &flag, const std::string &value)
{
    char *end = nullptr;
    const unsigned long long v = std::strtoull(value.c_str(), &end, 10);
    if (end == value.c_str() || *end != '\0' || v == 0) {
        std::cerr << flag << " expects a positive integer, got '" << value
                  << "'\n";
        std::exit(2);
    }
    return static_cast<std::size_t>(v);
}

/**
 * Parses the operand of a `--json [path]` flag at argv[@p i]: the next
 * argument, when there is one, is the path (consumed by advancing
 * @p i); a trailing `--json` writes to @p default_path. A path that
 * starts with '-' is a misplaced flag, not a file name: exits 2, so
 * `--json --smoke` fails instead of writing a file named "--smoke".
 */
inline std::string
parseJsonPath(int argc, char **argv, int &i,
              const std::string &default_path)
{
    if (i + 1 >= argc)
        return default_path;
    const std::string path = argv[++i];
    if (path.empty() || path[0] == '-') {
        std::cerr << "--json expects a file path, got '" << path << "'\n";
        std::exit(2);
    }
    return path;
}

/**
 * Hook for bench-specific flags layered over the shared ones. Called
 * with the current argument and the cursor; consume operands by
 * advancing @p i and return true, or return false to reject the flag.
 */
using ExtraArgHandler =
    std::function<bool(const std::string &arg, int argc, char **argv,
                       int &i)>;

/**
 * Parses the shared bench flags; exits with usage on unknown arguments
 * so CI catches typos instead of silently running the default config.
 * @p extra (optional) claims bench-specific flags first; @p extra_usage
 * is appended to the usage line.
 */
inline BenchOptions
parseBenchArgs(int argc, char **argv,
               const ExtraArgHandler &extra = nullptr,
               const std::string &extra_usage = "")
{
    BenchOptions opts;
    try {
        opts.backend = defaultTimingBackendKind();
    } catch (const std::exception &e) {
        std::cerr << e.what() << "\n";
        std::exit(2);
    }
    const auto usage = [&](std::ostream &out) {
        out << "usage: " << argv[0]
            << " [--smoke] [--verify-plans] [--metrics-out <file>]"
               " [--trace-out <file>]"
               " [--backend analytical|transaction]"
            << extra_usage << "\n";
    };
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (extra && extra(arg, argc, argv, i)) {
            continue;
        } else if (arg == "--backend" && i + 1 < argc) {
            opts.backend = parseBackendKind(argv[++i]);
        } else if (arg == "--metrics-out" && i + 1 < argc) {
            opts.metrics_out = argv[++i];
        } else if (arg == "--trace-out" && i + 1 < argc) {
            opts.trace_out = argv[++i];
        } else if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--verify-plans") {
            opts.verify_plans = true;
            verify::setVerifyPlansEnabled(true);
        } else if (arg == "--help" || arg == "-h") {
            usage(std::cout);
            std::exit(0);
        } else {
            std::cerr << "unknown argument: " << arg << "\n";
            usage(std::cerr);
            std::exit(2);
        }
    }
    return opts;
}

/** One JSON value of a bench record, rendered when constructed. */
struct RecordValue
{
    RecordValue(double v) : json(obs::jsonNumber(v)) {}
    RecordValue(std::size_t v) : json(std::to_string(v)) {}
    RecordValue(bool v) : json(v ? "true" : "false") {}
    RecordValue(const std::string &v) : json(obs::jsonString(v)) {}
    RecordValue(const char *v) : json(obs::jsonString(v)) {}

    std::string json;
};

/** Ordered key/value pairs: a record's top-level scalars or a row. */
using RecordFields = std::vector<std::pair<std::string, RecordValue>>;

/** A named array of rows. */
using RecordArray = std::pair<std::string, std::vector<RecordFields>>;

/** The rows of @p entries, each rendered by its fields() member. */
template <typename Entry>
std::vector<RecordFields>
recordRows(const std::vector<Entry> &entries)
{
    std::vector<RecordFields> rows;
    rows.reserve(entries.size());
    for (const Entry &e : entries)
        rows.push_back(e.fields());
    return rows;
}

/**
 * Writes a BENCH_*.json record to @p path: the schema id, then
 * @p scalars, then each array of @p arrays, keys in the given order,
 * one scalar or row per line. Exits 1 when the file cannot be opened.
 */
inline void
writeBenchRecord(const std::string &path, const std::string &schema,
                 const RecordFields &scalars,
                 const std::vector<RecordArray> &arrays)
{
    std::ofstream out(path);
    if (!out) {
        std::cerr << "cannot open " << path << " for writing\n";
        std::exit(1);
    }
    out << "{\n  \"schema\": " << obs::jsonString(schema);
    for (const auto &[key, value] : scalars)
        out << ",\n  " << obs::jsonString(key) << ": " << value.json;
    for (const auto &[name, rows] : arrays) {
        out << ",\n  " << obs::jsonString(name) << ": [\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            out << "    {";
            for (std::size_t k = 0; k < rows[i].size(); ++k)
                out << (k ? ", " : "") << obs::jsonString(rows[i][k].first)
                    << ": " << rows[i][k].second.json;
            out << "}" << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        out << "  ]";
    }
    out << "\n}\n";
}

/** Emits the requested metrics/trace artifacts at the end of a run. */
inline void
writeBenchArtifacts(const BenchOptions &opts)
{
    try {
        if (!opts.metrics_out.empty()) {
            pimdl::obs::writeSnapshotJson(opts.metrics_out);
            std::cerr << "[bench] metrics snapshot written to "
                      << opts.metrics_out << "\n";
        }
        if (!opts.trace_out.empty()) {
            pimdl::obs::writeChromeTrace(opts.trace_out);
            std::cerr << "[bench] chrome trace written to "
                      << opts.trace_out
                      << " (open at chrome://tracing)\n";
        }
    } catch (const std::exception &e) {
        // A failed artifact write must not look like a crashed bench.
        std::cerr << "[bench] error: " << e.what() << "\n";
        std::exit(1);
    }
}

} // namespace bench
} // namespace pimdl

#endif // PIMDL_BENCH_BENCH_UTIL_H
