/**
 * @file
 * The repository benchmark. One command runs one workload:
 *
 *   perfbench --workload serve-open|offline-pim|model-sweep
 *             --seed <n> --seconds <s> --trace <0|1>
 *
 * It builds the workload's inputs from the seed, measures for the given
 * seconds, checks every output, prints each metric by name with its
 * unit, and ends with one JSON line:
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 * An untraced run (--trace 0) reports the end-to-end metrics; a traced
 * run (--trace 1) reports the per-layer metrics and writes its spans in
 * chrome://tracing format. See perfbench/README.md.
 */

#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench.h"
#include "cli.h"
#include "obs/json.h"
#include "tracer.h"

using namespace perfbench;

int
main(int argc, char **argv)
{
    const ParseResult parsed =
        parseArgs(std::vector<std::string>(argv + 1, argv + argc));
    if (!parsed.options) {
        std::cerr << "perfbench: " << parsed.error << "\n" << usage();
        return 2;
    }
    const Options &opts = *parsed.options;
    if (opts.help) {
        std::cout << usage();
        return 0;
    }

    Tracer tracer(opts.trace);
    RunResult result;
    try {
        if (opts.workload == "serve-open")
            result = runServeOpen(opts, tracer);
        else if (opts.workload == "offline-pim")
            result = runOfflinePim(opts, tracer);
        else
            result = runModelSweep(opts, tracer);
        if (opts.trace) {
            runLayerProbes(tracer, result);
            const std::string path =
                opts.trace_out.empty()
                    ? "perfbench-trace-" + opts.workload + ".json"
                    : opts.trace_out;
            tracer.writeChrome(path);
            note("trace: " + std::to_string(tracer.spans().size()) +
                 " spans written to " + path);
            note("span self time (name: count, total ms, self ms):");
            for (const SpanSummary &s : summarize(tracer.spans()))
                note("  " + s.name + ": " + std::to_string(s.count) + ", " +
                     fmt(s.total_s * 1e3) + ", " + fmt(s.self_s * 1e3));
        }
    } catch (const std::exception &e) {
        std::cerr << "perfbench: " << opts.workload
                  << " failed: " << e.what() << "\n";
        return 1;
    }

    for (const std::string &err : result.check_errors)
        std::cerr << "perfbench: check failed: " << err << "\n";
    const bool correct = result.failed == 0 && result.check_errors.empty() &&
                         result.attempted > 0;
    note("fail_frac = " +
         fmt(result.attempted > 0
                 ? static_cast<double>(result.failed) /
                       static_cast<double>(result.attempted)
                 : 1.0,
             6) +
         " (" + std::to_string(result.failed) + " of " +
         std::to_string(result.attempted) + " operations)");
    for (const Metric &m : result.metrics)
        note(m.name + " = " + fmt(m.value, 6) + " " + m.unit);

    std::cout << "{\"correct\": " << (correct ? "true" : "false")
              << ", \"attempted\": " << result.attempted
              << ", \"failed\": " << result.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric &m = result.metrics[i];
        std::cout << (i ? ", " : "") << pimdl::obs::jsonString(m.name)
                  << ": {\"value\": " << pimdl::obs::jsonNumber(m.value)
                  << ", \"unit\": " << pimdl::obs::jsonString(m.unit)
                  << "}";
    }
    std::cout << "}}" << std::endl;
    return correct ? 0 : 1;
}
