/**
 * @file
 * serve-open: open-loop serving. One generator thread submits seeded
 * Poisson arrivals at a ladder of fixed absolute rates into the live
 * runtime (2 workers, max_batch 8, pow2 buckets) over the HostLut
 * functional executor. The rates do not depend on the build under
 * test, so a faster build is measured at the same load. A closed-loop
 * phase in rounds of one full batch per worker then measures the
 * runtime's capacity, a served rate the build itself controls.
 *
 * Why: batches stay at 1-4 requests, so the fixed per-call costs
 * (fork/join threads spawned per parallel call, batcher max-wait,
 * queue handoffs) dominate while the kernels do little. It exercises
 * the thread pool and bypasses transfer pricing and the simulators.
 */

#include <algorithm>

#include "bench.h"
#include "shared.h"
#include "stats.h"

using namespace pimdl;

namespace perfbench {

namespace {

/** Fixed ladder (requests/s) and the share of --seconds each runs;
 * the saturation phase takes the rest. */
constexpr double kRates[] = {50.0, 150.0, 300.0};
constexpr double kShares[] = {0.15, 0.25, 0.4};
constexpr std::size_t kRungs = 3;
constexpr double kSaturationShare = 0.2;
/** Requests per saturation round: one full batch per worker. A
 * standing backlog instead would queue requests past the batcher's
 * max-wait, and the runtime dispatches such a request without waiting
 * for company; batches then shrink toward 1 and throughput collapses
 * at random from run to run. */
constexpr std::size_t kInFlight = 16;
/** Expected requests a rung gets at least, whatever --seconds says,
 * so that even a short run has a tail. */
constexpr double kMinRequests = 200.0;
/** Tail-latency limit a rung must meet to count toward the SLO rate;
 * the same limit bounds the drain lag (no growing backlog). */
constexpr double kTailLimitS = 0.050;
/** Set-ups an untraced run times, each after a pause of kSetupGapS,
 * so that the median samples the host over several seconds and not
 * over one moment of it. */
constexpr std::size_t kSetups = 40;
constexpr double kSetupGapS = 0.25;

std::uint64_t
rungSeed(std::uint64_t seed, std::size_t rung)
{
    return seed * 31 + rung;
}

} // namespace

RunResult
runServeOpen(const Options &opts, Tracer &tracer)
{
    RunResult res;

    // Set-up: model build, eLUT-NN conversion, and one runtime
    // construction/teardown; repeated, the median is reported.
    SteadyClock &clock = SteadyClock::instance();
    std::vector<double> setup_s;
    std::unique_ptr<FunctionalTransformer> model;
    for (std::size_t i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
        if (i > 0)
            clock.sleepFor(kSetupGapS);
        ScopedSpan span(tracer, "setup");
        const double t0 = clock.now();
        model = buildConvertedModel(serveModelConfig(), kServeSeq);
        FunctionalBatchExecutor probe(*model, LinearBackendKind::HostLut);
        LiveServingRuntime runtime(serveRuntimeConfig(), probe);
        runtime.drain();
        setup_s.push_back(clock.now() - t0);
    }
    FunctionalBatchExecutor executor(*model, LinearBackendKind::HostLut);
    const ServePayloads payloads = makeServePayloads(*model, opts.seed);

    if (opts.trace) {
        // Per-layer pass at the top rate.
        runTracedPhases(res, tracer, opts.seconds,
                        [&](double seconds, Tracer &t) {
                            const double rate = kRates[kRungs - 1];
                            const OpenLoopResult r = runOpenLoop(
                                executor, payloads, rate,
                                std::max(seconds, kMinRequests / rate),
                                rungSeed(opts.seed, kRungs), t);
                            res.attempted += r.attempted;
                            res.failed += r.failed;
                            return r.latency_s;
                        });
        return res;
    }

    std::vector<OpenLoopResult> rungs;
    double slo_rps = 0.0;
    for (std::size_t k = 0; k < kRungs; ++k) {
        const double horizon_s =
            std::max(opts.seconds * kShares[k], kMinRequests / kRates[k]);
        rungs.push_back(runOpenLoop(executor, payloads, kRates[k], horizon_s,
                                    rungSeed(opts.seed, k), tracer));
        const OpenLoopResult &r = rungs.back();
        res.attempted += r.attempted;
        res.failed += r.failed;
        const Tail t = windowedTail(r.latency_s);
        const bool meets = r.failed == 0 && t.value <= kTailLimitS &&
                           r.drain_lag_s <= kTailLimitS;
        if (meets && r.rate_rps > slo_rps)
            slo_rps = r.rate_rps;
        note("rate " + fmt(r.rate_rps, 0) + " rps: " +
             std::to_string(r.attempted) + " requests, p50 " +
             fmt(median(r.latency_s) * 1e3) + " ms, p" +
             fmt(t.percentile, 2) + " " + fmt(t.value * 1e3) +
             " ms (median of window tails, " + std::to_string(t.samples) +
             " per window), mean batch " +
             fmt(mean(r.batch_size), 2) + ", drain lag " +
             fmt(r.drain_lag_s * 1e3) + " ms, generator late p" +
             fmt(tail(r.late_s).percentile, 2) + " " +
             fmt(tail(r.late_s).value * 1e3) + " ms" +
             (meets ? "" : "  [misses the 50 ms tail limit]"));
    }
    const OpenLoopResult &top = rungs.back();
    note("light_p50_ms = " + fmt(median(rungs.front().latency_s) * 1e3, 4) +
         " ms (lowest rate); slo_rps = " + fmt(slo_rps, 0) +
         " (highest rate meeting the limit)");

    // Saturation: closed-loop rounds of full batches; the served rate
    // is the runtime's capacity.
    const OpenLoopResult sat =
        runClosedLoop(executor, payloads, kInFlight,
                      opts.seconds * kSaturationShare,
                      rungSeed(opts.seed, kRungs + 1), tracer);
    res.attempted += sat.attempted;
    res.failed += sat.failed;
    note("saturation, rounds of " + std::to_string(kInFlight) + ": " +
         std::to_string(sat.attempted) + " requests, served " +
         fmt(sat.rate_rps, 2) + " requests/s (median round), p50 " +
         fmt(median(sat.latency_s) * 1e3) + " ms, mean batch " +
         fmt(mean(sat.batch_size), 2));

    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", peakRssMb(), "MB");
    res.metric("latency_p50_ms", median(top.latency_s) * 1e3, "ms");
    res.metric("throughput_per_s", sat.rate_rps, "1/s");
    return res;
}

} // namespace perfbench
