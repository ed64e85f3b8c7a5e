/**
 * @file
 * offline-pim: closed loop. One caller runs the functional transformer
 * forward back to back on the PimLut backend with the transfer engine
 * attached (double-buffered TransferScheduler plus a ResidentLutManager
 * sized by residentLutCapacityBytes), batch 16 x seq 64.
 *
 * Why: each forward does tens of milliseconds of real work in the
 * functional PE simulation, CCS and index staging, with no queue, so
 * fork/join overhead is amortized. It bypasses the serving runtime and
 * the thread-count cliff; a kernel or executor change shows mainly here.
 */

#include <optional>

#include "bench.h"
#include "pim/platform.h"
#include "shared.h"
#include "stats.h"
#include "transfer/resident.h"
#include "transfer/scheduler.h"

using namespace pimdl;

namespace perfbench {

namespace {

constexpr std::size_t kSetups = 5;
constexpr std::size_t kInputs = 2;

/** A planned PimLut model with its transfer engine. Members are
 * destroyed model-first: the model holds pointers to the engine. */
struct PimSetup
{
    std::unique_ptr<transfer::TransferScheduler> scheduler;
    std::unique_ptr<transfer::ResidentLutManager> resident;
    std::unique_ptr<FunctionalTransformer> model;
};

PimSetup
setUp()
{
    PimSetup s;
    const PimPlatformConfig platform = upmemPlatform();
    s.model = buildConvertedModel(pimModelConfig(), kPimSeq);
    s.model->planPimExecution(platform, kPimBatch * kPimSeq);
    s.scheduler = std::make_unique<transfer::TransferScheduler>(
        transfer::TransferScheduler::Options{});
    s.resident = std::make_unique<transfer::ResidentLutManager>(
        transfer::residentLutCapacityBytes(platform));
    s.model->enableTransferEngine(s.scheduler.get(), s.resident.get());
    return s;
}

/** Forwards back to back for @p seconds; returns per-forward seconds. */
std::vector<double>
forwardLoop(const FunctionalTransformer &model,
            const std::vector<Tensor> &inputs,
            const std::vector<Tensor> &refs, double seconds, Tracer &tracer,
            RunResult &res)
{
    SteadyClock &clock = SteadyClock::instance();
    std::vector<double> times;
    const double end = clock.now() + seconds;
    for (std::size_t i = 0; clock.now() < end || times.size() <= kTailBeyond;
         ++i) {
        const std::size_t k = i % inputs.size();
        Tensor out;
        const double t0 = clock.now();
        {
            ScopedSpan span(tracer, "pim.forward");
            out = model.forward(inputs[k], kPimSeq,
                                LinearBackendKind::PimLut);
        }
        times.push_back(clock.now() - t0);
        ++res.attempted;
        if (!bitEqual(out, refs[k]))
            ++res.failed;
    }
    return times;
}

} // namespace

RunResult
runOfflinePim(const Options &opts, Tracer &tracer)
{
    RunResult res;
    std::vector<double> setup_s;
    std::optional<PimSetup> setup;
    for (std::size_t i = 0; i < (opts.trace ? 1 : kSetups); ++i) {
        setup.reset();
        ScopedSpan span(tracer, "setup");
        const double t0 = SteadyClock::instance().now();
        setup.emplace(setUp());
        setup_s.push_back(SteadyClock::instance().now() - t0);
    }
    const PimSetup &s = *setup;

    // Inputs from the seed; the HostLut forward of each is the
    // reference every PimLut output must match bit for bit.
    std::vector<Tensor> inputs, refs;
    for (std::size_t k = 0; k < kInputs; ++k) {
        inputs.push_back(randomTokens(kPimBatch * kPimSeq,
                                      pimModelConfig().hidden,
                                      opts.seed * 104729 + k));
        refs.push_back(s.model->forward(inputs.back(), kPimSeq,
                                        LinearBackendKind::HostLut));
    }
    const double rows = static_cast<double>(kPimBatch * kPimSeq);

    if (opts.trace) {
        runTracedPhases(res, tracer, opts.seconds,
                        [&](double seconds, Tracer &t) {
                            return forwardLoop(*s.model, inputs, refs,
                                               seconds, t, res);
                        });
        return res;
    }

    const double wait_before = s.scheduler->stats().wait_wall_s;
    const std::vector<double> times =
        forwardLoop(*s.model, inputs, refs, opts.seconds, tracer, res);
    const double p50 = median(times);
    const Tail t = windowedTail(times);
    note("forwards: " + std::to_string(times.size()) + ", p50 " +
         fmt(p50 * 1e3) + " ms, p" + fmt(t.percentile, 2) + " " +
         fmt(t.value * 1e3) + " ms (median of window tails, " +
         std::to_string(t.samples) + " per window), staging wait " +
         fmt((s.scheduler->stats().wait_wall_s - wait_before) /
                 static_cast<double>(times.size()) * 1e3) +
         " ms per forward");

    res.metric("setup_s", median(setup_s), "s");
    res.metric("peak_rss_mb", peakRssMb(), "MB");
    res.metric("latency_p50_ms", p50 * 1e3, "ms");
    res.metric("throughput_per_s", rows / p50, "1/s");
    return res;
}

} // namespace perfbench
