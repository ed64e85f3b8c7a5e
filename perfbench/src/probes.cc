/**
 * @file
 * Per-layer probe suite of the traced run. Each probe times direct
 * calls into one layer's public functions at a workload's shape (the
 * median of repeated calls after a warm-up) or reads the counters the
 * library publishes in obs. The suite is identical on every workload.
 */

#include <algorithm>
#include <cmath>

#include "bench.h"
#include "common/parallel.h"
#include "host/host_model.h"
#include "lutnn/converter.h"
#include "plan/lowering.h"
#include "runtime/engine.h"
#include "runtime/lut_executor.h"
#include "shared.h"
#include "stats.h"
#include "transfer/resident.h"
#include "transfer/scheduler.h"
#include "tuner/simulator.h"

using namespace pimdl;

namespace perfbench {

namespace {

/** A converted INT8 LUT layer of shape in x out (weights seeded). */
LutLayer
makeLutLayer(std::size_t in, std::size_t out, std::uint64_t seed)
{
    ConvertOptions options;
    options.quantize_int8 = true;
    const Tensor weight = randomTokens(in, out, seed);
    const std::vector<float> bias(out, 0.0f);
    return convertLinearLayer(weight, bias, randomTokens(256, in, seed + 1),
                              options);
}

void
probeParallel(Tracer &tracer, RunResult &res)
{
    const double s =
        medianSeconds(tracer, "probe.parallelFor", 200, [] {
            parallelFor(parallelWorkerCount(), [](std::size_t) {});
        });
    res.metric("parallel.forkjoin_us", s * 1e6, "us");
}

void
probeKernels(Tracer &tracer, RunResult &res)
{
    const FunctionalTransformerConfig serve = serveModelConfig();
    const LutLayer ffn1 = makeLutLayer(serve.hidden, serve.ffn, 11);
    for (std::size_t batch : {1, 8}) {
        const Tensor x = randomTokens(batch * kServeSeq, serve.hidden, 12);
        const double s = medianSeconds(
            tracer, "probe.LutLayer::forwardQuantized", 100,
            [&] { (void)ffn1.forwardQuantized(x); });
        res.metric("kernels.host_lut_b" + std::to_string(batch) + "_us",
                   s * 1e6, "us");
    }

    const FunctionalTransformerConfig pim = pimModelConfig();
    const LutLayer pim_ffn1 = makeLutLayer(pim.hidden, pim.ffn, 13);
    const Tensor x = randomTokens(kPimBatch * kPimSeq, pim.hidden, 14);
    const double s =
        medianSeconds(tracer, "probe.LutLayer::closestCentroidSearch", 20,
                      [&] { (void)pim_ffn1.closestCentroidSearch(x); });
    res.metric("kernels.ccs_us", s * 1e6, "us");
}

void
probeFunctional(Tracer &tracer, RunResult &res)
{
    const FunctionalTransformerConfig cfg = serveModelConfig();
    FunctionalTransformer model(cfg);
    const Tensor calibration = randomTokens(4 * kServeSeq, cfg.hidden, 404);
    const double convert_s =
        medianSeconds(tracer, "probe.FunctionalTransformer::convertToLut",
                      3, [&] { model.convertToLut(calibration, kServeSeq); });
    res.metric("lutnn.convert_s", convert_s, "s");

    for (std::size_t batch : {1, 2, 4, 8}) {
        const Tensor x = randomTokens(batch * kServeSeq, cfg.hidden, 15);
        const double s = medianSeconds(
            tracer, "probe.FunctionalTransformer::forward", 20, [&] {
                (void)model.forward(x, kServeSeq,
                                    LinearBackendKind::HostLut);
            });
        res.metric("forward.b" + std::to_string(batch) + "_ms", s * 1e3,
                   "ms");
    }

    TransformerConfig shape;
    shape.name = "serve-open";
    shape.hidden_dim = cfg.hidden;
    shape.ffn_dim = cfg.ffn;
    shape.layers = cfg.layers;
    shape.heads = cfg.heads;
    shape.seq_len = kServeSeq;
    shape.batch = 4;
    const double lower_s =
        medianSeconds(tracer, "probe.lowerTransformer", 200, [&] {
            (void)lowerTransformer(shape,
                                   LutNnParams{cfg.subvec_len, cfg.centroids},
                                   ExecutionMode::PimDl);
        });
    res.metric("plan.lower_us", lower_s * 1e6, "us");
}

void
probeLutExecutor(Tracer &tracer, RunResult &res)
{
    const PimPlatformConfig platform = upmemPlatform();
    const FunctionalTransformerConfig cfg = pimModelConfig();
    const LutLayer layer = makeLutLayer(cfg.hidden, cfg.ffn, 16);
    const std::size_t rows = kPimBatch * kPimSeq;
    const IndexMatrix idx =
        layer.closestCentroidSearch(randomTokens(rows, cfg.hidden, 17));
    LutWorkloadShape shape = lutShapeFor(layer, rows);
    shape.output_dtype_bytes = platform.lut_dtype_bytes;
    const AutoTuneResult tuned = AutoTuner(platform).tune(shape);
    if (!tuned.found)
        throw std::runtime_error("no legal mapping for the FFN1 probe");

    const double plain_s =
        medianSeconds(tracer, "probe.runDistributedLut", 5, [&] {
            (void)runDistributedLut(platform, layer, idx, tuned.mapping,
                                    true);
        });
    res.metric("lut_executor.run_ms", plain_s * 1e3, "ms");

    transfer::TransferScheduler scheduler({});
    transfer::ResidentLutManager resident(
        transfer::residentLutCapacityBytes(platform));
    LutTransferContext ctx;
    ctx.scheduler = &scheduler;
    ctx.resident = &resident;
    ctx.resident_key = 1;
    constexpr std::size_t kReps = 5;
    const std::uint64_t pe0 = obsCounter("lut.pe_kernels");
    const std::uint64_t bursts0 = obsCounter("transfer.staged_bursts");
    const std::uint64_t hits0 = obsCounter("transfer.resident_hits");
    const std::uint64_t misses0 = obsCounter("transfer.resident_misses");
    const double staged_s =
        medianSeconds(tracer, "probe.runDistributedLut.staged", kReps, [&] {
            (void)runDistributedLut(platform, layer, idx, tuned.mapping,
                                    true, nullptr, {}, &ctx);
        });
    // Per call, the warm-up included: the first call stages the LUT
    // (a residency miss), the later ones find it resident.
    const double calls = static_cast<double>(kReps + 1);
    const auto perCall = [calls](const char *counter, std::uint64_t from) {
        return static_cast<double>(obsCounter(counter) - from) / calls;
    };
    const double hits = perCall("transfer.resident_hits", hits0);
    const double lookups =
        hits + perCall("transfer.resident_misses", misses0);
    res.metric("lut_executor.run_staged_ms", staged_s * 1e3, "ms");
    res.metric("lut.pe_kernels_per_op", perCall("lut.pe_kernels", pe0),
               "count");
    res.metric("transfer.bursts_per_op",
               perCall("transfer.staged_bursts", bursts0), "count");
    res.metric("transfer.resident_hit_rate",
               lookups > 0.0 ? hits / lookups : 0.0, "frac");
    res.metric("transfer.stage_wait_ms_per_op",
               scheduler.stats().wait_wall_s * 1e3 / calls, "ms");
}

void
probeServing(Tracer &tracer, RunResult &res)
{
    const auto model = buildConvertedModel(serveModelConfig(), kServeSeq);
    FunctionalBatchExecutor executor(*model, LinearBackendKind::HostLut);
    const ServePayloads payloads = makeServePayloads(*model, 1);
    const OpenLoopResult r =
        runOpenLoop(executor, payloads, 300.0, 1.5, 1, tracer);
    res.attempted += r.attempted;
    res.failed += r.failed;
    res.metric("serving.queue_wait_p50_ms", median(r.queue_wait_s) * 1e3,
               "ms");
    res.metric("serving.service_p50_ms", median(r.service_s) * 1e3, "ms");
    res.metric("serving.batch_size_mean", mean(r.batch_size), "count");
    res.metric("serving.gen_late_tail_ms", tail(r.late_s).value * 1e3,
               "ms");
}

void
probeTunerAndBackends(Tracer &tracer, RunResult &res)
{
    const PimPlatformConfig platform = upmemPlatform();
    TransformerConfig bert = bertBase();
    bert.batch = 8;
    bert.seq_len = 512;

    // Cold tuning of the distinct LUT shapes of BERT-base at V 2 and 4.
    std::vector<LutWorkloadShape> shapes;
    for (std::size_t v : {2, 4}) {
        LoweringOptions options;
        options.platform = &platform;
        const Plan plan = lowerTransformer(bert, LutNnParams{v, 16},
                                           ExecutionMode::PimDl, options);
        for (const PlanNode &node : plan.nodes)
            if (node.kind == PlanOpKind::LutOp &&
                std::find(shapes.begin(), shapes.end(), node.lut_shape) ==
                    shapes.end())
                shapes.push_back(node.lut_shape);
    }
    const AutoTuner tuner(platform);
    std::vector<double> tune_s;
    double evaluated = 0.0, err = 0.0;
    for (const LutWorkloadShape &shape : shapes) {
        ScopedSpan span(tracer, "probe.AutoTuner::tune");
        const double t0 = SteadyClock::instance().now();
        const AutoTuneResult r = tuner.tune(shape);
        tune_s.push_back(SteadyClock::instance().now() - t0);
        if (!r.found)
            throw std::runtime_error("tuner found no mapping");
        evaluated += static_cast<double>(r.evaluated);
        const double model_s =
            evaluateLutMapping(platform, shape, r.mapping).total();
        const double sim_s =
            simulateLutMapping(platform, shape, r.mapping).total_s;
        err += std::abs(model_s - sim_s) / sim_s;
    }
    const double n = static_cast<double>(shapes.size());
    res.metric("tuner.tune_ms_per_shape", median(tune_s) * 1e3, "ms");
    res.metric("tuner.mappings_evaluated", evaluated / n, "count");
    res.metric("tuner.model_err_frac", err / n, "frac");

    for (TimingBackendKind kind :
         {TimingBackendKind::Analytical, TimingBackendKind::Transaction}) {
        const PimDlEngine engine(platform, xeon4210Dual(), kind);
        const Plan plan =
            engine.lower(bert, LutNnParams{4, 16}, ExecutionMode::PimDl);
        const bool txn = kind == TimingBackendKind::Transaction;
        const std::uint64_t cmds = obsCounter("backend.txn.commands_issued");
        (void)engine.backend().cost(plan);
        const double commands = static_cast<double>(
            obsCounter("backend.txn.commands_issued") - cmds);
        const double s = medianSeconds(
            tracer, std::string("probe.TimingBackend::cost.") +
                        timingBackendKindName(kind),
            txn ? 20 : 200, [&] { (void)engine.backend().cost(plan); });
        if (txn) {
            res.metric("backend.txn.cost_ms", s * 1e3, "ms");
            res.metric("backend.txn.commands_per_plan", commands, "count");
        } else {
            res.metric("backend.analytical.cost_us", s * 1e6, "us");
        }
    }
}

} // namespace

void
runLayerProbes(Tracer &tracer, RunResult &result)
{
    ScopedSpan span(tracer, "probes");
    probeParallel(tracer, result);
    probeKernels(tracer, result);
    probeFunctional(tracer, result);
    probeLutExecutor(tracer, result);
    probeServing(tracer, result);
    probeTunerAndBackends(tracer, result);
}

} // namespace perfbench
