/**
 * @file
 * Models, inputs and the open-loop generator shared by the workloads
 * and the layer probes. The model geometry is part of the benchmark
 * definition; only the inputs (payloads, arrival times) come from the
 * seed.
 */

#ifndef PERFBENCH_SHARED_H
#define PERFBENCH_SHARED_H

#include <memory>
#include <vector>

#include "runtime/functional_transformer.h"
#include "runtime/serving_live.h"
#include "tracer.h"

namespace perfbench {

/** serve-open model: hidden 64, ffn 128, 2 layers, 4 heads. */
pimdl::FunctionalTransformerConfig serveModelConfig();
inline constexpr std::size_t kServeSeq = 32;

/** offline-pim model: hidden 128, ffn 512, 4 layers, 4 heads. */
pimdl::FunctionalTransformerConfig pimModelConfig();
inline constexpr std::size_t kPimSeq = 64;
inline constexpr std::size_t kPimBatch = 16;

/** Builds a model and converts it to LUT-NN on fixed calibration
 * tokens (4 sequences of @p seq rows). */
std::unique_ptr<pimdl::FunctionalTransformer>
buildConvertedModel(const pimdl::FunctionalTransformerConfig &cfg,
                    std::size_t seq);

/** Gaussian tokens drawn from @p seed. */
pimdl::Tensor randomTokens(std::size_t rows, std::size_t cols,
                           std::uint64_t seed);

/** Same shape and bit-identical contents. */
bool bitEqual(const pimdl::Tensor &a, const pimdl::Tensor &b);

/** serve-open runtime: 2 workers, max_batch 8, pow2 buckets, outputs
 * collected for checking, no deadline, queue deep enough to refuse
 * nothing below saturation. */
pimdl::LiveServingConfig serveRuntimeConfig();

/** Request payloads drawn from @p seed and their HostLut reference
 * outputs, each computed alone at batch 1. */
struct ServePayloads
{
    std::vector<pimdl::Tensor> inputs;
    std::vector<pimdl::Tensor> refs;
};
ServePayloads makeServePayloads(const pimdl::FunctionalTransformer &model,
                                std::uint64_t seed);

/** Per-request outcome of one serving phase. */
struct OpenLoopResult
{
    /** Offered rate (open loop) or served rate (closed loop). */
    double rate_rps = 0.0;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    /** Completed, correct requests, timed from the scheduled send. */
    std::vector<double> latency_s;
    std::vector<double> queue_wait_s;
    std::vector<double> service_s;
    std::vector<double> batch_size;
    /** Generator lateness: actual submit minus scheduled send. */
    std::vector<double> late_s;
    /** Last completion minus the last scheduled send; grows without
     * bound when the runtime falls behind the offered rate. */
    double drain_lag_s = 0.0;
};

/**
 * Submits seeded Poisson arrivals at @p rate_rps for @p horizon_s
 * from the calling thread (the only generator) into a fresh runtime
 * over @p executor, and checks each output bit-exact against its
 * payload's reference. With tracing on, each request becomes a span
 * (request id, batch id) with submit / queue / service children.
 */
OpenLoopResult runOpenLoop(pimdl::BatchExecutor &executor,
                           const ServePayloads &payloads, double rate_rps,
                           double horizon_s, std::uint64_t seed,
                           Tracer &tracer);

/**
 * Closed loop in rounds: submits @p in_flight seeded payloads at once
 * from the calling thread, waits for all of them, and repeats for
 * @p horizon_s (and for at least kTailBeyond + 1 rounds), with the
 * same output checks and spans as runOpenLoop. Each round starts from
 * an empty runtime, so no backlog carries over. Latency is timed from
 * submission; rate_rps is the served rate, @p in_flight over the
 * median round time.
 */
OpenLoopResult runClosedLoop(pimdl::BatchExecutor &executor,
                             const ServePayloads &payloads,
                             std::size_t in_flight, double horizon_s,
                             std::uint64_t seed, Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_SHARED_H
