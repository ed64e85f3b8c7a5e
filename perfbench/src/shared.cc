#include "shared.h"

#include <algorithm>
#include <cstring>
#include <deque>
#include <future>

#include "common/clock.h"
#include "common/rng.h"
#include "runtime/serving.h"
#include "stats.h"

using namespace pimdl;

namespace perfbench {

FunctionalTransformerConfig
serveModelConfig()
{
    FunctionalTransformerConfig cfg;
    cfg.hidden = 64;
    cfg.ffn = 128;
    cfg.layers = 2;
    cfg.heads = 4;
    return cfg;
}

FunctionalTransformerConfig
pimModelConfig()
{
    FunctionalTransformerConfig cfg;
    cfg.hidden = 128;
    cfg.ffn = 512;
    cfg.layers = 4;
    cfg.heads = 4;
    return cfg;
}

std::unique_ptr<FunctionalTransformer>
buildConvertedModel(const FunctionalTransformerConfig &cfg, std::size_t seq)
{
    auto model = std::make_unique<FunctionalTransformer>(cfg);
    model->convertToLut(randomTokens(4 * seq, cfg.hidden, 404), seq);
    return model;
}

Tensor
randomTokens(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Rng rng(seed);
    Tensor t(rows, cols);
    t.fillGaussian(rng);
    return t;
}

bool
bitEqual(const Tensor &a, const Tensor &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

LiveServingConfig
serveRuntimeConfig()
{
    LiveServingConfig cfg;
    cfg.workers = 2;
    cfg.max_batch = 8;
    cfg.pow2_buckets = true;
    cfg.collect_outputs = true;
    cfg.queue_capacity = 1 << 14;
    return cfg;
}

ServePayloads
makeServePayloads(const FunctionalTransformer &model, std::uint64_t seed)
{
    constexpr std::size_t kPayloads = 32;
    ServePayloads p;
    for (std::size_t i = 0; i < kPayloads; ++i) {
        p.inputs.push_back(randomTokens(kServeSeq, model.config().hidden,
                                        seed * 7919 + i));
        p.refs.push_back(model.forward(p.inputs.back(), kServeSeq,
                                       LinearBackendKind::HostLut));
    }
    return p;
}

namespace {

struct Pending
{
    std::future<LiveRequestResult> future;
    std::size_t payload = 0;
    double scheduled_s = 0.0;
    double submit_start_s = 0.0;
    double submit_end_s = 0.0;
};

void
collect(Pending &p, const ServePayloads &payloads, Tracer &tracer,
        std::uint64_t parent, OpenLoopResult &out, double &last_done_s)
{
    const LiveRequestResult r = p.future.get();
    if (r.status != LiveRequestStatus::Completed ||
        !bitEqual(r.output, payloads.refs[p.payload])) {
        ++out.failed;
        return;
    }
    last_done_s = std::max(last_done_s, r.done_s);
    out.latency_s.push_back(r.done_s - p.scheduled_s);
    out.queue_wait_s.push_back(r.queue_wait_s);
    out.service_s.push_back(r.service_s);
    out.batch_size.push_back(static_cast<double>(r.batch_size));
    if (!tracer.enabled())
        return;
    Span request;
    request.parent = parent;
    request.name = "serving.request";
    request.start_s = p.scheduled_s;
    request.end_s = r.done_s;
    request.request_id = static_cast<std::int64_t>(r.request_id);
    request.batch_id = static_cast<std::int64_t>(r.batch_id);
    const std::uint64_t id = tracer.add(request);
    const auto child = [&](const char *name, double start, double end) {
        Span s = request;
        s.parent = id;
        s.name = name;
        s.start_s = start;
        s.end_s = end;
        tracer.add(s);
    };
    child("serving.submit", p.submit_start_s, p.submit_end_s);
    child("serving.queue", r.enqueue_s, r.enqueue_s + r.queue_wait_s);
    child("serving.service", r.done_s - r.service_s, r.done_s);
}

/** Submits payload @p which, scheduled at @p scheduled_s; a refused
 * request counts as failed. */
void
submit(LiveServingRuntime &runtime, const ServePayloads &payloads,
       std::size_t which, double scheduled_s, OpenLoopResult &out,
       std::deque<Pending> &pending)
{
    SteadyClock &clock = SteadyClock::instance();
    Pending p;
    p.payload = which;
    p.scheduled_s = scheduled_s;
    p.submit_start_s = clock.now();
    auto f = runtime.submit(payloads.inputs[which]);
    p.submit_end_s = clock.now();
    out.late_s.push_back(p.submit_start_s - scheduled_s);
    ++out.attempted;
    if (!f) {
        ++out.failed;
        return;
    }
    p.future = std::move(*f);
    pending.push_back(std::move(p));
}

} // namespace

OpenLoopResult
runOpenLoop(BatchExecutor &executor, const ServePayloads &payloads,
            double rate_rps, double horizon_s, std::uint64_t seed,
            Tracer &tracer)
{
    OpenLoopResult out;
    out.rate_rps = rate_rps;
    const std::vector<double> arrivals =
        poissonArrivals(rate_rps, horizon_s, seed);
    Rng pick(seed ^ 0x5eedULL);
    std::vector<std::size_t> which(arrivals.size());
    for (std::size_t &w : which)
        w = static_cast<std::size_t>(pick.integer(
            0, static_cast<std::int64_t>(payloads.inputs.size()) - 1));

    ScopedSpan phase(tracer, "serving.open_loop");
    const std::uint64_t parent = tracer.current();
    LiveServingRuntime runtime(serveRuntimeConfig(), executor);
    SteadyClock &clock = SteadyClock::instance();
    std::deque<Pending> pending;
    double last_done_s = 0.0;
    const double t0 = clock.now();
    for (std::size_t i = 0; i < arrivals.size(); ++i) {
        // Collect finished requests in order while waiting for the
        // next send; the queue front blocks later ones only while it
        // is still running.
        while (!pending.empty() &&
               pending.front().future.wait_for(std::chrono::seconds(0)) ==
                   std::future_status::ready) {
            collect(pending.front(), payloads, tracer, parent, out,
                    last_done_s);
            pending.pop_front();
        }
        const double due = t0 + arrivals[i];
        clock.sleepFor(due - clock.now());
        submit(runtime, payloads, which[i], due, out, pending);
    }
    for (Pending &p : pending)
        collect(p, payloads, tracer, parent, out, last_done_s);
    runtime.drain();
    if (!arrivals.empty())
        out.drain_lag_s = last_done_s - (t0 + arrivals.back());
    return out;
}

OpenLoopResult
runClosedLoop(BatchExecutor &executor, const ServePayloads &payloads,
              std::size_t in_flight, double horizon_s, std::uint64_t seed,
              Tracer &tracer)
{
    OpenLoopResult out;
    Rng pick(seed ^ 0x5eedULL);
    const auto last = static_cast<std::int64_t>(payloads.inputs.size()) - 1;

    ScopedSpan phase(tracer, "serving.closed_loop");
    const std::uint64_t parent = tracer.current();
    LiveServingRuntime runtime(serveRuntimeConfig(), executor);
    SteadyClock &clock = SteadyClock::instance();
    std::deque<Pending> pending;
    double last_done_s = 0.0;
    std::vector<double> round_s;
    const double end = clock.now() + horizon_s;
    while (clock.now() < end || round_s.size() <= kTailBeyond) {
        const double r0 = clock.now();
        for (std::size_t i = 0; i < in_flight; ++i)
            submit(runtime, payloads,
                   static_cast<std::size_t>(pick.integer(0, last)),
                   clock.now(), out, pending);
        for (Pending &p : pending)
            collect(p, payloads, tracer, parent, out, last_done_s);
        pending.clear();
        round_s.push_back(clock.now() - r0);
    }
    runtime.drain();
    out.rate_rps = static_cast<double>(in_flight) / median(round_s);
    return out;
}

} // namespace perfbench
