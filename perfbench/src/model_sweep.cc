/**
 * @file
 * model-sweep: one thread, no functional execution. For each timing
 * backend (analytical, transaction) a fresh PimDlEngine on UPMEM with
 * the dual Xeon 4210 host runs estimatePimDl over a fixed grid:
 * {BERT-base, BERT-large, ViT-huge} x batch {1, 8, 64} x seq {128, 512}
 * x V {2, 4}, CT 16. A cold pass (part of set-up) tunes every new
 * shape; warm passes then repeat the grid, hitting the tuner memo so
 * only lowering and backend costing run.
 *
 * Why: the only workload where the tuner, plan lowering and the timing
 * backends do the work, and the only one that yields modeled PIM
 * seconds (the paper's numbers). It bypasses the functional executors
 * and the serving runtime.
 */

#include <cmath>

#include "bench.h"
#include "host/host_model.h"
#include "runtime/engine.h"
#include "stats.h"

using namespace pimdl;

namespace perfbench {

namespace {

constexpr std::size_t kCentroids = 16;

struct GridPoint
{
    TransformerConfig model;
    LutNnParams params;
};

std::vector<GridPoint>
grid()
{
    std::vector<GridPoint> points;
    for (const TransformerConfig &base : {bertBase(), bertLarge(), vitHuge()})
        for (std::size_t batch : {1, 8, 64})
            for (std::size_t seq : {128, 512})
                for (std::size_t v : {2, 4}) {
                    GridPoint p{base, LutNnParams{v, kCentroids}};
                    p.model.batch = batch;
                    p.model.seq_len = seq;
                    points.push_back(p);
                }
    return points;
}

/** The headline point: BERT-base, batch 8, seq 512, V 4, CT 16. */
bool
isHeadline(const GridPoint &p)
{
    return p.model.name == bertBase().name && p.model.batch == 8 &&
           p.model.seq_len == 512 && p.params.subvec_len == 4;
}

/** Modeled seconds of the seed state at the headline point. */
double
seedStateSeconds(TimingBackendKind kind)
{
    return kind == TimingBackendKind::Analytical ? 6.404818 : 6.451777;
}

const char *
nodeBucket(const PlanNode &node)
{
    switch (node.kind) {
    case PlanOpKind::LutOp:
        switch (node.role) {
        case LinearRole::QkvProjection:
            return "qkv";
        case LinearRole::OutProjection:
            return "o";
        case LinearRole::Ffn1:
            return "ffn1";
        case LinearRole::Ffn2:
            return "ffn2";
        }
        return "other";
    case PlanOpKind::Ccs:
        return "ccs";
    case PlanOpKind::Attention:
        return "attention";
    case PlanOpKind::HostPimTransfer:
        return "transfer";
    default:
        return "other";
    }
}

using Engines = std::vector<std::unique_ptr<PimDlEngine>>;

Engines
setUp()
{
    Engines e;
    for (TimingBackendKind kind :
         {TimingBackendKind::Analytical, TimingBackendKind::Transaction})
        e.push_back(std::make_unique<PimDlEngine>(upmemPlatform(),
                                                  xeon4210Dual(), kind));
    return e;
}

/** One pass over the grid on every engine; checks each estimate
 * (finite, positive, and equal to @p expected when given). */
std::vector<double>
sweep(const Engines &e, const std::vector<GridPoint> &points,
      const std::vector<double> *expected, Tracer &tracer, RunResult &res)
{
    ScopedSpan span(tracer, "sweep");
    std::vector<double> totals;
    for (const auto &engine : e)
        for (const GridPoint &p : points) {
            double total = 0.0;
            {
                ScopedSpan est(tracer, "engine.estimatePimDl");
                total = engine->estimatePimDl(p.model, p.params).total_s;
            }
            ++res.attempted;
            const bool ok =
                std::isfinite(total) && total > 0.0 &&
                (!expected || total == (*expected)[totals.size()]);
            if (!ok)
                ++res.failed;
            totals.push_back(total);
        }
    return totals;
}

/**
 * Checks that each estimate's per-node modeled seconds sum to its
 * sequential total, prints the headline breakdown, and (traced) lays
 * the headline plan's node costs out on the modeled-time track.
 */
void
checkBreakdowns(const Engines &e, const std::vector<GridPoint> &points,
                const std::vector<double> &totals, Tracer &tracer,
                RunResult &res)
{
    std::size_t i = 0;
    for (const auto &engine : e)
        for (const GridPoint &p : points) {
            const CostedPlan costed = engine->cost(
                engine->lower(p.model, p.params, ExecutionMode::PimDl));
            double sum = 0.0;
            for (const NodeCost &c : costed.costs)
                sum += c.seconds;
            const double total = totals[i++];
            if (std::abs(sum - total) > 1e-12 * total)
                res.check_errors.push_back(
                    p.model.name + ": node seconds sum to " +
                    std::to_string(sum) + ", total is " +
                    std::to_string(total));
            if (!isHeadline(p))
                continue;

            const char *backend = timingBackendKindName(engine->backendKind());
            std::vector<std::pair<std::string, double>> buckets;
            for (const char *b : {"qkv", "o", "ffn1", "ffn2", "ccs",
                                  "attention", "transfer", "other"})
                buckets.emplace_back(b, 0.0);
            double t = 0.0;
            for (std::size_t n = 0; n < costed.plan.nodes.size(); ++n) {
                const PlanNode &node = costed.plan.nodes[n];
                const double sec = costed.costs[n].seconds;
                for (auto &[name, acc] : buckets)
                    if (name == nodeBucket(node))
                        acc += sec;
                Span s;
                s.name = std::string("modeled.") + nodeBucket(node);
                s.track = 2;
                s.start_s = t;
                s.end_s = t + sec;
                tracer.add(s);
                t += sec;
            }
            std::string line = std::string("modeled ") + backend +
                               " BERT-base b8 s512 V4: total " +
                               fmt(total, 6) + " s =";
            for (const auto &[name, acc] : buckets)
                line += " " + name + " " + fmt(acc, 6);
            const bool seed_state =
                std::abs(total - seedStateSeconds(engine->backendKind())) <
                5e-7;
            line += seed_state ? " (equals the seed state)"
                               : " (seed state: " +
                                     fmt(seedStateSeconds(
                                             engine->backendKind()),
                                         6) +
                                     " s)";
            note(line);
        }
}

} // namespace

RunResult
runModelSweep(const Options &opts, Tracer &tracer)
{
    RunResult res;
    const std::vector<GridPoint> points = grid();

    // Set-up: engine construction plus the cold pass, in which the
    // tuner searches every new shape of the grid (the engines' lazy
    // planning, paid once per shape). One 15 s pass is already an
    // aggregate, so it runs once.
    Engines e;
    std::vector<double> cold;
    double setup_s = 0.0;
    {
        ScopedSpan span(tracer, "setup");
        const double t0 = SteadyClock::instance().now();
        e = setUp();
        cold = sweep(e, points, nullptr, tracer, res);
        setup_s = SteadyClock::instance().now() - t0;
    }
    checkBreakdowns(e, points, cold, tracer, res);

    // Warm passes; each repeats the cold totals exactly.
    const auto warmLoop = [&](double seconds, Tracer &t) {
        SteadyClock &clock = SteadyClock::instance();
        std::vector<double> times;
        const double end = clock.now() + seconds;
        while (clock.now() < end || times.size() <= kTailBeyond) {
            const double t0 = clock.now();
            sweep(e, points, &cold, t, res);
            times.push_back(clock.now() - t0);
        }
        return times;
    };

    if (opts.trace) {
        runTracedPhases(res, tracer, opts.seconds, warmLoop);
        return res;
    }

    const std::vector<double> warm = warmLoop(opts.seconds, tracer);
    const double estimates = static_cast<double>(cold.size());
    const Tail t = windowedTail(warm);
    note("cold pass (set-up): " + std::to_string(cold.size()) +
         " estimates, " + fmt(estimates / setup_s, 3) +
         " estimates/s; warm passes: " + std::to_string(warm.size()) +
         ", p50 " + fmt(median(warm) * 1e3) + " ms, p" +
         fmt(t.percentile, 2) + " " + fmt(t.value * 1e3) + " ms (median of " +
         "window tails, " + std::to_string(t.samples) + " per window)");

    res.metric("setup_s", setup_s, "s");
    res.metric("peak_rss_mb", peakRssMb(), "MB");
    res.metric("latency_p50_ms", median(warm) * 1e3, "ms");
    res.metric("throughput_per_s", estimates / median(warm), "1/s");
    return res;
}

} // namespace perfbench
