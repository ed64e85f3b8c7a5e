#include "plan/schedule.h"

#include <algorithm>
#include <limits>

#include "common/logging.h"

namespace pimdl {

const char *
schedulePolicyName(SchedulePolicy policy)
{
    switch (policy) {
    case SchedulePolicy::Sequential:
        return "sequential";
    case SchedulePolicy::Pipelined:
        return "pipelined";
    case SchedulePolicy::Overlap:
        return "overlap";
    }
    return "unknown";
}

namespace {

/**
 * Schedule-independent accounting: component buckets, device busy time,
 * link traffic, and per-role linear detail. Only total_s is left for
 * the concrete scheduler to fill in.
 */
InferenceEstimate
accumulate(const CostedPlan &costed)
{
    PIMDL_REQUIRE(costed.costs.size() == costed.plan.nodes.size(),
                  "costed plan has mismatched node/cost arrays");

    InferenceEstimate est;
    for (std::size_t i = 0; i < costed.plan.nodes.size(); ++i) {
        const PlanNode &node = costed.plan.nodes[i];
        const NodeCost &cost = costed.costs[i];

        switch (node.kind) {
        case PlanOpKind::Ccs:
            est.ccs_s += cost.seconds;
            est.linear_s += cost.seconds;
            break;
        case PlanOpKind::LutOp:
            est.lut_s += cost.seconds;
            est.linear_s += cost.seconds;
            break;
        case PlanOpKind::Gemm:
            est.linear_s += cost.seconds;
            break;
        case PlanOpKind::Attention:
            est.attention_s += cost.seconds;
            break;
        case PlanOpKind::Elementwise:
            est.other_s += cost.seconds;
            break;
        case PlanOpKind::HostPimTransfer:
            break;
        }
        est.link_bytes += cost.link_bytes;

        if (node.device == PlanDevice::Host)
            est.host_busy_s += cost.seconds;
        else if (node.device == PlanDevice::Pim)
            est.pim_busy_s += cost.seconds;

        if (node.has_role && (node.kind == PlanOpKind::Ccs ||
                              node.kind == PlanOpKind::LutOp)) {
            auto it = std::find_if(
                est.per_linear.begin(), est.per_linear.end(),
                [&](const LinearLatency &l) {
                    return l.role == node.role;
                });
            if (it == est.per_linear.end()) {
                LinearLatency entry;
                entry.role = node.role;
                est.per_linear.push_back(entry);
                it = est.per_linear.end() - 1;
            }
            if (node.kind == PlanOpKind::Ccs) {
                it->ccs_s += cost.seconds;
            } else {
                it->lut_s += cost.seconds;
                if (node.mapping_attached)
                    it->mapping = node.mapping;
            }
        }
    }
    return est;
}

/** A serial step: one node occupying its device for its full latency. */
ScheduleStep
serialStep(const PlanNode &node, const NodeCost &cost)
{
    ScheduleStep step;
    if (node.device == PlanDevice::Pim)
        step.pim_s = cost.seconds;
    else
        step.host_s = cost.seconds;
    step.total_s = cost.seconds;
    return step;
}

} // namespace

ScheduleResult
SequentialScheduler::schedule(const CostedPlan &costed) const
{
    ScheduleResult result;
    result.estimate = accumulate(costed);

    double total = 0.0;
    result.steps.reserve(costed.plan.nodes.size());
    for (std::size_t i = 0; i < costed.plan.nodes.size(); ++i) {
        total += costed.costs[i].seconds;
        result.steps.push_back(
            serialStep(costed.plan.nodes[i], costed.costs[i]));
    }
    result.estimate.total_s = total;
    return result;
}

ScheduleResult
PipelinedScheduler::schedule(const CostedPlan &costed) const
{
    ScheduleResult result;
    result.estimate = accumulate(costed);

    // Double-buffered CCS/LUT overlap: with two index/output buffers in
    // flight, the host computes layer i+1's CCS while the PIM reduces
    // layer i's LUTs, so the LUT-NN window costs max(sum CCS, sum LUT).
    // Every other node (attention, elementwise, dense GEMMs, on either
    // device) stays on the critical path and runs serially.
    double host_window = 0.0;
    double pim_window = 0.0;
    double serial = 0.0;
    std::vector<ScheduleStep> serial_steps;
    for (std::size_t i = 0; i < costed.plan.nodes.size(); ++i) {
        const PlanNode &node = costed.plan.nodes[i];
        const NodeCost &cost = costed.costs[i];
        if (node.kind == PlanOpKind::Ccs) {
            host_window += cost.seconds;
        } else if (node.kind == PlanOpKind::LutOp) {
            pim_window += cost.seconds;
        } else if (node.kind != PlanOpKind::HostPimTransfer) {
            serial += cost.seconds;
            serial_steps.push_back(serialStep(node, cost));
        }
    }

    if (host_window > 0.0 || pim_window > 0.0) {
        ScheduleStep overlapped;
        overlapped.host_s = host_window;
        overlapped.pim_s = pim_window;
        overlapped.total_s = std::max(host_window, pim_window);
        result.steps.push_back(overlapped);
    }
    result.steps.insert(result.steps.end(), serial_steps.begin(),
                        serial_steps.end());

    result.estimate.total_s =
        std::max(host_window, pim_window) + serial;
    return result;
}

OverlapScheduler::OverlapScheduler(std::size_t waves) : waves_(waves)
{
    PIMDL_REQUIRE(waves_ >= 1, "overlap scheduler needs >= 1 wave");
}

ScheduleResult
OverlapScheduler::schedule(const CostedPlan &costed) const
{
    ScheduleResult result;
    result.estimate = accumulate(costed);

    // Greedy list-schedule of `waves_` independent copies of the plan
    // (consecutive in-flight forwards) over the two device resources.
    // Link transfers take zero time (their latency is folded into the
    // producing op's analytical cost) and only order the graph.
    const std::vector<PlanNode> &nodes = costed.plan.nodes;
    const std::size_t n = nodes.size();
    const std::size_t total_items = n * waves_;

    std::vector<double> finish(total_items, -1.0);
    auto item = [&](std::size_t wave, std::size_t node) {
        return wave * n + node;
    };

    double host_free = 0.0;
    double pim_free = 0.0;
    double makespan = 0.0;

    // Candidate order (node id, then wave) keeps earlier pipeline
    // stages ahead of later ones so successive waves interleave; with
    // chain-structured plans every item's predecessors come earlier in
    // this order, so a single pass schedules everything.
    for (std::size_t node_id = 0; node_id < n; ++node_id) {
        for (std::size_t wave = 0; wave < waves_; ++wave) {
            const PlanNode &node = nodes[node_id];
            double ready = 0.0;
            for (std::size_t dep : node.deps) {
                PIMDL_REQUIRE(finish[item(wave, dep)] >= 0.0,
                              "plan nodes are not topologically ordered");
                ready = std::max(ready, finish[item(wave, dep)]);
            }
            const double seconds = costed.costs[node_id].seconds;
            double start = ready;
            if (node.device == PlanDevice::Host) {
                start = std::max(ready, host_free);
                host_free = start + seconds;
            } else if (node.device == PlanDevice::Pim) {
                start = std::max(ready, pim_free);
                pim_free = start + seconds;
            }
            finish[item(wave, node_id)] = start + seconds;
            makespan = std::max(makespan, start + seconds);
        }
    }

    // Steady-state per-forward latency of a saturated pipeline: the
    // makespan amortized over the in-flight forwards.
    result.estimate.total_s =
        makespan / static_cast<double>(waves_);
    return result;
}

DegradedLutRemap
planDegradedLutRemap(const LutWorkloadShape &shape,
                     const LutMapping &mapping,
                     const std::vector<bool> &failed)
{
    DegradedLutRemap remap;
    remap.total_tiles = mapping.totalPes(shape);
    PIMDL_REQUIRE(failed.size() >= remap.total_tiles,
                  "failed-PE vector smaller than the mapping's PE pool");

    std::vector<std::size_t> healthy;
    healthy.reserve(remap.total_tiles);
    for (std::size_t pe = 0; pe < remap.total_tiles; ++pe) {
        if (!failed[pe])
            healthy.push_back(pe);
    }
    remap.healthy_pes = healthy.size();
    if (healthy.empty())
        return remap; // illegal: nothing left to execute on

    // Deal logical tiles to surviving PEs round-robin in ascending id
    // order: deterministic, and balanced to within one tile per PE.
    remap.tile_owner.resize(remap.total_tiles);
    for (std::size_t tile = 0; tile < remap.total_tiles; ++tile)
        remap.tile_owner[tile] = healthy[tile % healthy.size()];
    remap.waves =
        (remap.total_tiles + healthy.size() - 1) / healthy.size();
    remap.legal = true;
    return remap;
}

const Scheduler &
schedulerFor(SchedulePolicy policy)
{
    static const SequentialScheduler sequential;
    static const PipelinedScheduler pipelined;
    static const OverlapScheduler overlap;
    switch (policy) {
    case SchedulePolicy::Pipelined:
        return pipelined;
    case SchedulePolicy::Overlap:
        return overlap;
    case SchedulePolicy::Sequential:
        break;
    }
    return sequential;
}

} // namespace pimdl
