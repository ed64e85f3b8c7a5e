/**
 * @file
 * The built-in verifier passes. Each pass tolerates malformed input
 * from the others' domains (a broken edge must not crash the shape
 * pass), so every dependency access is bounds-guarded.
 */

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "tuner/cost_model.h"
#include "verify/verify.h"

namespace pimdl {
namespace verify {

namespace {

/** True when `dep` is a usable backward edge of `node`. */
bool
depOk(const Plan &plan, const PlanNode &node, std::size_t dep)
{
    return dep < plan.nodes.size() && dep < node.id;
}

/**
 * Transitive dependency walk from @p start (exclusive), calling
 * @p visit on every reachable node until it returns true (found).
 * Ignores malformed edges so it terminates on any input.
 */
template <typename Visitor>
bool
walkDeps(const Plan &plan, const PlanNode &start, Visitor &&visit)
{
    std::vector<bool> seen(plan.nodes.size(), false);
    std::vector<std::size_t> stack;
    for (std::size_t dep : start.deps) {
        if (depOk(plan, start, dep) && !seen[dep]) {
            seen[dep] = true;
            stack.push_back(dep);
        }
    }
    while (!stack.empty()) {
        const std::size_t id = stack.back();
        stack.pop_back();
        const PlanNode &node = plan.nodes[id];
        if (visit(node))
            return true;
        for (std::size_t dep : node.deps) {
            if (depOk(plan, node, dep) && !seen[dep]) {
                seen[dep] = true;
                stack.push_back(dep);
            }
        }
    }
    return false;
}

std::string
nodeLabel(const PlanNode &node)
{
    std::string label = planOpKindName(node.kind);
    label += " (layer " + std::to_string(node.layer);
    if (node.has_role)
        label += std::string(", ") + linearRoleName(node.role);
    label += ")";
    return label;
}

bool
nearlyEq(double a, double b)
{
    const double slack =
        1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
    return std::fabs(a - b) <= slack;
}

} // namespace

void
GraphWellFormednessPass::run(const VerifyContext &ctx,
                             VerifyResult &result) const
{
    const Plan &plan = *ctx.plan;
    const std::string pass = name();

    for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
        const PlanNode &node = plan.nodes[i];
        if (node.id != i) {
            result.addNodeDiag(Severity::Error, pass, i,
                               "node id " + std::to_string(node.id) +
                                   " does not match its position");
        }
        std::vector<std::size_t> sorted_deps = node.deps;
        std::sort(sorted_deps.begin(), sorted_deps.end());
        if (std::adjacent_find(sorted_deps.begin(),
                               sorted_deps.end()) != sorted_deps.end()) {
            result.addNodeDiag(Severity::Warning, pass, i,
                               "duplicate dependency edges");
        }
        for (std::size_t dep : node.deps) {
            if (dep >= plan.nodes.size()) {
                result.addNodeDiag(Severity::Error, pass, i,
                                   "dangling dependency on unknown "
                                   "node " +
                                       std::to_string(dep));
            } else if (dep >= i) {
                result.addNodeDiag(
                    Severity::Error, pass, i,
                    "dependency on node " + std::to_string(dep) +
                        " violates topological order (cycle or "
                        "forward edge)");
            }
        }
    }

    // Reachability from the plan output (the last node): unreachable
    // nodes are legal but indicate a broken lowering. Only meaningful
    // when the edge structure itself is intact.
    if (!plan.nodes.empty() && result.ok()) {
        std::vector<bool> reached(plan.nodes.size(), false);
        reached.back() = true;
        for (std::size_t i = plan.nodes.size(); i-- > 0;) {
            if (!reached[i])
                continue;
            for (std::size_t dep : plan.nodes[i].deps)
                reached[dep] = true;
        }
        for (std::size_t i = 0; i < plan.nodes.size(); ++i) {
            if (!reached[i]) {
                result.addNodeDiag(Severity::Warning, pass, i,
                                   nodeLabel(plan.nodes[i]) +
                                       " is unreachable from the plan "
                                       "output");
            }
        }
    }
}

void
ShapeDtypeFlowPass::run(const VerifyContext &ctx,
                        VerifyResult &result) const
{
    const Plan &plan = *ctx.plan;
    const std::string pass = name();

    // LUT shape self-consistency against the plan's LUT-NN params.
    if (plan.mode == ExecutionMode::PimDl) {
        for (const PlanNode &node : plan.nodes) {
            if (node.kind != PlanOpKind::Ccs &&
                node.kind != PlanOpKind::LutOp)
                continue;
            const LutWorkloadShape &shape = node.lut_shape;
            if (shape.n != node.n || shape.f != node.f) {
                result.addNodeDiag(Severity::Error, pass, node.id,
                                   "LUT shape (n, f) disagrees with "
                                   "the node's workload dims");
            }
            if (plan.params.subvec_len == 0 ||
                node.h % plan.params.subvec_len != 0 ||
                shape.cb != node.h / plan.params.subvec_len) {
                result.addNodeDiag(
                    Severity::Error, pass, node.id,
                    "codebook count is inconsistent with the "
                    "sub-vector length (expected h / subvec_len)");
            }
            if (shape.ct != plan.params.centroids) {
                result.addNodeDiag(Severity::Error, pass, node.id,
                                   "centroid count " +
                                       std::to_string(shape.ct) +
                                       " disagrees with the plan's " +
                                       std::to_string(
                                           plan.params.centroids));
            }
        }

        // Producer/consumer agreement across each CCS -> LUT edge.
        for (const PlanNode &node : plan.nodes) {
            if (node.kind != PlanOpKind::LutOp)
                continue;
            const PlanNode *ccs = nullptr;
            walkDeps(plan, node, [&](const PlanNode &cand) {
                if (cand.kind == PlanOpKind::Ccs &&
                    cand.layer == node.layer &&
                    cand.has_role == node.has_role &&
                    (!cand.has_role || cand.role == node.role)) {
                    ccs = &cand;
                    return true;
                }
                return false;
            });
            if (ccs != nullptr && !(ccs->lut_shape == node.lut_shape)) {
                result.addNodeDiag(Severity::Error, pass, node.id,
                                   "LUT shape disagrees with CCS "
                                   "producer node " +
                                       std::to_string(ccs->id));
            }
        }
    }

    // Transfer payloads: finite, positive, and matching the shapes
    // that feed them.
    for (const PlanNode &node : plan.nodes) {
        if (node.kind != PlanOpKind::HostPimTransfer)
            continue;
        if (!std::isfinite(node.transfer_bytes) ||
            node.transfer_bytes < 0.0) {
            result.addNodeDiag(Severity::Error, pass, node.id,
                               "transfer payload is negative or "
                               "non-finite");
            continue;
        }
        if (node.transfer_bytes == 0.0) {
            result.addNodeDiag(Severity::Warning, pass, node.id,
                               "transfer node moves zero bytes");
        }
        for (std::size_t dep : node.deps) {
            if (!depOk(plan, node, dep))
                continue;
            const PlanNode &producer = plan.nodes[dep];
            if (node.direction == TransferDirection::HostToPim &&
                producer.kind == PlanOpKind::Ccs &&
                node.transfer_bytes <
                    producer.lut_shape.indexBytes() * (1.0 - 1e-6)) {
                result.addNodeDiag(Severity::Error, pass, node.id,
                                   "index upload moves fewer bytes "
                                   "than the producer's index matrix");
            }
            if (node.direction == TransferDirection::PimToHost &&
                producer.kind == PlanOpKind::LutOp) {
                const LutWorkloadShape &shape = producer.lut_shape;
                const double want = static_cast<double>(shape.n) *
                                    static_cast<double>(shape.f) *
                                    shape.output_dtype_bytes;
                if (!nearlyEq(node.transfer_bytes, want)) {
                    result.addNodeDiag(
                        Severity::Error, pass, node.id,
                        "output transfer payload is inconsistent "
                        "with the producing LUT operator's shape");
                }
            }
        }
    }

    // Dtype uniformity per host-costed kind group: dense linears may
    // legitimately run in a different precision (PimGemm offloads
    // INT8 GEMMs while attention stays FP32), so Gemm nodes form one
    // group and Attention/Elementwise nodes another.
    const PlanNode *gemm_ref = nullptr;
    const PlanNode *host_ref = nullptr;
    for (const PlanNode &node : plan.nodes) {
        if (node.kind == PlanOpKind::Gemm) {
            if (gemm_ref == nullptr) {
                gemm_ref = &node;
            } else if (node.dtype != gemm_ref->dtype) {
                result.addNodeDiag(
                    Severity::Error, pass, node.id,
                    "dtype differs from the plan's dense-linear "
                    "dtype established by node " +
                        std::to_string(gemm_ref->id));
            }
        } else if (node.kind == PlanOpKind::Attention ||
                   node.kind == PlanOpKind::Elementwise) {
            if (host_ref == nullptr) {
                host_ref = &node;
            } else if (node.dtype != host_ref->dtype) {
                result.addNodeDiag(
                    Severity::Error, pass, node.id,
                    "dtype differs from the plan's host compute "
                    "dtype established by node " +
                        std::to_string(host_ref->id));
            }
        }
        if (node.kind == PlanOpKind::Elementwise) {
            if (node.ew_kind == ElementwiseOpKind::None) {
                result.addNodeDiag(Severity::Warning, pass, node.id,
                                   "elementwise node carries no "
                                   "semantic tag");
            }
            if (node.ew_ops <= 0.0 || node.ew_bytes <= 0.0) {
                result.addNodeDiag(Severity::Warning, pass, node.id,
                                   "elementwise node has an empty "
                                   "ops/bytes profile");
            }
        }
    }
}

void
DevicePlacementPass::run(const VerifyContext &ctx,
                         VerifyResult &result) const
{
    const Plan &plan = *ctx.plan;
    const PimPlatformConfig *platform = ctx.platform;
    const std::string pass = name();

    bool any_pim = false;
    for (const PlanNode &node : plan.nodes) {
        switch (node.kind) {
        case PlanOpKind::Ccs:
            if (node.device != PlanDevice::Host) {
                result.addNodeDiag(Severity::Error, pass, node.id,
                                   "closest-centroid search must run "
                                   "on the host");
            }
            break;
        case PlanOpKind::LutOp:
            if (node.device != PlanDevice::Pim) {
                result.addNodeDiag(
                    Severity::Error, pass, node.id,
                    "LUT reduce is a PIM operator; placed on " +
                        std::string(planDeviceName(node.device)));
            }
            break;
        case PlanOpKind::HostPimTransfer:
            if (node.device != PlanDevice::Link) {
                result.addNodeDiag(Severity::Error, pass, node.id,
                                   "transfer nodes must sit on the "
                                   "host<->PIM link");
            }
            break;
        case PlanOpKind::Gemm:
            if (node.device == PlanDevice::Pim &&
                plan.mode != ExecutionMode::PimGemm) {
                result.addNodeDiag(Severity::Error, pass, node.id,
                                   "dense GEMM offload is only legal "
                                   "in PimGemm mode");
            }
            [[fallthrough]];
        case PlanOpKind::Attention:
        case PlanOpKind::Elementwise:
            if (node.device == PlanDevice::Link) {
                result.addNodeDiag(Severity::Error, pass, node.id,
                                   "compute node placed on the link");
            }
            break;
        }

        if (node.device != PlanDevice::Host)
            any_pim = true;

        if (plan.mode == ExecutionMode::HostOnly &&
            node.device != PlanDevice::Host) {
            result.addNodeDiag(Severity::Error, pass, node.id,
                               "host-only plan contains a " +
                                   std::string(
                                       planDeviceName(node.device)) +
                                   " node");
        }

        if (node.kind == PlanOpKind::Elementwise &&
            node.device == PlanDevice::Pim && platform != nullptr &&
            !platform->supports_elementwise) {
            result.addNodeDiag(Severity::Error, pass, node.id,
                               "platform " + platform->name +
                                   " does not implement elementwise "
                                   "operators on the PIM");
        }
    }

    if (any_pim && platform != nullptr && platform->num_pes == 0) {
        result.addPlanDiag(Severity::Error, pass,
                           "plan targets a PIM with zero processing "
                           "engines");
    }

    // Every Host<->Pim dependency edge must be bridged by a Link
    // transfer node. Elementwise endpoints are exempt: their offload
    // traffic is folded into the op's bandwidth cost (Figure 6-(b))
    // rather than modeled as explicit transfer nodes.
    for (const PlanNode &node : plan.nodes) {
        for (std::size_t dep : node.deps) {
            if (!depOk(plan, node, dep))
                continue;
            const PlanNode &producer = plan.nodes[dep];
            const bool crosses =
                (producer.device == PlanDevice::Host &&
                 node.device == PlanDevice::Pim) ||
                (producer.device == PlanDevice::Pim &&
                 node.device == PlanDevice::Host);
            const bool exempt =
                producer.kind == PlanOpKind::Elementwise ||
                node.kind == PlanOpKind::Elementwise;
            if (crosses && !exempt) {
                result.addNodeDiag(
                    Severity::Error, pass, node.id,
                    "host<->PIM edge from node " +
                        std::to_string(dep) +
                        " is not bridged by a Link transfer node");
            }
        }
    }
}

void
CapacityPass::run(const VerifyContext &ctx, VerifyResult &result) const
{
    const Plan &plan = *ctx.plan;
    const std::string pass = name();

    if (plan.count(PlanOpKind::LutOp) == 0)
        return;
    if (ctx.platform == nullptr) {
        result.addPlanDiag(Severity::Note, pass,
                           "capacity checks skipped: no platform in "
                           "the verify context");
        return;
    }
    const PimPlatformConfig &platform = *ctx.platform;

    for (const PlanNode &node : plan.nodes) {
        if (node.kind != PlanOpKind::LutOp)
            continue;
        if (!node.mapping_attached) {
            result.addNodeDiag(Severity::Note, pass, node.id,
                               "LUT operator carries no mapping "
                               "(structural plan)");
            continue;
        }
        // mappingIsLegal covers the on-chip (WRAM) buffer and the
        // per-PE resident working set in local memory (MRAM/bank).
        std::string reason;
        if (!mappingIsLegal(platform, node.lut_shape, node.mapping,
                            &reason)) {
            result.addNodeDiag(Severity::Error, pass, node.id,
                               "illegal mapping: " + reason);
        }
    }
}

void
ScheduleHazardPass::run(const VerifyContext &ctx,
                        VerifyResult &result) const
{
    const Plan &plan = *ctx.plan;
    const std::string pass = name();

    for (const PlanNode &node : plan.nodes) {
        if (node.kind == PlanOpKind::LutOp) {
            // A pipelined/overlap schedule orders work by
            // dependencies alone; a LUT reduce with no path to its
            // own CCS could start before its index matrix exists.
            const bool has_producer =
                walkDeps(plan, node, [&](const PlanNode &cand) {
                    return cand.kind == PlanOpKind::Ccs &&
                           cand.layer == node.layer &&
                           cand.has_role == node.has_role &&
                           (!cand.has_role || cand.role == node.role);
                });
            if (!has_producer) {
                result.addNodeDiag(
                    Severity::Error, pass, node.id,
                    "LUT reduce has no dependency path to its CCS "
                    "producer; a pipelined schedule could start it "
                    "before its index matrix exists");
            }
            const bool has_upload = std::any_of(
                node.deps.begin(), node.deps.end(),
                [&](std::size_t dep) {
                    return depOk(plan, node, dep) &&
                           plan.nodes[dep].kind ==
                               PlanOpKind::HostPimTransfer &&
                           plan.nodes[dep].direction ==
                               TransferDirection::HostToPim;
                });
            if (!has_upload) {
                result.addNodeDiag(Severity::Warning, pass, node.id,
                                   "LUT reduce is not directly fed by "
                                   "an index upload transfer");
            }
        }

        if (node.kind == PlanOpKind::HostPimTransfer &&
            node.direction == TransferDirection::PimToHost) {
            const bool has_pim_producer =
                walkDeps(plan, node, [&](const PlanNode &cand) {
                    return cand.device == PlanDevice::Pim;
                });
            if (!has_pim_producer) {
                result.addNodeDiag(
                    Severity::Error, pass, node.id,
                    "PIM->host transfer has no PIM-side producer to "
                    "gather results from");
            }
        }
    }
}

} // namespace verify
} // namespace pimdl
