#include "plan/plan.h"

#include "common/logging.h"

namespace pimdl {

const char *
executionModeName(ExecutionMode mode)
{
    switch (mode) {
    case ExecutionMode::PimDl:
        return "PIM-DL";
    case ExecutionMode::PimGemm:
        return "PIM-GEMM";
    case ExecutionMode::HostOnly:
        return "Host";
    }
    return "?";
}

const char *
planDeviceName(PlanDevice device)
{
    switch (device) {
    case PlanDevice::Host:
        return "host";
    case PlanDevice::Pim:
        return "pim";
    case PlanDevice::Link:
        return "link";
    }
    return "?";
}

const char *
planOpKindName(PlanOpKind kind)
{
    switch (kind) {
    case PlanOpKind::Ccs:
        return "ccs";
    case PlanOpKind::LutOp:
        return "lut";
    case PlanOpKind::Gemm:
        return "gemm";
    case PlanOpKind::Attention:
        return "attention";
    case PlanOpKind::Elementwise:
        return "elementwise";
    case PlanOpKind::HostPimTransfer:
        return "transfer";
    }
    return "?";
}

std::size_t
Plan::count(PlanOpKind kind) const
{
    std::size_t total = 0;
    for (const PlanNode &node : nodes)
        if (node.kind == kind)
            ++total;
    return total;
}

bool
Plan::topologicallySorted() const
{
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        if (nodes[i].id != i)
            return false;
        for (std::size_t dep : nodes[i].deps)
            if (dep >= i)
                return false;
    }
    return true;
}

void
Plan::validate() const
{
    PIMDL_REQUIRE(topologicallySorted(),
                  "plan nodes are not in a topological order");
    for (const PlanNode &node : nodes) {
        if (mode != ExecutionMode::PimDl) {
            PIMDL_REQUIRE(node.kind != PlanOpKind::Ccs &&
                              node.kind != PlanOpKind::LutOp,
                          "LUT-NN nodes are only legal in PIM-DL plans");
        }
        if (node.kind == PlanOpKind::HostPimTransfer) {
            PIMDL_REQUIRE(node.device == PlanDevice::Link,
                          "transfer nodes must live on the link device");
        }
    }
}

} // namespace pimdl
