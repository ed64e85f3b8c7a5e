/**
 * @file
 * Analytical performance model of LUT-NN execution on DRAM-PIMs,
 * implementing the paper's Equations (3)-(10): sub-LUT partition cost
 * (host<->PIM transfers) plus micro-kernel cost (PE-local transfers and
 * reduce latency) under a given mapping.
 */

#ifndef PIMDL_TUNER_COST_MODEL_H
#define PIMDL_TUNER_COST_MODEL_H

#include <array>
#include <string>

#include "pim/platform.h"
#include "tuner/mapping.h"

namespace pimdl {

/** Loop dimensions of the micro-kernel tile nest. */
enum class LoopDim
{
    N,
    F,
    C,
};

/**
 * One stream of equal-sized transfers: @c count transfers of @c bytes
 * each, moved at bandwidth @c bw (bytes/s).
 */
struct LutTransfer
{
    double count = 0.0;
    double bytes = 0.0;
    double bw = 0.0;

    double totalBytes() const { return count * bytes; }

    double seconds() const
    {
        return count > 0.0 ? count * bytes / bw : 0.0;
    }
};

/**
 * Per-tile traffic of one LUT operator under one mapping: the quantities
 * the paper's Eq. 3-10 price. The closed form (evaluateLutMapping), the
 * transaction backend's command streams and the tile-walk simulator all
 * read them from here. Counts are per PE (PEs run in lock-step on
 * identical tiles) except the host-link streams, which count one
 * transfer per PE.
 */
struct LutTileTraffic
{
    /** Micro-kernel loop nest for the traversal order, outermost first. */
    std::array<LoopDim, 3> nest{};
    /** Trip count of each loop, indexed by LoopDim. */
    std::array<double, 3> trips{};

    /** On-chip buffer bytes per PE (index/output micro-tiles + LUT). */
    double buffer_bytes = 0.0;
    /** Bank-resident bytes per PE: sub-LUT tile plus index and output
     * slices. */
    double resident_bytes = 0.0;

    // Sub-LUT partition (Eq. 3-4), one transfer per PE over the host
    // link. scatter.count is zero when LUTs stay bank-resident.
    LutTransfer broadcast; ///< index tile, shared by a PE group
    LutTransfer scatter;   ///< sub-LUT tile, distinct per lane
    LutTransfer gather;    ///< output tile

    // Micro-kernel (Eq. 6-10), PE-local streams.
    LutTransfer ld_index;
    LutTransfer ld_lut;
    /** Output micro-tile loads; each is matched by one partials store. */
    LutTransfer ld_output;
    /**
     * LUT chunks fetched per visit of the walk: per (C, F) region load
     * for the coarse scheme, per iteration for the fine scheme, one bulk
     * tile for the static scheme.
     */
    double lut_chunks_per_visit = 0.0;
    /** Reduce latency (Eq. 10): accumulates plus index decode, seconds. */
    double reduce_s = 0.0;

    double trip(LoopDim dim) const
    {
        return trips[static_cast<std::size_t>(dim)];
    }

    /** Micro-kernel iterations (one reduce slice each). */
    double iterations() const
    {
        return trip(LoopDim::N) * trip(LoopDim::F) * trip(LoopDim::C);
    }
};

/**
 * Tile traffic of @p mapping of @p shape on @p platform. Capacity is
 * not checked here; the result is only meaningful for mappings whose
 * tiles pass the divisibility checks of mappingIsLegal.
 */
LutTileTraffic lutTileTraffic(const PimPlatformConfig &platform,
                              const LutWorkloadShape &shape,
                              const LutMapping &mapping);

/** Full latency/traffic breakdown of one LUT operator execution. */
struct LutCostBreakdown
{
    bool legal = false;
    std::string illegal_reason;

    // Sub-LUT partition stage (Eq. 3-4), seconds.
    double t_sub_index = 0.0;
    double t_sub_lut = 0.0;
    double t_sub_output = 0.0;

    // Micro-kernel stage (Eq. 6-10), seconds (per PE; PEs run in
    // lock-step on identical tile shapes, so this is also wall time).
    double t_ld_index = 0.0;
    double t_ld_lut = 0.0;
    double t_ld_output = 0.0;
    double t_st_output = 0.0;
    double t_reduce = 0.0;

    double kernel_launch = 0.0;

    /**
     * Timing not captured by the closed-form components above. The
     * analytical model always leaves this zero; command-level timing
     * models (src/backend's TransactionBackend) park simulated effects
     * the equations do not express here — DRAM refresh stalls, host/PIM
     * arbitration windows, mode switches, per-command issue overhead —
     * so total() reports the simulated makespan either way.
     */
    double overhead_s = 0.0;

    /** Host<->PIM bytes actually moved (no broadcast duplicates). */
    double link_bytes = 0.0;
    /** Per-PE local-memory bytes streamed. */
    double pe_stream_bytes = 0.0;

    double subLutTotal() const
    {
        return t_sub_index + t_sub_lut + t_sub_output;
    }

    double microKernelTotal() const
    {
        return t_ld_index + t_ld_lut + t_ld_output + t_st_output +
               t_reduce;
    }

    double total() const
    {
        return subLutTotal() + microKernelTotal() + kernel_launch +
               overhead_s;
    }
};

/**
 * Timing-model hook for LUT-operator latency. The tuner's search loop
 * evaluates candidate mappings through this interface when one is
 * injected (AutoTuner::setTimingModel), which is how the pluggable
 * timing backends (src/backend) reach the tuner without creating a
 * tuner->backend dependency cycle: the interface lives here, the
 * implementations live above the tuner.
 */
class LutTimingModel
{
  public:
    virtual ~LutTimingModel() = default;

    /** Latency/traffic breakdown of one mapping of one workload. */
    virtual LutCostBreakdown lutCost(const LutWorkloadShape &shape,
                                     const LutMapping &mapping) const = 0;
};

/**
 * Evaluates the analytical model for @p mapping of @p shape on
 * @p platform. Returns an illegal breakdown (legal == false, with a
 * reason) when the mapping violates divisibility, PE-count, or
 * capacity constraints.
 */
LutCostBreakdown evaluateLutMapping(const PimPlatformConfig &platform,
                                    const LutWorkloadShape &shape,
                                    const LutMapping &mapping);

/**
 * Checks only the constraints of @p mapping (divisibility, Eq. 5 PE
 * count, on-chip buffer and bank residency capacity); cheaper than a
 * full evaluation.
 */
bool mappingIsLegal(const PimPlatformConfig &platform,
                    const LutWorkloadShape &shape,
                    const LutMapping &mapping,
                    std::string *reason = nullptr);

/** On-chip buffer bytes the mapping requires on each PE. */
double mappingBufferBytes(const PimPlatformConfig &platform,
                          const LutWorkloadShape &shape,
                          const LutMapping &mapping);

} // namespace pimdl

#endif // PIMDL_TUNER_COST_MODEL_H
