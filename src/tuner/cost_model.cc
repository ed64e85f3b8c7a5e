#include "cost_model.h"

#include <algorithm>

namespace pimdl {

namespace {

/** Returns the loop nest (outermost first) for a traversal order. */
std::array<LoopDim, 3>
loopNest(TraversalOrder order)
{
    switch (order) {
    case TraversalOrder::NFC:
        return {LoopDim::N, LoopDim::F, LoopDim::C};
    case TraversalOrder::NCF:
        return {LoopDim::N, LoopDim::C, LoopDim::F};
    case TraversalOrder::FNC:
        return {LoopDim::F, LoopDim::N, LoopDim::C};
    case TraversalOrder::FCN:
        return {LoopDim::F, LoopDim::C, LoopDim::N};
    case TraversalOrder::CNF:
        return {LoopDim::C, LoopDim::N, LoopDim::F};
    case TraversalOrder::CFN:
        return {LoopDim::C, LoopDim::F, LoopDim::N};
    }
    return {LoopDim::N, LoopDim::F, LoopDim::C};
}

/**
 * Closed-form reload count of a tile that depends on the dims flagged
 * in @p depends (indexed by LoopDim): total iterations divided by the
 * trip counts of the maximal innermost run of loops the tile does NOT
 * depend on (those iterations reuse the buffered tile).
 */
double
reloadCount(const LutTileTraffic &traffic, std::array<bool, 3> depends)
{
    double reuse = 1.0;
    for (int i = 2; i >= 0; --i) {
        const LoopDim dim = traffic.nest[static_cast<std::size_t>(i)];
        if (depends[static_cast<std::size_t>(dim)])
            break;
        reuse *= traffic.trip(dim);
    }
    return traffic.iterations() / reuse;
}

bool
divides(std::size_t a, std::size_t b)
{
    return a != 0 && b % a == 0;
}

/**
 * Sizes the tiles of @p t: the bytes of every traffic stream plus the
 * buffer and resident bytes the capacity checks read. Multiplies only,
 * so the tuner's capacity-rejected candidates stay cheap.
 */
void
sizeTiles(const PimPlatformConfig &platform, const LutWorkloadShape &shape,
          const LutMapping &mapping, LutTileTraffic &t)
{
    const double lut_dtype = platform.lut_dtype_bytes;

    // Sub-LUT partition tiles (Eq. 3-4), one of each per PE.
    t.broadcast.bytes = static_cast<double>(mapping.ns_tile) * shape.cb *
                        shape.index_dtype_bytes;
    t.scatter.bytes = static_cast<double>(shape.cb) * shape.ct *
                      mapping.fs_tile * lut_dtype;
    t.gather.bytes = static_cast<double>(mapping.ns_tile) *
                     mapping.fs_tile * shape.output_dtype_bytes;
    t.resident_bytes =
        t.scatter.bytes + t.broadcast.bytes + t.gather.bytes;

    // Micro-kernel tiles (Eq. 6-10). Output accumulates in 32-bit on
    // the PE regardless of LUT dtype.
    t.ld_index.bytes = static_cast<double>(mapping.nm_tile) *
                       mapping.cbm_tile * shape.index_dtype_bytes;
    t.ld_output.bytes =
        static_cast<double>(mapping.nm_tile) * mapping.fm_tile * 4.0;
    double lut_buffer = 0.0;
    switch (mapping.scheme) {
    case LutLoadScheme::Static:
        // The whole per-PE LUT tile stays on-chip.
        t.ld_lut.bytes = t.scatter.bytes;
        lut_buffer = t.ld_lut.bytes;
        break;
    case LutLoadScheme::CoarseGrain:
        // One (cb_load x CT x f_load) block at a time.
        t.ld_lut.bytes = static_cast<double>(mapping.cb_load_tile) *
                         shape.ct * mapping.f_load_tile * lut_dtype;
        lut_buffer = t.ld_lut.bytes;
        break;
    case LutLoadScheme::FineGrain:
        // One f_load span of a LUT row per parallel request slot.
        t.ld_lut.bytes =
            static_cast<double>(mapping.f_load_tile) * lut_dtype;
        lut_buffer = static_cast<double>(platform.pe_parallel_slots) *
                     t.ld_lut.bytes;
        break;
    }
    t.buffer_bytes = t.ld_index.bytes + t.ld_output.bytes + lut_buffer;
}

/**
 * Fills the loop nest, the transfer counts and bandwidths and the
 * reduce time of @p t, whose tiles sizeTiles() has sized.
 */
void
priceTraffic(const PimPlatformConfig &platform,
             const LutWorkloadShape &shape, const LutMapping &mapping,
             LutTileTraffic &t)
{
    t.nest = loopNest(mapping.order);
    t.trips = {static_cast<double>(mapping.ns_tile) / mapping.nm_tile,
               static_cast<double>(mapping.fs_tile) / mapping.fm_tile,
               static_cast<double>(shape.cb) / mapping.cbm_tile};
    const BandwidthCurve &stream = platform.pe_stream;

    // Sub-LUT partition (Eq. 3-4): index tiles are broadcast to every
    // PE of a group (one payload shared by its lanes); LUT tiles are a
    // distinct payload per lane, replicated across groups (the scatter
    // pattern); outputs are gathered. Platforms with bank-resident LUTs
    // (HBM-PIM/AiM) only ship indices and outputs per inference;
    // UPMEM's offload flow re-stages LUT tiles (Eq. 3). PE count in
    // doubles, so zero tile factors cannot trap.
    const double groups = static_cast<double>(shape.n) / mapping.ns_tile;
    const double lanes = static_cast<double>(shape.f) / mapping.fs_tile;
    const double pes = groups * lanes;
    t.broadcast.count = pes;
    t.broadcast.bw = platform.host_broadcast.at(t.broadcast.bytes);
    t.scatter.count = platform.lut_resident ? 0.0 : pes;
    t.scatter.bw = platform.host_scatter.at(t.scatter.bytes);
    t.gather.count = pes;
    t.gather.bw = platform.host_gather.at(t.gather.bytes);

    // Micro-kernel (Eq. 6-10): the index MTile depends on (N, C), the
    // output MTile on (N, F); every output eviction stores partials.
    t.ld_index.count = reloadCount(t, {true, false, true});
    t.ld_index.bw = stream.at(t.ld_index.bytes);
    t.ld_output.count = reloadCount(t, {true, true, false});
    t.ld_output.bw = stream.at(t.ld_output.bytes);

    // LUT traffic per load scheme (Figure 9).
    const double f_chunks =
        static_cast<double>(mapping.fm_tile) / mapping.f_load_tile;
    switch (mapping.scheme) {
    case LutLoadScheme::Static:
        // One bulk DMA of the whole per-PE LUT tile at kernel start,
        // streamed in buffer-sized chunks: effectively peak bandwidth.
        t.lut_chunks_per_visit = 1.0;
        t.ld_lut.count = 1.0;
        t.ld_lut.bw = stream.peak;
        break;
    case LutLoadScheme::CoarseGrain: {
        // A block is buffered until its codebooks have been reduced;
        // the buffered region depends on (C, F).
        const double cb_chunks =
            static_cast<double>(mapping.cbm_tile) / mapping.cb_load_tile;
        const double region_loads = reloadCount(t, {false, true, true});
        t.lut_chunks_per_visit = cb_chunks * f_chunks;
        t.ld_lut.count = region_loads * t.lut_chunks_per_visit;
        t.ld_lut.bw = stream.at(t.ld_lut.bytes);
        break;
    }
    case LutLoadScheme::FineGrain: {
        // Per index processed, fetch the fm_tile span of the selected
        // LUT row in f_load_tile chunks; hardware threads overlap the
        // requests.
        const double slots =
            static_cast<double>(platform.pe_parallel_slots);
        const double index_visits =
            static_cast<double>(mapping.nm_tile) * mapping.cbm_tile;
        t.lut_chunks_per_visit = index_visits * f_chunks;
        t.ld_lut.count = t.iterations() * t.lut_chunks_per_visit;
        t.ld_lut.bw =
            std::min(stream.peak, stream.at(t.ld_lut.bytes) * slots);
        break;
    }
    }

    // Reduce latency (Eq. 10): one accumulate per (row, codebook, f)
    // triple plus index decode/address generation per (row, codebook)
    // visit of each F tile.
    const double adds = static_cast<double>(mapping.ns_tile) *
                        mapping.fs_tile * shape.cb;
    const double lookups = static_cast<double>(mapping.ns_tile) *
                           shape.cb * t.trip(LoopDim::F);
    t.reduce_s = adds / platform.pe_add_ops_per_s +
                 lookups / platform.pe_lookup_ops_per_s;
}

/**
 * The rule @p mapping breaks, or nullptr when it is legal; sizes the
 * tiles of @p traffic once they divide, since capacity is checked on
 * them.
 */
const char *
legalityViolation(const PimPlatformConfig &platform,
                  const LutWorkloadShape &shape, const LutMapping &mapping,
                  LutTileTraffic *traffic)
{
    if (!divides(mapping.ns_tile, shape.n))
        return "ns_tile must divide N";
    if (!divides(mapping.fs_tile, shape.f))
        return "fs_tile must divide F";
    if (mapping.totalPes(shape) > platform.num_pes)
        return "mapping needs more PEs than the platform has";
    if (!divides(mapping.nm_tile, mapping.ns_tile))
        return "nm_tile must divide ns_tile";
    if (!divides(mapping.fm_tile, mapping.fs_tile))
        return "fm_tile must divide fs_tile";
    if (!divides(mapping.cbm_tile, shape.cb))
        return "cbm_tile must divide CB";

    switch (mapping.scheme) {
    case LutLoadScheme::Static:
        break;
    case LutLoadScheme::CoarseGrain:
        if (!divides(mapping.cb_load_tile, mapping.cbm_tile))
            return "cb_load_tile must divide cbm_tile";
        if (!divides(mapping.f_load_tile, mapping.fm_tile))
            return "f_load_tile must divide fm_tile";
        break;
    case LutLoadScheme::FineGrain:
        if (!divides(mapping.f_load_tile, mapping.fm_tile))
            return "f_load_tile must divide fm_tile";
        break;
    }

    sizeTiles(platform, shape, mapping, *traffic);
    if (traffic->buffer_bytes >
        static_cast<double>(platform.pe_buffer_bytes))
        return "tiles exceed the PE on-chip buffer";
    // Bank residency: the per-PE sub-LUT tile plus the index and
    // output slices it streams through must fit in the PE's local
    // memory (UPMEM MRAM / HBM-PIM and AiM bank region), regardless
    // of the on-chip load scheme. Binds on HBM-PIM, where fp16 LUT
    // entries make wide fs_tile slices outgrow the 16 MB bank.
    if (traffic->resident_bytes >
        static_cast<double>(platform.pe_local_mem_bytes))
        return "resident working set exceeds the PE local memory";
    return nullptr;
}

} // namespace

LutTileTraffic
lutTileTraffic(const PimPlatformConfig &platform,
               const LutWorkloadShape &shape, const LutMapping &mapping)
{
    LutTileTraffic t;
    sizeTiles(platform, shape, mapping, t);
    priceTraffic(platform, shape, mapping, t);
    return t;
}

double
mappingBufferBytes(const PimPlatformConfig &platform,
                   const LutWorkloadShape &shape,
                   const LutMapping &mapping)
{
    LutTileTraffic traffic;
    sizeTiles(platform, shape, mapping, traffic);
    return traffic.buffer_bytes;
}

bool
mappingIsLegal(const PimPlatformConfig &platform,
               const LutWorkloadShape &shape, const LutMapping &mapping,
               std::string *reason)
{
    LutTileTraffic traffic;
    const char *why =
        legalityViolation(platform, shape, mapping, &traffic);
    if (why && reason)
        *reason = why;
    return why == nullptr;
}

LutCostBreakdown
evaluateLutMapping(const PimPlatformConfig &platform,
                   const LutWorkloadShape &shape,
                   const LutMapping &mapping)
{
    LutCostBreakdown cost;
    LutTileTraffic t;
    const char *why = legalityViolation(platform, shape, mapping, &t);
    if (why) {
        cost.illegal_reason = why;
        return cost;
    }
    priceTraffic(platform, shape, mapping, t);
    cost.legal = true;

    // Sub-LUT partition (Eq. 3-4).
    cost.t_sub_index = t.broadcast.seconds();
    cost.t_sub_lut = t.scatter.seconds();
    cost.t_sub_output = t.gather.seconds();

    // Unique payloads actually crossing the link (for energy): one index
    // matrix, one output matrix, plus the LUT when it is re-staged.
    cost.link_bytes = static_cast<double>(shape.n) * shape.cb *
                          shape.index_dtype_bytes +
                      static_cast<double>(shape.n) * shape.f *
                          shape.output_dtype_bytes;
    if (!platform.lut_resident) {
        cost.link_bytes += static_cast<double>(shape.cb) * shape.ct *
                           shape.f * platform.lut_dtype_bytes;
    }

    // Micro-kernel (Eq. 6-10).
    cost.t_ld_index = t.ld_index.seconds();
    cost.t_ld_lut = t.ld_lut.seconds();
    cost.t_ld_output = t.ld_output.seconds();
    cost.t_st_output = t.ld_output.seconds();
    cost.t_reduce = t.reduce_s;
    cost.pe_stream_bytes = t.ld_index.totalBytes() +
                           2.0 * t.ld_output.totalBytes() +
                           t.ld_lut.totalBytes();

    cost.kernel_launch = platform.kernel_launch_overhead_s;
    return cost;
}

} // namespace pimdl
