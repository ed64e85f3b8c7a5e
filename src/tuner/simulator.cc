#include "simulator.h"

#include <algorithm>
#include <array>
#include <cmath>

namespace pimdl {

SimulatedLutCost
simulateLutMapping(const PimPlatformConfig &platform,
                   const LutWorkloadShape &shape,
                   const LutMapping &mapping,
                   const SimulatorOptions &options)
{
    SimulatedLutCost sim;
    if (!mappingIsLegal(platform, shape, mapping))
        return sim;
    sim.legal = true;

    // The walk order and the DMA chunk sizes are the closed form's; only
    // the reload decisions and the per-event costs are the walk's own.
    const LutTileTraffic traffic =
        lutTileTraffic(platform, shape, mapping);
    const auto axis = [](LoopDim dim) {
        return static_cast<std::size_t>(dim);
    };
    std::array<std::size_t, 3> trips{};
    for (std::size_t d = 0; d < trips.size(); ++d)
        trips[d] = static_cast<std::size_t>(traffic.trips[d]);
    const std::size_t outer = axis(traffic.nest[0]);
    const std::size_t middle = axis(traffic.nest[1]);
    const std::size_t inner = axis(traffic.nest[2]);
    const auto lut_chunks =
        static_cast<std::size_t>(traffic.lut_chunks_per_visit);
    const double slots = static_cast<double>(platform.pe_parallel_slots);

    auto dma = [&](double bytes) {
        sim.micro_kernel_s += options.dma_setup_s +
                              bytes / platform.pe_stream.at(bytes);
        sim.pe_stream_bytes += bytes;
        sim.dma_count += 1;
    };

    double reduce_s = 0.0;

    // Static scheme: one bulk LUT fetch before the nest.
    if (mapping.scheme == LutLoadScheme::Static) {
        const double bytes = traffic.ld_lut.bytes;
        // Bulk DMA streamed in 2 KiB chunks (UPMEM DMA max burst).
        const double chunk = 2048.0;
        const std::size_t chunks =
            static_cast<std::size_t>(std::ceil(bytes / chunk));
        for (std::size_t i = 0; i < chunks; ++i)
            dma(std::min(chunk, bytes - static_cast<double>(i) * chunk));
    }

    // Track previously-loaded tile coordinates for reuse decisions.
    long prev_n = -1, prev_f = -1, prev_c = -1;

    // Tile coordinate per LoopDim, advanced in nest order.
    std::array<std::size_t, 3> at{};
    for (at[outer] = 0; at[outer] < trips[outer]; ++at[outer]) {
        for (at[middle] = 0; at[middle] < trips[middle]; ++at[middle]) {
            for (at[inner] = 0; at[inner] < trips[inner]; ++at[inner]) {
                const long n = static_cast<long>(at[axis(LoopDim::N)]);
                const long f = static_cast<long>(at[axis(LoopDim::F)]);
                const long c = static_cast<long>(at[axis(LoopDim::C)]);

                sim.micro_kernel_s += options.loop_overhead_s;

                // Index MTile load when its (n, c) region changes.
                if (n != prev_n || c != prev_c)
                    dma(traffic.ld_index.bytes);

                // Output MTile: store previous partials and load new ones
                // when the (n, f) region changes.
                if (n != prev_n || f != prev_f) {
                    if (prev_n >= 0)
                        dma(traffic.ld_output.bytes); // store eviction
                    dma(traffic.ld_output.bytes);     // load
                }

                // LUT traffic for this iteration.
                switch (mapping.scheme) {
                case LutLoadScheme::Static:
                    break;
                case LutLoadScheme::CoarseGrain:
                    if (c != prev_c || f != prev_f) {
                        for (std::size_t k = 0; k < lut_chunks; ++k)
                            dma(traffic.ld_lut.bytes);
                    }
                    break;
                case LutLoadScheme::FineGrain:
                    // Hardware threads overlap DMA setup; amortize the
                    // per-transfer cost across the parallel slots.
                    sim.micro_kernel_s +=
                        static_cast<double>(lut_chunks) *
                        (options.dma_setup_s / slots +
                         traffic.ld_lut.bytes / traffic.ld_lut.bw);
                    sim.pe_stream_bytes +=
                        static_cast<double>(lut_chunks) *
                        traffic.ld_lut.bytes;
                    sim.dma_count += lut_chunks;
                    break;
                }

                // Reduce work of this iteration, derated by the per-row
                // pipeline fill the closed-form model abstracts away.
                const double fill_penalty =
                    1.0 + options.pipeline_fill_rows /
                              static_cast<double>(mapping.nm_tile);
                const double adds = static_cast<double>(mapping.nm_tile) *
                                    mapping.fm_tile * mapping.cbm_tile;
                const double lookups =
                    static_cast<double>(mapping.nm_tile) *
                    mapping.cbm_tile;
                reduce_s += (adds / platform.pe_add_ops_per_s +
                             lookups / platform.pe_lookup_ops_per_s) *
                            fill_penalty;

                prev_n = n;
                prev_f = f;
                prev_c = c;
            }
        }
    }
    // Final output eviction.
    dma(traffic.ld_output.bytes);

    sim.micro_kernel_s += reduce_s;

    // Sub-LUT stage: the host-side transfers of the closed form.
    const double sub_lut_s = traffic.broadcast.seconds() +
                             traffic.scatter.seconds() +
                             traffic.gather.seconds();
    sim.total_s =
        sub_lut_s + platform.kernel_launch_overhead_s + sim.micro_kernel_s;
    return sim;
}

} // namespace pimdl
