/** @file Discrete micro-kernel simulator tests. */

#include <gtest/gtest.h>

#include "tuner/autotuner.h"
#include "tuner/simulator.h"

namespace pimdl {
namespace {

LutWorkloadShape
shape()
{
    LutWorkloadShape s;
    s.n = 4096;
    s.cb = 128;
    s.ct = 16;
    s.f = 1024;
    return s;
}

LutMapping
mapping()
{
    LutMapping m;
    m.ns_tile = 256;  // 16 groups
    m.fs_tile = 64;   // 16 lanes -> 256 PEs
    m.nm_tile = 16;
    m.fm_tile = 32;
    m.cbm_tile = 8;
    m.order = TraversalOrder::NFC;
    m.scheme = LutLoadScheme::CoarseGrain;
    m.cb_load_tile = 2;
    m.f_load_tile = 16;
    return m;
}

TEST(Simulator, IllegalMappingRejected)
{
    LutMapping m = mapping();
    m.ns_tile = 3;
    SimulatedLutCost sim = simulateLutMapping(upmemPlatform(), shape(), m);
    EXPECT_FALSE(sim.legal);
}

TEST(Simulator, CloseToAnalyticalModel)
{
    // The simulator is the "measured" reference; the closed-form model
    // should track it within a modest error (paper: avg 3.44%, max
    // 13.73% against real hardware).
    const auto platform = upmemPlatform();
    const SimulatedLutCost sim =
        simulateLutMapping(platform, shape(), mapping());
    const LutCostBreakdown model =
        evaluateLutMapping(platform, shape(), mapping());
    ASSERT_TRUE(sim.legal);
    ASSERT_TRUE(model.legal);
    const double err = std::abs(model.total() - sim.total_s) / sim.total_s;
    EXPECT_LT(err, 0.30);
}

TEST(Simulator, StreamBytesMatchModelForCoarse)
{
    const auto platform = upmemPlatform();
    const SimulatedLutCost sim =
        simulateLutMapping(platform, shape(), mapping());
    const LutCostBreakdown model =
        evaluateLutMapping(platform, shape(), mapping());
    // Same traffic accounting up to boundary effects.
    EXPECT_NEAR(sim.pe_stream_bytes / model.pe_stream_bytes, 1.0, 0.15);
}

TEST(Simulator, DmaSetupCostIncreasesLatency)
{
    const auto platform = upmemPlatform();
    SimulatorOptions cheap;
    cheap.dma_setup_s = 0.0;
    cheap.loop_overhead_s = 0.0;
    SimulatorOptions expensive;
    expensive.dma_setup_s = 5e-6;
    const double t_cheap =
        simulateLutMapping(platform, shape(), mapping(), cheap)
            .micro_kernel_s;
    const double t_exp =
        simulateLutMapping(platform, shape(), mapping(), expensive)
            .micro_kernel_s;
    EXPECT_GT(t_exp, t_cheap);
}

TEST(Simulator, TunedMappingSimulatesFast)
{
    const auto platform = upmemPlatform();
    AutoTuner tuner(platform);
    AutoTuneResult best = tuner.tune(shape());
    ASSERT_TRUE(best.found);
    const SimulatedLutCost best_sim =
        simulateLutMapping(platform, shape(), best.mapping);
    ASSERT_TRUE(best_sim.legal);

    // A deliberately bad mapping must simulate slower than the tuned one
    // (Figure 13's best-vs-worst gap).
    LutMapping bad = best.mapping;
    bad.ns_tile = shape().n;       // single group
    bad.fs_tile = shape().f;       // single lane -> one PE
    bad.nm_tile = 1;
    bad.fm_tile = 1;
    bad.cbm_tile = 1;
    bad.scheme = LutLoadScheme::FineGrain;
    bad.f_load_tile = 1;
    const SimulatedLutCost bad_sim =
        simulateLutMapping(platform, shape(), bad);
    ASSERT_TRUE(bad_sim.legal);
    EXPECT_GT(bad_sim.total_s, 2.0 * best_sim.total_s);
}

TEST(Simulator, StaticSchemeBulkLoadCounted)
{
    LutWorkloadShape s = shape();
    LutMapping m;
    m.ns_tile = 2048;
    m.fs_tile = 16; // LUT tile 128*16*16 = 32 KiB fits WRAM
    m.nm_tile = 32;
    m.fm_tile = 16;
    m.cbm_tile = 16;
    m.order = TraversalOrder::NCF;
    m.scheme = LutLoadScheme::Static;
    const SimulatedLutCost sim =
        simulateLutMapping(upmemPlatform(), s, m);
    ASSERT_TRUE(sim.legal);
    // Bulk LUT load streams 32 KiB in 2 KiB chunks -> >= 16 DMAs.
    EXPECT_GE(sim.dma_count, 16u);
}

// Exact tile-walk results for every traversal order x load scheme on
// one shape where all 18 mappings are legal and every loop has more
// than one trip; captured at %.17g. The walk order, the reuse decisions
// and the DMA chunk sizes all show in these three numbers.
struct WalkPin
{
    TraversalOrder order;
    LutLoadScheme scheme;
    double total_s;
    std::size_t dma_count;
    double pe_stream_bytes;
};

const WalkPin kWalkPins[] = {
    {TraversalOrder::NFC, LutLoadScheme::Static, 0.066875748087071279,
     336, 163840.0},
    {TraversalOrder::NFC, LutLoadScheme::CoarseGrain,
     0.071263544912468182, 2368, 655360.0},
    {TraversalOrder::NFC, LutLoadScheme::FineGrain, 0.074119367134690362,
     65856, 655360.0},
    {TraversalOrder::NCF, LutLoadScheme::Static, 0.068120040150563374,
     656, 589824.0},
    {TraversalOrder::NCF, LutLoadScheme::CoarseGrain,
     0.072507836975960291, 2688, 1081344.0},
    {TraversalOrder::NCF, LutLoadScheme::FineGrain, 0.075363659198182331,
     66176, 1081344.0},
    {TraversalOrder::FNC, LutLoadScheme::Static, 0.066875748087071279,
     336, 163840.0},
    {TraversalOrder::FNC, LutLoadScheme::CoarseGrain,
     0.071263544912468182, 2368, 655360.0},
    {TraversalOrder::FNC, LutLoadScheme::FineGrain, 0.074119367134690362,
     65856, 655360.0},
    {TraversalOrder::FCN, LutLoadScheme::Static, 0.068399303642626863,
     784, 622592.0},
    {TraversalOrder::FCN, LutLoadScheme::CoarseGrain,
     0.068598148087071306, 896, 622592.0},
    {TraversalOrder::FCN, LutLoadScheme::FineGrain, 0.075642922690245806,
     66304, 1114112.0},
    {TraversalOrder::CNF, LutLoadScheme::Static, 0.068120040150563374,
     656, 589824.0},
    {TraversalOrder::CNF, LutLoadScheme::CoarseGrain,
     0.072507836975960291, 2688, 1081344.0},
    {TraversalOrder::CNF, LutLoadScheme::FineGrain, 0.075363659198182331,
     66176, 1081344.0},
    {TraversalOrder::CFN, LutLoadScheme::Static, 0.068399303642626863,
     784, 622592.0},
    {TraversalOrder::CFN, LutLoadScheme::CoarseGrain,
     0.068598148087071306, 896, 622592.0},
    {TraversalOrder::CFN, LutLoadScheme::FineGrain, 0.075642922690245806,
     66304, 1114112.0},
};

TEST(Simulator, WalkPinnedForEveryOrderAndScheme)
{
    LutWorkloadShape s = shape();
    s.cb = 64;
    LutMapping m;
    m.ns_tile = 256; // 16 groups
    m.fs_tile = 32;  // 32 lanes -> 512 PEs; static LUT tile 32 KiB
    m.nm_tile = 16;  // trips: N 16, F 2, C 8
    m.fm_tile = 16;
    m.cbm_tile = 8;
    m.cb_load_tile = 2;
    m.f_load_tile = 8;
    for (const WalkPin &pin : kWalkPins) {
        m.order = pin.order;
        m.scheme = pin.scheme;
        SCOPED_TRACE(m.describe());
        const SimulatedLutCost sim =
            simulateLutMapping(upmemPlatform(), s, m);
        ASSERT_TRUE(sim.legal);
        EXPECT_EQ(sim.total_s, pin.total_s);
        EXPECT_EQ(sim.dma_count, pin.dma_count);
        EXPECT_EQ(sim.pe_stream_bytes, pin.pe_stream_bytes);
    }
}

} // namespace
} // namespace pimdl
