/** @file Analytical cost model tests (paper Eq. 3-10). */

#include <gtest/gtest.h>

#include "plan/lowering.h"
#include "tuner/autotuner.h"
#include "tuner/cost_model.h"
#include "verify/verify.h"

namespace pimdl {
namespace {

LutWorkloadShape
bertLargeFfn1()
{
    // Paper Section 6.6 case study: (N, CB, CT, F) = (32768,256,16,4096).
    LutWorkloadShape shape;
    shape.n = 32768;
    shape.cb = 256;
    shape.ct = 16;
    shape.f = 4096;
    return shape;
}

LutMapping
referenceMapping()
{
    LutMapping m;
    m.ns_tile = 512;   // 64 groups
    m.fs_tile = 256;   // 16 lanes -> 1024 PEs
    m.nm_tile = 8;
    m.fm_tile = 64;
    m.cbm_tile = 16;
    m.order = TraversalOrder::NFC;
    m.scheme = LutLoadScheme::CoarseGrain;
    m.cb_load_tile = 2;
    m.f_load_tile = 8;
    return m;
}

TEST(CostModel, ReferenceMappingIsLegal)
{
    std::string reason;
    EXPECT_TRUE(mappingIsLegal(upmemPlatform(), bertLargeFfn1(),
                               referenceMapping(), &reason))
        << reason;
}

TEST(CostModel, RejectsNonDividingTiles)
{
    LutMapping m = referenceMapping();
    m.ns_tile = 500; // does not divide 32768
    std::string reason;
    EXPECT_FALSE(mappingIsLegal(upmemPlatform(), bertLargeFfn1(), m,
                                &reason));
    EXPECT_NE(reason.find("ns_tile"), std::string::npos);
}

TEST(CostModel, RejectsOversubscribedPes)
{
    LutMapping m = referenceMapping();
    m.ns_tile = 32; // 1024 groups x 16 lanes = 16384 PEs > 1024.
    EXPECT_FALSE(mappingIsLegal(upmemPlatform(), bertLargeFfn1(), m));
}

TEST(CostModel, RejectsBufferOverflow)
{
    LutMapping m = referenceMapping();
    m.scheme = LutLoadScheme::Static; // 256*16*256 B = 1 MiB > 64 KiB WRAM
    std::string reason;
    EXPECT_FALSE(mappingIsLegal(upmemPlatform(), bertLargeFfn1(), m,
                                &reason));
    EXPECT_NE(reason.find("buffer"), std::string::npos);
}

TEST(CostModel, StaticSchemeLegalWhenLutFits)
{
    // Paper sets (16384, 8) for the static scheme on this workload:
    // LUT tile = 256*16*8 = 32 KiB fits the 64 KiB WRAM.
    LutMapping m;
    m.ns_tile = 16384;
    m.fs_tile = 8;
    m.nm_tile = 64;
    m.fm_tile = 8;
    m.cbm_tile = 16;
    m.order = TraversalOrder::NCF;
    m.scheme = LutLoadScheme::Static;
    std::string reason;
    EXPECT_TRUE(mappingIsLegal(upmemPlatform(), bertLargeFfn1(), m,
                               &reason))
        << reason;
}

TEST(CostModel, IllegalMappingYieldsNoCost)
{
    LutMapping m = referenceMapping();
    m.fs_tile = 3;
    LutCostBreakdown cost =
        evaluateLutMapping(upmemPlatform(), bertLargeFfn1(), m);
    EXPECT_FALSE(cost.legal);
    EXPECT_FALSE(cost.illegal_reason.empty());
}

TEST(CostModel, BreakdownComponentsArePositive)
{
    LutCostBreakdown cost = evaluateLutMapping(
        upmemPlatform(), bertLargeFfn1(), referenceMapping());
    ASSERT_TRUE(cost.legal);
    EXPECT_GT(cost.t_sub_index, 0.0);
    EXPECT_GT(cost.t_sub_lut, 0.0);
    EXPECT_GT(cost.t_sub_output, 0.0);
    EXPECT_GT(cost.t_ld_lut, 0.0);
    EXPECT_GT(cost.t_reduce, 0.0);
    EXPECT_NEAR(cost.total(),
                cost.subLutTotal() + cost.microKernelTotal() +
                    cost.kernel_launch,
                1e-12);
}

TEST(CostModel, ReduceLatencyMatchesThroughput)
{
    // Accumulation work: ns * fs * cb adds at the PE add rate dominates
    // the micro-kernel (paper Section 6.6: accumulation latency takes up
    // most of the execution).
    const PimPlatformConfig platform = upmemPlatform();
    const LutWorkloadShape shape = bertLargeFfn1();
    const LutMapping m = referenceMapping();
    const LutCostBreakdown cost = evaluateLutMapping(platform, shape, m);
    const double adds = static_cast<double>(m.ns_tile) * m.fs_tile *
                        shape.cb;
    EXPECT_GE(cost.t_reduce, adds / platform.pe_add_ops_per_s);
}

TEST(CostModel, TraversalOrderBarelyMattersNearOptimum)
{
    // Paper Figure 13-(d): around the best mapping, traversal order
    // brings little divergence because accumulation dominates the
    // micro-kernel on UPMEM's wimpy PEs.
    const LutWorkloadShape shape = bertLargeFfn1();
    AutoTuner tuner(upmemPlatform());
    AutoTuneResult best = tuner.tune(shape);
    ASSERT_TRUE(best.found);

    double lo = 1e30, hi = 0.0;
    for (TraversalOrder order : kAllTraversalOrders) {
        LutMapping m = best.mapping;
        m.order = order;
        const LutCostBreakdown cost =
            evaluateLutMapping(upmemPlatform(), shape, m);
        if (!cost.legal)
            continue;
        lo = std::min(lo, cost.total());
        hi = std::max(hi, cost.total());
    }
    EXPECT_LT(hi / lo, 1.35);
}

TEST(CostModel, FewerPesIsSlower)
{
    // Same workload on half the PEs (double ns_tile) must not be faster.
    const LutWorkloadShape shape = bertLargeFfn1();
    LutMapping full = referenceMapping();
    LutMapping half = referenceMapping();
    half.ns_tile *= 2;
    half.nm_tile = full.nm_tile;
    const double t_full =
        evaluateLutMapping(upmemPlatform(), shape, full).total();
    const double t_half =
        evaluateLutMapping(upmemPlatform(), shape, half).total();
    EXPECT_GT(t_half, t_full);
}

TEST(CostModel, LinkBytesCountUniquePayloads)
{
    const LutWorkloadShape shape = bertLargeFfn1();
    const LutCostBreakdown cost = evaluateLutMapping(
        upmemPlatform(), shape, referenceMapping());
    const double expected =
        32768.0 * 256 * 2 + 256.0 * 16 * 4096 * 1 + 32768.0 * 4096 * 4;
    EXPECT_NEAR(cost.link_bytes, expected, 1.0);
}

TEST(CostModel, RejectsBankResidencyOverflowOnHbmPim)
{
    // BERT-large FFN2 on HBM-PIM: fp16 LUT entries make an fs_tile=512
    // sub-LUT tile 1024 x 16 x 512 x 2 B = 16 MiB, so with its index and
    // output slices the resident working set outgrows the 16 MiB bank
    // while every tile divides and the on-chip buffer fits.
    const PimPlatformConfig platform = hbmPimPlatform();
    LoweringOptions options;
    options.platform = &platform;
    Plan plan = lowerTransformer(bertLarge(), LutNnParams{4, 16},
                                 ExecutionMode::PimDl, options);
    PlanNode *ffn2 = nullptr;
    for (PlanNode &node : plan.nodes) {
        if (node.kind == PlanOpKind::LutOp &&
            node.role == LinearRole::Ffn2) {
            ffn2 = &node;
            break;
        }
    }
    ASSERT_NE(ffn2, nullptr);

    LutMapping m;
    m.ns_tile = ffn2->lut_shape.n / 128; // 128 groups x 2 lanes
    m.fs_tile = 512;
    m.nm_tile = 8;
    m.fm_tile = 64;
    m.cbm_tile = 16;
    m.order = TraversalOrder::NFC;
    m.scheme = LutLoadScheme::CoarseGrain;
    m.cb_load_tile = 2;
    m.f_load_tile = 8;
    EXPECT_LE(mappingBufferBytes(platform, ffn2->lut_shape, m),
              static_cast<double>(platform.pe_buffer_bytes));
    std::string reason;
    EXPECT_FALSE(mappingIsLegal(platform, ffn2->lut_shape, m, &reason));
    EXPECT_EQ(reason, "resident working set exceeds the PE local memory");

    ffn2->mapping = m;
    ffn2->mapping_attached = true;
    const verify::VerifyResult result =
        verify::PassManager::withDefaultPasses().run(plan, &platform);
    EXPECT_FALSE(result.ok());
    EXPECT_TRUE(result.hasNodeDiag("capacity", ffn2->id))
        << result.summary();
}

TEST(CostModel, BufferBytesPerScheme)
{
    const PimPlatformConfig platform = upmemPlatform();
    const LutWorkloadShape shape = bertLargeFfn1();

    LutMapping m = referenceMapping();
    m.scheme = LutLoadScheme::CoarseGrain;
    const double coarse = mappingBufferBytes(platform, shape, m);
    // idx: 8*16*2 = 256; out: 8*64*4 = 2048; lut: 2*16*8*1 = 256.
    EXPECT_NEAR(coarse, 256.0 + 2048.0 + 256.0, 1e-9);

    m.scheme = LutLoadScheme::FineGrain;
    m.f_load_tile = 8;
    const double fine = mappingBufferBytes(platform, shape, m);
    EXPECT_NEAR(fine, 256.0 + 2048.0 + 16.0 * 8.0, 1e-9);
}

} // namespace
} // namespace pimdl
