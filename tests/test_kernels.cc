/**
 * @file
 * Kernel-dispatch layer tests: bit-parity of every compiled-in SIMD
 * implementation against the scalar reference across odd shapes (lane
 * tails, one-row, one-centroid), dispatch selection via the runtime
 * override and the PIMDL_KERNEL_IMPL environment default, and a
 * pinned golden for one BERT-base CCS+LUT block.
 */

#include <cstdlib>
#include <cstring>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "fault/fault.h"
#include "kernels/kernels.h"
#include "lutnn/converter.h"

using namespace pimdl;

namespace {

/** Clears any leftover runtime override after each test. */
class KernelDispatchGuard : public ::testing::Test
{
  protected:
    void TearDown() override { kernels::setKernelImpl(""); }
};

using KernelDispatch = KernelDispatchGuard;
using KernelParity = KernelDispatchGuard;
using KernelGolden = KernelDispatchGuard;

std::vector<float>
randomFloats(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = rng.gaussian();
    return v;
}

std::vector<std::int8_t>
randomInt8(Rng &rng, std::size_t n)
{
    std::vector<std::int8_t> v(n);
    for (std::int8_t &x : v)
        x = static_cast<std::int8_t>(rng.integer(-128, 127));
    return v;
}

std::vector<std::uint16_t>
randomIndices(Rng &rng, std::size_t n, std::size_t ct_count)
{
    std::vector<std::uint16_t> v(n);
    for (std::uint16_t &x : v)
        x = static_cast<std::uint16_t>(
            rng.index(ct_count == 0 ? 1 : ct_count));
    return v;
}

std::vector<float>
centroidNorms(const std::vector<float> &centroids, std::size_t ct_count,
              std::size_t v_len)
{
    std::vector<float> norms(ct_count, 0.0f);
    for (std::size_t ct = 0; ct < ct_count; ++ct) {
        for (std::size_t d = 0; d < v_len; ++d) {
            const float c = centroids[ct * v_len + d];
            norms[ct] += c * c;
        }
    }
    return norms;
}

} // namespace

TEST_F(KernelDispatch, ScalarAndGenericAlwaysAvailable)
{
    const auto impls = kernels::availableKernels();
    ASSERT_GE(impls.size(), 2u);
    EXPECT_STREQ(impls[0]->name, "scalar");
    EXPECT_EQ(impls[0], &kernels::scalarKernels());
    bool has_generic = false;
    for (const kernels::KernelTable *impl : impls) {
        if (std::string(impl->name) == "generic")
            has_generic = true;
    }
    EXPECT_TRUE(has_generic);
    // Ascending priority, unique names.
    for (std::size_t i = 1; i < impls.size(); ++i)
        EXPECT_GT(impls[i]->priority, impls[i - 1]->priority);
}

TEST_F(KernelDispatch, LookupByName)
{
    EXPECT_EQ(kernels::kernelsByName("scalar"),
              &kernels::scalarKernels());
    EXPECT_EQ(kernels::kernelsByName("generic"),
              &kernels::genericKernels());
    EXPECT_EQ(kernels::kernelsByName("no-such-isa"), nullptr);
    // avx2 resolves exactly when compiled in and CPU-supported.
    EXPECT_EQ(kernels::kernelsByName("avx2"), kernels::avx2Kernels());
}

TEST_F(KernelDispatch, RuntimeOverrideSelectsEveryImpl)
{
    for (const kernels::KernelTable *impl : kernels::availableKernels()) {
        kernels::setKernelImpl(impl->name);
        EXPECT_EQ(&kernels::best(), impl);
    }
    kernels::setKernelImpl("");
    EXPECT_THROW(kernels::setKernelImpl("no-such-isa"),
                 std::runtime_error);
}

TEST_F(KernelDispatch, EnvDefaultHonored)
{
    kernels::setKernelImpl("");
    const char *env = std::getenv("PIMDL_KERNEL_IMPL");
    if (env != nullptr && kernels::kernelsByName(env) != nullptr) {
        // CI sanitize/tsan jobs pin the impl through the environment.
        EXPECT_STREQ(kernels::best().name, env);
    } else {
        // Auto dispatch picks the highest-priority available impl.
        EXPECT_EQ(&kernels::best(), kernels::availableKernels().back());
    }
}

TEST_F(KernelParity, CcsArgminOddShapes)
{
    Rng rng(42);
    const std::size_t ct_counts[] = {1, 3, 7, 8, 16, 17, 33};
    const std::size_t v_lens[] = {1, 2, 3, 4, 5, 8};
    for (std::size_t ct_count : ct_counts) {
        for (std::size_t v_len : v_lens) {
            auto centroids = randomFloats(rng, ct_count * v_len);
            // Duplicate a centroid to exercise first-minimum-wins
            // tie-breaks (exactly equal scores).
            if (ct_count >= 3) {
                std::memcpy(centroids.data() + (ct_count - 1) * v_len,
                            centroids.data() + v_len,
                            v_len * sizeof(float));
            }
            const auto norms = centroidNorms(centroids, ct_count, v_len);
            for (int trial = 0; trial < 8; ++trial) {
                const auto v = randomFloats(rng, v_len);
                const std::size_t want =
                    kernels::scalarKernels().ccs_argmin(
                        v.data(), centroids.data(), norms.data(),
                        ct_count, v_len);
                for (const kernels::KernelTable *impl :
                     kernels::availableKernels()) {
                    EXPECT_EQ(impl->ccs_argmin(v.data(), centroids.data(),
                                               norms.data(), ct_count,
                                               v_len),
                              want)
                        << impl->name << " ct=" << ct_count
                        << " v=" << v_len;
                }
            }
        }
    }
}

TEST_F(KernelParity, CcsArgminDuplicateOfFirstCentroid)
{
    // A later exact duplicate of centroid 0 must never win.
    const std::size_t v_len = 4;
    Rng rng(7);
    for (std::size_t ct_count : {2u, 9u, 16u, 24u}) {
        auto centroids = randomFloats(rng, ct_count * v_len);
        std::memcpy(centroids.data() + (ct_count - 1) * v_len,
                    centroids.data(), v_len * sizeof(float));
        const auto norms = centroidNorms(centroids, ct_count, v_len);
        // Query exactly on the duplicated centroid: score ties.
        for (const kernels::KernelTable *impl :
             kernels::availableKernels()) {
            EXPECT_EQ(impl->ccs_argmin(centroids.data(), centroids.data(),
                                       norms.data(), ct_count, v_len),
                      0u)
                << impl->name << " ct=" << ct_count;
        }
    }
}

TEST_F(KernelParity, LutAccumF32OddShapes)
{
    Rng rng(43);
    const std::size_t ct_count = 16;
    const std::size_t f_dims[] = {1, 5, 8, 9, 31, 64, 257};
    for (std::size_t f_dim : f_dims) {
        for (std::size_t cb_count : {1u, 3u, 12u}) {
            const auto lut =
                randomFloats(rng, cb_count * ct_count * f_dim);
            const auto idx = randomIndices(rng, cb_count, ct_count);
            // Tile sub-ranges: full row plus an offset odd tail.
            const std::size_t col0 = f_dim > 2 ? f_dim / 3 : 0;
            const std::size_t tiles[][2] = {{0, f_dim},
                                            {col0, f_dim - col0}};
            for (const auto &tile : tiles) {
                std::vector<float> want(tile[1]);
                kernels::scalarKernels().lut_accum_f32(
                    idx.data(), cb_count, ct_count, lut.data(), f_dim,
                    tile[0], tile[1], want.data());
                for (const kernels::KernelTable *impl :
                     kernels::availableKernels()) {
                    std::vector<float> got(tile[1], 123.0f);
                    impl->lut_accum_f32(idx.data(), cb_count, ct_count,
                                        lut.data(), f_dim, tile[0],
                                        tile[1], got.data());
                    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                                          tile[1] * sizeof(float)),
                              0)
                        << impl->name << " f=" << f_dim
                        << " cb=" << cb_count << " col0=" << tile[0];
                }
            }
        }
    }
}

TEST_F(KernelParity, LutAccumI8OddShapes)
{
    Rng rng(44);
    const std::size_t ct_count = 16;
    const std::size_t f_dims[] = {1, 7, 8, 9, 33, 255};
    for (std::size_t f_dim : f_dims) {
        for (std::size_t cb_count : {1u, 5u, 16u}) {
            const auto lut = randomInt8(rng, cb_count * ct_count * f_dim);
            const auto idx = randomIndices(rng, cb_count, ct_count);
            std::vector<std::int32_t> want(f_dim);
            kernels::scalarKernels().lut_accum_i8(
                idx.data(), cb_count, ct_count, lut.data(), f_dim, 0,
                f_dim, want.data());
            for (const kernels::KernelTable *impl :
                 kernels::availableKernels()) {
                std::vector<std::int32_t> got(f_dim, -7);
                impl->lut_accum_i8(idx.data(), cb_count, ct_count,
                                   lut.data(), f_dim, 0, f_dim,
                                   got.data());
                EXPECT_EQ(got, want)
                    << impl->name << " f=" << f_dim << " cb=" << cb_count;
            }
        }
    }
}

TEST_F(KernelParity, AxpyOddLengths)
{
    Rng rng(45);
    for (std::size_t n : {1u, 7u, 8u, 9u, 63u, 255u, 1024u}) {
        const auto x = randomFloats(rng, n);
        const auto y0 = randomFloats(rng, n);
        const float a = rng.gaussian();
        std::vector<float> want = y0;
        kernels::scalarKernels().axpy_f32(a, x.data(), want.data(), n);
        for (const kernels::KernelTable *impl :
             kernels::availableKernels()) {
            std::vector<float> got = y0;
            impl->axpy_f32(a, x.data(), got.data(), n);
            EXPECT_EQ(
                std::memcmp(got.data(), want.data(), n * sizeof(float)),
                0)
                << impl->name << " n=" << n;
        }
    }
}

TEST_F(KernelParity, OneRowOneCentroid)
{
    // Degenerate shapes: a single centroid forces index 0 everywhere;
    // a single-column LUT exercises the all-tail path.
    const float v[] = {0.5f, -1.0f, 2.0f, 0.25f};
    const float centroid[] = {1.0f, 1.0f, -1.0f, 0.0f};
    const float norm = 3.0f;
    const std::uint16_t idx0 = 0;
    const float lut1[] = {4.0f};
    for (const kernels::KernelTable *impl : kernels::availableKernels()) {
        EXPECT_EQ(impl->ccs_argmin(v, centroid, &norm, 1, 4), 0u)
            << impl->name;
        float out = -1.0f;
        impl->lut_accum_f32(&idx0, 1, 1, lut1, 1, 0, 1, &out);
        EXPECT_EQ(out, 4.0f) << impl->name;
    }
}

TEST_F(KernelGolden, BertBaseCcsLutBlock)
{
    // One BERT-base-shaped block (H=768, F=768, V=4, CT=16) built from
    // pinned seeds. Every implementation must produce bit-identical
    // indices and outputs; the checksums below pin the exact bits so a
    // silent accumulation-order change in any impl fails loudly.
    Rng rng(1234);
    Tensor w(768, 768);
    w.fillGaussian(rng);
    Tensor calib(64, 768);
    calib.fillGaussian(rng);
    ConvertOptions options;
    options.subvec_len = 4;
    options.centroids = 16;
    options.quantize_int8 = true;
    options.kmeans.max_iters = 2;
    const LutLayer layer = convertLinearLayer(w, {}, calib, options);

    Tensor input(32, 768);
    Rng in_rng(99);
    input.fillGaussian(in_rng);

    std::uint64_t idx_sum = 0;
    std::uint64_t fp32_sum = 0;
    std::uint64_t int8_sum = 0;
    bool first = true;
    for (const kernels::KernelTable *impl : kernels::availableKernels()) {
        kernels::setKernelImpl(impl->name);
        const IndexMatrix idx = layer.closestCentroidSearch(input);
        const Tensor out = layer.lookup(idx);
        const Tensor qout = layer.lookupQuantized(idx);
        const std::uint64_t i_sum = faultChecksum(
            idx.data.data(), idx.data.size() * sizeof(std::uint16_t));
        const std::uint64_t f_sum =
            faultChecksum(out.data(), out.size() * sizeof(float));
        const std::uint64_t q_sum =
            faultChecksum(qout.data(), qout.size() * sizeof(float));
        if (first) {
            idx_sum = i_sum;
            fp32_sum = f_sum;
            int8_sum = q_sum;
            first = false;
        } else {
            EXPECT_EQ(i_sum, idx_sum) << impl->name;
            EXPECT_EQ(f_sum, fp32_sum) << impl->name;
            EXPECT_EQ(q_sum, int8_sum) << impl->name;
        }
    }
    kernels::setKernelImpl("");

    // Pinned bits (libstdc++ normal_distribution; both CI toolchains).
    EXPECT_EQ(idx_sum, 0x602427112B6CC7BEULL);
    EXPECT_EQ(fp32_sum, 0x20FDDB39D631D753ULL);
    EXPECT_EQ(int8_sum, 0x637B67DC3888EC07ULL);
}
