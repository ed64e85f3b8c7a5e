#include "fault/fault.h"

#include <cmath>

#include "common/logging.h"

namespace pimdl {

namespace {

/** splitmix64 finalizer: the standard 64-bit avalanche mix. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
hashKeys(std::uint64_t seed, DrawStream stream, std::uint64_t a,
         std::uint64_t b)
{
    std::uint64_t h = mix64(seed);
    h = mix64(h ^ static_cast<std::uint64_t>(stream));
    h = mix64(h ^ a);
    h = mix64(h ^ b);
    return h;
}

void
requireRate(double rate, const char *name)
{
    PIMDL_REQUIRE(std::isfinite(rate) && rate >= 0.0 && rate <= 1.0,
                  std::string("fault rate ") + name +
                      " must lie in [0, 1]");
}

} // namespace

const char *
faultEventKindName(FaultEventKind kind)
{
    switch (kind) {
    case FaultEventKind::PeHardFail:
        return "pe_hard_fail";
    case FaultEventKind::PeTransient:
        return "pe_transient";
    case FaultEventKind::LutBitFlip:
        return "lut_bitflip";
    case FaultEventKind::TransferCorrupt:
        return "transfer_corrupt";
    case FaultEventKind::TransferStall:
        return "transfer_stall";
    }
    return "unknown";
}

void
FaultConfig::validate() const
{
    requireRate(pe_hard_fail_rate, "pe_hard_fail_rate");
    requireRate(pe_transient_rate, "pe_transient_rate");
    requireRate(lut_bitflip_rate, "lut_bitflip_rate");
    requireRate(transfer_corrupt_rate, "transfer_corrupt_rate");
    requireRate(transfer_stall_rate, "transfer_stall_rate");
    PIMDL_REQUIRE(std::isfinite(stall_penalty_s) && stall_penalty_s >= 0.0,
                  "stall_penalty_s must be finite and non-negative");
}

double
cappedBackoff(double base_s, double cap_s, std::size_t retry)
{
    double b = base_s;
    for (std::size_t i = 0; i < retry && b < cap_s; ++i)
        b *= 2.0;
    return b < cap_s ? b : cap_s;
}

void
RetryPolicy::validate() const
{
    PIMDL_REQUIRE(std::isfinite(backoff_base_s) && backoff_base_s >= 0.0,
                  "backoff_base_s must be finite and non-negative");
    PIMDL_REQUIRE(std::isfinite(backoff_cap_s) &&
                      backoff_cap_s >= backoff_base_s,
                  "backoff_cap_s must be finite and >= backoff_base_s");
}

double
faultHashUniform(std::uint64_t seed, DrawStream stream, std::uint64_t a,
                 std::uint64_t b)
{
    // 53 high-quality bits -> [0, 1) with full double precision.
    return static_cast<double>(hashKeys(seed, stream, a, b) >> 11) *
           0x1.0p-53;
}

std::uint64_t
faultChecksum(const void *data, std::size_t bytes)
{
    const unsigned char *p = static_cast<const unsigned char *>(data);
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (std::size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

FaultInjector::FaultInjector(FaultConfig config) : config_(config)
{
    config_.validate();
}

bool
FaultInjector::peHardFailed(std::size_t pe) const
{
    {
        MutexLock lock(forced_mu_);
        if (forced_failed_.count(pe) != 0)
            return true;
    }
    if (config_.pe_hard_fail_rate <= 0.0)
        return false;
    return faultHashUniform(config_.seed, DrawStream::PeHardFail, pe, 0) <
           config_.pe_hard_fail_rate;
}

bool
FaultInjector::transientCrash(std::uint64_t epoch, std::size_t pe,
                              std::size_t attempt) const
{
    if (config_.pe_transient_rate <= 0.0)
        return false;
    return faultHashUniform(config_.seed, DrawStream::PeTransient,
                            epoch * 0x10001ULL + attempt, pe) <
           config_.pe_transient_rate;
}

bool
FaultInjector::lutBitFlip(std::uint64_t epoch, std::size_t pe,
                          std::size_t attempt) const
{
    if (config_.lut_bitflip_rate <= 0.0)
        return false;
    return faultHashUniform(config_.seed, DrawStream::LutBitFlip,
                            epoch * 0x10001ULL + attempt, pe) <
           config_.lut_bitflip_rate;
}

bool
FaultInjector::transferCorrupt(std::uint64_t epoch, std::size_t pe,
                               std::size_t attempt) const
{
    if (config_.transfer_corrupt_rate <= 0.0)
        return false;
    return faultHashUniform(config_.seed, DrawStream::TransferCorrupt,
                            epoch * 0x10001ULL + attempt, pe) <
           config_.transfer_corrupt_rate;
}

bool
FaultInjector::transferStall(std::uint64_t epoch, std::size_t pe,
                             std::size_t attempt) const
{
    if (config_.transfer_stall_rate <= 0.0)
        return false;
    return faultHashUniform(config_.seed, DrawStream::TransferStall,
                            epoch * 0x10001ULL + attempt, pe) <
           config_.transfer_stall_rate;
}

std::size_t
FaultInjector::corruptionTarget(std::uint64_t epoch, std::size_t pe,
                                std::size_t attempt,
                                std::size_t slots) const
{
    PIMDL_REQUIRE(slots > 0, "corruption target needs a non-empty tile");
    const std::uint64_t h =
        hashKeys(config_.seed, DrawStream::CorruptionTarget,
                 epoch * 0x10001ULL + attempt, pe);
    return static_cast<std::size_t>(h % slots);
}

void
FaultInjector::forceFailPe(std::size_t pe)
{
    MutexLock lock(forced_mu_);
    forced_failed_.insert(pe);
}

std::uint64_t
FaultInjector::nextEpoch() const
{
    return epoch_.fetch_add(1, std::memory_order_relaxed);
}

} // namespace pimdl
