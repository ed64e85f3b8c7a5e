/**
 * @file
 * Discrete-event batched-serving simulator.
 *
 * The paper motivates PIM-DL with cloud serving scenarios that "require
 * batched inference" (Section 2.2). This module closes the loop: Poisson
 * request arrivals feed a batching queue in front of one PIM-DL engine;
 * batches dispatch when full or when the oldest request has waited past
 * a deadline, and per-batch latency comes from the engine's estimate.
 * Outputs are the serving metrics an operator cares about: throughput,
 * latency percentiles, mean batch size, and device utilization.
 *
 * The simulator also carries failure semantics: a per-batch fault
 * profile (seed-deterministic, sharing src/fault's counter-based hash)
 * can fail dispatch attempts, which are retried with capped exponential
 * backoff on a degraded (remapped) engine; exhausted retries fail the
 * batch, per-request deadlines convert late completions into timeouts,
 * and the stats report availability and degraded goodput alongside the
 * fault-free metrics.
 */

#ifndef PIMDL_RUNTIME_SERVING_H
#define PIMDL_RUNTIME_SERVING_H

#include <functional>
#include <map>
#include <vector>

#include "common/thread_annotations.h"
#include "fault/fault.h"
#include "runtime/engine.h"

namespace pimdl {

/**
 * Per-batch fault semantics of the serving loop. Batch outcomes are
 * drawn by a counter-based hash of (seed, batch index, attempt), so a
 * sweep over batch_fault_rate sees coupled draws: raising the rate can
 * only add faults, which keeps availability/retry curves monotonic.
 */
struct ServingFaultProfile
{
    /** Per dispatch-attempt probability the batch execution fails. */
    double batch_fault_rate = 0.0;
    /**
     * Service-time multiplier for retry attempts: the re-execution runs
     * on the degraded engine (tiles remapped around the fault).
     */
    double degraded_service_factor = 1.5;
    /** Retries allowed per batch after the initial attempt. */
    std::size_t max_retries = 3;
    /** Backoff before the first retry, seconds. */
    double backoff_base_s = 2e-3;
    /** Backoff ceiling, seconds. */
    double backoff_cap_s = 64e-3;
    /** Root of the per-batch outcome draws. */
    std::uint64_t seed = 0xfa0175ULL;

    bool enabled() const { return batch_fault_rate > 0.0; }

    /** Backoff before retry number @p retry (0-based), seconds. */
    double backoffFor(std::size_t retry) const
    {
        return cappedBackoff(backoff_base_s, backoff_cap_s, retry);
    }

    /** Throws std::runtime_error on nonsensical parameters. */
    void validate() const;
};

/** Workload and policy of one serving simulation. */
struct ServingConfig
{
    /** Mean request arrival rate, requests/second (Poisson process). */
    double arrival_rate = 10.0;
    /** Largest batch the engine accepts. */
    std::size_t max_batch = 64;
    /** Dispatch a partial batch once its oldest request waited this
     * long. */
    double max_wait_s = 0.5;
    /** Simulated wall-clock span, seconds. */
    double horizon_s = 300.0;
    /** Scheduler the engine estimates batches with (plan/schedule.h). */
    SchedulePolicy policy = SchedulePolicy::Sequential;
    /**
     * Pad dispatched batches up to the next power of two (bounded by
     * max_batch): standard bucketing that bounds the number of distinct
     * kernel shapes the auto-tuner must plan for.
     */
    bool pow2_buckets = true;
    std::uint64_t seed = 1;
    /**
     * Per-request completion deadline, seconds; requests served later
     * count as timeouts against availability. 0 disables the deadline.
     */
    double deadline_s = 0.0;
    /** Per-batch fault semantics (disabled by default). */
    ServingFaultProfile faults;

    /** Throws std::runtime_error with a field-naming message when bad. */
    void validate() const;
};

/** Aggregate metrics of a simulation run. */
struct ServingStats
{
    std::size_t requests = 0;
    std::size_t batches = 0;
    double mean_batch_size = 0.0;
    /** Completed requests per second of simulated time. */
    double throughput_rps = 0.0;
    /** Request latency (queueing + service), seconds. */
    double mean_latency_s = 0.0;
    double p50_latency_s = 0.0;
    double p95_latency_s = 0.0;
    double p99_latency_s = 0.0;
    /** Fraction of the horizon the engine spent serving. */
    double utilization = 0.0;

    // Failure accounting (all zero when the fault profile is disabled).
    /** Requests whose batch eventually executed. */
    std::size_t completed = 0;
    /** Requests lost to batches that exhausted their retries. */
    std::size_t failed_requests = 0;
    /** Requests served after the deadline_s budget. */
    std::size_t timed_out = 0;
    /** Dispatch attempts that were retried after a batch fault. */
    std::size_t batch_retries = 0;
    /** Batches that exhausted retries and were dropped. */
    std::size_t failed_batches = 0;
    /** Batches that completed but needed at least one retry. */
    std::size_t degraded_batches = 0;
    /** Requests served within deadline / total requests. */
    double availability = 1.0;
    /** Deadline-meeting completions per second (degraded throughput). */
    double goodput_rps = 0.0;
};

/** Latency model consulted per dispatched batch, seconds. */
using BatchLatencyFn = std::function<double(std::size_t batch)>;

/**
 * Poisson arrival times over [0, horizon_s), sorted ascending. This is
 * the exact stream ServingSimulator::simulate draws, exposed so the
 * live serving driver can replay the identical open-loop trace through
 * the real runtime and through the analytical model.
 */
std::vector<double> poissonArrivals(double arrival_rate, double horizon_s,
                                    std::uint64_t seed);

/**
 * Core discrete-event serving loop over an explicit arrival trace and
 * an injectable batch-latency model. ServingSimulator::simulate is a
 * thin wrapper (Poisson arrivals + the engine's analytical latency);
 * the live-serving cross-validation harness instead replays a measured
 * arrival trace with a measured batch-latency calibration, so the
 * queueing/batching/shedding model itself is what gets validated.
 * @p arrivals must be sorted ascending.
 */
ServingStats simulateServingTrace(const ServingConfig &config,
                                  const std::vector<double> &arrivals,
                                  const BatchLatencyFn &latency);

/**
 * Simulates batched serving of @p model (its batch field is overridden
 * per dispatched batch) on one PIM-DL engine.
 */
class ServingSimulator
{
  public:
    ServingSimulator(const PimDlEngine &engine,
                     const TransformerConfig &model,
                     const LutNnParams &params);

    /** Runs one simulation; deterministic for a fixed config. */
    ServingStats simulate(const ServingConfig &config) const;

    /**
     * Engine latency for a given batch size under a scheduling policy
     * (memoized per instance; safe to call concurrently).
     */
    double batchLatency(std::size_t batch, SchedulePolicy policy) const
        PIMDL_EXCLUDES(cache_mu_);

  private:
    const PimDlEngine &engine_;
    TransformerConfig model_;
    LutNnParams params_;
    /** Guards latency_cache_ (sweeps probe batches in parallel). */
    mutable Mutex cache_mu_{"serving.sim.latency_cache"};
    /** Memoized per (batch, policy) latency. */
    mutable std::map<std::pair<std::size_t, SchedulePolicy>, double>
        latency_cache_ PIMDL_GUARDED_BY(cache_mu_);
};

} // namespace pimdl

#endif // PIMDL_RUNTIME_SERVING_H
