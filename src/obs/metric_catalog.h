/**
 * @file
 * The one declaration of every metric the tree publishes.
 *
 * Each entry names a metric exactly once, with its kind and the
 * scripts/check_metrics.py mode that requires it in a snapshot:
 *
 *   base          every snapshot (engine, serving simulator, tuner,
 *                 serving fault accounting, lock-order mirror)
 *   fault-exec    runs that drove the fault-aware LUT executor
 *   serving-live  runs that drove the live serving runtime
 *   backend-xval  runs that cross-validated the transaction backend
 *   resilience    runs of the resilient runtime under chaos
 *   verify        runs with plan verification enabled
 *   transfer      runs that drove the host<->PIM transfer engine
 *   none          published but not required by any mode
 *
 * Publish sites pass a Metric to MetricsRegistry::counter / gauge /
 * histogram, which rejects a lookup of the wrong kind. snapshotJson()
 * writes the mode -> names map into every artifact, so
 * check_metrics.py reads its required keys from the snapshot instead
 * of keeping a copy.
 */

#ifndef PIMDL_OBS_METRIC_CATALOG_H
#define PIMDL_OBS_METRIC_CATALOG_H

#include <cstddef>
#include <cstdint>

namespace pimdl {
namespace obs {

enum class MetricKind : std::uint8_t
{
    Counter,
    Gauge,
    Histogram,
};

/** The check_metrics.py mode that requires a metric. */
enum class RequireMode : std::uint8_t
{
    Base,
    FaultExec,
    ServingLive,
    BackendXval,
    Resilience,
    Verify,
    Transfer,
    None,
};

// X(identifier, "published.name", MetricKind, RequireMode)
// clang-format off
#define PIMDL_METRIC_CATALOG(X) \
    /* Engine: per-estimate split and the Fig. 11 per-role gauges. */ \
    X(EngineEstimates, "engine.estimates", Counter, Base) \
    X(EngineCcsS, "engine.ccs_s", Histogram, Base) \
    X(EngineLutS, "engine.lut_s", Histogram, Base) \
    X(EngineTotalS, "engine.total_s", Histogram, Base) \
    X(EngineRoleQkvCcsS, "engine.role.QKV.ccs_s", Gauge, Base) \
    X(EngineRoleQkvLutS, "engine.role.QKV.lut_s", Gauge, Base) \
    X(EngineRoleOCcsS, "engine.role.O.ccs_s", Gauge, Base) \
    X(EngineRoleOLutS, "engine.role.O.lut_s", Gauge, Base) \
    X(EngineRoleFfn1CcsS, "engine.role.FFN1.ccs_s", Gauge, Base) \
    X(EngineRoleFfn1LutS, "engine.role.FFN1.lut_s", Gauge, Base) \
    X(EngineRoleFfn2CcsS, "engine.role.FFN2.ccs_s", Gauge, Base) \
    X(EngineRoleFfn2LutS, "engine.role.FFN2.lut_s", Gauge, Base) \
    X(PlanNodesScheduled, "plan.nodes_scheduled", Counter, None) \
    /* Analytical serving simulator. */ \
    X(ServingRequests, "serving.requests", Counter, Base) \
    X(ServingBatches, "serving.batches", Counter, Base) \
    X(ServingRequestLatencyS, "serving.request_latency_s", Histogram, Base) \
    X(ServingBatchSize, "serving.batch_size", Histogram, Base) \
    X(ServingQueueDepth, "serving.queue_depth", Histogram, Base) \
    X(ServingUtilization, "serving.utilization", Gauge, Base) \
    X(FaultServingBatchRetries, "fault.serving.batch_retries", Counter, Base) \
    X(FaultServingFailedBatches, "fault.serving.failed_batches", Counter, Base) \
    X(FaultServingFailedRequests, "fault.serving.failed_requests", Counter, Base) \
    X(FaultServingDeadlineTimeouts, "fault.serving.deadline_timeouts", Counter, Base) \
    X(FaultServingDegradedBatches, "fault.serving.degraded_batches", Counter, Base) \
    X(FaultServingAvailability, "fault.serving.availability", Gauge, Base) \
    /* Auto-tuner. */ \
    X(TunerSearches, "tuner.searches", Counter, Base) \
    X(TunerMappingsEvaluated, "tuner.mappings_evaluated", Counter, Base) \
    X(TunerMappingsPruned, "tuner.mappings_pruned", Counter, Base) \
    X(TunerSearchWallS, "tuner.search_wall_s", Histogram, Base) \
    /* Lock-order tracker, mirrored by every snapshot. */ \
    X(LockorderAcquisitions, "analysis.lockorder.acquisitions", Counter, Base) \
    X(LockorderEdges, "analysis.lockorder.edges", Counter, Base) \
    X(LockorderCycles, "analysis.lockorder.cycles", Counter, Base) \
    X(LockorderSelfLock, "analysis.lockorder.self_lock", Counter, Base) \
    X(LockorderWaitWhileHolding, "analysis.lockorder.wait_while_holding", Counter, Base) \
    X(LockorderHoldBudgetExceeded, "analysis.lockorder.hold_budget_exceeded", Counter, Base) \
    X(LockorderEnabled, "analysis.lockorder.enabled", Gauge, Base) \
    X(LockorderLocksLive, "analysis.lockorder.locks_live", Gauge, Base) \
    X(LockorderEdgesLive, "analysis.lockorder.edges_live", Gauge, Base) \
    /* Fault-aware LUT executor. */ \
    X(FaultInjectedPeTransient, "fault.injected.pe_transient", Counter, FaultExec) \
    X(FaultInjectedLutBitflip, "fault.injected.lut_bitflip", Counter, FaultExec) \
    X(FaultInjectedTransferCorrupt, "fault.injected.transfer_corrupt", Counter, FaultExec) \
    X(FaultInjectedTransferStall, "fault.injected.transfer_stall", Counter, FaultExec) \
    X(FaultLutRetries, "fault.lut.retries", Counter, FaultExec) \
    X(FaultLutChecksumMismatches, "fault.lut.checksum_mismatches", Counter, FaultExec) \
    X(FaultLutTilesRemapped, "fault.lut.tiles_remapped", Counter, FaultExec) \
    X(FaultLutDeadPes, "fault.lut.dead_pes", Counter, FaultExec) \
    X(FaultLutHostFallbacks, "fault.lut.host_fallbacks", Counter, FaultExec) \
    X(FaultLutAddedLatencyS, "fault.lut.added_latency_s", Histogram, FaultExec) \
    /* LUT executor and DPU interpreter accounting. */ \
    X(LutRuns, "lut.runs", Counter, None) \
    X(LutPeKernels, "lut.pe_kernels", Counter, None) \
    X(LutLinkBytes, "lut.link_bytes", Counter, None) \
    X(LutPeStreamBytes, "lut.pe_stream_bytes", Counter, None) \
    X(LutModelCycles, "lut.model_cycles", Counter, None) \
    X(LutModelLatencyS, "lut.model_latency_s", Histogram, None) \
    X(DpuKernelRuns, "dpu.kernel_runs", Counter, None) \
    X(DpuInstructions, "dpu.instructions", Counter, None) \
    X(DpuCycles, "dpu.cycles", Counter, None) \
    X(DpuDmaBytes, "dpu.dma_bytes", Counter, None) \
    /* Host kernels and the parallel runtime. */ \
    X(KernelsImpl, "kernels.impl", Gauge, None) \
    X(KernelsCcsRows, "kernels.ccs.rows", Counter, None) \
    X(KernelsCcsSubvectors, "kernels.ccs.subvectors", Counter, None) \
    X(KernelsCcsBytes, "kernels.ccs.bytes", Counter, None) \
    X(KernelsLutRows, "kernels.lut.rows", Counter, None) \
    X(KernelsLutElements, "kernels.lut.elements", Counter, None) \
    X(KernelsLutBytes, "kernels.lut.bytes", Counter, None) \
    X(KernelsAxpyElements, "kernels.axpy.elements", Counter, None) \
    X(KernelsAxpyBytes, "kernels.axpy.bytes", Counter, None) \
    X(ParallelCalls, "parallel.calls", Counter, None) \
    X(ParallelItems, "parallel.items", Counter, None) \
    X(ParallelWorkers, "parallel.workers", Gauge, None) \
    X(ParallelWorkerUtilization, "parallel.worker_utilization", Histogram, None) \
    /* Live serving runtime. */ \
    X(LiveRequests, "serving.live.requests", Counter, ServingLive) \
    X(LiveRejected, "serving.live.rejected", Counter, ServingLive) \
    X(LiveCompleted, "serving.live.completed", Counter, ServingLive) \
    X(LiveShed, "serving.live.shed", Counter, ServingLive) \
    X(LiveDeadlineTimeouts, "serving.live.deadline_timeouts", Counter, ServingLive) \
    X(LiveFailedRequests, "serving.live.failed_requests", Counter, ServingLive) \
    X(LiveBatches, "serving.live.batches", Counter, ServingLive) \
    X(LiveBatchRetries, "serving.live.batch_retries", Counter, ServingLive) \
    X(LiveFailedBatches, "serving.live.failed_batches", Counter, ServingLive) \
    X(LiveQueueDepth, "serving.live.queue_depth", Gauge, ServingLive) \
    X(LiveAvailability, "serving.live.availability", Gauge, ServingLive) \
    X(LiveRequestLatencyS, "serving.live.request_latency_s", Histogram, ServingLive) \
    X(LiveQueueWaitS, "serving.live.queue_wait_s", Histogram, ServingLive) \
    X(LiveBatchSize, "serving.live.batch_size", Histogram, ServingLive) \
    X(LiveBatchServiceS, "serving.live.batch_service_s", Histogram, ServingLive) \
    X(LiveBatchQueueDepth, "serving.live.batch_queue_depth", Histogram, ServingLive) \
    /* Resilient control plane and the chaos harness. */ \
    X(LiveWatchdogHangs, "serving.live.watchdog.hangs", Counter, Resilience) \
    X(LiveWatchdogRespawns, "serving.live.watchdog.respawns", Counter, Resilience) \
    X(LiveWatchdogDiscarded, "serving.live.watchdog.discarded", Counter, Resilience) \
    X(LiveBreakerState, "serving.live.breaker.state", Gauge, Resilience) \
    X(LiveBreakerOpens, "serving.live.breaker.opens", Counter, Resilience) \
    X(LiveBreakerCloses, "serving.live.breaker.closes", Counter, Resilience) \
    X(LiveBreakerProbes, "serving.live.breaker.probes", Counter, Resilience) \
    X(LiveBreakerShortCircuited, "serving.live.breaker.short_circuited", Counter, Resilience) \
    X(LivePoisonIsolated, "serving.live.poison_isolated", Counter, Resilience) \
    X(LiveBisections, "serving.live.bisections", Counter, Resilience) \
    X(LiveShedAdmission, "serving.live.shed_admission", Counter, Resilience) \
    X(LiveOverloadRejected, "serving.live.overload_rejected", Counter, Resilience) \
    X(LiveInflightLimit, "serving.live.inflight_limit", Gauge, Resilience) \
    X(ChaosWorkerStalls, "chaos.worker_stalls", Counter, Resilience) \
    X(ChaosExceptions, "chaos.exceptions", Counter, Resilience) \
    X(ChaosSlowBatches, "chaos.slow_batches", Counter, Resilience) \
    X(ChaosHeartbeatLosses, "chaos.heartbeat_losses", Counter, Resilience) \
    /* Timing backends. */ \
    X(BackendImpl, "backend.impl", Gauge, BackendXval) \
    X(BackendTxnCommandsIssued, "backend.txn.commands_issued", Counter, BackendXval) \
    X(BackendTxnBankConflicts, "backend.txn.bank_conflicts", Counter, BackendXval) \
    X(BackendTxnModeSwitches, "backend.txn.mode_switches", Counter, BackendXval) \
    X(BackendTxnTraceSuppressed, "backend.txn.trace_suppressed", Counter, BackendXval) \
    X(BackendXvalMeanRelErr, "backend.xval.mean_rel_err", Gauge, BackendXval) \
    X(BackendXvalMaxRelErr, "backend.xval.max_rel_err", Gauge, BackendXval) \
    X(BackendXvalBound, "backend.xval.bound", Gauge, BackendXval) \
    /* Plan verifier. */ \
    X(VerifyPlansVerified, "verify.plans_verified", Counter, Verify) \
    X(VerifyPassesRun, "verify.passes_run", Counter, Verify) \
    X(VerifyDiagnostics, "verify.diagnostics", Counter, Verify) \
    X(VerifyErrors, "verify.errors", Counter, Verify) \
    X(VerifyWallS, "verify.wall_s", Histogram, Verify) \
    /* Host<->PIM transfer engine. */ \
    X(TransferBursts, "transfer.bursts", Counter, Transfer) \
    X(TransferCoalescedBytes, "transfer.coalesced_bytes", Counter, Transfer) \
    X(TransferMergedPieces, "transfer.merged_pieces", Counter, Transfer) \
    X(TransferStagedBursts, "transfer.staged_bursts", Counter, Transfer) \
    X(TransferStagedBytes, "transfer.staged_bytes", Counter, Transfer) \
    X(TransferStalls, "transfer.stalls", Counter, Transfer) \
    X(TransferCorruptRetries, "transfer.corrupt_retries", Counter, Transfer) \
    X(TransferResidentHits, "transfer.resident_hits", Counter, Transfer) \
    X(TransferResidentMisses, "transfer.resident_misses", Counter, Transfer) \
    X(TransferEvictions, "transfer.evictions", Counter, Transfer) \
    X(TransferOverlapFrac, "transfer.overlap_frac", Gauge, Transfer) \
    X(TransferResidentBytes, "transfer.resident_bytes", Gauge, Transfer) \
    X(TransferStageWallS, "transfer.stage_wall_s", Histogram, Transfer)
// clang-format on

/** Identifier of one catalog entry. */
enum class Metric : std::uint16_t
{
#define PIMDL_METRIC_ID(id, name, kind, mode) id,
    PIMDL_METRIC_CATALOG(PIMDL_METRIC_ID)
#undef PIMDL_METRIC_ID
};

struct MetricInfo
{
    const char *name;
    MetricKind kind;
    RequireMode mode;
};

/** The catalog, indexed by Metric. */
inline constexpr MetricInfo kMetricCatalog[] = {
#define PIMDL_METRIC_INFO(id, name, kind, mode)                          \
    {name, MetricKind::kind, RequireMode::mode},
    PIMDL_METRIC_CATALOG(PIMDL_METRIC_INFO)
#undef PIMDL_METRIC_INFO
};

constexpr const MetricInfo &
metricInfo(Metric metric)
{
    return kMetricCatalog[static_cast<std::size_t>(metric)];
}

/** "counter", "gauge" or "histogram". */
constexpr const char *
metricKindName(MetricKind kind)
{
    constexpr const char *names[] = {"counter", "gauge", "histogram"};
    return names[static_cast<int>(kind)];
}

/** The mode's check_metrics.py spelling: "base", "fault-exec", ... */
constexpr const char *
requireModeName(RequireMode mode)
{
    constexpr const char *names[] = {
        "base",       "fault-exec", "serving-live", "backend-xval",
        "resilience", "verify",     "transfer",     "none"};
    return names[static_cast<int>(mode)];
}

} // namespace obs
} // namespace pimdl

#endif // PIMDL_OBS_METRIC_CATALOG_H
