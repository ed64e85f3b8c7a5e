#!/usr/bin/env python3
"""Validate a pimdl metrics snapshot (--metrics-out artifact).

Every snapshot carries the C++ metric catalog (src/obs/metric_catalog.h)
as its "catalog" section: each check mode mapped to the counters,
gauges and histograms it requires. This script requires the "base"
mode and every mode named by a --require-<mode> flag: each name must be
present in its section, and each histogram must carry the full summary
and at least one sample. It then runs the semantic checks of those
modes (ordered latency percentiles, the backend cross-validation bound,
transfer sanity, verifier errors, breaker state).

Usage: check_metrics.py <snapshot.json> [--require-<mode> ...]
                        [--require-lockorder-clean]

The modes are the catalog's: fault-exec, serving-live, backend-xval,
resilience, verify and transfer. Each only holds for a run that drove
that subsystem (bench_fault_tolerance, bench_serving_live,
bench_backend_xval, bench_chaos, a --verify-plans run, bench_transfer).

--require-lockorder-clean fails when the runtime lock-order analysis
(PIMDL_DEADLOCK_CHECK) was not enabled for the run or reported any
potential deadlock: a lock-order cycle, a self-lock, or a wait on a
CondVar while holding another mutex.

Exit status: 0 when every check passes, 1 when the snapshot fails one,
2 on bad usage (an unknown mode or a second positional argument).
"""

import json
import sys

SCHEMA = "pimdl.metrics.v1"
SECTIONS = ("counters", "gauges", "histograms")
HISTOGRAM_FIELDS = ["count", "sum", "min", "max", "mean", "p50", "p95", "p99"]
LOCKORDER_CLEAN = "lockorder-clean"


def fail(message):
    print(f"check_metrics: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def usage(message):
    print(
        f"check_metrics: {message}\n"
        f"usage: {sys.argv[0]} <snapshot.json> [--require-<mode> ...] "
        "[--require-lockorder-clean]",
        file=sys.stderr,
    )
    sys.exit(2)


def require_ordered(snap, name):
    hist = snap["histograms"][name]
    if not 0 < hist["p50"] <= hist["p95"] <= hist["p99"]:
        fail(
            f"{name} percentiles not ordered: p50={hist['p50']} "
            f"p95={hist['p95']} p99={hist['p99']}"
        )


def check_base(snap):
    require_ordered(snap, "serving.request_latency_s")


def check_serving_live(snap):
    if snap["counters"]["serving.live.completed"] == 0:
        fail("live serving run completed no requests")
    require_ordered(snap, "serving.live.request_latency_s")


def check_resilience(snap):
    state = snap["gauges"]["serving.live.breaker.state"]
    if state not in (0, 1, 2):
        fail(f"implausible breaker state gauge {state!r}")
    if snap["gauges"]["serving.live.inflight_limit"] <= 0:
        fail("in-flight limit gauge must be positive")


def check_backend_xval(snap):
    if snap["counters"]["backend.txn.commands_issued"] == 0:
        fail("transaction backend issued no commands")
    mean_err = snap["gauges"]["backend.xval.mean_rel_err"]
    bound = snap["gauges"]["backend.xval.bound"]
    if not 0 < bound <= 1:
        fail(f"implausible backend xval bound {bound}")
    if mean_err >= bound:
        fail(
            "backend cross-validation mean relative error "
            f"{mean_err:.4f} >= committed bound {bound:.4f}"
        )


def check_transfer(snap):
    counters = snap["counters"]
    if counters["transfer.bursts"] == 0:
        fail("transfer engine formed no bursts")
    if counters["transfer.staged_bursts"] == 0:
        fail("transfer scheduler staged no bursts")
    if counters["transfer.resident_hits"] + counters[
        "transfer.resident_misses"
    ] == 0:
        fail("resident-LUT placement was never consulted")
    overlap = snap["gauges"]["transfer.overlap_frac"]
    if not 0 <= overlap <= 1:
        fail(f"implausible transfer overlap fraction {overlap!r}")


def check_verify(snap):
    if snap["counters"]["verify.plans_verified"] == 0:
        fail("verification enabled but no plans were verified")
    errors = snap["counters"]["verify.errors"]
    if errors != 0:
        fail(f"verifier reported {errors} error(s) on lowered plans")


def check_lockorder_clean(snap):
    counters = snap["counters"]
    if snap["gauges"]["analysis.lockorder.enabled"] != 1:
        fail(
            "lock-order cleanliness required but the detector was "
            "not enabled for this run (PIMDL_DEADLOCK_CHECK)"
        )
    for name in (
        "analysis.lockorder.cycles",
        "analysis.lockorder.self_lock",
        "analysis.lockorder.wait_while_holding",
    ):
        if counters[name] != 0:
            fail(
                f"lock-order analysis reported {counters[name]} "
                f"violation(s) in {name!r} — see the run's stderr for "
                "the cycle report"
            )
    if counters["analysis.lockorder.acquisitions"] == 0:
        fail(
            "lock-order analysis enabled but tracked no acquisitions "
            "— detector wiring is broken"
        )


SEMANTIC_CHECKS = {
    "base": check_base,
    "serving-live": check_serving_live,
    "resilience": check_resilience,
    "backend-xval": check_backend_xval,
    "transfer": check_transfer,
    "verify": check_verify,
    LOCKORDER_CLEAN: check_lockorder_clean,
}


def require_present(snap, mode, required):
    for section in SECTIONS:
        for name in required.get(section, []):
            if name not in snap[section]:
                fail(f"missing {mode} {section[:-1]} {name!r}")
            if section != "histograms":
                continue
            hist = snap[section][name]
            for field in HISTOGRAM_FIELDS:
                if field not in hist:
                    fail(f"histogram {name!r} missing field {field!r}")
            if hist["count"] == 0:
                fail(f"histogram {name!r} recorded no samples")


def main():
    modes = []
    paths = []
    for arg in sys.argv[1:]:
        if arg.startswith("--require-"):
            modes.append(arg[len("--require-"):])
        elif arg.startswith("-"):
            usage(f"unknown option {arg!r}")
        else:
            paths.append(arg)
    if len(paths) != 1:
        usage(f"expected one snapshot path, got {len(paths)}")

    try:
        with open(paths[0]) as fh:
            snap = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot load snapshot: {exc}")

    if snap.get("schema") != SCHEMA:
        fail(f"schema mismatch: {snap.get('schema')!r} != {SCHEMA!r}")
    for section in SECTIONS + ("trace", "catalog"):
        if section not in snap:
            fail(f"missing section {section!r}")

    catalog = snap["catalog"]
    valid = sorted(set(catalog) - {"base"}) + [LOCKORDER_CLEAN]
    for mode in modes:
        if mode not in valid:
            usage(
                f"unknown mode --require-{mode} "
                f"(valid: {', '.join(valid)})"
            )

    for mode in ["base"] + modes:
        if mode in catalog:
            require_present(snap, mode, catalog[mode])
    for mode in ["base"] + modes:
        if mode in SEMANTIC_CHECKS:
            SEMANTIC_CHECKS[mode](snap)

    print(
        f"check_metrics: OK ({len(snap['counters'])} counters, "
        f"{len(snap['gauges'])} gauges, {len(snap['histograms'])} "
        f"histograms, trace recorded={snap['trace']['recorded']})"
    )


if __name__ == "__main__":
    main()
