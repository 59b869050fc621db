#!/usr/bin/env python3
"""Guard BENCH_figures.json against simulated-figure drift.

The figure battery is deterministic: regenerating it (tools/bench_json.py
--figures) must reproduce the committed simulated metrics exactly, at any
--jobs and on any host. This script compares a freshly generated document
— typically produced with --quick, whose point sets are label subsets of
the full battery — against the committed one on the intersection of point
labels per bench, comparing only the "metrics" maps. Host-time fields
(wall_seconds, total_wall_seconds, jobs) legitimately vary and are
ignored.

Exit 0: every shared point's metrics are identical.
Exit 1: a metric drifted, a bench disappeared, or nothing overlapped.

With --microbench, additionally (or instead) checks that the committed
BENCH_microbench.json carries every expected benchmark label — the
perf-trajectory record must not silently lose a benchmark when the suite
is regenerated on a machine with an older binary.

With --server, checks the committed BENCH_server.json (the server-load
throughput + tail-latency record, schema: a "quick", a "full" and an
"overload" section, each a runner --json document): every section must
carry the expected point labels with the full metric set and completed
runs. Passing --fresh-server with a freshly generated `server_load
--quick --json` sidecar additionally diffs its simulated metrics against
the committed "quick" section exactly — the same drift guard the figure
battery gets (the "full" 10^5-request sweep is too slow for CI and is
label-checked only). --fresh-overload does the same for an
`overload_sweep --quick --json` sidecar against the committed "overload"
section.

Usage:
  tools/check_figures.py --fresh fresh.json [--committed BENCH_figures.json]
  tools/check_figures.py --microbench [BENCH_microbench.json]
  tools/check_figures.py --server [BENCH_server.json] [--fresh-server q.json]
                         [--fresh-overload ov.json]
"""
import argparse
import json
import os
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Every benchmark the committed BENCH_microbench.json must carry. Grows
# with the simulator's fast-path inventory; shrinking it is a red flag.
MICROBENCH_LABELS = [
    "BM_TlbLookupHit",
    "BM_TlbInsertEvict",
    "BM_PageTableWalk",
    "BM_CpuStepArithmetic",
    "BM_CpuStepCached",
    "BM_BlockExec",
    "BM_BlockChainInvalidate",
    "BM_FetchFastPath",
    "BM_DataMemo",
    "BM_DecodeCacheInvalidate",
    "BM_SplitFaultProtocol",
    "BM_Sha256_4K",
    "BM_AssembleGuestLibc",
    "BM_KernelConstruct",
    "BM_KernelRestore",
    "BM_ExitDigest",
]


# Point labels and metrics every BENCH_server.json section must carry.
# The quick set additionally carries the 4-core SMP leg (per-core split
# TLBs + IPI shootdown); the 10^5-request full sweep stays single-core.
# The "overload" section is the open-loop overload_sweep --quick record:
# offered-load multiples of measured capacity, split on/off, plus the
# saturated 4-core leg.
SERVER_POINT_LABELS = {
    "quick": ["no-split", "split-all", "split-smp4"],
    "full": ["no-split", "split-all"],
    "overload": ["none-0.5x", "none-2x", "split-0.5x", "split-2x",
                 "split-2x-smp4"],
}
SERVER_METRICS = ["throughput_rpmc", "p50", "p99", "p999", "latency_mean",
                  "cycles", "ctxsw", "completed"]
OVERLOAD_METRICS = ["offered_rpmc", "effective_rpmc", "goodput_rpmc",
                    "completed_n", "shed_queue", "shed_deadline",
                    "worker_drops", "lost_responses", "retries", "p50",
                    "p99", "cycles", "timer_fires", "sock_refused",
                    "completed"]
SECTION_METRICS = {
    "quick": SERVER_METRICS,
    "full": SERVER_METRICS,
    "overload": OVERLOAD_METRICS,
}


def load(path):
    with open(path) as f:
        return json.load(f)


def check_microbench(path) -> int:
    doc = load(path)
    # run_name: aggregate rows suffix "name" with _mean, _median, ...
    names = {b["run_name"].split("/")[0] for b in doc.get("benchmarks", [])}
    missing = [l for l in MICROBENCH_LABELS if l not in names]
    if missing:
        print(f"MICROBENCH LABELS MISSING from {path}: {missing}",
              file=sys.stderr)
        return 1
    print(f"microbench OK: all {len(MICROBENCH_LABELS)} expected labels "
          f"present in {path}")
    return 0


def points_by_label(bench_doc):
    return {p["label"]: p.get("metrics", {}) for p in bench_doc["points"]}


def diff_section(doc, section, fresh_path, failures):
    """Exact-diff a freshly generated sidecar against a committed section."""
    ref = points_by_label(doc[section])
    fresh = points_by_label(load(fresh_path))
    for label in SERVER_POINT_LABELS[section]:
        if label not in fresh:
            failures.append(f"fresh {section} run: point '{label}' missing")
        elif label in ref and fresh[label] != ref[label]:
            failures.append(
                f"{section}/{label}: metrics drifted\n"
                f"    fresh:     {json.dumps(fresh[label], sort_keys=True)}\n"
                f"    committed: {json.dumps(ref[label], sort_keys=True)}")


def check_server(committed_path, fresh_path=None, fresh_overload=None) -> int:
    doc = load(committed_path)
    failures = []
    for section in ("quick", "full", "overload"):
        if section not in doc:
            failures.append(f"section '{section}' missing")
            continue
        pts = points_by_label(doc[section])
        for label in SERVER_POINT_LABELS[section]:
            if label not in pts:
                failures.append(f"{section}: point '{label}' missing")
                continue
            metrics = pts[label]
            absent = [k for k in SECTION_METRICS[section] if k not in metrics]
            if absent:
                failures.append(f"{section}/{label}: metrics missing {absent}")
            elif metrics["completed"] != 1:
                failures.append(f"{section}/{label}: run did not complete")
    if fresh_path and "quick" in doc:
        diff_section(doc, "quick", fresh_path, failures)
    if fresh_overload and "overload" in doc:
        diff_section(doc, "overload", fresh_overload, failures)
    if failures:
        print(f"SERVER BENCH PROBLEMS in {committed_path}:", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    checked = "labels"
    if fresh_path:
        checked += " + quick-metrics drift"
    if fresh_overload:
        checked += " + overload-metrics drift"
    print(f"server OK: {checked} checked against {committed_path}")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--fresh",
                    help="freshly generated figures JSON (e.g. --quick run)")
    ap.add_argument("--committed",
                    default=os.path.join(REPO_ROOT, "BENCH_figures.json"),
                    help="committed reference (default: repo root)")
    ap.add_argument("--microbench", nargs="?",
                    const=os.path.join(REPO_ROOT, "BENCH_microbench.json"),
                    help="check BENCH_microbench.json for the expected "
                         "benchmark labels (optional path argument)")
    ap.add_argument("--server", nargs="?",
                    const=os.path.join(REPO_ROOT, "BENCH_server.json"),
                    help="check BENCH_server.json labels/completion "
                         "(optional path argument)")
    ap.add_argument("--fresh-server",
                    help="freshly generated `server_load --quick --json` "
                         "sidecar to diff against the committed quick "
                         "section (requires --server)")
    ap.add_argument("--fresh-overload",
                    help="freshly generated `overload_sweep --quick --json` "
                         "sidecar to diff against the committed overload "
                         "section (requires --server)")
    args = ap.parse_args()

    rc = 0
    if args.microbench:
        rc = check_microbench(args.microbench)
    if args.server:
        rc = check_server(args.server, args.fresh_server,
                          args.fresh_overload) or rc
    if not args.fresh:
        if not args.microbench and not args.server:
            ap.error("--fresh, --microbench or --server required")
        return rc

    fresh = load(args.fresh)["figures"]
    committed = load(args.committed)["figures"]

    failures = []
    compared = 0
    for bench, fresh_doc in sorted(fresh.items()):
        if bench not in committed:
            failures.append(f"{bench}: present in fresh run but not in the "
                            f"committed reference")
            continue
        ref_points = points_by_label(committed[bench])
        fresh_points = points_by_label(fresh_doc)
        shared = sorted(set(ref_points) & set(fresh_points))
        if not shared:
            failures.append(f"{bench}: no overlapping point labels "
                            f"(fresh: {sorted(fresh_points)[:4]}..., "
                            f"committed: {sorted(ref_points)[:4]}...)")
            continue
        for label in shared:
            if fresh_points[label] != ref_points[label]:
                failures.append(
                    f"{bench} / {label}: metrics drifted\n"
                    f"    fresh:     {json.dumps(fresh_points[label], sort_keys=True)}\n"
                    f"    committed: {json.dumps(ref_points[label], sort_keys=True)}")
            else:
                compared += 1

    # A committed bench the fresh run produced no points for is a FAILURE,
    # not a skip: silently dropping a bench from the regeneration path is
    # exactly the kind of drift this guard exists to catch (a bench that
    # stopped building, a battery list that lost an entry).
    for bench in sorted(set(committed) - set(fresh)):
        failures.append(f"{bench}: committed reference section exists but "
                        f"the fresh run produced no points for it")

    if failures:
        print(f"FIGURE DRIFT: {len(failures)} problem(s) "
              f"({compared} points matched)", file=sys.stderr)
        for f in failures:
            print(f"  {f}", file=sys.stderr)
        return 1
    print(f"figures OK: {compared} shared points bit-identical "
          f"across {len(fresh)} benches")
    return rc


if __name__ == "__main__":
    sys.exit(main())
