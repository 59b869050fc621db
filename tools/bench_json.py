#!/usr/bin/env python3
"""Benchmark JSON emitters: track the simulator's perf trajectory across PRs.

Two modes, two tracked files at the repo root:

  tools/bench_json.py
      Runs the google-benchmark microbench suite and writes
      BENCH_microbench.json (google-benchmark's own --benchmark_out schema,
      unchanged, so benchmark-diff tooling keeps working). Each benchmark
      runs MICRO_REPETITIONS times and only the aggregates are recorded
      (rows named <run_name>_mean/_median/_stddev/_cv): one run is a single
      sample of a host that drifts by more than most changes move it, so
      read the _median rows.

  tools/bench_json.py --figures [--jobs N] [--quick]
      Runs every figure/table/ablation binary through the parallel
      experiment runner with `--json`, and merges the per-bench sidecars
      into BENCH_figures.json:

          {
            "jobs": <runner threads per bench>,
            "total_wall_seconds": <whole battery>,
            "figures": {
              "<bench>": { "name", "jobs", "wall_seconds",
                           "points": [ {"label", "wall_seconds",
                                        "metrics": {...}} ] },
              ...
            }
          }

      Simulated metrics in "points" are jobs-invariant (the runner's
      determinism contract); only the wall_seconds fields change with host
      parallelism.

Both modes atomically replace the output file only after a successful run.
"""
import argparse
import json
import os
import subprocess
import sys
import time

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Keep in sync with SM_FIGURE_BENCHES in bench/CMakeLists.txt — except
# server_load, whose quick and full point sets differ in scale (64 vs 1000
# workers) and so cannot share one drift reference; it is tracked in its
# own BENCH_server.json (see tools/check_figures.py --server).
FIGURE_BENCHES = [
    "table1_wilander",
    "table2_realworld",
    "fig5_response_modes",
    "fig6_normalized",
    "fig7_ctxsw_stress",
    "fig8_apache_pagesize",
    "fig9_split_fraction",
    "ablation_nx_vs_split",
    "ablation_portability",
    "ablation_tlb_geometry",
]

# Repetitions per microbenchmark; the record keeps their aggregates only.
MICRO_REPETITIONS = 5

# Benches whose non-zero exit codes are verdicts, not failures (table1
# exits non-zero unless every applicable attack cell is foiled — which full
# runs are, but --quick subsets need not be).
VERDICT_EXITS = {"table1_wilander", "table2_realworld", "ablation_nx_vs_split"}


def run_micro(args) -> int:
    exe = os.path.join(REPO_ROOT, args.build_dir, "bench", "microbench")
    if not os.path.exists(exe):
        print(f"error: {exe} not found — build the `microbench` target first "
              f"(cmake --build {args.build_dir} --target microbench)",
              file=sys.stderr)
        return 1

    out_path = os.path.join(REPO_ROOT, args.out or "BENCH_microbench.json")
    tmp_path = out_path + ".tmp"
    cmd = [exe,
           f"--benchmark_out={tmp_path}",
           "--benchmark_out_format=json",
           f"--benchmark_min_time={args.min_time}",
           f"--benchmark_repetitions={MICRO_REPETITIONS}",
           "--benchmark_report_aggregates_only=true"]
    if args.filter:
        cmd.append(f"--benchmark_filter={args.filter}")

    print("+", " ".join(cmd))
    proc = subprocess.run(cmd)
    if proc.returncode != 0:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        return proc.returncode
    os.replace(tmp_path, out_path)
    print(f"wrote {out_path}")
    return 0


def run_figures(args) -> int:
    bench_dir = os.path.join(REPO_ROOT, args.build_dir, "bench")
    missing = [b for b in FIGURE_BENCHES
               if not os.path.exists(os.path.join(bench_dir, b))]
    if missing:
        print(f"error: missing figure binaries {missing} in {bench_dir} — "
              f"build them first (cmake --build {args.build_dir})",
              file=sys.stderr)
        return 1

    figures = {}
    t0 = time.monotonic()
    for bench in FIGURE_BENCHES:
        exe = os.path.join(bench_dir, bench)
        sidecar = os.path.join(bench_dir, f"{bench}.points.json")
        cmd = [exe, f"--json={sidecar}", "--no-progress"]
        if args.jobs:
            cmd.append(f"--jobs={args.jobs}")
        if args.quick:
            cmd.append("--quick")
        print("+", " ".join(cmd))
        proc = subprocess.run(cmd, stdout=subprocess.DEVNULL)
        if proc.returncode != 0 and bench not in VERDICT_EXITS:
            print(f"error: {bench} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        with open(sidecar) as f:
            figures[bench] = json.load(f)
        os.unlink(sidecar)
    total = time.monotonic() - t0

    doc = {
        "jobs": figures[FIGURE_BENCHES[0]]["jobs"],
        "total_wall_seconds": round(total, 3),
        "figures": figures,
    }
    out_path = os.path.join(REPO_ROOT, args.out or "BENCH_figures.json")
    tmp_path = out_path + ".tmp"
    with open(tmp_path, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    os.replace(tmp_path, out_path)
    print(f"wrote {out_path} ({len(figures)} benches, "
          f"{total:.1f}s wall at jobs={doc['jobs']})")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--build-dir", default="build",
                    help="CMake build directory (default: build)")
    ap.add_argument("--out", default=None,
                    help="output path relative to the repo root (default: "
                         "BENCH_microbench.json / BENCH_figures.json)")
    ap.add_argument("--figures", action="store_true",
                    help="run the figure binaries and merge their --json "
                         "sidecars into BENCH_figures.json")
    ap.add_argument("--jobs", type=int, default=0,
                    help="--jobs for each figure bench (default: the "
                         "runner's hardware_concurrency autodetect)")
    ap.add_argument("--quick", action="store_true",
                    help="reduced point sets (figure mode only)")
    ap.add_argument("--min-time", default="0.1",
                    help="--benchmark_min_time per case (micro mode)")
    ap.add_argument("--filter", default="",
                    help="--benchmark_filter regex (micro mode)")
    args = ap.parse_args()
    return run_figures(args) if args.figures else run_micro(args)


if __name__ == "__main__":
    sys.exit(main())
