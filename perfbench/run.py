#!/usr/bin/env python3
"""Host-performance benchmark of the split-memory simulator.

Builds perfbench/ (which compiles the simulator from ../src) into
$CARGO_TARGET_DIR, default .bench_build, then runs one workload in a fresh
process and prints its metrics. The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.

  python3 perfbench/run.py --workload serve --seed 1 --seconds 45 --trace 0
  python3 perfbench/run.py --self-test    # every workload at a tiny size
  python3 perfbench/run.py --record       # rewrite perfbench/reference.json

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer ones and
writes the spans to <build dir>/spans/. See perfbench/README.md.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("serve", "pingpong", "fuzz", "forkserver")
# Seeds with a recorded simulated reference (reference.json). The held-out
# seed is for re-checking a gain on inputs not used while writing it.
DEFAULT_SEED = 1
HELDOUT_SEED = 2
REFERENCE = os.path.join(HERE, "reference.json")
RUN_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    d = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Configures once, then rebuilds incrementally. Returns the binary."""
    bdir = build_dir()
    steps = []
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", bdir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", bdir, "--target", "perfbench",
                  "-j", str(min(4, os.cpu_count() or 1))])
    # Keep the compiler's temporary files inside the build directory too.
    tmp = os.path.join(bdir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          env=env).returncode:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))
    return os.path.join(bdir, "perfbench")


def run_binary(binary, workload, seed, seconds, trace, size="full"):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0",
           "--size", size]
    if trace:
        spans = os.path.join(build_dir(), "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(spans, f"{workload}-{seed}.jsonl")]
    try:
        p = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S,
                           text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} did not finish in "
                         f"{RUN_TIMEOUT_S} s")
    lines = p.stdout.strip().splitlines()
    if p.returncode or not lines:
        raise SystemExit(f"perfbench: {workload} exited {p.returncode}")
    return json.loads(lines[-1])


def reference_key(workload, size, seed):
    return f"{workload}/{size}/{'*' if workload == 'pingpong' else seed}"


def expected_metrics(trace):
    """{name: unit} from BENCHMARK.json, or None outside a full checkout."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def check(res, size):
    """Failures beyond the binary's own checks: the recorded reference."""
    problems = list(res["failures"])
    if os.path.exists(REFERENCE):
        with open(REFERENCE) as f:
            ref = json.load(f).get(reference_key(res["workload"], size,
                                                 res["seed"]))
        if ref is not None and ref != res["fingerprint"]:
            problems.append("simulated results differ from reference.json: "
                            f"{res['fingerprint']} != {ref}")
    return problems


def report(res, problems, trace):
    expected = expected_metrics(trace)
    got = {k: v["unit"] for k, v in res["metrics"].items()}
    if expected is not None and got != expected:
        problems.append(f"metrics {sorted(got.items())} do not match "
                        f"BENCHMARK.json {sorted(expected.items())}")
    attempted = res["attempted"]
    failed = attempted if problems and not res["failed"] else res["failed"]
    print(f"workload {res['workload']}  seed {res['seed']}  "
          f"attempted {attempted}  failed {failed}  "
          f"fail_frac {failed / max(attempted, 1):.6g}")
    for name, m in res["metrics"].items():
        print(f"  {name:36s} {m['value']:>18.6g} {m['unit']:9s} [{m['kind']}]")
    if res["percentiles"]:
        print("  percentiles:", res["percentiles"])
    print("  notes:", res["notes"])
    for p in problems:
        log("perfbench: FAILED:", p)
    out = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in res["metrics"].items()},
    }
    print(json.dumps(out), flush=True)
    return 0 if not problems else 1


def self_test(binary):
    """Every workload at a tiny size: all metrics present with their units,
    and the simulated ones identical across two back-to-back runs."""
    ok = True
    for w in WORKLOADS:
        for trace in (False, True):
            runs = [run_binary(binary, w, DEFAULT_SEED, 0.5, trace, "tiny")
                    for _ in range(2)]
            expected = expected_metrics(trace)
            errors = []
            for r in runs:
                errors += r["failures"]
                got = {k: v["unit"] for k, v in r["metrics"].items()}
                if expected is not None and got != expected:
                    errors.append("metric names or units differ from "
                                  "BENCHMARK.json")
            a, b = (r["metrics"] for r in runs)
            errors += [f"{k} {a[k]['value']} != {b[k]['value']}"
                       for k in a if a[k]["kind"] == "sim"
                       and a[k]["value"] != b[k]["value"]]
            if runs[0]["fingerprint"] != runs[1]["fingerprint"]:
                errors.append("fingerprints differ")
            print(f"{w:10s} trace={int(trace)} "
                  f"{'ok' if not errors else 'FAIL: ' + '; '.join(errors)}")
            ok = ok and not errors
    return 0 if ok else 1


def record(binary):
    ref = {}
    for w in WORKLOADS:
        for seed in (DEFAULT_SEED, HELDOUT_SEED):
            res = run_binary(binary, w, seed, 0, False)
            if res["failures"]:
                raise SystemExit(f"perfbench: {w} failed: {res['failures']}")
            ref[reference_key(w, "full", seed)] = res["fingerprint"]
    with open(REFERENCE, "w") as f:
        f.write("{\n" + ",\n".join(f" {json.dumps(k)}: {json.dumps(v)}"
                                   for k, v in sorted(ref.items())) + "\n}\n")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=45)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()
    binary = build()
    if args.self_test:
        return self_test(binary)
    if args.record:
        return record(binary)
    if not args.workload:
        ap.error("--workload is required")
    res = run_binary(binary, args.workload, args.seed, args.seconds,
                     bool(args.trace), args.size)
    return report(res, check(res, args.size), bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
