"""Benchmark for quadrings: four workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from the root of a checkout; the package is imported from ./src.  The
workloads are classify, fibers, queries and cli (see workloads.py).  Each
run is one closed-loop client: set-up is timed SETUP_SAMPLES times from
process start to the first timed op, then passes over the workload's ops run
for about S seconds.  Every op's output is checked against golden digests
(classify, fibers, cli) or independent oracles (queries); a wrong output is a
failed op.  With --trace 1 the run is one traced pass under two
PYTHONHASHSEED values instead, giving the per-layer metrics, the tracing
overhead and a determinism check.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ["classify", "fibers", "queries", "cli"]
SETUP_SAMPLES = 3
CHILD_TIMEOUT_S = 150

E2E_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "rings.scan_calls": "count", "rings.scan_s": "s", "rings.mul_calls": "count",
    "rings.self_s": "s",
    "quadratic.basis_changes": "count", "quadratic.classify_s": "s",
    "quadratic.pairs_per_basis_change": "ratio", "quadratic.is_isomorphic_s": "s",
    "quadratic.quad_monoid_s": "s", "quadratic.self_s": "s",
    "discriminants.disc_classifications_built": "count",
    "discriminants.disc_classes_s": "s", "discriminants.disc_hom_check_s": "s",
    "discriminants.self_s": "s",
    "artin_schreier.fiber_report_s": "s", "artin_schreier.as_group_s": "s",
    "artin_schreier.sec_s": "s", "artin_schreier.check_freeness_s": "s",
    "artin_schreier.self_s": "s",
    "monoids.validate_s": "s", "monoids.grothendieck_s": "s", "monoids.self_s": "s",
    "identities.verify_s": "s", "identities.self_s": "s",
    "cli.interpreter_s": "s", "cli.import_s": "s", "cli.main_s": "s",
    "cli.stdout_bytes": "bytes", "cli.self_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count", "determinism.mismatches": "count",
}


class BenchError(Exception):
    pass


def start_session(workload, seed, mode, seconds=1.0, quick=False, overhead=False, env=None):
    """Start session.py; returns (process, (scaled, raw) seconds from spawn to `ready`)."""
    cmd = [sys.executable, str(HERE / "session.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]
    cmd += ["--quick"] * quick + ["--overhead"] * overhead
    with speed.SpeedLog() as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, env=env)
        try:
            line = proc.stdout.readline()
        except BaseException:
            stop(proc)
            raise
        t1 = time.perf_counter()
    if line.strip() != "ready":
        stop(proc)
        raise BenchError(f"{workload} session failed during set-up (exit {proc.returncode})")
    return proc, log.scale(t0, t1, elsewhere=True)


def stop(proc):
    if proc.poll() is None:
        proc.kill()
    proc.wait()


def finish(proc, want_result=True) -> dict:
    try:
        out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError("session timed out")
    finally:
        stop(proc)
    if proc.returncode != 0:
        raise BenchError(f"session exited with {proc.returncode}")
    lines = out.strip().splitlines()
    if not want_result:
        return {}
    if not lines:
        raise BenchError("session printed no result")
    return json.loads(lines[-1])


def percentile(values, q):
    """The q-th percentile (exclusive method, as statistics.quantiles)."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def untraced(workload, seed, seconds, quick=False):
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_session(workload, seed, "setup", quick=quick)
        finish(proc, want_result=False)
        setups.append(setup)
    proc, setup = start_session(workload, seed, "run", seconds, quick=quick)
    setups.append(setup)
    res = finish(proc)

    def measure(samples, setup_times):
        flat = [t for times in samples.values() for t in times]
        return {
            "setup_s": statistics.median(setup_times),
            "wall_s": sum(statistics.median(times) for times in samples.values()),
            "op_p50_ms": statistics.median(flat) * 1e3,
            "op_p90_ms": percentile(flat, 90) * 1e3,
            "peak_rss_mb": res["peak_rss_kb"] / 1024,
        }, flat

    metrics, flat = measure(res["samples"], [s for s, _ in setups])
    raw, _ = measure(res["raw_samples"], [r for _, r in setups])
    beyond = sum(t * 1e3 > metrics["op_p90_ms"] for t in flat)
    lines = [
        f"workload={workload} seed={seed} passes={res['passes']} samples={len(flat)} "
        f"beyond_p90={beyond} fail_ratio={res['failed'] / res['attempted']:.4f} "
        f"({res['failed']}/{res['attempted']})",
        "raw (unscaled): " + " ".join(f"{k}={raw[k]:.6g}" for k in E2E_UNITS),
    ]
    probed, wrong = res["probe"]
    if probed:
        lines.append(f"known-defect probe, untimed and not counted as failed ops: "
                     f"{len(wrong)} of {probed} outputs wrong")
        lines += [f"  wrong: {w}" for w in wrong]
    slots = sorted(res["samples"], key=lambda k: -statistics.median(res["samples"][k]))
    if len(slots) > 20:
        slots = slots[:10]
        lines.append("slowest 10 op slots:")
    lines += [f"  slot {k}: median {statistics.median(res['samples'][k]) * 1e3:.3f} ms, "
              f"raw {statistics.median(res['raw_samples'][k]) * 1e3:.3f} ms" for k in slots]
    return metrics, E2E_UNITS, res, lines + [f"failed: {f}" for f in res["failures"]], True


def hash_seeds(seed):
    first = 1 + (2 * seed) % 4_000_000_000
    return str(first), str(first + 1)


def traced(workload, seed, quick=False):
    runs = []
    for i, hash_seed in enumerate(hash_seeds(seed)):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        proc, _ = start_session(workload, seed, "trace", quick=quick, overhead=(i == 0), env=env)
        runs.append(finish(proc))
    first, second = runs
    notes = []
    for key in sorted(set(first["counts"]) | set(second["counts"])):
        a, b = first["counts"].get(key), second["counts"].get(key)
        if a != b:
            notes.append(f"determinism: {key} called {a} vs {b} times")
    for a, b in zip(first["digests"], second["digests"]):
        if a != b:
            notes.append(f"determinism: output of {a[0]} differs between hash seeds")
    digests_match = first["digests"] == second["digests"]
    metrics = dict(first["layer"])
    metrics["trace.overhead_s"] = first["traced_wall_s"] - first["untraced_wall_s"]
    metrics["determinism.mismatches"] = len(notes) + (not digests_match and not notes)
    summary = (f"workload={workload} seed={seed} traced pass: ops={first['attempted']} "
               f"untraced_wall_s={first['untraced_wall_s']:.4f} "
               f"traced_wall_s={first['traced_wall_s']:.4f} hash_seeds={','.join(hash_seeds(seed))}")
    failed = first["failed"] + second["failed"]
    res = {"attempted": first["attempted"] + second["attempted"], "failed": failed}
    lines = [summary] + notes + [f"failed: {f}" for f in first["failures"] + second["failures"]]
    return metrics, LAYER_UNITS, res, lines, digests_match


def run(workload, seed, seconds, trace, quick=False):
    if trace:
        metrics, units, res, lines, ok = traced(workload, seed, quick)
    else:
        metrics, units, res, lines, ok = untraced(workload, seed, seconds, quick)
    result = {
        "correct": ok and res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    return result, lines


def self_test() -> int:
    """Smallest ring or op of each workload, one pass, untraced and traced."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            result, lines = run(workload, 1, 1.0, trace, quick=True)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want[trace]:
                problems.append(f"{workload} trace={trace}: metrics {sorted(got.items())} "
                                f"!= BENCHMARK.json {sorted(want[trace].items())}")
            bad = [k for k, v in result["metrics"].items()
                   if not isinstance(v["value"], (int, float))]
            if bad or result["attempted"] < 1:
                problems.append(f"{workload} trace={trace}: bad values {bad}")
            if trace and result["metrics"]["determinism.mismatches"]["value"]:
                problems.append(f"{workload}: determinism check failed: {lines}")
            print(f"self-test {workload} trace={trace}: attempted={result['attempted']} "
                  f"failed={result['failed']} metrics={len(got)}", flush=True)
    for p in problems:
        print(f"self-test problem: {p}", file=sys.stderr)
    print("self-test: " + ("ok" if not problems else f"{len(problems)} problems"))
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--self-test", action="store_true")
    args = ap.parse_args()
    if not (ROOT / "src" / "quadrings" / "__init__.py").is_file():
        print(f"perfbench: no quadrings package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.self_test:
            return self_test()
        if args.workload is None:
            ap.error("--workload is required")
        result, lines = run(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    for name, m in result["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
