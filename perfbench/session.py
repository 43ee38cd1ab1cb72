"""One benchmark client: set up a workload, then run its passes.

Started by run.py, one process at a time.  It prints `ready` once set-up is
done, so the parent can time set-up from process start; in `setup` mode it
exits there.  In `run` mode it runs the workload's number of timed passes
for `--seconds`, then the workload's known-defect probe untimed, and prints
one JSON line with every op's time and the probe's wrong outputs.  In
`trace` mode it runs pass 0 traced (set-up included) and prints the
per-layer metrics, op counts and output digests.
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
HARD_STOP_S = 100.0   # no pass starts after this, so a run ends well within 180 s


def run_pass(workload, session, seed, index, tracer=None):
    """One pass.

    Returns ({slot: seconds at reference speed}, {slot: raw seconds},
    attempted, [failures], [digests]).
    """
    spans, failures, digests = [], [], []
    gen = workload.ops(session, workloads.pass_rng(workload.name, seed, index), index)
    result = None
    with speed.SpeedLog() as log:
        while True:
            try:
                op = gen.send(result)
            except StopIteration:
                break
            except Exception as exc:  # a result the pass could not continue from
                failures.append(f"pass {index} stopped: {type(exc).__name__}: {exc}")
                break
            if tracer is not None:
                tracer.op_id = len(spans)
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # the op failed; its check reports it
                result = exc
            spans.append((op.key, t0, time.perf_counter()))
            problem = op.check(result)
            if problem:
                failures.append(f"{op.key}: {problem}"[:300])
            digests.append([op.key, workloads.digest(result)])
    elsewhere = workload.name == "cli" and not session["inprocess"]
    times = {key: log.scale(t0, t1, elsewhere) for key, t0, t1 in spans}
    return ({key: t[0] for key, t in times.items()}, {key: t[1] for key, t in times.items()},
            len(spans), failures, digests)


def peak_rss_kb(name: str) -> int:
    who = resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss


def timed_run(workload, session, seed, passes):
    samples: dict[str, list[float]] = {}
    raw_samples: dict[str, list[float]] = {}
    failures = []
    attempted = done = 0
    start = time.perf_counter()
    for index in range(passes):
        if time.perf_counter() - start > HARD_STOP_S:
            break
        scaled, raw, n, fails, _ = run_pass(workload, session, seed, index)
        done += 1
        for key, t in scaled.items():
            samples.setdefault(key, []).append(t)
            raw_samples.setdefault(key, []).append(raw[key])
        attempted += n
        failures += fails
    return {"samples": samples, "raw_samples": raw_samples, "passes": done,
            "attempted": attempted, "failed": len(failures), "failures": failures[:20],
            "peak_rss_kb": peak_rss_kb(workload.name), "probe": run_probe(workload, session, seed)}


def run_probe(workload, session, seed):
    """The workload's known-defect ops, untimed; returns (ops, [wrong outputs])."""
    ops = workload.probe(session, random.Random(f"{workload.name}:{seed}:probe"))
    wrong = []
    for op in ops:
        try:
            result = op.call()
        except Exception as exc:  # the op failed; its check reports it
            result = exc
        problem = op.check(result)
        if problem:
            wrong.append(f"{op.key}: {problem}"[:300])
    return len(ops), wrong


def probe_startup(runs=3):
    """Bare interpreter start and `import quadrings.cli`, medians of `runs`."""
    bare, imports = [], []
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import quadrings.cli; print(time.perf_counter() - t)")
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True)
        bare.append(time.perf_counter() - t0)
        out = subprocess.run([sys.executable, "-c", code, str(ROOT / "src")], check=True,
                             stdout=subprocess.PIPE, text=True).stdout
        imports.append(float(out))
    return statistics.median(bare), statistics.median(imports)


def traced_run(workload, seed, quick, overhead):
    out = {}
    if overhead:
        session = workload.setup(quick)
        if workload.name == "cli":
            session["inprocess"] = True
        scaled, *_ = run_pass(workload, session, seed, 0)
        out["untraced_wall_s"] = sum(scaled.values())
    tracer = Tracer()
    tracer.install(workloads.Q)
    try:
        tracer.op_id = -1           # set-up spans belong to no op
        session = workload.setup(quick)
        if workload.name == "cli":
            session["inprocess"] = True
        scaled, _, attempted, failures, digests = run_pass(workload, session, seed, 0, tracer)
    finally:
        tracer.uninstall()
    out["traced_wall_s"] = sum(scaled.values())
    layer = tracer.metrics()
    layer["cli.stdout_bytes"] = session.get("stdout_bytes", 0)
    layer["cli.interpreter_s"], layer["cli.import_s"] = probe_startup()
    out.update({"layer": layer, "counts": tracer.call_counts(), "digests": digests,
                "attempted": attempted, "failed": len(failures), "failures": failures[:20]})
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "run", "trace"], required=True)
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--quick", action="store_true")
    ap.add_argument("--overhead", action="store_true")
    args = ap.parse_args()

    speed.calibrate()   # warm up the calibration loop before it is used
    workloads.load_package(ROOT)
    workload = workloads.make(args.workload, ROOT)
    if args.mode == "trace":
        print("ready", flush=True)
        result = traced_run(workload, args.seed, args.quick, args.overhead)
    else:
        session = workload.setup(args.quick)
        print("ready", flush=True)
        if args.mode == "setup":
            return 0
        passes = 1 if args.quick else workload.passes(args.seconds)
        result = timed_run(workload, session, args.seed, passes)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
