#!/usr/bin/env python3
"""Entry point of the layered benchmark.

Measure (from the repository root):

    python3 layerbench/run.py --workload solve-sparse --seed 1 --seconds 30 --trace 0 [--out FILE]

builds the `layerbench` crate (release, into $CARGO_TARGET_DIR, default
`.bench_build`), runs one workload, and prints the run-environment record
followed by the result line:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
`--out FILE` also appends the full record (result, detail, environment)
to FILE as one JSON line.

Compare two recordings (per workload and metric: both medians, quartiles
and spreads, and a verdict):

    python3 layerbench/run.py compare OLD NEW

Bounds and directions come from BENCHMARK.json at the repository root.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("solve-sparse", "solve-dense", "serve-mixed", "churn")
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"layerbench: {msg}", file=sys.stderr)
    sys.exit(1)


def nproc():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def first_line(cmd):
    try:
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, cwd=ROOT)
        return out.stdout.strip().splitlines()[0] if out.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError, IndexError):
        return "unknown"


def steal_ticks():
    """Clock ticks the hypervisor took from this machine's CPUs so far."""
    try:
        with open("/proc/stat", encoding="ascii") as f:
            return int(f.readline().split()[8])
    except (OSError, IndexError, ValueError):
        return 0


def build():
    """Builds the benchmark binary from the checkout's sources."""
    if not os.path.isfile(os.path.join(ROOT, "crates", "core", "Cargo.toml")):
        fail("the library sources (crates/) are missing next to layerbench/")
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    res = subprocess.run(cmd, stdout=sys.stderr, env=dict(os.environ, CARGO_TARGET_DIR=target))
    if res.returncode != 0:
        fail("cargo build failed")
    return os.path.join(target, "release", "layerbench")


def measure(args):
    binary = build()
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    load_before = os.getloadavg()[0]
    steal_before, started = steal_ticks(), time.monotonic()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    load_after = os.getloadavg()[0]
    wall = time.monotonic() - started
    steal_s = (steal_ticks() - steal_before) / os.sysconf("SC_CLK_TCK")
    if proc.returncode != 0:
        fail(f"benchmark exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    detail = result.pop("detail", {})
    cores = nproc()
    env = {
        "nproc": cores,
        "detected_cores": detail.get("detected_cores"),
        "executor_threads": detail.get("executor_threads"),
        "rustc": first_line(["rustc", "--version"]),
        "commit": first_line(["git", "rev-parse", "HEAD"]),
        "load_before": load_before,
        "load_after": load_after,
        "load_exceeded_nproc": max(load_before, load_after) > cores,
        "steal_s": steal_s,
        "steal_frac": steal_s / (wall * cores) if wall > 0 else 0.0,
    }
    if args.out:
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, **result, "detail": detail, "env": env}
        with open(args.out, "a", encoding="utf-8") as f:
            f.write(json.dumps(record) + "\n")
    print(json.dumps({"env": env, "detail": detail}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))


def load_records(path):
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def load_bounds():
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return {}
    with open(path, encoding="utf-8") as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec.get("end_to_end", []) + spec.get("per_layer", [])}


def grouped(records):
    """(workload, trace) -> metric -> list of values, in record order."""
    out = {}
    for rec in records:
        by_metric = out.setdefault((rec["workload"], rec["trace"]), {})
        for name, m in rec["metrics"].items():
            by_metric.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        v = values[0] if values else 0.0
        return v, v, v
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values):
    """Quartile distance as a share of the median (0 when the median is 0)."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def verdict(old, new, bound, better):
    """better / worse / unchanged / unresolved against the metric's bound."""
    oq1, omed, oq3 = quartiles(old)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    if omed == 0:
        return "unresolved"
    worse_by = sign * (nmed - omed) / abs(omed)
    if bound is not None and worse_by > bound:
        return "worse"
    separated = nq3 < oq1 if better == "lower" else nq1 > oq3
    if separated:
        return "better"
    if bound is None:
        return "unresolved"
    return "unresolved" if max(spread(old), spread(new)) > bound else "unchanged"


def compare(args):
    bounds = load_bounds()
    old, new = grouped(load_records(args.old)), grouped(load_records(args.new))
    for key in sorted(set(old) & set(new)):
        workload, trace = key
        runs = (len(next(iter(old[key].values()))), len(next(iter(new[key].values()))))
        print(f"== {workload} ({'per-layer' if trace else 'end-to-end'}; runs {runs[0]} vs {runs[1]})")
        for name in old[key]:
            if name not in new[key]:
                continue
            meta = bounds.get(name, {})
            bound, better = meta.get("bound"), meta.get("better", "lower")
            o, n = old[key][name], new[key][name]
            oq1, omed, oq3 = quartiles(o)
            nq1, nmed, nq3 = quartiles(n)
            delta = (nmed - omed) / abs(omed) if omed else 0.0
            wide = " (spread over bound)" if bound is not None and max(spread(o), spread(n)) > bound else ""
            print(f"  {name:<28} old {omed:<12.6g} [{oq1:.6g}, {oq3:.6g}] {spread(o):6.1%}  "
                  f"new {nmed:<12.6g} [{nq1:.6g}, {nq3:.6g}] {spread(n):6.1%}  {delta:+8.2%}  "
                  f"{verdict(o, n, bound, better)}{wide}")


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("old")
        p.add_argument("new")
        compare(p.parse_args(argv[1:]))
    else:
        p = argparse.ArgumentParser(prog="run.py")
        p.add_argument("--workload", required=True, choices=WORKLOADS)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--seconds", type=float, required=True)
        p.add_argument("--trace", type=int, choices=(0, 1), default=0)
        p.add_argument("--out")
        measure(p.parse_args(argv))


if __name__ == "__main__":
    main()
