"""Seeded end-to-end benchmark of the hypercircle command line.

Usage, from the root of a checkout:

    python3 hcbench/run.py --workload shift-r1 --seed 1 --seconds 25 --trace 0

`--workload all` runs every workload in turn; its last line holds every
workload's result object.

A pass runs every op of the workload once, in a fresh interpreter
(worker.py), so nothing one pass caches is reused by the next.  Passes
repeat, one at a time, until --seconds have been measured and the tail
percentile has ten samples beyond it.  Every answer is checked
(checks.py); the last stdout line is one JSON object with `correct`,
`attempted`, `failed` and `metrics`.  With --trace 0 the metrics are the
end-to-end ones of BENCHMARK.json, with --trace 1 the per-layer ones,
from traced passes interleaved with untraced ones and one cProfile pass.
NOTES.md explains every metric and lists the known cliffs.
"""

import argparse
import compileall
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = tuple(workloads.GENERATORS)
# Per-op tail percentile per workload.  The minimum pass count keeps ten
# samples beyond it; each falls inside a cluster of similar ops (n = 5
# curves, the quartic, crt 10) at every pass count, not on the edge
# between two clusters, where it would jump from seed to seed.
TAIL_PERCENTILE = {"shift-r1": 92, "tower-r2": 90, "conics": 99}
TAIL_BEYOND = 10
MIN_PASSES = 3
SETUP_SAMPLES = 9
# Times are reported at nominal machine speed: each measured time is
# scaled by NOMINAL_REF_S over the reference kernel's time (worker.py)
# measured next to it.  The speed of a shared machine drifts by up to 2x
# within seconds; the scaled times stay within a few percent.  The wall
# times are printed beside them.
NOMINAL_REF_S = 0.001
MIN_TRACED_PASSES = 2
# Stop starting passes after this many seconds of one workload's run;
# the process must end within 180 s.
RUN_LIMIT_S = 120.0
HARD_LIMIT_S = 170.0


class BenchError(RuntimeError):
    """The benchmark cannot produce a result."""


class Runner:
    """Worker processes of one workload run, sharing one deadline."""

    def __init__(self, workdir, ops):
        self.workdir = workdir
        self.ops_path = os.path.join(workdir, "ops.json")
        with open(self.ops_path, "w", encoding="utf-8") as fh:
            json.dump(ops, fh)
        self.started = time.monotonic()

    def elapsed(self):
        return time.monotonic() - self.started

    def worker(self, mode):
        out_path = os.path.join(self.workdir, f"{mode}.json")
        left = HARD_LIMIT_S - self.elapsed()
        try:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"), mode,
                 self.ops_path, out_path],
                stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                text=True, timeout=max(left, 1.0))
        except subprocess.TimeoutExpired:
            raise BenchError(f"a {mode} pass did not end within the "
                             f"{HARD_LIMIT_S:.0f} s limit")
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited with {proc.returncode}:"
                             f"\n{proc.stderr.strip()[-2000:]}")
        with open(out_path, encoding="utf-8") as fh:
            return json.load(fh)


def _quantile(values, pct):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def _scaled_op_s(p):
    """Op times of a pass at nominal speed, each scaled by the mean of
    the reference timings taken just before and just after it."""
    refs = p["refs"]
    return [o["s"] * 2 * NOMINAL_REF_S / (refs[i] + refs[i + 1])
            for i, o in enumerate(p["ops"])]


def _wall_s(p):
    return sum(o["s"] for o in p["ops"])


def _verify(ops, passes, goldens):
    """Check the first pass's answers; later passes must repeat it byte
    for byte.  Returns (attempted, failed, reasons)."""
    first = passes[0]["ops"]
    reasons = checks.check_pass(ops, first, goldens)
    failed = len(reasons)
    for p in passes[1:]:
        for op, ref, out in zip(ops, first, p["ops"]):
            if (out["code"], out["stdout"]) != (ref["code"], ref["stdout"]):
                failed += 1
                reasons.setdefault(op["name"], "output differs between "
                                               "passes")
            elif op["name"] in reasons:
                failed += 1
    return len(ops) * len(passes), failed, reasons


def _env_line(passes):
    envs = {json.dumps(p["env"], sort_keys=True) for p in passes}
    if len(envs) != 1:
        raise BenchError(f"passes ran on different environments: {envs}")
    env = passes[0]["env"]
    return (f"env: kernel backend {env['backend']}, Python {env['python']},"
            f" nproc {env['nproc']} (compare only with runs on the same "
            f"kernel backend)")


def _measure(runner, ops, workload, seconds):
    """Untraced passes: end-to-end metrics."""
    pct = TAIL_PERCENTILE[workload]
    need = math.ceil(TAIL_BEYOND / (1 - pct / 100.0))
    min_passes = max(MIN_PASSES, math.ceil(need / len(ops)))
    passes = []
    start = runner.elapsed()
    while (len(passes) < min_passes
           or runner.elapsed() - start < seconds):
        if runner.elapsed() > RUN_LIMIT_S:
            break
        passes.append(runner.worker("plain"))
    imports = passes + [runner.worker("import") for _ in
                        range(SETUP_SAMPLES - len(passes))]
    setup = [p["import_s"] * NOMINAL_REF_S / p["import_ref_s"]
             for p in imports]
    op_s = [s for p in passes for s in _scaled_op_s(p)]
    beyond = sum(1 for s in op_s if s > _quantile(op_s, pct))
    metrics = {
        "solve_s": statistics.median(sum(_scaled_op_s(p)) for p in passes),
        "op_s.p50": statistics.median(op_s),
        "op_s.tail": _quantile(op_s, pct),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
    }
    speed = statistics.median(r for p in passes for r in p["refs"])
    notes = [f"passes: {len(passes)} x {len(ops)} ops",
             f"op_s.tail is p{pct} of {len(op_s)} op samples "
             f"({beyond} beyond it)",
             f"setup_s is the median of {len(setup)} imports",
             f"wall clock: solve {statistics.median(map(_wall_s, passes)):.4f}"
             f" s, import {statistics.median(p['import_s'] for p in imports):.4f}"
             f" s; reference kernel {1000 * speed:.3f} ms "
             f"(nominal {1000 * NOMINAL_REF_S:.3f} ms)"]
    return passes, metrics, notes


def _layer_metrics(traced, untraced, profile):
    """Per-layer metrics: medians over traced passes of per-pass values."""
    def med(fn):
        return statistics.median(fn(p) for p in traced)

    def span(p, label, field):
        return p["spans"].get(label, [0, 0.0, 0.0])[
            {"calls": 0, "s": 1, "self_s": 2}[field]]

    labels = {tracer.ROOT, tracer.HOOK}
    for names in tracer.SPANS.values():
        labels.update(names)
    metrics = {}
    for label in labels:
        for field in ("calls", "s", "self_s"):
            metrics[f"{label}.{field}"] = med(
                lambda p: span(p, label, field))
    for layer, names in tracer.SPANS.items():
        metrics[f"{layer}.calls"] = med(
            lambda p: sum(span(p, n, "calls") for n in names))
    metrics["buchberger.repeat_ratio"] = med(
        lambda p: p["gb"]["repeats"] / max(1, span(p, "buchberger",
                                                   "calls")))
    metrics["buchberger.basis_max"] = med(lambda p: p["gb"]["basis_max"])
    metrics["buchberger.coeff_bits_max"] = med(
        lambda p: p["gb"]["coeff_bits_max"])
    for mod, share in profile["shares"].items():
        metrics[f"self_share.{mod}"] = share
    for mod in ("fractions", "_kernel_py", "fields", "mpoly"):
        metrics.setdefault(f"self_share.{mod}", 0.0)
    traced_s = statistics.median(sum(_scaled_op_s(p)) for p in traced)
    plain_s = statistics.median(sum(_scaled_op_s(p)) for p in untraced)
    metrics["trace.solve_s"] = traced_s
    metrics["trace.overhead"] = traced_s / plain_s - 1.0
    return metrics


def _trace(runner, ops, seconds):
    """Traced passes interleaved with untraced ones, then one profile."""
    traced, untraced = [], []
    start = runner.elapsed()
    while (len(traced) < MIN_TRACED_PASSES
           or runner.elapsed() - start < seconds):
        if runner.elapsed() > RUN_LIMIT_S:
            break
        untraced.append(runner.worker("plain"))
        traced.append(runner.worker("trace"))
    profile = runner.worker("profile")
    metrics = _layer_metrics(traced, untraced, profile)
    # Self times of one pass must add up to its op time.
    for p in traced:
        self_sum = sum(v[2] for v in p["spans"].values())
        op_sum = sum(o["s"] for o in p["ops"])
        if abs(self_sum - op_sum) > 1e-3 + 0.01 * op_sum:
            raise BenchError(f"span self times add to {self_sum:.4f} s, "
                             f"ops took {op_sum:.4f} s")
    top = sorted(((v, k[:-len(".self_s")]) for k, v in metrics.items()
                  if k.endswith(".self_s")), reverse=True)[:6]
    notes = [f"spans wrap {traced[0]['bindings_patched']} module "
             f"bindings of {sum(map(len, tracer.SPANS.values()))} functions",
             f"passes: {len(untraced)} untraced, {len(traced)} traced, "
             f"1 profiled; trace overhead "
             f"{100 * metrics['trace.overhead']:.1f}% "
             f"(traced solve {metrics['trace.solve_s']:.4f} s)",
             "largest self times per pass: " + ", ".join(
                 f"{name} {v:.4f} s" for v, name in top)]
    return untraced + traced + [profile], metrics, notes


def run_workload(workload, seed, seconds, trace, spec, goldens):
    """One workload's result object, after printing its readable lines."""
    workdir = os.path.join(HERE, ".work", f"{workload}-{seed}-{os.getpid()}")
    try:
        ops = workloads.build(workload, seed,
                              os.path.relpath(workdir, os.getcwd()))
        # Import from bytecode, as an installed package does, even where
        # PYTHONDONTWRITEBYTECODE keeps imports from writing it.
        compileall.compile_dir(os.path.join("src", "hypercircle"), quiet=1)
        runner = Runner(workdir, ops)
        runner.worker("import")  # warm the file cache; not a sample
        if trace:
            passes, metrics, notes = _trace(runner, ops, seconds)
            wanted = spec["per_layer"]
        else:
            passes, metrics, notes = _measure(runner, ops, workload,
                                              seconds)
            wanted = spec["end_to_end"]
        attempted, failed, reasons = _verify(ops, passes, goldens)
        print(f"== {workload}, seed {seed}")
        print(_env_line(passes))
        for line in notes:
            print(line)
        print(f"fail_ratio = {failed / attempted:.4f} "
              f"({failed} of {attempted} ops)")
        for name, why in sorted(reasons.items())[:10]:
            print(f"  wrong: {name}: {why}")
        out = {}
        for m in wanted:
            value = metrics[m["name"]]
            out[m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{m['name']} = {value:.6g} {m['unit']}")
        return {"correct": failed == 0, "attempted": attempted,
                "failed": failed, "metrics": out}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "hypercircle", "cli.py")):
        print("error: run from the root of a hypercircle checkout "
              "(src/hypercircle/cli.py not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    with open(os.path.join(HERE, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         bool(args.trace), spec, goldens)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
