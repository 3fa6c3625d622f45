#!/usr/bin/env python3
"""The latopt benchmark.

    python3 bench/run.py --workload train-steps --seed 1 --seconds 15 --trace 0

runs one workload in this process from the root of a checkout and prints,
as its last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of ``BENCHMARK.json``
with ``--trace 0``, its per-layer metrics with ``--trace 1``. The lines
before it record the environment, the correctness checks and the result
digest. ``--workload all`` runs every workload, each in its own process.
See ``bench/README.md`` for the workloads and what each metric means.
"""

from __future__ import annotations

import os
import sys

# One thread everywhere, fixed before numpy is imported: the workloads are
# closed loops with one client on one thread.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
CALLER_THREADS = {v: os.environ.get(v) for v in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"
CALLER_LATOPT_THREADS = os.environ.pop("LATOPT_THREADS", None)
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from spans import SpanStats, Tracer, layer_metrics, metric_key  # noqa: E402
from speed import SpeedProbe  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-steps", "protocol", "score", "quad")

# Set-up is repeated and its median reported, at least this often and for
# at least this long, so that the speed probe samples it.
SETUP_MIN_REPS = 3
SETUP_MIN_S = 1.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "thread_env_pinned": {v: os.environ[v] for v in THREAD_VARS},
        "thread_env_caller": CALLER_THREADS,
        "LATOPT_THREADS_caller": CALLER_LATOPT_THREADS,
    }


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def median(values) -> float:
    return percentile(values, 50)


class Totals:
    """Operations attempted and failed, with a line for each failure, and
    the digest of every pass."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: list[str] = []

    def add_pass(self, res):
        self.attempted += res.attempted
        self.failed += res.failed
        self.problems.extend(res.problems)
        self.digests.append(res.digest)

    def add_check(self, name, ok, detail):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(f"check {name} failed: {detail}")


def run_pass(wl, state, totals):
    """One pass: (start, end, result)."""
    t0 = time.perf_counter()
    res = wl.run_pass(state)
    t1 = time.perf_counter()
    if res.verify is not None:
        res.verify()
    totals.add_pass(res)
    return t0, t1, res


def timed_passes(wl, state, totals, seconds: float, min_passes: int):
    """Passes until ``seconds`` have gone by and at least ``min_passes`` ran."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds or len(passes) < min_passes:
        passes.append(run_pass(wl, state, totals))
    return passes


def measure_setup(wl, seed, workdir):
    """Set up repeatedly; returns the last state and every (start, end)."""
    spans = []
    while len(spans) < SETUP_MIN_REPS or sum(b - a for a, b in spans) < SETUP_MIN_S:
        state = None  # free the previous state first, so it does not count in peak RSS
        t0 = time.perf_counter()
        state = wl.setup(seed, workdir)
        spans.append((t0, time.perf_counter()))
    return state, spans


def op_times(passes, key, ms) -> list:
    """Milliseconds of every op under ``key``, an op being the sum of its
    intervals, converted by ``ms(start, end)``."""
    return [sum(ms(a, b) for a, b in op) for _, _, res in passes for op in res.samples[key]]


def step_breakdown(passes, ms) -> dict:
    out = {}
    for key in passes[0][2].samples:
        if key.startswith("step."):
            vals = op_times(passes, key, ms)
            name = metric_key(key[len("step."):])
            out[f"step_ms_p50.{name}"] = median(vals)
            out[f"step_ms_p90.{name}"] = percentile(vals, 90)
    return out


def run_checks(wl, state, totals, info):
    for name, ok, detail in wl.checks(state):
        totals.add_check(name, ok, detail)
        info["checks"][name] = {"ok": bool(ok), "detail": detail}


def run_untraced(wl, args, workdir, totals, info):
    with SpeedProbe() as probe:
        state, setups = measure_setup(wl, args.seed, workdir)
        run_checks(wl, state, totals, info)
        for _ in range(wl.warmup_passes):
            run_pass(wl, state, totals)
        passes = timed_passes(wl, state, totals, args.seconds, wl.min_passes)
    ref = probe.reference_ms
    ops = op_times(passes, "op", ref)
    wall_ops = op_times(passes, "op", lambda a, b: (b - a) * 1000.0)
    info["samples"] = {"setups": len(setups), "passes": len(passes), "ops": len(ops)}
    info["probes"] = len(probe.starts)
    info["slowdown"] = probe.slowdown()
    info["wall"] = {
        "setup_s": median([b - a for a, b in setups]),
        "op_ms_p50": median(wall_ops),
        "op_ms_p90": percentile(wall_ops, 90),
        "pass_s": median([b - a for a, b, _ in passes]),
    }
    # Not gated: the slowest tenth of ops follows the machine's state more
    # than the probe does (see README).
    info["op_ms_p90"] = percentile(ops, 90)
    info["breakdown"] = step_breakdown(passes, ref)
    return {
        "setup_s": median([ref(a, b) for a, b in setups]) / 1000.0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_p50": median(ops),
        "pass_s": median([ref(a, b) for a, b, _ in passes]) / 1000.0,
    }


def run_traced(wl, args, workdir, totals, info):
    """Set-up once under the tracer, then half the time untraced and half
    traced; the difference in pass time is the tracing overhead. Span times
    are converted to reference time like every other time."""
    with SpeedProbe() as probe:
        with Tracer() as setup_tracer:
            state = wl.setup(args.seed, workdir)
        run_checks(wl, state, totals, info)
        census = wl.census(state) if hasattr(wl, "census") else {}
        for _ in range(wl.warmup_passes):
            run_pass(wl, state, totals)
        half = args.seconds / 2.0
        min_half = max(1, wl.min_passes // 2)
        untraced = timed_passes(wl, state, totals, half, min_half)
        with Tracer() as tracer:
            traced = timed_passes(wl, state, totals, half, min_half)
    ref = probe.reference_ms

    def to_reference(spans):
        return [(name, probe.reference(a), probe.reference(b), parent) for name, a, b, parent in spans]

    setup_spans, pass_spans = to_reference(setup_tracer.spans), to_reference(tracer.spans)
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{wl.name}-seed{args.seed}.jsonl"
    with open(span_file, "w") as fh:
        for phase, spans in (("setup", setup_spans), ("pass", pass_spans)):
            for span in spans:
                fh.write(json.dumps([phase, *span]) + "\n")
    info["span_file"] = str(span_file.relative_to(ROOT))
    info["samples"] = {"untraced_passes": len(untraced), "traced_passes": len(traced)}
    info["slowdown"] = probe.slowdown()

    run_stats = SpanStats(pass_spans)
    m = layer_metrics(SpanStats(setup_spans), run_stats, len(traced))
    m.update(census)
    for _, _, res in traced:
        for k, v in res.extra.items():
            m[k] = m.get(k, 0) + v / len(traced)
    plain_ms = median([ref(a, b) for a, b, _ in untraced])
    traced_ms = median([ref(a, b) for a, b, _ in traced])
    m["self_ms.bench"] = (sum(ref(a, b) for a, b, _ in traced) - run_stats.root_ms) / len(traced)
    m["trace.overhead_ms"] = traced_ms - plain_ms
    m["trace.overhead_ratio"] = traced_ms / plain_ms - 1.0
    steps = step_breakdown(untraced, ref)
    m.update(steps)
    if steps:
        m["training.lo_overhead"] = steps["step_ms_p50.adv_lo"] / steps["step_ms_p50.adv"]
        m["training.maml_over_lo"] = steps["step_ms_p50.adv_maml"] / steps["step_ms_p50.adv_lo"]
    return m


def select(metrics: dict, declared: list, traced: bool) -> dict:
    """The declared metrics, in declared order, with their units. A
    per-layer metric a workload never exercises reads 0; every end-to-end
    metric must have been measured."""
    names = [d["name"] for d in declared]
    unknown = set(metrics) - set(names)
    missing = [] if traced else [n for n in names if n not in metrics]
    if unknown or missing:
        raise KeyError(f"metrics not in BENCHMARK.json: {sorted(unknown)}; not measured: {missing}")
    return {d["name"]: {"value": metrics.get(d["name"], 0), "unit": d["unit"]} for d in declared}


def run_one(args, declared) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    totals = Totals()
    info = {"workload": wl.name, "seed": args.seed, "checks": {}}
    print("env " + json.dumps(environment()), flush=True)
    workdir = ROOT / ".bench_work" / f"{wl.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        if args.trace:
            metrics = run_traced(wl, args, workdir, totals, info)
        else:
            metrics = run_untraced(wl, args, workdir, totals, info)
    finally:
        shutil.rmtree(workdir)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    if len(set(totals.digests)) != 1:
        totals.add_check("digest", False, f"digests differ between passes: {sorted(set(totals.digests))}")
    else:
        totals.add_check("digest", True, "")
    info["digest"] = totals.digests[0]
    info["problems"] = totals.problems[:20]
    print("info " + json.dumps(info), flush=True)
    print(f"digest {wl.name} {info['digest']}", flush=True)
    return {
        "correct": totals.failed == 0,
        "attempted": totals.attempted,
        "failed": totals.failed,
        "metrics": select(metrics, declared["per_layer" if args.trace else "end_to_end"], bool(args.trace)),
    }


def run_all(args) -> tuple[dict, int]:
    """Every workload in its own process, so peak RSS is per workload."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            combined["correct"] = False
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}/{k}"] = v
    return combined, code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "latopt" / "__init__.py").is_file():
        print(f"bench: no latopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds <= 0:
        print("bench: --seconds must be > 0", file=sys.stderr)
        return 2
    if args.workload == "all":
        result, code = run_all(args)
    else:
        result, code = run_one(args, declared), 0
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
