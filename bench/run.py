"""perturbcq benchmark.

Usage:
    python3 bench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Runs one workload (see ``workloads.py``) repeatedly for about ``--seconds``
seconds against the library in this checkout's ``src`` directory, checks
every repetition against its closed-form oracle, and prints as its last
stdout line one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  Repetition ``i`` uses inputs derived from
(seed, i), so one seed always gives the same inputs.

``--trace 0`` reports the end-to-end metrics: wall_s (median seconds per
repetition), work_per_s, setup_s (median of cold set-ups in fresh
interpreters) and peak_rss_mb.  ``--trace 1`` alternates untraced and traced
repetitions of the same inputs and reports per-layer metrics from the traced
ones; the spans are written to ``bench/out/``.  Lines before the last one
start with ``#`` and record the environment, each repetition and the output
digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "out"
SETUP_PROBES = 5
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def say(line: str) -> None:
    print("# " + line, flush=True)


def blas_threads() -> dict:
    """Thread count of each OpenBLAS loaded into this process."""
    import ctypes

    out = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln.lower() and ".so" in ln})
    for path in libs:
        lib = ctypes.CDLL(path)
        for fn in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, fn, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                out[Path(path).name] = getter()
                break
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    def blas(cfg):
        info = cfg(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(np.show_config),
        "scipy_blas": blas(scipy.show_config),
        "blas_threads": blas_threads(),
        "blas_thread_env": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def measure_setup(workload: str) -> list[float]:
    """Set-up times of ``SETUP_PROBES`` fresh interpreters, run one after
    another.  The measuring process has imported the library already, so
    the bytecode cache of a new checkout is warm."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload],
            capture_output=True, text=True, timeout=120, check=True,
        )
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return times


class Run:
    """Repetitions of one workload and what they produced."""

    def __init__(self, wl):
        self.wl = wl
        self.times: list[float] = []
        self.outcomes = []
        self.error = None

    @property
    def attempted(self) -> int:
        return sum(o.attempted for o in self.outcomes)

    @property
    def failed(self) -> int:
        return sum(o.failed for o in self.outcomes)

    def rep(self, pq, ctx, seed: int, index: int, label: str, tracer=None) -> bool:
        """Run and check repetition ``index``; False once the run has failed."""
        from workloads import rep_seed

        lib_seed = rep_seed(seed, index)
        inp = self.wl.make_input(lib_seed)
        root = nullcontext()
        if tracer is not None:
            tracer.run_id = index
            root = tracer.span("bench." + self.wl.name)
        try:
            t0 = time.perf_counter()
            with root:
                out = self.wl.run(pq, ctx, inp)
            elapsed = time.perf_counter() - t0
            outcome = self.wl.check(ctx, inp, out)
        except Exception:
            self.error = traceback.format_exc()
            sys.stderr.write(self.error)
            return False
        self.times.append(elapsed)
        self.outcomes.append(outcome)
        say(f"{label} rep {index} seed {lib_seed}: {elapsed:.4f} s, "
            f"{outcome.failed}/{outcome.attempted} failed, digest {outcome.digest}")
        return True

    def result(self, metrics: dict) -> dict:
        """Final record; an exception fails every operation of the run."""
        attempted, failed = self.attempted, self.failed
        if self.error is not None:
            attempted += self.wl.operations
            failed = attempted
        return {
            "correct": self.error is None and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics if self.error is None else {},
        }


def end_to_end(run: Run, setup_times: list[float]) -> dict:
    from benchstats import quartile_spread, tail_rank

    n = len(run.times)
    spread = f"quartile spread {quartile_spread(run.times):.3f}" if n > 1 else "one rep"
    tail = tail_rank(n)
    if tail is None:
        say(f"wall_s: median of {n} reps, {spread}; no upper percentile has 10 reps beyond it")
    else:
        say(f"wall_s: median of {n} reps, {spread}; p{tail[1]:.0f} = {sorted(run.times)[tail[0]]:.4f} s")
    work = sum(o.work for o in run.outcomes)
    say(f"work_per_s: {work} {run.wl.work_unit} in {sum(run.times):.4f} s")
    say(f"setup_s: median of {len(setup_times)} cold set-ups {[round(t, 4) for t in setup_times]}")
    return {
        "wall_s": {"value": statistics.median(run.times), "unit": "s"},
        "work_per_s": {"value": work / sum(run.times), "unit": "1/s"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }


def per_layer(plain: Run, traced: Run, tracer, missing) -> dict:
    from spans import per_run_totals
    from workloads import TRACE_COUNTERS, TRACE_RATIOS, TRACE_TARGETS

    root = "bench." + traced.wl.name
    totals = per_run_totals(tracer.arrays())
    reps = sorted(totals)

    def per_rep(key):
        return [tracer.counters.get((r, key), 0) for r in reps]

    metrics = {}
    for name, *_ in TRACE_TARGETS:
        calls = [totals[r].get(name, (0, 0.0))[0] for r in reps]
        metrics[name + ".calls"] = {"value": sum(calls) / len(reps), "unit": "count"}
        selfs = [totals[r].get(name, (0, 0.0))[1] for r in reps]
        metrics[name + ".self_s"] = {"value": statistics.median(selfs), "unit": "s"}
    for key in TRACE_COUNTERS:
        metrics[key] = {"value": sum(per_rep(key)) / len(reps), "unit": "count"}
    for metric, num, den in TRACE_RATIOS:
        d = sum(per_rep(den))
        metrics[metric] = {"value": sum(per_rep(num)) / d if d else 0.0, "unit": "ratio"}

    spans = tracer.arrays()
    top = spans["parent"] < 0
    root_wall = dict(zip(spans["run"][top].tolist(), (spans["end"] - spans["start"])[top].tolist()))
    for r in reps:
        untimed = totals[r][root][1]
        layers = sum(t for n, (_, t) in totals[r].items() if n != root)
        say(f"trace rep {r}: layer self times {layers:.4f} s + untimed {untimed:.4f} s "
            f"= {layers + untimed:.4f} s of traced wall {root_wall[r]:.4f} s")
    for name in missing:
        say(f"trace: {name} does not exist in this library version; reported as 0")
    traced_wall = statistics.median(traced.times)
    plain_wall = statistics.median(plain.times)
    metrics["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
    metrics["trace.untraced_wall_s"] = {"value": plain_wall, "unit": "s"}
    metrics["trace.overhead_s"] = {"value": traced_wall - plain_wall, "unit": "s"}
    metrics["trace.untimed_s"] = {
        "value": statistics.median([totals[r][root][1] for r in reps]), "unit": "s"
    }
    say(f"trace: {len(reps)} traced and {len(plain.times)} untraced reps, "
        f"{len(tracer.code)} spans")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    threads = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:  # before NumPy loads OpenBLAS
        os.environ[var] = threads

    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; known: {sorted(workloads.WORKLOADS)}\n")
        return 2
    try:
        pq = workloads.load_library()
    except (FileNotFoundError, ImportError) as exc:
        sys.stderr.write(f"cannot load perturbcq: {exc}\n")
        return 2
    wl = workloads.WORKLOADS[args.workload]
    env = environment()
    say("env " + json.dumps(env, sort_keys=True))

    setup_times = measure_setup(wl.name) if args.trace == 0 else []
    ctx = wl.setup(pq)

    # a repetition starts only if it is expected to end closer to the
    # deadline than to overrun it by more than half its length
    plain = Run(wl)
    deadline = time.perf_counter() + args.seconds
    if args.trace == 0:
        index = 0
        while plain.rep(pq, ctx, args.seed, index, "plain"):
            if time.perf_counter() + plain.times[-1] / 2 >= deadline:
                break
            index += 1
        metrics = end_to_end(plain, setup_times) if plain.error is None else {}
        result = plain.result(metrics)
    else:
        from spans import Tracer, patched

        tracer = Tracer()
        traced = Run(wl)
        missing = []
        index = 0
        while True:
            if not plain.rep(pq, ctx, args.seed, index, "plain"):
                break
            with patched(tracer, pq, workloads.TRACE_TARGETS) as missing:
                ok = traced.rep(pq, ctx, args.seed, index, "traced", tracer)
            if not ok or time.perf_counter() + (plain.times[-1] + traced.times[-1]) / 2 >= deadline:
                break
            index += 1
        plain.outcomes += traced.outcomes
        plain.error = plain.error or traced.error
        metrics = per_layer(plain, traced, tracer, missing) if plain.error is None else {}
        result = plain.result(metrics)
        OUT.mkdir(exist_ok=True)
        tracer.save(OUT / f"{wl.name}-seed{args.seed}-spans.npz")

    OUT.mkdir(exist_ok=True)
    record = {
        "args": vars(args),
        "env": env,
        "setup_times": setup_times,
        "rep_times": plain.times,
        "traced_rep_times": traced.times if args.trace else [],
        "digests": [o.digest for o in plain.outcomes],
        "result": result,
    }
    with open(OUT / f"{wl.name}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
