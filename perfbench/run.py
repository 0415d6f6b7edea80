"""saddlesolve benchmark: time to a checked solution.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload cavity-l6-re1000 --seed 1 --seconds 10 --trace 0

The run makes its inputs from --seed, then repeats the workload's operation
in a closed loop (one at a time, the next only after the previous one was
checked) until --seconds have passed, at least once.  A burst of timed
set-up passes comes before every operation and after the last one.  A
reference kernel is timed next to both, and the reported times are scaled
by it to the machine's usual speed (calibrate.py).  Every output is checked.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics: the
end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer metrics
with --trace 1.  The two lines before it record the environment and the
algorithmic counts.

The package is imported from src/ of the checkout and nowhere else; without
it the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench_out"
BLAS_THREADS = "1"
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_MIN_PASSES = 3
SETUP_SAMPLE_SHARE = 0.3  # kernel time after a set-up pass, as a share of the pass, at least one pass


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def import_package():
    """Import saddlesolve from this checkout's src/, with one BLAS thread."""
    src = ROOT / "src"
    if not (src / "saddlesolve" / "__init__.py").is_file():
        print(f"error: no saddlesolve sources under {src}", file=sys.stderr)
        raise SystemExit(2)
    # BLAS reads its thread count when numpy is first imported
    for var in BLAS_VARS:
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(src))
    import saddlesolve

    origin = Path(saddlesolve.__file__).resolve()
    if src.resolve() not in origin.parents:
        print(f"error: saddlesolve was imported from {origin}, not {src}", file=sys.stderr)
        raise SystemExit(2)
    return saddlesolve


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = platform.processor()
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    commit = None
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_VARS},
        "cpu": cpu,
        "commit": commit,
    }


def run_workload(wl, tracer, seed: int, seconds: float, workdir: Path):
    """Run operations until ``seconds`` have passed.  Each operation follows
    a burst of set-up passes, and the run ends with one more burst.  Kernel
    passes follow every set-up pass and are sampled during every operation
    (calibrate.Sampler)."""
    import calibrate

    group = tracer.group if tracer else (lambda label: contextlib.nullcontext())
    wl.prepare(seed, workdir)
    calibrate.kernel()  # builds the kernel's inputs before any timing
    setup_s, wall_setup_s, setup_ok = [], [], True

    def set_up():
        # A pass takes milliseconds to a fraction of a second, and the
        # machine's speed drifts over seconds.  Bursts before every operation
        # and after the last spread the passes over the whole run.  The
        # speed can change from one pass to the next, so each pass is
        # scaled by kernel passes right after it.
        nonlocal setup_ok
        inputs, passes, start = None, 0, time.perf_counter()
        while passes < SETUP_MIN_PASSES or time.perf_counter() - start < wl.setup_seconds:
            inputs = None  # the previous pass's inputs are not kept alive during the next
            t0 = time.perf_counter()
            with group(f"setup-{len(setup_s)}"):
                inputs = wl.setup()
            wall_setup_s.append(time.perf_counter() - t0)
            passes += 1
            setup_ok = setup_ok and wl.check_setup(inputs)
            samples = [calibrate.timed_pass()]
            while sum(samples) < wall_setup_s[-1] * SETUP_SAMPLE_SHARE:
                samples.append(calibrate.timed_pass())
            setup_s.append(calibrate.scale(wall_setup_s[-1], samples))
        return inputs

    solve_s, wall_solve_s, sample_s, counts, attempted, failed = [], [], [], [], 0, 0
    start = time.perf_counter()
    while True:
        inputs = set_up()
        sampler = calibrate.Sampler()
        t0 = time.perf_counter()
        try:
            with sampler, group(f"solve-{len(solve_s)}"):
                outcome = wl.operation(inputs)
        except Exception:  # a program error fails the operation, the run goes on
            traceback.print_exc()
            outcome = None
        wall_solve_s.append(time.perf_counter() - t0)
        solve_s.append(sampler.scaled(wall_solve_s[-1]))
        sample_s.append(statistics.fmean(sampler.samples))
        if outcome is None:
            n, bad = wl.attempts_per_operation, wl.attempts_per_operation
        else:
            n, bad = wl.check(inputs, outcome)
            counts.append(wl.counts(inputs, outcome))
        attempted += n
        failed += bad
        del outcome, inputs
        if time.perf_counter() - start >= seconds:
            break
    set_up()
    walls = {"wall_solve_s": wall_solve_s, "sample_s": sample_s,
             "wall_setup_s": statistics.median(wall_setup_s)}
    return setup_s, solve_s, walls, setup_ok, counts, attempted, failed


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    args = parse_args(argv, [w["name"] for w in spec["workloads"]])
    saddlesolve = import_package()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import calibrate
    import spans
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]()
    tracer = None
    if args.trace:
        tracer = spans.Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}",
                              clock=calibrate.program_clock)
        spans.install(tracer, saddlesolve)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup_s, solve_s, walls, setup_ok, counts, attempted, failed = run_workload(
            wl, tracer, args.seed, args.seconds, workdir)
    finally:
        if tracer:
            tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if tracer:
        groups = {}
        for s in tracer.spans:
            groups.setdefault(s.group, []).append(s)
        solve_groups = [v for k, v in groups.items() if k.startswith("solve-")]
        solve = spans.median_metrics([spans.layer_metrics(v) for v in solve_groups])
        setup = spans.median_metrics([spans.layer_metrics(v) for k, v in groups.items()
                                      if k.startswith("setup-")])
        values = {k: (setup[k] if k.startswith("mmio.") else v) for k, v in solve.items()}
        values["trace.solve_s"] = statistics.median(solve_s)
        values["calibrate.kernel_s"] = statistics.median(walls["sample_s"])
        values["trace.span_overhead_s"] = (spans.span_cost_s()
                                           * statistics.median(map(len, solve_groups)))
        wanted = spec["per_layer"]
    else:
        values = {
            "solve_s": statistics.median(solve_s),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mib": peak_rss_mib,
        }
        wanted = spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(values):
        raise SystemExit(f"error: metrics {sorted(set(units) ^ set(values))} "
                         "differ from BENCHMARK.json")

    repeat = all(c == counts[0] for c in counts)
    if not repeat:
        print(f"warning: counts differ between operations: {counts}", file=sys.stderr)
    print(json.dumps({"env": environment()}))
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "uses_seed": wl.uses_seed, "operations": len(solve_s),
                      **walls,
                      "counts": counts[0] if counts else None, "counts_repeat": repeat},
                     default=spans.plain))
    print(json.dumps({
        "correct": setup_ok and failed == 0 and bool(counts),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }, default=spans.plain))
    return 0


if __name__ == "__main__":
    sys.exit(main())
