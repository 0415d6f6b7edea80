"""Run the benchmark over many seeds and summarise, or compare two summaries.

    python3 perfbench/baseline.py run --label NAME
    python3 perfbench/baseline.py compare perfbench/baselines/A.json perfbench/baselines/B.json

``run`` calls run.py for seeds 1-10 on every workload with tracing off,
and again for seeds 1 and 2 with tracing on, one run at a time.  It writes
perfbench/baselines/NAME.json with every run's result line exactly as
run.py printed it, and per workload: the median and quartiles of each
end-to-end metric with its spread (interquartile range over median), the
per-layer medians of the traced runs, the tracing overhead (traced minus
untraced solve_s, next to the span cost the traced runs measured) and the
counts, flagging any count that differs between two runs that must repeat
it.

``compare`` checks that two summaries of the same code agree: every
end-to-end median within the metric's bound, every count identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)
TRACED_SEEDS = (1, 2)


def bench_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True,
                         timeout=900).stdout.splitlines()
    wall_s = time.perf_counter() - t0
    env, record, result = (json.loads(line) for line in out[-3:])
    print(f"{workload} seed={seed} trace={trace}: {json.dumps(result['metrics'])[:160]}",
          file=sys.stderr, flush=True)
    return {"seed": seed, "trace": trace, "wall_s": wall_s, "env": env["env"],
            "record": record, "result": result}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med}


def run_counts(run: dict) -> dict:
    """The run's counts, plus the factorization counts of a traced run."""
    counts = dict(run["record"]["counts"] or {})
    if run["trace"]:
        m = run["result"]["metrics"]
        for key in ("mlilu.levels", "mlilu.tail_n", "mlilu.factor_nnz_ratio",
                    "krylov.iterations", "nonlinear.halvings"):
            counts[key] = m[key]["value"]
    return counts


def count_mismatches(runs: list[dict]) -> list[dict]:
    """Pairs of runs that must give equal counts but do not: runs of the
    same seed, or any two runs of a workload whose inputs ignore the seed.
    Only keys both runs recorded are compared."""
    bad = []
    for i, a in enumerate(runs):
        for b in runs[i + 1:]:
            if a["seed"] != b["seed"] and a["record"]["uses_seed"]:
                continue
            ca, cb = run_counts(a), run_counts(b)
            diff = {k: [ca[k], cb[k]] for k in ca.keys() & cb.keys() if ca[k] != cb[k]}
            if diff or not (a["record"]["counts_repeat"] and b["record"]["counts_repeat"]):
                bad.append({"seeds": [a["seed"], b["seed"]],
                            "traces": [a["trace"], b["trace"]], "differ": diff})
    return bad


def summarise(spec: dict, runs: list[dict]) -> dict:
    plain = [r for r in runs if not r["trace"]]
    traced = [r for r in runs if r["trace"]]
    out = {"runs": [{"seed": r["seed"], "trace": r["trace"], "wall_s": r["wall_s"],
                     "record": r["record"], "result": r["result"]} for r in runs],
           "correct": all(r["result"]["correct"] for r in runs),
           "attempted": sum(r["result"]["attempted"] for r in runs),
           "failed": sum(r["result"]["failed"] for r in runs)}
    out["end_to_end"] = {}
    for m in spec["end_to_end"]:
        s = spread([r["result"]["metrics"][m["name"]]["value"] for r in plain])
        out["end_to_end"][m["name"]] = {**s, "unit": m["unit"], "bound": m["bound"]}
    if traced:
        out["per_layer_median"] = {
            m["name"]: statistics.median(r["result"]["metrics"][m["name"]]["value"]
                                         for r in traced)
            for m in spec["per_layer"]}
        out["tracing_overhead_s"] = (out["per_layer_median"]["trace.solve_s"]
                                     - out["end_to_end"]["solve_s"]["median"])
        out["span_overhead_s"] = out["per_layer_median"]["trace.span_overhead_s"]
    out["counts"] = {str(r["seed"]) + ("t" if r["trace"] else ""): run_counts(r)
                     for r in runs}
    out["count_mismatches"] = count_mismatches(runs)
    return out


def cmd_run(args) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    summary = {"label": args.label, "benchmark": spec, "workloads": {}}
    path = HERE / "baselines" / f"{args.label}.json"
    path.parent.mkdir(exist_ok=True)
    for name in (w["name"] for w in spec["workloads"]):
        runs = [bench_once(name, s, spec["run_seconds"], 0) for s in SEEDS]
        runs += [bench_once(name, s, spec["run_seconds"], 1) for s in TRACED_SEEDS]
        summary["env"] = runs[0]["env"]
        summary["workloads"][name] = summarise(spec, runs)
        path.write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    ok = True
    for name, w in summary["workloads"].items():
        for metric, s in w["end_to_end"].items():
            print(f"{name:18s} {metric:13s} median {s['median']:.6g} {s['unit']} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})")
            ok &= s["spread"] < s["bound"]
        if "tracing_overhead_s" in w:
            print(f"{name:18s} tracing overhead {w['tracing_overhead_s']:+.4f} s "
                  f"(span cost {w['span_overhead_s']:.4f} s)")
        print(f"{name:18s} correct {w['correct']} failed {w['failed']}/{w['attempted']} "
              f"count mismatches {len(w['count_mismatches'])}")
        ok &= w["correct"] and not w["count_mismatches"]
    # a full evaluation makes 4 runs of the first workload and 22 of each
    walls = [statistics.mean(r["wall_s"] for r in w["runs"]) for w in summary["workloads"].values()]
    print(f"full evaluation estimate: {4 * walls[0] + 22 * sum(walls):.0f} s for 4 + 22 per workload runs")
    print(f"wrote {path}")
    return 0 if ok else 1


def cmd_compare(args) -> int:
    a, b = (json.loads(Path(p).read_text(encoding="utf-8")) for p in (args.first, args.second))
    ok = True
    for name, wa in a["workloads"].items():
        wb = b["workloads"][name]
        for metric, sa in wa["end_to_end"].items():
            sb = wb["end_to_end"][metric]
            change = sb["median"] / sa["median"] - 1.0
            within = abs(change) <= sa["bound"]
            ok &= within
            print(f"{name:18s} {metric:13s} {sa['median']:.6g} -> {sb['median']:.6g} "
                  f"({change:+.2%}, bound {sa['bound']:.0%}) {'ok' if within else 'OUTSIDE'}")
        seeds = wa["counts"].keys() & wb["counts"].keys()
        differ = {s: [wa["counts"][s], wb["counts"][s]] for s in sorted(seeds)
                  if wa["counts"][s] != wb["counts"][s]}
        ok &= not differ
        print(f"{name:18s} counts identical on {len(seeds)} runs: {not differ}"
              + (f" {differ}" if differ else ""))
    return 0 if ok else 1


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run")
    r.add_argument("--label", required=True)
    r.set_defaults(func=cmd_run)
    c = sub.add_parser("compare")
    c.add_argument("first")
    c.add_argument("second")
    c.set_defaults(func=cmd_compare)
    args = p.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
