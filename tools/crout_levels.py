"""Time the Crout kernel of two source trees level by level.

    python tools/crout_levels.py PARENT_SRC CHANGE_SRC [--repeats N]

Each argument is a ``src`` directory holding the ``saddlesolve`` package.
Each tree runs the three benchmark workloads of ``perfbench/workloads.py``
once each (``prepare`` with seed 0, ``setup``, ``operation`` and
``check``), with ``mlilu.crout_ilu_level`` wrapped, and saves every call's
input and the workload it came from; it fails if a workload's check fails.
If the two trees' lists of levels, (workload, n, stored entries,
candidates) per call, differ, both lists are printed and it exits 1
before timing; otherwise the first tree's inputs are timed.

Then one subprocess with one BLAS thread loads both trees, each under its
own package name, and factorizes each captured level N times (default 3)
by each tree, in rounds: each round runs both trees, and the tree that goes
first alternates between rounds.  Timing the two trees side by side in one
process keeps the spread between rounds small; in fresh processes one
tree's level CPU spread about 2x between repeats.  For each level it
prints its workload, n, the stored entries per row, each tree's block size
for it (parent/change), the CPU seconds of each call
(``time.process_time``) with their median per tree, in how many of the N
rounds the change took less CPU than the parent, each tree's
``tracemalloc`` peak in MiB over the call, measured in one more, fresh
subprocess per tree, and ``same`` or ``DIFFERS`` for the dtypes and bytes
of the returned factor and Schur complement; then, per workload, the sum
of each tree's per-level CPU medians.  Exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

CAPTURE = """
import dataclasses, json, sys
from pathlib import Path
import numpy as np
from saddlesolve import mlilu

out = Path(sys.argv[1])
sys.path.insert(0, sys.argv[2])
from workloads import WORKLOADS

inner = mlilu.crout_ilu_level
calls = []

def capture(a, params, n_candidates=None):
    a = a.tocsr()
    np.savez(f"{out}/level{len(calls)}.npz", data=a.data, indices=a.indices,
             indptr=a.indptr, shape=np.array(a.shape))
    calls.append({"workload": workload, "n": a.shape[0], "nnz": a.nnz,
                  "params": dataclasses.asdict(params), "n_candidates": n_candidates})
    return inner(a, params, n_candidates)

mlilu.crout_ilu_level = capture
for workload, make in WORKLOADS.items():
    w = make()
    w.prepare(0, out)
    inputs = w.setup()
    attempted, failed = w.check(inputs, w.operation(inputs))
    if failed:
        sys.exit(f"{workload}: {failed} of {attempted} checks failed")
with open(f"{out}/calls.json", "w") as f:
    json.dump(calls, f)
"""

LOAD = """
import json, sys
import numpy as np
import scipy.sparse as sp

def level_input(out, i):
    call = json.load(open(f"{out}/calls.json"))[i]
    z = np.load(f"{out}/level{i}.npz")
    a = sp.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=tuple(z["shape"]))
    return a, call
"""

ROUNDS = LOAD + """
import hashlib, importlib, importlib.util, time
from pathlib import Path

def load(name, src):
    # the package under its own name: its relative imports resolve in it
    pkg = Path(src) / "saddlesolve"
    spec = importlib.util.spec_from_file_location(name, pkg / "__init__.py",
                                                  submodule_search_locations=[str(pkg)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return importlib.import_module(f"{name}.mlilu")

out, i, repeats = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
trees = {"parent": load("parent_saddlesolve", sys.argv[4]),
         "change": load("change_saddlesolve", sys.argv[5])}
a, call = level_input(out, i)
seconds = {name: [] for name in trees}
digests = {name: set() for name in trees}
for repeat in range(repeats):
    # the parent runs first in even rounds, the change in odd ones
    for name in list(trees) if repeat % 2 == 0 else list(trees)[::-1]:
        mlilu = trees[name]
        params = mlilu.FactorParams(**call["params"])
        start = time.process_time()
        level, schur = mlilu.crout_ilu_level(a, params, call["n_candidates"])
        seconds[name].append(time.process_time() - start)
        h = hashlib.sha256()
        arrays = [arr for m in (level.L, level.U, schur) for arr in (m.data, m.indices, m.indptr)]
        for arr in (*arrays, level.order, level.D,
                    np.array([level.n_b, level.n_dynamic_deferred])):
            h.update(str(arr.dtype).encode())
            h.update(np.ascontiguousarray(arr).tobytes())
        digests[name].add(h.hexdigest())
print(json.dumps({"blocks": {name: m._block_size(a) for name, m in trees.items()},
                  "seconds": seconds,
                  "digests": {name: sorted(d) for name, d in digests.items()}}))
"""

PEAK = LOAD + """
import tracemalloc
from saddlesolve import mlilu
a, call = level_input(sys.argv[1], int(sys.argv[2]))
params = mlilu.FactorParams(**call["params"])
tracemalloc.start()
mlilu.crout_ilu_level(a, params, call["n_candidates"])
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""


def _python(src: Path | None, args: list[str]) -> str:
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONPATH", None)
    if src is not None:
        env["PYTHONPATH"] = str(src)
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          stdout=subprocess.PIPE, text=True).stdout


def _per_tree(values: dict[str, list[float]], fmt: str) -> str:
    """Each tree's values and their median."""
    return "  ".join(f"{name} " + "/".join(format(v, fmt) for v in vs)
                     + f" (median {np.median(vs):{fmt}})" for name, vs in values.items())


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.strip().splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--repeats", type=int, default=3)
    args = parser.parse_args(argv)
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for src in trees.values():
        if not (src / "saddlesolve" / "__init__.py").is_file():
            print(f"error: no saddlesolve package under {src}", file=sys.stderr)
            return 2
    differs = 0
    medians = {name: {} for name in trees}
    with tempfile.TemporaryDirectory() as tmp:
        levels = {}
        for name, src in trees.items():
            os.mkdir(f"{tmp}/{name}")
            _python(src, ["-c", CAPTURE, f"{tmp}/{name}", str(PERFBENCH)])
            with open(f"{tmp}/{name}/calls.json") as f:
                levels[name] = [(c["workload"], c["n"], c["nnz"], c["n_candidates"])
                                for c in json.load(f)]
        if levels["parent"] != levels["change"]:
            print("the trees factorize different levels (workload, n, nnz, candidates):")
            for name, calls in levels.items():
                print(f"{name}: {calls}")
            return 1
        out = f"{tmp}/parent"
        workloads = [workload for workload, *_ in levels["parent"]]
        for i, workload in enumerate(workloads):
            z = np.load(f"{out}/level{i}.npz")
            n = int(z["shape"][0])
            rounds = json.loads(_python(None, ["-c", ROUNDS, out, str(i), str(args.repeats),
                                               *map(str, trees.values())]))
            seconds, blocks = rounds["seconds"], rounds["blocks"]
            peaks = "  ".join(f"{name} {float(_python(src, ['-c', PEAK, out, str(i)])):.2f}"
                              for name, src in trees.items())
            same = len({d for ds in rounds["digests"].values() for d in ds}) == 1
            faster = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
            differs += not same
            for name in trees:
                medians[name].setdefault(workload, []).append(float(np.median(seconds[name])))
            print(f"level {i} ({workload}): n {n}, {z['data'].size / n:.0f} nnz/row, "
                  f"block {blocks['parent']}/{blocks['change']}, "
                  f"CPU s {_per_tree(seconds, '.2f')}, "
                  f"change faster in {faster} of {args.repeats} rounds, "
                  f"tracemalloc peak MiB {peaks}, "
                  f"{'same' if same else 'DIFFERS'}", flush=True)
    for workload in medians["parent"]:
        print(f"{workload} summed medians, CPU s: "
              + "  ".join(f"{name} {sum(medians[name][workload]):.2f}" for name in trees))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
