"""Time the Crout kernel of two source trees level by level.

    python tools/crout_levels.py PARENT_SRC CHANGE_SRC [--repeats N]

Each argument is a ``src`` directory holding the ``saddlesolve`` package.
The first tree runs the three benchmark workloads of
``perfbench/workloads.py`` once each (``prepare`` with seed 0, ``setup``,
``operation`` and ``check``), with ``mlilu.crout_ilu_level`` wrapped, and
saves every call's input and the workload it came from; it fails if a
workload's check fails.

Then each captured level is factorized N times (default 3) by each tree,
in pairs: each repeat runs both trees, and the tree that goes first
alternates between repeats.  Every call runs in a fresh subprocess with
one BLAS thread.  For each level it prints its workload, n, the stored
entries per row, each tree's block size for it (parent/change), the CPU
seconds of each call (``time.process_time``) and the peak resident
memory in MiB of its subprocess (``ru_maxrss``, which includes the
interpreter, the imports and the loaded input), each with its median per
tree, in how many of the N pairs the change took less CPU than the
parent, each tree's ``tracemalloc`` peak in MiB over the call, measured
in one more, untimed subprocess per tree, and ``same`` or ``DIFFERS`` for
the dtypes and bytes of the returned factor and Schur complement; then,
per workload, the sum of each tree's per-level CPU medians.  Exits 1 on
any difference.
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
    calls.append({"workload": workload, "params": dataclasses.asdict(params),
                  "n_candidates": n_candidates})
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
import hashlib, json, resource, sys, time, tracemalloc
import numpy as np
import scipy.sparse as sp
from saddlesolve import mlilu

out, i = sys.argv[1], int(sys.argv[2])
call = json.load(open(f"{out}/calls.json"))[i]
z = np.load(f"{out}/level{i}.npz")
a = sp.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=tuple(z["shape"]))
params = mlilu.FactorParams(**call["params"])
"""

TIME = LOAD + """
block = mlilu._block_size(a)
start = time.process_time()
level, schur = mlilu.crout_ilu_level(a, params, call["n_candidates"])
seconds = time.process_time() - start
h = hashlib.sha256()
arrays = [arr for m in (level.L, level.U, schur) for arr in (m.data, m.indices, m.indptr)]
for arr in (*arrays, level.order, level.D, np.array([level.n_b, level.n_dynamic_deferred])):
    h.update(str(arr.dtype).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
print(block, seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, h.hexdigest())
"""

PEAK = LOAD + """
tracemalloc.start()
mlilu.crout_ilu_level(a, params, call["n_candidates"])
print(tracemalloc.get_traced_memory()[1] / 2**20)
"""


def _python(src: Path, args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
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
    names = list(trees)
    for src in trees.values():
        if not (src / "saddlesolve" / "__init__.py").is_file():
            print(f"error: no saddlesolve package under {src}", file=sys.stderr)
            return 2
    differs = 0
    medians = {name: {} for name in trees}
    with tempfile.TemporaryDirectory() as out:
        _python(trees["parent"], ["-c", CAPTURE, out, str(PERFBENCH)])
        with open(f"{out}/calls.json") as f:
            workloads = [call["workload"] for call in json.load(f)]
        for i, workload in enumerate(workloads):
            z = np.load(f"{out}/level{i}.npz")
            n = int(z["shape"][0])
            seconds = {name: [] for name in trees}
            rss = {name: [] for name in trees}
            digests = {name: set() for name in trees}
            blocks = {}
            for repeat in range(args.repeats):
                # the parent runs first in even repeats, the change in odd ones
                for name in names if repeat % 2 == 0 else names[::-1]:
                    blocks[name], s, mib, digest = _python(trees[name],
                                                           ["-c", TIME, out, str(i)]).split()
                    seconds[name].append(float(s))
                    rss[name].append(float(mib))
                    digests[name].add(digest)
            peaks = "  ".join(f"{name} {float(_python(src, ['-c', PEAK, out, str(i)])):.2f}"
                              for name, src in trees.items())
            same = len(digests["parent"] | digests["change"]) == 1
            faster = sum(c < p for p, c in zip(seconds["parent"], seconds["change"]))
            differs += not same
            for name in trees:
                medians[name].setdefault(workload, []).append(float(np.median(seconds[name])))
            print(f"level {i} ({workload}): n {n}, {z['data'].size / n:.0f} nnz/row, "
                  f"block {blocks['parent']}/{blocks['change']}, "
                  f"CPU s {_per_tree(seconds, '.2f')}, "
                  f"change faster in {faster} of {args.repeats}, "
                  f"peak RSS MiB {_per_tree(rss, '.1f')}, "
                  f"tracemalloc peak MiB {peaks}, "
                  f"{'same' if same else 'DIFFERS'}", flush=True)
    for workload in medians["parent"]:
        print(f"{workload} summed medians, CPU s: "
              + "  ".join(f"{name} {sum(medians[name][workload]):.2f}" for name in trees))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
