"""Time the Crout kernel of two source trees level by level.

    python tools/crout_levels.py PARENT_SRC CHANGE_SRC [--repeats N]

Each argument is a ``src`` directory holding the ``saddlesolve`` package.
The first tree runs the ``cavity-l6-re1000`` benchmark configuration once
(level 6, Re 1000, sigma 1e-5, the high-Re regime, 2 refinement sweeps:
the Stokes initial guess, then ``hybrid_newton``) with
``mlilu.crout_ilu_level`` wrapped, and saves every call's input.  Then each
captured level is factorized N times (default 3) by each tree, the trees
alternating, every call in a fresh subprocess with one BLAS thread.  For
each level it prints n, the stored entries per row, the CPU seconds of each
call (``time.process_time``) and the peak resident memory in MiB of its
subprocess (``ru_maxrss``, which includes the interpreter, the imports and
the loaded input), each with its median per tree, and ``same`` or
``DIFFERS`` for the dtypes and bytes of the returned factor and Schur
complement; then the sum of each tree's per-level CPU medians.  Exits 1 on
any difference.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

CAPTURE = """
import dataclasses, json, sys
import numpy as np
from saddlesolve import cavity, mlilu, nonlinear

out = sys.argv[1]
inner = mlilu.crout_ilu_level
calls = []

def capture(a, params, n_candidates=None):
    a = a.tocsr()
    np.savez(f"{out}/level{len(calls)}.npz", data=a.data, indices=a.indices,
             indptr=a.indptr, shape=np.array(a.shape))
    calls.append({"params": dataclasses.asdict(params), "n_candidates": n_candidates})
    return inner(a, params, n_candidates)

mlilu.crout_ilu_level = capture
prob = cavity.build_problem(6, 1000.0)
nlp = cavity.nonlinear_problem(prob, cavity.stokes_initial_guess(prob))
nonlinear.hybrid_newton(nlp, nonlinear.SolverConfig(sigma=1e-5, regime="high_re",
                                                    refine_steps=2))
with open(f"{out}/calls.json", "w") as f:
    json.dump(calls, f)
"""

TIME = """
import hashlib, json, resource, sys, time
import numpy as np
import scipy.sparse as sp
from saddlesolve import mlilu

out, i = sys.argv[1], int(sys.argv[2])
call = json.load(open(f"{out}/calls.json"))[i]
z = np.load(f"{out}/level{i}.npz")
a = sp.csr_matrix((z["data"], z["indices"], z["indptr"]), shape=tuple(z["shape"]))
params = mlilu.FactorParams(**call["params"])
start = time.process_time()
level, schur = mlilu.crout_ilu_level(a, params, call["n_candidates"])
seconds = time.process_time() - start
h = hashlib.sha256()
arrays = [arr for m in (level.L, level.U, schur) for arr in (m.data, m.indices, m.indptr)]
for arr in (*arrays, level.order, level.D, np.array([level.n_b, level.n_dynamic_deferred])):
    h.update(str(arr.dtype).encode())
    h.update(np.ascontiguousarray(arr).tobytes())
print(seconds, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, h.hexdigest())
"""


def _python(src: Path, args: list[str]) -> str:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


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
    medians = {name: [] for name in trees}
    with tempfile.TemporaryDirectory() as out:
        _python(trees["parent"], ["-c", CAPTURE, out])
        n_levels = len(list(Path(out).glob("level*.npz")))
        for i in range(n_levels):
            z = np.load(f"{out}/level{i}.npz")
            n = int(z["shape"][0])
            seconds = {name: [] for name in trees}
            rss = {name: [] for name in trees}
            digests = {name: set() for name in trees}
            for _ in range(args.repeats):
                for name, src in trees.items():
                    s, mib, digest = _python(src, ["-c", TIME, out, str(i)]).split()
                    seconds[name].append(float(s))
                    rss[name].append(float(mib))
                    digests[name].add(digest)
            same = len(digests["parent"] | digests["change"]) == 1
            differs += not same
            for name in trees:
                medians[name].append(float(np.median(seconds[name])))
            print(f"level {i}: n {n}, {z['data'].size / n:.0f} nnz/row, "
                  f"CPU s {_per_tree(seconds, '.2f')}, peak RSS MiB {_per_tree(rss, '.1f')}, "
                  f"{'same' if same else 'DIFFERS'}", flush=True)
    print("summed medians, CPU s: "
          + "  ".join(f"{name} {sum(medians[name]):.2f}" for name in trees))
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
