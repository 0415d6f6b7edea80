"""Check that two source trees write byte-identical run artifacts.

    python tools/same_bits.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding the ``saddlesolve`` package.
Both trees run the same CLI commands, each with PYTHONPATH set to its own
``src``, one BLAS thread and its own output directory: five cavity runs
(one of them sets a solver and a factorization parameter of each parser
kind through ``--set``),
``linsolve`` and ``factor-stats`` on the level-4 Re 100 Stokes system,
``linsolve`` on that system and its right-hand side scaled by 1e-170,
where the squares of the right-hand side's norm underflow,
``factor-stats`` on 2 I of n 600, whose one level eliminates every unknown
and leaves an empty dense tail, ``factor-stats`` on the 22 x 22
five-point Laplacian, which the default rule's size clause sends to the
dense tail whole, and ``linsolve`` on a seeded dense rank-1 matrix of n 60,
whose tail cuts 59 directions in the near-null search's doubling rounds,
and ``factor-stats`` on a 3 x 3 matrix whose equilibrated dense tail
makes the near-null search not finite, which is refused; a refused run
writes no artifact, so only its exit status is compared.
Each tree exports these systems, so that a change to ``stokes_operator``,
``stokes_rhs`` or the assembly shows, and every exported file is compared
byte for byte, printing ``same system/<file>`` or ``DIFFERS
system/<file>``; both sides then run on the first tree's files, so that
the runs compare the solvers alone.
Every artifact, ``summary.txt`` included, is compared byte for byte, and
so is each run's exit status.  Prints ``same <artifact>`` or ``DIFFERS
<artifact>`` per artifact and ``same exit <run>`` or ``DIFFERS exit
<run>`` per run, and exits 1 on any difference.  For a run whose
artifacts differ it also prints both trees' counts from ``summary.txt``
(``converged``, ``nonlinear_iters`` and ``total_gmres``, or ``iterations``
for ``linsolve``), so that bits that differ with equal counts show as such.
Given the same tree twice, it checks that reruns are byte-identical.
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile
from pathlib import Path

CAVITY_RUNS = {
    "cavity-l4-re100": ["--level", "4", "--re", "100"],
    "cavity-l5-re200-high": ["--level", "5", "--re", "200", "--sigma", "1e-5",
                             "--regime", "high_re"],
    "cavity-l4-re100-regularized": ["--level", "4", "--re", "100", "--bc", "regularized",
                                    "--set", "refine_steps=1"],
    # one --set override of each parser kind: int, float, pair and int | None
    "cavity-l4-re100-overrides": ["--level", "4", "--re", "100", "--set", "n_trigger=15",
                                  "--set", "picard_eta=0.2", "--set", "alpha_pair=3,3",
                                  "--set", "cond_thresh=8", "--set", "dense_switch=100"],
    # its dense Schur levels (n ~ 2000-2400) are the Crout kernel's heaviest gathers
    "cavity-l6-re1000-high": ["--level", "6", "--re", "1000", "--sigma", "1e-5",
                              "--regime", "high_re"],
}

# the counts printed from summary.txt when a run's artifacts differ
COUNTS = {
    "cavity": ("converged", "nonlinear_iters", "total_gmres"),
    "linsolve": ("converged", "iterations"),
}

# the files each command writes besides summary.txt
ARTIFACTS = {
    "cavity": ("convergence.csv", "solution.csv"),
    "linsolve": ("solution.mtx", "residual_history.csv"),
    "factor-stats": ("factor_stats.csv",),
}

EXPORT = """
import sys
import numpy as np
import scipy.sparse as sp
from saddlesolve import cavity, mm_write
prob = cavity.build_problem(4, re=100.0)
mm_write(cavity.stokes_operator(prob), sys.argv[1] + "/stokes.mtx")
mm_write(cavity.stokes_rhs(prob), sys.argv[1] + "/rhs.mtx")
mm_write(cavity.null_vector(prob), sys.argv[1] + "/null.mtx")
mm_write(1e-170 * cavity.stokes_operator(prob), sys.argv[1] + "/stokes-tiny.mtx")
mm_write(1e-170 * cavity.stokes_rhs(prob), sys.argv[1] + "/rhs-tiny.mtx")
mm_write(2.0 * sp.eye(600, format="csr"), sys.argv[1] + "/identity2.mtx")
lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(22, 22))
mm_write(sp.kronsum(lap, lap, format="csr"), sys.argv[1] + "/laplacian22.mtx")
rng = np.random.default_rng(35)
rank1 = np.outer(rng.standard_normal(60), rng.standard_normal(60))
mm_write(sp.csr_matrix(rank1), sys.argv[1] + "/rank1.mtx")
tiny = np.array([[1e-300, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.7098, 1e-300]])
mm_write(sp.csr_matrix(tiny), sys.argv[1] + "/underflowing-tail.mtx")
"""

# the runs the solver refuses: they write no artifact, so only the exit
# status is compared
REFUSED = {"factor-stats-underflowing-tail"}


def _python(src: Path, args: list[str]) -> int:
    """Run python with this tree; returns the exit status."""
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    return subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL).returncode


def _runs(system: Path) -> dict[str, list[str]]:
    """Each run's CLI arguments, by run name."""
    runs = {name: ["cavity", *flags] for name, flags in CAVITY_RUNS.items()}
    runs["linsolve"] = ["linsolve", "--matrix", str(system / "stokes.mtx"),
                        "--rhs", str(system / "rhs.mtx"),
                        "--null-vector", str(system / "null.mtx"), "--refine-steps", "2"]
    # the same system scaled by 1e-170, where the squares of ||b|| underflow
    runs["linsolve-tiny"] = ["linsolve", "--matrix", str(system / "stokes-tiny.mtx"),
                             "--rhs", str(system / "rhs-tiny.mtx"),
                             "--null-vector", str(system / "null.mtx"), "--refine-steps", "2"]
    runs["linsolve-rank-one"] = ["linsolve", "--matrix", str(system / "rank1.mtx")]
    runs["factor-stats"] = ["factor-stats", "--matrix", str(system / "stokes.mtx")]
    runs["factor-stats-empty-tail"] = ["factor-stats", "--matrix", str(system / "identity2.mtx")]
    runs["factor-stats-laplacian"] = ["factor-stats", "--matrix",
                                      str(system / "laplacian22.mtx")]
    runs["factor-stats-underflowing-tail"] = ["factor-stats", "--matrix",
                                              str(system / "underflowing-tail.mtx")]
    return runs


def _content(path: Path) -> bytes | None:
    """The artifact's bytes; None if absent."""
    return path.read_bytes() if path.is_file() else None


def _counts(summary: bytes | None, keys: tuple[str, ...]) -> str:
    """The values of ``keys`` in a summary line, as key=value pairs."""
    if summary is None:
        return "no summary.txt"
    fields = dict(f.split("=", 1) for f in summary.decode().split() if "=" in f)
    return " ".join(f"{k}={fields.get(k)}" for k in keys)


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    trees = {"parent": Path(argv[0]).resolve(), "change": Path(argv[1]).resolve()}
    for src in trees.values():
        if not (src / "saddlesolve" / "__init__.py").is_file():
            print(f"error: no saddlesolve package under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        exported = {tree: tmp / "system" / tree for tree in trees}
        for tree, src in trees.items():
            exported[tree].mkdir(parents=True)
            _python(src, ["-c", EXPORT, str(exported[tree])])
        differs = 0
        for name in sorted({f.name for d in exported.values() for f in d.iterdir()}):
            a, b = (_content(exported[tree] / name) for tree in trees)
            same = a is not None and a == b
            differs += not same
            print(f"{'same' if same else 'DIFFERS'} system/{name}")
        for run, args in _runs(exported["parent"]).items():
            status = {tree: _python(src, ["-m", "saddlesolve.cli", *args,
                                          "--output-dir", str(tmp / tree / run)])
                      for tree, src in trees.items()}
            run_differs = 0
            for name in () if run in REFUSED else (*ARTIFACTS[args[0]], "summary.txt"):
                a, b = (_content(tmp / tree / run / name) for tree in trees)
                same = a is not None and a == b
                run_differs += not same
                print(f"{'same' if same else 'DIFFERS'} {run}/{name}")
            if run_differs and args[0] in COUNTS:
                print(f"counts {run}: " + "  ".join(
                    f"{tree} {_counts(_content(tmp / tree / run / 'summary.txt'), COUNTS[args[0]])}"
                    for tree in trees))
            differs += run_differs
            same = status["parent"] == status["change"]
            differs += not same
            print(f"{'same' if same else 'DIFFERS'} exit {run}", flush=True)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
