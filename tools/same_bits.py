"""Check that two source trees write byte-identical run artifacts.

    python tools/same_bits.py PARENT_SRC CHANGE_SRC

Each argument is a ``src`` directory holding the ``saddlesolve`` package.
Both trees run the same CLI commands, each with PYTHONPATH set to its own
``src`` and one BLAS thread: four cavity runs, and ``linsolve`` and
``factor-stats`` on the level-4 Re 100 Stokes system, which the first tree
exports once so both sides read the same files.  Every CSV and Matrix
Market artifact is compared byte for byte, and so is each run's
``summary.txt`` with its ``wall_seconds=`` field removed, so that the
converged flag, the counts, ``final_normF`` and ``factor_nnz`` /
``total_nnz`` are checked too.  Prints ``same <artifact>`` or
``DIFFERS <artifact>`` per artifact and exits 1 on any difference.
"""

from __future__ import annotations

import os
import re
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
    # its dense Schur levels (n ~ 2000-2400) are the Crout kernel's heaviest gathers
    "cavity-l6-re1000-high": ["--level", "6", "--re", "1000", "--sigma", "1e-5",
                              "--regime", "high_re"],
}

EXPORT = """
import sys
from saddlesolve import cavity, mm_write
prob = cavity.build_problem(4, re=100.0)
mm_write(cavity.stokes_operator(prob), sys.argv[1] + "/stokes.mtx")
mm_write(cavity.stokes_rhs(prob), sys.argv[1] + "/rhs.mtx")
mm_write(cavity.null_vector(prob), sys.argv[1] + "/null.mtx")
"""


def _python(src: Path, args: list[str]) -> None:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1")
    # the exit status is not compared: a run that does not converge still
    # writes its artifacts, and those are what must match
    subprocess.run([sys.executable, *args], env=env, stdout=subprocess.DEVNULL, check=False)


def _run_tree(src: Path, out: Path, system: Path) -> list[str]:
    """Run every command with this tree; returns the artifact paths under out."""
    cli = ["-m", "saddlesolve.cli"]
    for name, flags in CAVITY_RUNS.items():
        _python(src, [*cli, "cavity", *flags, "--output-dir", str(out / name)])
    _python(src, [*cli, "linsolve", "--matrix", str(system / "stokes.mtx"),
                  "--rhs", str(system / "rhs.mtx"), "--null-vector", str(system / "null.mtx"),
                  "--refine-steps", "2", "--output-dir", str(out / "linsolve")])
    _python(src, [*cli, "factor-stats", "--matrix", str(system / "stokes.mtx"),
                  "--output-dir", str(out / "factor-stats")])
    return ([f"{name}/{f}" for name in CAVITY_RUNS
             for f in ("convergence.csv", "solution.csv", "summary.txt")]
            + ["linsolve/solution.mtx", "linsolve/residual_history.csv", "linsolve/summary.txt",
               "factor-stats/factor_stats.csv", "factor-stats/summary.txt"])


def _content(path: Path) -> bytes | None:
    """The artifact's bytes, a summary's without its wall time; None if absent."""
    if not path.is_file():
        return None
    data = path.read_bytes()
    if path.name == "summary.txt":
        data = re.sub(rb" wall_seconds=\S+", b"", data)
    return data


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change = (Path(p).resolve() for p in argv)
    for src in (parent, change):
        if not (src / "saddlesolve" / "__init__.py").is_file():
            print(f"error: no saddlesolve package under {src}", file=sys.stderr)
            return 2
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        system = tmp / "system"
        system.mkdir()
        _python(parent, ["-c", EXPORT, str(system)])
        artifacts = _run_tree(parent, tmp / "parent", system)
        _run_tree(change, tmp / "change", system)
        differs = 0
        for name in artifacts:
            a, b = _content(tmp / "parent" / name), _content(tmp / "change" / name)
            same = a is not None and a == b
            differs += not same
            print(f"{'same' if same else 'DIFFERS'} {name}")
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
