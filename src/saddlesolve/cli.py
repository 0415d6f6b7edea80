"""Command-line entry point.

Three subcommands: ``cavity`` runs the built-in lid-driven benchmark end to
end, ``linsolve`` factorizes and solves an external Matrix Market system,
and ``factor-stats`` dumps per-level factorization statistics.  All outputs
are CSV (plus Matrix Market for vectors); a run with identical flags writes
byte-identical files, summary.txt included, so no file holds a timing.
The output directory defaults to the current directory or the
SADDLESOLVE_OUTDIR environment variable.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import cavity as cav
from .krylov import GmresParams, PrecondOperator, fgmres, finite_norm
from .mlilu import FactorizationError, FactorParams, factorize
from .mmio import mm_read, mm_write, write_csv
from .nonlinear import SolverConfig, hybrid_newton


def _pair(text):
    return tuple(float(v) for v in text.split(","))


# --set NAME=VALUE: every init field of SolverConfig and FactorParams, parsed
# by its annotation, but the five with another route: --sigma and --regime
# set sigma and regime, factor_params is set through its own fields, and
# hybrid_newton sets alpha and droptol per phase from alpha_pair/droptol_pair.
# An annotation without a parser is a KeyError here, at import.
_PARSERS = {"float": float, "int": int, "int | None": int, "Optional[tuple]": _pair}
_OVERRIDES = {f.name: (cls, _PARSERS[f.type])
              for cls in (SolverConfig, FactorParams) for f in fields(cls)
              if f.init and f.name not in {"sigma", "regime", "factor_params", "alpha", "droptol"}}


def _override(text):
    """Parse one --set NAME=VALUE into (config class, name, typed value)."""
    name, sep, value = (part.strip() for part in text.partition("="))
    if not sep:
        raise argparse.ArgumentTypeError(f"override must be name=value, got {text!r}")
    if name not in _OVERRIDES:
        raise argparse.ArgumentTypeError(f"unknown parameter {name!r}")
    cls, parse = _OVERRIDES[name]
    try:
        return cls, name, parse(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad value for {name}: {value!r}") from None


def _solver_config(args) -> SolverConfig:
    """SolverConfig from the cavity flags; raises ValueError on bad values."""
    regime = args.regime
    if regime == "auto":
        regime = "low_re" if args.re < 200 else "high_re"
    kwargs = {SolverConfig: {}, FactorParams: {}}
    for cls, name, value in args.set or []:
        kwargs[cls][name] = value
    return SolverConfig(sigma=args.sigma, regime=regime,
                        factor_params=FactorParams(**kwargs[FactorParams]),
                        **kwargs[SolverConfig])


def _out_dir(args) -> Path:
    path = Path(args.output_dir or os.environ.get("SADDLESOLVE_OUTDIR", "."))
    try:
        path.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _BadInput(f"unusable output directory: {exc}") from None
    return path


def _positive_float(text):
    value = float(text)
    if not (0 < value < np.inf):
        raise argparse.ArgumentTypeError(f"value must be positive and finite, got {text}")
    return value


def _finish(out: Path, summary: str) -> None:
    """Write the run's one-line summary to summary.txt and print it."""
    (out / "summary.txt").write_text(summary + "\n", encoding="ascii")
    print(summary)


def run_cavity(args) -> int:
    out = args.output_dir
    cfg = args.cfg
    prob = cav.build_problem(args.level, args.re, bc_kind=args.bc)
    # a Reynolds number so small that nu = 2/Re overflows the Stokes system
    # (a singular pinned matrix) or the initial residual (the one ValueError
    # hybrid_newton raises for a cavity) is an unusable input
    unusable = f"Reynolds number {args.re:g} is unusable: "
    try:
        guess = cav.stokes_initial_guess(prob)
    except RuntimeError as exc:
        raise _BadInput(unusable + str(exc)) from None
    try:
        x, report = hybrid_newton(cav.nonlinear_problem(prob, guess), cfg)
    except ValueError as exc:
        raise _BadInput(unusable + str(exc)) from None

    report.write_csv(out / "convergence.csv")
    cav.write_solution_csv(prob, x, out / "solution.csv")
    _finish(out, (
        f"command=cavity level={args.level} re={args.re:g} sigma={cfg.sigma:g} "
        f"bc={args.bc} regime={cfg.regime} converged={int(report.converged)} "
        f"nonlinear_iters={len(report.steps)} total_gmres={report.total_gmres} "
        f"final_normF={report.final_normF:.6e}"
    ))
    return 0 if report.converged else 1


class _BadInput(Exception):
    """An input file, Reynolds number or output directory that cannot be
    used: one 'error:' line, exit 2."""


def _read(path, kind):
    """mm_read, with a missing or malformed file as _BadInput."""
    try:
        return mm_read(path, kind=kind)
    except (OSError, ValueError) as exc:
        raise _BadInput(exc) from None


def _read_square(path):
    a = _read(path, "matrix")
    if a.shape[0] != a.shape[1]:
        raise _BadInput(f"matrix must be square, got {a.shape}")
    return a


def _read_vector(path, what, n):
    v = _read(path, "vector")
    if v.size != n:
        raise _BadInput(f"{what} length {v.size} does not match matrix size {n}")
    return v


def run_linsolve(args) -> int:
    out = args.output_dir
    a = _read_square(args.matrix)
    n = a.shape[0]
    b = _read_vector(args.rhs, "rhs", n) if args.rhs else a @ np.ones(n)
    null = _read_vector(args.null_vector, "null vector", n) if args.null_vector else None
    try:
        finite_norm(b, "rhs")
        if null is not None and finite_norm(null, "null vector") == 0:
            raise _BadInput("null vector must be nonzero")
    except ValueError as exc:
        raise _BadInput(exc) from None

    factor = factorize(a, args.params)
    precond = PrecondOperator(factor, j_op=a, null_basis=null,
                              refine_steps=args.refine_steps)
    try:
        x, rep = fgmres(a, precond, b, args.gmres)
    except ValueError as exc:  # a product of the matrix that is not finite
        raise _BadInput(exc) from None

    mm_write(x, out / "solution.mtx")
    rep.write_history_csv(out / "residual_history.csv")
    _finish(out, (
        f"command=linsolve matrix={args.matrix} n={n} nnz={a.nnz} "
        f"factor_nnz={factor.total_nnz} converged={int(rep.converged)} "
        f"iterations={rep.iterations} relres={rep.final_relres:.6e}"
    ))
    return 0 if rep.converged else 1


def run_factor_stats(args) -> int:
    out = args.output_dir
    a = _read_square(args.matrix)
    factor = factorize(a, args.params)
    tail = factor.tail_n
    write_csv(out / "factor_stats.csv", ("level", "n", "n_b", "deferred", "nnz"),
              [(k, lev.n, lev.n_b, lev.n_static_deferred + lev.n_dynamic_deferred, lev.nnz)
               for k, lev in enumerate(factor.levels, 1)]
              + [(len(factor.levels) + 1, tail, tail, 0, tail * tail)])
    _finish(out, (
        f"command=factor-stats matrix={args.matrix} n={a.shape[0]} nnz={a.nnz} "
        f"levels={len(factor.levels)} tail_n={tail} tail_rank={factor.tail_rank} "
        f"total_nnz={factor.total_nnz} perturbed={int(factor.perturbed)}"
    ))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="saddlesolve",
        description="Multilevel-ILU preconditioned solvers for sparse saddle-point systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # the flags more than one subcommand takes
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output-dir", default=None)
    system = argparse.ArgumentParser(add_help=False)
    system.add_argument("--matrix", required=True)
    system.add_argument("--alpha", type=float, default=5.0)
    system.add_argument("--droptol", type=float, default=0.01)

    pc = sub.add_parser("cavity", parents=[output], help="run the lid-driven cavity benchmark")
    pc.add_argument("--level", type=int, choices=range(3, 13), required=True,
                    metavar="{3..12}", help="mesh level")
    pc.add_argument("--re", type=_positive_float, required=True, help="Reynolds number")
    pc.add_argument("--sigma", type=float, default=1e-6, help="nonlinear relative tolerance")
    pc.add_argument("--bc", choices=["standard", "regularized"], default="standard")
    pc.add_argument("--regime", choices=["auto", "low_re", "high_re"], default="auto")
    pc.add_argument("--set", action="append", type=_override, metavar="NAME=VALUE",
                    help="override a solver or factorization parameter")
    pc.set_defaults(func=run_cavity)

    pl = sub.add_parser("linsolve", parents=[system, output],
                        help="solve an external Matrix Market system")
    pl.add_argument("--rhs", default=None)
    pl.add_argument("--null-vector", default=None)
    pl.add_argument("--restart", type=int, default=30)
    pl.add_argument("--rtol", type=float, default=1e-10)
    pl.add_argument("--max-iters", type=int, default=200)
    pl.add_argument("--refine-steps", type=int, default=1)
    pl.set_defaults(func=run_linsolve)

    pf = sub.add_parser("factor-stats", parents=[system, output],
                        help="dump per-level factorization statistics")
    pf.set_defaults(func=run_factor_stats)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # parameters, then the output directory, are checked before any assembly
    # or file read
    try:
        if args.command == "cavity":
            args.cfg = _solver_config(args)
        else:
            args.params = FactorParams(alpha=args.alpha, droptol=args.droptol)
        if args.command == "linsolve":
            args.gmres = GmresParams(restart=args.restart, max_iters=args.max_iters,
                                     rtol=args.rtol)
            if args.refine_steps < 1:
                raise ValueError("refine_steps must be >= 1")
    except ValueError as exc:
        parser.error(str(exc))
    try:
        args.output_dir = _out_dir(args)
        return args.func(args)
    except (_BadInput, FactorizationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
