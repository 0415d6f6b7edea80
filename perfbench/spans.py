"""In-memory spans around calls into saddlesolve's public functions.

A Tracer replaces a module (or class) attribute with a timing wrapper while
it is installed, so every call that resolves the name through that
attribute is recorded: ``saddlesolve.nonlinear.factorize`` is the name
``hybrid_newton`` calls, ``saddlesolve.mlilu.reorder`` the one
``factorize`` calls.  Nothing under ``src/`` is edited; what cannot be
reached through a public name (Crout elimination versus Schur complement
formation, the dense-tail LU versus the permutations) is not split.

Spans are kept in memory and recorded only inside a group (one set-up
pass or one timed operation), so the correctness checks that run between
groups are not counted.  A span keeps its run id, name, start, end, parent
span and group, plus a few counts taken from the call's result; results
themselves are not kept, so tracing does not hold factorizations alive.
"""

from __future__ import annotations

import contextlib
import functools
import math
import os
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    run: str
    id: int
    name: str
    start: float
    parent: int | None
    group: str
    end: float = math.nan
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self, run_id: str, clock=time.perf_counter):
        self.run_id = run_id
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._group: str | None = None
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(self.run_id, len(self.spans), name, self.clock(), parent, self._group)
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = self.clock()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name``; ``counts(args, result)`` returns the span's attributes."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            if self._group is None:
                return original(*args, **kwargs)
            span = self._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self._close(span)
            if counts is not None:
                span.attrs = counts(args, result)
            return result

        self._patched.append((owner, attr, original))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def group(self, label: str):
        """Record the calls made inside the block under one root span."""
        self._group = label
        root = self._open(label)
        try:
            yield root
        finally:
            self._close(root)
            self._group = None


def span_cost_s(calls: int = 20000, repeats: int = 5) -> float:
    """Seconds one traced call adds to an untraced one: a wrapped no-op
    called inside a group, minus the bare no-op, median over ``repeats``."""

    class Target:
        @staticmethod
        def noop():
            return None

    bare = Target.noop
    tracer = Tracer("span-cost")
    tracer.wrap(Target, "noop", "noop")
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            bare()
        t1 = time.perf_counter()
        with tracer.group("cost"):
            for _ in range(calls):
                Target.noop()
        t2 = time.perf_counter()
        tracer.spans.clear()
        costs.append(((t2 - t1) - (t1 - t0)) / calls)
    return statistics.median(costs)


def plain(value):
    """JSON encoder fallback for numpy scalars."""
    return value.item()


def install(tracer: Tracer, saddlesolve) -> None:
    """Wrap every public name the workloads reach, in the namespace its
    caller resolves it from."""
    cavity, krylov = saddlesolve.cavity, saddlesolve.krylov
    mlilu, mmio, nonlinear = saddlesolve.mlilu, saddlesolve.mmio, saddlesolve.nonlinear

    # called by the benchmark itself, or from its nonlinear-problem callbacks
    tracer.wrap(cavity, "build_problem", "cavity.build_problem")
    tracer.wrap(cavity, "null_vector", "cavity.null_vector")
    tracer.wrap(cavity, "stokes_initial_guess", "cavity.stokes_initial_guess")
    tracer.wrap(cavity, "residual", "cavity.residual")
    tracer.wrap(cavity, "oseen_operator", "cavity.operator")
    tracer.wrap(cavity, "newton_operator", "cavity.operator")
    tracer.wrap(nonlinear, "hybrid_newton", "nonlinear.hybrid_newton",
                lambda args, res: _nonlinear_counts(res[1]))
    tracer.wrap(mmio, "mm_read", "mmio.mm_read",
                lambda args, res: {"bytes": os.path.getsize(args[0])})
    tracer.wrap(mlilu, "factorize", "mlilu.factorize", _factor_counts)
    tracer.wrap(krylov, "fgmres", "krylov.fgmres", _krylov_counts)
    # called from inside the package
    for owner in (cavity, nonlinear):
        tracer.wrap(owner, "factorize", "mlilu.factorize", _factor_counts)
        tracer.wrap(owner, "fgmres", "krylov.fgmres", _krylov_counts)
    tracer.wrap(nonlinear, "armijo_damp", "nonlinear.armijo_damp")
    tracer.wrap(mlilu, "equilibrate", "mlilu.equilibrate")
    tracer.wrap(mlilu, "reorder", "ordering.reorder")
    tracer.wrap(mlilu, "static_defer", "mlilu.static_defer")
    tracer.wrap(mlilu, "crout_ilu_level", "mlilu.crout_ilu_level")
    tracer.wrap(krylov, "ml_solve", "mlilu.ml_solve",
                lambda args, res: {"bytes": factor_bytes(args[0])})
    tracer.wrap(krylov.PrecondOperator, "apply", "krylov.precond_apply")


def _nonlinear_counts(report) -> dict:
    return {
        "steps": len(report.steps),
        "refactorizations": sum(s.refactorized for s in report.steps),
        "halvings": sum(round(-math.log2(s.omega)) for s in report.steps),
    }


def _factor_counts(args, factor) -> dict:
    return {
        "levels": len(factor.levels),
        "tail_n": factor.tail_n,
        "perturbed": int(factor.perturbed),
        "deferred_static": sum(lev.n_static_deferred for lev in factor.levels),
        "deferred_dynamic": sum(lev.n_dynamic_deferred for lev in factor.levels),
        "nnz_ratio": factor.total_nnz / args[0].nnz,
    }


def _krylov_counts(args, result) -> dict:
    rep = result[1]
    return {"iterations": rep.iterations, "converged": int(rep.converged),
            "breakdown": int(rep.breakdown)}


def factor_bytes(factor) -> int:
    """Bytes one multilevel solve reads from the factor, computed from the
    stored L and U arrays, the pivots and the dense tail (tail_n^2 doubles);
    cache misses and the work vectors are not counted."""
    total = 8 * factor.tail_n * factor.tail_n
    for lev in factor.levels:
        for m in (lev.L, lev.U):
            total += m.data.nbytes + m.indices.nbytes + m.indptr.nbytes
        total += lev.D.nbytes
    return total


def _self_times(spans: list[Span]) -> dict[int, float]:
    """Duration of each span minus the durations of its direct children."""
    own = {s.id: s.duration for s in spans}
    for s in spans:
        if s.parent in own:
            own[s.parent] -= s.duration
    return own


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one group's spans (one set-up pass or one
    operation).  Factorization shape counts come from the group's last
    factorization, which for a cavity run is a Newton-phase one."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    own = _self_times(spans)

    def total(name):
        return math.fsum(s.duration for s in by_name.get(name, ()))

    def calls(name):
        return len(by_name.get(name, ()))

    def attr_sum(name, key):
        return sum(s.attrs[key] for s in by_name.get(name, ()))

    factors = by_name.get("mlilu.factorize", [])
    last = factors[-1].attrs if factors else {}
    fgmres = by_name.get("krylov.fgmres", [])
    nl_steps = attr_sum("nonlinear.hybrid_newton", "steps")
    refactors = attr_sum("nonlinear.hybrid_newton", "refactorizations")
    return {
        "cavity.stokes_guess_s": total("cavity.stokes_initial_guess"),
        "cavity.residual_s": total("cavity.residual"),
        "cavity.residual_calls": calls("cavity.residual"),
        "cavity.operator_s": total("cavity.operator"),
        "cavity.operator_calls": calls("cavity.operator"),
        "nonlinear.steps": nl_steps,
        "nonlinear.refactorizations": refactors,
        "nonlinear.refactor_ratio": refactors / nl_steps if nl_steps else 0.0,
        "nonlinear.halvings": attr_sum("nonlinear.hybrid_newton", "halvings"),
        "nonlinear.armijo_s": total("nonlinear.armijo_damp"),
        "nonlinear.self_s": math.fsum(own[s.id] for s in by_name.get("nonlinear.hybrid_newton", ())),
        "mlilu.factorize_s": total("mlilu.factorize"),
        "mlilu.factorize_calls": calls("mlilu.factorize"),
        "mlilu.equilibrate_s": total("mlilu.equilibrate"),
        "ordering.reorder_s": total("ordering.reorder"),
        "ordering.reorder_calls": calls("ordering.reorder"),
        "mlilu.static_defer_s": total("mlilu.static_defer"),
        "mlilu.crout_s": total("mlilu.crout_ilu_level"),
        "mlilu.factorize_self_s": math.fsum(own[s.id] for s in factors),
        "mlilu.levels": last.get("levels", 0),
        "mlilu.tail_n": last.get("tail_n", 0),
        "mlilu.tail_perturbed": last.get("perturbed", 0),
        "mlilu.deferred_static": last.get("deferred_static", 0),
        "mlilu.deferred_dynamic": last.get("deferred_dynamic", 0),
        "mlilu.factor_nnz_ratio": last.get("nnz_ratio", 0.0),
        "mlilu.ml_solve_s": total("mlilu.ml_solve"),
        "mlilu.ml_solve_calls": calls("mlilu.ml_solve"),
        "mlilu.ml_solve_bytes": attr_sum("mlilu.ml_solve", "bytes"),
        "krylov.fgmres_s": total("krylov.fgmres"),
        "krylov.fgmres_calls": len(fgmres),
        "krylov.iterations": attr_sum("krylov.fgmres", "iterations"),
        "krylov.precond_apply_s": total("krylov.precond_apply"),
        "krylov.arnoldi_s": math.fsum(own[s.id] for s in fgmres),
        "krylov.converged_ratio": attr_sum("krylov.fgmres", "converged") / len(fgmres) if fgmres else 0.0,
        "krylov.breakdowns": attr_sum("krylov.fgmres", "breakdown"),
        "mmio.read_s": total("mmio.mm_read"),
        "mmio.read_bytes": attr_sum("mmio.mm_read", "bytes"),
    }


def median_metrics(groups: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over groups; counts that agree stay integers."""
    out = {}
    for k in groups[0]:
        values = [g[k] for g in groups]
        m = statistics.median(values)
        out[k] = int(m) if all(isinstance(v, int) for v in values) and m == int(m) else m
    return out
