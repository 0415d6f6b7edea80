"""The benchmark's tracer still reaches every layer it times.

perfbench/spans.py times the package by replacing module attributes, so a
renamed function, or a call that stops resolving through a module global,
silently drops a layer from the benchmark.  This loads the tracer as it is
and checks that one small factorize-and-solve, and one small cavity run
through hybrid_newton, record a span per layer."""

import importlib.util
import sys
from pathlib import Path

import numpy as np

import saddlesolve
from saddlesolve.krylov import GmresParams
from saddlesolve.mlilu import FactorParams
from saddlesolve.nonlinear import SolverConfig

from conftest import random_saddle

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is built
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_tracer_records_every_factorization_and_solve_layer(monkeypatch):
    spans = _load_spans(monkeypatch)
    factorize = saddlesolve.mlilu.factorize
    tracer = spans.Tracer("hooks")
    spans.install(tracer, saddlesolve)
    try:
        a = random_saddle(40, 15, seed=3)
        with tracer.group("solve"):
            m = saddlesolve.mlilu.factorize(a, FactorParams(dense_switch=10))
            precond = saddlesolve.krylov.PrecondOperator(m)
            _, rep = saddlesolve.krylov.fgmres(a, precond, a @ np.ones(a.shape[0]), GmresParams())
    finally:
        tracer.restore()
    assert saddlesolve.mlilu.factorize is factorize
    assert rep.converged and len(m.levels) >= 1
    assert {s.name for s in tracer.spans} >= {
        "mlilu.factorize", "mlilu.equilibrate", "ordering.reorder", "mlilu.static_defer",
        "mlilu.crout_ilu_level", "mlilu.ml_solve", "krylov.precond_apply", "krylov.fgmres",
    }
    # the factor's derived counts reach the benchmark's metrics unchanged
    metrics = spans.layer_metrics(tracer.spans)
    assert metrics["mlilu.tail_n"] == m.tail_n
    assert metrics["mlilu.tail_perturbed"] == int(m.perturbed)
    assert metrics["mlilu.factor_nnz_ratio"] == m.total_nnz / a.nnz


def test_tracer_records_every_cavity_and_nonlinear_layer(monkeypatch):
    spans = _load_spans(monkeypatch)
    cavity = saddlesolve.cavity
    residual = cavity.residual
    tracer = spans.Tracer("hooks")
    spans.install(tracer, saddlesolve)
    try:
        with tracer.group("cavity"):
            prob = cavity.build_problem(3, 50.0)
            nlp = cavity.nonlinear_problem(prob, cavity.stokes_initial_guess(prob))
            _, report = saddlesolve.nonlinear.hybrid_newton(nlp, SolverConfig(sigma=1e-4))
    finally:
        tracer.restore()
    assert cavity.residual is residual
    assert report.converged
    assert {s.name for s in tracer.spans} >= {
        "cavity.build_problem", "cavity.stokes_initial_guess", "cavity.null_vector",
        "cavity.residual", "cavity.operator", "nonlinear.hybrid_newton",
        "nonlinear.armijo_damp",
    }
