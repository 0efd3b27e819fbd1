"""Span tracing of benchmark operations, done from the benchmark's own files.

Tracing wraps the package's functions where their callers look them up:
``fixed_point`` and ``cli`` bind their imports at import time, so the
wrappers replace the names in those two modules for the length of a traced
operation and put the originals back afterwards.  The clamped sources
F-hat/G-hat are wrapped as ``fixed_point.wrap_model`` returns them; the
model's own F, G, drift and final cost are wrapped in a
``dataclasses.replace`` copy of the model and cost.  ``parabolic`` is
wrapped only where ``fixed_point`` calls it, so the internal
``solve_backward`` -> ``solve_forward`` call is not counted twice.

A span is ``[name, start, end, parent, run_id, work]``; the part of the
name before the first dot is the layer its self time is charged to
(``iterate_distance`` lives in ``fixed_point`` but is charged to
``torus_grid`` with the norms it computes).  Spans stay in memory until the
run ends.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import replace
from time import perf_counter
from types import SimpleNamespace

import fbmfg
from fbmfg import cli, fixed_point

LAYERS = ("cli", "fixed_point", "parabolic", "truncation", "models", "torus_grid")

# The root span of a traced operation; its self time is the benchmark's own.
OP_ROOT = "bench.op"
# Building a model or final cost, at the root (the benchmark's set-up) or
# inside the CLI.
BUILD = "models.build"

NAME, START, END, PARENT, RUN, WORK = range(6)


def _march_work(problem, **_):
    """Grid points times time steps of one march."""
    return problem.grid.nt * problem.grid.num_points


class Tracer:
    """Records nested spans of one thread in memory."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._thread = threading.get_ident()

    def _open(self, name: str, work: int) -> list:
        if threading.get_ident() != self._thread:
            raise RuntimeError("spans nest per thread; the workloads must run serially")
        parent = self._stack[-1] if self._stack else -1
        record = [name, 0.0, 0.0, parent, self.run_id, work]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[START] = perf_counter()
        return record

    def _close(self, record: list) -> None:
        record[END] = perf_counter()
        self._stack.pop()

    def wrap(self, name: str, fn, work=None):
        def traced(*args, **kwargs):
            record = self._open(name, work(*args, **kwargs) if work else 0)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    @contextmanager
    def span(self, name: str):
        record = self._open(name, 0)
        try:
            yield record
        finally:
            self._close(record)

    def model(self, model):
        return replace(
            model,
            F=self.wrap("models.F", model.F),
            G=self.wrap("models.G", model.G),
            optimal_drift=(
                None if model.optimal_drift is None
                else self.wrap("models.drift", model.optimal_drift)
            ),
        )

    def cost(self, cost):
        return replace(cost, fn=self.wrap("models.final_cost", cost.fn))

    def api(self) -> SimpleNamespace:
        """The benchmark's entry points, wrapped (see workloads.plain_api)."""
        return SimpleNamespace(
            picard_solve=self.wrap("fixed_point.picard_solve", fbmfg.picard_solve),
            solve_fp_conservative=self.wrap(
                "parabolic.conservative", fbmfg.solve_fp_conservative
            ),
            gradient_values=self.wrap(
                "torus_grid.gradient_values", fbmfg.torus_grid.gradient_values
            ),
            cli_main=self.wrap("cli.main", cli.main),
            model=self.model,
            cost=self.cost,
        )

    def _builder(self, fn, timed):
        build = self.wrap(BUILD, fn)
        return lambda *args, **kwargs: timed(build(*args, **kwargs))

    def _wrap_model(self, real):
        def wrap_model(F, G, params):
            F_hat, G_hat = real(F, G, params)
            return (self.wrap("truncation.F_hat", F_hat),
                    self.wrap("truncation.G_hat", G_hat))

        return wrap_model

    @contextmanager
    def installed(self):
        """Swap the wrappers into ``fixed_point`` and ``cli`` for a while."""
        fp = {
            "apply_T": self.wrap("fixed_point.apply_T", fixed_point.apply_T),
            "picard_solve": self.wrap("fixed_point.picard_solve",
                                      fixed_point.picard_solve),
            "iterate_distance": self.wrap("torus_grid.iterate_distance",
                                          fixed_point.iterate_distance),
            "solve_forward": self.wrap("parabolic.forward", fixed_point.solve_forward,
                                       _march_work),
            "solve_backward": self.wrap("parabolic.backward",
                                        fixed_point.solve_backward, _march_work),
            "select_K": self.wrap("truncation.select_K", fixed_point.select_K),
            "wrap_model": self._wrap_model(fixed_point.wrap_model),
        }
        for name in ("gradient_values", "hessian_values", "norm_C1", "norm_C10",
                     "norm_W21p", "time_derivative"):
            fp[name] = self.wrap(f"torus_grid.{name}", getattr(fixed_point, name))
        front = {
            "picard_solve": fp["picard_solve"],
            "horizon_sweep": self.wrap("fixed_point.horizon_sweep", cli.horizon_sweep),
        }
        for name in ("quadratic_mfg_model", "congestion_model",
                     "linear_counterexample_model", "decoupled_heat_model"):
            front[name] = self._builder(getattr(cli, name), self.model)
        for name in ("final_cost_convolution", "final_cost_scaled_identity",
                     "final_cost_constant"):
            front[name] = self._builder(getattr(cli, name), self.cost)

        saved = [(module, name, getattr(module, name))
                 for module, names in ((fixed_point, fp), (cli, front))
                 for name in names]
        try:
            for module, names in ((fixed_point, fp), (cli, front)):
                for name, fn in names.items():
                    setattr(module, name, fn)
            yield
        finally:
            for module, name, fn in saved:
                setattr(module, name, fn)


def run_metrics(spans: list[list], run_id: int) -> tuple[dict, list[float]]:
    """Per-layer figures of one traced run (one build and one operation).

    Returns the figures and the durations of its sweeps in milliseconds.
    """
    index = [i for i, s in enumerate(spans) if s[RUN] == run_id]
    children: dict[int, float] = {}
    root: dict[int, int] = {}
    for i in index:
        s = spans[i]
        parent = s[PARENT]
        root[i] = i if parent < 0 else root[parent]
        if parent >= 0:
            children[parent] = children.get(parent, 0.0) + (s[END] - s[START])

    def dur(i):
        return spans[i][END] - spans[i][START]

    def self_time(i):
        return dur(i) - children.get(i, 0.0)

    op = [i for i in index if spans[i][NAME] == OP_ROOT]
    if len(op) != 1:
        raise RuntimeError(f"run {run_id} has {len(op)} operation spans")
    op = op[0]
    in_op = [i for i in index if root[i] == op and i != op]
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i in in_op:
        layer_self[spans[i][NAME].split(".", 1)[0]] += self_time(i)

    def total(names, ids=in_op):
        return sum((self_time(i) for i in ids if spans[i][NAME] in names), 0.0)

    def count(names):
        return sum(1 for i in in_op if spans[i][NAME] in names)

    marches = ("parabolic.forward", "parabolic.backward")
    march_s = total(marches)
    march_work = sum(spans[i][WORK] for i in in_op if spans[i][NAME] in marches)
    sources = ("truncation.F_hat", "truncation.G_hat")
    derivatives = ("torus_grid.gradient_values", "torus_grid.hessian_values")
    sweeps_ms = [dur(i) * 1e3 for i in in_op if spans[i][NAME] == "fixed_point.apply_T"]
    op_s = dur(op)
    figures = {
        "parabolic.forward_s": total(("parabolic.forward",)),
        "parabolic.backward_s": total(("parabolic.backward",)),
        "parabolic.marches": count(marches),
        "parabolic.point_steps_per_s": march_work / march_s if march_s > 0 else 0.0,
        "parabolic.conservative_s": total(("parabolic.conservative",)),
        "truncation.source_calls": count(sources),
        "truncation.clamp_s": total(sources),
        "models.source_s": total(("models.F", "models.G", "models.drift")),
        "models.final_cost_s": total(("models.final_cost",)),
        "models.final_cost_calls": count(("models.final_cost",)),
        "models.build_s": total((BUILD,), ids=index),
        "torus_grid.norms_s": layer_self["torus_grid"],
        "torus_grid.derivative_calls": count(derivatives),
        "fixed_point.sweeps": len(sweeps_ms),
        "fixed_point.self_s": layer_self["fixed_point"],
        "cli.self_s": layer_self["cli"],
        "trace.solve_s": op_s,
        "trace.accounted_frac": sum(layer_self.values()) / op_s,
    }
    return figures, sweeps_ms


def write_spans(spans: list[list], run_id: int, path: str) -> None:
    """Write the spans of one run as CSV, times relative to its first span."""
    rows = [(i, s) for i, s in enumerate(spans) if s[RUN] == run_id]
    t0 = rows[0][1][START] if rows else 0.0
    with open(path, "w") as fh:
        fh.write("span,name,parent,start_s,end_s,work\n")
        for i, s in rows:
            fh.write(f"{i},{s[NAME]},{s[PARENT]},{s[START] - t0!r},"
                     f"{s[END] - t0!r},{s[WORK]}\n")
