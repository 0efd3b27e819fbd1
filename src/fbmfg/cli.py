"""Configuration-driven batch front end.

A run is described by a flat text file of ``key = value`` lines with
dotted key names (``grid.n = 32``).  The two entry points are

``fbmfg run <config>``
    one fixed-point solve; writes ``series.csv`` with the per-sweep
    distances, the solution slices at ``t = 0``, ``T/2``, ``T``, and a
    manifest that echoes the effective configuration together with
    content digests of every artifact.

``fbmfg sweep <config> --T-list a,b,c``
    the same model across several horizons at the time-step size implied
    by the configured grid; writes ``sweep.csv`` with one row per
    horizon.

Each decision is stated once: one table of config keys drives parsing
and formatting, one registry names every model with its parameters and
builder, and tables of record attributes lay out the manifest.

Parsing is strict: unknown or duplicated keys are rejected, as are model
parameters a model does not accept.  Numbers in the CSV outputs use 17
significant digits so repeated runs of one configuration are
byte-identical.  Wall-clock times appear only in manifests, with one
exception: the ``runtime`` column of ``sweep.csv``.

Exit codes for ``run``: 0 the iteration converged and the converged pair
sits strictly inside the truncation clamps; 2 it diverged, ran out of
budget, or a sweep failed (the series up to that sweep is written); 3 it
converged but the de-truncation check failed; 1 the configuration or an
output path is bad.  ``sweep`` uses only 0 and 1: per-horizon failures
are captured in their rows, while a bad configuration or output path,
an inadmissible ``truncation.K``/``truncation.delta``, or a time step
``T / nt`` too small for the horizons exits 1 before any horizon runs.
A non-finite ``truncation.K`` (whose clamps clamp nothing) or
``iteration.tol`` is a configuration error too.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import itertools
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from .fixed_point import horizon_sweep, picard_solve
from .models import (
    FinalCost,
    congestion_model,
    decoupled_heat_model,
    final_cost_constant,
    final_cost_convolution,
    final_cost_scaled_identity,
    linear_counterexample_model,
    quadratic_mfg_model,
)
from .spectral import basis_function, critical_times, mode_eigenvalue
from .torus_grid import Field, TorusGrid

__all__ = [
    "ConfigError",
    "MODEL_NAMES",
    "RunConfig",
    "parse_config",
    "format_config",
    "execute_run",
    "execute_sweep",
    "main",
]

SERIES_HEADER = "iter,d,gamma,norm_u_w21p,norm_u_c10,norm_m_c10,min_m,max_Du"
# The field CSVs' coordinate columns; their number bounds grid.dim.
AXIS_NAMES = ("x", "y", "z")
SWEEP_HEADER = "T,converged,iterations,max_gamma,min_m,runtime"


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, exactly as the config file states it.

    A field without a default is a required key; the others' defaults are
    the config defaults.  ``params`` keeps the model parameters verbatim as
    sorted ``(name, value)`` string pairs; they are interpreted only when
    the problem is built, so the configuration round-trips losslessly
    through :func:`format_config`.  Construction raises the
    :class:`ConfigError` that :func:`parse_config` reports for a bad value.
    """

    model: str
    dim: int
    n: int
    nt: int
    T: float
    K: Optional[float] = None
    delta: Optional[float] = None
    p: Optional[float] = None
    tol: float = 1e-8
    max_iter: int = 100
    params: tuple[tuple[str, str], ...] = ()
    out_dir: str = "out"
    write_fields: bool = True

    def __post_init__(self) -> None:
        if self.model not in _MODELS:
            raise ConfigError(
                f"model: unknown model {self.model!r} (known: {', '.join(MODEL_NAMES)})")
        accepted, _ = _MODELS[self.model]
        names = {name for name, _ in self.params}
        if accepted is None and "factory" not in names:
            raise ConfigError(f"model {self.model!r} requires params.factory = module:function")
        extra = sorted(names - accepted) if accepted is not None else ()
        if extra:
            raise ConfigError(f"model {self.model!r} does not accept params: {', '.join(extra)}")

        if not 1 <= self.dim <= len(AXIS_NAMES):
            raise ConfigError(f"grid.dim must be from 1 to {len(AXIS_NAMES)}, got {self.dim}")
        if not self.T > 0:
            raise ConfigError(f"grid.T must be positive, got {self.T}")
        if self.K is not None and not 0 < self.K < math.inf:
            raise ConfigError(f"truncation.K must be positive and finite, got {self.K}")
        if self.delta is not None and not self.delta > 0:
            raise ConfigError(f"truncation.delta must be positive, got {self.delta}")
        if self.p is not None and not 2.0 <= self.p < math.inf:
            raise ConfigError(f"iteration.p must be at least 2 and finite, got {self.p}")
        if not 0 < self.tol < math.inf:
            raise ConfigError(f"iteration.tol must be positive and finite, got {self.tol}")
        if self.max_iter < 1:
            raise ConfigError(f"iteration.max_iter must be at least 1, got {self.max_iter}")


# Every config key in the order format_config writes them: (key, RunConfig
# field, type).  "params." stands for all params.<name> keys, kept verbatim.
_CONFIG_KEYS = (
    ("model", "model", str),
    ("grid.dim", "dim", int),
    ("grid.n", "n", int),
    ("grid.nt", "nt", int),
    ("grid.T", "T", float),
    ("truncation.K", "K", float),
    ("truncation.delta", "delta", float),
    ("iteration.p", "p", float),
    ("iteration.tol", "tol", float),
    ("iteration.max_iter", "max_iter", int),
    ("params.", "params", str),
    ("outputs.dir", "out_dir", str),
    ("outputs.write_fields", "write_fields", bool),
)

# How configs and manifests spell False and True.
_BOOL_TEXT = ("false", "true")


def _parse_value(key: str, text: str, kind: type):
    """``text`` read as a ``kind`` (str, int, float or bool), or ``ConfigError``."""
    if kind is bool:
        if text not in _BOOL_TEXT:
            raise ConfigError(
                f"{key}: expected {_BOOL_TEXT[True]} or {_BOOL_TEXT[False]}, got {text!r}")
        return text == _BOOL_TEXT[True]
    try:
        return kind(text)
    except ValueError:
        expected = "an integer" if kind is int else "a number"
        raise ConfigError(f"{key}: expected {expected}, got {text!r}") from None


def _text(value) -> str:
    """``value`` as configs and manifests write it: str verbatim, bool spelled, else ``repr``."""
    if isinstance(value, bool):
        return _BOOL_TEXT[value]
    return value if isinstance(value, str) else repr(value)


# ---------------------------------------------------------------------------
# Config text <-> RunConfig
# ---------------------------------------------------------------------------


def parse_config(text: str) -> RunConfig:
    """Parse ``key = value`` lines into a :class:`RunConfig`.

    Blank lines and lines starting with ``#`` are skipped.  Every other
    line must contain ``=``; the key is everything before the first one.
    Duplicate keys, unknown keys, and malformed values raise
    :class:`ConfigError` with the offending line number.
    """
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value.strip()

    fields = {f.name: f for f in dataclasses.fields(RunConfig)}
    values = {}
    for key, name, kind in _CONFIG_KEYS:
        if name == "params":
            keys = [k for k in entries if k.startswith(key)]
            if key in keys:
                raise ConfigError(f"{key}: empty parameter name")
            values[name] = tuple(sorted((k[len(key):], entries.pop(k)) for k in keys))
        elif key in entries:
            values[name] = _parse_value(key, entries.pop(key), kind)
        elif fields[name].default is dataclasses.MISSING:
            raise ConfigError(f"missing required key {key!r}")
    if entries:
        raise ConfigError(f"unknown keys: {', '.join(sorted(entries))}")
    return RunConfig(**values)


def format_config(cfg: RunConfig) -> str:
    """Canonical text for ``cfg``; parsing it back gives an equal config.

    Floats are written with ``repr`` (shortest digits that round-trip),
    model parameters verbatim, optional keys only when set.
    """
    lines = []
    for key, name, _ in _CONFIG_KEYS:
        value = getattr(cfg, name)
        if name == "params":
            lines += [f"{key}{param} = {text}" for param, text in value]
        elif value is not None:
            lines.append(f"{key} = {_text(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Problem construction
# ---------------------------------------------------------------------------


def _parse_modes(text: str, dim: int) -> list[tuple[tuple[int, ...], float]]:
    """Parse ``params.modes`` such as ``0=1.0; 1=0.25`` (one index per axis: ``1,-2=0.1``)."""
    terms: list[tuple[tuple[int, ...], float]] = []
    seen: set[tuple[int, ...]] = set()
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        key_text, sep, coeff_text = chunk.partition("=")
        if not sep:
            raise ConfigError(
                f"params.modes: expected 'key=coefficient', got {chunk!r}"
            )
        try:
            key = tuple(int(part) for part in key_text.strip().split(","))
        except ValueError:
            raise ConfigError(f"params.modes: bad mode key in {chunk!r}") from None
        if len(key) != dim:
            raise ConfigError(
                f"params.modes: mode key {key_text.strip()!r} has "
                f"{len(key)} axes but grid.dim = {dim}"
            )
        coeff = _parse_value("params.modes", coeff_text.strip(), float)
        if key in seen:
            raise ConfigError(
                f"params.modes: duplicate mode key {key_text.strip()!r}"
            )
        seen.add(key)
        terms.append((key, coeff))
    if not terms:
        raise ConfigError("params.modes: no modes given")
    return terms


def _density_from_modes(cfg: RunConfig, grid: TorusGrid) -> Field:
    params = dict(cfg.params)
    default = ",".join(["0"] * cfg.dim) + "=1.0"
    terms = _parse_modes(params.get("modes", default), cfg.dim)
    coords = grid.coordinates()
    values = np.zeros(grid.shape)
    for key, coeff in terms:
        values = values + coeff * basis_function(key, coords)
    if not np.all(values > 0.0):
        raise ConfigError(
            "params.modes: the initial density must be strictly positive; "
            f"its minimum on this grid is {float(np.min(values))!r}"
        )
    return Field(grid, values)


def _float_param(cfg: RunConfig, name: str) -> dict[str, float]:
    """``{name: value}`` if ``cfg`` sets the model parameter ``name``, else ``{}``."""
    return {key: _parse_value(f"params.{key}", text, float)
            for key, text in cfg.params if key == name}


def _load_factory(spec_text: str) -> Callable:
    module_name, sep, attr = spec_text.partition(":")
    if not sep or not module_name or not attr:
        raise ConfigError(
            f"params.factory must look like module:function, got {spec_text!r}"
        )
    try:
        module = importlib.import_module(module_name)
    except ImportError as exc:
        raise ConfigError(f"params.factory: cannot import {module_name!r}: {exc}") from exc
    try:
        return getattr(module, attr)
    except AttributeError:
        raise ConfigError(
            f"params.factory: module {module_name!r} has no attribute {attr!r}"
        ) from None


def _custom(cfg: RunConfig, grid: TorusGrid):
    """``(model, cost, m0)`` from one call of ``params.factory`` on ``grid``."""
    params = dict(cfg.params)
    factory = _load_factory(params.pop("factory"))
    try:
        out = factory(grid, params)
    except Exception as exc:  # noqa: BLE001 - the factory is user config
        raise ConfigError(f"params.factory: factory raised {type(exc).__name__}: {exc}") from exc
    try:
        model, cost, m0 = out
    except (TypeError, ValueError):
        raise ConfigError(
            "params.factory: factory must return (model, final cost, initial density)"
        ) from None
    if not isinstance(cost, FinalCost):
        raise ConfigError("params.factory: second return value must be a FinalCost")
    if not isinstance(m0, Field) or m0.values.shape != grid.shape:
        raise ConfigError(
            "params.factory: third return value must be a Field on the given grid"
        )
    return model, cost, m0


def _convolution_cost(cfg: RunConfig, grid: TorusGrid) -> FinalCost:
    return final_cost_convolution(grid, **_float_param(cfg, "sigma"))


def _counterexample_alpha(cfg: RunConfig) -> float:
    """The counterexample's ``alpha``: its coupling and its final-cost scale."""
    return _float_param(cfg, "alpha").get("alpha", -3.0)


def _linear_counterexample(cfg: RunConfig, grid: TorusGrid):
    alpha = _counterexample_alpha(cfg)
    model = linear_counterexample_model(alpha=alpha, dim=cfg.dim)
    return model, final_cost_scaled_identity(alpha)


# Model name -> (the params.* it accepts, builder).  A builder maps (cfg, the
# configured grid) to (model, final cost), and a prebuilt model takes m0 from
# params.modes; None accepts any params but needs params.factory, whose one
# call gives (model, cost, m0).  A final cost depends only on the spatial
# layout, which every horizon of a sweep shares, so this one serves them all.
_MODELS = {
    "decoupled-heat": (frozenset({"modes"}), lambda cfg, g: (
        decoupled_heat_model(dim=cfg.dim), final_cost_constant(Field.full(g, 0.0)))),
    "quadratic-mfg": (frozenset({"modes", "sigma"}), lambda cfg, g: (
        quadratic_mfg_model(dim=cfg.dim), _convolution_cost(cfg, g))),
    "congestion": (frozenset({"modes", "sigma", "alpha"}), lambda cfg, g: (
        congestion_model(dim=cfg.dim, **_float_param(cfg, "alpha")), _convolution_cost(cfg, g))),
    "linear-counterexample": (frozenset({"modes", "alpha"}), _linear_counterexample),
    "custom": (None, _custom),
}
MODEL_NAMES = tuple(_MODELS)


def _setup(cfg: RunConfig):
    """``(grid, model, final cost, m0)`` of ``cfg``, or ``ConfigError``."""
    try:
        grid = TorusGrid(dim=cfg.dim, n=cfg.n, nt=cfg.nt, T=cfg.T)
        accepted, build = _MODELS[cfg.model]
        if accepted is None:
            return (grid, *build(cfg, grid))
        m0 = _density_from_modes(cfg, grid)
        return (grid, *build(cfg, grid), m0)
    except ConfigError:
        raise
    except Exception as exc:  # noqa: BLE001 - surfaced as a config problem
        raise ConfigError(str(exc)) from exc


# ---------------------------------------------------------------------------
# Artifact writing
# ---------------------------------------------------------------------------


def _f17(value: float) -> str:
    return "%.17g" % value


def _write_text(path: str, text: str) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _digest(path: str) -> str:
    with open(path, "rb") as fh:
        return "sha256:" + hashlib.sha256(fh.read()).hexdigest()


def _series_text(rows) -> str:
    lines = [SERIES_HEADER]
    for r in rows:
        lines.append(
            ",".join(
                [str(r.iteration)]
                + [
                    _f17(v)
                    for v in (
                        r.distance, r.gamma, r.norm_u_w21p,
                        r.norm_u_c10, r.norm_m_c10, r.min_m, r.max_Du,
                    )
                ]
            )
        )
    return "\n".join(lines) + "\n"


def _fields_text(grid: TorusGrid, state, j: int) -> str:
    """One line per grid point in index order: its coordinates, then ``u`` and ``m``."""
    columns = [c.ravel() for c in (*grid.coordinates(), state.u.values[j], state.m.values[j])]
    lines = [",".join(AXIS_NAMES[:grid.dim] + ("u", "m"))]
    lines += [",".join(map(_f17, point)) for point in zip(*columns)]
    return "\n".join(lines) + "\n"


def _critical_horizon_note(cfg: RunConfig) -> Optional[str]:
    """Distance from ``T`` to the nearest per-mode critical horizon.

    Only the scaled-identity coupling with ``alpha < -2`` has such
    horizons; for other configurations there is nothing to note.  Every
    mode with ``|k_i| <= n/2`` is searched, one key of nonincreasing
    nonnegative indices per set of ``|k_i|``; a tie goes to the smaller key.
    """
    if _MODELS[cfg.model][1] is not _linear_counterexample:
        return None
    alpha = _counterexample_alpha(cfg)
    if alpha >= -2.0:
        return None
    keys = itertools.combinations_with_replacement(range(cfg.n // 2, -1, -1), cfg.dim)
    horizons = {key: critical_times(alpha, mode_eigenvalue(key)) for key in keys if any(key)}
    rel, key = min((abs(cfg.T - T_k) / T_k, key) for key, T_k in horizons.items())
    return (
        f"T = {cfg.T!r} lies at relative distance {rel:.3e} from the "
        f"mode-{','.join(map(str, key))} critical horizon {horizons[key]!r}"
    )


# Manifest lines of a report, of each of its iteration rows and of each sweep
# row, in order: (name in the manifest, attribute).
_RESOLVED_LINES = tuple((a, a) for a in ("K", "M1", "L_h", "C0", "delta", "p", "detrunc_ok"))
_ITERATION_LINES = (("d", "distance"),) + tuple(
    (a, a) for a in ("gamma", "norm_u_w21p", "norm_u_c10", "norm_m_c10"))
_SWEEP_ROW_LINES = tuple(
    (a, a) for a in ("T", "nt", "status", "iterations", "max_gamma", "min_m", "detrunc_ok"))


def _field_lines(prefix: str, record, table) -> list[str]:
    return [f"{prefix}.{name} = {_text(getattr(record, attr))}" for name, attr in table]


def _manifest_text(
    cfg: RunConfig,
    *,
    kind: str,
    status: str,
    exit_code: int,
    wallclock: float,
    report=None,
    sweep_rows=(),
    files: Sequence[tuple[str, str]] = (),
) -> str:
    lines = [
        f"kind = {kind}",
        f"status = {status}",
        f"exit_code = {exit_code}",
        f"wallclock_seconds = {wallclock!r}",
    ]
    if report is not None:
        if report.error:
            lines.append(f"error.message = {report.error}")
        lines.append(f"iterations = {report.iterations}")
        lines += _field_lines("resolved", report, _RESOLVED_LINES)
        if report.detrunc_failures:
            lines.append(
                "resolved.detrunc_failures = " + "; ".join(report.detrunc_failures)
            )
        # u and m, then the reason when they are NaN.
        lines += [f"resolved.residual_{key} = {_text(value)}"
                  for key, value in report.residuals.items()]
    note = _critical_horizon_note(cfg)
    if note is not None:
        lines.append(f"note.critical_horizon = {note}")
    for line in format_config(cfg).splitlines():
        lines.append(f"config.{line}")
    for r in report.rows if report is not None else ():
        lines += _field_lines(f"iteration.{r.iteration}", r, _ITERATION_LINES)
    for i, row in enumerate(sweep_rows, start=1):
        lines += _field_lines(f"row.{i}", row, _SWEEP_ROW_LINES)
        if row.error:
            lines.append(f"row.{i}.error = {row.error}")
    for name, path in files:
        lines.append(f"files.{name} = {_digest(path)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def execute_run(cfg: RunConfig) -> int:
    """Run one solve and write ``series.csv``, field slices, and the manifest."""
    start = time.perf_counter()
    grid, model, cost, m0 = _setup(cfg)
    try:
        report = picard_solve(
            model, cost, m0, grid,
            tol=cfg.tol, max_iter=cfg.max_iter, delta=cfg.delta, K=cfg.K,
            p=cfg.p,
        )
    except ValueError as exc:
        # Parameter admissibility is checked before the first sweep, so a
        # ValueError here is a configuration problem wearing solver clothes.
        raise ConfigError(str(exc)) from exc

    if report.status == "converged":
        exit_code = 0 if report.detrunc_ok else 3
    else:
        exit_code = 2

    os.makedirs(cfg.out_dir, exist_ok=True)
    files: list[tuple[str, str]] = []
    series_path = os.path.join(cfg.out_dir, "series.csv")
    _write_text(series_path, _series_text(report.rows))
    files.append(("series.csv", series_path))
    if cfg.write_fields:
        slices = (("fields_t0.csv", 0), ("fields_tmid.csv", grid.nt // 2),
                  ("fields_tT.csv", grid.nt))
        for name, j in slices:
            path = os.path.join(cfg.out_dir, name)
            _write_text(path, _fields_text(grid, report.final_state, j))
            files.append((name, path))

    manifest = _manifest_text(
        cfg, kind="run", status=report.status, exit_code=exit_code,
        wallclock=time.perf_counter() - start, report=report, files=files,
    )
    _write_text(os.path.join(cfg.out_dir, "manifest.txt"), manifest)
    return exit_code


def _sweep_text(rows) -> str:
    lines = [SWEEP_HEADER]
    for r in rows:
        lines.append(
            f"{_f17(r.T)},{_text(r.status == 'converged')},{r.iterations},"
            f"{_f17(r.max_gamma)},{_f17(r.min_m)},{_f17(r.runtime)}"
        )
    return "\n".join(lines) + "\n"


def execute_sweep(cfg: RunConfig, T_list: Sequence[float]) -> int:
    """Solve ``cfg``'s model across horizons; write ``sweep.csv`` + manifest.

    The configured grid fixes the time-step size (``dt = T / nt``) and
    the spatial layout; each horizon gets a grid with the nearest whole
    number of steps.  Horizons that do not strictly increase, and those
    :func:`~fbmfg.fixed_point.horizon_sweep` rejects before its first
    horizon runs, are configuration errors; per-horizon failures land in
    their rows, so the exit code is 0 whenever the sweep itself ran.
    """
    T_values = [float(t) for t in T_list]
    if any(not b > a for a, b in zip(T_values, T_values[1:])):
        raise ConfigError("the horizon list must be strictly increasing")

    start = time.perf_counter()
    grid, model, cost, m0 = _setup(cfg)
    try:
        rows = horizon_sweep(
            model, cost, m0, T_values,
            dt=grid.dt, tol=cfg.tol, max_iter=cfg.max_iter,
            delta=cfg.delta, K=cfg.K, p=cfg.p,
        )
    except ValueError as exc:
        # horizon_sweep raises only before its first horizon runs; failures
        # inside a horizon are captured in its row.
        raise ConfigError(str(exc)) from exc

    os.makedirs(cfg.out_dir, exist_ok=True)
    sweep_path = os.path.join(cfg.out_dir, "sweep.csv")
    _write_text(sweep_path, _sweep_text(rows))
    manifest = _manifest_text(
        cfg, kind="sweep", status="done", exit_code=0,
        wallclock=time.perf_counter() - start, sweep_rows=rows,
        files=[("sweep.csv", sweep_path)],
    )
    _write_text(os.path.join(cfg.out_dir, "manifest.txt"), manifest)
    return 0


def _parse_T_list(text: str) -> list[float]:
    values = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            raise ConfigError(f"--T-list: empty entry in {text!r}")
        values.append(_parse_value("--T-list", part, float))
    return values


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fbmfg",
        description="Fixed-point solver for backward-forward parabolic pairs "
        "on the torus, driven by flat key = value config files.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="one solve from a config file")
    run_parser.add_argument("config", help="path to the config file")
    run_parser.add_argument("--out", help="override outputs.dir")
    sweep_parser = sub.add_parser(
        "sweep", help="one model across several horizons"
    )
    sweep_parser.add_argument("config", help="path to the config file")
    sweep_parser.add_argument(
        "--T-list", required=True, dest="T_list",
        help="comma-separated horizons, strictly increasing",
    )
    sweep_parser.add_argument("--out", help="override outputs.dir")
    args = parser.parse_args(argv)

    try:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
        if args.out is not None:
            cfg = dataclasses.replace(cfg, out_dir=args.out)
        if args.command == "run":
            return execute_run(cfg)
        return execute_sweep(cfg, _parse_T_list(args.T_list))
    except (ConfigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
