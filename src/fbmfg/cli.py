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
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
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

MODEL_NAMES = (
    "decoupled-heat",
    "quadratic-mfg",
    "congestion",
    "linear-counterexample",
    "custom",
)

# Model parameters each built-in model accepts; "custom" skips this check
# but must name a factory.
_MODEL_PARAMS = {
    "decoupled-heat": frozenset({"modes"}),
    "quadratic-mfg": frozenset({"modes", "sigma"}),
    "congestion": frozenset({"modes", "sigma", "alpha"}),
    "linear-counterexample": frozenset({"modes", "alpha"}),
}

SERIES_HEADER = "iter,d,gamma,norm_u_w21p,norm_u_c10,norm_m_c10,min_m,max_Du"
# The field CSVs' coordinate columns; their number bounds grid.dim.
AXIS_NAMES = ("x", "y", "z")
SWEEP_HEADER = "T,converged,iterations,max_gamma,min_m,runtime"


class ConfigError(ValueError):
    """Malformed, unknown, or inconsistent configuration input."""


@dataclass(frozen=True)
class RunConfig:
    """Everything one run needs, exactly as the config file states it.

    ``params`` keeps the model parameters verbatim as sorted
    ``(name, value)`` string pairs; they are interpreted only when the
    problem is built, so the configuration round-trips losslessly
    through :func:`format_config`.
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
    return _config_from_entries(entries)


def _need(entries: dict[str, str], key: str) -> str:
    try:
        return entries.pop(key)
    except KeyError:
        raise ConfigError(f"missing required key {key!r}") from None


def _as_int(key: str, value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"{key}: expected an integer, got {value!r}") from None


def _as_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"{key}: expected a number, got {value!r}") from None


def _as_bool(key: str, value: str) -> bool:
    if value == "true":
        return True
    if value == "false":
        return False
    raise ConfigError(f"{key}: expected true or false, got {value!r}")


def _config_from_entries(entries: dict[str, str]) -> RunConfig:
    model = _need(entries, "model")
    if model not in MODEL_NAMES:
        known = ", ".join(MODEL_NAMES)
        raise ConfigError(f"model: unknown model {model!r} (known: {known})")
    dim = _as_int("grid.dim", _need(entries, "grid.dim"))
    n = _as_int("grid.n", _need(entries, "grid.n"))
    nt = _as_int("grid.nt", _need(entries, "grid.nt"))
    T = _as_float("grid.T", _need(entries, "grid.T"))

    def optional_float(key: str) -> Optional[float]:
        value = entries.pop(key, None)
        return None if value is None else _as_float(key, value)

    K = optional_float("truncation.K")
    delta = optional_float("truncation.delta")
    p = optional_float("iteration.p")
    tol = _as_float("iteration.tol", entries.pop("iteration.tol", "1e-8"))
    max_iter = _as_int("iteration.max_iter", entries.pop("iteration.max_iter", "100"))
    out_dir = entries.pop("outputs.dir", "out")
    write_fields = _as_bool(
        "outputs.write_fields", entries.pop("outputs.write_fields", "true")
    )

    params: dict[str, str] = {}
    for key in [k for k in entries if k.startswith("params.")]:
        name = key[len("params."):]
        if not name:
            raise ConfigError("params.: empty parameter name")
        params[name] = entries.pop(key)
    if entries:
        raise ConfigError(f"unknown keys: {', '.join(sorted(entries))}")

    allowed = _MODEL_PARAMS.get(model)
    if allowed is None:
        if "factory" not in params:
            raise ConfigError(
                "model 'custom' requires params.factory = module:function"
            )
    else:
        extra = sorted(set(params) - allowed)
        if extra:
            raise ConfigError(
                f"model {model!r} does not accept params: {', '.join(extra)}"
            )

    if not 1 <= dim <= len(AXIS_NAMES):
        raise ConfigError(f"grid.dim must be from 1 to {len(AXIS_NAMES)}, got {dim}")
    if not T > 0:
        raise ConfigError(f"grid.T must be positive, got {T}")
    if K is not None and not K > 0:
        raise ConfigError(f"truncation.K must be positive, got {K}")
    if delta is not None and not delta > 0:
        raise ConfigError(f"truncation.delta must be positive, got {delta}")
    if p is not None and not 2.0 <= p < math.inf:
        raise ConfigError(f"iteration.p must be at least 2 and finite, got {p}")
    if not tol > 0:
        raise ConfigError(f"iteration.tol must be positive, got {tol}")
    if max_iter < 1:
        raise ConfigError(f"iteration.max_iter must be at least 1, got {max_iter}")

    return RunConfig(
        model=model, dim=dim, n=n, nt=nt, T=T, K=K, delta=delta, p=p,
        tol=tol, max_iter=max_iter,
        params=tuple(sorted(params.items())),
        out_dir=out_dir, write_fields=write_fields,
    )


def format_config(cfg: RunConfig) -> str:
    """Canonical text for ``cfg``; parsing it back gives an equal config.

    Floats are written with ``repr`` (shortest digits that round-trip),
    model parameters verbatim, optional keys only when set.
    """
    lines = [
        f"model = {cfg.model}",
        f"grid.dim = {cfg.dim}",
        f"grid.n = {cfg.n}",
        f"grid.nt = {cfg.nt}",
        f"grid.T = {cfg.T!r}",
    ]
    if cfg.K is not None:
        lines.append(f"truncation.K = {cfg.K!r}")
    if cfg.delta is not None:
        lines.append(f"truncation.delta = {cfg.delta!r}")
    if cfg.p is not None:
        lines.append(f"iteration.p = {cfg.p!r}")
    lines.append(f"iteration.tol = {cfg.tol!r}")
    lines.append(f"iteration.max_iter = {cfg.max_iter}")
    for name, value in cfg.params:
        lines.append(f"params.{name} = {value}")
    lines.append(f"outputs.dir = {cfg.out_dir}")
    lines.append(f"outputs.write_fields = {'true' if cfg.write_fields else 'false'}")
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
        coeff = _as_float("params.modes", coeff_text.strip())
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


def _param_float(cfg: RunConfig, name: str, default: float) -> float:
    params = dict(cfg.params)
    if name not in params:
        return default
    return _as_float(f"params.{name}", params[name])


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


def _invoke_factory(factory: Callable, grid: TorusGrid, params: dict[str, str]):
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


def _build_problem(cfg: RunConfig, grid: TorusGrid):
    """Build (model, cost, m0, cost rebuilder) for ``cfg`` on ``grid``.

    The rebuilder maps another grid with the same spatial layout to the
    final cost on that grid; sweeps use it because convolution kernels
    and constant final data are grid-bound.  Custom factories are called
    once per grid, so their model must not depend on the grid they see.
    """
    if cfg.model == "custom":
        params = dict(cfg.params)
        factory = _load_factory(params.pop("factory"))
        model, cost, m0 = _invoke_factory(factory, grid, params)
        rebuild = lambda g: _invoke_factory(factory, g, params)[1]  # noqa: E731
        return model, cost, m0, rebuild

    m0 = _density_from_modes(cfg, grid)
    params = dict(cfg.params)
    sigma_kw = {}
    if "sigma" in params:
        sigma_kw["sigma"] = _as_float("params.sigma", params["sigma"])
    if cfg.model == "decoupled-heat":
        model = decoupled_heat_model(dim=cfg.dim)
        rebuild = lambda g: final_cost_constant(Field.full(g, 0.0))  # noqa: E731
    elif cfg.model == "quadratic-mfg":
        model = quadratic_mfg_model(dim=cfg.dim)
        rebuild = lambda g: final_cost_convolution(g, **sigma_kw)  # noqa: E731
    elif cfg.model == "congestion":
        model = congestion_model(dim=cfg.dim, alpha=_param_float(cfg, "alpha", 1.0))
        rebuild = lambda g: final_cost_convolution(g, **sigma_kw)  # noqa: E731
    else:  # linear-counterexample
        alpha = _param_float(cfg, "alpha", -3.0)
        model = linear_counterexample_model(alpha=alpha, dim=cfg.dim)
        rebuild = lambda g: final_cost_scaled_identity(alpha)  # noqa: E731
    return model, rebuild(grid), m0, rebuild


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
    horizons; for other configurations there is nothing to note.
    """
    if cfg.model != "linear-counterexample":
        return None
    alpha = _param_float(cfg, "alpha", -3.0)
    if alpha >= -2.0:
        return None
    best: Optional[tuple[float, int, float]] = None
    for k in range(1, max(2, cfg.n // 2) + 1):
        key = (k,) + (0,) * (cfg.dim - 1)
        T_k = critical_times(alpha, mode_eigenvalue(key))
        if T_k is None:
            return None
        rel = abs(cfg.T - T_k) / T_k
        if best is None or rel < best[0]:
            best = (rel, k, T_k)
    rel, k, T_k = best
    return (
        f"T = {cfg.T!r} lies at relative distance {rel:.3e} from the "
        f"mode-{k} critical horizon {T_k!r}"
    )


def _manifest_text(
    cfg: RunConfig,
    *,
    kind: str,
    status: str,
    exit_code: int,
    wallclock: float,
    report=None,
    sweep_rows=None,
    files: Sequence[tuple[str, str]] = (),
) -> str:
    lines = [
        f"kind = {kind}",
        f"status = {status}",
        f"exit_code = {exit_code}",
        f"wallclock_seconds = {wallclock!r}",
    ]
    if report is not None and report.error:
        lines.append(f"error.message = {report.error}")
    if report is not None:
        lines.append(f"iterations = {report.iterations}")
        lines.append(f"resolved.K = {report.K!r}")
        lines.append(f"resolved.M1 = {report.M1!r}")
        lines.append(f"resolved.L_h = {report.L_h!r}")
        lines.append(f"resolved.C0 = {report.C0!r}")
        lines.append(f"resolved.delta = {report.delta!r}")
        lines.append(f"resolved.p = {report.p!r}")
        lines.append(
            f"resolved.detrunc_ok = {'true' if report.detrunc_ok else 'false'}"
        )
        if report.detrunc_failures:
            lines.append(
                "resolved.detrunc_failures = " + "; ".join(report.detrunc_failures)
            )
        lines.append(f"resolved.residual_u = {report.residuals['u']!r}")
        lines.append(f"resolved.residual_m = {report.residuals['m']!r}")
        if "reason" in report.residuals:
            lines.append(f"resolved.residual_reason = {report.residuals['reason']}")
    note = _critical_horizon_note(cfg)
    if note is not None:
        lines.append(f"note.critical_horizon = {note}")
    for line in format_config(cfg).splitlines():
        lines.append(f"config.{line}")
    if report is not None:
        for r in report.rows:
            prefix = f"iteration.{r.iteration}"
            lines.append(f"{prefix}.d = {r.distance!r}")
            lines.append(f"{prefix}.gamma = {r.gamma!r}")
            lines.append(f"{prefix}.norm_u_w21p = {r.norm_u_w21p!r}")
            lines.append(f"{prefix}.norm_u_c10 = {r.norm_u_c10!r}")
            lines.append(f"{prefix}.norm_m_c10 = {r.norm_m_c10!r}")
    if sweep_rows is not None:
        for i, row in enumerate(sweep_rows, start=1):
            prefix = f"row.{i}"
            lines.append(f"{prefix}.T = {row.T!r}")
            lines.append(f"{prefix}.nt = {row.nt}")
            lines.append(f"{prefix}.status = {row.status}")
            lines.append(f"{prefix}.iterations = {row.iterations}")
            lines.append(f"{prefix}.max_gamma = {row.max_gamma!r}")
            lines.append(f"{prefix}.min_m = {row.min_m!r}")
            lines.append(
                f"{prefix}.detrunc_ok = {'true' if row.detrunc_ok else 'false'}"
            )
            if row.error:
                lines.append(f"{prefix}.error = {row.error}")
    for name, path in files:
        lines.append(f"files.{name} = {_digest(path)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def execute_run(cfg: RunConfig) -> int:
    """Run one solve and write ``series.csv``, field slices, and the manifest."""
    start = time.perf_counter()
    try:
        grid = TorusGrid(dim=cfg.dim, n=cfg.n, nt=cfg.nt, T=cfg.T)
        model, cost, m0, _ = _build_problem(cfg, grid)
    except ConfigError:
        raise
    except Exception as exc:  # noqa: BLE001 - surfaced as a config problem
        raise ConfigError(str(exc)) from exc

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
        converged = "true" if r.status == "converged" else "false"
        lines.append(
            f"{_f17(r.T)},{converged},{r.iterations},"
            f"{_f17(r.max_gamma)},{_f17(r.min_m)},{_f17(r.runtime)}"
        )
    return "\n".join(lines) + "\n"


def execute_sweep(cfg: RunConfig, T_list: Sequence[float]) -> int:
    """Solve ``cfg``'s model across horizons; write ``sweep.csv`` + manifest.

    The configured grid fixes the time-step size (``dt = T / nt``) and
    the spatial layout; each horizon gets a grid with the nearest whole
    number of steps.  Inadmissible truncation parameters and an unusable
    step are configuration errors, raised before the first horizon runs;
    per-horizon failures land in their rows, so the exit code is 0
    whenever the sweep itself ran.
    """
    T_values = [float(t) for t in T_list]
    if not T_values:
        raise ConfigError("sweep needs at least one horizon")
    if any(not 0 < t < math.inf for t in T_values):
        raise ConfigError("every horizon must be positive and finite")
    for a, b in zip(T_values, T_values[1:]):
        if not b > a:
            raise ConfigError("the horizon list must be strictly increasing")

    start = time.perf_counter()
    try:
        grid = TorusGrid(dim=cfg.dim, n=cfg.n, nt=cfg.nt, T=cfg.T)
        model, _, m0, rebuild_cost = _build_problem(cfg, grid)
    except ConfigError:
        raise
    except Exception as exc:  # noqa: BLE001 - surfaced as a config problem
        raise ConfigError(str(exc)) from exc

    try:
        rows = horizon_sweep(
            model, rebuild_cost, m0, T_values,
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
        try:
            values.append(float(part))
        except ValueError:
            raise ConfigError(f"--T-list: bad number {part!r}") from None
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
