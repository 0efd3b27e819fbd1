"""The benchmark's workloads: seeded inputs, one timed operation each, checks.

A workload builds its inputs from a seed through the package's public API,
runs one operation through a public entry point (``picard_solve`` or
``cli.main``), and checks what came back.  Only the operation is timed; the
checks run after it.  Each check yields one :class:`Outcome` per solve,
horizon, CLI run or audit, so failures count against outcomes attempted.

The package is imported from the checkout's ``src`` directory by
``worker.py`` before this module is imported.
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import random
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable

import numpy as np

import fbmfg
from fbmfg import cli
from fbmfg.spectral import basis_function, critical_times, mode_eigenvalue
from fbmfg.torus_grid import gradient_values

# Absolute floor of the comparison against recorded summary scalars; the
# relative tolerance is per workload (see NOTES.md for how it was measured).
REFERENCE_ATOL = 1e-12

# Critical horizon of mode 1 for the counterexample with alpha = -3.
T_CRIT = math.log(3.0) / (8.0 * math.pi**2)


@dataclass
class Outcome:
    label: str
    ok: bool
    detail: str = ""


@dataclass
class Checked:
    """What the checks of one operation found."""

    outcomes: list[Outcome]
    sweeps: int
    summary: dict
    artifact_bytes: int = 0


@dataclass
class Workload:
    name: str
    build: Callable  # (seed) -> inputs
    run: Callable  # (api, inputs, out_dir) -> raw result; the timed call
    check: Callable  # (raw, inputs, out_dir) -> Checked
    reference_rtol: float = 1e-9


def plain_api() -> SimpleNamespace:
    """The entry points as the package exports them (tracing off)."""
    return SimpleNamespace(
        picard_solve=fbmfg.picard_solve,
        solve_fp_conservative=fbmfg.solve_fp_conservative,
        gradient_values=gradient_values,
        cli_main=cli.main,
        model=lambda model: model,
        cost=lambda cost: cost,
    )


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------


def seeded_modes(seed: int, dim: int) -> list[tuple[tuple[int, ...], float]]:
    """Initial-density modes: the constant 1 plus modes k = 1, 2.

    The two modes share a fixed amplitude 0.2, so the density stays above
    0.8.  The seed draws the share of mode 1 and one phase per mode and
    axis; a phase shift of ``cos(2 pi k x)`` is written in the cos/sin basis
    the config's ``params.modes`` uses (negative keys are sines).  The share
    stays within 40-60%: the sweep count grows with the log of the mode-1
    amplitude (81 to 98 sweeps for shares 0.13 to 0.96 on ``mfg1d``), and
    a seed should change the input, not the amount of work.
    """
    rng = random.Random(seed)
    share = 0.4 + 0.2 * rng.random()
    terms = [((0,) * dim, 1.0)]
    for k, amplitude in ((1, 0.2 * share), (2, 0.2 * (1.0 - share))):
        axes = []
        for _ in range(dim):
            phase = rng.uniform(0.0, 2.0 * math.pi)
            axes.append(((k, math.cos(phase)), (-k, -math.sin(phase))))
        for combo in itertools.product(*axes):
            key = tuple(k_axis for k_axis, _ in combo)
            terms.append((key, amplitude * math.prod(c for _, c in combo)))
    return terms


def critical_modes(seed: int) -> list[tuple[tuple[int, ...], float]]:
    """Counterexample datum: 1 + 0.05 cos(2 pi x + phase).

    Only the phase of mode 1 varies: a mode-2 component would have its own
    critical horizon at T_CRIT / 4 and flip the verdict at 0.8 T_CRIT.
    """
    phase = random.Random(seed).uniform(0.0, 2.0 * math.pi)
    return [((0,), 1.0), ((1,), 0.05 * math.cos(phase)), ((-1,), -0.05 * math.sin(phase))]


def density(grid, terms) -> fbmfg.Field:
    """Sum the modes on ``grid`` in list order, as the CLI does."""
    coords = grid.coordinates()
    values = np.zeros(grid.shape)
    for key, coeff in terms:
        values = values + coeff * basis_function(key, coords)
    return fbmfg.Field(grid, values)


def modes_text(terms) -> str:
    return "; ".join(
        ",".join(str(k) for k in key) + "=" + repr(coeff) for key, coeff in terms
    )


# ---------------------------------------------------------------------------
# Checks shared by the workloads
# ---------------------------------------------------------------------------


def pair_summary(u: np.ndarray, m: np.ndarray) -> dict:
    """Scalars of the (value, density) pair at t = T/2 and t = T.

    ``u`` and ``m`` hold those two slices; the CLI writes exactly these (and
    t = 0, which is data).  The scalars are recorded against a reference.
    """
    return {
        "u_mean": float(np.mean(u)),
        "u_absmax": float(np.max(np.abs(u))),
        "u_rms": float(np.sqrt(np.mean(u * u))),
        "m_min": float(np.min(m)),
        "m_max": float(np.max(m)),
        "m_rms": float(np.sqrt(np.mean(m * m))),
    }


def report_summary(report) -> dict:
    state = report.final_state
    slices = [state.grid.nt // 2, state.grid.nt]
    return pair_summary(state.u.values[slices], state.m.values[slices])


def report_outcome(label: str, report, tol: float) -> Outcome:
    """A library solve is good when it converged, inside the clamps, to tol."""
    problems = []
    if report.status != "converged":
        problems.append(f"status {report.status}")
    if not report.detrunc_ok:
        problems.append("de-truncation failed: " + "; ".join(report.detrunc_failures))
    if not report.final_distance <= tol:
        problems.append(f"final distance {report.final_distance!r} > {tol!r}")
    return Outcome(label, not problems, "; ".join(problems))


def artifact_bytes(out_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(out_dir, name)) for name in os.listdir(out_dir)
    )


def read_manifest(out_dir: str) -> dict[str, str]:
    entries = {}
    with open(os.path.join(out_dir, "manifest.txt")) as fh:
        for line in fh:
            key, sep, value = line.rstrip("\n").partition(" = ")
            if sep:
                entries[key] = value
    return entries


def read_csv(path: str) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# ---------------------------------------------------------------------------
# mfg1d: quadratic MFG in 1D through picard_solve
# ---------------------------------------------------------------------------

MFG1D_TOL = 1e-8


def build_mfg1d(seed: int):
    grid = fbmfg.TorusGrid(dim=1, n=64, nt=128, T=0.05)
    return SimpleNamespace(
        grid=grid,
        model=fbmfg.quadratic_mfg_model(dim=1),
        cost=fbmfg.final_cost_convolution(grid),
        m0=density(grid, seeded_modes(seed, 1)),
    )


def run_mfg1d(api, inputs, out_dir):
    return api.picard_solve(
        api.model(inputs.model), api.cost(inputs.cost), inputs.m0, inputs.grid,
        tol=MFG1D_TOL, max_iter=150,
    )


def check_mfg1d(report, inputs, out_dir) -> Checked:
    return Checked(
        outcomes=[report_outcome("solve", report, MFG1D_TOL)],
        sweeps=report.iterations,
        summary={"iterations": report.iterations, **report_summary(report)},
    )


# ---------------------------------------------------------------------------
# mfg2d-run: quadratic MFG in 2D through `fbmfg run`
# ---------------------------------------------------------------------------

MFG2D_TOL = 1e-8
CONFIG = "solve.cfg"


def build_mfg2d(seed: int):
    grid = fbmfg.TorusGrid(dim=2, n=32, nt=64, T=0.05)
    terms = seeded_modes(seed, 2)
    config = "\n".join([
        "model = quadratic-mfg",
        "grid.dim = 2",
        "grid.n = 32",
        "grid.nt = 64",
        "grid.T = 0.05",
        f"iteration.tol = {MFG2D_TOL!r}",
        "iteration.max_iter = 100",
        f"params.modes = {modes_text(terms)}",
        "outputs.write_fields = true",
    ]) + "\n"
    # The CLI builds its own model; building it here too keeps set-up time
    # comparable across workloads and is what a library user would pay.
    return SimpleNamespace(
        grid=grid,
        model=fbmfg.quadratic_mfg_model(dim=2),
        cost=fbmfg.final_cost_convolution(grid),
        m0=density(grid, terms),
        config=config,
    )


def write_config(inputs, out_dir: str) -> None:
    """Put a CLI workload's config where its operation reads it."""
    with open(os.path.join(out_dir, CONFIG), "w") as fh:
        fh.write(inputs.config)


def run_mfg2d(api, inputs, out_dir):
    return api.cli_main(["run", os.path.join(out_dir, CONFIG), "--out",
                         os.path.join(out_dir, "run")])


def check_mfg2d(exit_code, inputs, out_dir) -> Checked:
    run_dir = os.path.join(out_dir, "run")
    manifest = read_manifest(run_dir)
    series = read_csv(os.path.join(run_dir, "series.csv"))
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if manifest.get("status") != "converged":
        problems.append(f"status {manifest.get('status')}")
    if manifest.get("resolved.detrunc_ok") != "true":
        problems.append("de-truncation failed")
    if not series or not float(series[-1]["d"]) <= MFG2D_TOL:
        problems.append("final distance above tol")
    slices = [
        np.loadtxt(os.path.join(run_dir, name), delimiter=",", skiprows=1)
        for name in ("fields_tmid.csv", "fields_tT.csv")
    ]
    u = np.stack([s[:, 2] for s in slices])
    m = np.stack([s[:, 3] for s in slices])
    return Checked(
        outcomes=[Outcome("run", not problems, "; ".join(problems))],
        sweeps=len(series),
        summary={"iterations": len(series), **pair_summary(u, m)},
        artifact_bytes=artifact_bytes(run_dir),
    )


# ---------------------------------------------------------------------------
# critical-sweep: the counterexample across T_CRIT through `fbmfg sweep`
# ---------------------------------------------------------------------------

CRITICAL_ALPHA = -3.0
HORIZONS = (0.8 * T_CRIT, 1.0 * T_CRIT, 1.2 * T_CRIT)


def build_critical(seed: int):
    terms = critical_modes(seed)
    grid = fbmfg.TorusGrid(dim=1, n=32, nt=256, T=T_CRIT)
    config = "\n".join([
        "model = linear-counterexample",
        "grid.dim = 1",
        "grid.n = 32",
        "grid.nt = 256",
        f"grid.T = {T_CRIT!r}",
        "iteration.tol = 0.02",
        "iteration.max_iter = 180",
        f"params.alpha = {CRITICAL_ALPHA!r}",
        f"params.modes = {modes_text(terms)}",
    ]) + "\n"
    return SimpleNamespace(
        grid=grid,
        model=fbmfg.linear_counterexample_model(alpha=CRITICAL_ALPHA, dim=1),
        cost=fbmfg.final_cost_scaled_identity(CRITICAL_ALPHA),
        m0=density(grid, terms),
        terms=terms,
        config=config,
    )


def run_critical(api, inputs, out_dir):
    T_list = ",".join(repr(T) for T in HORIZONS)
    return api.cli_main(["sweep", os.path.join(out_dir, CONFIG), "--T-list",
                         T_list, "--out", os.path.join(out_dir, "sweep")])


def expected_converged(terms, T: float) -> bool:
    """Verdict oracle: the iteration can converge only below the first
    critical horizon of the datum's modes, where the exact solution exists."""
    horizons = [
        critical_times(CRITICAL_ALPHA, mode_eigenvalue(key))
        for key, coeff in terms
        if coeff != 0.0 and any(key)
    ]
    solvable = fbmfg.solve_spectral(CRITICAL_ALPHA, terms, T).solvable
    return solvable and T < min(horizons)


def check_critical(exit_code, inputs, out_dir) -> Checked:
    sweep_dir = os.path.join(out_dir, "sweep")
    rows = read_csv(os.path.join(sweep_dir, "sweep.csv"))
    manifest = read_manifest(sweep_dir)
    outcomes = [Outcome("sweep", exit_code == 0 and len(rows) == len(HORIZONS),
                        f"exit code {exit_code}, {len(rows)} rows")]
    summary = {}
    sweeps = 0
    for i, (T, row) in enumerate(zip(HORIZONS, rows), start=1):
        status = manifest.get(f"row.{i}.status")
        iterations = int(row["iterations"])
        sweeps += iterations
        expect = expected_converged(inputs.terms, T)
        problems = []
        if (status == "converged") != expect:
            problems.append(f"status {status}, oracle expects "
                            f"{'convergence' if expect else 'failure'}")
        if status == "converged" and manifest.get(f"row.{i}.detrunc_ok") != "true":
            problems.append("de-truncation failed")
        if status == "error":
            problems.append(manifest.get(f"row.{i}.error", "error"))
        label = f"T={T / T_CRIT:.1f}Tc"
        outcomes.append(Outcome(label, not problems, "; ".join(problems)))
        summary[f"{label}.status"] = status
        if status == "converged":
            # Counts of failed horizons depend on round-off; only converged
            # ones are recorded against the reference.
            summary[f"{label}.iterations"] = iterations
            summary[f"{label}.max_gamma"] = float(row["max_gamma"])
            summary[f"{label}.min_m"] = float(row["min_m"])
    return Checked(outcomes, sweeps, summary, artifact_bytes(sweep_dir))


# ---------------------------------------------------------------------------
# congestion2d-audit: congestion MFG in 2D, then the conservative mass audit
# ---------------------------------------------------------------------------

CONGESTION_TOL = 1e-8
MASS_DRIFT_LIMIT = 1e-12


def build_congestion(seed: int):
    grid = fbmfg.TorusGrid(dim=2, n=32, nt=64, T=0.02)
    return SimpleNamespace(
        grid=grid,
        model=fbmfg.congestion_model(dim=2, alpha=1.0),
        cost=fbmfg.final_cost_convolution(grid),
        m0=density(grid, seeded_modes(seed, 2)),
    )


def run_congestion(api, inputs, out_dir):
    grid, model = inputs.grid, api.model(inputs.model)
    report = api.picard_solve(
        model, api.cost(inputs.cost), inputs.m0, grid,
        tol=CONGESTION_TOL, max_iter=60,
    )
    # The criterion-6 audit: re-march the density in conservative flux form
    # along the optimal drift of the converged pair.
    u, m = report.final_state.u.values, report.final_state.m.values
    Du = api.gradient_values(u, grid.h, grid.dim)
    Dm = api.gradient_values(m, grid.h, grid.dim)
    coords = grid.coordinates()
    drift = np.empty((grid.nt + 1, grid.dim) + grid.shape)
    for j, t in enumerate(grid.times()):
        drift[j] = model.optimal_drift(u[j], m[j], Du[:, j], Dm[:, j], coords, float(t))
    audit = api.solve_fp_conservative(
        fbmfg.ParabolicProblem(
            grid, diffusion=model.diffusion_values(grid, "m"),
            initial=fbmfg.Field(grid, m[0]),
        ),
        drift,
    )
    return report, audit


def check_congestion(raw, inputs, out_dir) -> Checked:
    report, audit = raw
    grid = inputs.grid
    masses = audit.values.mean(axis=tuple(range(1, grid.dim + 1)))
    drift = float(np.max(np.abs(np.diff(masses)) / masses[0]))
    problems = []
    if not drift <= MASS_DRIFT_LIMIT:
        problems.append(f"mass drift {drift:.3e} per step > {MASS_DRIFT_LIMIT}")
    if not float(np.min(audit.values)) > 0.0:
        problems.append("audit density not positive")
    return Checked(
        outcomes=[
            report_outcome("solve", report, CONGESTION_TOL),
            Outcome("audit", not problems, "; ".join(problems)),
        ],
        sweeps=report.iterations,
        summary={"iterations": report.iterations, **report_summary(report)},
    )


WORKLOADS = {
    "mfg1d": Workload("mfg1d", build_mfg1d, run_mfg1d, check_mfg1d),
    "mfg2d-run": Workload("mfg2d-run", build_mfg2d, run_mfg2d, check_mfg2d),
    # A 1e-14 change of the datum moves max_gamma of the converged horizon by
    # up to 3e-6: modes with sweep gain above one amplify round-off.
    "critical-sweep": Workload("critical-sweep", build_critical, run_critical,
                               check_critical, reference_rtol=1e-3),
    "congestion2d-audit": Workload("congestion2d-audit", build_congestion,
                                   run_congestion, check_congestion),
}


def compare_reference(summary: dict, reference: dict, rtol: float) -> list[str]:
    """Mismatches between an operation's summary and the recorded one."""
    problems = []
    for key, want in reference.items():
        got = summary.get(key)
        if isinstance(want, float) and isinstance(got, float):
            if not math.isclose(got, want, rel_tol=rtol,
                                abs_tol=REFERENCE_ATOL):
                problems.append(f"{key} = {got!r}, recorded {want!r}")
        elif got != want:
            problems.append(f"{key} = {got!r}, recorded {want!r}")
    return problems


