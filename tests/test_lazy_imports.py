"""SciPy's sparse modules load only when a run takes a sparse path, and
``numpy.random`` never loads.

Each check runs in a fresh interpreter, since the test process itself has
long since imported everything.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import fbmfg

QUADRATIC_2D = """\
model = quadratic-mfg
grid.dim = 2
grid.n = 8
grid.nt = 4
grid.T = 0.01
params.modes = 0,0=1.0; 1,1=0.1
"""


def run_fresh(code: str, cwd) -> str:
    """Run ``code`` in a new interpreter that imports this same ``fbmfg``."""
    path = [str(Path(fbmfg.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, cwd=cwd,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))},
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_constant_diffusion_run_never_loads_the_sparse_stack(tmp_path):
    (tmp_path / "run.cfg").write_text(QUADRATIC_2D)
    out = run_fresh(
        """\
        import sys

        import fbmfg
        from fbmfg.cli import main

        code = main(["run", "run.cfg", "--out", "out"])
        print(code, sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
        """,
        tmp_path,
    )
    assert out.split() == ["0", "[]"]
    assert (tmp_path / "out" / "series.csv").exists()


def test_sparse_paths_load_what_they_need_on_first_use(tmp_path):
    out = run_fresh(
        """\
        import sys

        import numpy as np

        from fbmfg import Field, TorusGrid
        from fbmfg.parabolic import ParabolicProblem, solve_forward, solve_fp_conservative

        assert "scipy.sparse" not in sys.modules
        g = TorusGrid(dim=2, n=8, nt=4, T=0.01)
        x, y = g.coordinates()
        m0 = Field(g, 1.0 + 0.5 * np.cos(2.0 * np.pi * x))
        drift = np.zeros((g.nt + 1, 2, *g.shape))
        audit = solve_fp_conservative(ParabolicProblem(grid=g, diffusion=np.eye(2), initial=m0), drift)
        c = np.zeros((2, 2, *g.shape))
        c[0, 0] = 1.0 + 0.5 * np.sin(2.0 * np.pi * y)
        c[1, 1] = 1.0
        march = solve_forward(ParabolicProblem(grid=g, diffusion=c, initial=m0))
        mass = np.sum(audit.values, axis=(1, 2))
        print(float(np.ptp(mass) / mass[0]), bool(np.all(np.isfinite(march.values))))
        print("scipy.sparse.linalg" in sys.modules)
        """,
        tmp_path,
    )
    mass_drift, finite, loaded = out.split()
    assert float(mass_drift) <= 1e-14
    assert finite == "True" and loaded == "True"


def test_constant_diffusion_audit_never_loads_the_sparse_stack(tmp_path):
    out = run_fresh(
        """\
        import sys

        import numpy as np

        from fbmfg import Field, TorusGrid
        from fbmfg.parabolic import ParabolicProblem, solve_fp_conservative

        g = TorusGrid(dim=2, n=16, nt=8, T=0.01)
        x, y = g.coordinates()
        m0 = Field(g, 1.0 + 0.5 * np.cos(2.0 * np.pi * x))
        drift = np.broadcast_to(
            np.stack([np.sin(2.0 * np.pi * y), np.cos(2.0 * np.pi * x)]), (g.nt + 1, 2, *g.shape)
        )
        audit = solve_fp_conservative(ParabolicProblem(grid=g, diffusion=np.eye(2), initial=m0), drift)
        mass = np.sum(audit.values, axis=(1, 2))
        print(float(np.ptp(mass) / mass[0]), float(np.ptp(audit.values[-1])) > 0.0)
        print(sorted(m for m in sys.modules if m.startswith("scipy.sparse")))
        """,
        tmp_path,
    )
    mass_drift, moved, loaded = out.split()
    assert float(mass_drift) <= 1e-14
    assert moved == "True" and loaded == "[]"


def test_model_builds_and_a_run_never_load_numpy_random(tmp_path):
    # The derivative probes use fixed points, not random draws.
    (tmp_path / "run.cfg").write_text(QUADRATIC_2D)
    out = run_fresh(
        """\
        import sys

        import numpy as np

        from fbmfg import (congestion_model, decoupled_heat_model,
                           linear_counterexample_model, quadratic_mfg_model)
        from fbmfg.cli import main
        from fbmfg.models import HamiltonianSpec, build_congestion_coupling, build_mfg_coupling

        for dim in (1, 2, 3):
            quadratic_mfg_model(dim)
            decoupled_heat_model(dim)
            congestion_model(dim=dim)
            linear_counterexample_model(alpha=-3.0, dim=dim)
        build_congestion_coupling(0.5, dim=2, H1=lambda q: 0.25 * np.sum(q**4, axis=0),
                                  H1_p=lambda q: q**3, H1_pp=lambda q: np.einsum(
                                      "ij,j...->ij...", np.eye(2), 3.0 * q**2))
        w = 2.0 * np.pi
        build_mfg_coupling(HamiltonianSpec(
            H=lambda x, t, p, m: 0.5 * p[0] ** 2 - m,
            H_p=lambda x, t, p, m: p,
            H_pp=lambda x, t, p, m: np.ones((1,) + p.shape),
            A=lambda x, t: (0.5 + 0.1 * np.sin(w * x[0]))[None, None],
            A_div1=lambda x, t: (0.1 * w * np.cos(w * x[0]))[None],
            A_div2=lambda x, t: -0.1 * w * w * np.sin(w * x[0]),
        ), dim=1)
        print("numpy.random" in sys.modules)
        print(main(["run", "run.cfg", "--out", "out"]), "numpy.random" in sys.modules)
        """,
        tmp_path,
    )
    assert out.split() == ["False", "0", "False"]
