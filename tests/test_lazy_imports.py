"""SciPy's sparse modules load only when a run takes a sparse path.

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
