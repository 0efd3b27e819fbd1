"""Config parsing, artifact writing, and exit codes of the batch front end."""

from __future__ import annotations

import dataclasses
import math
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from fbmfg.cli import (
    _CONFIG_KEYS,
    ConfigError,
    MODEL_NAMES,
    RunConfig,
    execute_sweep,
    format_config,
    main,
    parse_config,
)
from fbmfg.models import (
    FinalCost,
    decoupled_heat_model,
    final_cost_constant,
    final_cost_convolution,
)
from fbmfg.spectral import critical_times, mode_eigenvalue
from fbmfg.torus_grid import Field

T_CRIT = math.log(3.0) / (8.0 * math.pi**2)


def toy_factory(grid, params):
    """Factory used by the custom-model tests (referenced by dotted name)."""
    level = float(params.get("level", "1.0"))
    g = Field.from_function(grid, lambda x: 0.1 * np.sin(2.0 * np.pi * x))
    return decoupled_heat_model(dim=grid.dim), final_cost_constant(g), Field.full(grid, level)


def failing_factory(grid, params):
    """Factory whose density source turns NaN at sweep 2, once u has moved."""
    def G(u, m, Du, Dm, D2u, x, t):
        return np.full(np.shape(u), np.nan if np.any(u != 0.0) else 0.0)

    model = dataclasses.replace(decoupled_heat_model(dim=grid.dim), G=G)
    m0 = Field.from_function(grid, lambda x: 1.0 + 0.25 * np.cos(2.0 * np.pi * x))
    return model, final_cost_convolution(grid), m0


def nan_cost_factory(grid, params):
    """Factory whose final cost declares a NaN smoothing constant."""
    real = final_cost_convolution(grid)
    cost = FinalCost(fn=real.fn, L_h=math.nan, C0=real.C0, regularizing=True)
    return decoupled_heat_model(dim=grid.dim), cost, Field.full(grid, 1.0)


def infinite_density_factory(grid, params):
    """Factory whose initial density has one infinite entry."""
    values = np.ones(grid.shape)
    values[3] = np.inf
    return decoupled_heat_model(dim=grid.dim), final_cost_convolution(grid), Field(grid, values)


def nonsymmetric_diffusion_factory(grid, params):
    """Factory whose value-equation diffusion is not symmetric."""
    model = dataclasses.replace(decoupled_heat_model(dim=grid.dim),
                                diffusion_u=np.array([[0.5, 0.4], [0.0, 0.5]]))
    return model, final_cost_convolution(grid), Field.full(grid, 1.0)


def nonelliptic_diffusion_factory(grid, params):
    """Factory whose density-equation diffusion has a negative eigenvalue."""
    model = dataclasses.replace(decoupled_heat_model(dim=grid.dim),
                                diffusion_m=np.array([[1.0, 2.0], [2.0, 1.0]]))
    return model, final_cost_convolution(grid), Field.full(grid, 1.0)


def manifest_keys(out):
    return [line.split(" = ")[0] for line in (out / "manifest.txt").read_text().splitlines()]


def write(path, text):
    path.write_text(textwrap.dedent(text))
    return str(path)


DECOUPLED = """\
    model = decoupled-heat
    grid.dim = 1
    grid.n = 32
    grid.nt = 16
    grid.T = 0.01
    params.modes = 0=1.0; 1=0.25
"""


# The tiny quadratic configuration the CI's console-script step runs.
TINY_QUADRATIC = """\
    model = quadratic-mfg
    grid.dim = 1
    grid.n = 16
    grid.nt = 8
    grid.T = 0.01
    params.modes = 0=1.0; 1=0.1
"""


class TestParsing:
    def test_minimal_config_and_defaults(self):
        cfg = parse_config(DECOUPLED)
        assert cfg.model == "decoupled-heat"
        assert (cfg.dim, cfg.n, cfg.nt) == (1, 32, 16)
        assert cfg.T == 0.01
        assert cfg.K is None and cfg.delta is None and cfg.p is None
        assert cfg.tol == 1e-8 and cfg.max_iter == 100
        assert cfg.params == (("modes", "0=1.0; 1=0.25"),)
        assert cfg.out_dir == "out" and cfg.write_fields

    def test_comments_blanks_and_spacing_are_tolerated(self):
        cfg = parse_config(
            "# leading comment\n\nmodel = decoupled-heat\n"
            "grid.dim=1\n grid.n =  8 \ngrid.nt = 4\ngrid.T = 0.5\n"
        )
        assert cfg.n == 8 and cfg.T == 0.5

    @pytest.mark.parametrize(
        "mutation, fragment",
        [
            ("grid.m = 3", "unknown keys"),
            ("grid.n = 16", "duplicate key"),
            ("iteration.tol = soon", "expected a number"),
            ("outputs.write_fields = yes", "expected true or false"),
            ("iteration.max_iter = 0", "max_iter"),
            ("iteration.relaxation = 0.5", "unknown keys"),
            ("iteration.p = 1.5", "iteration.p must be at least 2"),
            ("iteration.p = inf", "iteration.p must be at least 2 and finite"),
            ("truncation.K = inf", "truncation.K must be positive and finite"),
            ("iteration.tol = inf", "iteration.tol must be positive and finite"),
            ("params.sigma = 0.1", "does not accept"),
            ("just some words", "expected 'key = value'"),
        ],
    )
    def test_strictness(self, mutation, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(DECOUPLED + mutation + "\n")

    @pytest.mark.parametrize("dim", ["0", "4", "1.5"])
    def test_grid_dim_runs_over_the_field_columns(self, dim):
        # x, y, z: one coordinate column per axis in the field CSVs.
        with pytest.raises(ConfigError, match="grid.dim"):
            parse_config(DECOUPLED.replace("grid.dim = 1", f"grid.dim = {dim}"))

    def test_required_keys_and_model_names(self):
        with pytest.raises(ConfigError, match="missing required key"):
            parse_config("model = decoupled-heat\n")
        with pytest.raises(ConfigError, match="unknown model"):
            parse_config(DECOUPLED.replace("decoupled-heat", "heat"))
        assert "custom" in MODEL_NAMES

    def test_custom_model_requires_a_factory(self):
        text = DECOUPLED.replace("model = decoupled-heat", "model = custom")
        with pytest.raises(ConfigError, match="factory"):
            parse_config(text)

    @pytest.mark.parametrize("changes, fragment", [
        (dict(dim=4), "grid.dim must be from 1 to 3"),
        (dict(model="heat"), r"model: unknown model 'heat' \(known: decoupled-heat"),
        (dict(model="quadratic-mfg", params=(("bogus", "1"),)), "does not accept params: bogus"),
    ], ids=["dim-4", "unknown-model", "unknown-param"])
    def test_a_config_built_in_code_is_checked(self, changes, fragment):
        # A 4D decoupled-heat config used to write field CSVs with a 5-column
        # header over 6-column rows.
        with pytest.raises(ConfigError, match=fragment):
            RunConfig(**{**dict(model="decoupled-heat", dim=1, n=8, nt=4, T=0.01), **changes})

    def test_round_trip_through_format_config(self):
        cfg = RunConfig(
            model="linear-counterexample", dim=1, n=48, nt=300, T=T_CRIT,
            K=7.25, delta=0.5, p=4.0, tol=3e-7, max_iter=55,
            params=(("alpha", "-3.0"), ("modes", "0=1.0; 1=0.05")),
            out_dir="some dir", write_fields=False,
        )
        assert parse_config(format_config(cfg)) == cfg
        minimal = parse_config(DECOUPLED)
        assert parse_config(format_config(minimal)) == minimal
        # One table names every RunConfig field once; a text that sets every
        # key, in canonical form, comes back unchanged.
        fields = [name for _, name, _ in _CONFIG_KEYS]
        assert sorted(fields) == sorted(f.name for f in dataclasses.fields(RunConfig))
        every_key = textwrap.dedent("""\
            model = linear-counterexample
            grid.dim = 2
            grid.n = 48
            grid.nt = 300
            grid.T = 0.013
            truncation.K = 7.25
            truncation.delta = 0.5
            iteration.p = 4.5
            iteration.tol = 3e-07
            iteration.max_iter = 55
            params.alpha = -3.0
            params.modes = 0,0=1.0; 1,0=0.05
            outputs.dir = some dir
            outputs.write_fields = false
        """)
        keys = [line.split(" = ")[0] for line in every_key.splitlines()]
        keys = list(dict.fromkeys("params." if k.startswith("params.") else k for k in keys))
        assert keys == [key for key, _, _ in _CONFIG_KEYS]
        assert format_config(parse_config(every_key)) == every_key


class TestRunCommand:
    def test_decoupled_run_writes_artifacts_and_exits_zero(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        out = tmp_path / "out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        series = (out / "series.csv").read_text().splitlines()
        assert series[0] == "iter,d,gamma,norm_u_w21p,norm_u_c10,norm_m_c10,min_m,max_Du"
        # The decoupled pair has no feedback, so the second sweep repeats
        # the first exactly and the distance column hits zero there.
        assert series[2].startswith("2,0,")
        for name in ("fields_t0.csv", "fields_tmid.csv", "fields_tT.csv"):
            lines = (out / name).read_text().splitlines()
            assert lines[0] == "x,u,m"
            assert len(lines) == 1 + 32
        assert (out / "manifest.txt").exists()

    def test_two_runs_are_byte_identical(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", cfg_path, "--out", str(a)]) == 0
        assert main(["run", cfg_path, "--out", str(b)]) == 0
        for name in ("series.csv", "fields_t0.csv", "fields_tmid.csv", "fields_tT.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_manifest_config_echo_reparses_to_the_effective_config(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        out = tmp_path / "echo_out"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text().splitlines()
        echo = "\n".join(
            line[len("config."):] for line in manifest if line.startswith("config.")
        )
        expected = dataclasses.replace(parse_config(DECOUPLED), out_dir=str(out))
        assert parse_config(echo + "\n") == expected

    def test_manifest_lists_digests_and_resolved_constants(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        out = tmp_path / "dig"
        main(["run", cfg_path, "--out", str(out)])
        manifest = (out / "manifest.txt").read_text()
        for key in ("resolved.K = ", "resolved.M1 = ", "resolved.L_h = ",
                    "resolved.C0 = ", "resolved.detrunc_ok = true",
                    "files.series.csv = sha256:", "files.fields_tT.csv = sha256:"):
            assert key in manifest
        # Finite residuals carry no reason line.
        assert "resolved.residual_reason" not in manifest
        import hashlib
        digest = hashlib.sha256((out / "series.csv").read_bytes()).hexdigest()
        assert f"files.series.csv = sha256:{digest}" in manifest

    def test_manifest_layout(self, tmp_path):
        # Every line of a decoupled run's manifest, in order (the keys only).
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        out = tmp_path / "layout"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        iterations = [f"iteration.{k}.{name}" for k in (1, 2)
                      for name in ("d", "gamma", "norm_u_w21p", "norm_u_c10", "norm_m_c10")]
        assert manifest_keys(out) == [
            "kind", "status", "exit_code", "wallclock_seconds", "iterations",
            "resolved.K", "resolved.M1", "resolved.L_h", "resolved.C0", "resolved.delta",
            "resolved.p", "resolved.detrunc_ok", "resolved.residual_u", "resolved.residual_m",
            "config.model", "config.grid.dim", "config.grid.n", "config.grid.nt",
            "config.grid.T", "config.iteration.tol", "config.iteration.max_iter",
            "config.params.modes", "config.outputs.dir", "config.outputs.write_fields",
            *iterations,
            "files.series.csv", "files.fields_t0.csv", "files.fields_tmid.csv",
            "files.fields_tT.csv",
        ]

    def test_manifest_names_why_residuals_are_nan(self, tmp_path, monkeypatch):
        from fbmfg import cli

        solve = cli.picard_solve
        reason = "ValueError: density must be positive"
        monkeypatch.setattr(cli, "picard_solve", lambda *a, **k: dataclasses.replace(
            solve(*a, **k), residuals={"u": math.nan, "m": math.nan, "reason": reason},
        ))
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        out = tmp_path / "nan"
        main(["run", cfg_path, "--out", str(out)])
        manifest = (out / "manifest.txt").read_text()
        assert "resolved.residual_u = nan" in manifest
        assert f"resolved.residual_reason = {reason}\n" in manifest

    def test_write_fields_flag_suppresses_field_files(self, tmp_path):
        cfg_path = write(
            tmp_path / "run.cfg", DECOUPLED + "outputs.write_fields = false\n"
        )
        out = tmp_path / "nofields"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        assert (out / "series.csv").exists()
        assert not (out / "fields_t0.csv").exists()

    def test_two_dimensional_fields_layout(self, tmp_path):
        cfg_path = write(
            tmp_path / "run.cfg",
            """\
            model = decoupled-heat
            grid.dim = 2
            grid.n = 8
            grid.nt = 4
            grid.T = 0.01
            params.modes = 0,0=1.0; 1,0=0.25
            """,
        )
        out = tmp_path / "two_d"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        lines = (out / "fields_tT.csv").read_text().splitlines()
        assert lines[0] == "x,y,u,m"
        assert len(lines) == 1 + 64

    def test_three_dimensional_run_and_fields_layout(self, tmp_path):
        # The tiny 3D quadratic run of the CI's console-script step; the
        # density defaults to the constant mode 0,0,0 = 1.
        cfg_path = write(
            tmp_path / "run.cfg",
            TINY_QUADRATIC.replace("grid.dim = 1", "grid.dim = 3")
            .replace("grid.n = 16", "grid.n = 8").replace("params.modes = 0=1.0; 1=0.1", ""),
        )
        out = tmp_path / "three_d"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        lines = (out / "fields_tT.csv").read_text().splitlines()
        assert lines[0] == "x,y,z,u,m"
        assert len(lines) == 1 + 512
        # Points in index order: the last axis runs fastest.
        assert [line.split(",")[:3] for line in lines[1:3]] == [["0", "0", "0"],
                                                                ["0", "0", "0.125"]]
        assert all(float(line.split(",")[4]) == 1.0 for line in lines[1:])

    @pytest.mark.parametrize("modes", ["params.modes = 0=1.0; 1=0.1", ""])
    def test_subnormal_time_step_exits_1(self, tmp_path, capsys, modes):
        # dt = 1e-320 / 8 is subnormal: with data the W21p distance used to
        # overflow (exit 2), with a constant density the run "converged".
        cfg_path = write(
            tmp_path / "run.cfg",
            TINY_QUADRATIC.replace("grid.T = 0.01", "grid.T = 1e-320")
            .replace("params.modes = 0=1.0; 1=0.1", modes),
        )
        out = tmp_path / "o"
        assert main(["run", cfg_path, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "subnormal" in err
        assert not out.exists()

    def test_near_critical_counterexample_exits_2_with_a_note(self, tmp_path):
        cfg_path = write(
            tmp_path / "run.cfg",
            """\
            model = linear-counterexample
            grid.dim = 1
            grid.n = 32
            grid.nt = 256
            grid.T = 0.0139
            iteration.tol = 0.02
            iteration.max_iter = 120
            params.alpha = -3.0
            params.modes = 0=1.0; 1=0.05
            """,
        )
        out = tmp_path / "ctr"
        assert main(["run", cfg_path, "--out", str(out)]) == 2
        manifest = (out / "manifest.txt").read_text()
        assert "note.critical_horizon = " in manifest
        note = next(
            line for line in manifest.splitlines()
            if line.startswith("note.critical_horizon")
        )
        assert "mode-1" in note
        assert repr(T_CRIT)[:8] in note

    def test_critical_horizon_note_names_an_off_axis_mode(self, tmp_path):
        # At the horizon of mode (1, 1), which no axis mode (k, 0) has.
        T_11 = critical_times(-3.0, mode_eigenvalue((1, 1)))
        cfg_path = write(
            tmp_path / "run.cfg",
            f"""\
            model = linear-counterexample
            grid.dim = 2
            grid.n = 8
            grid.nt = 4
            grid.T = {T_11!r}
            iteration.max_iter = 2
            params.alpha = -3.0
            """,
        )
        out = tmp_path / "ctr2d"
        main(["run", cfg_path, "--out", str(out)])
        assert (
            f"note.critical_horizon = T = {T_11!r} lies at relative distance "
            f"0.000e+00 from the mode-1,1 critical horizon {T_11!r}\n"
        ) in (out / "manifest.txt").read_text()

    def test_amplified_fixed_point_exits_3(self, tmp_path):
        cfg_path = write(
            tmp_path / "run.cfg",
            f"""\
            model = linear-counterexample
            grid.dim = 1
            grid.n = 32
            grid.nt = 205
            grid.T = {0.8 * T_CRIT!r}
            iteration.tol = 0.05
            iteration.max_iter = 90
            params.alpha = -3.0
            params.modes = 0=1.0; 1=0.25
            """,
        )
        out = tmp_path / "amp"
        assert main(["run", cfg_path, "--out", str(out)]) == 3
        manifest = (out / "manifest.txt").read_text()
        assert "status = converged" in manifest
        assert "resolved.detrunc_ok = false" in manifest
        assert "resolved.detrunc_failures = " in manifest

    def test_bad_config_and_missing_file_exit_1(self, tmp_path, capsys):
        bad = write(tmp_path / "bad.cfg", "model = heat\n")
        assert main(["run", bad]) == 1
        assert "error:" in capsys.readouterr().err
        assert main(["run", str(tmp_path / "absent.cfg")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_inadmissible_truncation_level_exits_1(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED + "truncation.K = 0.01\n")
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_density_floor_with_explicit_K_exits_1(self, tmp_path, capsys):
        # min m0 = 0.75 lies below the declared floor; a given K skips no check.
        cfg_path = write(
            tmp_path / "run.cfg",
            DECOUPLED + "truncation.K = 2000.0\ntruncation.delta = 0.9\n",
        )
        out = tmp_path / "o"
        assert main(["run", cfg_path, "--out", str(out)]) == 1
        assert "initial density violates its floor" in capsys.readouterr().err
        assert not out.exists()

    def test_exponent_below_two_exits_1(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED + "iteration.p = 1.5\n")
        out = tmp_path / "o"
        assert main(["run", cfg_path, "--out", str(out)]) == 1
        assert "error: iteration.p must be at least 2" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line, bad, fragment", [
        ("grid.n = 32", "grid.n = 4", "n must be an integer >= 8"),
        ("grid.nt = 16", "grid.nt = 1", "nt must be an integer >= 2"),
    ])
    def test_grid_bounds_come_from_the_grid(self, tmp_path, capsys, line, bad, fragment):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED.replace(line, bad))
        assert main(["run", cfg_path, "--out", str(tmp_path / "o")]) == 1
        assert fragment in capsys.readouterr().err

    def test_custom_factory_by_dotted_name(self, tmp_path):
        cfg_path = write(
            tmp_path / "run.cfg",
            """\
            model = custom
            grid.dim = 1
            grid.n = 16
            grid.nt = 8
            grid.T = 0.01
            params.factory = test_cli:toy_factory
            params.level = 2.5
            """,
        )
        out = tmp_path / "custom"
        assert main(["run", cfg_path, "--out", str(out)]) == 0
        manifest = (out / "manifest.txt").read_text()
        # The factory builds a uniform density at the requested level, and
        # the positivity floor defaults to its minimum.
        assert "resolved.delta = 2.5" in manifest

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("factory, fragment", [
        ("nan_cost_factory", "L_h and C0 must be nonnegative"),
        ("infinite_density_factory", "initial density must be finite"),
    ])
    def test_factory_data_the_solver_cannot_run_exits_1(
        self, tmp_path, capsys, factory, fragment, command
    ):
        cfg_path = write(
            tmp_path / "run.cfg",
            f"""\
            model = custom
            grid.dim = 1
            grid.n = 16
            grid.nt = 8
            grid.T = 0.01
            params.factory = test_cli:{factory}
            """,
        )
        out = tmp_path / "o"
        horizons = ["--T-list", "0.005,0.01"] if command == "sweep" else []
        assert main([command, cfg_path, *horizons, "--out", str(out)]) == 1
        assert fragment in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("factory, fragment", [
        ("nonsymmetric_diffusion_factory", "diffusion is not symmetric"),
        ("nonelliptic_diffusion_factory", "diffusion is not uniformly elliptic"),
    ])
    def test_inadmissible_diffusion_exits_1(self, tmp_path, capsys, factory, fragment, command):
        # Both fail before the first sweep: the non-elliptic one used to end
        # in status "error" (exit 2), the non-symmetric one to converge.
        cfg_path = write(
            tmp_path / "run.cfg",
            f"""\
            model = custom
            grid.dim = 2
            grid.n = 8
            grid.nt = 4
            grid.T = 0.01
            params.factory = test_cli:{factory}
            """,
        )
        out = tmp_path / "o"
        horizons = ["--T-list", "0.005,0.01"] if command == "sweep" else []
        assert main([command, cfg_path, *horizons, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err
        assert not out.exists()

    def test_failed_sweep_keeps_the_series_and_exits_2(self, tmp_path):
        cfg_path = write(
            tmp_path / "run.cfg",
            """\
            model = custom
            grid.dim = 1
            grid.n = 16
            grid.nt = 8
            grid.T = 0.01
            params.factory = test_cli:failing_factory
            """,
        )
        out = tmp_path / "failed"
        assert main(["run", cfg_path, "--out", str(out)]) == 2
        series = (out / "series.csv").read_text().splitlines()
        assert len(series) == 2 and series[1].startswith("1,")
        manifest = (out / "manifest.txt").read_text()
        assert "status = error\n" in manifest
        assert "iterations = 1\n" in manifest
        assert (
            "error.message = sweep 2: SolverError: non-finite values produced by the march\n"
            in manifest
        )

    def test_console_entry_point_runs_in_a_subprocess(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        out = tmp_path / "sub"
        proc = subprocess.run(
            [sys.executable, "-m", "fbmfg.cli", "run", cfg_path, "--out", str(out)],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert (out / "series.csv").exists()


class TestSweepCommand:
    def test_sweep_writes_one_row_per_horizon(self, tmp_path):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        out = tmp_path / "sw"
        code = main(["sweep", cfg_path, "--T-list", "0.01,0.02", "--out", str(out)])
        assert code == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert lines[0] == "T,converged,iterations,max_gamma,min_m,runtime"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert float(first[0]) == 0.01
        assert first[1] == "true"
        assert int(first[2]) == 2
        manifest = (out / "manifest.txt").read_text()
        assert "row.1.status = converged" in manifest
        assert "row.2.status = converged" in manifest
        assert "files.sweep.csv = sha256:" in manifest

    def test_manifest_layout(self, tmp_path):
        # Every line of a two-horizon sweep's manifest, in order (the keys only).
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        out = tmp_path / "layout"
        assert main(["sweep", cfg_path, "--T-list", "0.01,0.02", "--out", str(out)]) == 0
        rows = [f"row.{i}.{name}" for i in (1, 2)
                for name in ("T", "nt", "status", "iterations", "max_gamma", "min_m",
                             "detrunc_ok")]
        assert manifest_keys(out) == [
            "kind", "status", "exit_code", "wallclock_seconds",
            "config.model", "config.grid.dim", "config.grid.n", "config.grid.nt",
            "config.grid.T", "config.iteration.tol", "config.iteration.max_iter",
            "config.params.modes", "config.outputs.dir", "config.outputs.write_fields",
            *rows,
            "files.sweep.csv",
        ]

    def test_thread_environment_changes_nothing(self, tmp_path, monkeypatch):
        # The sweep is serial: a thread setting in the environment, even a
        # malformed one, neither fails it nor shows up in its outputs.
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        first, second = tmp_path / "first", tmp_path / "second"
        assert main(["sweep", cfg_path, "--T-list", "0.01,0.02,0.04",
                     "--out", str(first)]) == 0
        monkeypatch.setenv("FBMFG_THREADS", "many")
        assert main(["sweep", cfg_path, "--T-list", "0.01,0.02,0.04",
                     "--out", str(second)]) == 0

        def data_columns(path):
            rows = (path / "sweep.csv").read_text().splitlines()[1:]
            return [row.split(",")[:5] for row in rows]

        assert data_columns(first) == data_columns(second)
        for out in (first, second):
            assert "workers" not in (out / "manifest.txt").read_text()

    @pytest.mark.parametrize("line, fragment", [
        ("truncation.K = 0.5", "K=0.5 must reach the admissible threshold"),
        ("truncation.delta = 0.95", "initial density violates its floor"),
    ])
    def test_inadmissible_truncation_exits_1_under_run_and_sweep(
        self, tmp_path, capsys, line, fragment
    ):
        cfg_path = write(tmp_path / "run.cfg", TINY_QUADRATIC + line + "\n")
        errors = []
        for command in (["run"], ["sweep", "--T-list", "0.005,0.01"]):
            out = tmp_path / command[0]
            assert main([command[0], cfg_path, *command[1:], "--out", str(out)]) == 1
            errors.append(capsys.readouterr().err)
            assert not out.exists()
        assert errors[0] == errors[1]
        assert errors[0].startswith("error: ") and errors[0].count("\n") == 1
        assert fragment in errors[0]

    @pytest.mark.parametrize("line, fragment", [
        ("truncation.K = inf", "truncation.K must be positive and finite, got inf"),
        ("iteration.tol = inf", "iteration.tol must be positive and finite, got inf"),
    ])
    def test_nonfinite_K_or_tol_exits_1_under_run_and_sweep(
        self, tmp_path, capsys, line, fragment
    ):
        # K = inf clamped nothing and certified de-truncation; tol = inf
        # "converged" after one sweep.
        cfg_path = write(tmp_path / "run.cfg", TINY_QUADRATIC + line + "\n")
        for command in (["run"], ["sweep", "--T-list", "0.005,0.01"]):
            out = tmp_path / command[0]
            assert main([command[0], cfg_path, *command[1:], "--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1
            assert fragment in err
            assert not out.exists()

    @pytest.mark.parametrize("T, fragment", [
        # dt = T / nt is subnormal on the configured grid (T / dt would
        # overflow for every horizon).
        ("1e-320", "underflows to 0 or to a subnormal number"),
        # dt = T / nt underflows to zero on the configured grid.
        ("5e-324", "underflows to 0"),
    ])
    def test_unusable_time_step_exits_1(self, tmp_path, capsys, T, fragment):
        cfg_path = write(
            tmp_path / "run.cfg", TINY_QUADRATIC.replace("grid.T = 0.01", f"grid.T = {T}")
        )
        out = tmp_path / "o"
        assert main(["sweep", cfg_path, "--T-list", "0.005,0.01", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert fragment in err
        assert not out.exists()

    def test_horizon_list_validation(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        for bad in ("0.02,0.01", "0.01,,0.02", "0.01,-0.5", "0.01,abc", "0.01,inf"):
            assert main(["sweep", cfg_path, "--T-list", bad]) == 1
            assert "error:" in capsys.readouterr().err

    def test_execute_sweep_accepts_a_parsed_config(self, tmp_path):
        cfg = dataclasses.replace(
            parse_config(DECOUPLED), out_dir=str(tmp_path / "direct")
        )
        assert execute_sweep(cfg, [0.01, 0.02]) == 0
        assert (tmp_path / "direct" / "sweep.csv").exists()
