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
    ConfigError,
    MODEL_NAMES,
    RunConfig,
    execute_sweep,
    format_config,
    main,
    parse_config,
)
from fbmfg.models import decoupled_heat_model, final_cost_constant
from fbmfg.torus_grid import Field

T_CRIT = math.log(3.0) / (8.0 * math.pi**2)


def toy_factory(grid, params):
    """Factory used by the custom-model tests (referenced by dotted name)."""
    level = float(params.get("level", "1.0"))
    g = Field.from_function(grid, lambda x: 0.1 * np.sin(2.0 * np.pi * x))
    return decoupled_heat_model(dim=grid.dim), final_cost_constant(g), Field.full(grid, level)


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


class TestParsing:
    def test_minimal_config_and_defaults(self):
        cfg = parse_config(DECOUPLED)
        assert cfg.model == "decoupled-heat"
        assert (cfg.dim, cfg.n, cfg.nt) == (1, 32, 16)
        assert cfg.T == 0.01
        assert cfg.K is None and cfg.delta is None and cfg.p is None
        assert cfg.tol == 1e-8 and cfg.max_iter == 100 and cfg.relaxation == 1.0
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
            ("iteration.relaxation = 1.5", "relaxation"),
            ("params.sigma = 0.1", "does not accept"),
            ("just some words", "expected 'key = value'"),
        ],
    )
    def test_strictness(self, mutation, fragment):
        with pytest.raises(ConfigError, match=fragment):
            parse_config(DECOUPLED + mutation + "\n")

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

    def test_round_trip_through_format_config(self):
        cfg = RunConfig(
            model="linear-counterexample", dim=1, n=48, nt=300, T=T_CRIT,
            K=7.25, delta=0.5, p=4.0, tol=3e-7, max_iter=55, relaxation=0.8,
            params=(("alpha", "-3.0"), ("modes", "0=1.0; 1=0.05")),
            out_dir="some dir", write_fields=False,
        )
        assert parse_config(format_config(cfg)) == cfg
        minimal = parse_config(DECOUPLED)
        assert parse_config(format_config(minimal)) == minimal


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

    def test_thread_cap_changes_workers_not_results(self, tmp_path, monkeypatch):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        serial_out, pooled_out = tmp_path / "serial", tmp_path / "pooled"
        assert main(["sweep", cfg_path, "--T-list", "0.01,0.02,0.04",
                     "--out", str(serial_out)]) == 0
        monkeypatch.setenv("FBMFG_THREADS", "3")
        assert main(["sweep", cfg_path, "--T-list", "0.01,0.02,0.04",
                     "--out", str(pooled_out)]) == 0

        def data_columns(path):
            rows = (path / "sweep.csv").read_text().splitlines()[1:]
            return [row.split(",")[:5] for row in rows]

        assert data_columns(serial_out) == data_columns(pooled_out)
        assert "workers = 1" in (serial_out / "manifest.txt").read_text()
        assert "workers = 3" in (pooled_out / "manifest.txt").read_text()

    def test_bad_thread_cap_is_a_config_error(self, tmp_path, monkeypatch, capsys):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        monkeypatch.setenv("FBMFG_THREADS", "many")
        assert main(["sweep", cfg_path, "--T-list", "0.01,0.02"]) == 1
        assert "FBMFG_THREADS" in capsys.readouterr().err

    def test_horizon_list_validation(self, tmp_path, capsys):
        cfg_path = write(tmp_path / "run.cfg", DECOUPLED)
        for bad in ("0.02,0.01", "0.01,,0.02", "0.01,-0.5", "0.01,abc"):
            assert main(["sweep", cfg_path, "--T-list", bad]) == 1
            assert "error:" in capsys.readouterr().err

    def test_execute_sweep_accepts_a_parsed_config(self, tmp_path):
        cfg = dataclasses.replace(
            parse_config(DECOUPLED), out_dir=str(tmp_path / "direct")
        )
        assert execute_sweep(cfg, [0.01, 0.02]) == 0
        assert (tmp_path / "direct" / "sweep.csv").exists()
