"""The README's example config and library quick start run as printed."""

from __future__ import annotations

import pathlib
import re

from fbmfg.cli import main

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def fenced_block(language: str, after: str) -> str:
    """The first ```language block of the README that follows the line ``after``."""
    text = README.read_text()
    start = text.index(after + "\n")
    return re.search(rf"^```{language}\n(.*?)^```$", text[start:], re.M | re.S).group(1)


def test_example_config_runs(tmp_path):
    cfg = tmp_path / "solve.cfg"
    cfg.write_text(fenced_block("ini", "## Command line"))
    out = tmp_path / "results"
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    assert (out / "series.csv").exists()


def test_library_quick_start_runs(capsys):
    exec(compile(fenced_block("python", "## Library quick start"), str(README), "exec"), {})
    printed = capsys.readouterr().out.split()
    assert printed[0] == "converged" and printed[-1] == "True"
