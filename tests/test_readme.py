"""The README's examples run as documented."""

import json
import re
from pathlib import Path

from magcp.cli import JobConfig

README = (Path(__file__).parents[1] / "README.md").read_text()


def _code_block(language: str, heading: str) -> str:
    """The first fenced block in language below the heading."""
    section = README[README.index(heading):]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_library_quick_start_runs(capsys):
    exec(_code_block("python", "## Library quick start"), {})
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_command_line_job_example_is_accepted():
    cfg = JobConfig(json.loads(_code_block("json", "## Command line")))
    assert cfg.quad.rel_tol == 1e-6
    assert len(cfg.grid) == 25
