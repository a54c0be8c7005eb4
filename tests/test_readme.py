"""The README's examples run and print what it shows."""

import contextlib
import io
import re
import shlex
from pathlib import Path

from isocmc.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_quick_start_prints_what_it_shows():
    quick_start = README.split("## Quick start", 1)[1]
    code = re.search(r"```python\n(.*?)```", quick_start, re.S).group(1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, "README.md", "exec"), {})
    k_range, deviation = out.getvalue().splitlines()
    assert k_range == "-7.0 1.0"
    assert float(deviation) < 1e-10


def test_command_line_examples_print_their_summary_lines(tmp_path, monkeypatch, capsys):
    examples = re.findall(r"^\$ isocmc (.*)\n(.*)$", README, re.M)
    assert len(examples) == 4
    monkeypatch.chdir(tmp_path)
    for command, shown in examples:
        assert main(shlex.split(command)) == 0
        assert capsys.readouterr().out.startswith(shown.split("...")[0])
