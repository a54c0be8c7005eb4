"""The README's examples run and print what it shows."""

import contextlib
import importlib
import io
import operator
import re
import shlex
from pathlib import Path

from isocmc.cli import build_parser, main

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


def test_the_tolerance_key_table_lists_the_keys_each_subcommand_declares():
    table = README.split("| subcommand | keys read |", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for row in re.findall(r"^\| (.*) \| (.*) \|$", table, re.M):
        keys = tuple(re.findall(r"`(\w+)`", row[1]))
        listed |= {command: keys for command in re.findall(r"`(\w+)`", row[0])}
    (commands,) = (a for a in build_parser()._actions if a.dest == "command")
    assert listed == {name: p.get_default("tol_keys") for name, p in commands.choices.items()}


def test_every_module_name_in_the_readme_exists():
    modules = "holo|io_mesh|weierstrass|graphgeo|classify|vdist|cli"
    names = re.findall(rf"`(?:isocmc\.)?((?:{modules})(?:\.\w+)+)`", README)
    assert names
    missing = []
    for name in names:
        module, _, attr = name.partition(".")
        try:
            operator.attrgetter(attr)(importlib.import_module(f"isocmc.{module}"))
        except AttributeError:
            missing.append(name)
    assert not missing
