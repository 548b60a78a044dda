"""README's Layout block names every module of the package, and no other,
and its Command line block every option of each subcommand, and no other."""

import re
from pathlib import Path

from heatloop.cli import _build_parser

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```", 2)[1]
    package = block.split("src/heatloop/\n", 1)[1]
    # a module row is indented two spaces under src/heatloop/; the next top-level row ends the package
    rows = re.match(r"(?:  .*\n)*", package).group(0)
    documented = re.findall(r"^  (\S+\.py) ", rows, flags=re.M)
    assert sorted(documented) == sorted(p.name for p in (ROOT / "src" / "heatloop").glob("*.py"))


def test_readme_command_line_lists_exactly_each_subcommands_options():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    # an entry is a "heatloop <cmd>" line and the indented lines that continue it
    entries = dict(re.findall(r"^heatloop (\w+)(.*(?:\n .*)*)", block, flags=re.M))
    subparsers = next(a for a in _build_parser()._actions if a.dest == "command").choices
    assert sorted(entries) == sorted(subparsers)
    for command, parser in subparsers.items():
        options = {s for action in parser._actions for s in action.option_strings} - {"-h", "--help"}
        assert set(re.findall(r"--[a-z]+", entries[command])) == options, command
