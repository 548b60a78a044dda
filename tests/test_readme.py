"""README's Layout block names every module of the package, and no other."""

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_readme_layout_lists_exactly_the_package_modules():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Layout", 1)[1].split("```", 2)[1]
    package = block.split("src/heatloop/\n", 1)[1]
    # a module row is indented two spaces under src/heatloop/; the next top-level row ends the package
    rows = re.match(r"(?:  .*\n)*", package).group(0)
    documented = re.findall(r"^  (\S+\.py) ", rows, flags=re.M)
    assert sorted(documented) == sorted(p.name for p in (ROOT / "src" / "heatloop").glob("*.py"))
