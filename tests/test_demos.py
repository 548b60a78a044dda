"""Smoke test of the narrative scripts in demos/: each one runs to the
end in a child process and writes the plots it promises."""

import shutil
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

# the SVGs each demo writes to output/ next to itself
SVGS = {
    "flatness_correctors.py": ["flat_p_offset.svg", "flat_pi_fast.svg", "flat_pi_slow.svg"],
    "ip_heating_vs_cooling.py": ["ip_heat_cool.svg", "ip_heat_only.svg"],
    "parameter_robustness.py": [],
    "pi_step_vs_smooth.py": ["pi_smooth.svg", "pi_step.svg"],
}


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs_and_writes_its_plots(tmp_path, run_python, name):
    script = tmp_path / name
    shutil.copy(DEMOS / name, script)    # so the demo's output/ lands under tmp_path
    proc = run_python(str(script))
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
    assert sorted(p.name for p in (tmp_path / "output").glob("*.svg")) == SVGS[name]
