"""End-to-end tests of the command-line interface.

Everything goes through main(argv) so the tests cover argument parsing,
config loading, the run itself and the on-disk output formats.
"""

import contextlib
import errno
import io
import os
import tempfile
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from heatloop.config import serialize_scenario
from heatloop.engine import compute_metrics, default_scenario, run
from heatloop import cli
from heatloop.cli import comparison_scenarios, main
from test_config import config_texts

CSV_HEADER = "t,t_int_true,t_int_measured,t_wall,t_ext,y_star,y_star_dot,q_command,q_applied,f_estim"


EQUILIBRIUM_CFG = """\
schedule.segments = 0.0:16.0
t_ext.kind = constant
t_ext.value = 16.0
initial.t_int = 16.0
initial.t_wall = 16.0
noise_std = 0.0
"""

UNSTABLE_CFG = """\
controller.kind = ip
controller.alpha = 1e-280
actuator.q_max = 1e300
noise_std = 0.0
"""


@pytest.fixture
def default_cfg(tmp_path):
    path = tmp_path / "default.cfg"
    path.write_text(serialize_scenario(default_scenario()), encoding="utf-8")
    return str(path)


def read_metrics(path) -> dict[str, float]:
    out = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        name, _, value = line.partition(" = ")
        out[name] = float(value)
    return out


# ---------------------------------------------------------------------------
# run


def test_run_writes_timeseries_and_metrics(tmp_path, default_cfg):
    out = tmp_path / "out"
    assert main(["run", "--config", default_cfg, "--out", str(out)]) == 0

    csv_lines = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()
    assert csv_lines[0] == CSV_HEADER
    assert len(csv_lines) == 1 + 2880
    first = csv_lines[1].split(",")
    assert first[0] == "0"
    assert first[1] == "16"         # initial indoor temperature
    assert first[9] == "0"          # iP estimate starts at warm-up zero

    metrics = read_metrics(out / "metrics.txt")
    assert set(metrics) == {"rmse", "max_abs_error", "energy", "cooling_energy",
                            "control_variation", "saturation_fraction"}
    expected = compute_metrics(run(default_scenario()))
    assert metrics["rmse"] == pytest.approx(expected.rmse, rel=1e-8)
    assert not (out / "plot.svg").exists()


def test_run_plot_flag_writes_svg(tmp_path, default_cfg):
    out = tmp_path / "out"
    assert main(["run", "--config", default_cfg, "--out", str(out), "--plot"]) == 0
    svg = (out / "plot.svg").read_text(encoding="utf-8")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")


def test_run_is_reproducible_byte_for_byte(tmp_path, default_cfg):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", default_cfg, "--out", str(out_a), "--seed", "63"]) == 0
    assert main(["run", "--config", default_cfg, "--out", str(out_b), "--seed", "63"]) == 0
    assert (out_a / "timeseries.csv").read_bytes() == (out_b / "timeseries.csv").read_bytes()
    assert (out_a / "metrics.txt").read_bytes() == (out_b / "metrics.txt").read_bytes()


def test_run_seed_override_changes_noise(tmp_path, default_cfg):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", "--config", default_cfg, "--out", str(out_a), "--seed", "63"]) == 0
    assert main(["run", "--config", default_cfg, "--out", str(out_b), "--seed", "64"]) == 0
    assert (out_a / "timeseries.csv").read_bytes() != (out_b / "timeseries.csv").read_bytes()


def test_run_controller_and_reference_overrides(tmp_path, default_cfg):
    out = tmp_path / "out"
    args = ["run", "--config", default_cfg, "--out", str(out),
            "--controller", "pi", "--reference", "step"]
    assert main(args) == 0
    lines = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()
    # PI has no ultra-local estimate: f_estim column stays empty
    assert all(line.endswith(",") for line in lines[1:])
    # step reference jumps straight to the day setpoint at t = 25200
    y_star = {float(l.split(",")[0]): float(l.split(",")[5]) for l in lines[1:]}
    assert y_star[25140.0] == 16.0
    assert y_star[25200.0] == 19.0


def test_run_actuator_override_heating_only(tmp_path, default_cfg):
    out = tmp_path / "out"
    assert main(["run", "--config", default_cfg, "--out", str(out), "--actuator", "heat"]) == 0
    lines = (out / "timeseries.csv").read_text(encoding="utf-8").splitlines()
    q_applied = [float(l.split(",")[8]) for l in lines[1:]]
    assert min(q_applied) >= 0.0
    q_command = [float(l.split(",")[7]) for l in lines[1:]]
    assert min(q_command) < 0.0     # ramp-downs do ask for cooling


def test_run_on_equilibrium_scenario_is_quiet(tmp_path):
    cfg = tmp_path / "eq.cfg"
    cfg.write_text(EQUILIBRIUM_CFG, encoding="utf-8")
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    metrics = read_metrics(out / "metrics.txt")
    assert metrics["rmse"] < 1e-6
    assert metrics["energy"] == 0.0


FLAG_CASES = [
    *[pytest.param("--controller", kind, "controller.kind", id=kind) for kind in ("ip", "pi", "flat_p", "flat_pi")],
    *[pytest.param("--reference", mode, "reference.mode", id=f"reference-{mode}") for mode in ("step", "smooth", "ramp")],
    *[pytest.param("--actuator", name, "actuator.mode", id=f"actuator-{name}")
      for name in ("heat", "heating_only", "heat_cool", "heating_and_cooling")],
    pytest.param("--seed", "7", "seed", id="seed-7"),
]


@pytest.mark.parametrize("flag, value, key", FLAG_CASES)
def test_controller_flag_matches_config_kind(tmp_path, flag, value, key):
    # each flag means its config line: the --controller flag and a
    # controller.kind line take the same defaults, the flat model included
    plant = "plant.c_a = 700.0\n"
    flag_cfg, line_cfg = tmp_path / "flag.cfg", tmp_path / "line.cfg"
    flag_cfg.write_text(plant, encoding="utf-8")
    line_cfg.write_text(plant + f"{key} = {value}\n", encoding="utf-8")
    out_flag, out_line = tmp_path / "flag", tmp_path / "line"
    assert main(["run", "--config", str(flag_cfg), "--out", str(out_flag), flag, value]) == 0
    assert main(["run", "--config", str(line_cfg), "--out", str(out_line)]) == 0
    assert (out_flag / "timeseries.csv").read_bytes() == (out_line / "timeseries.csv").read_bytes()


# ---------------------------------------------------------------------------
# compare


def test_compare_writes_all_runs(tmp_path, default_cfg):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", default_cfg, "--out", str(out)]) == 0

    names = [name for name, _ in comparison_scenarios(default_scenario())]
    assert names == ["ip_heat", "ip_heat_cool", "pi_step", "pi_smooth",
                     "flat_p", "flat_pi_fast", "flat_pi_slow"]
    for name in names:
        lines = (out / f"{name}.csv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 1 + 2880

    table = (out / "comparison.txt").read_text(encoding="utf-8").splitlines()
    assert table[0].split()[0] == "run"
    assert [row.split()[0] for row in table[1:]] == names


def test_compare_metrics_reflect_known_rankings(tmp_path, default_cfg):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", default_cfg, "--out", str(out)]) == 0
    rows = {}
    for row in (out / "comparison.txt").read_text(encoding="utf-8").splitlines()[1:]:
        cells = row.split()
        rows[cells[0]] = dict(zip(("rmse", "max_abs_error", "energy", "cooling_energy",
                                   "control_variation", "saturation_fraction"),
                                  map(float, cells[1:])))
    # step references hammer the loop compared to smooth blends
    assert rows["pi_step"]["rmse"] > 1.5 * rows["pi_smooth"]["rmse"]
    # a slow model-based corrector pays for plant mismatch in accuracy,
    # a fast one in actuator churn
    assert rows["flat_pi_slow"]["rmse"] > 2.0 * rows["ip_heat_cool"]["rmse"]
    assert rows["flat_pi_fast"]["control_variation"] > 3.0 * rows["ip_heat_cool"]["control_variation"]


def test_compare_failing_in_a_later_run_leaves_no_file(tmp_path, capsys):
    # ip_heat and ip_heat_cool pass; pi_step overflows its command at tick 806
    cfg = tmp_path / "b.cfg"
    cfg.write_text("noise_std = 1e306\n", encoding="utf-8")
    out = tmp_path / "out"
    assert main(["compare", "--config", str(cfg), "--out", str(out), "--plot"]) == 3
    assert "tick 806" in capsys.readouterr().err
    assert list(out.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["b.cfg", "out"]


def test_compare_exiting_3_keeps_a_users_file(tmp_path, capsys):
    # ip_heat runs and passes before pi_step fails: its CSV never replaces the user's
    cfg = tmp_path / "b.cfg"
    cfg.write_text("noise_std = 1e306\n", encoding="utf-8")
    out = tmp_path / "out"
    out.mkdir()
    (out / "ip_heat.csv").write_bytes(b"mine\n")
    assert main(["compare", "--config", str(cfg), "--out", str(out)]) == 3
    assert "tick 806" in capsys.readouterr().err
    assert os.listdir(out) == ["ip_heat.csv"]
    assert (out / "ip_heat.csv").read_bytes() == b"mine\n"


def test_compare_interrupted_leaves_out_as_it_was(tmp_path, monkeypatch, default_cfg):
    out = tmp_path / "out"
    out.mkdir()
    (out / "ip_heat.csv").write_bytes(b"mine\n")

    def interrupt(*args):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "write_comparison_txt", interrupt)
    with pytest.raises(KeyboardInterrupt):
        main(["compare", "--config", default_cfg, "--out", str(out)])
    assert os.listdir(out) == ["ip_heat.csv"]
    assert (out / "ip_heat.csv").read_bytes() == b"mine\n"


def test_compare_plot_flag(tmp_path, default_cfg):
    out = tmp_path / "cmp"
    assert main(["compare", "--config", default_cfg, "--out", str(out), "--plot"]) == 0
    for name, _ in comparison_scenarios(default_scenario()):
        assert (out / f"{name}.svg").read_text(encoding="utf-8").startswith("<svg")


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_layout(tmp_path, default_cfg):
    out = tmp_path / "swp"
    assert main(["sweep", "--config", default_cfg, "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "controller,factor,rmse,energy,control_variation"
    assert len(lines) == 1 + 4 * 5
    kinds = [l.split(",")[0] for l in lines[1:]]
    assert kinds == ["ip"] * 5 + ["pi"] * 5 + ["flat_p"] * 5 + ["flat_pi"] * 5
    factors = [l.split(",")[1] for l in lines[1:6]]
    assert factors == ["0.5", "0.75", "1", "1.5", "2"]


def test_sweep_single_controller(tmp_path, default_cfg):
    out = tmp_path / "swp"
    assert main(["sweep", "--config", default_cfg, "--out", str(out), "--controller", "flat_p"]) == 0
    lines = (out / "sweep.csv").read_text(encoding="utf-8").splitlines()
    assert len(lines) == 1 + 5
    assert all(l.startswith("flat_p,") for l in lines[1:])


def test_sweep_factor_one_matches_plain_run(tmp_path, default_cfg):
    out_r, out_s = tmp_path / "r", tmp_path / "s"
    assert main(["run", "--config", default_cfg, "--out", str(out_r), "--controller", "ip"]) == 0
    assert main(["sweep", "--config", default_cfg, "--out", str(out_s), "--controller", "ip"]) == 0
    metrics_lines = (out_r / "metrics.txt").read_text(encoding="utf-8").splitlines()
    printed = dict(line.split(" = ") for line in metrics_lines)
    row = next(l for l in (out_s / "sweep.csv").read_text(encoding="utf-8").splitlines()
               if l.startswith("ip,1,"))
    _, _, rmse, energy, cv = row.split(",")
    assert rmse == printed["rmse"]
    assert energy == printed["energy"]
    assert cv == printed["control_variation"]


def test_sweep_on_one_cpu_and_on_two_writes_the_same_bytes(tmp_path, monkeypatch, default_cfg, no_child_left):
    written = []
    for cpus in ({0}, {0, 1}):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus, raising=False)
        out = tmp_path / f"cpus{len(cpus)}"
        assert main(["sweep", "--config", default_cfg, "--out", str(out)]) == 0
        written.append((out / "sweep.csv").read_bytes())
        assert no_child_left()
    assert written[0] == written[1]


@pytest.mark.parametrize("text, code", [
    ("horizon = 7200\n", 0),
    ("horizon = 1e15\ndt = 1.0\n", 2),
    ("initial.t_int = 1e300\n", 3),
], ids=["ok", "unallocatable_trace", "metric_overflow"])
def test_sweep_leaves_no_child_whatever_its_exit(tmp_path, two_cpus, no_child_left, capsys, text, code):
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text, encoding="utf-8")
    assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "o")]) == code
    assert no_child_left()
    if code:
        assert capsys.readouterr().err.startswith("error:")


def test_sweep_overflowing_a_plant_parameter_names_its_key_and_factor(tmp_path, capsys, no_child_left):
    # 1e308 is a valid c_a; the sweep's factor 2 takes it to inf
    cfg = tmp_path / "s.cfg"
    cfg.write_text("horizon = 600\nplant.c_a = 1e308\n", encoding="utf-8")
    out = tmp_path / "o"
    assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "plant.c_a" in err and "sweep factor 2.0" in err
    assert os.listdir(out) == []
    assert no_child_left()


def _raise_eagain():
    raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts open fds in /proc/self/fd")
@pytest.mark.parametrize("name, cpus, good_calls", [
    ("fork", {0, 1}, 0),
    ("pipe", {0, 1}, 0),
    ("fork", {0, 1, 2}, 1),    # the first child starts, the second cannot
], ids=["fork", "pipe", "second_fork"])
def test_sweep_runs_serially_when_a_worker_cannot_start(tmp_path, monkeypatch, default_cfg, no_child_left,
                                                       name, cpus, good_calls):
    serial = tmp_path / "serial"
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert main(["sweep", "--config", default_cfg, "--out", str(serial)]) == 0
    fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    calls = iter([getattr(os, name)] * good_calls)    # the first good_calls go through, the rest raise
    monkeypatch.setattr(os, name, lambda: next(calls, _raise_eagain)())
    assert main(["sweep", "--config", default_cfg, "--out", str(tmp_path / "o")]) == 0
    assert (tmp_path / "o" / "sweep.csv").read_bytes() == (serial / "sweep.csv").read_bytes()
    assert len(os.listdir("/proc/self/fd")) == fds
    assert no_child_left()


# ---------------------------------------------------------------------------
# failure modes


def test_missing_config_exits_2(tmp_path, capsys):
    code = main(["run", "--config", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "absent.cfg" in err


@pytest.mark.parametrize(
    "text, key",
    [
        ("controller.kind = lqr\n", "controller.kind"),
        ("controller.kind = flat_p\ncontroller.pole = 0.01\n", "pole"),
        ("controller.kind = flat_pi\ncontroller.double_pole = 0.0\n", "double_pole"),
        ("controller.window_len = 1\n", "window_len"),
        ("controller.alpha = 0\n", "alpha"),
        ("controller.window_len = 1000000000000000000000000000000\n", "window_len"),
        ("t_ext.period = 1e-320\n", "t_ext.period"),
        ("horizon = 60\n", "horizon=60.0 / dt=60.0"),
    ],
)
def test_bad_config_exits_2(tmp_path, capsys, text, key):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text, encoding="utf-8")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("row", ["100000,nan", "100000,inf", "nan,2.0"])
def test_non_finite_table_cell_exits_2(tmp_path, capsys, row):
    (tmp_path / "w.csv").write_text(f"time,temp\n0,2.0\n{row}\n", encoding="utf-8")
    cfg = tmp_path / "table.cfg"
    cfg.write_text("t_ext.kind = table\nt_ext.file = w.csv\n", encoding="utf-8")
    code = main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "w.csv" in err and row in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("command", ["run", "compare", "sweep"])
@pytest.mark.parametrize("out", ["file", "file/sub"])
def test_out_that_cannot_be_a_directory_exits_2(tmp_path, capsys, default_cfg, command, out):
    (tmp_path / "file").write_text("", encoding="utf-8")
    path = str(tmp_path / out)
    code = main([command, "--config", default_cfg, "--out", path])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert path in err


# each command, the names it writes on success, and one of them for a directory to block
_COMMAND_OUTPUTS = {
    "run": (["run"], ["metrics.txt", "timeseries.csv"], "timeseries.csv"),
    "run_plot": (["run", "--plot"], ["metrics.txt", "plot.svg", "timeseries.csv"], "plot.svg"),
    "compare_plot": (
        ["compare", "--plot"],
        sorted(["comparison.txt"] + [name + ext for name, _ in comparison_scenarios(default_scenario())
                                     for ext in (".csv", ".svg")]),
        "comparison.txt",
    ),
    "sweep": (["sweep"], ["sweep.csv"], "sweep.csv"),
}


@pytest.mark.parametrize("command, names, blocked", list(_COMMAND_OUTPUTS.values()), ids=list(_COMMAND_OUTPUTS))
def test_directory_at_an_output_name_exits_2_and_leaves_out_as_it_was(tmp_path, capsys, default_cfg,
                                                                        command, names, blocked):
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    assert main([*command, "--config", default_cfg, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert repr(blocked) in err and "Traceback" not in err
    assert os.listdir(out) == [blocked]
    assert os.listdir(out / blocked) == []
    # with the name free, the command leaves exactly its own files
    (out / blocked).rmdir()
    assert main([*command, "--config", default_cfg, "--out", str(out)]) == 0
    assert sorted(os.listdir(out)) == names


def test_symlink_at_an_output_name_is_replaced_not_written_through(tmp_path, default_cfg):
    target = tmp_path / "target.txt"
    target.write_bytes(b"keep\n")
    out = tmp_path / "out"
    out.mkdir()
    (out / "metrics.txt").symlink_to(target)
    assert main(["run", "--config", default_cfg, "--out", str(out)]) == 0
    assert not (out / "metrics.txt").is_symlink()
    assert (out / "metrics.txt").read_text(encoding="utf-8").startswith("rmse = ")
    assert target.read_bytes() == b"keep\n"


def test_diverging_run_exits_3(tmp_path, capsys):
    cfg = tmp_path / "unstable.cfg"
    cfg.write_text(UNSTABLE_CFG, encoding="utf-8")
    code = main(["run", "--config", cfg.as_posix(), "--out", str(tmp_path / "o")])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "tick" in err


EXTREME_INPUTS = {
    "tiny_dt": ("dt = 1e-300\nhorizon = 1e-299\n", 0, None),
    "subnormal_dt": ("dt = 1e-310\nhorizon = 1e-309\n", 3, "tick"),
    "zero_period": ("t_ext.kind = sinusoid\nt_ext.period = 0.0\n", 2, "t_ext"),
    "tick_count_overflow": ("horizon = 1e308\ndt = 1e-10\n", 2, "horizon"),
    # 80 PB of trace: beyond any address space, so no overcommit hides it
    "unallocatable_trace": ("horizon = 1e15\ndt = 1.0\n", 2, "horizon=1000000000000000.0 / dt=1.0 gives 1000000000000000 ticks"),
    # past numpy's largest array, from the noise draw or, without noise, the trace buffer
    "oversized_trace": ("horizon = 1e300\n", 2, "horizon=1e+300 / dt=60.0 gives 1.666666666666667e+298 ticks"),
    "oversized_trace_no_noise": ("horizon = 1e300\nnoise_std = 0\n", 2, "horizon=1e+300 / dt=60.0 gives 1.666666666666667e+298 ticks"),
    "metric_overflow": ("initial.t_int = 1e300\n", 3, "rmse"),
    # t / 3600 underflows to 0 on both ticks: the plot's time axis collapses
    "collapsed_time_axis": ("dt = 5e-324\nhorizon = 1e-323\n", 0, None),
    # a flat line at 1e20 K: widening the value axis by 1 K does not register
    "flat_huge_values": (
        "horizon = 3600\nschedule.segments = 0:1e20\nt_ext.kind = constant\nt_ext.value = 1e20\n"
        "initial.t_int = 1e20\ninitial.t_wall = 1e20\nnoise_std = 0\n",
        0,
        None,
    ),
    "one_tick": ("horizon = 60\n", 2, "horizon=60.0 / dt=60.0 gives 1 tick"),
    # RK4 diverges on the nominal plant past 1688.76 s: a finite rmse of 1.27e9 K before it was refused
    "rk4_unstable_dt": ("dt = 1800\n", 2, "dt=1800.0 is past the RK4 stability limit of 1688.76 s"),
    # the air node's time constant shrinks to 1e-300 s, far below any tick
    "tiny_air_capacity": ("plant.c_a = 1e-300\n", 2, "dt=60.0 is past the RK4 stability limit"),
}

# the plain run keeps the bare case ids
EXTREME_COMMANDS = {
    "": ["run"],
    "run_plot": ["run", "--plot"],
    "compare_plot": ["compare", "--plot"],
    "sweep": ["sweep"],
}


@pytest.mark.parametrize(
    "command, text, code, named",
    [
        pytest.param(command, *case, id="-".join(filter(None, (case_id, command_id))))
        for command_id, command in EXTREME_COMMANDS.items()
        for case_id, case in EXTREME_INPUTS.items()
    ],
)
def test_extreme_inputs_exit_cleanly(tmp_path, run_python, command, text, code, named):
    cfg = tmp_path / "extreme.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "o"
    proc = run_python("-m", "heatloop.cli", *command, "--config", str(cfg), "--out", str(out))
    assert "Traceback" not in proc.stderr
    assert "Warning" not in proc.stderr
    assert proc.returncode == code
    if named:
        assert named in proc.stderr
    # a plot that cannot be drawn leaves no file behind
    assert [p.name for p in out.glob("*.svg") if p.stat().st_size == 0] == []
    if code:
        # whichever run fails, and however, the command leaves no file behind
        assert (os.listdir(out) if out.exists() else []) == []


def test_module_entry_point_help(run_python):
    proc = run_python("-m", "heatloop.cli", "--help")
    assert proc.returncode == 0
    assert "run" in proc.stdout and "compare" in proc.stdout and "sweep" in proc.stdout


# ---------------------------------------------------------------------------
# main() fuzzed in-process

# values drawn for these keys in place of the config text's: horizon and
# dt give at most 240 ticks or exit 2, and the rest push a run towards a
# non-finite value
_OWN_VALUES = {
    "horizon": ["120", "600", "3600", "7200"] * 3 + ["0", "-60", "nan", "inf", "1e15", "1e308", "abc"],
    "dt": ["60", "30"] * 4 + ["7", "0", "nan", "1e-300", "5e-324", "1800", "abc"],
    "noise_std": ["1e306"],
    "initial.t_int": ["1e300", "-1e300"],
    "actuator.q_max": ["1e300"],
    "plant.c_a": ["1e-300", "1e308"],
}
_FLAG_VALUES = {
    "--controller": ["ip", "pi", "flat_p", "flat_pi", "lqr"],
    "--reference": ["step", "smooth", "ramp", "sine"],
    "--actuator": ["heat", "heating_only", "heat_cool", "heating_and_cooling", "cool"],
    "--seed": ["0", "7", "-1", "99999999999999999999999", "abc", ""],
}
_COMMAND_FLAGS = {"run": [*_FLAG_VALUES, "--plot"], "compare": ["--seed", "--plot"], "sweep": list(_FLAG_VALUES)}
# where --out points, relative to the example's directory: a fresh path
# or one that is already there; "occupied" holds a user's file and a
# directory named after one of the command's outputs
_OUT_SHAPES = {"fresh": "o", "nested": "o/a/b", "empty_dir": "o", "occupied": "o", "file": "file",
               "under_file": "file/sub", "empty": ""}
_BLOCKED = {"run": "timeseries.csv", "compare": "comparison.txt", "sweep": "sweep.csv"}


def _listing(path: str) -> dict[str, bytes | None] | None:
    """Each entry of the directory at ``path`` with its bytes (None for a
    directory), or None if ``path`` is no directory."""
    if not os.path.isdir(path):
        return None
    entries = {}
    for name in os.listdir(path):
        entry = os.path.join(path, name)
        if os.path.isdir(entry):
            entries[name] = None
        else:
            with open(entry, "rb") as fh:
                entries[name] = fh.read()
    return entries


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(_COMMAND_FLAGS)))
    args = [command]
    for flag in draw(st.lists(st.sampled_from(_COMMAND_FLAGS[command]), max_size=3, unique=True)):
        args += [flag] if flag == "--plot" else [flag, draw(st.sampled_from(_FLAG_VALUES[flag]))]
    own = ["horizon", "dt"] + draw(st.lists(st.sampled_from(list(_OWN_VALUES)[2:]), max_size=2, unique=True))
    lines = [line for line in draw(config_texts()).splitlines() if line.partition("=")[0].strip() not in own]
    lines += [f"{key} = {draw(st.sampled_from(_OWN_VALUES[key]))}" for key in own]
    return args, "\n".join(draw(st.permutations(lines))) + "\n", draw(st.sampled_from(sorted(_OUT_SHAPES)))


@settings(deadline=None, max_examples=100)
@given(command_lines())
@example(case=(["run", "--plot"], "horizon = 600\n", "occupied"))
@example(case=(["compare"], "horizon = 600\n", "occupied"))
@example(case=(["sweep"], "horizon = 600\n", "occupied"))
def test_main_exits_0_2_or_3_on_any_command_line(case):
    args, text, shape = case
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stderr(err), \
            mock.patch.object(os, "sched_getaffinity", lambda pid: {0}, create=True):
        cfg = os.path.join(tmp, "c.cfg")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(text)
        with open(os.path.join(tmp, "weather.csv"), "w", encoding="utf-8") as fh:
            fh.write("time,temp\n0, 2.0\n3600, 6.0\n")
        if shape == "empty_dir":
            os.mkdir(os.path.join(tmp, "o"))
        if shape == "occupied":
            os.makedirs(os.path.join(tmp, "o", _BLOCKED[args[0]]))
            with open(os.path.join(tmp, "o", "ip_heat.csv"), "wb") as fh:
                fh.write(b"mine\n")
        if shape in ("file", "under_file"):
            open(os.path.join(tmp, "file"), "w").close()
        out = os.path.join(tmp, _OUT_SHAPES[shape]) if _OUT_SHAPES[shape] else ""
        before = _listing(out)
        try:
            code = main([*args, "--config", cfg, "--out", out])
        except SystemExit as exc:    # argparse rejects a flag value
            code = exc.code
        after = _listing(out)
    assert code in (0, 2, 3), (code, err.getvalue())
    assert "Traceback" not in err.getvalue()
    assert code or shape != "occupied"
    if code:
        assert err.getvalue().startswith(("error:", "usage:"))
        # --out as it was, or created and empty
        assert after == before or (before is None and after == {})
