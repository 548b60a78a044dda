"""Tests for scenario config parsing and serialization.

The contract under test: every key optional, unknown keys rejected,
parse(serialize(s)) == s exactly, and all user mistakes surface as
ConfigError with the offending key or line in the message.
"""

import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heatloop.config import CHOICES, ConfigError, load_scenario, parse_scenario, serialize_scenario
from heatloop.controllers import (
    CONTROLLERS,
    HEATING_AND_COOLING,
    HEATING_ONLY,
    ActuatorMode,
    FlatPController,
    FlatPiController,
    IpController,
    PiController,
    default_controller,
)
from heatloop.engine import ConstantTExt, Scenario, SinusoidTExt, TableTExt, default_scenario
from heatloop.plant import NOMINAL, ThermalParams, ThermalState
from heatloop.reference import Schedule
from oracles import t_ext_at


def test_empty_text_gives_default_scenario():
    assert parse_scenario("") == Scenario()


def test_comments_and_blank_lines_ignored():
    text = "\n# a comment\n   \nhorizon = 3600.0\n  # more\ndt = 60.0\n"
    sc = parse_scenario(text)
    assert sc.horizon == 3600.0
    assert sc.dt == 60.0


def test_whitespace_around_key_and_value():
    sc = parse_scenario("   noise_std   =   0.25   \n")
    assert sc.noise_std == 0.25


def test_seed_key_sets_rng_seed():
    assert parse_scenario("seed = 7").rng_seed == 7
    assert parse_scenario("").rng_seed == Scenario().rng_seed


# ---------------------------------------------------------------------------
# round trips


def roundtrip(sc: Scenario, base_dir: str = ".") -> Scenario:
    return parse_scenario(serialize_scenario(sc), base_dir=base_dir)


def test_roundtrip_default():
    sc = default_scenario()
    assert roundtrip(sc) == sc


def test_roundtrip_ip_controller():
    sc = default_scenario(controller=IpController(alpha=0.002, k_p=-1.25, window_len=9))
    assert roundtrip(sc) == sc


def test_roundtrip_pi_controller():
    sc = default_scenario(controller=PiController(k_p=-0.75, k_i=-0.002))
    assert roundtrip(sc) == sc


def test_roundtrip_flat_p_controller():
    model = ThermalParams(c_a=700.0, c_w=1100.0, k_c=0.7, k_f=0.002, k_ext=0.02)
    sc = default_scenario(controller=FlatPController(pole=-0.02, model=model))
    assert roundtrip(sc) == sc


def test_roundtrip_flat_pi_controller():
    sc = default_scenario(controller=FlatPiController(double_pole=-0.001))
    assert roundtrip(sc) == sc


def test_roundtrip_constant_and_sinusoid_t_ext():
    assert roundtrip(default_scenario(t_ext=ConstantTExt(-3.0))).t_ext == ConstantTExt(-3.0)
    wave = SinusoidTExt(mean=2.0, amplitude=7.5, period=43200.0, phase=0.25)
    assert roundtrip(default_scenario(t_ext=wave)).t_ext == wave


def test_roundtrip_preserves_awkward_floats():
    # repr-based serialization must survive values with no short decimal form
    sc = default_scenario(noise_std=1.0 / 3.0, dt=172800.0 / 2880.0)
    assert roundtrip(sc) == sc


def test_roundtrip_nondefault_plant_schedule_actuator():
    sc = default_scenario(
        plant=ThermalParams(c_a=2800.0, c_w=4400.0, k_c=2.8, k_f=0.008, k_ext=0.08, wall_denominator_cw=True),
        schedule=Schedule(segments=((0.0, 15.0), (7200.0, 21.0)), transition_duration=1800.0),
        reference_mode="ramp",
        actuator=ActuatorMode(mode=HEATING_ONLY, q_max=1500.0),
        initial=ThermalState(18.0, 12.0),
        horizon=14400.0,
        rng_seed=99,
    )
    assert roundtrip(sc) == sc


# ---------------------------------------------------------------------------
# golden file text: the key order and the number formats are the format


_HEAD = """\
horizon = 172800.0
dt = 60.0
noise_std = 0.05
seed = 63
plant.c_a = {c_a}
plant.c_w = 2200.0
plant.k_c = 1.4
plant.k_f = 0.004
plant.k_ext = 0.04
plant.wall_denominator_cw = {wall_cw}
initial.t_int = 16.0
initial.t_wall = 15.527343749999998
schedule.segments = 0.0:16.0, 25200.0:19.0, 79200.0:16.0, 111600.0:19.0, 165600.0:16.0
schedule.transition_duration = 3600.0
reference.mode = smooth
"""

_IP_DEFAULT = """\
controller.kind = ip
controller.alpha = 0.5
controller.k_p = -0.5
controller.window_len = 5
"""

_ACTUATOR = """\
actuator.mode = heating_and_cooling
actuator.q_max = 2000.0
"""

_SINUSOID = """\
t_ext.kind = sinusoid
t_ext.mean = 5.0
t_ext.amplitude = 5.0
t_ext.period = 86400.0
t_ext.phase = -3.141592653589793
"""

_NOMINAL_HEAD = _HEAD.format(c_a="1400.0", wall_cw="false")

_LIGHT_PLANT = ThermalParams(c_a=700.0, wall_denominator_cw=True)


@pytest.mark.parametrize(
    "sc, text",
    [
        (default_scenario(), _NOMINAL_HEAD + _IP_DEFAULT + _ACTUATOR + _SINUSOID),
        (
            default_scenario(controller=IpController(alpha=0.002, k_p=-1.25, window_len=9)),
            _NOMINAL_HEAD
            + "controller.kind = ip\ncontroller.alpha = 0.002\ncontroller.k_p = -1.25\ncontroller.window_len = 9\n"
            + _ACTUATOR + _SINUSOID,
        ),
        (
            default_scenario(controller=PiController(k_p=-0.75, k_i=-0.002)),
            _NOMINAL_HEAD
            + "controller.kind = pi\ncontroller.k_p = -0.75\ncontroller.k_i = -0.002\n"
            + _ACTUATOR + _SINUSOID,
        ),
        (
            default_scenario(controller=FlatPController(
                pole=-0.02, model=ThermalParams(c_a=700.0, c_w=1100.0, k_c=0.7, k_f=0.002, k_ext=0.02))),
            _NOMINAL_HEAD
            + """\
controller.kind = flat_p
controller.pole = -0.02
controller.model.c_a = 700.0
controller.model.c_w = 1100.0
controller.model.k_c = 0.7
controller.model.k_f = 0.002
controller.model.k_ext = 0.02
controller.model.wall_denominator_cw = false
"""
            + _ACTUATOR + _SINUSOID,
        ),
        (
            default_scenario(plant=_LIGHT_PLANT, controller=FlatPiController(double_pole=-0.001, model=_LIGHT_PLANT)),
            _HEAD.format(c_a="700.0", wall_cw="true")
            + """\
controller.kind = flat_pi
controller.double_pole = -0.001
controller.model.c_a = 700.0
controller.model.c_w = 2200.0
controller.model.k_c = 1.4
controller.model.k_f = 0.004
controller.model.k_ext = 0.04
controller.model.wall_denominator_cw = true
"""
            + _ACTUATOR + _SINUSOID,
        ),
        (
            default_scenario(t_ext=ConstantTExt(-3.0)),
            _NOMINAL_HEAD + _IP_DEFAULT + _ACTUATOR + "t_ext.kind = constant\nt_ext.value = -3.0\n",
        ),
    ],
    ids=["default", "ip", "pi", "flat_p", "flat_pi", "constant_t_ext"],
)
def test_serialize_golden_text(sc, text):
    assert serialize_scenario(sc) == text


def test_table_t_ext_roundtrip_through_files(tmp_path):
    table = tmp_path / "weather.csv"
    table.write_text("time,temp\n0, 2.0\n3600, 6.0\n7200, 4.0\n", encoding="utf-8")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("t_ext.kind = table\nt_ext.file = weather.csv\n", encoding="utf-8")

    sc = load_scenario(str(cfg))
    assert sc.t_ext == TableTExt(times=(0.0, 3600.0, 7200.0), temps=(2.0, 6.0, 4.0), source="weather.csv")
    assert t_ext_at(sc.t_ext, 1800.0) == pytest.approx(4.0)

    # serialization keeps the relative path, so the round trip needs the
    # same base directory
    assert parse_scenario(serialize_scenario(sc), base_dir=str(tmp_path)) == sc


def test_save_and_load_scenario(tmp_path):
    sc = default_scenario(controller=PiController(), noise_std=0.0, rng_seed=5)
    path = tmp_path / "out.cfg"
    path.write_text(serialize_scenario(sc), encoding="utf-8")
    assert load_scenario(str(path)) == sc
    assert path.read_text(encoding="utf-8").endswith("\n")


def test_serialize_table_without_source_fails():
    sc = default_scenario(t_ext=TableTExt(times=(0.0, 1.0), temps=(1.0, 2.0)))
    with pytest.raises(ConfigError, match="source"):
        serialize_scenario(sc)


# ---------------------------------------------------------------------------
# controller model defaulting


def test_flat_model_defaults_to_plant():
    sc = parse_scenario("plant.c_a = 700.0\ncontroller.kind = flat_p\n")
    assert sc.plant.c_a == 700.0
    assert sc.controller.model.c_a == 700.0


def test_flat_model_can_diverge_from_plant():
    sc = parse_scenario(
        "plant.c_a = 700.0\ncontroller.kind = flat_pi\ncontroller.model.c_a = 1400.0\n"
    )
    assert sc.plant.c_a == 700.0
    assert sc.controller.model.c_a == 1400.0
    assert sc.controller.model.c_w == sc.plant.c_w


# ---------------------------------------------------------------------------
# actuator aliases


@pytest.mark.parametrize(
    "alias, mode",
    [
        ("heat", HEATING_ONLY),
        ("heating_only", HEATING_ONLY),
        ("heat_cool", HEATING_AND_COOLING),
        ("heating_and_cooling", HEATING_AND_COOLING),
    ],
)
def test_actuator_aliases(alias, mode):
    assert parse_scenario(f"actuator.mode = {alias}\n").actuator.mode == mode


# ---------------------------------------------------------------------------
# error reporting


@pytest.mark.parametrize(
    "text, match",
    [
        ("nonsense = 1\n", "unknown key"),
        ("horizon = 3600\nhorizon = 7200\n", "duplicate"),
        ("horizon\n", "line 1"),
        ("horizon =\n", "line 1"),
        ("= 5\n", "line 1"),
        ("dt = sixty\n", "expected a number"),
        ("dt = inf\n", "finite"),
        ("noise_std = nan\n", "finite"),
        ("seed = 1.5\n", "expected an integer"),
        ("controller.window_len = many\n", "expected an integer"),
        ("plant.wall_denominator_cw = maybe\n", "true/false"),
        ("controller.kind = lqr\n", "controller.kind"),
        ("reference.mode = cubic\n", "reference.mode"),
        ("t_ext.kind = forecast\n", "t_ext.kind"),
        ("t_ext.kind = table\n", "t_ext.file"),
        ("actuator.mode = off\n", "actuator.mode"),
        ("actuator.q_max = -5\n", "actuator"),
        ("plant.c_a = -1\n", "plant"),
        ("schedule.segments = 0:16, banana\n", "segments"),
        ("schedule.segments = 0 16\n", "segments"),
        ("schedule.segments = ,\n", "segments"),
        ("schedule.segments = 0:16, 0:19\n", "schedule"),
        ("schedule.transition_duration = 30000\n", "schedule"),
        ("horizon = 100\ndt = 60\n", "divide"),
        ("controller.kind = pi\ncontroller.alpha = 0.5\n", "unknown key"),
        ("controller.kind = ip\ncontroller.pole = -0.01\n", "unknown key"),
    ],
)
def test_parse_errors(text, match):
    with pytest.raises(ConfigError, match=match):
        parse_scenario(text)


def test_config_error_is_a_value_error():
    assert issubclass(ConfigError, ValueError)


def test_load_scenario_names_the_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dt = sixty\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad.cfg"):
        load_scenario(str(bad))


def test_load_scenario_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_scenario(str(tmp_path / "absent.cfg"))


def test_missing_table_file_reports_path(tmp_path):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("t_ext.kind = table\nt_ext.file = gone.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="gone.csv"):
        load_scenario(str(cfg))


def test_nul_in_table_path_is_a_config_error():
    with pytest.raises(ConfigError, match="t_ext.file"):
        parse_scenario("t_ext.kind = table\nt_ext.file = a\0b.csv\n")


def test_short_table_file_rejected(tmp_path):
    table = tmp_path / "w.csv"
    table.write_text("0,2.0\n", encoding="utf-8")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("t_ext.kind = table\nt_ext.file = w.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="two data rows"):
        load_scenario(str(cfg))


def test_table_file_bad_number_mid_file(tmp_path):
    table = tmp_path / "w.csv"
    table.write_text("0,2.0\nbroken,row\n", encoding="utf-8")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("t_ext.kind = table\nt_ext.file = w.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="bad number"):
        load_scenario(str(cfg))


@pytest.mark.parametrize("text, outcome", [
    ("time,temp\n0,1\n3600,2\n", (0.0, 3600.0)),
    ("# weather\n\n time , temp \n0,1\n3600,2\n", (0.0, 3600.0)),
    ("0,1\n3600,2\n", (0.0, 3600.0)),
    # only a first row with no number in either cell is a header
    ("0,5x\n3600,6\n7200,7\n", "bad number in '0,5x'"),
    ("time,5\n0,1\n3600,2\n", "bad number in 'time,5'"),
    ("a,b\nc,d\n0,1\n3600,2\n", "bad number in 'c,d'"),
], ids=["header", "header_after_comment", "no_header", "bad_first_cell", "half_header", "two_headers"])
def test_table_file_skips_only_a_leading_header(tmp_path, text, outcome):
    table = tmp_path / "w.csv"
    table.write_text(text, encoding="utf-8")
    entries = f"t_ext.kind = table\nt_ext.file = {table}\n"
    if isinstance(outcome, str):
        with pytest.raises(ConfigError, match=re.escape(outcome)):
            parse_scenario(entries)
    else:
        assert parse_scenario(entries).t_ext.times == outcome


def test_table_file_times_not_increasing_names_the_file(tmp_path):
    table = tmp_path / "w.csv"
    table.write_text("0,1\n0,2\n", encoding="utf-8")
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text("t_ext.kind = table\nt_ext.file = w.csv\n", encoding="utf-8")
    with pytest.raises(ConfigError, match=r"t_ext\.file '.*w\.csv': .*increasing"):
        load_scenario(str(cfg))


def test_absolute_table_path_ignores_base_dir(tmp_path):
    table = tmp_path / "abs.csv"
    table.write_text("0,1.0\n10,2.0\n", encoding="utf-8")
    sc = parse_scenario(f"t_ext.kind = table\nt_ext.file = {table}\n", base_dir="/nowhere")
    assert sc.t_ext.temps == (1.0, 2.0)


def test_validation_failures_become_config_errors():
    with pytest.raises(ConfigError, match="^noise_std must be"):
        parse_scenario("noise_std = -1\n")
    with pytest.raises(ConfigError, match="horizon"):
        parse_scenario("horizon = -3600\n")
    with pytest.raises(ConfigError, match=r"^horizon=1e\+300 / dt=60\.0 gives .* too many to hold in memory"):
        parse_scenario("horizon = 1e300\n")


# ---------------------------------------------------------------------------
# every key the printer writes: the README block and the fuzz below use them

_T_EXTS = (ConstantTExt(), SinusoidTExt(), TableTExt(times=(0.0, 1.0), temps=(1.0, 2.0), source="weather.csv"))

# {key: value} as serialize_scenario writes it, for every controller and t_ext kind
WRITTEN = [
    dict(line.split(" = ", 1) for line in serialize_scenario(
        default_scenario(controller=default_controller(kind, NOMINAL), t_ext=t_ext)).splitlines())
    for kind in CONTROLLERS
    for t_ext in _T_EXTS
]


def _model_keys_as_one(keys) -> set[str]:
    return {"controller.model.*" if k.startswith("controller.model.") else k for k in keys}


def test_readme_config_block_lists_every_written_key():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Config format", 1)[1].split("```", 2)[1]
    documented = {line.partition("=")[0].strip() for line in block.splitlines() if "=" in line}
    assert _model_keys_as_one(documented) == _model_keys_as_one(key for written in WRITTEN for key in written)


@pytest.fixture(scope="module")
def table_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("table")
    (path / "weather.csv").write_text("time,temp\n0, 2.0\n3600, 6.0\n", encoding="utf-8")
    return str(path)


def good_values() -> dict[str, list[str]]:
    """The values each key is written with or accepts as a choice."""
    good = {"t_ext.file": {"weather.csv", "absent.csv"}, "nonsense": {"1"}}
    for written in WRITTEN:
        for key, value in written.items():
            good.setdefault(key, set(CHOICES.get(key, ()))).add(value)
    return {key: sorted(values) for key, values in good.items()}


_GOOD = good_values()
_JUNK = st.one_of(st.floats().map(repr), st.integers(-10**20, 10**20).map(str), st.text(max_size=12))


@st.composite
def config_texts(draw):
    """Lines over the keys of one controller and t_ext kind, the kind keys
    first, plus now and then a key of another kind or an unknown one.
    Most values are the written one or another good one, so that many
    texts parse; the rest are junk."""
    written = draw(st.sampled_from(WRITTEN))
    keys = draw(st.lists(st.sampled_from(sorted(written)), max_size=6, unique=True))
    if draw(st.integers(0, 3)):
        keys = ["controller.kind", "t_ext.kind"] + [k for k in keys if k not in ("controller.kind", "t_ext.kind")]
    keys += [k for k in draw(st.lists(st.sampled_from(sorted(_GOOD)), max_size=2)) if k not in keys]
    lines = []
    for key in keys:
        good = st.sampled_from(_GOOD[key])
        own = st.just(written[key]) if key in written else good
        lines.append(f"{key} = {draw(st.one_of(own, own, own, good, _JUNK))}\n")
    return "".join(lines)


@settings(max_examples=300, deadline=None)
@given(text=config_texts())
def test_any_entries_raise_config_error_or_round_trip(table_dir, text):
    try:
        sc = parse_scenario(text, base_dir=table_dir)
    except ConfigError:
        return
    assert parse_scenario(serialize_scenario(sc), base_dir=table_dir) == sc
