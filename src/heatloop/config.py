"""Scenario files: flat ``key = value`` text with dotted prefixes.

The format is deliberately primitive so it stays diff-friendly and
parseable from any language: one assignment per line, ``#`` lines and
blank lines ignored, no sections, no quoting.  Example::

    horizon = 172800.0
    dt = 60.0
    plant.c_a = 1400.0
    schedule.segments = 0.0:16.0, 25200.0:19.0
    controller.kind = ip
    t_ext.kind = sinusoid

Every key is optional; missing keys take the default-scenario values.
Unknown keys are errors.  ``serialize_scenario`` writes floats with
``repr`` so that parse(serialize(s)) == s exactly.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields, is_dataclass, replace

from .controllers import CONTROLLERS, HEATING_AND_COOLING, HEATING_ONLY, default_controller
from .engine import ConstantTExt, Scenario, SinusoidTExt, TableTExt
from .reference import REFERENCE_GENERATORS


class ConfigError(ValueError):
    """Malformed scenario text or file."""


_MISSING = object()

_ACTUATOR_ALIASES = {
    "heat": HEATING_ONLY,
    "heating_only": HEATING_ONLY,
    "heat_cool": HEATING_AND_COOLING,
    "heating_and_cooling": HEATING_AND_COOLING,
}

_T_EXT_KINDS = {cls.kind: cls for cls in (ConstantTExt, SinusoidTExt)}


class _Entries:
    def __init__(self, entries: dict[str, str]):
        self._entries = entries

    def take(self, key: str, default=_MISSING) -> str:
        if key in self._entries:
            return self._entries.pop(key)
        if default is _MISSING:
            raise ConfigError(f"missing required key {key!r}")
        return default

    def take_float(self, key: str, default: float) -> float:
        raw = self.take(key, None)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise ConfigError(f"key {key!r}: value must be finite, got {raw!r}")
        return value

    def take_int(self, key: str, default: int) -> int:
        raw = self.take(key, None)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None

    def take_bool(self, key: str, default: bool) -> bool:
        raw = self.take(key, None)
        if raw is None:
            return default
        if raw.lower() in ("true", "yes", "1"):
            return True
        if raw.lower() in ("false", "no", "0"):
            return False
        raise ConfigError(f"key {key!r}: expected true/false, got {raw!r}")

    def take_choice(self, key: str, choices, default: str) -> str:
        raw = self.take(key, None)
        if raw is None:
            return default
        if raw not in choices:
            raise ConfigError(f"key {key!r}: expected one of {sorted(choices)}, got {raw!r}")
        return raw

    def reject_leftovers(self) -> None:
        if self._entries:
            names = ", ".join(repr(k) for k in sorted(self._entries))
            raise ConfigError(f"unknown key(s): {names}")


# parser and printer for each field value type the config walks
_TAKE = {float: _Entries.take_float, int: _Entries.take_int, bool: _Entries.take_bool}


def _show_float(value) -> str:
    return repr(float(value))


_SHOW = {float: _show_float, int: str, bool: lambda value: "true" if value else "false"}


def _parse_lines(text: str) -> dict[str, str]:
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not sep or not key or not value:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw.strip()!r}")
        if key in entries:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value
    return entries


def _take_fields(ent: _Entries, prefix: str, base, **given):
    """``base`` with each field replaced by its ``prefix.name`` entry.

    The type of the field's value in ``base`` picks the parser: float,
    int, bool, or a nested dataclass walked under ``prefix.name``.  Other
    fields keep their value from ``given`` or ``base``.
    """
    changes = dict(given)
    for f in fields(base):
        key, default = f"{prefix}.{f.name}", getattr(base, f.name)
        if is_dataclass(default):
            changes[f.name] = _take_fields(ent, key, default)
        elif type(default) in _TAKE:
            changes[f.name] = _TAKE[type(default)](ent, key, default)
    try:
        return replace(base, **changes)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}") from None


def _parse_segments(raw: str) -> tuple[tuple[float, float], ...]:
    segments = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        start, sep, sp = token.partition(":")
        if not sep:
            raise ConfigError(f"schedule.segments: expected 'start:setpoint', got {token!r}")
        try:
            segments.append((float(start), float(sp)))
        except ValueError:
            raise ConfigError(f"schedule.segments: bad number in {token!r}") from None
    if not segments:
        raise ConfigError("schedule.segments: no segments given")
    return tuple(segments)


def _load_t_ext_table(path: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [line.strip() for line in fh]
    except OSError as exc:
        raise ConfigError(f"t_ext.file: cannot read {path!r}: {exc}") from None
    times: list[float] = []
    temps: list[float] = []
    for row in rows:
        if not row or row.startswith("#"):
            continue
        cells = [c.strip() for c in row.split(",")]
        if len(cells) != 2:
            raise ConfigError(f"t_ext.file {path!r}: expected 2 columns, got {row!r}")
        try:
            t, temp = float(cells[0]), float(cells[1])
        except ValueError:
            if not times:    # tolerate a single header row
                continue
            raise ConfigError(f"t_ext.file {path!r}: bad number in {row!r}") from None
        if not (math.isfinite(t) and math.isfinite(temp)):
            raise ConfigError(f"t_ext.file {path!r}: non-finite value in {row!r}")
        times.append(t)
        temps.append(temp)
    if len(times) < 2:
        raise ConfigError(f"t_ext.file {path!r}: need at least two data rows")
    return tuple(times), tuple(temps)


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Build a Scenario from config text.  Relative t_ext.file paths are
    resolved against ``base_dir``."""
    ent = _Entries(_parse_lines(text))
    base = Scenario()

    horizon = ent.take_float("horizon", base.horizon)
    dt = ent.take_float("dt", base.dt)
    noise_std = ent.take_float("noise_std", base.noise_std)
    seed = ent.take_int("seed", base.rng_seed)

    plant = _take_fields(ent, "plant", base.plant)
    initial = _take_fields(ent, "initial", base.initial)

    raw_segments = ent.take("schedule.segments", None)
    segments = _parse_segments(raw_segments) if raw_segments is not None else base.schedule.segments
    schedule = _take_fields(ent, "schedule", base.schedule, segments=segments)

    mode = ent.take_choice("reference.mode", REFERENCE_GENERATORS, base.reference_mode)

    kind = ent.take_choice("controller.kind", CONTROLLERS, base.controller.kind)
    controller = _take_fields(ent, "controller", default_controller(kind, plant))

    raw_act = ent.take("actuator.mode", None)
    if raw_act is None:
        act_mode = base.actuator.mode
    elif raw_act in _ACTUATOR_ALIASES:
        act_mode = _ACTUATOR_ALIASES[raw_act]
    else:
        raise ConfigError(f"key 'actuator.mode': expected one of {sorted(set(_ACTUATOR_ALIASES))}, got {raw_act!r}")
    actuator = _take_fields(ent, "actuator", base.actuator, mode=act_mode)

    t_kind = ent.take_choice("t_ext.kind", (*_T_EXT_KINDS, TableTExt.kind), base.t_ext.kind)
    if t_kind == TableTExt.kind:
        rel = ent.take("t_ext.file")
        path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
        times, temps = _load_t_ext_table(path)
        t_ext = TableTExt(times=times, temps=temps, source=rel)
    else:
        t_ext = _take_fields(ent, "t_ext", _T_EXT_KINDS[t_kind]())

    ent.reject_leftovers()

    scenario = Scenario(
        horizon=horizon,
        dt=dt,
        noise_std=noise_std,
        rng_seed=seed,
        plant=plant,
        initial=initial,
        schedule=schedule,
        reference_mode=mode,
        controller=controller,
        actuator=actuator,
        t_ext=t_ext,
    )
    try:
        scenario.validate()
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return scenario


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    try:
        return parse_scenario(text, base_dir=os.path.dirname(os.path.abspath(path)))
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _field_lines(prefix: str, obj, template) -> list[str]:
    """``prefix.name = value`` lines for the fields of ``obj``, printed by
    the type of the field's value in ``template`` like _take_fields."""
    lines = []
    for f in fields(template):
        key, default, value = f"{prefix}.{f.name}", getattr(template, f.name), getattr(obj, f.name)
        if is_dataclass(default):
            lines += _field_lines(key, value, default)
        elif type(default) in _SHOW:
            lines.append(f"{key} = {_SHOW[type(default)](value)}")
    return lines


def serialize_scenario(sc: Scenario) -> str:
    """Canonical config text; parse_scenario() of the result reproduces
    the scenario exactly."""
    base, c, t = Scenario(), sc.controller, sc.t_ext
    segments = ", ".join(f"{_show_float(start)}:{_show_float(sp)}" for start, sp in sc.schedule.segments)
    lines = [
        f"horizon = {_show_float(sc.horizon)}",
        f"dt = {_show_float(sc.dt)}",
        f"noise_std = {_show_float(sc.noise_std)}",
        f"seed = {sc.rng_seed}",
        *_field_lines("plant", sc.plant, base.plant),
        *_field_lines("initial", sc.initial, base.initial),
        f"schedule.segments = {segments}",
        *_field_lines("schedule", sc.schedule, base.schedule),
        f"reference.mode = {sc.reference_mode}",
        f"controller.kind = {c.kind}",
        *_field_lines("controller", c, type(c)()),
        f"actuator.mode = {sc.actuator.mode}",
        *_field_lines("actuator", sc.actuator, base.actuator),
        f"t_ext.kind = {t.kind}",
    ]
    if isinstance(t, TableTExt):
        if t.source is None:
            raise ConfigError("cannot serialize a table t_ext profile without a source file")
        lines.append(f"t_ext.file = {t.source}")
    else:
        lines += _field_lines("t_ext", t, type(t)())
    return "\n".join(lines) + "\n"


def save_scenario(sc: Scenario, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_scenario(sc))
