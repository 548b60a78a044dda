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

Parsing and printing walk the fields of :class:`Scenario` in order.  A
field's key is its dotted path, and the text of its annotation picks
the reader and the printer.  Two tables hold what the path cannot tell:
``_KEYS`` renames a path (``rng_seed`` is ``seed``), and ``CHOICES`` maps
the accepted text of each text-valued key to its value.  A ``<field>.kind``
entry starts that field from its kind's defaults: a flat controller
models the plant, and a ``table`` profile is loaded from ``t_ext.file``.
The CLI flags are entries too, applied to a loaded scenario by the same
walk (:func:`apply_entries`).  The walk rebuilds each dataclass it meets,
which checks it; a failed check becomes a ConfigError under its prefix.
"""

from __future__ import annotations

import math
import os
from dataclasses import fields, is_dataclass, replace

from .controllers import CONTROLLERS, HEATING_AND_COOLING, HEATING_ONLY, default_controller
from .engine import ConstantTExt, Scenario, SinusoidTExt, TableTExt
from .reference import MODES


class ConfigError(ValueError):
    """Malformed scenario text or file."""


_KEYS = {"rng_seed": "seed", "reference_mode": "reference.mode"}

CHOICES = {
    "reference.mode": {mode: mode for mode in MODES},
    "controller.kind": CONTROLLERS,
    "actuator.mode": {
        "heat": HEATING_ONLY,
        "heating_only": HEATING_ONLY,
        "heat_cool": HEATING_AND_COOLING,
        "heating_and_cooling": HEATING_AND_COOLING,
    },
    "t_ext.kind": {cls.kind: cls for cls in (ConstantTExt, SinusoidTExt, TableTExt)},
}


def _read_float(key: str, raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"key {key!r}: value must be finite, got {raw!r}")
    return value


def _read_int(key: str, raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"key {key!r}: expected an integer, got {raw!r}") from None


_BOOLS = {"true": True, "yes": True, "1": True, "false": False, "no": False, "0": False}


def _read_bool(key: str, raw: str) -> bool:
    if raw.lower() not in _BOOLS:
        raise ConfigError(f"key {key!r}: expected true/false, got {raw!r}")
    return _BOOLS[raw.lower()]


def _read_choice(key: str, raw: str):
    if raw not in CHOICES[key]:
        raise ConfigError(f"key {key!r}: expected one of {sorted(CHOICES[key])}, got {raw!r}")
    return CHOICES[key][raw]


def _read_segments(key: str, raw: str) -> tuple[tuple[float, float], ...]:
    segments = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        start, sep, sp = token.partition(":")
        if not sep:
            raise ConfigError(f"{key}: expected 'start:setpoint', got {token!r}")
        try:
            segments.append((float(start), float(sp)))
        except ValueError:
            raise ConfigError(f"{key}: bad number in {token!r}") from None
    if not segments:
        raise ConfigError(f"{key}: no segments given")
    return tuple(segments)


def _show_float(value) -> str:
    return repr(float(value))


_SEGMENTS = "tuple[tuple[float, float], ...]"

# reader and printer for each field annotation the walk meets; every
# module defers its annotations, so a field's type is its annotation text
_READ = {"float": _read_float, "int": _read_int, "bool": _read_bool, "str": _read_choice, _SEGMENTS: _read_segments}
_SHOW = {
    "float": _show_float,
    "int": str,
    "bool": lambda value: "true" if value else "false",
    "str": str,
    _SEGMENTS: lambda segments: ", ".join(f"{_show_float(start)}:{_show_float(sp)}" for start, sp in segments),
}


def _key(prefix: str, name: str) -> str:
    path = f"{prefix}.{name}" if prefix else name
    return _KEYS.get(path, path)


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


def _load_t_ext_table(path: str, source: str) -> TableTExt:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [row for row in map(str.strip, fh) if row and not row.startswith("#")]
    except (OSError, ValueError) as exc:
        raise ConfigError(f"t_ext.file: cannot read {path!r}: {exc}") from None
    data = []    # the (time, temp) rows
    for i, row in enumerate(rows):
        cells = [c.strip() for c in row.split(",")]
        if len(cells) != 2:
            raise ConfigError(f"t_ext.file {path!r}: expected 2 columns, got {row!r}")
        numbers = []
        for cell in cells:
            try:
                numbers.append(float(cell))
            except ValueError:
                pass
        if i == 0 and not numbers:    # a header row: neither cell is a number
            continue
        if len(numbers) != 2:
            raise ConfigError(f"t_ext.file {path!r}: bad number in {row!r}")
        if not all(map(math.isfinite, numbers)):
            raise ConfigError(f"t_ext.file {path!r}: non-finite value in {row!r}")
        data.append(numbers)
    if len(data) < 2:
        raise ConfigError(f"t_ext.file {path!r}: need at least two data rows")
    try:
        return TableTExt(*zip(*data), source=source)
    except ValueError as exc:    # times that do not increase
        raise ConfigError(f"t_ext.file {path!r}: {exc}") from None


def _start(key: str, kind, entries: dict[str, str], base_dir: str, plant):
    """The defaults a ``key.kind`` entry starts field ``key`` from."""
    if kind is TableTExt:
        source = entries.pop(f"{key}.file", None)
        if source is None:
            raise ConfigError(f"missing required key {key + '.file'!r}")
        return _load_t_ext_table(os.path.join(base_dir, source), source)
    return default_controller(kind.kind, plant) if key == "controller" else kind()


def _walk(entries: dict[str, str], prefix: str, obj, base_dir: str):
    """``obj`` with each field that has an entry replaced by it, popping
    the entries it uses."""
    changes = {}
    for f in fields(obj):
        key, value = _key(prefix, f.name), getattr(obj, f.name)
        kind_key = f"{key}.kind"
        if kind_key in CHOICES and kind_key in entries:
            kind = _read_choice(kind_key, entries.pop(kind_key))
            # plant precedes controller in Scenario: a flat controller models the new plant
            value = _start(key, kind, entries, base_dir, changes.get("plant"))
        if isinstance(value, TableTExt):
            pass    # a table is its file, read whole by _start
        elif is_dataclass(value):
            value = _walk(entries, key, value, base_dir)
        elif key in entries:
            value = _READ[f.type](key, entries.pop(key))
        changes[f.name] = value
    try:
        return replace(obj, **changes)
    except ValueError as exc:
        raise ConfigError(f"{prefix}: {exc}" if prefix else str(exc)) from None


def apply_entries(sc: Scenario, entries: dict[str, str], base_dir: str = ".") -> Scenario:
    """``sc`` with each ``key: value`` entry applied as a config line
    would apply it.  Relative t_ext.file paths are resolved against
    ``base_dir``."""
    entries = dict(entries)
    sc = _walk(entries, "", sc, base_dir)
    if entries:
        raise ConfigError(f"unknown key(s): {', '.join(repr(k) for k in sorted(entries))}")
    return sc


def parse_scenario(text: str, base_dir: str = ".") -> Scenario:
    """Build a Scenario from config text.  Relative t_ext.file paths are
    resolved against ``base_dir``."""
    return apply_entries(Scenario(), _parse_lines(text), base_dir)


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


def _lines(prefix: str, obj) -> list[str]:
    """``key = value`` lines for the fields of ``obj``, in the walk's order."""
    lines = []
    for f in fields(obj):
        key, value = _key(prefix, f.name), getattr(obj, f.name)
        if f"{key}.kind" in CHOICES:
            lines.append(f"{key}.kind = {value.kind}")
        if isinstance(value, TableTExt):
            if value.source is None:
                raise ConfigError("cannot serialize a table t_ext profile without a source file")
            lines.append(f"{key}.file = {value.source}")
        elif is_dataclass(value):
            lines += _lines(key, value)
        else:
            lines.append(f"{key} = {_SHOW[f.type](value)}")
    return lines


def serialize_scenario(sc: Scenario) -> str:
    """Canonical config text; parse_scenario() of the result reproduces
    the scenario exactly."""
    return "\n".join(_lines("", sc)) + "\n"
