"""Run configuration: JSON specs for streams, suites and engine runs.

Stream spec (a JSON object); rationals are "p/q" strings:

  {"kind": "constant_target", "limit": "1/2", "rate": "1/2"}
  {"kind": "tracker", "lag": 1, "start": "1/8"}          (engines only)
  {"kind": "omega", "machine": "pair", "max_length": 8,
   "offset": "1/4", "scale": "1/2",
   "plus": {"limit": "1/8", "rate": "1/2"}}   (optional, increasing only)

The direction is implied by where the spec is used: alpha and eta are
increasing; a suite entry with role "L" is increasing, role "R" decreasing.

A run config is {"engine": name, "stages": T <= HARD_CAP, "suite": [...]}
plus the stream specs its engine needs.  ENGINES, at the end of this
module, is the one table of engines; a new engine registers there.  A key
that no object above names is refused, not ignored.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple, Optional

from . import expansion, injury
from .rationals import Rational, parse_rational
from .streams import (
    AdversarySuite,
    ApproxStream,
    Direction,
    EngineView,
    StageEngine,
    SuiteEntry,
    make_constant_target,
    make_tracker,
)
from .omega import ToyMachine, bundled_machines, omega_stream, parse_machine, translate_omega

HARD_CAP = 10_000


class ConfigError(Exception):
    pass


class RunConfig(NamedTuple):
    """A run config as `config_from_dict` read it: every field checked."""

    engine: str
    stages: int
    suite_specs: list
    alpha_spec: Optional[dict] = None
    eta_spec: Optional[dict] = None


def load_config(path: Path | str) -> RunConfig:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from None
    return config_from_dict(raw)


def config_from_dict(raw) -> RunConfig:
    if "engine" not in _object(raw, "config"):
        raise ConfigError("config: missing field 'engine'")
    engine = raw["engine"]
    if not isinstance(engine, str) or engine not in ENGINES:
        raise ConfigError(f"unknown engine {engine!r}; expected one of {tuple(ENGINES)}")
    needs = ENGINES[engine].needs
    _known_keys(raw, ("engine", "stages", "suite", *needs), "config")
    stages = _int_field(raw, "stages", "config")
    if not 1 <= stages <= HARD_CAP:
        raise ConfigError(f"stage budget {stages} outside 1..{HARD_CAP}")
    suite = raw.get("suite", [])
    if not isinstance(suite, list):
        raise ConfigError(f"config: 'suite' {suite!r} is not a JSON array")
    if any(raw.get(name) is None for name in needs):
        named = " and ".join(f"'{name}'" for name in needs)
        raise ConfigError(f"engine {engine} needs {named} stream specs")
    return RunConfig(engine, stages, suite, raw.get("alpha"), raw.get("eta"))


def rational_arg(value, name: str) -> Rational:
    """A "p/q" from a config field or a command-line flag."""
    try:
        return parse_rational(str(value))
    except (ValueError, ZeroDivisionError) as e:
        raise ConfigError(f"bad rational {value!r} for {name}: {e}") from None


def _rational_field(spec: dict, key: str, where: str, default: Optional[str] = None) -> Rational:
    value = spec.get(key, default)
    if value is None:
        raise ConfigError(f"{where}: missing field {key!r}")
    return rational_arg(value, f"{key!r} in {where}")


def _int_field(spec: dict, key: str, where: str, default: Optional[int] = None) -> int:
    """An integer field, never coerced: a bool, string, float, list or null
    is refused."""
    value = spec.get(key, default)
    if type(value) is not int:
        raise ConfigError(f"{where}: {key!r} must be an integer, got {value!r}")
    return value


def _known_keys(spec: dict, known: tuple[str, ...], where: str) -> None:
    """Refuse a key outside `known`, which would otherwise be ignored."""
    if unknown := sorted(set(spec).difference(known)):
        raise ConfigError(f"{where}: unknown key {', '.join(map(repr, unknown))}; "
                          f"the keys are {', '.join(known)}")


def _object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{what} {value!r} is not a JSON object")
    return value


def load_machine(name) -> ToyMachine:
    """A bundled machine by name, or a machine definition file by path."""
    if not isinstance(name, str):
        raise ConfigError(f"machine {name!r} is not a name or a path")
    bundled = bundled_machines()
    if name in bundled:
        return bundled[name]
    path = Path(name)
    if path.exists():
        try:
            return parse_machine(path.read_text(encoding="utf-8"))
        except (OSError, ValueError) as e:
            raise ConfigError(f"bad machine file {name}: {e}") from None
    raise ConfigError(f"unknown machine {name!r} (not bundled, not a file)")


def build_stream(
    spec: dict,
    direction: Direction,
    view: Optional[EngineView] = None,
    label: str = "",
) -> ApproxStream:
    try:
        return _stream(spec, direction, view, label)
    except ValueError as e:  # a stream constructor refused its parameters
        raise ConfigError(str(e)) from None


def _stream(spec: dict, direction: Direction, view: Optional[EngineView],
            label: str) -> ApproxStream:
    kind = _object(spec, "stream spec").get("kind")
    where = label or "stream spec"
    if kind == "constant_target":
        _known_keys(spec, ("kind", "limit", "rate"), where)
        return make_constant_target(
            _rational_field(spec, "limit", where),
            direction,
            _rational_field(spec, "rate", where),
            label=label,
        )
    if kind == "tracker":
        _known_keys(spec, ("kind", "lag", "start"), where)
        if view is None:
            raise ConfigError("tracker streams are only valid inside an engine run")
        return make_tracker(
            view,
            direction,
            _int_field(spec, "lag", where, 0),
            _rational_field(spec, "start", where),
            label=label,
        )
    if kind == "omega":
        _known_keys(spec, ("kind", "machine", "max_length", "offset", "scale", "plus"), where)
        machine = load_machine(spec.get("machine", "pair"))
        if direction is Direction.INCREASING:
            offset = _rational_field(spec, "offset", where, "1/4")
            scale = _rational_field(spec, "scale", where, "1/2")
        else:
            offset = _rational_field(spec, "offset", where, "3/4")
            scale = _rational_field(spec, "scale", where, "-1/2")
        max_length = _int_field(spec, "max_length", where, 8)
        stream = omega_stream(machine, max_length, offset, scale, label=label)
        if stream.direction is not direction:
            raise ConfigError(
                f"omega spec {spec} has scale of the wrong sign for a "
                f"{direction.value} stream"
            )
        plus = spec.get("plus")
        if plus is not None:
            if direction is not Direction.INCREASING:
                raise ConfigError("omega 'plus' only applies to increasing streams")
            _known_keys(_object(plus, "omega 'plus'"), ("limit", "rate"), "omega 'plus'")
            extra = make_constant_target(
                _rational_field(plus, "limit", "omega 'plus'"),
                Direction.INCREASING,
                _rational_field(plus, "rate", "omega 'plus'", "1/2"),
            )
            stream = translate_omega(stream, extra, label=label)
        return stream
    raise ConfigError(f"unknown stream kind {kind!r}")


def build_suite(specs: list[dict], view: EngineView) -> AdversarySuite:
    entries = []
    for n, spec in enumerate(specs):
        role = _object(spec, f"suite entry {n}").get("role")
        if role not in ("L", "R"):
            raise ConfigError(f"suite entry {n}: role must be 'L' or 'R'")
        index = _int_field(spec, "index", f"suite entry {n}")
        if index < 0:
            raise ConfigError(f"suite entry {n}: bad index {index!r}")
        direction = Direction.INCREASING if role == "L" else Direction.DECREASING
        stream = build_stream({k: v for k, v in spec.items() if k not in ("index", "role")},
                              direction, view, label=f"suite[{index}/{role}]")
        entries.append(SuiteEntry(index, role, stream))
    try:
        return AdversarySuite(entries)
    except ValueError as e:
        raise ConfigError(str(e)) from None


class Engine(NamedTuple):
    """An engine as the CLI drives it: the top-level stream specs its config
    needs, `build` from a RunConfig to its engine config, the engine class
    an engine config starts, and its verify and replay functions."""

    needs: tuple[str, ...]
    build: Callable[[RunConfig], object]
    engine: type[StageEngine]
    verify: Callable
    replay: Callable


def _build_expansion(rc: RunConfig) -> expansion.ExpansionConfig:
    return expansion.ExpansionConfig(
        alpha=build_stream(rc.alpha_spec, Direction.INCREASING, label="alpha"),
        eta=build_stream(rc.eta_spec, Direction.INCREASING, label="eta"),
        suite=lambda view: build_suite(rc.suite_specs, view),
        stages=rc.stages,
    )


def _build_injury(rc: RunConfig) -> injury.InjuryConfig:
    return injury.InjuryConfig(lambda view: build_suite(rc.suite_specs, view), rc.stages)


# engine name (a config's "engine", `celab run-<name>`, a trace header's
# "engine") -> Engine; a new engine registers here and nowhere else
ENGINES: dict[str, Engine] = {
    "lemma2": Engine(("alpha", "eta"), _build_expansion, expansion.ExpansionEngine,
                     expansion.verify_expansion, expansion.replay_expansion),
    "prop3": Engine((), _build_injury, injury.InjuryEngine,
                    injury.verify_injury, injury.replay_injury),
}
