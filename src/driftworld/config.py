"""Run configuration: the full parameter bundle and a small file format.

Config files are line oriented, `dotted.key = value`, with `#` comments.
The parameter classes are the only schema: each key is the dotted path
below RunConfig of the dataclass field it sets (`_RENAMED` shortens a
few), and the field's annotation is the value's type: lists are comma
separated, `none` clears an optional, and `auto` asks for the derived
default.  Command-line overrides use the same `key=value` grammar, so
one parser serves both.  Every parameter set checks itself when it is
built and is frozen, so a config that exists is a valid one.
"""

from __future__ import annotations

import dataclasses
import os
import typing
from dataclasses import dataclass, field

from .canon import from_doc, to_doc
from .errors import ConfigError
from .interface import BodySpec
from .metrics import MetricParams
from .problems import ProblemParams, ScoreParams
from .dynamics import StepParams
from .worldgen import DriftSchedule, GenSpec

ENV_CONFIG = "DRIFTWORLD_CONFIG"


@dataclass(frozen=True)
class EpisodeConfig:
    """Episode-loop shape: length, cadences, issuance limits."""

    horizon: int = 240
    snapshot_every: int = 100
    sample_every: int = 1
    problems_per_regime: int | None = None
    max_problems: int | None = None
    stop_after_problems: int | None = None
    budget_s: float = 0.05

    def __post_init__(self):
        if self.horizon < 1:
            raise ConfigError("horizon must be >= 1")
        if self.snapshot_every < 1:
            raise ConfigError("snapshot_every must be >= 1")
        if self.sample_every < 1:
            raise ConfigError("sample_every must be >= 1")
        for name in ("problems_per_regime", "max_problems", "stop_after_problems"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ConfigError(f"{name} must be >= 1 when set")
        if self.budget_s <= 0:
            raise ConfigError("budget_s must be > 0")


def _default_gen() -> GenSpec:
    return GenSpec(seed=0, drift=DriftSchedule(regime_times=(80, 160)))


def _default_metric() -> MetricParams:
    return MetricParams(window_halfwidth=10, pre_window=40, post_window=40)


@dataclass(frozen=True)
class RunConfig:
    """Everything a stage run needs, in one place.  The nested parameter
    sets checked themselves when they were built."""

    gen: GenSpec = field(default_factory=_default_gen)
    step: StepParams = field(default_factory=StepParams)
    problem: ProblemParams = field(default_factory=ProblemParams)
    score: ScoreParams = field(default_factory=ScoreParams)
    metric: MetricParams = field(default_factory=_default_metric)
    episode: EpisodeConfig = field(default_factory=EpisodeConfig)
    body_members: int = 4
    resolution: int = 16
    window_halfwidth: float | None = None  # None: cover the whole arena
    f_max: float = 4.0
    agents: tuple[str, ...] = ("greedy", "random", "null")
    n_worlds: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if self.body_members < 1:
            raise ConfigError("body.members must be >= 1")
        if self.resolution < 1:
            raise ConfigError("body.resolution must be >= 1")
        if self.window_halfwidth is not None and self.window_halfwidth <= 0:
            raise ConfigError("body.window_halfwidth must be > 0 or auto")
        if self.f_max <= 0:
            raise ConfigError("body.f_max must be > 0")
        if not self.agents:
            raise ConfigError("run.agents must name at least one agent")
        if self.n_worlds < 1:
            raise ConfigError("run.n_worlds must be >= 1")
        if not 0 <= self.master_seed < 1 << 64:
            raise ConfigError("run.master_seed must be a 64-bit unsigned integer")

    def body(self, first_id: int = 0) -> BodySpec:
        """A body of the configured size starting at the given entity id."""
        half = self.window_halfwidth
        if half is None:
            half = self.gen.arena_extent
        return BodySpec(
            member_ids=tuple(range(first_id, first_id + self.body_members)),
            resolution=self.resolution,
            window_halfwidth=half,
            f_max=self.f_max,
        )


# -- key table -------------------------------------------------------------

#: The only hand-written part of the key table.  Every other key is its
#: field's dotted path below RunConfig.
_RENAMED = {
    "gen.grammar": "grammar",
    "gen.drift": "drift",
    "body_members": "body.members",
    "resolution": "body.resolution",
    "window_halfwidth": "body.window_halfwidth",
    "f_max": "body.f_max",
    "agents": "run.agents",
    "n_worlds": "run.n_worlds",
    "master_seed": "run.master_seed",
}


def _walk(cls, path: str = "", key: str = ""):
    """(key, dotted field path, annotation) of every leaf field below a
    dataclass, recursing into nested dataclasses."""
    hints = typing.get_type_hints(cls)
    for f in dataclasses.fields(cls):
        sub_path = path + f.name
        sub_key = _RENAMED.get(sub_path, key + f.name)
        tp = hints[f.name]
        if dataclasses.is_dataclass(tp):
            yield from _walk(tp, sub_path + ".", sub_key + ".")
        else:
            yield sub_key, sub_path, tp


_LEAVES = list(_walk(RunConfig))
_KEYS: dict[str, str] = {key: path for key, path, _ in _LEAVES}
_TYPES: dict[str, object] = {key: tp for key, _, tp in _LEAVES}

_TRUE = ("true", "1", "yes", "on")
_FALSE = ("false", "0", "no", "off")


def _parse(tp, raw: str):
    """One value of the file grammar, typed by a field annotation."""
    lowered = raw.lower()
    args = typing.get_args(tp)
    if type(None) in args:
        if lowered in ("none", "auto", ""):
            return None
        (tp,) = [a for a in args if a is not type(None)]
        args = typing.get_args(tp)
    if typing.get_origin(tp) is tuple:
        parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
        if args[-1] is Ellipsis:
            return tuple(_parse(args[0], p) for p in parts)
        if len(parts) != len(args):
            raise ValueError(f"expected {len(args)} values")
        return tuple(_parse(a, p) for a, p in zip(args, parts))
    if tp is bool:
        if lowered in _TRUE:
            return True
        if lowered in _FALSE:
            return False
        raise ValueError(raw)
    if tp in (int, float, str):
        return tp(raw)
    raise TypeError(f"no config grammar for {tp!r}")


def _coerce(key: str, raw: str):
    raw = raw.strip()
    try:
        return _parse(_TYPES[key], raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc


def parse_config_text(text: str, source: str = "<config>") -> dict:
    """Parse config lines into {key: raw value string}."""
    out: dict[str, str] = {}
    for n, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{n}: expected 'key = value'")
        key, raw = line.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"{source}:{n}: unknown key {key!r}")
        out[key] = raw.strip()
    return out


def load_config(path: str | None = None,
                overrides: list[str] | None = None) -> RunConfig:
    """Build a RunConfig from defaults, an optional file, then overrides.

    The file defaults to $DRIFTWORLD_CONFIG when unset; overrides are
    `key=value` strings with the same keys as the file format.
    """
    entries: dict[str, str] = {}

    if path is None:
        path = os.environ.get(ENV_CONFIG)
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        entries.update(parse_config_text(text, source=path))

    for item in overrides or []:
        if "=" not in item:
            raise ConfigError(f"override must be key=value, got {item!r}")
        key, raw = item.split("=", 1)
        key = key.strip()
        if key not in _KEYS:
            raise ConfigError(f"unknown key {key!r}")
        entries[key] = raw.strip()

    doc = to_doc(RunConfig())
    for key, raw in entries.items():
        *parents, leaf = _KEYS[key].split(".")
        target = doc
        for part in parents:
            target = target[part]
        target[leaf] = _coerce(key, raw)
    return from_doc(RunConfig, doc)
