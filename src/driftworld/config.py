"""Run configuration: the full parameter bundle and a small file format.

Config files are line oriented, `dotted.key = value`, with `#` comments.
Values are typed per key; lists are comma separated, `none` clears an
optional, and `auto` asks for the derived default.  Command-line
overrides use the same `key=value` grammar, so one parser serves both.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from .errors import ConfigError
from .interface import BodySpec
from .metrics import MetricParams
from .problems import ProblemParams, ScoreParams
from .dynamics import StepParams
from .worldgen import DriftSchedule, GenSpec

ENV_CONFIG = "DRIFTWORLD_CONFIG"


@dataclass
class EpisodeConfig:
    """Episode-loop shape: length, cadences, issuance limits."""

    horizon: int = 240
    snapshot_every: int = 100
    sample_every: int = 1
    problems_per_regime: int | None = None
    max_problems: int | None = None
    stop_after_problems: int | None = None
    budget_s: float = 0.05

    def validate(self) -> None:
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

    def to_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "snapshot_every": self.snapshot_every,
            "sample_every": self.sample_every,
            "problems_per_regime": self.problems_per_regime,
            "max_problems": self.max_problems,
            "stop_after_problems": self.stop_after_problems,
            "budget_s": self.budget_s,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EpisodeConfig":
        return cls(**{k: d[k] for k in cls().to_dict()})


def _default_gen() -> GenSpec:
    return GenSpec(seed=0, drift=DriftSchedule(regime_times=(80, 160)))


def _default_metric() -> MetricParams:
    return MetricParams(window_halfwidth=10, pre_window=40, post_window=40)


@dataclass
class RunConfig:
    """Everything a stage run needs, in one place."""

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

    def validate(self) -> None:
        self.gen.validate()
        self.step.validate()
        self.problem.validate()
        self.score.validate()
        self.metric.validate()
        self.episode.validate()
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

_INT, _FLOAT, _BOOL = "int", "float", "bool"
_INTS, _STRS = "ints", "strs"
_FLOAT2, _FLOAT3 = "float2", "float3"
_OPT_INT, _OPT_INTS, _OPT_FLOAT = "opt_int", "opt_ints", "opt_float"

_KEYS: dict[str, tuple[str, str]] = {
    "gen.seed": ("gen.seed", _INT),
    "gen.n_entities": ("gen.n_entities", _INT),
    "gen.dim": ("gen.dim", _INT),
    "gen.polarity_ratio": ("gen.polarity_ratio", _FLOAT),
    "gen.n_levels": ("gen.n_levels", _INT),
    "gen.arena_extent": ("gen.arena_extent", _FLOAT),
    "grammar.basis": ("gen.grammar.basis", _STRS),
    "grammar.max_terms": ("gen.grammar.max_terms", _INT),
    "grammar.coeff_range": ("gen.grammar.coeff_range", _FLOAT2),
    "grammar.polarity_coupling": ("gen.grammar.polarity_coupling", _BOOL),
    "grammar.damping_scale": ("gen.grammar.damping_scale", _FLOAT),
    "grammar.base_damping": ("gen.grammar.base_damping", _FLOAT),
    "drift.regime_times": ("gen.drift.regime_times", _INTS),
    "drift.smooth_rate": ("gen.drift.smooth_rate", _FLOAT),
    "drift.drift_levels": ("gen.drift.drift_levels", _OPT_INTS),
    "step.dt": ("step.dt", _FLOAT),
    "step.v_max": ("step.v_max", _FLOAT),
    "step.a_max": ("step.a_max", _FLOAT),
    "step.eps_r": ("step.eps_r", _FLOAT),
    "problem.scriptor_len": ("problem.scriptor_len", _INT),
    "problem.epsilon": ("problem.epsilon", _FLOAT),
    "problem.timeout": ("problem.timeout", _INT),
    "problem.impulse_floor": ("problem.impulse_floor", _FLOAT),
    "score.s_max": ("score.s_max", _FLOAT),
    "score.lam_model": ("score.lam_model", _FLOAT),
    "score.lam_compute": ("score.lam_compute", _FLOAT),
    "metric.window_halfwidth": ("metric.window_halfwidth", _INT),
    "metric.theta": ("metric.theta", _FLOAT),
    "metric.tail_frac": ("metric.tail_frac", _FLOAT),
    "metric.pre_window": ("metric.pre_window", _INT),
    "metric.post_window": ("metric.post_window", _INT),
    "metric.weights": ("metric.weights", _FLOAT3),
    "episode.horizon": ("episode.horizon", _INT),
    "episode.snapshot_every": ("episode.snapshot_every", _INT),
    "episode.sample_every": ("episode.sample_every", _INT),
    "episode.problems_per_regime": ("episode.problems_per_regime", _OPT_INT),
    "episode.max_problems": ("episode.max_problems", _OPT_INT),
    "episode.stop_after_problems": ("episode.stop_after_problems", _OPT_INT),
    "episode.budget_s": ("episode.budget_s", _FLOAT),
    "body.members": ("body_members", _INT),
    "body.resolution": ("resolution", _INT),
    "body.window_halfwidth": ("window_halfwidth", _OPT_FLOAT),
    "body.f_max": ("f_max", _FLOAT),
    "run.agents": ("agents", _STRS),
    "run.n_worlds": ("n_worlds", _INT),
    "run.master_seed": ("master_seed", _INT),
}


def _coerce(key: str, raw: str, kind: str):
    raw = raw.strip()
    lowered = raw.lower()
    try:
        if kind in (_OPT_INT, _OPT_INTS, _OPT_FLOAT) and lowered in ("none", "auto", ""):
            return None
        if kind == _INT or kind == _OPT_INT:
            return int(raw)
        if kind == _FLOAT or kind == _OPT_FLOAT:
            return float(raw)
        if kind == _BOOL:
            if lowered in ("true", "1", "yes", "on"):
                return True
            if lowered in ("false", "0", "no", "off"):
                return False
            raise ValueError(raw)
        parts = [p.strip() for p in raw.split(",") if p.strip() != ""]
        if kind == _INTS or kind == _OPT_INTS:
            return tuple(int(p) for p in parts)
        if kind == _STRS:
            return tuple(parts)
        if kind == _FLOAT2:
            if len(parts) != 2:
                raise ValueError("expected two numbers")
            return (float(parts[0]), float(parts[1]))
        if kind == _FLOAT3:
            if len(parts) != 3:
                raise ValueError("expected three numbers")
            return (float(parts[0]), float(parts[1]), float(parts[2]))
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from exc
    raise ConfigError(f"unhandled value type for {key}")


def _assign(cfg: RunConfig, dotted: str, value) -> None:
    target = cfg
    parts = dotted.split(".")
    for part in parts[:-1]:
        target = getattr(target, part)
    setattr(target, parts[-1], value)


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
    cfg = RunConfig()
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

    for key, raw in entries.items():
        dotted, kind = _KEYS[key]
        _assign(cfg, dotted, _coerce(key, raw, kind))

    cfg.validate()
    return cfg
