"""Config file format, environment fallback, and override grammar."""

import pytest

from driftworld.config import (
    ENV_CONFIG,
    RunConfig,
    load_config,
    parse_config_text,
)
from driftworld.errors import ConfigError


def test_defaults_validate():
    cfg = RunConfig()
    cfg.validate()
    assert cfg.agents == ("greedy", "random", "null")
    assert cfg.gen.drift.regime_times == (80, 160)


def test_parse_text_key_values_and_comments():
    text = """
    # a comment line
    gen.seed = 42        # trailing comment
    grammar.basis = inv, damp

    episode.horizon=100
    """
    entries = parse_config_text(text)
    assert entries == {"gen.seed": "42", "grammar.basis": "inv, damp",
                       "episode.horizon": "100"}


def test_parse_text_rejects_unknown_keys_and_bad_lines():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("gen.sneed = 1")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words")


def test_load_config_from_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "gen.seed = 9\n"
        "gen.n_entities = 12\n"
        "grammar.coeff_range = -0.002, 0.002\n"
        "grammar.polarity_coupling = off\n"
        "drift.regime_times = 30, 60, 90\n"
        "metric.weights = 2, 1, 1\n"
        "body.window_halfwidth = auto\n"
        "run.agents = greedy, null\n"
    )
    cfg = load_config(str(path))
    assert cfg.gen.seed == 9
    assert cfg.gen.n_entities == 12
    assert cfg.gen.grammar.coeff_range == (-0.002, 0.002)
    assert cfg.gen.grammar.polarity_coupling is False
    assert cfg.gen.drift.regime_times == (30, 60, 90)
    assert cfg.metric.weights == (2.0, 1.0, 1.0)
    assert cfg.window_halfwidth is None
    assert cfg.agents == ("greedy", "null")


def test_env_var_names_the_default_file(tmp_path, monkeypatch):
    path = tmp_path / "env.cfg"
    path.write_text("gen.seed = 77\n")
    monkeypatch.setenv(ENV_CONFIG, str(path))
    assert load_config().gen.seed == 77
    monkeypatch.delenv(ENV_CONFIG)
    assert load_config().gen.seed == 0


def test_explicit_path_beats_env(tmp_path, monkeypatch):
    env_file = tmp_path / "env.cfg"
    env_file.write_text("gen.seed = 1\n")
    named = tmp_path / "named.cfg"
    named.write_text("gen.seed = 2\n")
    monkeypatch.setenv(ENV_CONFIG, str(env_file))
    assert load_config(str(named)).gen.seed == 2


def test_overrides_beat_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gen.seed = 5\nepisode.horizon = 100\n")
    cfg = load_config(str(path), overrides=["gen.seed=6", "step.dt = 0.5"])
    assert cfg.gen.seed == 6
    assert cfg.episode.horizon == 100
    assert cfg.step.dt == 0.5


def test_override_grammar_errors():
    with pytest.raises(ConfigError, match="key=value"):
        load_config(None, overrides=["gen.seed"])
    with pytest.raises(ConfigError, match="unknown key"):
        load_config(None, overrides=["gen.magic=1"])


def test_type_coercion_errors_name_the_key():
    with pytest.raises(ConfigError, match="gen.seed"):
        load_config(None, overrides=["gen.seed=twelve"])
    with pytest.raises(ConfigError, match="grammar.coeff_range"):
        load_config(None, overrides=["grammar.coeff_range=1"])
    with pytest.raises(ConfigError, match="metric.weights"):
        load_config(None, overrides=["metric.weights=1,2"])
    with pytest.raises(ConfigError, match="grammar.polarity_coupling"):
        load_config(None, overrides=["grammar.polarity_coupling=maybe"])


def test_optional_values_accept_none_and_numbers():
    cfg = load_config(None, overrides=["episode.max_problems=none"])
    assert cfg.episode.max_problems is None
    cfg = load_config(None, overrides=["episode.max_problems=3"])
    assert cfg.episode.max_problems == 3
    cfg = load_config(None, overrides=["drift.drift_levels=1"])
    assert cfg.gen.drift.drift_levels == (1,)
    cfg = load_config(None, overrides=["drift.drift_levels=none"])
    assert cfg.gen.drift.drift_levels is None


def test_loaded_config_is_validated(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("gen.n_entities = 0\n")
    with pytest.raises(ConfigError):
        load_config(str(path))
    with pytest.raises(ConfigError):
        load_config(None, overrides=["episode.horizon=0"])


def test_missing_file_is_an_error():
    with pytest.raises(ConfigError, match="cannot read"):
        load_config("/nonexistent/driftworld.cfg")


def test_body_helper_covers_arena_by_default():
    cfg = RunConfig()
    body = cfg.body()
    assert body.member_ids == (0, 1, 2, 3)
    assert body.window_halfwidth == cfg.gen.arena_extent
    body = cfg.body(first_id=8)
    assert body.member_ids == (8, 9, 10, 11)

    cfg.window_halfwidth = 3.5
    assert cfg.body().window_halfwidth == 3.5


def test_validate_catches_out_of_range_run_fields():
    for field, value in [("body_members", 0), ("resolution", 0),
                         ("f_max", 0.0), ("n_worlds", 0),
                         ("master_seed", -1), ("agents", ())]:
        cfg = RunConfig()
        setattr(cfg, field, value)
        with pytest.raises(ConfigError):
            cfg.validate()


def test_every_parameter_field_has_a_config_key():
    from dataclasses import fields

    from driftworld.config import _KEYS, EpisodeConfig
    from driftworld.dynamics import StepParams
    from driftworld.metrics import MetricParams
    from driftworld.problems import ProblemParams, ScoreParams
    from driftworld.worldgen import CausationGrammar, DriftSchedule, GenSpec

    targets = {dotted for dotted, _ in _KEYS.values()}
    owners = [("step", StepParams), ("problem", ProblemParams),
              ("score", ScoreParams), ("episode", EpisodeConfig),
              ("metric", MetricParams), ("gen", GenSpec),
              ("gen.grammar", CausationGrammar), ("gen.drift", DriftSchedule)]
    covered = targets | {prefix for prefix, _ in owners}  # nested specs
    missing = [f"{prefix}.{f.name}" for prefix, cls in owners
               for f in fields(cls) if f"{prefix}.{f.name}" not in covered]
    assert missing == []


def test_impulse_floor_is_settable():
    cfg = load_config(None, ["problem.impulse_floor=0.2"])
    assert cfg.problem.impulse_floor == 0.2
