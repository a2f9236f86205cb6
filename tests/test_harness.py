"""Episode loop, stages, and replay verification.

Lifecycle arithmetic (issue tick, duration, timeout precedence) is
checked by joining the disclosure trace against itself, so the loop is
audited through the same artifact external auditors would use.
"""

import numpy as np
import pytest

from driftworld.agents import make_agent
from driftworld.config import EpisodeConfig, RunConfig
from driftworld.errors import ConfigError, ContractViolation
from driftworld.harness import (
    ScriptedAgent,
    Slot,
    _ReplayScript,
    _summarize,
    law_bytes,
    oracle_calibration,
    replay_trace,
    run_episode,
    run_stage1,
    run_stage2,
)
from driftworld.metrics import AgentMetrics, MetricParams
from driftworld.rng import derive_world_seed
from driftworld.trace import flip_one_bit, read_trace
from driftworld.worldgen import DriftSchedule, GenSpec, generate_world


def small_config(**episode_kw):
    cfg = RunConfig()
    cfg.gen = GenSpec(seed=5, n_levels=2,
                      drift=DriftSchedule(regime_times=(25, 40)))
    cfg.episode.horizon = 60
    for key, value in episode_kw.items():
        setattr(cfg.episode, key, value)
    return cfg


def run_one(cfg, kind, live_path=None, disc_path=None):
    world = generate_world(cfg.gen)
    body = cfg.body()
    slot = Slot(agent_id=kind, agent=make_agent(kind, body, 2), body=body)
    result = run_episode(world, [slot], cfg.step, cfg.problem, cfg.score,
                         cfg.episode, live_path=live_path,
                         disclosure_path=disc_path)
    return world, result


# -------------------------------------------------------------- episode loop


def test_episode_deterministic():
    cfg = small_config()
    _, a = run_one(cfg, "greedy")
    _, b = run_one(cfg, "greedy")
    assert a.samples == b.samples
    assert a.cumulative == b.cumulative
    assert a.drift_marks == b.drift_marks
    assert [c["score"] for c in a.closures["greedy"]] \
        == [c["score"] for c in b.closures["greedy"]]


def test_every_agent_senses_and_acts_once_per_tick():
    cfg = small_config()
    _, result = run_one(cfg, "greedy")
    assert result.fairness_violations == 0
    assert result.final_tick == cfg.episode.horizon
    assert result.senses["greedy"] == cfg.episode.horizon
    assert result.acts["greedy"] == cfg.episode.horizon


def test_drift_marks_land_on_regime_times():
    cfg = small_config()
    world, result = run_one(cfg, "null")
    assert result.drift_marks == [25, 40]
    # The ground level never drifts; the upper level was resampled.
    fresh = generate_world(cfg.gen)
    assert law_bytes(world.laws[0]) == law_bytes(fresh.laws[0])
    assert law_bytes(world.laws[1]) != law_bytes(fresh.laws[1])


def test_problem_lifecycle_arithmetic(tmp_path):
    cfg = small_config()
    disc = str(tmp_path / "d.ndjson")
    run_one(cfg, "greedy", disc_path=disc)
    _, events = read_trace(disc)

    issued_at = {}
    for e in events:
        if e["kind"] == "problem_issued":
            assert e["problem"]["issued_tick"] == e["tick"]
            issued_at[e["problem"]["id"]] = e["tick"]

    closures = [e for e in events if e["kind"] == "problem_closed"]
    assert closures
    for c in closures:
        assert c["d_count"] == c["tick"] - issued_at[c["problem_id"]]
        assert c["o_count"] >= 1
        if c["reason"] == "solved":
            assert c["solved"]
        if c["reason"] == "timeout":
            assert not c["solved"]
            assert c["d_count"] == cfg.problem.timeout


def test_null_agent_times_out_on_schedule_and_scores_zero():
    cfg = small_config()
    cfg.gen = GenSpec(seed=5)  # no drift: pure timeout cadence
    cfg.episode.max_problems = 2
    _, result = run_one(cfg, "null")
    closures = result.closures["null"]
    assert len(closures) == 2
    assert [c["reason"] for c in closures] == ["timeout", "timeout"]
    assert [c["d_count"] for c in closures] == [cfg.problem.timeout] * 2
    assert [c["tick"] for c in closures] == [24, 48]
    assert result.cumulative["null"] == 0.0
    m = result.metrics("null", cfg.metric)
    assert m.index == 0.0


def test_problems_per_regime_resets_at_drift():
    cfg = small_config()
    cfg.gen = GenSpec(seed=5, n_levels=2, drift=DriftSchedule(regime_times=(20,)))
    cfg.problem.timeout = 30
    cfg.episode.problems_per_regime = 1
    _, result = run_one(cfg, "null")
    # One problem per regime: the second slot opens only because the
    # drift at tick 20 reset the segment budget.
    assert len(result.closures["null"]) == 2


def test_sample_cadence():
    cfg = small_config()
    cfg.gen = GenSpec(seed=5)
    cfg.episode.horizon = 35
    cfg.episode.sample_every = 10
    _, result = run_one(cfg, "null")
    assert [t for t, _ in result.samples["null"]] == [10, 20, 30, 35]


def test_unique_ids_and_disjoint_bodies_enforced():
    cfg = small_config()
    world = generate_world(cfg.gen)
    body = cfg.body()
    mk = lambda aid: Slot(agent_id=aid, agent=make_agent("null", body, 2), body=body)
    with pytest.raises(ConfigError):
        run_episode(world, [mk("x"), mk("x")], cfg.step, cfg.problem,
                    cfg.score, cfg.episode)
    with pytest.raises(ConfigError):
        run_episode(world, [mk("x"), mk("y")], cfg.step, cfg.problem,
                    cfg.score, cfg.episode)  # same body twice


def test_scripted_agent_requires_recorded_ticks():
    cfg = small_config()
    body = cfg.body()
    agent = ScriptedAgent(body, 2, _ReplayScript())
    with pytest.raises(ContractViolation):
        agent.act({"tick": 0, "grid": []})


# ------------------------------------------------------------------- stage 1


def test_stage1_report_shape_and_derived_seeds():
    cfg = small_config()
    cfg.agents = ("greedy", "null")
    cfg.n_worlds = 2
    report = run_stage1(cfg)
    assert report.stage == 1
    assert report.agent_ids == ["greedy", "null"]
    assert len(report.per_world) == 2
    for i, row in enumerate(report.per_world):
        assert row["seed"] == derive_world_seed(cfg.master_seed, i)
        assert set(row["agents"]) == {"greedy", "null"}
        for cell in row["agents"].values():
            assert {"metrics", "cumulative", "problems_closed",
                    "drift_marks"} <= set(cell)
    assert sorted(report.ranking) == ["greedy", "null"]
    assert set(report.wins) == {"greedy", "null"}
    assert set(report.wins["greedy"]) == {"null"}
    d = report.to_dict()
    assert d["stage"] == 1 and d["ranking"] == report.ranking
    assert d["lower_bound"] is True


def test_summary_means_ranks_and_counts_wins_over_worlds():
    def m(index, plateau=0.5):
        return AgentMetrics(acquisition=2.0, plateau=plateau, retention=1.0,
                            index=index, n_segments=3, n_marks=2)

    worlds = [{"a": m(0.1), "b": m(0.3)}, {"a": m(0.6), "b": m(0.2)},
              {"a": m(0.2), "b": m(0.2, plateau=0.7)}]
    means, ranking, wins = _summarize(["a", "b"], worlds)
    assert means["a"]["index"] == pytest.approx(0.3)
    assert means["b"]["plateau"] == pytest.approx(0.5 + 0.2 / 3)
    assert ranking == ["a", "b"]
    assert wins == {"a": {"b": 1}, "b": {"a": 1}}
    assert all(type(n) is int for row in wins.values() for n in row.values())

    # one world: the means are the metrics themselves, wins are 0 or 1
    means, ranking, wins = _summarize(["a", "b"], worlds[2:])
    assert means["b"] == {"acquisition": 2.0, "plateau": 0.7,
                          "retention": 1.0, "index": 0.2}
    assert ranking == ["b", "a"]
    assert wins == {"a": {"b": 0}, "b": {"a": 0}}


def test_stage1_refuses_oracle_and_duplicates():
    cfg = small_config()
    cfg.agents = ("oracle",)
    with pytest.raises(ContractViolation):
        run_stage1(cfg)
    cfg.agents = ("null", "null")
    with pytest.raises(ConfigError):
        run_stage1(cfg)


# ------------------------------------------------------------------- stage 2


def test_stage2_shared_world_disjoint_bodies():
    cfg = small_config()
    cfg.agents = ("greedy", "null")
    report = run_stage2(cfg)
    assert report.stage == 2
    assert report.agent_ids == ["a0_greedy", "a1_null"]
    row = report.per_world[0]
    assert row["fairness_violations"] == 0
    for cell in row["agents"].values():
        assert cell["senses"] == cfg.episode.horizon
        assert cell["acts"] == cfg.episode.horizon
    assert set(report.ranking) == {"a0_greedy", "a1_null"}
    assert report.wins["a0_greedy"]["a1_null"] in (0, 1)


def test_stage2_rejects_oversubscribed_world():
    cfg = small_config()
    cfg.agents = ("greedy", "random", "null")
    cfg.body_members = 8  # 24 members > 16 entities
    with pytest.raises(ConfigError):
        run_stage2(cfg)


def test_stage2_refuses_oracle():
    cfg = small_config()
    cfg.agents = ("greedy", "oracle")
    with pytest.raises(ContractViolation):
        run_stage2(cfg)


# -------------------------------------------------------------------- oracle


def test_oracle_calibration_solves_its_problems():
    cfg = small_config()
    out = oracle_calibration(cfg, n_problems=3)
    assert out["total"] == 3
    assert out["solved"] == 3
    for row in out["closures"]:
        assert {"tick", "problem_id", "solved", "reason", "o_count",
                "d_count", "distance", "score"} <= set(row)
        assert row["reason"] == "solved"


# -------------------------------------------------------------------- replay


def test_replay_verifies_and_detects_tampering(tmp_path):
    cfg = small_config()
    disc = str(tmp_path / "episode.ndjson")
    run_one(cfg, "greedy", disc_path=disc)

    verdict = replay_trace(disc)
    assert verdict["ok"] and verdict["verdict"] == "OK"
    assert verdict["first_divergence_line"] is None
    with open(disc, "r", encoding="utf-8") as fh:
        n_lines = len(fh.read().splitlines())
    assert verdict["lines_checked"] == n_lines

    # Flip one bit of one digit mid-file; the line stays valid JSON but
    # no longer matches what the regeneration produces.
    raw = open(disc, "rb").read()
    anchor = raw.index(b'"cumulative":', len(raw) // 2)
    offset = anchor + len(b'"cumulative":')
    while not chr(raw[offset]).isdigit():
        offset += 1
    flipped_line = raw[:offset].count(b"\n") + 1
    tampered = str(tmp_path / "tampered.ndjson")
    flip_one_bit(disc, tampered, offset, bit=0)

    verdict = replay_trace(tampered)
    assert not verdict["ok"] and verdict["verdict"] == "FAIL"
    assert verdict["first_divergence_line"] == flipped_line
    assert verdict["lines_checked"] == flipped_line


def test_replay_rejects_live_traces(tmp_path):
    cfg = small_config()
    live = str(tmp_path / "live.ndjson")
    run_one(cfg, "greedy", live_path=live)
    verdict = replay_trace(live)
    assert not verdict["ok"]
    assert "error" in verdict


def test_replay_keeps_regenerated_copy(tmp_path):
    cfg = small_config()
    cfg.episode.horizon = 30
    disc = str(tmp_path / "episode.ndjson")
    run_one(cfg, "null", disc_path=disc)
    kept = str(tmp_path / "regen.ndjson")
    verdict = replay_trace(disc, regenerated_path=kept)
    assert verdict["ok"]
    assert open(kept, "rb").read() == open(disc, "rb").read()


# ----------------------------------------------------------------- law bytes


def test_law_bytes_track_law_identity():
    world = generate_world(GenSpec(seed=5))
    clone = generate_world(GenSpec(seed=5))
    assert law_bytes(world.laws[0]) == law_bytes(clone.laws[0])
    other = generate_world(GenSpec(seed=6))
    assert law_bytes(world.laws[0]) != law_bytes(other.laws[0])
