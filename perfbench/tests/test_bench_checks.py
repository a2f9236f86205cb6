"""Each benchmark check passes on clean traces and fails on a planted fault."""

import copy
import json
import os

import pytest

import checks
from driftworld import agents, config, harness, worldgen


@pytest.fixture(scope="module")
def episode(tmp_path_factory):
    """A short greedy episode; on seed 19 it solves problems, one of them self-solving."""
    tmp_path = tmp_path_factory.mktemp("episode")
    cfg = config.load_config(None, ["gen.seed=19", "episode.horizon=40",
                                    "drift.regime_times=10,20"])
    world = worldgen.generate_world(cfg.gen)
    body = cfg.body(0)
    slot = harness.Slot(agent_id="greedy", body=body,
                        agent=agents.make_agent("greedy", body, cfg.gen.dim))
    live, disc = str(tmp_path / "live.ndjson"), str(tmp_path / "disclosure.ndjson")
    harness.run_episode(world, [slot], cfg.step, cfg.problem, cfg.score, cfg.episode,
                        live_path=live, disclosure_path=disc)
    return cfg, world, live, disc


def _write(path, docs):
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


def _first(docs, kind, pred=lambda d: True):
    return next(d for d in docs if d["kind"] == kind and pred(d))


def test_clean_traces_pass_every_check(episode):
    cfg, world, live, disc = episode
    docs = checks.read_lines(disc)
    assert checks.check_scores(docs) == []
    assert checks.check_target_grids(docs, cfg.gen.n_entities) == []
    assert checks.check_fairness(docs) == []
    secrets = checks.disclosed_secrets(docs) + [repr(float(c)) for law in world.laws
                                                for _, c in law.terms]
    assert checks.check_live_secrecy(live, secrets) == []
    assert checks.check_parity(docs, docs) == []


def test_score_check_catches_a_wrong_score(episode):
    docs = copy.deepcopy(checks.read_lines(episode[3]))
    closed = _first(docs, "problem_closed", lambda d: d["score"] > 0)
    closed["score"] *= 1.0 + 1e-9
    assert checks.check_scores(docs)


def test_score_check_catches_a_wrong_cumulative(episode):
    docs = copy.deepcopy(checks.read_lines(episode[3]))
    end = _first(docs, "end")
    agent = next(iter(end["cumulative"]))
    end["cumulative"][agent] += 0.5
    assert checks.check_scores(docs)


def test_score_check_catches_a_wrong_null_baseline(episode):
    docs = copy.deepcopy(checks.read_lines(episode[3]))
    solved = _first(docs, "problem_closed", lambda d: d["solved"] and d["score"] > 0)
    issued = _first(docs, "problem_issued", lambda d: d["problem"]["id"] == solved["problem_id"])
    issued["problem"]["p_null"] = 1.0
    assert checks.check_scores(docs)


def test_grid_check_catches_a_lost_entity(episode):
    cfg, _, _, disc = episode
    docs = copy.deepcopy(checks.read_lines(disc))
    grid = _first(docs, "problem_issued")["problem"]["target_grid"]
    cell = next(c for row in grid for c in row if c[0] > 0)
    cell[0] -= 1.0
    assert checks.check_target_grids(docs, cfg.gen.n_entities)


def test_fairness_check_catches_a_missing_act(episode):
    docs = copy.deepcopy(checks.read_lines(episode[3]))
    docs.remove(_first(docs, "act"))
    assert checks.check_fairness(docs)


def test_fairness_check_catches_an_extra_sense(episode):
    docs = copy.deepcopy(checks.read_lines(episode[3]))
    docs.insert(2, dict(_first(docs, "sense")))
    assert checks.check_fairness(docs)


def test_secrecy_check_catches_a_forbidden_key(episode, tmp_path):
    live = checks.read_lines(episode[2])
    _first(live, "problem_issued")["problem"]["p_null"] = 0.0
    leaked = str(tmp_path / "leaked.ndjson")
    _write(leaked, live)
    assert checks.check_live_secrecy(leaked, [])


def test_secrecy_check_catches_a_secret_value(episode, tmp_path):
    _, world, live_path, disc = episode
    live = checks.read_lines(live_path)
    coeff = world.laws[0].terms[0][1]
    _first(live, "sample")["cumulative"] = coeff
    leaked = str(tmp_path / "leaked.ndjson")
    _write(leaked, live)
    assert checks.check_live_secrecy(leaked, [repr(float(coeff))])
    hidden = _first(checks.read_lines(disc), "problem_issued")["problem"]["hidden_actions"]
    _first(live, "sample")["cumulative"] = hidden[0][0][0]
    _write(leaked, live)
    assert checks.check_live_secrecy(leaked, checks.disclosed_secrets(checks.read_lines(disc)))


def test_replay_check_needs_ok_and_every_line(episode, tmp_path):
    disc = episode[3]
    verdict = harness.replay_trace(disc, str(tmp_path / "regen.ndjson"))
    assert checks.check_replay(verdict, disc) == []
    assert checks.check_replay(dict(verdict, lines_checked=verdict["lines_checked"] - 1), disc)
    assert checks.check_replay(dict(verdict, ok=False, verdict="FAIL"), disc)


def test_tamper_check_sees_a_flipped_bit_fail(episode, tmp_path):
    disc = episode[3]
    tampered = str(tmp_path / "tampered.ndjson")
    checks.flip_bit(disc, tampered, os.path.getsize(disc) // 2, 0)
    verdict = harness.replay_trace(tampered, str(tmp_path / "regen.ndjson"))
    assert checks.check_tamper_caught(verdict) == []
    assert checks.check_tamper_caught({"ok": True, "verdict": "OK"})


def test_parity_check_catches_a_changed_force(episode):
    docs = checks.read_lines(episode[3])
    other = copy.deepcopy(docs)
    _first(other, "act")["forces"][0][0] += 1e-12
    assert checks.check_parity(other, docs)
    other.remove(_first(other, "act"))
    assert checks.check_parity(other, docs)


def test_digest_check_catches_changed_bytes(episode, tmp_path):
    disc = episode[3]
    changed = str(tmp_path / "changed.ndjson")
    checks.flip_bit(disc, changed, 10, 3)
    same = {"trace": checks.sha256_file(disc)}
    assert checks.check_digests(same, same) == []
    assert checks.check_digests({"trace": checks.sha256_file(changed)}, same)
    assert checks.check_digests({}, same)
