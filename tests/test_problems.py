import math
from dataclasses import replace

import numpy as np
import pytest

from driftworld.canon import canonical_dumps, to_doc
from driftworld.config import RunConfig
from driftworld.dynamics import StepParams, step
from driftworld.errors import ConfigError, ContractViolation
from driftworld.interface import BodySpec, forces_to_accel, sense
from driftworld.problems import (
    Problem,
    ProblemParams,
    check_solved,
    generate_problem,
    hit_score,
    normalized_score,
    null_baseline,
)
from driftworld.trace import live_view
from driftworld.worldgen import generate_world

from conftest import flat_quiet_spec


def fresh(seed=5, n=8):
    world = generate_world(flat_quiet_spec(seed, n_entities=n))
    body = BodySpec(member_ids=(0, 1, 2), resolution=16, window_halfwidth=8.0)
    return world, body


def test_problem_generation_is_deterministic():
    params = ProblemParams()
    sp = StepParams()
    a_world, body = fresh()
    b_world, _ = fresh()
    pa = generate_problem([a_world], [body], params, sp, [0], ["problems"])[0]
    pb = generate_problem([b_world], [body], params, sp, [0], ["problems"])[0]
    assert np.array_equal(pa.hidden_actions, pb.hidden_actions)
    assert np.array_equal(pa.target_grid, pb.target_grid)


def test_problem_consumes_world_stream():
    # Back-to-back problems from one world must differ: the stream moves.
    params = ProblemParams()
    sp = StepParams()
    world, body = fresh()
    p0 = generate_problem([world], [body], params, sp, [0], ["problems"])[0]
    p1 = generate_problem([world], [body], params, sp, [0], ["problems"])[0]
    assert not np.array_equal(p0.hidden_actions, p1.hidden_actions)


def test_script_shape_and_common_mode():
    params = ProblemParams(scriptor_len=5)
    world, body = fresh()
    p = generate_problem([world], [body], params, StepParams(), [0], ["problems"])[0]
    assert p.hidden_actions.shape == (5, 3, 2)
    for t in range(5):
        rows = p.hidden_actions[t]
        assert np.array_equal(rows, np.tile(rows[0], (3, 1)))
        assert np.linalg.norm(rows[0]) <= body.f_max + 1e-12


def test_script_net_impulse_floor():
    params = ProblemParams(impulse_floor=0.5)
    sp = StepParams()
    world, body = fresh()
    for _ in range(12):
        p = generate_problem([world], [body], params, sp, [world.tick], ["problems"])[0]
        net = np.linalg.norm(p.hidden_actions[:, 0, :].sum(axis=0))
        assert net >= 0.5 * body.f_max - 1e-9


def _strip_stream(doc_json):
    import json

    doc = json.loads(doc_json)
    doc["rng"]["streams"].pop("problems", None)
    return canonical_dumps(doc)


def test_generation_leaves_live_world_alone():
    # Positions and laws untouched; only the problems stream may advance.
    world, body = fresh()
    before = canonical_dumps(world.to_canonical())
    generate_problem([world], [body], ProblemParams(), StepParams(), [0], ["problems"])
    after = canonical_dumps(world.to_canonical())
    assert _strip_stream(before) == _strip_stream(after)


def test_target_matches_ghost_rollout():
    # The published goal is exactly the scriptor's end state as sensed.
    world, body = fresh(seed=9)
    sp = StepParams()
    p = generate_problem([world], [body], ProblemParams(), sp, [0], ["problems"])[0]
    ghost = world.clone()
    for t in range(p.scriptor_len):
        acc = forces_to_accel([ghost], [body], [p.hidden_actions[t]])[0]
        step([ghost], sp, external_accel=[acc])
    assert np.array_equal(sense([ghost], [body])[0].grid, p.target_grid)


def test_reference_costs_default_to_script_length():
    world, body = fresh()
    p = generate_problem([world], [body], ProblemParams(scriptor_len=4), StepParams(), [0],
                         ["problems"])[0]
    assert p.o_ref == 4
    assert p.d_ref == 4


def test_check_solved_threshold_inclusive():
    grid = np.zeros((2, 2, 2))
    problem = Problem(id=0, issued_tick=0, target_grid=grid.copy(),
                      scriptor_len=1, epsilon=0.5, timeout=5, o_ref=1, d_ref=1,
                      hidden_actions=np.zeros((1, 1, 2)))
    from driftworld.interface import SenseGrid

    near = grid.copy()
    near[0, 0, 0] = np.sqrt(8) * 0.5  # distance exactly epsilon
    reading = SenseGrid(tick=0, centroid=np.zeros(2), grid=near)
    solved, dist = check_solved(reading, problem)
    assert dist == pytest.approx(0.5)
    assert solved

    far = grid.copy()
    far[0, 0, 0] = 3.0
    solved, _ = check_solved(SenseGrid(tick=0, centroid=np.zeros(2), grid=far), problem)
    assert not solved


def test_public_payload_hides_secrets():
    world, body = fresh()
    p = generate_problem([world], [body], ProblemParams(), StepParams(), [3], ["problems"])[0]
    pub = live_view({"kind": "problem_issued",
                     "problem": to_doc(p)})["problem"]
    assert set(pub) == {"id", "issued_tick", "target_grid", "epsilon", "timeout"}
    disc = to_doc(p)
    assert "hidden_actions" in disc and "scriptor_len" in disc


def test_problem_repr_never_leaks_script():
    world, body = fresh()
    p = generate_problem([world], [body], ProblemParams(), StepParams(), [0], ["problems"])[0]
    text = repr(p)
    for value in p.hidden_actions.ravel()[:4]:
        assert repr(float(value)) not in text


def test_null_baseline_binary():
    world, body = fresh(seed=12)
    p = generate_problem([world], [body], ProblemParams(), StepParams(), [0], ["problems"])[0]
    assert null_baseline(world, body, p, StepParams()) in (0.0, 1.0)


def test_null_baseline_trivial_problem_scores_zero():
    # A target equal to the current reading solves itself: p_null 1,
    # so a hit is worth nothing.
    world, body = fresh(seed=2)
    reading = sense([world], [body])[0]
    problem = Problem(id=7, issued_tick=0, target_grid=reading.grid.copy(),
                      scriptor_len=1, epsilon=0.2, timeout=4, o_ref=1, d_ref=1,
                      hidden_actions=np.zeros((1, 3, 2)))
    frac = null_baseline(world, body, problem, StepParams())
    assert frac == 1.0
    assert hit_score(True, 1, 1, 1, 1, p_null=frac) == 0.0


def _one_body_null(world, body, problem, step_params):
    """Reference: a zero-action rollout written out step by step."""
    ghost = world.clone()
    for _ in range(problem.timeout):
        step([ghost], step_params)
        if check_solved(sense([ghost], [body])[0], problem)[0]:
            return 1.0
    return 0.0


def _idle_target(world, body, ticks, problem_id, timeout):
    """A problem whose target is the idle world's reading after `ticks` steps."""
    ghost = world.clone()
    for _ in range(ticks):
        step([ghost], StepParams())
    return Problem(id=problem_id, issued_tick=world.tick,
                   target_grid=sense([ghost], [body])[0].grid, scriptor_len=1,
                   epsilon=0.01, timeout=timeout, o_ref=1, d_ref=1,
                   hidden_actions=np.zeros((1, len(body.member_ids), 2)))


def _count_steps(monkeypatch) -> list:
    steps = []
    monkeypatch.setattr("driftworld.problems.step",
                        lambda ws, params: steps.extend(w.tick for w in ws) or step(ws, params))
    return steps


def test_null_baseline_matches_a_reference_rollout_per_body():
    world = generate_world(flat_quiet_spec(9, n_entities=12))
    sp = StepParams()
    bodies = [BodySpec(member_ids=ids, resolution=16, window_halfwidth=8.0)
              for ids in ((0, 1, 2), (3, 4, 5), (6, 7), (8, 9, 10, 11))]
    issued = [
        (bodies[0], generate_problem([world], [bodies[0]], ProblemParams(), sp, [0],
                                     ["problems.0"])[0]),
        (bodies[1], _idle_target(world, bodies[1], 2, 1, timeout=6)),  # solves early
        (bodies[2], _idle_target(world, bodies[2], 6, 2, timeout=6)),  # on its last step
        (bodies[3], _idle_target(world, bodies[3], 5, 3, timeout=4)),  # too late
    ]
    expected = [_one_body_null(world, b, p, sp) for b, p in issued]
    assert expected == [0.0, 1.0, 1.0, 0.0]
    body, last_step = issued[2]
    assert _one_body_null(world, body, replace(last_step, timeout=5), sp) == 0.0
    before = world.to_canonical()
    # any order, any number of times: the issue-time world is never moved
    for b, p in issued[::-1] + issued:
        assert null_baseline(world, b, p, sp) == _one_body_null(world, b, p, sp)
    assert world.to_canonical() == before


def test_null_baseline_stops_at_the_first_solve(monkeypatch):
    world = generate_world(flat_quiet_spec(9, n_entities=12))
    body = BodySpec(member_ids=(0, 1, 2), resolution=16, window_halfwidth=8.0)
    for ticks in (1, 3):
        problem = _idle_target(world, body, ticks, 0, timeout=24)
        steps = _count_steps(monkeypatch)
        assert null_baseline(world, body, problem, StepParams()) == 1.0
        assert 1 <= len(steps) <= ticks


def test_null_baseline_rolls_at_most_timeout_steps(monkeypatch):
    world = generate_world(flat_quiet_spec(9, n_entities=12))
    body = BodySpec(member_ids=(8, 9, 10, 11), resolution=16, window_halfwidth=8.0)
    late = _idle_target(world, body, 5, 0, timeout=4)
    steps = _count_steps(monkeypatch)
    assert null_baseline(world, body, late, StepParams()) == 0.0
    assert len(steps) == late.timeout
    assert world.tick == 0


def test_hit_score_formula_oracle():
    for o, d, p_null in ((0, 0, 0.0), (3, 7, 0.25), (10, 2, 0.5)):
        got = hit_score(True, o, d, o_ref=4, d_ref=4, p_null=p_null, s_max=2.0)
        want = 2.0 * (1.0 - p_null) * math.exp(-0.5 * (o / 4 + d / 4))
        assert got == pytest.approx(want)


def test_hit_score_miss_is_zero():
    # an unsolved problem has no null baseline, and it is never looked at
    for p_null in (0.0, 1.0, None, 1.5):
        assert hit_score(False, 0, 0, 1, 1, p_null=p_null) == 0.0


def test_hit_score_monotone_decreasing_in_effort():
    scores_o = [hit_score(True, o, 0, 4, 4, 0.0) for o in range(51)]
    scores_d = [hit_score(True, 0, d, 4, 4, 0.0) for d in range(51)]
    assert all(a > b for a, b in zip(scores_o, scores_o[1:]))
    assert all(a > b for a, b in zip(scores_d, scores_d[1:]))
    assert all(0.0 <= s <= 1.0 for s in scores_o + scores_d)


def test_hit_score_validation():
    with pytest.raises(ContractViolation):
        hit_score(True, 0, 0, 0, 1, 0.0)
    with pytest.raises(ContractViolation):
        hit_score(True, 0, 0, 1, 1, 1.5)
    with pytest.raises(ContractViolation, match="p_null"):
        hit_score(True, 0, 0, 1, 1, None)


def test_normalized_score_identity_when_lambda_zero():
    assert normalized_score(0.8, 1000, 1000) == 0.8


def test_normalized_score_discounts():
    raw = 1.0
    out = normalized_score(raw, model_size=math.e - 1, update_count=0,
                           lam_model=1.0)
    assert out == pytest.approx(raw / 2.0)
    with pytest.raises(ContractViolation):
        normalized_score(1.0, -1, 0)


def test_problem_params_validation():
    with pytest.raises(ConfigError):
        ProblemParams(scriptor_len=0)
    with pytest.raises(ConfigError):
        ProblemParams(epsilon=-0.1)
    with pytest.raises(ConfigError):
        ProblemParams(timeout=0)
    ProblemParams()


def test_deadline_counts_from_issue_tick():
    world, body = fresh()
    sp = StepParams()
    for _ in range(3):
        step([world], sp)
    p = generate_problem([world], [body], ProblemParams(timeout=6), sp, [10], ["problems"])[0]
    assert p.id == 10
    assert p.issued_tick == 3
    assert p.deadline() == 9
