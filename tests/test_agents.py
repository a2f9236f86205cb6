"""Reference agent behavior: mechanics first, one end-to-end pin each.

Greedy's probe and pursue logic is exercised with hand-built grids so
each branch (read, decide, stall, brake) is hit on a known tick.
"""

import numpy as np
import pytest

from driftworld.agents import (
    AGENT_KINDS,
    BaseAgent,
    GreedyAgent,
    NullAgent,
    OracleAgent,
    RandomAgent,
    make_agent,
)
from driftworld.canon import to_doc
from driftworld.config import RunConfig
from driftworld.dynamics import step
from driftworld.errors import ConfigError, ContractViolation
from driftworld.interface import forces_to_accel, grid_distance, sense, validate_forces
from driftworld.problems import check_solved, generate_problem
from driftworld.rng import make_stream
from driftworld.trace import live_view
from driftworld.worldgen import GenSpec, generate_world

from conftest import flat_quiet_spec

GRID_CELLS = 2 * 16 * 16  # two channels at the test body's resolution


def public_problem(problem):
    """The problem as an agent receives it: its live-tier view."""
    issued = {"kind": "problem_issued", "problem": to_doc(problem)}
    return live_view(issued)["problem"]


def obs(grid, tick=0):
    return {"grid": np.asarray(grid, dtype=np.float64), "tick": tick}


def flat_grid(rms):
    """A grid whose distance to an all-zero target is exactly rms."""
    return np.full(GRID_CELLS, rms)


# ----------------------------------------------------------- null and random


def test_null_agent_never_pushes(body):
    agent = NullAgent(body)
    forces = agent.act(obs(flat_grid(0.3)))
    assert forces.shape == (4, 2)
    assert np.all(forces == 0.0)
    assert agent.resources() == {"model_size": 0, "updates": 0}
    assert agent.reportable


def test_random_agent_deterministic_per_stream(body):
    a = RandomAgent(body, make_stream(11, "agent"))
    b = RandomAgent(body, make_stream(11, "agent"))
    for _ in range(20):
        assert np.array_equal(a.act(obs(flat_grid(0.1))), b.act(obs(flat_grid(0.1))))
    c = RandomAgent(body, make_stream(12, "agent"))
    assert not np.array_equal(a.act(obs(flat_grid(0.1))), c.act(obs(flat_grid(0.1))))


def test_random_agent_forces_admissible(body):
    agent = RandomAgent(body, make_stream(5, "agent"))
    for _ in range(200):
        forces = agent.act(obs(flat_grid(0.1)))
        norms = np.linalg.norm(forces, axis=1)
        assert np.all(norms <= body.f_max + 1e-12)


# ------------------------------------------------------------------- factory


def test_make_agent_kinds(body):
    stream = make_stream(1, "agent")
    for kind, cls in AGENT_KINDS.items():
        agent = make_agent(kind, body, stream=stream)
        assert isinstance(agent, cls)
        assert agent.kind == kind
    assert not make_agent("oracle", body).reportable
    assert make_agent("greedy", body).reportable


def test_make_agent_rejects_unknown_kind(body):
    with pytest.raises(ConfigError):
        make_agent("psychic", body)


def test_make_agent_random_needs_stream(body):
    with pytest.raises(ConfigError):
        make_agent("random", body)


def test_make_agent_refuses_dims_other_than_two(body):
    for dim in (1, 3):
        with pytest.raises(ConfigError, match="dim must be 2"):
            make_agent("greedy", body, dim)
    assert make_agent("greedy", body, 2).act(obs(flat_grid(0.0))).shape == (4, 2)


def test_base_agent_guards(body):
    with pytest.raises(NotImplementedError):
        BaseAgent(body).act(obs(flat_grid(0.0)))


# -------------------------------------------------------------------- greedy


def test_greedy_idle_without_problem(body):
    agent = GreedyAgent(body)
    assert np.all(agent.act(obs(flat_grid(0.5))) == 0.0)
    agent.on_problem({"target_grid": flat_grid(0.0).tolist()})
    assert np.any(agent.act(obs(flat_grid(0.5))) != 0.0)
    agent.on_problem_closed({"problem_id": 0, "solved": False})
    assert np.all(agent.act(obs(flat_grid(0.5))) == 0.0)


def test_greedy_probe_sequence(body):
    # Static grid: probe +x, return -x, probe +y, return -y, all common
    # mode at half authority.
    agent = GreedyAgent(body)
    agent.on_problem({"target_grid": np.zeros(GRID_CELLS).tolist()})
    half = 0.5 * body.f_max
    expected = [(half, 0.0), (-half, 0.0), (0.0, half), (0.0, -half)]
    for ex, ey in expected:
        forces = agent.act(obs(flat_grid(0.3)))
        assert np.all(forces == forces[0])
        assert forces[0] == pytest.approx((ex, ey))


def test_greedy_probe_lengthens_when_grid_is_unresponsive(body):
    # A grid that never reacts drives the gradient below the margin, so
    # the decide step escalates to two-tick pushes: +x, +x, read, back.
    agent = GreedyAgent(body)
    agent.on_problem({"target_grid": np.zeros(GRID_CELLS).tolist()})
    for _ in range(4):
        agent.act(obs(flat_grid(0.3)))
    half = 0.5 * body.f_max
    fifth = agent.act(obs(flat_grid(0.3)))
    sixth = agent.act(obs(flat_grid(0.3)))
    assert fifth[0] == pytest.approx((half, 0.0))
    assert sixth[0] == pytest.approx((half, 0.0))


def test_greedy_probe_net_impulse_zero(body):
    # Probing must not walk the body: cumulative impulse returns to zero
    # after every out-and-back pass and stays bounded in between.
    agent = GreedyAgent(body)
    agent.on_problem({"target_grid": np.zeros(GRID_CELLS).tolist()})
    cumulative = np.zeros(2)
    zero_hits = 0
    bound = GreedyAgent.MAX_PROBE_LEN * 0.5 * body.f_max + 1e-9
    for _ in range(40):
        forces = agent.act(obs(flat_grid(0.3)))
        cumulative += forces[0]
        assert np.all(np.abs(cumulative) <= bound)
        if np.all(np.abs(cumulative) < 1e-12):
            zero_hits += 1
    assert zero_hits >= 5


def test_greedy_descends_the_probed_gradient(body):
    agent = GreedyAgent(body)
    agent.on_problem({"target_grid": np.zeros(GRID_CELLS).tolist()})
    agent.act(obs(flat_grid(0.3)))   # mark x at 0.3, push +x
    agent.act(obs(flat_grid(0.4)))   # read x: +0.1, push back
    agent.act(obs(flat_grid(0.3)))   # mark y at 0.3, push +y
    agent.act(obs(flat_grid(0.2)))   # read y: -0.1, push back
    forces = agent.act(obs(flat_grid(0.3)))  # decide
    unit = np.array([-1.0, 1.0]) / np.sqrt(2.0)
    assert forces[0] == pytest.approx(unit * body.f_max)
    assert np.all(forces == forces[0])


def pursuing_agent(body):
    """A greedy agent mid-pursuit along (-1, +1)/sqrt(2), best_d 0.3."""
    agent = GreedyAgent(body)
    agent.on_problem({"target_grid": np.zeros(GRID_CELLS).tolist()})
    for rms in (0.3, 0.4, 0.3, 0.2, 0.3):
        agent.act(obs(flat_grid(rms)))
    return agent


def test_greedy_keeps_pursuing_while_improving(body):
    agent = pursuing_agent(body)
    d = 0.3
    for _ in range(6):
        d -= 0.02
        forces = agent.act(obs(flat_grid(d)))
        assert np.linalg.norm(forces[0]) == pytest.approx(body.f_max)


def test_greedy_brakes_after_repeated_stalls(body):
    agent = pursuing_agent(body)
    for _ in range(GreedyAgent.MAX_BAD - 1):
        assert np.any(agent.act(obs(flat_grid(0.3))) != 0.0)
    braked = agent.act(obs(flat_grid(0.3)))
    assert np.all(braked == 0.0)
    after = agent.act(obs(flat_grid(0.3)))
    assert after[0] == pytest.approx((0.5 * body.f_max, 0.0))


def test_greedy_new_problem_resets_probe_length(body):
    agent = GreedyAgent(body)
    agent.on_problem({"target_grid": np.zeros(GRID_CELLS).tolist()})
    for _ in range(5):
        agent.act(obs(flat_grid(0.3)))
    assert agent.probe_len > 1
    agent.on_problem_closed({"problem_id": 0, "solved": False})
    agent.on_problem({"target_grid": np.zeros(GRID_CELLS).tolist()})
    assert agent.probe_len == 1


def test_greedy_noise_floor_learning(body):
    # Resting on a frozen grid: ambient churn reads as zero and the
    # floor decays, but the margin never drops below its hard floor.
    agent = GreedyAgent(body)
    for t in range(5):
        agent.act(obs(flat_grid(0.2), tick=t))
    assert agent.updates == 3
    assert agent.noise == pytest.approx(0.005 * 0.9**3)
    assert agent.margin == GreedyAgent.MARGIN_FLOOR

    before = agent.noise
    agent.act(obs(np.zeros(GRID_CELLS)))  # still resting, big grid jump
    assert agent.noise > before
    assert agent.margin == agent.noise


def test_greedy_deterministic(body):
    rng = np.random.default_rng(42)
    grids = rng.uniform(0.0, 1.0, size=(30, GRID_CELLS))
    target = rng.uniform(0.0, 1.0, size=GRID_CELLS)
    a = GreedyAgent(body)
    b = GreedyAgent(body)
    for agent in (a, b):
        agent.on_problem({"target_grid": target.tolist()})
    for t in range(30):
        fa = a.act(obs(grids[t], tick=t))
        fb = b.act(obs(grids[t], tick=t))
        assert np.array_equal(fa, fb)
    assert a.noise == b.noise and a.updates == b.updates


def test_greedy_resources(body):
    agent = GreedyAgent(body)
    res = agent.resources()
    assert res == {"model_size": 1, "updates": 0}
    for t in range(4):
        agent.act(obs(flat_grid(0.1), tick=t))
    assert agent.resources()["updates"] > 0


def test_greedy_solves_a_fresh_problem_cold():
    # End-to-end pin: a default world whose first posed problem starts
    # outside tolerance and is closed by a cold-started greedy agent.
    cfg = RunConfig()
    body = cfg.body()
    world = generate_world(GenSpec(seed=12))
    agent = GreedyAgent(body)
    problem = generate_problem([world], [body], cfg.problem, cfg.step, [0], ["problems"])[0]

    d0 = grid_distance(sense([world], [body])[0].grid, np.asarray(problem.target_grid))
    assert d0 > cfg.problem.epsilon

    agent.on_problem(public_problem(problem))
    for _ in range(cfg.problem.timeout):
        reading = sense([world], [body])[0]
        forces = validate_forces([agent.act(reading.to_payload())], [body])[0]
        step([world], cfg.step, external_accel=forces_to_accel([world], [body], [forces]))
        solved, _ = check_solved(sense([world], [body])[0], problem)
        if solved:
            break
    assert solved


# -------------------------------------------------------------------- oracle


def test_oracle_replays_script_exactly(body, step_params, default_config):
    world = generate_world(flat_quiet_spec(9))
    agent = OracleAgent(body)
    problem = generate_problem([world], [body], default_config.problem, step_params, [0],
                               ["problems"])[0]
    agent.on_problem(public_problem(problem))
    agent.load_script(problem.hidden_actions, problem.issued_tick)

    for k in range(problem.scriptor_len):
        reading = sense([world], [body])[0]
        forces = agent.act(reading.to_payload())
        assert np.array_equal(forces, problem.hidden_actions[k])
        step([world], step_params, external_accel=forces_to_accel([world], [body], [forces]))

    distance = grid_distance(sense([world], [body])[0].grid, np.asarray(problem.target_grid))
    assert distance == 0.0


def test_oracle_rejects_mismatched_script(body):
    agent = OracleAgent(body)
    with pytest.raises(ContractViolation):
        agent.load_script(np.zeros((4, 3, 2)), 0)
    with pytest.raises(ContractViolation):
        agent.load_script(np.zeros((4, 4)), 0)


def test_oracle_idle_outside_script(body):
    agent = OracleAgent(body)
    assert np.all(agent.act(obs(flat_grid(0.1), tick=0)) == 0.0)

    script = np.ones((2, 4, 2))
    agent.load_script(script, issued_tick=10)
    assert np.all(agent.act(obs(flat_grid(0.1), tick=9)) == 0.0)
    assert np.array_equal(agent.act(obs(flat_grid(0.1), tick=10)), script[0])
    assert np.array_equal(agent.act(obs(flat_grid(0.1), tick=11)), script[1])
    assert np.all(agent.act(obs(flat_grid(0.1), tick=12)) == 0.0)

    agent.load_script(script, issued_tick=0)
    agent.on_problem_closed({"problem_id": 0, "solved": True})
    assert np.all(agent.act(obs(flat_grid(0.1), tick=0)) == 0.0)
