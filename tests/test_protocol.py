"""Wire protocol: closed schemas, the stdio loop, and subprocess driving.

The schema tests are the information-bottleneck guarantee: every
message kind in both directions rejects fields outside its schema, so
no side channel can be smuggled past the validator.
"""

import io
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from driftworld.errors import ConfigError, ProtocolError
from driftworld.protocol import (
    PROTOCOL_VERSION,
    SCHEMAS,
    SubprocessAgent,
    encode,
    parse_line,
    run_stdio_agent,
    validate_message,
)

BODY_DICT = {"member_ids": [0, 1, 2, 3], "resolution": 16,
             "window_halfwidth": 8.0, "f_max": 4.0}

VALID = {
    ("to_agent", "hello"): {
        "kind": "hello", "protocol": PROTOCOL_VERSION, "dim": 2,
        "horizon": 100, "body": BODY_DICT, "agent_seed": 7,
    },
    ("from_agent", "hello"): {
        "kind": "hello", "protocol": PROTOCOL_VERSION, "agent": "null",
    },
    ("to_agent", "problem"): {
        "kind": "problem",
        "problem": {"id": 0, "issued_tick": 3, "target_grid": [[[0.0, 1.0]]],
                    "epsilon": 0.16, "timeout": 24},
    },
    ("to_agent", "observation"): {
        "kind": "observation", "tick": 5, "grid": [[[1.0, 0.0]]],
    },
    ("from_agent", "action"): {
        "kind": "action", "forces": [[0.5, -0.5]], "tick": 5,
    },
    ("from_agent", "resources"): {
        "kind": "resources", "model_size": 10, "updates": 3,
    },
    ("to_agent", "score"): {
        "kind": "score", "problem_id": 0, "solved": True, "score": 0.4,
        "tick": 9,
    },
    ("to_agent", "bye"): {"kind": "bye"},
    ("from_agent", "bye"): {"kind": "bye"},
}


# ------------------------------------------------------------------- schemas


def test_examples_cover_every_schema():
    assert set(VALID) == set(SCHEMAS)


@pytest.mark.parametrize("key", sorted(VALID), ids="/".join)
def test_valid_messages_pass(key):
    direction, kind = key
    assert validate_message(direction, VALID[key]) == kind


@pytest.mark.parametrize("key", sorted(VALID), ids="/".join)
def test_extra_top_level_field_rejected(key):
    direction, _ = key
    doc = dict(VALID[key])
    doc["coefficients"] = [0.1, 0.2]
    with pytest.raises(ProtocolError):
        validate_message(direction, doc)


def test_extra_nested_field_rejected():
    doc = json.loads(json.dumps(VALID[("to_agent", "hello")]))
    doc["body"]["positions"] = [[0.0, 0.0]]
    with pytest.raises(ProtocolError):
        validate_message("to_agent", doc)

    doc = json.loads(json.dumps(VALID[("to_agent", "problem")]))
    doc["problem"]["hidden_actions"] = []
    with pytest.raises(ProtocolError):
        validate_message("to_agent", doc)


def test_missing_required_field_rejected():
    doc = {"kind": "resources", "model_size": 1}
    with pytest.raises(ProtocolError):
        validate_message("from_agent", doc)
    doc = {"kind": "hello", "protocol": PROTOCOL_VERSION}
    with pytest.raises(ProtocolError):
        validate_message("from_agent", doc)


def test_direction_is_enforced():
    with pytest.raises(ProtocolError):
        validate_message("to_agent", VALID[("from_agent", "action")])
    with pytest.raises(ProtocolError):
        validate_message("from_agent", VALID[("to_agent", "observation")])


def test_unknown_kind_rejected():
    with pytest.raises(ProtocolError):
        validate_message("to_agent", {"kind": "telemetry"})


def test_wrong_protocol_version_rejected():
    doc = dict(VALID[("from_agent", "hello")])
    doc["protocol"] = PROTOCOL_VERSION + 1
    with pytest.raises(ProtocolError):
        validate_message("from_agent", doc)


def test_grid_cells_must_be_channel_pairs():
    doc = {"kind": "observation", "tick": 0, "grid": [[[1.0, 0.0, 2.0]]]}
    with pytest.raises(ProtocolError):
        validate_message("to_agent", doc)


def test_non_object_and_kindless_rejected():
    with pytest.raises(ProtocolError):
        validate_message("to_agent", [1, 2])
    with pytest.raises(ProtocolError):
        validate_message("to_agent", {"tick": 3})


def test_parse_line_and_encode_roundtrip():
    doc = VALID[("from_agent", "action")]
    line = encode(doc)
    assert line.endswith("\n")
    assert parse_line("from_agent", line) == doc
    with pytest.raises(ProtocolError):
        parse_line("from_agent", "{not json")


# ---------------------------------------------------------------- stdio loop


def stdio_session(kind, docs):
    stdin = io.StringIO("".join(encode(d) for d in docs))
    stdout = io.StringIO()
    rc = run_stdio_agent(kind, stdin=stdin, stdout=stdout)
    return rc, [json.loads(line) for line in stdout.getvalue().splitlines()]


def hello_doc(agent_seed=None):
    doc = {"kind": "hello", "protocol": PROTOCOL_VERSION, "dim": 2,
           "horizon": 50, "body": BODY_DICT}
    if agent_seed is not None:
        doc["agent_seed"] = agent_seed
    return doc


def observation_doc(tick):
    return {"kind": "observation", "tick": tick, "grid": [[[1.0, 0.0]]]}


def test_stdio_null_agent_session():
    rc, replies = stdio_session("null", [
        hello_doc(),
        observation_doc(0),
        observation_doc(1),
        {"kind": "bye"},
    ])
    assert rc == 0
    assert replies[0] == {"kind": "hello", "protocol": PROTOCOL_VERSION,
                          "agent": "null"}
    assert [r["kind"] for r in replies[1:]] == [
        "action", "resources", "action", "resources", "bye",
    ]
    for r in replies:
        validate_message("from_agent", r)
    assert replies[1]["forces"] == [[0.0, 0.0]] * 4
    assert replies[1]["tick"] == 0
    assert replies[2] == {"kind": "resources", "model_size": 0, "updates": 0}


def test_stdio_greedy_probes_over_the_wire():
    problem = {"kind": "problem",
               "problem": {"id": 0, "issued_tick": 0,
                           "target_grid": [[[0.0, 0.0]]],
                           "epsilon": 0.1, "timeout": 10}}
    rc, replies = stdio_session("greedy", [
        hello_doc(), problem, observation_doc(0), {"kind": "bye"},
    ])
    assert rc == 0
    action = replies[1]
    assert action["kind"] == "action"
    assert action["forces"] == [[2.0, 0.0]] * 4  # +x probe at half authority
    assert replies[2]["model_size"] == 1


def test_stdio_random_agent_seeded_by_hello():
    script = [hello_doc(agent_seed=7), observation_doc(0), {"kind": "bye"}]
    _, a = stdio_session("random", script)
    _, b = stdio_session("random", script)
    assert a == b
    _, c = stdio_session("random", [hello_doc(agent_seed=8),
                                    observation_doc(0), {"kind": "bye"}])
    assert a[1]["forces"] != c[1]["forces"]


def test_stdio_rejects_oracle():
    with pytest.raises(ConfigError):
        run_stdio_agent("oracle", stdin=io.StringIO(), stdout=io.StringIO())


def test_stdio_rejects_out_of_schema_traffic():
    lines = encode(hello_doc()) + '{"kind": "observation", "tick": 0}\n'
    with pytest.raises(ProtocolError):
        run_stdio_agent("null", stdin=io.StringIO(lines), stdout=io.StringIO())


def test_stdio_requires_hello_first():
    with pytest.raises(ProtocolError):
        run_stdio_agent("null", stdin=io.StringIO(""), stdout=io.StringIO())
    with pytest.raises(ProtocolError):
        run_stdio_agent("null", stdin=io.StringIO(encode({"kind": "bye"})),
                        stdout=io.StringIO())


# ------------------------------------------------------------ subprocess side


def bundled_argv(kind):
    return [sys.executable, "-m", "driftworld", "agent", "--kind", kind]


def test_subprocess_null_agent_end_to_end(body):
    agent = SubprocessAgent(bundled_argv("null"), body, dim=2, horizon=20,
                            budget_s=2.0)
    try:
        assert agent.agent_name == "null"
        agent.on_problem({"id": 0, "issued_tick": 0,
                          "target_grid": [[[0.0, 0.0]]],
                          "epsilon": 0.1, "timeout": 5})
        forces = agent.act({"tick": 0, "grid": [[[1.0, 0.0]]]})
        assert forces.shape == (4, 2)
        assert np.all(forces == 0.0)
        assert agent.resources() == {"model_size": 0, "updates": 0}
        agent.on_problem_closed({"problem_id": 0, "solved": False,
                                 "score": 0.0, "tick": 5})
        assert agent.budget_misses == 0
    finally:
        agent.close()
    assert agent.proc.returncode == 0


def test_subprocess_random_agents_match_given_same_seed(body):
    a = SubprocessAgent(bundled_argv("random"), body, dim=2, horizon=20,
                        agent_seed=99, budget_s=2.0)
    b = SubprocessAgent(bundled_argv("random"), body, dim=2, horizon=20,
                        agent_seed=99, budget_s=2.0)
    try:
        fa = a.act({"tick": 0, "grid": [[[0.0, 0.0]]]})
        fb = b.act({"tick": 0, "grid": [[[0.0, 0.0]]]})
        assert np.array_equal(fa, fb)
        assert np.any(fa != 0.0)
    finally:
        a.close()
        b.close()


SLOW_AGENT = r"""
import json, sys, time
line = sys.stdin.readline()
sys.stdout.write(json.dumps({"kind": "hello", "protocol": 1, "agent": "sloth"}) + "\n")
sys.stdout.flush()
first = True
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "observation":
        if first:
            time.sleep(0.4)
            first = False
        sys.stdout.write(json.dumps({
            "kind": "action", "forces": [[1.0, 1.0]] * 4, "tick": doc["tick"],
        }) + "\n")
        sys.stdout.write(json.dumps({
            "kind": "resources", "model_size": 0, "updates": 0,
        }) + "\n")
        sys.stdout.flush()
    elif doc["kind"] == "bye":
        break
"""


def test_subprocess_budget_overrun_substitutes_zero_action(body, tmp_path):
    script = tmp_path / "sloth.py"
    script.write_text(SLOW_AGENT)
    agent = SubprocessAgent([sys.executable, str(script)], body, dim=2,
                            horizon=20, budget_s=0.05)
    try:
        forces = agent.act({"tick": 0, "grid": [[[0.0, 0.0]]]})
        assert np.all(forces == 0.0)
        assert agent.budget_misses == 1

        # Once the backlog lands, the stale pair is discarded by its tick
        # tag and the fresh reply comes through untouched.
        time.sleep(0.6)
        forces = agent.act({"tick": 1, "grid": [[[0.0, 0.0]]]})
        assert np.all(forces == 1.0)
        assert agent.budget_misses == 1
    finally:
        agent.close()


BAD_HELLO_AGENT = r"""
import json, sys
sys.stdin.readline()
sys.stdout.write(json.dumps({
    "kind": "hello", "protocol": 1, "agent": "x", "secrets": True,
}) + "\n")
sys.stdout.flush()
sys.stdin.read()
"""


SILENT_AGENT = r"""
import sys
sys.stdin.read()
"""


def started_processes(monkeypatch):
    """Record every Popen the protocol module starts during the test."""
    started = []
    real_popen = subprocess.Popen

    def popen(*args, **kwargs):
        started.append(real_popen(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(subprocess, "Popen", popen)
    return started


def test_subprocess_rejects_out_of_schema_handshake(body, tmp_path, monkeypatch):
    script = tmp_path / "bad_hello.py"
    script.write_text(BAD_HELLO_AGENT)
    started = started_processes(monkeypatch)
    with pytest.raises(ProtocolError):
        SubprocessAgent([sys.executable, str(script)], body, dim=2, horizon=20)
    # The agent blocks on stdin forever; a failed handshake must reap it.
    assert len(started) == 1
    assert started[0].poll() is not None


def test_subprocess_handshake_timeout_reaps_agent(body, tmp_path, monkeypatch):
    script = tmp_path / "silent.py"
    script.write_text(SILENT_AGENT)
    started = started_processes(monkeypatch)
    with pytest.raises(ProtocolError, match="in time"):
        SubprocessAgent([sys.executable, str(script)], body, dim=2, horizon=20,
                        hello_timeout_s=0.3)
    assert len(started) == 1
    assert started[0].poll() is not None


WRONG_SHAPE_AGENT = r"""
import json, sys
sys.stdin.readline()
sys.stdout.write(json.dumps({"kind": "hello", "protocol": 1, "agent": "w"}) + "\n")
sys.stdout.flush()
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "observation":
        sys.stdout.write(json.dumps({
            "kind": "action", "forces": [[1.0, 1.0]], "tick": doc["tick"],
        }) + "\n")
        sys.stdout.write(json.dumps({
            "kind": "resources", "model_size": 0, "updates": 0,
        }) + "\n")
        sys.stdout.flush()
    elif doc["kind"] == "bye":
        break
"""


def test_subprocess_rejects_wrong_action_shape(body, tmp_path):
    script = tmp_path / "wrong_shape.py"
    script.write_text(WRONG_SHAPE_AGENT)
    agent = SubprocessAgent([sys.executable, str(script)], body, dim=2,
                            horizon=20, budget_s=2.0)
    try:
        with pytest.raises(ProtocolError):
            agent.act({"tick": 0, "grid": [[[0.0, 0.0]]]})
    finally:
        agent.close()
