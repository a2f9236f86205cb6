"""Wire protocol: closed schemas, the stdio loop, and subprocess driving.

The schema tests are the information-bottleneck guarantee: every
message kind in both directions rejects fields outside its schema, so
no side channel can be smuggled past the validator.
"""

import copy
import dataclasses
import functools
import gc
import io
import json
import operator
import os
import re
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import driftworld
from driftworld import protocol
from driftworld.config import EpisodeConfig
from driftworld.dynamics import StepParams
from driftworld.errors import ConfigError, ProtocolError
from driftworld.harness import Slot, run_episode
from driftworld.interface import BodySpec
from driftworld.problems import ProblemParams, ScoreParams
from driftworld.protocol import (
    PROTOCOL_VERSION,
    SCHEMAS,
    SubprocessAgent,
    _check_keywords,
    _first_error,
    encode,
    parse_line,
    run_stdio_agent,
    validate_message,
)
from driftworld.trace import (
    DISCLOSURE,
    LIVE,
    LIVE_FIELDS,
    _TRACE_TYPES,
    live_view,
)
from driftworld.trace import SCHEMAS as TRACE_SCHEMAS  # `SCHEMAS` is the wire's
from driftworld.worldgen import GenSpec, generate_world

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


# -------------------------------------------------------------- schema table

# The schema table written out by hand, field by field, as an independent
# reference: `protocol` builds its table from closed-object helpers, and
# the result must equal this one, key order included.

_NUM = {"type": "number"}
_GRID = {
    "type": "array",
    "minItems": 1,
    "items": {
        "type": "array",
        "minItems": 1,
        "items": {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2},
    },
}
_FORCES = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "items": _NUM, "minItems": 1},
}

_BODY = {
    "type": "object",
    "properties": {
        "member_ids": {"type": "array", "items": {"type": "integer", "minimum": 0},
                       "minItems": 1},
        "resolution": {"type": "integer", "minimum": 1},
        "window_halfwidth": {"type": "number", "exclusiveMinimum": 0},
        "f_max": {"type": "number", "exclusiveMinimum": 0},
    },
    "required": ["member_ids", "resolution", "window_halfwidth", "f_max"],
    "additionalProperties": False,
}

_PROBLEM = {
    "type": "object",
    "properties": {
        "id": {"type": "integer", "minimum": 0},
        "issued_tick": {"type": "integer", "minimum": 0},
        "target_grid": _GRID,
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "timeout": {"type": "integer", "minimum": 1},
    },
    "required": ["id", "issued_tick", "target_grid", "epsilon", "timeout"],
    "additionalProperties": False,
}

REFERENCE: dict[tuple[str, str], dict] = {
    ("to_agent", "hello"): {
        "type": "object",
        "properties": {
            "kind": {"const": "hello"},
            "protocol": {"const": PROTOCOL_VERSION},
            "dim": {"type": "integer", "minimum": 1},
            "horizon": {"type": "integer", "minimum": 1},
            "body": _BODY,
            "agent_seed": {"type": "integer", "minimum": 0},
        },
        "required": ["kind", "protocol", "dim", "horizon", "body"],
        "additionalProperties": False,
    },
    ("from_agent", "hello"): {
        "type": "object",
        "properties": {
            "kind": {"const": "hello"},
            "protocol": {"const": PROTOCOL_VERSION},
            "agent": {"type": "string", "minLength": 1},
        },
        "required": ["kind", "protocol", "agent"],
        "additionalProperties": False,
    },
    ("to_agent", "problem"): {
        "type": "object",
        "properties": {"kind": {"const": "problem"}, "problem": _PROBLEM},
        "required": ["kind", "problem"],
        "additionalProperties": False,
    },
    ("to_agent", "observation"): {
        "type": "object",
        "properties": {
            "kind": {"const": "observation"},
            "tick": {"type": "integer", "minimum": 0},
            "grid": _GRID,
        },
        "required": ["kind", "tick", "grid"],
        "additionalProperties": False,
    },
    ("from_agent", "action"): {
        "type": "object",
        "properties": {
            "kind": {"const": "action"},
            "forces": _FORCES,
            "tick": {"type": "integer", "minimum": 0},
        },
        "required": ["kind", "forces"],
        "additionalProperties": False,
    },
    ("from_agent", "resources"): {
        "type": "object",
        "properties": {
            "kind": {"const": "resources"},
            "model_size": {"type": "number", "minimum": 0},
            "updates": {"type": "number", "minimum": 0},
        },
        "required": ["kind", "model_size", "updates"],
        "additionalProperties": False,
    },
    ("to_agent", "score"): {
        "type": "object",
        "properties": {
            "kind": {"const": "score"},
            "problem_id": {"type": "integer", "minimum": 0},
            "solved": {"type": "boolean"},
            "score": {"type": "number"},
            "tick": {"type": "integer", "minimum": 0},
        },
        "required": ["kind", "problem_id", "solved", "score", "tick"],
        "additionalProperties": False,
    },
    ("to_agent", "bye"): {
        "type": "object",
        "properties": {"kind": {"const": "bye"}},
        "required": ["kind"],
        "additionalProperties": False,
    },
    ("from_agent", "bye"): {
        "type": "object",
        "properties": {"kind": {"const": "bye"}},
        "required": ["kind"],
        "additionalProperties": False,
    },
}


def test_schema_table_equals_the_hand_written_reference():
    assert SCHEMAS == REFERENCE
    assert list(SCHEMAS) == list(REFERENCE)


def test_problem_schema_is_the_live_view_of_a_problem():
    live = [name.split(".", 1)[1] for name in LIVE_FIELDS["problem_issued"]
            if name.startswith("problem.")]
    problem = SCHEMAS[("to_agent", "problem")]["properties"]["problem"]
    assert list(problem["properties"]) == live
    assert problem["required"] == live
    assert TRACE_SCHEMAS[LIVE]["problem_issued"]["properties"]["problem"] == problem


def test_body_schema_is_the_body_spec():
    body = SCHEMAS[("to_agent", "hello")]["properties"]["body"]
    assert list(body["properties"]) == [f.name for f in dataclasses.fields(BodySpec)]


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


# ------------------------------------------------ agreement with Draft-7

# The checker must accept exactly what jsonschema's Draft7Validator
# accepts, for wire messages and for the trace lines replay and report
# read.  jsonschema is a test-only dependency, imported here so its
# absence fails these tests and nothing else.

GOLDEN_TRACE = os.path.join(os.path.dirname(__file__), "golden",
                            "stage2.disclosure.ndjson")


def _trimmed(doc):
    """`doc` with every array cut to its first two items."""
    if isinstance(doc, dict):
        return {k: _trimmed(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_trimmed(v) for v in doc[:2]]
    return doc


def _trace_examples() -> dict:
    """Per (tier, kind) of `trace.SCHEMAS`, the first line of that kind in
    the committed golden trace, or its live view, with every array cut to
    two items so that a sweep over each value stays small."""
    first: dict = {}
    with open(GOLDEN_TRACE, encoding="utf-8") as fh:
        for line in fh:
            doc = json.loads(line)
            first.setdefault(doc["kind"], doc)
    examples = {}
    for kind in TRACE_SCHEMAS[DISCLOSURE]:
        view = live_view(first[kind])
        if kind == "header":
            view = dict(view, mode=LIVE)
        examples[DISCLOSURE, kind] = _trimmed(first[kind])
        examples[LIVE, kind] = _trimmed(view)
    return examples


TRACE_VALID = _trace_examples()
EXAMPLES = {**VALID, **TRACE_VALID}


@functools.cache
def draft7(key):
    from jsonschema import Draft4Validator, Draft7Validator, validators

    if key in SCHEMAS:
        return Draft7Validator(SCHEMAS[key])
    # Trace lines: Draft-7 but for Draft-4's integer, which 1.0 is not.
    exact = Draft7Validator.TYPE_CHECKER.redefine(
        "integer", lambda _, v: Draft4Validator.TYPE_CHECKER.is_type(v, "integer"))
    tier, kind = key
    return validators.extend(Draft7Validator, type_checker=exact)(
        TRACE_SCHEMAS[tier][kind])


def draft7_paths(key, doc):
    """The paths of every error Draft7Validator reports, as the checker
    names them: a missing property by its own path."""
    paths = set()
    for e in draft7(key).iter_errors(doc):
        if e.validator == "required":
            paths |= {"/".join(map(str, [*e.path, k]))
                      for k in e.validator_value if k not in e.instance}
        else:
            paths.add("/".join(str(p) for p in e.path) or "<root>")
    return paths


def checker_verdict(direction, doc):
    """None if `validate_message` accepts `doc`, else the path it names."""
    try:
        validate_message(direction, doc)
    except ProtocolError as exc:
        named = re.match(r"invalid .* message at (\S+): ", str(exc))
        return named[1] if named else str(exc)
    return None


def trace_verdict(key, doc):
    """None if the checker accepts `doc` as a line of `key`, else the path it names."""
    tier, kind = key
    err = _first_error(doc, TRACE_SCHEMAS[tier][kind], _TRACE_TYPES)
    return None if err is None else "/".join(map(str, err[0])) or "<root>"


def assert_agrees_with_draft7(key, doc):
    """Accepted exactly when Draft-7 reports nothing; a rejection names a path it reports."""
    if key in TRACE_VALID:
        named = trace_verdict(key, doc)
    else:
        direction, _ = key
        named = checker_verdict(direction, doc)
        kind = doc.get("kind")
        if not isinstance(kind, str) or (direction, kind) not in SCHEMAS:
            assert named is not None  # no schema to check against
            return
        key = (direction, kind)
    reported = draft7_paths(key, doc)
    assert (named is None) == (not reported), (doc, named, reported)
    if named is not None:
        assert named in reported, (doc, named, reported)


@pytest.mark.parametrize("key, field, value, accepted", [
    (("to_agent", "score"), "score", True, False),  # a bool is no number
    (("to_agent", "score"), "score", np.int64(3), True),  # but np.int64 is
    (("to_agent", "score"), "score", float("nan"), True),
    (("to_agent", "score"), "score", float("inf"), True),
    (("to_agent", "score"), "tick", 1.0, True),  # an integral float is an integer
    (("to_agent", "score"), "tick", np.float64(2.0), True),
    (("to_agent", "score"), "tick", np.int64(3), False),  # not an int subclass
    (("to_agent", "score"), "tick", 1.5, False),
    (("to_agent", "score"), "tick", float("nan"), False),
    (("to_agent", "score"), "tick", -1, False),
    (("to_agent", "score"), "solved", np.True_, False),  # not a bool subclass
    (("from_agent", "hello"), "protocol", True, False),  # const: True is not 1
    (("from_agent", "hello"), "protocol", 1.0, True),
    (("from_agent", "hello"), "agent", "", False),
    (("from_agent", "resources"), "updates", 0, True),
    (("from_agent", "resources"), "updates", -0.5, False),
    (("to_agent", "hello"), "agent_seed", None, False),
], ids=repr)
def test_type_meanings_match_draft7(key, field, value, accepted):
    direction, _ = key
    doc = copy.deepcopy(VALID[key])
    doc[field] = value
    assert (checker_verdict(direction, doc) is None) is accepted
    assert (not draft7_paths(key, doc)) is accepted


@pytest.mark.parametrize("kind, path, value, accepted", [
    ("act", ("tick",), 1.0, False),  # a trace writes an integer as one
    ("act", ("tick",), 1, True),
    ("sample", ("cumulative",), 1, True),
    ("problem_issued", ("problem", "p_null"), None, True),  # type ["number", "null"]
    ("problem_issued", ("problem", "p_null"), 0.5, True),
    ("problem_issued", ("problem", "p_null"), True, False),
    ("problem_issued", ("problem", "p_null"), "0.5", False),
    ("end", ("budget_misses", "a0_greedy"), 2, True),  # a map's values
    ("end", ("budget_misses", "a0_greedy"), 2.0, False),
    ("end", ("budget_misses", "nobody"), 0, True),  # any key, if the value fits
    ("end", ("budget_misses", "nobody"), -1, False),
    ("end", ("cumulative", "a0_greedy"), None, False),
    ("header", ("bodies", "a0_greedy", "resolution"), 0, False),
    ("header", ("agent_kinds", "x"), 3, False),
], ids=repr)
def test_trace_type_meanings_match_draft7(kind, path, value, accepted):
    key = (DISCLOSURE, kind)
    doc = copy.deepcopy(TRACE_VALID[key])
    functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = value
    assert (trace_verdict(key, doc) is None) is accepted
    assert (not draft7_paths(key, doc)) is accepted


PROBES = [True, False, 0, 3, -1, 1.0, 1.5, float("nan"), float("inf"),
          np.int64(3), np.float64(2.0), np.float64(2.5), np.True_, None, "",
          "x", [], [1.0, 0.0], {}, {"x": 1}]


def slots(doc, path=()):
    """The path of every value inside `doc`."""
    for k, v in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
        yield path + (k,)
        if isinstance(v, (dict, list)):
            yield from slots(v, path + (k,))


@pytest.mark.parametrize("key", sorted(EXAMPLES), ids="/".join)
def test_checker_agrees_with_draft7_on_every_single_replacement(key):
    for path in slots(EXAMPLES[key]):
        for probe in PROBES:
            doc = copy.deepcopy(EXAMPLES[key])
            functools.reduce(operator.getitem, path[:-1], doc)[path[-1]] = copy.deepcopy(probe)
            assert_agrees_with_draft7(key, doc)


WIRE_VALUES = st.one_of(
    st.booleans(),
    st.integers(-2, 3),
    st.sampled_from([0.0, 1.0, 1.5, float("nan"), float("inf")]),
    st.integers(-2, 3).map(np.int64),
    st.sampled_from([-1.0, 0.0, 2.0, 2.5, float("nan")]).map(np.float64),
    st.booleans().map(np.bool_),
    st.none(),
    st.text(max_size=2),
    st.lists(st.sampled_from([0.5, 1, True, "x", None, [1.0, 0.0]]), max_size=3),
    st.dictionaries(st.sampled_from(["kind", "id", "x"]), st.integers(0, 2), max_size=2),
).map(copy.deepcopy)  # later edits must not reach the strategy's own lists


def containers(doc):
    """Every dict and list inside `doc`, root first."""
    yield doc
    for v in (doc.values() if isinstance(doc, dict) else doc):
        if isinstance(v, (dict, list)):
            yield from containers(v)


@st.composite
def mutated(draw, key):
    """An example after one to three edits of a value, key or item."""
    doc = copy.deepcopy(EXAMPLES[key])
    for _ in range(draw(st.integers(1, 3))):
        box = draw(st.sampled_from(list(containers(doc))))
        keys = list(box) if isinstance(box, dict) else list(range(len(box)))
        op = draw(st.sampled_from(["replace", "delete", "add", "append"]))
        if op == "replace" and keys:
            box[draw(st.sampled_from(keys))] = draw(WIRE_VALUES)
        elif op == "delete" and keys and isinstance(box, dict):
            del box[draw(st.sampled_from(keys))]
        elif op == "add" and isinstance(box, dict):
            name = draw(st.sampled_from(["extra", "tick", "agent_seed", "kind"]))
            box[name] = draw(WIRE_VALUES)
        elif op == "append" and isinstance(box, list):
            pick = st.sampled_from(box).map(copy.deepcopy) if box else WIRE_VALUES
            box.append(draw(st.one_of(WIRE_VALUES, pick)))
    return doc


@pytest.mark.parametrize("key", sorted(EXAMPLES), ids="/".join)
@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_checker_agrees_with_draft7_on_mutated_messages(key, data):
    assert_agrees_with_draft7(key, data.draw(mutated(key)))


@pytest.mark.parametrize("keyword, value", [
    ("pattern", "x"), ("type", "float"), ("type", ["integer", "float"]),
    ("type", []), ("additionalProperties", True),
    ("additionalProperties", {"pattern": "x"}), ("const", True),
])
def test_unsupported_schema_fails_the_import_check(keyword, value):
    _check_keywords(copy.deepcopy(SCHEMAS))
    schemas = copy.deepcopy(SCHEMAS)
    body = schemas[("to_agent", "hello")]["properties"]["body"]
    body["properties"]["member_ids"]["items"][keyword] = value
    with pytest.raises(ValueError, match=f"to_agent/hello/body/member_ids/items.*{keyword}"):
        _check_keywords(schemas)


def test_protocol_does_not_import_jsonschema():
    src = os.path.dirname(os.path.dirname(driftworld.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = "import sys, driftworld.protocol; assert 'jsonschema' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_agent_command_loads_only_what_serving_needs():
    # `-X importtime` writes one stderr line per module the command imports
    src = os.path.dirname(os.path.dirname(driftworld.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "driftworld", "agent",
         "--kind", "random"],
        input=encode(hello_doc(agent_seed=3)) + encode({"kind": "bye"}),
        env=env, capture_output=True, text=True, check=True, timeout=60)
    assert [json.loads(line)["kind"] for line in done.stdout.splitlines()] == \
        ["hello", "bye"]
    loaded = {line.rsplit("|", 1)[-1].strip() for line in done.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"driftworld.protocol", "driftworld.agents"} <= loaded
    unneeded = {f"driftworld.{m}" for m in
                ("harness", "metrics", "trace", "problems", "config", "dynamics")}
    assert loaded & unneeded == set()


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


def test_wire_episode_leaves_no_pipe_open(body, monkeypatch):
    # A file closed by its finalizer warns there, where the warning (an
    # error here) can only reach sys.unraisablehook.
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    with warnings.catch_warnings():
        warnings.simplefilter("error", ResourceWarning)
        agent = SubprocessAgent(bundled_argv("greedy"), body, dim=2, horizon=6,
                                budget_s=5.0)
        try:
            run_episode(generate_world(GenSpec(seed=3)),
                        [Slot(agent_id="greedy", agent=agent, body=body)],
                        StepParams(), ProblemParams(), ScoreParams(),
                        EpisodeConfig(horizon=6, budget_s=5.0))
        finally:
            agent.close()
        assert agent.proc.returncode == 0
        assert agent.proc.stdin.closed and agent.proc.stdout.closed
        del agent
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


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


LATE_RESOURCES_AGENT = r"""
import json, sys, time
sys.stdin.readline()
sys.stdout.write(json.dumps({"kind": "hello", "protocol": 1, "agent": "late"}) + "\n")
sys.stdout.flush()
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "observation":
        sys.stdout.write(json.dumps({
            "kind": "action", "forces": [[1.0, 1.0]] * 4, "tick": doc["tick"],
        }) + "\n")
        sys.stdout.flush()
        if doc["tick"] == 2:
            time.sleep(0.6)
        sys.stdout.write(json.dumps({
            "kind": "resources", "model_size": doc["tick"], "updates": 0,
        }) + "\n")
        sys.stdout.flush()
    elif doc["kind"] == "bye":
        break
"""


def test_subprocess_late_resources_are_a_budget_miss(body, tmp_path):
    script = tmp_path / "late.py"
    script.write_text(LATE_RESOURCES_AGENT)
    agent = SubprocessAgent([sys.executable, str(script)], body, dim=2,
                            horizon=20, budget_s=0.2)
    try:
        for tick in (0, 1):
            assert np.all(agent.act({"tick": tick, "grid": [[[0.0, 0.0]]]}) == 1.0)
        assert agent.budget_misses == 0

        # The action is on time, so its forces stand; the resources line
        # is not, so the last declaration stands in for it.
        forces = agent.act({"tick": 2, "grid": [[[0.0, 0.0]]]})
        assert np.all(forces == 1.0)
        assert agent.budget_misses == 1
        assert agent.resources() == {"model_size": 1, "updates": 0}

        # The late line is discarded when it lands; the next reply stands.
        time.sleep(0.6)
        forces = agent.act({"tick": 3, "grid": [[[0.0, 0.0]]]})
        assert np.all(forces == 1.0)
        assert agent.budget_misses == 1
        assert agent.resources() == {"model_size": 3, "updates": 0}
    finally:
        agent.close()
    assert agent.proc.returncode == 0


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
    monkeypatch.setattr(protocol, "HELLO_TIMEOUT_S", 0.3)
    with pytest.raises(ProtocolError, match="in time"):
        SubprocessAgent([sys.executable, str(script)], body, dim=2, horizon=20)
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
