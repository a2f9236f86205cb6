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
import signal
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import driftworld
from driftworld import protocol
from driftworld.agents import NullAgent, make_agent
from driftworld.canon import JSON_TYPES, from_doc, to_doc
from driftworld.config import EpisodeConfig
from driftworld.dynamics import StepParams
from driftworld.errors import ConfigError, ContractViolation, ProtocolError
from driftworld.harness import Slot, run_episode
from driftworld.interface import BodySpec, sense
from driftworld.problems import ProblemParams, ScoreParams
from driftworld.protocol import (
    PROTOCOL_VERSION,
    SCHEMAS,
    SubprocessAgent,
    _check_keywords,
    _first_error,
    cells_grid,
    close_idle_agents,
    encode,
    grid_cells,
    parse_line,
    run_stdio_agent,
    validate_message,
)
from driftworld.rng import agent_stream
from driftworld.trace import (
    DISCLOSURE,
    LIVE,
    LIVE_FIELDS,
    check_line,
    live_view,
)
from driftworld.trace import SCHEMAS as TRACE_SCHEMAS  # `SCHEMAS` is the wire's
from driftworld.worldgen import GenSpec, generate_world

BODY_DICT = {"member_ids": [0, 1, 2, 3], "resolution": 16,
             "window_halfwidth": 8.0, "f_max": 4.0}

VALID = {
    ("to_agent", "hello"): {
        "kind": "hello", "protocol": PROTOCOL_VERSION,
        "horizon": 100, "body": BODY_DICT, "agent_seed": 7,
    },
    ("from_agent", "hello"): {
        "kind": "hello", "protocol": PROTOCOL_VERSION, "agent": "null",
    },
    ("to_agent", "problem"): {
        "kind": "problem",
        "problem": {"id": 0, "issued_tick": 3, "target_cells": [[0, 0, 0, 1]],
                    "epsilon": 0.16, "timeout": 24},
    },
    ("to_agent", "observation"): {
        "kind": "observation", "tick": 5, "cells": [[0, 1, 1, 0], [2, 0, 0, 3]],
    },
    ("from_agent", "action"): {
        "kind": "action", "tick": 5, "forces": [[0.5, -0.5]],
        "resources": {"model_size": 10, "updates": 3},
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
_CELLS = {
    "type": "array",
    "items": {"type": "array", "items": {"type": "integer", "minimum": 0},
              "minItems": 4, "maxItems": 4},
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
        "target_cells": _CELLS,
        "epsilon": {"type": "number", "exclusiveMinimum": 0},
        "timeout": {"type": "integer", "minimum": 1},
    },
    "required": ["id", "issued_tick", "target_cells", "epsilon", "timeout"],
    "additionalProperties": False,
}

REFERENCE: dict[tuple[str, str], dict] = {
    ("to_agent", "hello"): {
        "type": "object",
        "properties": {
            "kind": {"const": "hello"},
            "protocol": {"const": PROTOCOL_VERSION},
            "horizon": {"type": "integer", "minimum": 1},
            "body": _BODY,
            "agent_seed": {"type": "integer", "minimum": 0},
        },
        "required": ["kind", "protocol", "horizon", "body", "agent_seed"],
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
            "cells": _CELLS,
        },
        "required": ["kind", "tick", "cells"],
        "additionalProperties": False,
    },
    ("from_agent", "action"): {
        "type": "object",
        "properties": {
            "kind": {"const": "action"},
            "tick": {"type": "integer", "minimum": 0},
            "forces": _FORCES,
            "resources": {
                "type": "object",
                "properties": {
                    "model_size": {"type": "number", "minimum": 0},
                    "updates": {"type": "number", "minimum": 0},
                },
                "required": ["model_size", "updates"],
                "additionalProperties": False,
            },
        },
        "required": ["kind", "tick", "forces", "resources"],
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
    # the wire's problem is the live cut, its target grid sent as cells
    live = TRACE_SCHEMAS[LIVE]["problem_issued"]["properties"]["problem"]
    assert list(live["properties"]) == [
        name.split(".", 1)[1] for name in LIVE_FIELDS["problem_issued"]
        if name.startswith("problem.")]
    as_sent = {"target_cells" if k == "target_grid" else k: v
               for k, v in live["properties"].items()}
    as_sent["target_cells"] = _CELLS
    wire = SCHEMAS[("to_agent", "problem")]["properties"]["problem"]
    assert wire == dict(live, properties=as_sent, required=list(as_sent))
    assert list(wire["properties"]) == list(as_sent)


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
    doc = {"kind": "action", "tick": 0, "forces": [[0.0, 0.0]]}
    with pytest.raises(ProtocolError, match="'resources' is a required property"):
        validate_message("from_agent", doc)
    doc = dict(VALID[("to_agent", "hello")])
    del doc["agent_seed"]
    with pytest.raises(ProtocolError, match="'agent_seed' is a required property"):
        validate_message("to_agent", doc)
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
    # the one dense grid left is the trace's problem_issued target
    doc = copy.deepcopy(TRACE_VALID[DISCLOSURE, "problem_issued"])
    check_line(doc, DISCLOSURE)
    doc["problem"]["target_grid"] = [[[1.0, 0.0, 2.0]]]
    with pytest.raises(ContractViolation, match="problem.target_grid.0.0"):
        check_line(doc, DISCLOSURE)


@pytest.mark.parametrize("cells", [
    [[0, 0, 1]], [[0, 0, 1, 0, 0]], [[0, 0, -1, 0]], [[0, -1, 1, 0]],
    [[0, 0, 1.5, 0]], [[0, 0, True, 0]], [[0, 0, np.int64(1), 0]], [0, 0, 1, 0],
], ids=repr)
def test_observation_cells_are_four_nonnegative_integers(cells):
    doc = {"kind": "observation", "tick": 0, "cells": cells}
    with pytest.raises(ProtocolError, match="at cells/0"):
        validate_message("to_agent", doc)


def test_non_object_and_kindless_rejected():
    with pytest.raises(ProtocolError):
        validate_message("to_agent", [1, 2])
    with pytest.raises(ProtocolError):
        validate_message("to_agent", {"tick": 3})


def test_parse_line_and_encode_roundtrip():
    doc = VALID[("from_agent", "action")]
    line = encode(doc)
    assert line.endswith(b"\n")
    assert parse_line("from_agent", line) == doc
    for bad in (b"{not json\n", b'{"kind": "bye\xff"}\n', b'{"kind":\r"bye"}\n'):
        with pytest.raises(ProtocolError, match="line is not valid JSON"):
            parse_line("from_agent", bad)


# ------------------------------------------------ agreement with Draft-7

# The checker must accept exactly what one reference validator accepts,
# for wire messages and for the trace lines replay and report read: the
# reference is jsonschema's Draft7Validator with the package's type model
# (`canon.JSON_TYPES`) and a `const` that matches only a value of its own
# type.  jsonschema is a test-only dependency, imported here so its
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
def reference_validator():
    """The reference validator class: Draft-7, extended as said above."""
    from jsonschema import Draft7Validator, ValidationError, validators

    def exact_const(validator, const, instance, schema):
        if type(instance) is not type(const) or instance != const:
            yield ValidationError(f"{const!r} was expected")

    types = Draft7Validator.TYPE_CHECKER.redefine_many({
        name: functools.partial(lambda exact, _, v: type(v) in exact, exact)
        for name, exact in JSON_TYPES.items()})
    return validators.extend(Draft7Validator, {"const": exact_const},
                             type_checker=types)


@functools.cache
def draft7(key):
    """The reference validator of a wire key or a (tier, kind) trace key."""
    return reference_validator()(
        SCHEMAS[key] if key in SCHEMAS else TRACE_SCHEMAS[key[0]][key[1]])


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
    err = _first_error(doc, TRACE_SCHEMAS[tier][kind])
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
    (("to_agent", "score"), "score", np.int64(3), False),  # nor a numpy scalar
    (("to_agent", "score"), "score", float("nan"), True),
    (("to_agent", "score"), "score", float("inf"), True),
    (("to_agent", "score"), "tick", 1.0, False),  # an integral float is no integer
    (("to_agent", "score"), "tick", np.float64(2.0), False),
    (("to_agent", "score"), "tick", np.int64(3), False),  # not an int subclass
    (("to_agent", "score"), "tick", 1.5, False),
    (("to_agent", "score"), "tick", float("nan"), False),
    (("to_agent", "score"), "tick", -1, False),
    (("to_agent", "score"), "solved", np.True_, False),  # not a bool subclass
    (("from_agent", "hello"), "protocol", True, False),  # const: a bool is no number
    (("from_agent", "hello"), "protocol", float(PROTOCOL_VERSION), False),  # nor 4.0
    (("from_agent", "hello"), "agent", "", False),
    (("to_agent", "hello"), "agent_seed", None, False),
    (("to_agent", "hello"), "dim", 3, False),  # a hello has no dim: worlds are 2-D
    (("to_agent", "hello"), "dim", 2.0, False),
    # the cells' fast path and the walk agree: integers only
    (("to_agent", "observation"), "cells", [], True),  # an empty window
    (("to_agent", "observation"), "cells", [[0, 0, 1.0, 0]], False),
    (("to_agent", "observation"), "cells", [[0, 0, 1.5, 0]], False),
    (("to_agent", "observation"), "cells", [[0, 0, True, 0]], False),
    (("to_agent", "observation"), "cells", [[0, 0, 0, -1]], False),
    (("to_agent", "observation"), "cells", [[0, 0, np.int64(1), 0]], False),
    (("to_agent", "observation"), "cells", [[0, 0, 1, 0], [1, 0, 1]], False),
    (("to_agent", "observation"), "cells", [[0, 0, 1, 0], (1, 0, 1, 0)], False),
], ids=repr)
def test_type_meanings_match_draft7(key, field, value, accepted):
    direction, _ = key
    doc = copy.deepcopy(VALID[key])
    doc[field] = value
    assert (checker_verdict(direction, doc) is None) is accepted
    assert (not draft7_paths(key, doc)) is accepted


@pytest.mark.parametrize("updates, accepted", [(0, True), (-0.5, False)])
def test_action_resources_updates_match_draft7(updates, accepted):
    key = ("from_agent", "action")
    doc = copy.deepcopy(VALID[key])
    doc["resources"] = {"model_size": 0, "updates": updates}
    assert (checker_verdict("from_agent", doc) is None) is accepted
    assert (not draft7_paths(key, doc)) is accepted


def test_const_zero_or_one_never_matches_a_bool():
    # No message const is 0 or 1 since the version went to 2, so the
    # exact-type const is held to the reference on bare schemas here.
    for const in (0, 1):
        for value in (True, False, 0, 1, 0.0, 1.0):
            schema = {"const": const}
            accepted = _first_error(value, schema) is None
            assert accepted is reference_validator()(schema).is_valid(value)
            assert accepted is (type(value) is int and value == const), (const, value)


JSON_SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(),
                         st.text(max_size=3))
#: A one-field dataclass per scalar annotation.
FIELDS = {tp: dataclasses.make_dataclass("Field", [("value", tp)])
          for tp in (int, float, bool, str)}


@pytest.mark.parametrize("tp, name", [
    (int, "integer"), (float, "number"), (bool, "boolean"), (str, "string")])
@settings(max_examples=100, deadline=None)
@given(value=JSON_SCALARS)
def test_from_doc_and_the_checker_agree_on_every_json_scalar(tp, name, value):
    try:
        from_doc(FIELDS[tp], {"value": value})
        filled = True
    except ContractViolation:
        filled = False
    assert filled is (_first_error(value, {"type": name}) is None), (tp, value)


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


def package_env():
    """This process's environment with the package's source on PYTHONPATH,
    for a child process that imports it."""
    src = os.path.dirname(os.path.dirname(driftworld.__file__))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_protocol_does_not_import_jsonschema():
    env = package_env()
    code = "import sys, driftworld.protocol; assert 'jsonschema' not in sys.modules"
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def test_agent_command_loads_only_what_serving_needs():
    # `-X importtime` writes one stderr line per module the command imports
    env = package_env()
    done = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "driftworld", "agent",
         "--kind", "random"],
        input=encode(hello_doc(agent_seed=3)) + encode({"kind": "bye"}),
        env=env, capture_output=True, check=True, timeout=60)
    assert [json.loads(line)["kind"] for line in done.stdout.splitlines()] == \
        ["hello", "bye"]
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in done.stderr.decode().splitlines()
              if line.startswith("import time:")}
    assert {"driftworld.protocol", "driftworld.agents"} <= loaded
    unneeded = {f"driftworld.{m}" for m in
                ("harness", "metrics", "trace", "problems", "config", "dynamics")}
    assert loaded & unneeded == set()


# ---------------------------------------------------------------- stdio loop


def stdio_session(kind, docs):
    stdin = io.BytesIO(b"".join(encode(d) for d in docs))
    stdout = io.BytesIO()
    rc = run_stdio_agent(kind, stdin=stdin, stdout=stdout)
    return rc, [json.loads(line) for line in stdout.getvalue().splitlines()]


def hello_doc(agent_seed=0, resolution=1):
    """A hello for the test body; one sensor cell by default, so the 1x1
    target grids below fit it."""
    return {"kind": "hello", "protocol": PROTOCOL_VERSION, "horizon": 50,
            "body": dict(BODY_DICT, resolution=resolution), "agent_seed": agent_seed}


def observation_doc(tick, cells=((0, 0, 1, 0),)):
    return {"kind": "observation", "tick": tick, "cells": [list(c) for c in cells]}


PROBLEM = {"id": 0, "issued_tick": 0, "target_cells": [],
           "epsilon": 0.1, "timeout": 10}


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
    assert [r["kind"] for r in replies[1:]] == ["action", "action", "bye"]
    for r in replies:
        validate_message("from_agent", r)
    assert replies[1] == {"kind": "action", "tick": 0, "forces": [[0.0, 0.0]] * 4,
                          "resources": {"model_size": 0, "updates": 0}}
    assert replies[2]["tick"] == 1


def test_stdio_greedy_probes_over_the_wire():
    problem = {"kind": "problem",
               "problem": {"id": 0, "issued_tick": 0, "target_cells": [],
                           "epsilon": 0.1, "timeout": 10}}
    rc, replies = stdio_session("greedy", [
        hello_doc(), problem, observation_doc(0), {"kind": "bye"},
    ])
    assert rc == 0
    action = replies[1]
    assert action["kind"] == "action"
    assert action["forces"] == [[2.0, 0.0]] * 4  # +x probe at half authority
    assert action["resources"]["model_size"] == 1


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
        run_stdio_agent("oracle", stdin=io.BytesIO(), stdout=io.BytesIO())


def test_stdio_rejects_out_of_schema_traffic():
    lines = encode(hello_doc()) + b'{"kind": "observation", "tick": 0}\n'
    with pytest.raises(ProtocolError):
        run_stdio_agent("null", stdin=io.BytesIO(lines), stdout=io.BytesIO())


COUNT_GRIDS = st.integers(1, 6).flatmap(lambda r: hnp.arrays(
    np.float64, (r, r, 2), elements=st.sampled_from([0.0, 0.0, 0.0, 1.0, 2.0, 300.0])))


@settings(max_examples=200, deadline=None)
@given(grid=COUNT_GRIDS)
def test_cells_round_trip_any_count_grid(grid):
    # an observation's cells and a problem's target cells
    cells = grid_cells(grid)
    assert len(cells) == np.count_nonzero(grid.any(axis=2))
    observation = {"kind": "observation", "tick": 0, "cells": cells}
    problem = {"kind": "problem", "problem": dict(PROBLEM, target_cells=cells)}
    for sent in (parse_line("to_agent", encode(observation))["cells"],
                 parse_line("to_agent", encode(problem))["problem"]["target_cells"]):
        rebuilt = cells_grid(sent, grid.shape[0])
        assert rebuilt.dtype == np.float64 and not rebuilt.flags.writeable
        assert np.array_equal(rebuilt, grid)


def test_stdio_agent_sees_the_in_process_grid(monkeypatch):
    # the runner rebuilds from the cells the very array sense() gave the
    # harness: float64, (R, R, 2), read-only, value for value
    seen = []

    class Recording(NullAgent):
        def act(self, observation):
            seen.append(observation)
            return super().act(observation)

    monkeypatch.setattr(protocol, "make_agent", lambda kind, body, **kw: Recording(body))
    world = generate_world(GenSpec(seed=3))
    body = BodySpec((0, 1, 2, 3), resolution=16, window_halfwidth=8.0)
    payload = sense([world], [body])[0].to_payload()
    hello = dict(hello_doc(), body=to_doc(body))
    stdio_session("null", [hello, {"kind": "observation", "tick": payload["tick"],
                                   "cells": grid_cells(payload["grid"])}])
    [observation] = seen
    assert observation.keys() == payload.keys()
    grid = observation["grid"]
    assert grid.dtype == np.float64 and grid.shape == payload["grid"].shape
    assert not grid.flags.writeable and not payload["grid"].flags.writeable
    assert np.array_equal(grid, payload["grid"])


@pytest.mark.parametrize("cells, message", [
    ([[4, 0, 1, 0]], "cell [4, 0] is outside the 4x4 grid"),
    ([[0, 4, 1, 0]], "cell [0, 4] is outside the 4x4 grid"),
    ([[1, 0, 1, 0], [0, 3, 1, 0]], "cell [0, 3] is not after the cell before it"),
    ([[2, 2, 1, 0], [2, 2, 0, 1]], "cell [2, 2] is not after the cell before it"),
    ([[0, 0, 1, 0], [0, 1, 0, 0]], "cell [0, 1] is listed but empty"),
    ([[0, 0, 1, -1]], "at cells/0/3: -1 is less than the minimum of 0"),
    ([[0, 0, 10 ** 400, 0]], "a cell count is too large"),
], ids=["row", "column", "order", "repeat", "empty", "negative", "huge"])
def test_agent_command_refuses_a_bad_cell(cells, message):
    env = package_env()
    done = subprocess.run(
        [sys.executable, "-m", "driftworld", "agent", "--kind", "null"],
        input=encode(hello_doc(resolution=4)) + encode(observation_doc(0, cells)),
        env=env, capture_output=True, timeout=60)
    stderr = done.stderr.decode()
    assert done.returncode == 4, stderr
    assert stderr.startswith("protocol error: ") and message in stderr
    assert "Traceback" not in stderr
    assert [json.loads(line)["kind"] for line in done.stdout.splitlines()] == ["hello"]


def test_agent_command_refuses_a_hello_of_another_dim():
    # Worlds are 2-D, so a hello has no dim: one that names a dim is a
    # protocol error, not a 3-D agent whose every action is refused.
    env = package_env()
    done = subprocess.run(
        [sys.executable, "-m", "driftworld", "agent", "--kind", "null"],
        input=encode(dict(hello_doc(), dim=3)), env=env, capture_output=True,
        timeout=60)
    stderr = done.stderr.decode()
    assert done.returncode == 4, stderr
    assert stderr.startswith("protocol error: ")
    assert "additional properties are not allowed: ['dim']" in stderr
    assert done.stdout == b""


def test_stdio_requires_hello_first():
    with pytest.raises(ProtocolError):
        run_stdio_agent("null", stdin=io.BytesIO(), stdout=io.BytesIO())
    with pytest.raises(ProtocolError):
        run_stdio_agent("null", stdin=io.BytesIO(encode({"kind": "bye"})),
                        stdout=io.BytesIO())


def test_stdio_between_sessions_only_hello_or_eof():
    session = [hello_doc(), observation_doc(0), {"kind": "bye"}]
    rc, replies = stdio_session("null", session)
    assert rc == 0 and replies[-1] == {"kind": "bye"}
    for stray in ({"kind": "bye"}, observation_doc(1),
                  {"kind": "problem", "problem": PROBLEM}):
        with pytest.raises(ProtocolError, match="expected hello"):
            stdio_session("null", session + [stray])
    with pytest.raises(ProtocolError, match="inside a session"):
        stdio_session("null", [hello_doc(), hello_doc()])


@pytest.mark.parametrize("blank", [b"\n", b" \r\n"], ids=repr)
def test_stdio_refuses_a_blank_line_inside_a_session(blank):
    stdin = io.BytesIO(encode(hello_doc()) + blank + encode(observation_doc(0)))
    stdout = io.BytesIO()
    with pytest.raises(ProtocolError, match="line is not valid JSON"):
        run_stdio_agent("null", stdin=stdin, stdout=stdout)
    assert [json.loads(line)["kind"] for line in stdout.getvalue().splitlines()] \
        == ["hello"]


def session_docs(agent_seed, grids):
    """One session: a problem, one observation per grid, its score, bye."""
    return [hello_doc(agent_seed=agent_seed),
            {"kind": "problem", "problem": PROBLEM},
            *(observation_doc(t, [(0, 0, *g)]) for t, g in enumerate(grids)),
            {"kind": "score", "problem_id": 0, "solved": False, "score": 0.0,
             "tick": len(grids)},
            {"kind": "bye"}]


@pytest.mark.parametrize("kind", ["null", "random", "greedy"])
def test_stdio_sessions_match_fresh_runs(kind):
    # The random agent is seeded 7, then 8: each session draws from its
    # own hello's seed.  Greedy's state is checked directly below.
    first = session_docs(7, [[1, 0], [2, 1], [1, 3]])
    second = session_docs(8, [[1, 0], [2, 1]])
    second.insert(1, observation_doc(0))
    (_, alone_first), (_, alone_second) = (stdio_session(kind, first),
                                           stdio_session(kind, second))
    rc, both = stdio_session(kind, first + second)
    assert rc == 0
    assert both == alone_first + alone_second
    if kind == "random":
        assert alone_first[1]["forces"] != alone_second[1]["forces"]


def test_stdio_greedy_keeps_no_state_across_hello(monkeypatch):
    built = []

    def recording_make_agent(*args, **kwargs):
        built.append(make_agent(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(protocol, "make_agent", recording_make_agent)
    # Rests on a churning grid move the noise estimate; a problem on a grid
    # that never responds sets a target and lengthens the probe.
    churn = [observation_doc(0), observation_doc(1, [(0, 0, 0, 1)]),
             observation_doc(2)]
    stuck = [observation_doc(t, [(0, 0, 1, 1)]) for t in range(3, 9)]
    rc, _ = stdio_session("greedy", [
        hello_doc(), *churn, {"kind": "problem", "problem": PROBLEM}, *stuck,
        {"kind": "bye"}, hello_doc(), observation_doc(0), {"kind": "bye"}])
    assert rc == 0
    first, second = built
    fresh = make_agent("greedy", first.body)
    assert first.target is not None
    assert first.noise != fresh.noise and first.probe_len != fresh.probe_len
    assert second is not first
    assert second.target is None
    assert second.noise == fresh.noise and second.probe_len == fresh.probe_len


# ------------------------------------------------------------ subprocess side


#: A one-cell reading with nothing in it, as `sense` would return it.
EMPTY_GRID = np.zeros((1, 1, 2))


def bundled_argv(kind):
    return [sys.executable, "-m", "driftworld", "agent", "--kind", kind]


def test_subprocess_null_agent_end_to_end(body):
    agent = SubprocessAgent(bundled_argv("null"), body, horizon=20, agent_seed=0,
                            budget_s=2.0)
    try:
        assert agent.agent_name == "null"
        agent.on_problem({"id": 0, "issued_tick": 0, "target_grid": EMPTY_GRID,
                          "epsilon": 0.1, "timeout": 5})
        forces = agent.act({"tick": 0, "grid": np.array([[[1.0, 0.0]]])})
        assert forces.shape == (4, 2)
        assert np.all(forces == 0.0)
        assert agent.resources() == {"model_size": 0, "updates": 0}
        agent.on_problem_closed({"problem_id": 0, "solved": False,
                                 "score": 0.0, "tick": 5})
        assert agent.budget_misses == 0
    finally:
        agent.close()
    close_idle_agents()
    assert agent.proc.returncode == 0


def test_subprocess_random_agents_match_given_same_seed(body):
    a = SubprocessAgent(bundled_argv("random"), body, horizon=20,
                        agent_seed=99, budget_s=2.0)
    b = SubprocessAgent(bundled_argv("random"), body, horizon=20,
                        agent_seed=99, budget_s=2.0)
    try:
        fa = a.act({"tick": 0, "grid": EMPTY_GRID})
        fb = b.act({"tick": 0, "grid": EMPTY_GRID})
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
        agent = SubprocessAgent(bundled_argv("greedy"), body, horizon=6, agent_seed=0,
                                budget_s=5.0)
        try:
            run_episode(generate_world(GenSpec(seed=3)),
                        [Slot(agent_id="greedy", agent=agent, body=body)],
                        StepParams(), ProblemParams(), ScoreParams(),
                        EpisodeConfig(horizon=6, budget_s=5.0))
        finally:
            agent.close()
        close_idle_agents()
        assert agent.proc.returncode == 0
        assert agent.proc.stdin.closed and agent.proc.stdout.closed
        del agent
        gc.collect()
    assert [hook.exc_value for hook in unraisable] == []


def test_wire_agents_start_no_thread(body):
    # replies are read on the caller's thread, parked processes included
    before = threading.active_count()
    agent = SubprocessAgent(bundled_argv("greedy"), body, horizon=6, agent_seed=0,
                            budget_s=5.0)
    run_episode(generate_world(GenSpec(seed=3)),
                [Slot(agent_id="greedy", agent=agent, body=body)],
                StepParams(), ProblemParams(), ScoreParams(),
                EpisodeConfig(horizon=6, budget_s=5.0))
    counts = [threading.active_count()]
    agent.close()
    assert protocol._IDLE, "the agent answered bye, so it is parked"
    counts.append(threading.active_count())
    second = SubprocessAgent(bundled_argv("greedy"), body, horizon=6, agent_seed=0,
                             budget_s=5.0)
    assert second.proc is agent.proc
    counts.append(threading.active_count())
    second.close()
    close_idle_agents()
    counts.append(threading.active_count())
    assert counts == [before] * 4


CUT_REPLY_AGENT = r"""
import json, sys, time
out = sys.stdout.buffer
for line in sys.stdin.buffer:
    doc = json.loads(line)
    if doc["kind"] == "hello":
        out.write(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION,
                              "agent": "cut"}).encode() + b"\n")
    elif doc["kind"] == "observation":
        tick = doc["tick"]
        action = json.dumps({"kind": "action", "tick": tick,
                             "forces": [[0.5 * tick, -0.25]] * 4,
                             "resources": {"model_size": tick, "updates": 1}}).encode()
        half = len(action) // 2
        out.write(action[:half])
        out.flush()
        time.sleep(0.05)
        out.write(action[half:] + b"\n")
    elif doc["kind"] == "bye":
        out.write(b'{"kind": "bye"}\n')
    out.flush()
"""


def test_subprocess_reply_cut_across_reads(body, tmp_path):
    # an action line in two writes
    script = tmp_path / "cut.py"
    write_agent(script, CUT_REPLY_AGENT)
    agent = SubprocessAgent([sys.executable, str(script)], body,
                            horizon=20, agent_seed=0, budget_s=2.0)
    try:
        for tick in range(3):
            forces = agent.act({"tick": tick, "grid": EMPTY_GRID})
            assert forces.tolist() == [[0.5 * tick, -0.25]] * 4
            assert agent.resources() == {"model_size": tick, "updates": 1}
        assert agent.budget_misses == 0
    finally:
        agent.close()
    assert protocol._IDLE, "the agent answered bye, so it is parked"


UNTERMINATED_HELLO_AGENT = r"""
import json, sys
sys.stdin.readline()
sys.stdout.write(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION,
                             "agent": "terse"}))  # no newline, then EOF
"""


def test_last_line_without_newline_is_a_line(body, tmp_path):
    script = tmp_path / "terse.py"
    write_agent(script, UNTERMINATED_HELLO_AGENT)
    agent = SubprocessAgent([sys.executable, str(script)], body, horizon=20,
                            agent_seed=0)
    assert agent.agent_name == "terse"
    agent.close()  # it has exited, so it is shut down, not parked
    assert protocol._IDLE == {}
    assert agent.proc.returncode == 0 and agent.proc.stdout.closed


class CountingPipe:
    """A pipe that keeps what each `write` was given."""

    def __init__(self, pipe):
        self.pipe, self.writes = pipe, []

    def write(self, data):
        self.writes.append(data)
        return self.pipe.write(data)

    def __getattr__(self, name):
        return getattr(self.pipe, name)


def test_one_pipe_write_per_tick(body, monkeypatch):
    # problem and score messages ride with the next observation, or the bye
    pipes, spawn = [], protocol._spawn

    def counting_spawn(argv):
        proc = spawn(argv)
        proc.stdin = CountingPipe(proc.stdin)
        pipes.append(proc.stdin)
        return proc

    monkeypatch.setattr(protocol, "_spawn", counting_spawn)
    close_idle_agents()  # the agent must be spawned, not taken from the park
    horizon = 30
    agent = SubprocessAgent(bundled_argv("greedy"), body, horizon=horizon,
                            agent_seed=0, budget_s=5.0)
    try:
        run_episode(generate_world(GenSpec(seed=3)),
                    [Slot(agent_id="greedy", agent=agent, body=body)],
                    StepParams(), ProblemParams(), ScoreParams(),
                    EpisodeConfig(horizon=horizon, budget_s=5.0))
    finally:
        agent.close()
    close_idle_agents()
    [pipe] = pipes
    kinds = [[json.loads(line)["kind"] for line in data.splitlines()]
             for data in pipe.writes]
    assert len(kinds) == 1 + horizon + 1
    assert kinds[0] == ["hello"] and kinds[-1][-1] == "bye"
    assert all(k[-1] == "observation" for k in kinds[1:-1])
    assert "problem" in sum(kinds, []) and "score" in sum(kinds, [])


def write_agent(path, source, **names):
    """Write a hand-written agent script with `PROTOCOL_VERSION` and
    `names` bound at its top."""
    names = {"PROTOCOL_VERSION": PROTOCOL_VERSION, **names}
    path.write_text("".join(f"{k} = {v!r}\n" for k, v in names.items()) + source)


SLOW_AGENT = r"""
import json, sys, time
line = sys.stdin.readline()
sys.stdout.write(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION,
                             "agent": "sloth"}) + "\n")
sys.stdout.flush()
first = True
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "observation":
        if first:
            time.sleep(0.4)
            first = False
        sys.stdout.write(json.dumps({
            "kind": "action", "tick": doc["tick"], "forces": [[1.0, 1.0]] * 4,
            "resources": {"model_size": 0, "updates": 0},
        }) + "\n")
        sys.stdout.flush()
    elif doc["kind"] == "bye":
        break
"""


def test_subprocess_budget_overrun_substitutes_zero_action(body, tmp_path):
    script = tmp_path / "sloth.py"
    write_agent(script, SLOW_AGENT)
    agent = SubprocessAgent([sys.executable, str(script)], body,
                            horizon=20, agent_seed=0, budget_s=0.05)
    try:
        forces = agent.act({"tick": 0, "grid": EMPTY_GRID})
        assert np.all(forces == 0.0)
        assert agent.budget_misses == 1

        # Once the backlog lands, the stale reply is discarded by its tick
        # tag and the fresh reply comes through untouched.
        time.sleep(0.6)
        forces = agent.act({"tick": 1, "grid": EMPTY_GRID})
        assert np.all(forces == 1.0)
        assert agent.budget_misses == 1
    finally:
        agent.close()


LATE_REPLY_AGENT = r"""
import json, sys, time
sys.stdin.readline()
sys.stdout.write(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION,
                             "agent": "late"}) + "\n")
sys.stdout.flush()
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "observation":
        if doc["tick"] == 2:
            time.sleep(0.6)
        sys.stdout.write(json.dumps({
            "kind": "action", "tick": doc["tick"], "forces": [[1.0, 1.0]] * 4,
            "resources": {"model_size": doc["tick"], "updates": 0},
        }) + "\n")
        sys.stdout.flush()
    elif doc["kind"] == "bye":
        break
"""


def test_subprocess_late_resources_are_a_budget_miss(body, tmp_path):
    script = tmp_path / "late.py"
    write_agent(script, LATE_REPLY_AGENT)
    agent = SubprocessAgent([sys.executable, str(script)], body,
                            horizon=20, agent_seed=0, budget_s=0.2)
    try:
        for tick in (0, 1):
            assert np.all(agent.act({"tick": tick, "grid": EMPTY_GRID}) == 1.0)
            assert agent.resources() == {"model_size": tick, "updates": 0}
        assert agent.budget_misses == 0

        # The reply, which carries the resources, is late: its forces are
        # replaced by zeros and the last declaration stands in for it.
        forces = agent.act({"tick": 2, "grid": EMPTY_GRID})
        assert np.all(forces == 0.0)
        assert agent.budget_misses == 1
        assert agent.resources() == {"model_size": 1, "updates": 0}

        # The late reply is dropped by its tick when it lands; the next
        # reply stands.
        time.sleep(0.6)
        forces = agent.act({"tick": 3, "grid": EMPTY_GRID})
        assert np.all(forces == 1.0)
        assert agent.budget_misses == 1
        assert agent.resources() == {"model_size": 3, "updates": 0}
    finally:
        agent.close()
    close_idle_agents()
    assert agent.proc.returncode == 0


BAD_HELLO_AGENT = r"""
import json, sys
sys.stdin.readline()
sys.stdout.write(json.dumps({
    "kind": "hello", "protocol": PROTOCOL_VERSION, "agent": "x", "secrets": True,
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
    write_agent(script, BAD_HELLO_AGENT)
    started = started_processes(monkeypatch)
    with pytest.raises(ProtocolError):
        SubprocessAgent([sys.executable, str(script)], body, horizon=20, agent_seed=0)
    # The agent blocks on stdin forever; a failed handshake must reap it.
    assert len(started) == 1
    assert started[0].poll() is not None


def test_subprocess_handshake_timeout_reaps_agent(body, tmp_path, monkeypatch):
    script = tmp_path / "silent.py"
    script.write_text(SILENT_AGENT)
    started = started_processes(monkeypatch)
    monkeypatch.setattr(protocol, "HELLO_TIMEOUT_S", 0.3)
    with pytest.raises(ProtocolError, match="in time"):
        SubprocessAgent([sys.executable, str(script)], body, horizon=20, agent_seed=0)
    assert len(started) == 1
    assert started[0].poll() is not None


WRONG_SHAPE_AGENT = r"""
import json, sys
sys.stdin.readline()
sys.stdout.write(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION,
                             "agent": "w"}) + "\n")
sys.stdout.flush()
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "observation":
        sys.stdout.write(json.dumps({
            "kind": "action", "tick": doc["tick"], "forces": [[1.0, 1.0]],
            "resources": {"model_size": 0, "updates": 0},
        }) + "\n")
        sys.stdout.flush()
    elif doc["kind"] == "bye":
        break
"""


def test_subprocess_agent_refuses_other_dims_before_spawning(body, monkeypatch):
    def no_spawn(argv):
        raise AssertionError("spawned an agent for a refused dim")

    monkeypatch.setattr(protocol, "_spawn", no_spawn)
    started = started_processes(monkeypatch)
    for dim in (1, 3):
        with pytest.raises(ConfigError, match="dim must be 2"):
            SubprocessAgent(bundled_argv("null"), body, dim, horizon=20, agent_seed=0)
    assert started == [] and protocol._IDLE == {}


def test_subprocess_rejects_wrong_action_shape(body, tmp_path):
    script = tmp_path / "wrong_shape.py"
    write_agent(script, WRONG_SHAPE_AGENT)
    agent = SubprocessAgent([sys.executable, str(script)], body,
                            horizon=20, agent_seed=0, budget_s=2.0)
    try:
        with pytest.raises(ProtocolError):
            agent.act({"tick": 0, "grid": EMPTY_GRID})
    finally:
        agent.close()


# ------------------------------------------------------------------ sessions


def test_subprocess_agents_of_one_argv_share_a_process(body):
    # Each session's random agent is seeded by its own hello, as a fresh
    # process would be.
    forces, pids = [], []
    for seed in (7, 8):
        agent = SubprocessAgent(bundled_argv("random"), body, horizon=20,
                                agent_seed=seed, budget_s=2.0)
        try:
            forces.append(agent.act({"tick": 0, "grid": EMPTY_GRID}))
            pids.append(agent.proc.pid)
        finally:
            agent.close()
        agent.close()  # a no-op, so the parked process stays usable
    assert pids[0] == pids[1]
    for seed, got in zip((7, 8), forces):
        local = make_agent("random", body, stream=agent_stream(seed))
        assert np.array_equal(got, local.act({"tick": 0, "grid": EMPTY_GRID}))
    other = SubprocessAgent(bundled_argv("null"), body, horizon=20, agent_seed=0)
    try:
        assert other.proc.pid != pids[0]
    finally:
        other.close()


SESSION_AGENT = r"""
import json, sys, time
sessions, slow = 0, True
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "hello":
        sessions += 1
        print(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION,
                          "agent": "s"}), flush=True)
    elif doc["kind"] == "observation":
        if slow:
            time.sleep(0.4)
            slow = False
        print(json.dumps({"kind": "action", "tick": doc["tick"],
                          "forces": [[sessions, sessions]] * 4,
                          "resources": {"model_size": sessions, "updates": 0}}),
              flush=True)
    elif doc["kind"] == "bye":
        print(json.dumps({"kind": "bye"}), flush=True)
        if ONE_SESSION:
            break
"""


def session_agent(tmp_path, one_session):
    script = tmp_path / "session.py"
    write_agent(script, SESSION_AGENT, ONE_SESSION=one_session)
    return [sys.executable, str(script)]


def test_subprocess_close_drains_an_overrun_in_flight(body, tmp_path):
    argv = session_agent(tmp_path, one_session=False)
    first = SubprocessAgent(argv, body, horizon=20, agent_seed=0, budget_s=0.05)
    try:
        assert np.all(first.act({"tick": 0, "grid": EMPTY_GRID}) == 0.0)
        assert first.budget_misses == 1
    finally:
        first.close()  # the late tick-0 reply lands during close
    second = SubprocessAgent(argv, body, horizon=20, agent_seed=0, budget_s=2.0)
    try:
        assert second.proc.pid == first.proc.pid
        # Session 2's own tick-0 reply, not the first session's late one.
        assert np.all(second.act({"tick": 0, "grid": EMPTY_GRID}) == 2.0)
        assert second.resources() == {"model_size": 2, "updates": 0}
        assert second.budget_misses == 0
    finally:
        second.close()


def test_subprocess_agent_gone_after_bye_is_replaced(body, tmp_path, monkeypatch):
    argv = session_agent(tmp_path, one_session=True)
    started = started_processes(monkeypatch)
    first = SubprocessAgent(argv, body, horizon=20, agent_seed=0, budget_s=2.0)
    first.close()  # it answers bye, is parked, then exits
    first.proc.wait(timeout=10)
    second = SubprocessAgent(argv, body, horizon=20, agent_seed=0, budget_s=2.0)
    try:
        assert len(started) == 2 and second.proc is started[1]
        assert first.proc.stdout.closed
        # A fresh process: this is its first session.
        assert np.all(second.act({"tick": 0, "grid": EMPTY_GRID}) == 1.0)
    finally:
        second.close()


def test_forked_child_never_takes_the_parents_process(body):
    argv = bundled_argv("null")
    agent = SubprocessAgent(argv, body, horizon=20, agent_seed=0, budget_s=2.0)
    agent.close()
    parked = agent.proc.pid
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a process with threads may deadlock.
        warnings.simplefilter("ignore", DeprecationWarning)
        child = os.fork()
    if child == 0:
        code = 1
        try:
            os.close(read_end)
            theirs = SubprocessAgent(argv, body, horizon=20, agent_seed=0,
                                     budget_s=2.0)
            os.write(write_end, str(theirs.proc.pid).encode())
            theirs.close()
            close_idle_agents()
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    # A child that took the parent's process could hang on it, or on a
    # pipe lock held at the fork: give it a deadline.
    deadline = time.monotonic() + 30.0
    while (done := os.waitpid(child, os.WNOHANG))[0] == 0 \
            and time.monotonic() < deadline:
        time.sleep(0.05)
    if done[0] == 0:
        os.kill(child, signal.SIGKILL)
        os.waitpid(child, 0)
    with os.fdopen(read_end, "rb") as fh:
        theirs = fh.read()
    assert done[0] == child and done[1] == 0
    assert int(theirs) != parked
    mine = SubprocessAgent(argv, body, horizon=20, agent_seed=0, budget_s=2.0)
    try:
        assert mine.proc.pid == parked
    finally:
        mine.close()


LINGERING_AGENT = r"""
import json, sys, time
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "hello":
        print(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION,
                          "agent": "l"}), flush=True)
    elif doc["kind"] == "bye":
        print(json.dumps({"kind": "bye"}), flush=True)
time.sleep(30)  # outlives its stdin: only the harness's shutdown ends it
"""

OPEN_AND_EXIT = r"""
import sys
from driftworld import protocol
from driftworld.interface import BodySpec
body = BodySpec(member_ids=(0, 1), resolution=4, window_halfwidth=8.0, f_max=4.0)
agent = protocol.SubprocessAgent([sys.executable, sys.argv[1]], body, horizon=5,
                                 agent_seed=0)
agent.close()
assert protocol._IDLE, "the agent answered bye, so it is parked"
print(agent.proc.pid)
"""


def test_exiting_harness_leaves_no_agent_process(tmp_path):
    script = tmp_path / "lingering.py"
    write_agent(script, LINGERING_AGENT)
    env = package_env()
    done = subprocess.run([sys.executable, "-c", OPEN_AND_EXIT, str(script)],
                          env=env, capture_output=True, text=True, check=True,
                          timeout=60)
    with pytest.raises(ProcessLookupError):
        os.kill(int(done.stdout), 0)


FORKING_AGENT = r"""
import json, subprocess, sys
# the child inherits this process's stdout and outlives it
child = subprocess.Popen([sys.executable, "-c", "import time; time.sleep(30)"])
with open(PID_FILE, "w") as fh:
    fh.write(str(child.pid))
for line in sys.stdin:
    kind = json.loads(line)["kind"]
    if kind == "hello":
        print(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION,
                          "agent": "f"}), flush=True)
    elif kind == "bye":
        print(json.dumps({"kind": "bye"}), flush=True)
"""


def test_grandchild_holding_stdout_does_not_stall_teardown(body, tmp_path):
    script, pid_file = tmp_path / "forking.py", tmp_path / "child.pid"
    write_agent(script, FORKING_AGENT, PID_FILE=str(pid_file))
    agent = SubprocessAgent([sys.executable, str(script)], body, horizon=20,
                            agent_seed=0)
    try:
        agent.close()  # it answers bye, so it is parked
        started = time.monotonic()
        close_idle_agents()  # EOF: the agent exits, its child lives on
        took = time.monotonic() - started
        assert agent.proc.returncode == 0
        assert agent.proc.stdout.closed
        assert took < 1.0
    finally:
        os.kill(int(pid_file.read_text()), signal.SIGKILL)
