"""Newline-delimited JSON protocol between harness and external agents.

One JSON object per line, schema-validated in both directions with
closed schemas (unknown fields are rejected, not ignored), so the
message set itself is the information bottleneck: there is no field an
agent could read law coefficients or raw coordinates from.

Validation is the package's one JSON checker, `_first_error`, over
`SCHEMAS` and the trace's `trace.SCHEMAS`, built from the pieces below.
It implements the JSON Schema Draft-07 keywords they use, with Draft-7's
meanings (a bool is no number, 1.0 is an integer), names the path of the
first failure, and refuses at import a keyword it lacks.  Both ends check
every message they send and receive; the harness checking its own
messages is the secrecy guard.

Exchange per tick: harness sends an observation, the agent replies with
exactly two lines, an action then a resources declaration.  Problem
lifecycle travels as problem / score messages, session lifecycle as
hello / bye.  The harness side enforces a wall-clock reply budget and
substitutes a zero action when an agent overruns; the optional tick
field on actions lets it discard stale replies afterwards.
"""

from __future__ import annotations

import contextlib
import json
import numbers
import queue
import subprocess
import sys
import threading
import time

import numpy as np

from .canon import canonical_dumps, from_doc, to_doc
from .errors import ConfigError, ProtocolError
from .interface import BodySpec
from .rng import agent_stream

PROTOCOL_VERSION = 1

_NUM = {"type": "number"}
_INDEX = {"type": "integer", "minimum": 0}
_SIZE = {"type": "integer", "minimum": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_AMOUNT = {"type": "number", "minimum": 0}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_GRID = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "minItems": 1, "items": _PAIR},
}
_FORCES = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "items": _NUM, "minItems": 1},
}


def _closed(properties: dict, optional: tuple = ()) -> dict:
    """A closed object schema: every property is required unless named optional."""
    return {
        "type": "object",
        "properties": properties,
        "required": [k for k in properties if k not in optional],
        "additionalProperties": False,
    }


def _message(kind: str, optional: tuple = (), **properties) -> dict:
    """The closed schema of one message kind, led by its `kind` const."""
    return _closed({"kind": {"const": kind}, **properties}, optional)


_BODY = _closed({"member_ids": {"type": "array", "items": _INDEX, "minItems": 1},
                 "resolution": _SIZE, "window_halfwidth": _POSITIVE,
                 "f_max": _POSITIVE})
_PROBLEM = _closed({"id": _INDEX, "issued_tick": _INDEX, "target_grid": _GRID,
                    "epsilon": _POSITIVE, "timeout": _SIZE})
_RESOURCES = {"model_size": _AMOUNT, "updates": _AMOUNT}
_VERSION = {"const": PROTOCOL_VERSION}

SCHEMAS: dict[tuple[str, str], dict] = {
    ("to_agent", "hello"): _message(
        "hello", optional=("agent_seed",), protocol=_VERSION, dim=_SIZE,
        horizon=_SIZE, body=_BODY, agent_seed=_INDEX),
    ("from_agent", "hello"): _message(
        "hello", protocol=_VERSION, agent={"type": "string", "minLength": 1}),
    ("to_agent", "problem"): _message("problem", problem=_PROBLEM),
    ("to_agent", "observation"): _message("observation", tick=_INDEX, grid=_GRID),
    ("from_agent", "action"): _message(
        "action", optional=("tick",), forces=_FORCES, tick=_INDEX),
    ("from_agent", "resources"): _message("resources", **_RESOURCES),
    ("to_agent", "score"): _message(
        "score", problem_id=_INDEX, solved={"type": "boolean"}, score=_NUM,
        tick=_INDEX),
    ("to_agent", "bye"): _message("bye"),
    ("from_agent", "bye"): _message("bye"),
}


#: The JSON Schema Draft-7 keywords `_first_error` implements.
_KEYWORDS = frozenset({
    "type", "const", "minimum", "exclusiveMinimum", "minLength", "minItems",
    "maxItems", "items", "properties", "required", "additionalProperties",
})

#: Number types a fast path takes as they are; anything else (a bool, a
#: numpy scalar, a subclass) goes through `_TYPES` with its Draft-7 meaning.
_PLAIN = (int, float)


def _is_number(v) -> bool:
    return type(v) in _PLAIN or (isinstance(v, numbers.Number)
                                 and not isinstance(v, bool))


# Draft-7 type meanings: a bool is no number, an integral float is an
# integer, and a numpy scalar counts by its Python base class
# (np.float64 is a float, np.int64 only a Number).
_TYPES = {
    "null": lambda v: v is None,
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "number": _is_number,
    "integer": lambda v: (v.is_integer() if isinstance(v, float)
                          else isinstance(v, int) and not isinstance(v, bool)),
}


def _first_error(v, s: dict, types: dict = _TYPES):
    """(path, message) of the first Draft-7 failure of `v` against `s`, or None;
    the path of a missing property ends in its name.  `types` gives each
    type its meaning.  An object's or array's own keywords come first."""
    t = s.get("type")
    if t is not None and not (types[t](v) if type(t) is str
                              else any(types[name](v) for name in t)):
        return (), f"{v!r} is not of type {t!r}"
    if "const" in s:  # True and False equal only themselves, never 1 or 0
        c = s["const"]
        if not (v is c or (v is not True and v is not False and v == c)):
            return (), f"{c!r} was expected"
    if isinstance(v, dict):
        props = s.get("properties", {})
        for k in s.get("required", ()):
            if k not in v:
                return (k,), f"{k!r} is a required property"
        rest = s.get("additionalProperties", True)
        if rest is False and (extra := [k for k in v if k not in props]):
            return (), f"additional properties are not allowed: {extra}"
        for k, x in v.items():  # a member no schema names is unchecked
            sub = props.get(k, rest)
            if sub is not True and (err := _first_error(x, sub, types)):
                return (k, *err[0]), err[1]
    elif isinstance(v, list):
        if len(v) < s.get("minItems", 0):
            return (), f"has {len(v)} items, fewer than {s['minItems']}"
        if "maxItems" in s and len(v) > s["maxItems"]:
            return (), f"has {len(v)} items, more than {s['maxItems']}"
        items = s.get("items")
        if items is _PAIR and all(  # grid rows: pairs of plain numbers
                type(p) is list and len(p) == 2
                and type(p[0]) in _PLAIN and type(p[1]) in _PLAIN for p in v):
            return None
        if items is _FORCES["items"] and all(  # force rows of plain numbers
                type(p) is list and p and all(type(x) in _PLAIN for x in p)
                for p in v):
            return None
        if items is not None:
            for i, x in enumerate(v):
                if err := _first_error(x, items, types):
                    return (i, *err[0]), err[1]
    elif isinstance(v, str):
        if len(v) < s.get("minLength", 0):
            return (), f"{v!r} is shorter than {s['minLength']}"
    elif _is_number(v):
        if "minimum" in s and v < s["minimum"]:
            return (), f"{v!r} is less than the minimum of {s['minimum']!r}"
        if "exclusiveMinimum" in s and v <= s["exclusiveMinimum"]:
            return (), f"{v!r} is not greater than {s['exclusiveMinimum']!r}"
    return None


def _check_keywords(schemas: dict) -> None:
    """Raise ValueError if a schema uses anything `_first_error` does not implement.

    Runs once at import, so a later schema edit cannot be skipped silently.
    """
    def walk(s, where):
        if not isinstance(s, dict):
            raise ValueError(f"schema {where} is not an object")
        unknown = sorted(set(s) - _KEYWORDS)
        if unknown:
            raise ValueError(f"schema {where} uses unsupported keywords {unknown}")
        t = s.get("type", "object")
        if not (t in _TYPES if type(t) is str else type(t) is list and t
                and all(type(n) is str and n in _TYPES for n in t)):
            raise ValueError(f"schema {where} has unsupported type {t!r}")
        # _first_error's const test is Draft-7's only for non-bool scalars
        if type(s.get("const", "")) not in (str, int, float):
            raise ValueError(f"schema {where}: const must be a string or a number")
        if "items" in s:
            walk(s["items"], f"{where}/items")
        if s.get("additionalProperties", False) is not False:
            walk(s["additionalProperties"], f"{where}/additionalProperties")
        for k, sub in s.get("properties", {}).items():
            walk(sub, f"{where}/{k}")

    for key, schema in schemas.items():
        walk(schema, "/".join(key))


_check_keywords(SCHEMAS)


def validate_message(direction: str, doc) -> str:
    """Check a decoded message against its closed schema; returns the kind."""
    if not isinstance(doc, dict):
        raise ProtocolError("message must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise ProtocolError("message is missing its kind")
    schema = SCHEMAS.get((direction, kind))
    if schema is None:
        raise ProtocolError(f"kind {kind!r} is not valid {direction}")
    err = _first_error(doc, schema)
    if err:
        path, message = err
        where = "/".join(str(p) for p in path) or "<root>"
        raise ProtocolError(f"invalid {kind!r} message at {where}: {message}")
    return kind


def parse_line(direction: str, line: str) -> dict:
    try:
        doc = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"line is not valid JSON: {exc}") from exc
    validate_message(direction, doc)
    return doc


def encode(doc: dict) -> str:
    return canonical_dumps(doc) + "\n"


# -- harness side ----------------------------------------------------------


class _LineReader:
    """Background reader so replies can be awaited with a deadline."""

    def __init__(self, pipe):
        self._queue: queue.Queue = queue.Queue()
        self._thread = threading.Thread(target=self._pump, args=(pipe,), daemon=True)
        self._thread.start()

    def _pump(self, pipe) -> None:
        for line in pipe:
            self._queue.put(line)
        self._queue.put(None)

    def get(self, timeout: float | None):
        try:
            return self._queue.get(timeout=timeout)
        except queue.Empty:
            return _TIMEOUT

    def join(self, timeout: float) -> bool:
        """Wait for the pipe's EOF; whether the reader has ended."""
        self._thread.join(timeout)
        return not self._thread.is_alive()


_TIMEOUT = object()


class SubprocessAgent:
    """Drives one external agent process over the line protocol.

    Presents the same act / resources / lifecycle surface as the
    in-process agents.  A reply that misses the per-tick budget is
    replaced by a zero action; the late lines are discarded on later
    ticks via their tick tags.  Malformed or out-of-schema traffic is a
    hard protocol error.
    """

    kind = "subprocess"
    reportable = True

    def __init__(self, argv: list[str], body: BodySpec, dim: int, horizon: int,
                 agent_seed: int | None = None, budget_s: float = 0.05,
                 hello_timeout_s: float = 5.0):
        self.body = body
        self.dim = dim
        self.n_members = len(body.member_ids)
        self.budget_s = budget_s
        self.budget_misses = 0
        self._stale_pairs = 0
        self._last_resources = {"model_size": 0, "updates": 0}
        self.proc = subprocess.Popen(
            argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True, bufsize=1,
        )
        self._reader = _LineReader(self.proc.stdout)

        hello = {
            "kind": "hello",
            "protocol": PROTOCOL_VERSION,
            "dim": dim,
            "horizon": horizon,
            "body": to_doc(body),
        }
        if agent_seed is not None:
            hello["agent_seed"] = int(agent_seed)
        try:
            self._send(hello)
            reply = self._recv(hello_timeout_s)
            if reply is None:
                raise ProtocolError("agent closed its pipe during handshake")
            if reply is _TIMEOUT:
                raise ProtocolError("agent did not answer the handshake in time")
            doc = parse_line("from_agent", reply)
            if doc["kind"] != "hello":
                raise ProtocolError(f"expected hello, got {doc['kind']!r}")
        except ProtocolError:
            # The constructor raised, so no caller can close() this agent.
            self.proc.kill()
            self.proc.wait()
            with contextlib.suppress(OSError):
                self.proc.stdin.close()
            self._close_stdout()
            raise
        self.agent_name = doc["agent"]

    def _send(self, doc: dict) -> None:
        validate_message("to_agent", doc)
        try:
            self.proc.stdin.write(encode(doc))
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise ProtocolError("agent pipe is closed") from exc

    def _recv(self, timeout: float):
        return self._reader.get(timeout)

    def on_problem(self, payload: dict) -> None:
        self._send({"kind": "problem", "problem": payload})

    def on_problem_closed(self, payload: dict) -> None:
        self._send({"kind": "score", **payload})

    def act(self, observation: dict) -> np.ndarray:
        self._send({"kind": "observation", **observation})
        deadline = time.monotonic() + self.budget_s
        tick = observation["tick"]

        action_doc = None
        while action_doc is None:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.budget_misses += 1
                return np.zeros((self.n_members, self.dim))
            line = self._recv(remaining)
            if line is _TIMEOUT:
                self.budget_misses += 1
                return np.zeros((self.n_members, self.dim))
            if line is None:
                raise ProtocolError("agent closed its pipe mid-episode")
            doc = parse_line("from_agent", line)
            if doc["kind"] == "resources" and self._stale_pairs > 0:
                self._stale_pairs -= 1  # companion of a discarded action
                continue
            if doc["kind"] != "action":
                raise ProtocolError(f"expected action, got {doc['kind']!r}")
            if "tick" in doc and doc["tick"] != tick:
                self._stale_pairs += 1
                continue  # stale reply from an earlier overrun
            action_doc = doc

        remaining = deadline - time.monotonic()
        line = self._recv(max(remaining, 0.001))
        if line is _TIMEOUT:
            self.budget_misses += 1
            return self._to_forces(action_doc)
        if line is None:
            raise ProtocolError("agent closed its pipe mid-episode")
        doc = parse_line("from_agent", line)
        if doc["kind"] != "resources":
            raise ProtocolError(f"expected resources, got {doc['kind']!r}")
        self._last_resources = {
            "model_size": doc["model_size"], "updates": doc["updates"],
        }
        return self._to_forces(action_doc)

    def _to_forces(self, doc: dict) -> np.ndarray:
        forces = np.asarray(doc["forces"], dtype=np.float64)
        if forces.shape != (self.n_members, self.dim):
            raise ProtocolError(
                f"action shape {forces.shape} does not match body "
                f"({self.n_members}, {self.dim})"
            )
        return forces

    def resources(self) -> dict:
        return dict(self._last_resources)

    def close(self) -> None:
        with contextlib.suppress(ProtocolError):
            self._send({"kind": "bye"})
        with contextlib.suppress(OSError):
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._close_stdout()

    def _close_stdout(self) -> None:
        """Close the reaped child's stdout once the reader has met its EOF.
        A process the child started may hold the pipe open; then the
        reader is still blocked in it and the pipe is left alone."""
        if self._reader.join(timeout=2.0):
            self.proc.stdout.close()


# -- agent side ------------------------------------------------------------


def run_stdio_agent(kind: str, stdin=None, stdout=None) -> int:
    """Serve one bundled agent over stdin/stdout until bye or EOF.

    The oracle is deliberately unavailable here: its input is the hidden
    script, which never crosses the wire.
    """
    from .agents import make_agent

    if kind == "oracle":
        raise ConfigError("the oracle agent cannot run over the wire")
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    line = stdin.readline()
    if not line:
        raise ProtocolError("no hello received")
    hello = parse_line("to_agent", line)
    if hello["kind"] != "hello":
        raise ProtocolError(f"expected hello, got {hello['kind']!r}")

    body = from_doc(BodySpec, hello["body"])
    dim = hello["dim"]
    stream = None
    if kind == "random":
        stream = agent_stream(hello.get("agent_seed", 0))
    agent = make_agent(kind, body, dim, stream=stream)

    stdout.write(encode({"kind": "hello", "protocol": PROTOCOL_VERSION,
                         "agent": kind}))
    stdout.flush()

    for line in stdin:
        if not line.strip():
            continue
        doc = parse_line("to_agent", line)
        if doc["kind"] == "problem":
            agent.on_problem(doc["problem"])
        elif doc["kind"] == "observation":
            forces = agent.act(doc)
            stdout.write(encode({
                "kind": "action",
                "forces": [[float(v) for v in row] for row in forces],
                "tick": doc["tick"],
            }))
            res = agent.resources()
            stdout.write(encode({
                "kind": "resources",
                "model_size": res["model_size"],
                "updates": res["updates"],
            }))
            stdout.flush()
        elif doc["kind"] == "score":
            agent.on_problem_closed(doc)
        elif doc["kind"] == "bye":
            stdout.write(encode({"kind": "bye"}))
            stdout.flush()
            break
    return 0
