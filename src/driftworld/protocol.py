"""Newline-delimited JSON protocol between harness and external agents.

One JSON object per line, schema-validated in both directions with
closed schemas (unknown fields are rejected, not ignored), so the
message set itself is the information bottleneck: there is no field an
agent could read law coefficients or raw coordinates from.

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
import queue
import subprocess
import sys
import threading

import numpy as np

from .canon import canonical_dumps
from .errors import ConfigError, ProtocolError
from .interface import BodySpec
from .rng import agent_stream

PROTOCOL_VERSION = 1

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

SCHEMAS: dict[tuple[str, str], dict] = {
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


def _build_validators():
    import jsonschema

    return {
        key: jsonschema.Draft7Validator(schema) for key, schema in SCHEMAS.items()
    }


_VALIDATORS = _build_validators()


def validate_message(direction: str, doc) -> str:
    """Check a decoded message against its closed schema; returns the kind."""
    if not isinstance(doc, dict):
        raise ProtocolError("message must be a JSON object")
    kind = doc.get("kind")
    if not isinstance(kind, str):
        raise ProtocolError("message is missing its kind")
    validator = _VALIDATORS.get((direction, kind))
    if validator is None:
        raise ProtocolError(f"kind {kind!r} is not valid {direction}")
    errors = sorted(validator.iter_errors(doc), key=lambda e: list(e.path))
    if errors:
        first = errors[0]
        where = "/".join(str(p) for p in first.path) or "<root>"
        raise ProtocolError(f"invalid {kind!r} message at {where}: {first.message}")
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
        body.validate()
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
            "body": body.to_dict(),
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
        import time

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
        try:
            self._send({"kind": "bye"})
        except ProtocolError:
            pass
        try:
            self.proc.stdin.close()
        except OSError:
            pass
        try:
            self.proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            self.proc.terminate()
            try:
                self.proc.wait(timeout=2.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


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

    body = BodySpec.from_dict(hello["body"])
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
