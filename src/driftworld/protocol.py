"""Newline-delimited JSON protocol between harness and external agents.

One JSON object per UTF-8 line, schema-validated in both directions
with closed schemas (unknown fields are rejected, not ignored, and every
field is required), so the message set itself is the information
bottleneck: there is no field an agent could read law coefficients or
raw coordinates from.

Validation is the package's one JSON checker, `_first_error`, over
`SCHEMAS` and the trace's `trace.SCHEMAS`, built from the pieces below.
It implements the JSON Schema Draft-07 keywords they use, with the types
of `canon.JSON_TYPES` (a bool is no number, 1.0 is no integer) and
`const` compared by exact type (4.0 is no version 4), names the path of
the first failure, and refuses at import a keyword it lacks.  Both ends
check every message they send and receive; the harness checking its own
messages is the secrecy guard.

Exchange per tick: harness sends an observation, the agent replies with
exactly one line, an action tagged with the observation's tick that
carries its forces and its resources declaration.  Problem lifecycle
travels as problem / score messages, session lifecycle as hello / bye;
the agent has `HELLO_TIMEOUT_S` to answer each.  The harness holds
problem and score messages until its next observation or bye, and
writes them with it, so it makes one pipe write per tick.

A grid travels as its occupied cells: one `[row, column, positive,
negative]` per cell holding a count, in row-major order, empty cells
left out (`grid_cells`).  That holds for an observation's `cells` and a
problem's `target_cells`.  Besides the schema, the agent side refuses a
row or column not below the body's resolution, cells not strictly in
row-major order and a listed empty cell, then rebuilds the read-only
float64 `(R, R, 2)` grid an in-process agent is given (`cells_grid`).

There are sessions: one agent process may serve several episodes in a
row.  The agent answers `bye` with `bye` and then waits for the next
line, which is another `hello` (a new session, with nothing carried over
from the last) or EOF (exit).  The harness parks a process that said
`bye` and hands it to the next `SubprocessAgent` built with the same
argv in the same process, so start-up is paid once per process, not once
per episode; `close_idle_agents` (run at exit) ends the parked ones.
The harness reads replies on the caller's thread, polling the pipe until
the reply's deadline.  It enforces a wall-clock reply budget per tick: a
reply that misses it is one budget miss, its forces are replaced by a
zero action and the last declaration stands.  A reply tagged with an
earlier tick is dropped when it arrives; one tagged with a later tick is
a protocol error.  Both ends read their pipes as bytes and decode each
line with `canon.canonical_loads`, so a line that is not UTF-8, a blank
line and `NaN` and `Infinity` are refused, and the harness refuses any
force or resource that is not finite (`1e400` decodes to an infinity):
all are protocol errors, as is an unparsable or out-of-schema line.  A
protocol error in a hello or a tick's reply kills the process at once.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import os
import select
import subprocess
import sys
import time

import numpy as np

from .agents import BaseAgent, make_agent
from .canon import JSON_TYPES, canonical_dumps, canonical_loads, from_doc, to_doc
from .errors import ConfigError, ContractViolation, ProtocolError
from .interface import BodySpec, _checked_forces
from .rng import agent_stream

PROTOCOL_VERSION = 4

_NUM = {"type": "number"}
_INDEX = {"type": "integer", "minimum": 0}
_SIZE = {"type": "integer", "minimum": 1}
_POSITIVE = {"type": "number", "exclusiveMinimum": 0}
_AMOUNT = {"type": "number", "minimum": 0}
#: One occupied sensor cell: row, column, positive count, negative count.
_CELL = {"type": "array", "items": _INDEX, "minItems": 4, "maxItems": 4}
_CELLS = {"type": "array", "items": _CELL}
_FORCES = {
    "type": "array",
    "minItems": 1,
    "items": {"type": "array", "items": _NUM, "minItems": 1},
}


def _closed(properties: dict) -> dict:
    """A closed object schema: every property is required."""
    return {
        "type": "object",
        "properties": properties,
        "required": list(properties),
        "additionalProperties": False,
    }


def _message(kind: str, **properties) -> dict:
    """The closed schema of one message kind, led by its `kind` const."""
    return _closed({"kind": {"const": kind}, **properties})


_BODY = _closed({"member_ids": {"type": "array", "items": _INDEX, "minItems": 1},
                 "resolution": _SIZE, "window_halfwidth": _POSITIVE,
                 "f_max": _POSITIVE})
_PROBLEM = _closed({"id": _INDEX, "issued_tick": _INDEX, "target_cells": _CELLS,
                    "epsilon": _POSITIVE, "timeout": _SIZE})
_RESOURCES = _closed({"model_size": _AMOUNT, "updates": _AMOUNT})
_VERSION = {"const": PROTOCOL_VERSION}

SCHEMAS: dict[tuple[str, str], dict] = {
    ("to_agent", "hello"): _message(
        "hello", protocol=_VERSION, horizon=_SIZE, body=_BODY, agent_seed=_INDEX),
    ("from_agent", "hello"): _message(
        "hello", protocol=_VERSION, agent={"type": "string", "minLength": 1}),
    ("to_agent", "problem"): _message("problem", problem=_PROBLEM),
    ("to_agent", "observation"): _message("observation", tick=_INDEX, cells=_CELLS),
    ("from_agent", "action"): _message(
        "action", tick=_INDEX, forces=_FORCES, resources=_RESOURCES),
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

_NUMBER, _INTEGER = JSON_TYPES["number"], JSON_TYPES["integer"]


def _first_error(v, s: dict):
    """(path, message) of the first Draft-7 failure of `v` against `s`, or None;
    the path of a missing property ends in its name.  Types are those of
    `JSON_TYPES`, and `const` matches only a value of its own type.  An
    object's or array's own keywords come first."""
    t = s.get("type")
    if t is not None and not (type(v) in JSON_TYPES[t] if type(t) is str
                              else any(type(v) in JSON_TYPES[n] for n in t)):
        return (), f"{v!r} is not of type {t!r}"
    if "const" in s and (type(v) is not type(s["const"]) or v != s["const"]):
        return (), f"{s['const']!r} was expected"
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
            if sub is not True and (err := _first_error(x, sub)):
                return (k, *err[0]), err[1]
    elif isinstance(v, list):
        if len(v) < s.get("minItems", 0):
            return (), f"has {len(v)} items, fewer than {s['minItems']}"
        if "maxItems" in s and len(v) > s["maxItems"]:
            return (), f"has {len(v)} items, more than {s['maxItems']}"
        items = s.get("items")
        if items is _CELL and all(  # sensor cells: four nonnegative integers
                type(c) is list and len(c) == 4
                and all(type(x) in _INTEGER and x >= 0 for x in c) for c in v):
            return None
        if items is _FORCES["items"] and all(  # force rows of numbers
                type(p) is list and p and all(type(x) in _NUMBER for x in p)
                for p in v):
            return None
        if items is not None:
            for i, x in enumerate(v):
                if err := _first_error(x, items):
                    return (i, *err[0]), err[1]
    elif isinstance(v, str):
        if len(v) < s.get("minLength", 0):
            return (), f"{v!r} is shorter than {s['minLength']}"
    elif type(v) in _NUMBER:
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
        if not (t in JSON_TYPES if type(t) is str else type(t) is list and t
                and all(type(n) is str and n in JSON_TYPES for n in t)):
            raise ValueError(f"schema {where} has unsupported type {t!r}")
        if type(s.get("const", "")) not in (*JSON_TYPES["string"], *_NUMBER):
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


def parse_line(direction: str, line: bytes) -> dict:
    try:
        doc = canonical_loads(line)
    except ValueError as exc:
        raise ProtocolError(f"line is not valid JSON: {exc}") from exc
    validate_message(direction, doc)
    return doc


def encode(doc: dict) -> bytes:
    return (canonical_dumps(doc) + "\n").encode()


def grid_cells(grid: np.ndarray) -> list[list[int]]:
    """The occupied cells of an `(R, R, 2)` count grid in row-major order,
    each as `[row, column, positive, negative]`; empty cells are left out.
    Counts are exact integers, so the int conversion loses nothing."""
    flat = grid.reshape(-1, 2)
    occupied = np.flatnonzero(flat[:, 0] + flat[:, 1])
    cells = np.empty((occupied.size, 4), dtype=np.int64)
    cells[:, 0], cells[:, 1] = np.divmod(occupied, grid.shape[1])
    cells[:, 2:] = flat[occupied]
    return cells.tolist()


def cells_grid(cells: list, resolution: int) -> np.ndarray:
    """The read-only float64 `(R, R, 2)` grid that schema-checked `cells`
    stand for.  ProtocolError unless every row and column is below
    `resolution`, the cells are strictly in row-major order (so none is
    repeated) and every listed cell holds a count."""
    index, counts, last = [], [], -1
    for row, column, positive, negative in cells:
        if row >= resolution or column >= resolution:
            raise ProtocolError(f"cell [{row}, {column}] is outside the "
                                f"{resolution}x{resolution} grid")
        at = row * resolution + column
        if at <= last:
            raise ProtocolError(f"cell [{row}, {column}] is not after the cell "
                                "before it in row-major order")
        if not (positive or negative):
            raise ProtocolError(f"cell [{row}, {column}] is listed but empty")
        index.append(at)
        counts.append((positive, negative))
        last = at
    flat = np.zeros((resolution * resolution, 2))
    try:
        if index:
            flat[index] = counts
    except OverflowError:  # an integer too large for a float
        raise ProtocolError("a cell count is too large") from None
    grid = flat.reshape(resolution, resolution, 2)
    grid.flags.writeable = False
    return grid


# -- harness side ----------------------------------------------------------

#: Seconds an agent has to answer the harness's hello, and its bye.
HELLO_TIMEOUT_S = 5.0

#: Agent processes that answered `bye`, each waiting for its next hello:
#: (proc, bytes read past its last line), at most one per (pid, argv).
#: The pid in the key keeps a forked child off its parent's processes.
_IDLE: dict[tuple[int, tuple[str, ...]], tuple[subprocess.Popen, bytes]] = {}


class _PipeClosed(ProtocolError):
    """The agent process closed its end of a pipe."""


def _spawn(argv: list[str]) -> subprocess.Popen:
    """Start an agent process with both its stdio ends piped to us."""
    return subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE)


def _end(proc: subprocess.Popen, kill: bool = False) -> None:
    """Reap an agent process: EOF on its stdin, then terminate, then kill
    (kill at once if `kill`, as after a protocol error); then close our end
    of its stdout, even if a process the agent started still holds theirs."""
    if kill:
        proc.kill()
    with contextlib.suppress(OSError):
        proc.stdin.close()
    try:
        proc.wait(timeout=2.0)
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    proc.stdout.close()


def close_idle_agents() -> None:
    """End every agent process this process parked: EOF, reap, close pipes."""
    pid = os.getpid()
    for key in [key for key in _IDLE if key[0] == pid]:
        _end(_IDLE.pop(key)[0])


atexit.register(close_idle_agents)


class SubprocessAgent(BaseAgent):
    """An agent that is an external process, driven over the line
    protocol.  Late replies are budget misses and bad ones protocol
    errors, which end the process at once, as the module docstring says.
    The process is the one parked for `argv` by this process, if any,
    else a fresh one; `close` parks it again if it answers `bye`."""

    kind = "subprocess"

    def __init__(self, argv: list[str], body: BodySpec, dim: int = 2, *,
                 horizon: int, agent_seed: int, budget_s: float = 0.05):
        if dim != 2:  # the world's dimension, always 2
            raise ConfigError(f"dim must be 2, got {dim!r}")
        super().__init__(body)
        self.budget_s = budget_s
        self._held: list[bytes] = []  # checked lines for the next write
        self._last_resources = {"model_size": 0, "updates": 0}
        self._key = (os.getpid(), tuple(argv))

        hello = {"kind": "hello", "protocol": PROTOCOL_VERSION, "horizon": horizon,
                 "body": to_doc(body), "agent_seed": int(agent_seed)}
        doc = None
        if (parked := _IDLE.pop(self._key, None)) is not None:
            self.proc, self._unread = parked
            with contextlib.suppress(_PipeClosed):  # it exited while parked
                doc = self._greet(hello)
        if doc is None:
            self.proc, self._unread = _spawn(argv), b""
            doc = self._greet(hello)
        self.agent_name = doc["agent"]
        self._closed = False

    @contextlib.contextmanager
    def _ended_on_error(self):
        """On any protocol error, kill and reap the process and mark this
        agent closed: nothing, `close` included, waits on a broken agent."""
        try:
            yield
        except ProtocolError:
            self._closed = True
            _end(self.proc, kill=True)
            raise

    def _greet(self, hello: dict) -> dict:
        """Open a session: the agent's checked hello."""
        with self._ended_on_error():
            self._send(hello)
            doc = self._reply(time.monotonic() + HELLO_TIMEOUT_S)
            if doc is None:
                raise ProtocolError("agent did not answer the handshake in time")
            if doc["kind"] != "hello":
                raise ProtocolError(f"expected hello, got {doc['kind']!r}")
        return doc

    def _hold(self, doc: dict) -> None:
        """Check a message and keep it for the next `_send`."""
        validate_message("to_agent", doc)
        self._held.append(encode(doc))

    def _send(self, doc: dict) -> None:
        """Check a message, then write the held ones and it in one write
        and one flush."""
        self._hold(doc)
        data = b"".join(self._held)
        self._held.clear()
        try:
            self.proc.stdin.write(data)
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise _PipeClosed("agent pipe is closed") from exc

    def _reply(self, deadline: float) -> dict | None:
        """The agent's next message, checked, or None if no line comes
        before `deadline` (a line already in flight gets a millisecond)."""
        fd = self.proc.stdout.fileno()
        while (end := self._unread.find(b"\n") + 1) == 0:
            ready = select.poll()
            ready.register(fd, select.POLLIN)
            if not ready.poll(max(deadline - time.monotonic(), 0.001) * 1000.0):
                return None
            if not (data := os.read(fd, 65536)):  # EOF; a last line needs no \n
                if not (end := len(self._unread)):
                    raise _PipeClosed("agent closed its pipe")
                break
            self._unread += data
        line, self._unread = self._unread[:end], self._unread[end:]
        return parse_line("from_agent", line)

    def on_problem(self, payload: dict) -> None:
        problem = dict(payload)
        problem["target_cells"] = grid_cells(problem.pop("target_grid"))
        self._hold({"kind": "problem", "problem": problem})

    def on_problem_closed(self, payload: dict) -> None:
        self._hold({"kind": "score", **payload})

    def act(self, observation: dict) -> np.ndarray:
        with self._ended_on_error():
            tick = observation["tick"]
            self._send({"kind": "observation", "tick": tick,
                        "cells": grid_cells(observation["grid"])})
            deadline = time.monotonic() + self.budget_s
            while True:
                doc = self._reply(deadline)
                if doc is None:
                    self.budget_misses += 1
                    return self._zero_action()
                if doc["kind"] != "action":
                    raise ProtocolError(f"expected action, got {doc['kind']!r}")
                if doc["tick"] < tick:
                    continue  # a late reply to an earlier tick
                if doc["tick"] > tick:
                    raise ProtocolError(f"action tagged tick {doc['tick']} arrived "
                                        f"at tick {tick}, before its observation")
                break
            try:
                forces = _checked_forces(doc["forces"], self.body)
            except ContractViolation as exc:
                raise ProtocolError(str(exc)) from None
            declared = doc["resources"]
            if not all(map(math.isfinite, declared.values())):
                raise ProtocolError(f"resources must be finite, got {declared}")
            self._last_resources = declared
            return forces

    def resources(self) -> dict:
        return dict(self._last_resources)

    def close(self) -> None:
        """End the session.  Late replies still in flight are read and
        dropped; if the agent answers `bye` within `HELLO_TIMEOUT_S`, its
        process is parked for the next agent of this argv (unless one is
        parked already), otherwise it is shut down.  Closing again does
        nothing: a second bye would end the parked process's next session."""
        if self._closed:
            return
        self._closed = True
        doc = None
        with contextlib.suppress(ProtocolError):
            self._send({"kind": "bye"})
            deadline = time.monotonic() + HELLO_TIMEOUT_S
            while (doc := self._reply(deadline)) is not None \
                    and doc["kind"] == "action":
                pass  # a late reply of the ending session
        if doc is not None and doc["kind"] == "bye" and self._key not in _IDLE:
            _IDLE[self._key] = (self.proc, self._unread)
        else:
            _end(self.proc)


# -- agent side ------------------------------------------------------------


def run_stdio_agent(kind: str, stdin=None, stdout=None) -> int:
    """Serve sessions of one bundled agent over stdin/stdout until EOF.
    Both are binary streams; they default to the process's own.

    Each hello builds a fresh agent, so nothing carries from one session
    to the next.  Bye is answered with bye; the next line must be a hello
    or EOF.  The oracle is deliberately unavailable here: its input is the
    hidden script, which never crosses the wire.
    """
    if kind == "oracle":
        raise ConfigError("the oracle agent cannot run over the wire")
    stdin = stdin if stdin is not None else sys.stdin.buffer
    stdout = stdout if stdout is not None else sys.stdout.buffer

    def send(doc: dict) -> None:
        """Check a message, then write it and flush."""
        validate_message("from_agent", doc)
        stdout.write(encode(doc))
        stdout.flush()

    agent = None
    greeted = False
    for line in stdin:
        if agent is None:  # between sessions only a hello may come
            hello = parse_line("to_agent", line)
            if hello["kind"] != "hello":
                raise ProtocolError(f"expected hello, got {hello['kind']!r}")
            stream = None
            if kind == "random":
                stream = agent_stream(hello["agent_seed"])
            body = from_doc(BodySpec, hello["body"])
            agent = make_agent(kind, body, stream=stream)
            greeted = True
            send({"kind": "hello", "protocol": PROTOCOL_VERSION, "agent": kind})
            continue
        doc = parse_line("to_agent", line)
        if doc["kind"] == "problem":
            problem = doc["problem"]
            problem["target_grid"] = cells_grid(problem.pop("target_cells"),
                                                body.resolution)
            agent.on_problem(problem)
        elif doc["kind"] == "observation":
            grid = cells_grid(doc["cells"], body.resolution)
            forces = np.asarray(agent.act({"tick": doc["tick"], "grid": grid}),
                                dtype=np.float64).tolist()
            res = agent.resources()
            send({"kind": "action", "tick": doc["tick"], "forces": forces,
                  "resources": {"model_size": res["model_size"],
                                "updates": res["updates"]}})
        elif doc["kind"] == "score":
            agent.on_problem_closed(doc)
        elif doc["kind"] == "bye":
            send({"kind": "bye"})
            agent = None
        else:  # a second hello inside a session
            raise ProtocolError(f"unexpected {doc['kind']!r} inside a session")
    if not greeted:
        raise ProtocolError("no hello received")
    return 0
