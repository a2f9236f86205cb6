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
hello / bye; the agent has `HELLO_TIMEOUT_S` to answer each.

Version 2 has sessions: one agent process may serve several episodes in
a row.  The agent answers `bye` with `bye` and then waits for the next
line, which is another `hello` (a new session, with nothing carried
over from the last) or EOF (exit).  The harness parks a process that
said `bye` and hands it to the next `SubprocessAgent` built with the
same argv in the same process, so start-up is paid once per process,
not once per episode; `close_idle_agents` (run at exit) ends the parked
ones.  The
harness side enforces a wall-clock reply budget per tick and counts a
budget miss when either line overruns it: a late action is replaced by a
zero action, a late resources line by the last declaration.  Each late
line is discarded when it arrives, a late action by its optional tick
tag.  Lines are decoded by `canon.canonical_loads`, so `NaN` and
`Infinity` are refused, and the harness refuses any force or resource
that is not finite (`1e400` decodes to an infinity): all three are
protocol errors, as is an unparsable or out-of-schema line.
"""

from __future__ import annotations

import atexit
import contextlib
import math
import numbers
import os
import queue
import subprocess
import sys
import threading
import time

import numpy as np

from .agents import BaseAgent, make_agent
from .canon import canonical_dumps, canonical_loads, from_doc, to_doc
from .errors import ConfigError, ContractViolation, ProtocolError
from .interface import BodySpec, _checked_forces
from .rng import agent_stream

PROTOCOL_VERSION = 2

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
        "hello", optional=("agent_seed",), protocol=_VERSION, dim={"const": 2},
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
        doc = canonical_loads(line)
    except ValueError as exc:
        raise ProtocolError(f"line is not valid JSON: {exc}") from exc
    validate_message(direction, doc)
    return doc


def encode(doc: dict) -> str:
    return canonical_dumps(doc) + "\n"


# -- harness side ----------------------------------------------------------

#: Seconds an agent has to answer the harness's hello, and its bye.
HELLO_TIMEOUT_S = 5.0

#: Agent processes that answered `bye`, each waiting for its next hello:
#: (proc, line queue, reader thread), at most one per (pid, argv).  The
#: pid in the key keeps a forked child off its parent's processes.
_IDLE: dict[tuple[int, tuple[str, ...]], tuple] = {}


class _PipeClosed(ProtocolError):
    """The agent process closed its end of a pipe."""


def _pump(pipe, lines: queue.SimpleQueue) -> None:
    """Queue every line of `pipe`, then None for its EOF."""
    for line in pipe:
        lines.put(line)
    lines.put(None)


def _spawn(argv: list[str]) -> tuple:
    """Start an agent process and the thread that queues its lines."""
    proc = subprocess.Popen(
        argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
        text=True, bufsize=1,
    )
    lines: queue.SimpleQueue = queue.SimpleQueue()
    reader = threading.Thread(target=_pump, args=(proc.stdout, lines), daemon=True)
    reader.start()
    return proc, lines, reader


def _end(proc: subprocess.Popen, reader: threading.Thread, kill: bool = False) -> None:
    """Reap an agent process: EOF on its stdin, then terminate, then kill
    (kill at once if `kill`).  Its stdout is closed once the reader has
    met the EOF; a process the child started may hold the pipe open, and
    then the reader is still blocked in it and the pipe is left alone."""
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
    reader.join(timeout=2.0)
    if not reader.is_alive():
        proc.stdout.close()


def close_idle_agents() -> None:
    """End every agent process this process parked: EOF, reap, close pipes."""
    pid = os.getpid()
    for key in [key for key in _IDLE if key[0] == pid]:
        proc, _, reader = _IDLE.pop(key)
        _end(proc, reader)


atexit.register(close_idle_agents)


class SubprocessAgent(BaseAgent):
    """An agent that is an external process, driven over the line
    protocol.  Late replies are budget misses and bad ones protocol
    errors, as the module docstring says.  The process is the one parked
    for `argv` by this process, if any, else a fresh one; `close` parks
    it again if it answers `bye`."""

    kind = "subprocess"

    def __init__(self, argv: list[str], body: BodySpec, dim: int = 2, *,
                 horizon: int, agent_seed: int | None = None,
                 budget_s: float = 0.05):
        if dim != 2:  # the world's dimension, always 2
            raise ConfigError(f"dim must be 2, got {dim!r}")
        super().__init__(body)
        self.budget_s = budget_s
        self._owed_resources = 0  # late ones, and stale actions' companions
        self._last_resources = {"model_size": 0, "updates": 0}
        self._key = (os.getpid(), tuple(argv))
        self._closed = False

        hello = {
            "kind": "hello",
            "protocol": PROTOCOL_VERSION,
            "dim": 2,
            "horizon": horizon,
            "body": to_doc(body),
        }
        if agent_seed is not None:
            hello["agent_seed"] = int(agent_seed)
        doc = None
        if (parked := _IDLE.pop(self._key, None)) is not None:
            self.proc, self._lines, self._reader = parked
            with contextlib.suppress(_PipeClosed):  # it exited while parked
                doc = self._greet(hello)
        if doc is None:
            self.proc, self._lines, self._reader = _spawn(argv)
            doc = self._greet(hello)
        self.agent_name = doc["agent"]

    def _greet(self, hello: dict) -> dict:
        """Open a session: the agent's checked hello.  On any protocol
        error the process is killed and reaped, since no caller can
        close() an agent whose constructor raised."""
        try:
            self._send(hello)
            doc = self._reply(time.monotonic() + HELLO_TIMEOUT_S)
            if doc is None:
                raise ProtocolError("agent did not answer the handshake in time")
            if doc["kind"] != "hello":
                raise ProtocolError(f"expected hello, got {doc['kind']!r}")
        except ProtocolError:
            _end(self.proc, self._reader, kill=True)
            raise
        return doc

    def _send(self, doc: dict) -> None:
        validate_message("to_agent", doc)
        line = encode(doc)
        try:
            self.proc.stdin.write(line)
            self.proc.stdin.flush()
        except (BrokenPipeError, ValueError) as exc:
            raise _PipeClosed("agent pipe is closed") from exc

    def _reply(self, deadline: float) -> dict | None:
        """The agent's next message, checked, or None if no line comes
        before `deadline` (a line already in flight gets a millisecond)."""
        try:
            line = self._lines.get(timeout=max(deadline - time.monotonic(), 0.001))
        except queue.Empty:
            return None
        if line is None:
            raise _PipeClosed("agent closed its pipe")
        return parse_line("from_agent", line)

    def on_problem(self, payload: dict) -> None:
        self._send({"kind": "problem", "problem": payload})

    def on_problem_closed(self, payload: dict) -> None:
        self._send({"kind": "score", **payload})

    def act(self, observation: dict) -> np.ndarray:
        self._send({"kind": "observation", **observation})
        deadline = time.monotonic() + self.budget_s
        tick = observation["tick"]
        while True:
            doc = self._reply(deadline)
            if doc is None:
                self.budget_misses += 1
                return self._zero_action()
            if doc["kind"] == "resources" and self._owed_resources > 0:
                self._owed_resources -= 1
            elif doc["kind"] != "action":
                raise ProtocolError(f"expected action, got {doc['kind']!r}")
            elif doc.get("tick", tick) != tick:
                self._owed_resources += 1  # stale reply from an earlier overrun
            else:
                break
        try:
            forces = _checked_forces(doc["forces"], self.body)
        except ContractViolation as exc:
            raise ProtocolError(str(exc)) from None

        doc = self._reply(deadline)
        if doc is None:
            self.budget_misses += 1
            self._owed_resources += 1
            return forces
        if doc["kind"] != "resources":
            raise ProtocolError(f"expected resources, got {doc['kind']!r}")
        declared = {"model_size": doc["model_size"], "updates": doc["updates"]}
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
                    and doc["kind"] in ("action", "resources"):
                pass  # a late reply of the ending session
        if doc is not None and doc["kind"] == "bye" and self._key not in _IDLE:
            _IDLE[self._key] = (self.proc, self._lines, self._reader)
        else:
            _end(self.proc, self._reader)


# -- agent side ------------------------------------------------------------


def run_stdio_agent(kind: str, stdin=None, stdout=None) -> int:
    """Serve sessions of one bundled agent over stdin/stdout until EOF.

    Each hello builds a fresh agent, so nothing carries from one session
    to the next.  Bye is answered with bye; the next line must be a hello
    or EOF.  The oracle is deliberately unavailable here: its input is the
    hidden script, which never crosses the wire.
    """
    if kind == "oracle":
        raise ConfigError("the oracle agent cannot run over the wire")
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def send(*docs: dict) -> None:
        """Check each message, then write them all in one write and one flush."""
        for doc in docs:
            validate_message("from_agent", doc)
        stdout.write("".join(map(encode, docs)))
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
                stream = agent_stream(hello.get("agent_seed", 0))
            agent = make_agent(kind, from_doc(BodySpec, hello["body"]), stream=stream)
            greeted = True
            send({"kind": "hello", "protocol": PROTOCOL_VERSION, "agent": kind})
            continue
        if not line.strip():
            continue
        doc = parse_line("to_agent", line)
        if doc["kind"] == "problem":
            agent.on_problem(doc["problem"])
        elif doc["kind"] == "observation":
            forces = np.asarray(agent.act(doc), dtype=np.float64).tolist()
            res = agent.resources()
            send({"kind": "action", "forces": forces, "tick": doc["tick"]},
                 {"kind": "resources", "model_size": res["model_size"],
                  "updates": res["updates"]})
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
