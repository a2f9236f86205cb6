"""Episode traces: append-only NDJSON in two disclosure tiers.

Every trace line starts as one disclosure-level document.  The
disclosure trace gets it whole; it is the post-hoc audit record, with
the generation spec, drifted laws, hidden scripts, null baselines and
periodic world snapshot hashes that make bit-exact replay possible.

The live trace is what an observer, and an agent, may see while an
evaluation runs.  `LIVE_FIELDS` is the contract for it: per event kind,
the only fields a live line may carry.  It is an allowlist, so a kind or
field it does not name never reaches the live tier.  `live_view` applies
it, `TraceSink` writes both tiers through it, and the harness hands
agents their problems through it too.  The tests audit the result
independently (`tests/oracles.py`), against a denylist of secret keys and
the actual secret values.  Neither trace contains wall-clock timestamps;
trace bytes are a pure function of the run's inputs.

A trace read back is input from outside the program.  `iter_trace`
reads it as bytes and decodes each line with `canon.canonical_loads`,
the decoder the wire uses too.  `check_line` holds each line replay or
report takes values from to its tier's closed schema in `SCHEMAS` (built
from `protocol`'s pieces; a live schema is the disclosure one cut by
`LIVE_FIELDS`) with `protocol`'s checker and `canon.JSON_TYPES`, the
wire's type model: an integer is written as one, so 1.0 is none.
Replay takes values only from the header and the `act` and `end` lines
and checks no other kind: it compares every line's bytes with the line
it regenerates, which is stricter than any schema.  The
`problem_issued` schema, the only one with a dense grid, stays all the
same: `LIVE_FIELDS` is checked against it at import, and a test holds
the wire's `problem` message equal to its live cut, the target grid sent
as its cells.
"""

from __future__ import annotations

import contextlib
import os
from collections import deque

from .canon import canonical_dumps, canonical_loads
from .errors import ContractViolation
from .protocol import _BODY, _FORCES, _INDEX, _NUM, _POSITIVE, _RESOURCES, _SIZE
from .protocol import _check_keywords, _closed, _first_error, _message

TRACE_FORMAT = 4

LIVE = "live"
DISCLOSURE = "disclosure"

#: Per event kind, the fields the live tier may carry.  A dotted name
#: selects one field of a nested document.  The header keeps its `mode`
#: key, which `TraceSink` relabels for the live file.
LIVE_FIELDS: dict[str, tuple[str, ...]] = {
    "header": ("kind", "mode", "format", "stream_algorithm", "step_params",
               "score_params", "episode", "bodies", "agent_kinds"),
    "problem_issued": ("kind", "tick", "agent", "problem.id",
                       "problem.issued_tick", "problem.target_grid",
                       "problem.epsilon", "problem.timeout"),
    "sense": ("kind", "tick", "agent", "grid_hash"),
    "act": ("kind", "tick", "agent", "forces", "resources.model_size",
            "resources.updates"),
    "drift": ("kind", "tick"),
    "problem_closed": ("kind", "tick", "agent", "problem_id", "solved",
                       "reason", "o_count", "d_count", "distance", "score"),
    "sample": ("kind", "tick", "agent", "cumulative"),
    "end": ("kind", "tick", "cumulative", "problems_closed", "budget_misses"),
}


def _field_tree(paths: tuple[str, ...]) -> dict:
    """Dotted names as nested {field: subtree}; None keeps a field whole.
    A field named both whole and by a sub-field is a ValueError."""
    tree: dict = {}
    for path in paths:
        *parents, leaf = path.split(".")
        node = tree
        for name in parents:
            node = node.setdefault(name, {})
            if node is None:
                break
        if node is None or node.get(leaf) is not None:
            raise ValueError(f"{path} overlaps a field listed before it; list "
                             "a field whole or by its sub-fields, not both")
        node[leaf] = None
    return tree


_LIVE_TREES = {kind: _field_tree(paths) for kind, paths in LIVE_FIELDS.items()}

_STRING = {"type": "string"}
_PAIR = {"type": "array", "items": _NUM, "minItems": 2, "maxItems": 2}
_GRID = {"type": "array", "minItems": 1,
         "items": {"type": "array", "minItems": 1, "items": _PAIR}}
_PARAMS = {"type": "object"}  # a parameter block: canon.from_doc checks its fields


def _by_agent(schema: dict) -> dict:  # a map from agent id to `schema`
    return {"type": "object", "additionalProperties": schema}


_LAW = _closed({"level": _INDEX, "terms": {"type": "array"},
                "polarity_coupled": {"type": "array", "items": {"type": "boolean"}},
                "drift_handle": {"type": ["string", "null"]}})

_DISCLOSURE_SCHEMAS = {
    "header": _message(
        "header", mode=_STRING, format={"const": TRACE_FORMAT},
        stream_algorithm=_STRING, step_params=_PARAMS, score_params=_PARAMS,
        episode=_PARAMS, bodies=_by_agent(_BODY), agent_kinds=_by_agent(_STRING),
        gen_spec=_PARAMS, problem_params=_PARAMS,
        stream_names=_by_agent(_STRING), initial_state_hash=_STRING),
    "problem_issued": _message(
        "problem_issued", tick=_INDEX, agent=_STRING, problem=_closed({
            "id": _INDEX, "issued_tick": _INDEX, "target_grid": _GRID,
            "epsilon": _POSITIVE, "timeout": _SIZE, "scriptor_len": _SIZE,
            "o_ref": _NUM, "d_ref": _NUM,
            "hidden_actions": {"type": "array", "items": _FORCES},
            "p_null": {"type": ["number", "null"]}})),
    "act": _message("act", tick=_INDEX, agent=_STRING, forces=_FORCES,
                    resources=_RESOURCES),
    "drift": _message("drift", tick=_INDEX, levels={"type": "array", "items": _INDEX},
                      new_laws={"type": "array", "items": _LAW}),
    "sample": _message("sample", tick=_INDEX, agent=_STRING, cumulative=_NUM),
    "end": _message("end", tick=_INDEX, cumulative=_by_agent(_NUM),
                    problems_closed=_INDEX, budget_misses=_by_agent(_INDEX)),
}
_check_keywords({(DISCLOSURE, kind): s for kind, s in _DISCLOSURE_SCHEMAS.items()})


def _cut(schema: dict, tree: dict, where: str) -> dict:
    """`schema` cut down to the fields in `tree`, in the schema's order."""
    props = schema.get("properties", {})
    if missing := [key for key in tree if key not in props]:
        raise ValueError(f"LIVE_FIELDS names {where}.{missing[0]}, which no schema has")
    kept = {key: sub if tree[key] is None else _cut(sub, tree[key], f"{where}.{key}")
            for key, sub in props.items() if key in tree}
    return {**schema, "properties": kept,
            "required": [key for key in schema["required"] if key in kept]}


#: Per tier, per line kind a reader takes values from, the line's schema.
SCHEMAS: dict[str, dict[str, dict]] = {DISCLOSURE: _DISCLOSURE_SCHEMAS, LIVE: {
    kind: _cut(schema, _LIVE_TREES[kind], kind)
    for kind, schema in _DISCLOSURE_SCHEMAS.items()}}

def check_line(doc: dict, tier: str) -> dict:
    """`doc`, if its kind's schema in `tier` takes it; else ContractViolation."""
    if err := _first_error(doc, SCHEMAS[tier][doc["kind"]]):
        path, message = err
        field = f" field {'.'.join(map(str, path))!r}" if path else ""
        raise ContractViolation(f"trace {doc['kind']}{field}: {message}")
    return doc


def _project(doc: dict, tree: dict) -> dict:
    """`doc` cut down to `tree`; `doc` itself when that keeps all of it."""
    view = {key: doc[key] if sub is None else _project(doc[key], sub)
            for key, sub in tree.items() if key in doc}
    if len(view) == len(doc) and all(view[key] is doc[key] for key in view):
        return doc
    return view


def live_view(doc: dict) -> dict | None:
    """The live tier's copy of a disclosure-level document, or None; the
    document itself when the live tier may carry all of it."""
    tree = _LIVE_TREES.get(doc.get("kind"))
    return None if tree is None else _project(doc, tree)


class TraceWriter:
    """Writes one header line then event lines, all canonical JSON.

    The lines go to `path + ".partial"`, which a clean `close` renames
    to `path`.  Leaving the `with` block on an exception deletes it
    instead, so a crashed episode leaves no half-written trace behind
    that would replay as a divergence.

    An event may be held: it keeps its place in the file, but its line
    is written only when it is released, with the content it has then.
    Lines that follow a held one wait as text, already encoded, so the
    held documents are the only objects in the queue.  A clean close
    writes what is still held as it stands.
    """

    def __init__(self, path: str, header: dict):
        if header.get("kind") != "header" or header.get("mode") not in SCHEMAS:
            raise ContractViolation(
                "a trace header has kind 'header' and mode 'live' or 'disclosure'")
        self.path = path
        self._pending: deque = deque()  # lines and held documents, in order
        self._partial = path + ".partial"
        self._fh = open(self._partial, "w", encoding="utf-8")
        self._write(canonical_dumps(header))

    def _write(self, line: str) -> None:
        self._fh.write(line)
        self._fh.write("\n")

    def event(self, doc: dict, hold: bool = False,
              line: str | None = None) -> str | None:
        """Write `doc`, or hold it.  `line` is its encoding, if the caller
        has it already; returns the encoding, or None for a held one."""
        if "kind" not in doc:
            raise ContractViolation("trace events need a kind")
        if hold:
            line = None
        elif line is None:
            line = canonical_dumps(doc)
        self._pending.append(doc if hold else line)
        self._flush()
        return line

    def release(self, doc: dict) -> None:
        """Write a held document as it is now, and the lines after it up
        to the next document still held."""
        for i, entry in enumerate(self._pending):
            if entry is doc:
                self._pending[i] = canonical_dumps(doc)
                self._flush()
                return
        raise ContractViolation("released a trace event that is not held")

    def _flush(self) -> None:
        """Write the queued lines up to the first document still held."""
        pending = self._pending
        while pending and isinstance(pending[0], str):
            self._write(pending.popleft())

    def close(self) -> None:
        """Write what is held, then put the file in place at `path`;
        delete it if that fails."""
        if not self._fh.closed:
            try:
                self._pending = deque(
                    e if isinstance(e, str) else canonical_dumps(e)
                    for e in self._pending)
                self._flush()
                self._fh.close()
                os.replace(self._partial, self.path)
            except BaseException:
                with contextlib.suppress(OSError):
                    self._fh.close()
                self._remove_partial()
                raise

    def discard(self) -> None:
        """Delete the file; an error flushing what is deleted is moot."""
        self._pending.clear()
        if not self._fh.closed:
            with contextlib.suppress(OSError):
                self._fh.close()
            self._remove_partial()

    def _remove_partial(self) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(self._partial)

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        if exc_type is None:
            self.close()
        else:
            self.discard()


class TraceSink:
    """Writes each disclosure-level document once, to both tiers.

    The disclosure file gets the document whole, the live file its
    `live_view`, built only when there is a live file; either path may
    be None.  A document the live tier carries whole is encoded once,
    for both files.  A document may be held in the disclosure tier until
    `release` (see `TraceWriter`); its live view is written at once.
    Like `TraceWriter`, it puts both files in place only when its `with`
    block exits cleanly; when the live file cannot be put in place, the
    disclosure file is deleted too.
    """

    def __init__(self, live_path: str | None, disclosure_path: str | None,
                 header: dict):
        self.live = self.disc = None
        if live_path:
            self.live = TraceWriter(live_path, dict(live_view(header), mode=LIVE))
        if disclosure_path:
            try:
                self.disc = TraceWriter(disclosure_path, header)
            except BaseException:
                if self.live:
                    self.live.discard()
                raise

    def event(self, doc: dict, hold: bool = False) -> None:
        line = None
        if self.live and (view := live_view(doc)) is not None:
            line = self.live.event(view)
            if view is not doc:
                line = None
        if self.disc:
            self.disc.event(doc, hold, line)

    def release(self, doc: dict) -> None:
        if self.disc:
            self.disc.release(doc)

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        try:
            if self.live:
                self.live.__exit__(*exc)
        except BaseException:
            if self.disc:
                self.disc.discard()
            raise
        if self.disc:
            self.disc.__exit__(*exc)


def iter_trace(path: str):
    """Yield decoded lines, each a JSON object; the first must be a header
    naming its tier, or ContractViolation.  Empty lines are skipped; any
    other line must be one `canonical_loads` takes."""
    started = False
    with open(path, "rb") as fh:
        for n, line in enumerate(fh, start=1):
            if line in (b"\n", b"\r\n"):
                continue
            try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
                doc = canonical_loads(line)
            except ValueError as exc:
                raise ContractViolation(f"{path}:{n}: not valid JSON: {exc}") from exc
            if not isinstance(doc, dict):
                raise ContractViolation(f"{path}:{n}: not a JSON object")
            if not started and (doc.get("kind") != "header"
                                or doc.get("mode") not in SCHEMAS):
                break
            started = True
            yield doc
    if not started:
        raise ContractViolation(f"{path}: missing trace header")


def read_trace(path: str) -> tuple[dict, list[dict]]:
    header, *events = iter_trace(path)
    return header, events
