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
agents their problems through it too.  `audit_live_trace` checks the
result independently, against `FORBIDDEN_LIVE_KEYS` and the actual
secret values.  Neither trace contains wall-clock timestamps; trace
bytes are a pure function of the run's inputs.
"""

from __future__ import annotations

import json
import os

from .canon import canonical_dumps
from .errors import ContractViolation
from .worldgen import World

TRACE_FORMAT = 1

LIVE = "live"
DISCLOSURE = "disclosure"

#: Keys that must never appear anywhere in a live trace document.
FORBIDDEN_LIVE_KEYS = frozenset(
    {
        "seed", "grammar", "laws", "law", "terms", "coeff", "coefficients",
        "polarity_coupled", "drift_handle", "regime_times", "smooth_rate",
        "drift_levels", "hidden_actions", "scriptor_len", "p_null",
        "gen_spec", "rng", "streams",
    }
)

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
    "end": ("kind", "tick", "cumulative", "problems_closed", "budget_misses",
            "fairness_violations"),
}


def _field_tree(paths: tuple[str, ...]) -> dict:
    """Dotted names as nested {field: subtree}; None keeps a field whole."""
    tree: dict = {}
    for path in paths:
        *parents, leaf = path.split(".")
        node = tree
        for name in parents:
            node = node.setdefault(name, {})
        node[leaf] = None
    return tree


_LIVE_TREES = {kind: _field_tree(paths) for kind, paths in LIVE_FIELDS.items()}


def _project(doc: dict, tree: dict) -> dict:
    return {key: doc[key] if sub is None else _project(doc[key], sub)
            for key, sub in tree.items() if key in doc}


def live_view(doc: dict) -> dict | None:
    """The live tier's copy of a disclosure-level document, or None."""
    tree = _LIVE_TREES.get(doc.get("kind"))
    return None if tree is None else _project(doc, tree)


class TraceWriter:
    """Writes one header line then event lines, all canonical JSON."""

    def __init__(self, path: str, header: dict):
        if header.get("kind") != "header":
            raise ContractViolation("trace header must have kind 'header'")
        self.path = path
        self.mode = header.get("mode")
        if self.mode not in (LIVE, DISCLOSURE):
            raise ContractViolation("trace mode must be 'live' or 'disclosure'")
        self._fh = open(path, "w", encoding="utf-8")
        self._write(header)

    def _write(self, doc: dict) -> None:
        self._fh.write(canonical_dumps(doc))
        self._fh.write("\n")

    def event(self, doc: dict) -> None:
        if "kind" not in doc:
            raise ContractViolation("trace events need a kind")
        self._write(doc)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class TraceSink:
    """Writes each disclosure-level document once, to both tiers.

    The disclosure file gets the document whole, the live file its
    `live_view`; either path may be None.  `event` returns the live view
    so callers can hand exactly that to agents.
    """

    def __init__(self, live_path: str | None, disclosure_path: str | None,
                 header: dict):
        self.live = self.disc = None
        if live_path:
            self.live = TraceWriter(live_path, dict(live_view(header), mode=LIVE))
        if disclosure_path:
            self.disc = TraceWriter(disclosure_path, header)

    def event(self, doc: dict) -> dict | None:
        view = live_view(doc)
        if self.live and view is not None:
            self.live.event(view)
        if self.disc:
            self.disc.event(doc)
        return view

    def close(self) -> None:
        for writer in (self.live, self.disc):
            if writer:
                writer.close()

    def __enter__(self) -> "TraceSink":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def iter_trace(path: str):
    """Yield decoded lines; the first is the header."""
    with open(path, "r", encoding="utf-8") as fh:
        for n, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                yield json.loads(line)
            except json.JSONDecodeError as exc:
                raise ContractViolation(f"{path}:{n}: not valid JSON: {exc}") from exc


def read_trace(path: str) -> tuple[dict, list[dict]]:
    docs = list(iter_trace(path))
    if not docs or docs[0].get("kind") != "header":
        raise ContractViolation(f"{path}: missing trace header")
    return docs[0], docs[1:]


def _walk_keys(doc, found: list, trail: str) -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            here = f"{trail}/{key}"
            if key in FORBIDDEN_LIVE_KEYS:
                found.append(here)
            _walk_keys(value, found, here)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _walk_keys(value, found, f"{trail}/{i}")


def secret_strings(world: World) -> list[str]:
    """Exact substrings whose appearance in a live trace is a leak.

    The seed and every law coefficient, as Python reprs; float reprs are
    long enough that an accidental collision is not a realistic worry.
    """
    secrets = [repr(world.spec.seed)]
    for law in world.laws:
        for _, coeff in law.terms:
            secrets.append(repr(coeff))
    return secrets


def audit_live_trace(path: str, secrets: list[str] | None = None) -> list[str]:
    """Scan a live trace for redaction failures.  Empty list means clean."""
    violations: list[str] = []
    with open(path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    if secrets:
        for secret in secrets:
            if len(secret) >= 8 and secret in raw:
                violations.append(f"secret value {secret!r} appears verbatim")
    for n, line in enumerate(raw.splitlines(), start=1):
        if not line.strip():
            continue
        doc = json.loads(line)
        found: list[str] = []
        _walk_keys(doc, found, "")
        violations.extend(f"line {n}: forbidden key at {trail}" for trail in found)
    return violations


def flip_one_bit(path: str, out_path: str, byte_offset: int, bit: int = 0) -> None:
    """Copy a trace with a single bit flipped, for tamper-detection tests."""
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    if not 0 <= byte_offset < len(data):
        raise ContractViolation("byte_offset outside the file")
    data[byte_offset] ^= 1 << bit
    with open(out_path, "wb") as fh:
        fh.write(bytes(data))


def trace_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def same_bytes(path_a: str, path_b: str) -> bool:
    if os.path.getsize(path_a) != os.path.getsize(path_b):
        return False
    return trace_bytes(path_a) == trace_bytes(path_b)
