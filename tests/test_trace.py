"""Trace files: writer discipline, redaction auditing, tamper helpers.

The episode-level tests write real traces through the harness and then
hunt for the actual world secrets in the live tier.
"""

import contextlib
import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftworld.agents import GreedyAgent, make_agent
from driftworld.canon import canonical_dumps
from driftworld.config import EpisodeConfig, RunConfig
from driftworld.errors import ContractViolation
from driftworld.harness import Slot, run_episode
from driftworld.trace import (
    DISCLOSURE,
    LIVE,
    LIVE_FIELDS,
    _DISCLOSURE_SCHEMAS,
    TraceSink,
    TraceWriter,
    _cut,
    _field_tree,
    iter_trace,
    read_trace,
)
from driftworld.worldgen import DriftSchedule, GenSpec, generate_world

from oracles import (
    FORBIDDEN_LIVE_KEYS,
    audit_live_trace,
    flip_one_bit,
    same_bytes,
    secret_strings,
    trace_bytes,
)


# -------------------------------------------------------------------- writer


def test_writer_header_first_then_events(tmp_path):
    path = str(tmp_path / "t.ndjson")
    with TraceWriter(path, {"kind": "header", "mode": LIVE, "format": 1}) as w:
        w.event({"kind": "sense", "tick": 0})
        w.event({"kind": "act", "tick": 0})
    header, events = read_trace(path)
    assert header["kind"] == "header"
    assert header["mode"] == LIVE
    assert [e["kind"] for e in events] == ["sense", "act"]


def test_writer_rejects_bad_headers(tmp_path):
    path = str(tmp_path / "t.ndjson")
    with pytest.raises(ContractViolation):
        TraceWriter(path, {"kind": "event", "mode": LIVE})
    with pytest.raises(ContractViolation):
        TraceWriter(path, {"kind": "header", "mode": "secret"})


def test_writer_rejects_kindless_events(tmp_path):
    path = str(tmp_path / "t.ndjson")
    with TraceWriter(path, {"kind": "header", "mode": LIVE}) as w:
        with pytest.raises(ContractViolation):
            w.event({"tick": 3})


def test_writer_puts_the_file_in_place_only_on_a_clean_close(tmp_path):
    path = str(tmp_path / "t.ndjson")
    header = {"kind": "header", "mode": LIVE, "format": 1}
    event = {"kind": "sense", "tick": 0, "grid_hash": "ab"}
    with TraceWriter(path, header) as w:
        w.event(event)
        assert os.listdir(tmp_path) == ["t.ndjson.partial"]
    assert os.listdir(tmp_path) == ["t.ndjson"]
    with open(path, "rb") as fh:
        assert fh.read() == (canonical_dumps(header) + "\n"
                             + canonical_dumps(event) + "\n").encode("utf-8")

    with pytest.raises(RuntimeError):
        with TraceWriter(str(tmp_path / "u.ndjson"), header) as w:
            w.event(event)
            raise RuntimeError("crash mid-trace")
    assert os.listdir(tmp_path) == ["t.ndjson"]


def test_crashed_episode_leaves_neither_trace_behind(tmp_path):
    class CrashesAtTick5(GreedyAgent):
        def act(self, observation):
            if observation["tick"] == 5:
                raise RuntimeError("agent crashed at tick 5")
            return super().act(observation)

    cfg = RunConfig(episode=EpisodeConfig(horizon=20))
    body = cfg.body()
    live, disc = str(tmp_path / "live.ndjson"), str(tmp_path / "disc.ndjson")

    def run(agent):
        run_episode(generate_world(cfg.gen),
                    [Slot(agent_id="greedy", agent=agent, body=body)],
                    cfg.step, cfg.problem, cfg.score, cfg.episode,
                    live_path=live, disclosure_path=disc)

    with pytest.raises(RuntimeError, match="tick 5"):
        run(CrashesAtTick5(body, 2))
    assert os.listdir(tmp_path) == []
    run(make_agent("greedy", body, 2))
    assert sorted(os.listdir(tmp_path)) == ["disc.ndjson", "live.ndjson"]
    assert read_trace(disc)[1][-1]["kind"] == "end"


def test_sink_removes_the_live_file_when_the_disclosure_cannot_open(tmp_path):
    header = {"kind": "header", "mode": DISCLOSURE, "format": 1}
    with pytest.raises(FileNotFoundError):
        TraceSink(str(tmp_path / "live.ndjson"),
                  str(tmp_path / "missing" / "disc.ndjson"), header)
    assert os.listdir(tmp_path) == []


class FailsToClose:
    """A writer's file whose close closes it, then reports a full disk."""

    def __init__(self, fh):
        self._real = fh

    def __getattr__(self, name):
        return getattr(self._real, name)

    def close(self):
        self._real.close()
        raise OSError(28, "No space left on device")


def test_writer_deletes_the_file_when_its_close_fails(tmp_path):
    header = {"kind": "header", "mode": LIVE, "format": 1}
    w = TraceWriter(str(tmp_path / "t.ndjson"), header)
    w._fh = FailsToClose(w._fh)
    with pytest.raises(OSError, match="No space"):
        w.close()
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("failing", ["live", "disc"])
def test_sink_leaves_no_file_when_a_writer_fails_to_close(failing, tmp_path):
    header = {"kind": "header", "mode": DISCLOSURE, "format": 1}
    sink = TraceSink(str(tmp_path / "live.ndjson"),
                     str(tmp_path / "disc.ndjson"), header)
    writer = getattr(sink, failing)
    writer._fh = FailsToClose(writer._fh)
    with pytest.raises(OSError, match="No space"):
        with sink:
            sink.event({"kind": "sense", "tick": 0, "grid_hash": "ab"})
    left = os.listdir(tmp_path)
    # the live file goes in place first, so only it can survive a failed
    # disclosure close; a failed live close takes the disclosure with it
    assert left == (["live.ndjson"] if failing == "disc" else [])
    assert sink.live._fh.closed and sink.disc._fh.closed


# ------------------------------------------------------------ held events


def _sense(n: int) -> dict:
    return {"kind": "sense", "tick": n, "agent": "a", "grid_hash": f"at{n}",
            "seed": 9}


@settings(max_examples=60, deadline=None)
@given(ops=st.lists(st.one_of(st.tuples(st.just("event"), st.booleans()),
                              st.tuples(st.just("release"),
                                        st.integers(0, 1 << 16))),
                    max_size=40),
       crash=st.booleans())
def test_sink_holds_disclosure_lines_in_event_order(ops, crash):
    """Random event/hold/release sequences: the disclosure file has every
    document in event order, each held one as it was at its release (or
    at the clean exit), and the live file has every view as it was at
    its event."""
    header = {"kind": "header", "mode": DISCLOSURE, "format": 1}
    with tempfile.TemporaryDirectory() as tmp:
        live, disc = os.path.join(tmp, "live.ndjson"), os.path.join(tmp, "disc.ndjson")
        docs, views, held = [], [], []
        with pytest.raises(RuntimeError) if crash else contextlib.nullcontext():
            with TraceSink(live, disc, header) as sink:
                for op, arg in ops:
                    if op == "event":
                        doc = _sense(len(docs))
                        views.append(sink.event(doc, hold=arg))
                        docs.append(doc)
                        if arg:
                            held.append(doc)
                    elif held:
                        doc = held.pop(arg % len(held))
                        doc["grid_hash"] = f"released{doc['tick']}"
                        sink.release(doc)
                for doc in held:  # still held at the exit
                    doc["grid_hash"] = f"open{doc['tick']}"
                if crash:
                    raise RuntimeError("crash with lines held")
        if crash:
            assert os.listdir(tmp) == []
            return
        assert read_trace(disc) == (header, docs)
        assert read_trace(live)[1] == views
        assert all(v["grid_hash"] == f"at{v['tick']}" for v in views)


def test_writer_refuses_to_release_an_event_it_does_not_hold(tmp_path):
    header = {"kind": "header", "mode": DISCLOSURE, "format": 1}
    with TraceWriter(str(tmp_path / "t.ndjson"), header) as w:
        doc = _sense(0)
        w.event(doc)
        with pytest.raises(ContractViolation, match="not held"):
            w.release(doc)
        w.event(doc, hold=True)
        w.release(doc)
        with pytest.raises(ContractViolation, match="not held"):
            w.release(doc)
    assert read_trace(str(tmp_path / "t.ndjson"))[1] == [doc, doc]


def test_iter_trace_skips_blanks_and_rejects_garbage(tmp_path):
    path = tmp_path / "t.ndjson"
    path.write_text('{"kind": "header", "mode": "live"}\n\n{"kind": "sense"}\n')
    docs = list(iter_trace(str(path)))
    assert len(docs) == 2

    path.write_text('{"kind": "header"}\nnot json\n')
    with pytest.raises(ContractViolation):
        list(iter_trace(str(path)))


def test_iter_trace_requires_header(tmp_path):
    path = tmp_path / "t.ndjson"
    for text in ('\n{"kind": "sense", "tick": 0}\n', "", "\n\n",
                 '{"kind": "header", "mode": "secret"}\n'):
        path.write_text(text)
        with pytest.raises(ContractViolation, match="missing trace header"):
            next(iter_trace(str(path)))


def test_read_trace_requires_header(tmp_path):
    path = tmp_path / "t.ndjson"
    path.write_text('{"kind": "sense", "tick": 0}\n')
    with pytest.raises(ContractViolation):
        read_trace(str(path))
    path.write_text("")
    with pytest.raises(ContractViolation):
        read_trace(str(path))


# ------------------------------------------------------------------ auditing


def test_audit_flags_forbidden_keys_anywhere(tmp_path):
    path = tmp_path / "t.ndjson"
    lines = [
        {"kind": "header", "mode": "live"},
        {"kind": "act", "nested": [{"deep": {"hidden_actions": []}}]},
    ]
    path.write_text("".join(json.dumps(d) + "\n" for d in lines))
    violations = audit_live_trace(str(path))
    assert len(violations) == 1
    assert "hidden_actions" in violations[0]
    assert "line 2" in violations[0]


def test_audit_flags_planted_secret_values(tmp_path):
    path = tmp_path / "t.ndjson"
    path.write_text('{"kind": "act", "forces": [0.123456789012]}\n')
    hits = audit_live_trace(str(path), secrets=["0.123456789012"])
    assert hits and "verbatim" in hits[0]
    # Short reprs are too collision-prone to scan for; the key scan and
    # the schema bottleneck cover them instead.
    assert audit_live_trace(str(path), secrets=["0.1"]) == []


def test_audit_clean_file_is_silent(tmp_path):
    path = tmp_path / "t.ndjson"
    path.write_text('{"kind": "sense", "grid_hash": "ab", "tick": 0}\n')
    assert audit_live_trace(str(path)) == []


def test_secret_strings_cover_seed_and_every_coefficient():
    world = generate_world(GenSpec(seed=987654321987))
    secrets = secret_strings(world)
    assert repr(987654321987) in secrets
    n_terms = sum(len(law.terms) for law in world.laws)
    assert len(secrets) == 1 + n_terms
    for law in world.laws:
        for _, coeff in law.terms:
            assert repr(coeff) in secrets


# ------------------------------------------------------------ tamper helpers


def test_flip_one_bit_roundtrip(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    c = tmp_path / "c.bin"
    a.write_bytes(b"hello trace")
    flip_one_bit(str(a), str(b), byte_offset=4, bit=1)
    assert not same_bytes(str(a), str(b))
    assert trace_bytes(str(b))[4] == b"hello trace"[4] ^ 2
    flip_one_bit(str(b), str(c), byte_offset=4, bit=1)
    assert same_bytes(str(a), str(c))
    with pytest.raises(ContractViolation):
        flip_one_bit(str(a), str(b), byte_offset=10_000)


def test_same_bytes_on_equal_and_unequal(tmp_path):
    a = tmp_path / "a.bin"
    b = tmp_path / "b.bin"
    a.write_bytes(b"xyz")
    b.write_bytes(b"xyz")
    assert same_bytes(str(a), str(b))
    b.write_bytes(b"xyzz")
    assert not same_bytes(str(a), str(b))


# ------------------------------------------------- real traces, both tiers


def run_traced_episode(tmp_path, tag):
    cfg = RunConfig(gen=GenSpec(seed=4, drift=DriftSchedule(regime_times=(25,))),
                    episode=EpisodeConfig(horizon=60))
    body = cfg.body()
    world = generate_world(cfg.gen)
    slot = Slot(agent_id="greedy", agent=make_agent("greedy", body, 2), body=body)
    live = str(tmp_path / f"live_{tag}.ndjson")
    disc = str(tmp_path / f"disc_{tag}.ndjson")
    run_episode(world, [slot], cfg.step, cfg.problem, cfg.score, cfg.episode,
                live_path=live, disclosure_path=disc)
    return world, live, disc


def test_live_trace_is_clean_and_disclosure_is_richer(tmp_path):
    world, live, disc = run_traced_episode(tmp_path, "a")

    header, events = read_trace(live)
    assert header["mode"] == LIVE
    kinds = {e["kind"] for e in events}
    assert {"problem_issued", "sense", "act", "sample", "drift"} <= kinds

    regenerated = generate_world(world.spec)
    assert audit_live_trace(live, secret_strings(regenerated)) == []

    disc_header, disc_events = read_trace(disc)
    assert disc_header["mode"] == DISCLOSURE
    disc_kinds = {e["kind"] for e in disc_events}
    assert kinds <= disc_kinds

    issued = [e for e in disc_events if e["kind"] == "problem_issued"]
    assert issued and all("hidden_actions" in e["problem"] for e in issued)
    drift = [e for e in disc_events if e["kind"] == "drift"]
    assert drift and all("new_laws" in e for e in drift)
    for key in ("seed", "n_entities"):
        assert key in json.dumps(disc_header)


def test_trace_bytes_are_reproducible(tmp_path):
    _, live_a, disc_a = run_traced_episode(tmp_path, "a")
    _, live_b, disc_b = run_traced_episode(tmp_path, "b")
    assert same_bytes(live_a, live_b)
    assert same_bytes(disc_a, disc_b)


def test_forbidden_key_set_is_stable():
    # The redaction contract: anything a law or seed could leak through.
    for key in ("seed", "laws", "coeff", "hidden_actions", "rng", "streams"):
        assert key in FORBIDDEN_LIVE_KEYS


# ------------------------------------------------------ the live-tier table


def test_live_field_table_names_no_forbidden_key():
    for kind, paths in LIVE_FIELDS.items():
        for path in paths:
            for name in path.split("."):
                assert name not in FORBIDDEN_LIVE_KEYS, (kind, path)


@pytest.mark.parametrize("kind, planted", [
    ("act", "resources.energy"), ("sample", "seed"),
    ("problem_issued", "problem.o_ref.x"), ("header", "secret"),
])
def test_a_live_field_no_schema_has_fails(kind, planted):
    schema = _DISCLOSURE_SCHEMAS[kind]
    assert _cut(schema, _field_tree(LIVE_FIELDS[kind]), kind)
    with pytest.raises(ValueError, match=f"names {kind}.{planted}, which no schema"):
        _cut(schema, _field_tree(LIVE_FIELDS[kind] + (planted,)), kind)


def test_sink_keeps_unlisted_kinds_and_fields_out_of_the_live_tier(tmp_path):
    live, disc = str(tmp_path / "live.ndjson"), str(tmp_path / "disc.ndjson")
    header = {"kind": "header", "mode": DISCLOSURE, "format": 1, "seed": 9}
    with TraceSink(live, disc, header) as sink:
        assert sink.event({"kind": "snapshot", "tick": 3, "state_hash": "ab"}) is None
        assert sink.event({"kind": "unlisted", "tick": 3}) is None
        view = sink.event({"kind": "sense", "tick": 3, "agent": "a",
                           "grid_hash": "cd", "seed": 9})
    assert view == {"kind": "sense", "tick": 3, "agent": "a", "grid_hash": "cd"}

    live_header, live_events = read_trace(live)
    assert live_header == {"kind": "header", "mode": LIVE, "format": 1}
    assert live_events == [view]
    disc_header, disc_events = read_trace(disc)
    assert disc_header == header
    assert [e["kind"] for e in disc_events] == ["snapshot", "unlisted", "sense"]
    assert disc_events[2]["seed"] == 9


def test_agent_sees_exactly_the_live_problem(tmp_path):
    cfg = RunConfig(gen=GenSpec(seed=4, drift=DriftSchedule(regime_times=(25,))),
                    episode=EpisodeConfig(horizon=60))
    body = cfg.body()
    agent = make_agent("greedy", body, 2)
    received = []
    forward = agent.on_problem
    agent.on_problem = lambda payload: (received.append(payload), forward(payload))
    live = str(tmp_path / "live.ndjson")
    run_episode(generate_world(cfg.gen), [Slot(agent_id="greedy", agent=agent, body=body)],
                cfg.step, cfg.problem, cfg.score, cfg.episode, live_path=live)

    _, events = read_trace(live)
    issued = [e["problem"] for e in events if e["kind"] == "problem_issued"]
    assert len(issued) >= 2
    assert received == issued
