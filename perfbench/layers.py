"""Per-layer tracing from outside the program.

`install` replaces each timed public function with a wrapper, in every
`driftworld` module that holds it by name (so `harness.step` and
`problems.step` are both caught), and each timed method on its class.
A wrapper records one span: its layer name, the span that called it,
its total time and its self time, which excludes time spent in wrapped
children.  Spans are kept in memory and summarised by `layer_metrics`
when the run ends.  End-to-end figures come from untraced runs; the
traced run exists only for these per-layer numbers.
"""

from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict

#: Layer span -> the functions it times, as (module, class or "", name).
SPANS = {
    "worldgen.generate_world": [("worldgen", "", "generate_world")],
    "worldgen.recompute_aggregates": [("worldgen", "World", "recompute_aggregates")],
    "worldgen.clone": [("worldgen", "World", "clone")],
    "dynamics.step": [("dynamics", "", "step")],
    "dynamics.accel": [("dynamics", "", "compute_accelerations")],
    "interface.sense": [("interface", "", "sense")],
    "problems.generate": [("problems", "", "generate_problem")],
    "problems.null_baseline": [("problems", "", "null_baseline")],
    "problems.hit_score": [("problems", "", "hit_score")],
    "agents.act": [("agents", "NullAgent", "act"), ("agents", "RandomAgent", "act"),
                   ("agents", "GreedyAgent", "act"), ("harness", "ScriptedAgent", "act")],
    "harness.run_episode": [("harness", "", "run_episode")],
    "trace.event": [("trace", "TraceWriter", "event")],
    "trace.read": [("trace", "", "read_trace")],
    "canon.hash": [("canon", "", "canonical_hash")],
    "protocol.validate": [("protocol", "", "validate_message")],
    "protocol.act": [("protocol", "SubprocessAgent", "act")],
    "metrics.compute": [("metrics", "", "compute_metrics")],
    "config.load": [("config", "", "load_config")],
}


class Tracer:
    """In-memory span recorder.  Records only while `phase` is set."""

    def __init__(self):
        self.phase: str | None = None
        self._stack: list[list] = []  # [layer, seconds in wrapped children]
        self.total: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.self_s: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.calls: dict[tuple[str, str, str | None], int] = defaultdict(int)

    def wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            phase = self.phase
            if phase is None:
                return fn(*args, **kwargs)
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append([layer, 0.0])
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                child = self._stack.pop()[1]
                if self._stack:
                    self._stack[-1][1] += elapsed
                self.total[phase, layer].append(elapsed)
                self.self_s[phase, layer].append(elapsed - child)
                self.calls[phase, layer, parent] += 1
            if layer == "problems.hit_score" and (args[0] if args else kwargs["solved"]):
                self.calls[phase, "problems.solved", parent] += 1
            return result

        traced.__wrapped__ = fn
        return traced

    # -- summaries ----------------------------------------------------------

    def count(self, layer: str, parent: str | None = "*", phase: str = "timed") -> int:
        return sum(n for (ph, name, par), n in self.calls.items()
                   if ph == phase and name == layer and (parent == "*" or par == parent))

    def median_ms(self, layer: str, phases=("timed",)) -> float:
        values = [v for ph in phases for v in self.total.get((ph, layer), [])]
        return 1000.0 * statistics.median(values) if values else 0.0


def install(tracer: Tracer) -> None:
    """Wrap every span's function wherever a `driftworld` module holds it."""
    for layer, functions in SPANS.items():
        for module_name, owner, attr in functions:
            module = importlib.import_module(f"driftworld.{module_name}")
            if owner:
                cls = getattr(module, owner)
                setattr(cls, attr, tracer.wrap(layer, cls.__dict__[attr]))
                continue
            original = getattr(module, attr)
            wrapped = tracer.wrap(layer, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod_name == "driftworld" or mod_name.startswith("driftworld."):
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)


def layer_metrics(tracer: Tracer, rounds: int) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of the timed part: name -> (value, unit).

    Times are medians per call in ms; `*_per_tick` counts are per live
    tick (a world step called by the episode loop); `problems.issued`
    and `problems.solved` are per round, so they repeat exactly.
    """
    live_ticks = tracer.count("dynamics.step", parent="harness.run_episode")
    steps = tracer.count("dynamics.step")
    issued = tracer.count("problems.generate")
    ghost_steps = steps - live_ticks

    def per_tick(n: int) -> float:
        return n / live_ticks if live_ticks else 0.0

    loop_self = sum(tracer.self_s.get(("timed", "harness.run_episode"), []))
    return {
        "worldgen.generate_world_ms": (tracer.median_ms("worldgen.generate_world",
                                                        ("setup", "timed")), "ms"),
        "worldgen.recompute_aggregates_ms": (tracer.median_ms("worldgen.recompute_aggregates"), "ms"),
        "worldgen.aggregate_passes_per_step": (
            tracer.count("worldgen.recompute_aggregates", parent="dynamics.step") / steps
            if steps else 0.0, "count"),
        "worldgen.clone_ms": (tracer.median_ms("worldgen.clone"), "ms"),
        "dynamics.step_ms": (tracer.median_ms("dynamics.step"), "ms"),
        "dynamics.accel_ms": (tracer.median_ms("dynamics.accel"), "ms"),
        "dynamics.steps_per_tick": (per_tick(steps), "count"),
        "interface.sense_ms": (tracer.median_ms("interface.sense"), "ms"),
        "interface.senses_per_tick": (per_tick(tracer.count("interface.sense")), "count"),
        "problems.generate_ms": (tracer.median_ms("problems.generate"), "ms"),
        "problems.null_baseline_ms": (tracer.median_ms("problems.null_baseline"), "ms"),
        "problems.ghost_steps_per_problem": (ghost_steps / issued if issued else 0.0, "count"),
        "problems.issued": (issued / rounds, "count"),
        "problems.solved": (tracer.count("problems.solved") / rounds, "count"),
        "agents.act_ms": (tracer.median_ms("agents.act"), "ms"),
        "harness.loop_self_ms_per_tick": (1000.0 * loop_self / live_ticks
                                          if live_ticks else 0.0, "ms"),
        "trace.event_ms": (tracer.median_ms("trace.event"), "ms"),
        "trace.events_per_tick": (per_tick(tracer.count("trace.event")), "count"),
        "trace.read_ms": (tracer.median_ms("trace.read"), "ms"),
        "canon.hash_ms": (tracer.median_ms("canon.hash"), "ms"),
        "canon.hashes_per_tick": (per_tick(tracer.count("canon.hash")), "count"),
        "protocol.validate_ms": (tracer.median_ms("protocol.validate"), "ms"),
        "protocol.act_roundtrip_ms": (tracer.median_ms("protocol.act"), "ms"),
        "protocol.messages_per_tick": (per_tick(tracer.count("protocol.validate")), "count"),
        "metrics.compute_ms": (tracer.median_ms("metrics.compute"), "ms"),
        "config.load_ms": (tracer.median_ms("config.load", ("setup", "timed")), "ms"),
    }
