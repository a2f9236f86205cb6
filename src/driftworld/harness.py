"""Episode loop, evaluation stages, and trace replay.

The tick pipeline is fixed and order-deterministic: issue problems to
idle agents, sense for every agent in id order, act for every agent in
id order, advance the world one step (laws drift inside the step), close
any problem that is solved or out of time, then record score samples and
periodic snapshot hashes.  Every agent senses exactly once and acts
exactly once per tick; the loop checks that invariant itself so
multi-agent runs cannot silently starve anyone.

Stage one evaluates each agent alone on matched worlds derived from one
master seed.  Stage two puts all agents into a single shared world with
disjoint bodies and per-agent problem streams.  Replay re-runs a
disclosure trace against regenerated worlds with the recorded actions
and compares the regenerated trace byte for byte.
"""

from __future__ import annotations

import json
import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .agents import BaseAgent, make_agent
from .canon import canonical_dumps
from .config import EpisodeConfig, RunConfig
from .dynamics import StepParams, snapshot_hash, step
from .errors import ConfigError, ContractViolation, DriftworldError
from .interface import BodySpec, forces_to_accel, sense, validate_forces
from .metrics import AgentMetrics, MetricParams, compute_metrics, rank_agents
from .problems import (
    Problem,
    ProblemParams,
    ScoreParams,
    check_solved,
    generate_problem,
    hit_score,
    normalized_score,
    null_baseline,
)
from .trace import DISCLOSURE, TRACE_FORMAT, TraceSink, read_trace
from .worldgen import CausationLaw, GenSpec, World, generate_world


@dataclass
class Slot:
    """One agent's seat in an episode."""

    agent_id: str
    agent: BaseAgent
    body: BodySpec
    stream_name: str = "problems"

    # per-episode state, owned by the loop
    active: Problem | None = None
    o_count: int = 0
    cumulative: float = 0.0
    samples: list = field(default_factory=list)
    closures: list = field(default_factory=list)
    issued_in_segment: int = 0
    issued_total: int = 0
    senses: int = 0
    acts: int = 0


@dataclass
class EpisodeResult:
    agent_ids: list[str]
    samples: dict[str, list[tuple[int, float]]]
    cumulative: dict[str, float]
    drift_marks: list[int]
    closures: dict[str, list[dict]]
    senses: dict[str, int]
    acts: dict[str, int]
    fairness_violations: int
    budget_misses: dict[str, int]
    final_tick: int
    problems_closed: int

    def metrics(self, agent_id: str, params: MetricParams) -> AgentMetrics:
        return compute_metrics(self.samples[agent_id], self.drift_marks, params)


class _ReplayScript:
    """Recorded actions, resources, and null baselines for one agent."""

    def __init__(self):
        self.forces: dict[int, np.ndarray] = {}
        self.resources: dict[int, dict] = {}
        self.p_null: dict[int, float] = {}
        self.budget_misses = 0


class ScriptedAgent(BaseAgent):
    """Replays recorded actions verbatim.  Forces are already validated,
    so the loop must not clamp them again (bit-exactness).  It also
    impersonates the recorded agent's kind and budget misses, since both
    are echoed into trace lines the replay must reproduce."""

    kind = "scripted"
    reportable = False
    pre_validated = True

    def __init__(self, body: BodySpec, dim: int, script: _ReplayScript,
                 kind: str | None = None):
        super().__init__(body, dim)
        self.script = script
        if kind is not None:
            self.kind = kind
        self.budget_misses = script.budget_misses

    def act(self, observation: dict) -> np.ndarray:
        tick = observation["tick"]
        if tick not in self.script.forces:
            raise ContractViolation(f"no recorded action for tick {tick}")
        self._tick = tick
        return self.script.forces[tick]

    def resources(self) -> dict:
        return dict(self.script.resources[self._tick])


def _header(world: World, slots: list[Slot], step_params: StepParams,
            problem_params: ProblemParams, score_params: ScoreParams,
            episode: EpisodeConfig) -> dict:
    return {
        "kind": "header",
        "mode": DISCLOSURE,
        "format": TRACE_FORMAT,
        "stream_algorithm": rngmod.STREAM_ALGORITHM,
        "step_params": step_params.to_dict(),
        "score_params": score_params.to_dict(),
        "episode": episode.to_dict(),
        "bodies": {s.agent_id: s.body.to_dict() for s in slots},
        "agent_kinds": {s.agent_id: s.agent.kind for s in slots},
        "gen_spec": world.spec.to_dict(),
        "problem_params": problem_params.to_dict(),
        "stream_names": {s.agent_id: s.stream_name for s in slots},
        "initial_state_hash": snapshot_hash(world),
    }


def run_episode(world: World, slots: list[Slot], step_params: StepParams,
                problem_params: ProblemParams, score_params: ScoreParams,
                episode: EpisodeConfig, live_path: str | None = None,
                disclosure_path: str | None = None,
                replay_nulls: dict[int, float] | None = None) -> EpisodeResult:
    """Run one episode in place.  The world is consumed.

    Every trace line goes through one `TraceSink`, which decides what the
    live tier sees.  `replay_nulls` substitutes recorded null-baseline
    values by problem id instead of re-running the baseline rollouts;
    everything else in replay mode flows through the ordinary pipeline.
    """
    for params in (step_params, problem_params, score_params, episode):
        params.validate()
    ids = [s.agent_id for s in slots]
    if len(set(ids)) != len(ids):
        raise ConfigError("agent ids must be unique")
    claimed: set[int] = set()
    for slot in slots:
        slot.body.validate(world.n_entities)
        members = set(slot.body.member_ids)
        if members & claimed:
            raise ConfigError("agent bodies must claim disjoint entities")
        claimed |= members
    slots = sorted(slots, key=lambda s: s.agent_id)
    for slot in slots:
        world.stream(slot.stream_name)  # materialize before first snapshot

    header = _header(world, slots, step_params, problem_params, score_params,
                     episode)
    dim = world.spec.dim
    marks: list[int] = []
    fairness_violations = 0
    next_problem_id = 0
    closed_total = 0

    with TraceSink(live_path, disclosure_path, header) as sink:
        for t in range(episode.horizon):
            if world.tick != t:
                raise ContractViolation("episode loop lost the world clock")

            # 1. issue problems to idle agents
            for slot in slots:
                if slot.active is not None:
                    continue
                if episode.max_problems is not None \
                        and slot.issued_total >= episode.max_problems:
                    continue
                if episode.problems_per_regime is not None \
                        and slot.issued_in_segment >= episode.problems_per_regime:
                    continue
                problem = generate_problem(
                    world, slot.body, problem_params, step_params,
                    next_problem_id, slot.stream_name,
                )
                next_problem_id += 1
                if replay_nulls is not None:
                    problem.p_null = replay_nulls[problem.id]
                else:
                    problem.p_null = null_baseline(
                        world, slot.body, problem, step_params,
                        problem_params.null_rollouts,
                    )
                slot.active = problem
                slot.o_count = 0
                slot.issued_in_segment += 1
                slot.issued_total += 1
                issued = sink.event({"kind": "problem_issued", "tick": t,
                                     "agent": slot.agent_id,
                                     "problem": problem.disclosure_payload()})
                slot.agent.on_problem(issued["problem"])
                if hasattr(slot.agent, "load_script"):
                    slot.agent.load_script(problem.hidden_actions,
                                           problem.issued_tick)

            # 2. sense phase, fixed id order
            observations: dict[str, dict] = {}
            for slot in slots:
                reading = sense(world, slot.body)
                slot.senses += 1
                if slot.active is not None:
                    slot.o_count += 1
                sink.event({"kind": "sense", "tick": t, "agent": slot.agent_id,
                            "grid_hash": reading.hash()})
                observations[slot.agent_id] = reading.to_payload()

            # 3. act phase, fixed id order
            total_accel = np.zeros_like(world.positions)
            for slot in slots:
                raw = slot.agent.act(observations[slot.agent_id])
                if getattr(slot.agent, "pre_validated", False):
                    forces = np.asarray(raw, dtype=np.float64)
                    if forces.shape != (len(slot.body.member_ids), dim):
                        raise ContractViolation("scripted action has wrong shape")
                else:
                    forces = validate_forces(raw, slot.body, dim)
                slot.acts += 1
                resources = slot.agent.resources()
                sink.event({"kind": "act", "tick": t, "agent": slot.agent_id,
                            "forces": forces.tolist(),
                            "resources": {"model_size": resources["model_size"],
                                          "updates": resources["updates"]}})
                total_accel += forces_to_accel(world, slot.body, forces)

            # fairness: exactly one sense and one act each, every tick
            for slot in slots:
                if slot.senses != t + 1 or slot.acts != t + 1:
                    fairness_violations += 1
                    raise ContractViolation(
                        f"fairness broken for {slot.agent_id} at tick {t}"
                    )

            # 4. advance the world; law drift happens inside the step
            step(world, step_params, external_accel=total_accel)
            if world.last_drift_events:
                levels = sorted(e["level"] for e in world.last_drift_events)
                marks.append(t)
                sink.event({"kind": "drift", "tick": t, "levels": levels,
                            "new_laws": [world.laws[lv].to_dict() for lv in levels]})
                for slot in slots:
                    slot.issued_in_segment = 0

            # 5. close solved and expired problems
            for slot in slots:
                if slot.active is None:
                    continue
                problem = slot.active
                reading = sense(world, slot.body)  # internal, not charged
                solved, distance = check_solved(reading, problem)
                timed_out = world.tick >= problem.deadline()
                last_tick = t == episode.horizon - 1
                if not (solved or timed_out or last_tick):
                    continue
                d_count = world.tick - problem.issued_tick
                raw_score = hit_score(
                    solved, slot.o_count, d_count, problem.o_ref,
                    problem.d_ref, problem.p_null, score_params.s_max,
                )
                resources = slot.agent.resources()
                value = normalized_score(
                    raw_score, resources["model_size"], resources["updates"],
                    score_params.lam_model, score_params.lam_compute,
                )
                slot.cumulative += value
                reason = "solved" if solved else ("timeout" if timed_out else "horizon")
                record = {
                    "kind": "problem_closed", "tick": world.tick,
                    "agent": slot.agent_id, "problem_id": problem.id,
                    "solved": solved, "reason": reason,
                    "o_count": slot.o_count, "d_count": d_count,
                    "distance": distance, "score": value,
                }
                sink.event(record)
                slot.closures.append(record)
                closed_total += 1
                slot.agent.on_problem_closed({
                    "problem_id": problem.id, "solved": solved,
                    "score": value, "tick": world.tick,
                })
                slot.active = None

            # 6. score samples
            if world.tick % episode.sample_every == 0 or t == episode.horizon - 1:
                for slot in slots:
                    slot.samples.append((world.tick, slot.cumulative))
                    sink.event({"kind": "sample", "tick": world.tick,
                                "agent": slot.agent_id,
                                "cumulative": slot.cumulative})

            # 7. periodic state fingerprints for replay verification
            if world.tick % episode.snapshot_every == 0:
                sink.event({"kind": "snapshot", "tick": world.tick,
                            "state_hash": snapshot_hash(world)})

            if episode.stop_after_problems is not None \
                    and closed_total >= episode.stop_after_problems:
                break

        sink.event({
            "kind": "end", "tick": world.tick,
            "cumulative": {s.agent_id: s.cumulative for s in slots},
            "problems_closed": closed_total,
            "budget_misses": {
                s.agent_id: getattr(s.agent, "budget_misses", 0) for s in slots
            },
            "fairness_violations": fairness_violations,
        })

    return EpisodeResult(
        agent_ids=[s.agent_id for s in slots],
        samples={s.agent_id: list(s.samples) for s in slots},
        cumulative={s.agent_id: s.cumulative for s in slots},
        drift_marks=marks,
        closures={s.agent_id: list(s.closures) for s in slots},
        senses={s.agent_id: s.senses for s in slots},
        acts={s.agent_id: s.acts for s in slots},
        fairness_violations=fairness_violations,
        budget_misses={
            s.agent_id: getattr(s.agent, "budget_misses", 0) for s in slots
        },
        final_tick=world.tick,
        problems_closed=closed_total,
    )


# -- stages ----------------------------------------------------------------


def _make_slot(kind: str, config: RunConfig, world_seed: int, idx: int,
               multi: bool) -> Slot:
    first_id = idx * config.body_members if multi else 0
    body = config.body(first_id)
    suffix = f".{idx}" if multi else ""
    stream = None
    if kind == "random":
        stream = rngmod.make_stream(world_seed, f"agent{suffix}")
    agent = make_agent(kind, body, config.gen.dim, stream=stream)
    agent_id = f"a{idx}_{kind}" if multi else kind
    problems_stream = f"problems{suffix}" if multi else "problems"
    return Slot(agent_id=agent_id, agent=agent, body=body,
                stream_name=problems_stream)


def _require_reportable(slots: list[Slot]) -> None:
    for slot in slots:
        if not slot.agent.reportable:
            raise ContractViolation(
                f"agent {slot.agent_id!r} is calibration-only and cannot be ranked"
            )


def _summarize(agent_ids: list[str], worlds: list[dict[str, AgentMetrics]]
               ) -> tuple[dict, list[str], dict]:
    """Per-agent mean metrics over worlds, the ranking of those means, and
    for each ordered pair the number of worlds where a's index beat b's."""
    means = {
        aid: {name: float(np.mean([getattr(w[aid], name) for w in worlds]))
              for name in ("acquisition", "plateau", "retention", "index")}
        for aid in agent_ids
    }
    ranking = rank_agents([
        (aid, AgentMetrics(**v, n_segments=0, n_marks=0))
        for aid, v in means.items()
    ])
    wins = {
        a: {b: sum(1 for w in worlds if w[a].index > w[b].index)
            for b in agent_ids if b != a}
        for a in agent_ids
    }
    return means, ranking, wins


@dataclass
class StageReport:
    stage: int
    agent_ids: list[str]
    per_world: list[dict]
    means: dict[str, dict]
    ranking: list[str]
    wins: dict[str, dict[str, int]]

    def to_dict(self) -> dict:
        return {
            "stage": self.stage,
            # A floor, not a point estimate: retuning an agent's own
            # parameters can only raise its index.
            "lower_bound": True,
            "agent_ids": self.agent_ids,
            "per_world": self.per_world,
            "means": self.means,
            "ranking": self.ranking,
            "wins": self.wins,
        }


def run_stage1(config: RunConfig, outdir: str | None = None,
               write_traces: bool = False) -> StageReport:
    """Each agent alone on the same derived worlds; mean metrics rank them."""
    config.validate()
    kinds = list(config.agents)
    if len(set(kinds)) != len(kinds):
        raise ConfigError("stage one agent kinds must be distinct")

    per_world: list[dict] = []
    per_world_metrics: list[dict[str, AgentMetrics]] = []

    for i in range(config.n_worlds):
        seed = rngmod.derive_world_seed(config.master_seed, i)
        world_row: dict = {"world": i, "seed": seed, "agents": {}}
        world_metrics: dict[str, AgentMetrics] = {}
        for kind in kinds:
            spec = replace(config.gen, seed=seed)
            world = generate_world(spec)
            slot = _make_slot(kind, config, seed, 0, multi=False)
            _require_reportable([slot])
            live_path = disc_path = None
            if write_traces and outdir:
                live_path = os.path.join(outdir, f"w{i}_{kind}.live.ndjson")
                disc_path = os.path.join(outdir, f"w{i}_{kind}.disclosure.ndjson")
            result = run_episode(
                world, [slot], config.step, config.problem, config.score,
                config.episode, live_path=live_path, disclosure_path=disc_path,
            )
            m = world_metrics[kind] = result.metrics(slot.agent_id, config.metric)
            world_row["agents"][kind] = {
                "metrics": m.to_dict(),
                "cumulative": result.cumulative[slot.agent_id],
                "problems_closed": len(result.closures[slot.agent_id]),
                "drift_marks": result.drift_marks,
            }
        per_world.append(world_row)
        per_world_metrics.append(world_metrics)

    means, ranking, wins = _summarize(kinds, per_world_metrics)
    return StageReport(stage=1, agent_ids=kinds, per_world=per_world,
                       means=means, ranking=ranking, wins=wins)


def run_stage2(config: RunConfig, live_path: str | None = None,
               disclosure_path: str | None = None) -> StageReport:
    """All agents share one world, disjoint bodies, own problem streams."""
    config.validate()
    kinds = list(config.agents)
    needed = len(kinds) * config.body_members
    if needed > config.gen.n_entities:
        raise ConfigError(
            f"{len(kinds)} agents x {config.body_members} members need "
            f"{needed} entities, world has {config.gen.n_entities}"
        )
    world = generate_world(config.gen)
    slots = [
        _make_slot(kind, config, config.gen.seed, idx, multi=True)
        for idx, kind in enumerate(kinds)
    ]
    _require_reportable(slots)
    result = run_episode(
        world, slots, config.step, config.problem, config.score,
        config.episode, live_path=live_path, disclosure_path=disclosure_path,
    )

    metrics: dict[str, AgentMetrics] = {}
    agents_row: dict = {}
    for slot_id in result.agent_ids:
        m = metrics[slot_id] = result.metrics(slot_id, config.metric)
        agents_row[slot_id] = {
            "metrics": m.to_dict(),
            "cumulative": result.cumulative[slot_id],
            "problems_closed": len(result.closures[slot_id]),
            "senses": result.senses[slot_id],
            "acts": result.acts[slot_id],
        }
    per_world = [{
        "world": 0, "seed": config.gen.seed, "agents": agents_row,
        "drift_marks": result.drift_marks,
        "fairness_violations": result.fairness_violations,
    }]
    means, ranking, wins = _summarize(result.agent_ids, [metrics])
    return StageReport(stage=2, agent_ids=result.agent_ids,
                       per_world=per_world, means=means, ranking=ranking,
                       wins=wins)


def oracle_calibration(config: RunConfig, n_problems: int) -> dict:
    """Run the script-replaying oracle until n problems close.

    Reports how many of them it solved; this pins the achievable end of
    the difficulty scale for the configured problem parameters.
    """
    config.validate()
    spec = replace(config.gen)
    world = generate_world(spec)
    slot = _make_slot("oracle", config, spec.seed, 0, multi=False)
    episode = EpisodeConfig(
        horizon=n_problems * (config.problem.timeout + 2) + 4,
        snapshot_every=10_000_000,
        sample_every=max(1, config.episode.sample_every),
        stop_after_problems=n_problems,
        budget_s=config.episode.budget_s,
    )
    result = run_episode(
        world, [slot], config.step, config.problem, config.score, episode,
    )
    closures = result.closures[slot.agent_id][:n_problems]
    solved = sum(1 for c in closures if c["solved"])
    return {
        "total": len(closures),
        "solved": solved,
        "closures": closures,
        "final_tick": result.final_tick,
    }


# -- replay ----------------------------------------------------------------


def _scripts_from_events(events: list[dict]) -> tuple[dict, dict]:
    """Collect per-agent recorded actions/resources and per-problem nulls."""
    scripts: dict[str, _ReplayScript] = {}
    nulls: dict[int, float] = {}
    for doc in events:
        kind = doc.get("kind")
        if kind == "act":
            script = scripts.setdefault(doc["agent"], _ReplayScript())
            script.forces[doc["tick"]] = np.asarray(doc["forces"], dtype=np.float64)
            script.resources[doc["tick"]] = doc["resources"]
        elif kind == "problem_issued":
            p = doc["problem"]
            if "p_null" not in p:
                raise ContractViolation(
                    "replay needs a disclosure trace, not a live trace"
                )
            nulls[p["id"]] = p["p_null"]
        elif kind == "end":
            for agent_id, misses in doc.get("budget_misses", {}).items():
                scripts.setdefault(agent_id, _ReplayScript()).budget_misses = misses
    return scripts, nulls


def replay_trace(disclosure_path: str, regenerated_path: str | None = None) -> dict:
    """Re-run a disclosure trace and compare the bytes.

    The world is regenerated from the recorded spec, problems are redrawn
    from the same streams at the same ticks, recorded actions are applied
    verbatim, and the newly written disclosure trace must match the
    original line for line.  Null baselines are not re-rolled; the
    recorded values are reused.
    """
    try:
        header, events = read_trace(disclosure_path)
        if header.get("mode") != DISCLOSURE:
            raise ContractViolation("replay needs a disclosure trace")

        spec = GenSpec.from_dict(header["gen_spec"])
        step_params = StepParams.from_dict(header["step_params"])
        problem_params = ProblemParams.from_dict(header["problem_params"])
        score_params = ScoreParams.from_dict(header["score_params"])
        episode = EpisodeConfig.from_dict(header["episode"])
        scripts, nulls = _scripts_from_events(events)

        world = generate_world(spec)
        slots = []
        for agent_id, body_doc in sorted(header["bodies"].items()):
            body = BodySpec.from_dict(body_doc)
            script = scripts.get(agent_id, _ReplayScript())
            slots.append(Slot(
                agent_id=agent_id,
                agent=ScriptedAgent(body, spec.dim, script,
                                    kind=header["agent_kinds"].get(agent_id)),
                body=body,
                stream_name=header["stream_names"][agent_id],
            ))

        own_tmp = regenerated_path is None
        if own_tmp:
            fd, regenerated_path = tempfile.mkstemp(suffix=".ndjson")
            os.close(fd)
        try:
            run_episode(
                world, slots, step_params, problem_params, score_params,
                episode, disclosure_path=regenerated_path,
                replay_nulls=nulls,
            )
            with open(disclosure_path, "r", encoding="utf-8") as fh:
                original = fh.read().splitlines()
            with open(regenerated_path, "r", encoding="utf-8") as fh:
                regenerated = fh.read().splitlines()
        finally:
            if own_tmp:
                os.unlink(regenerated_path)

        for n, (old, new) in enumerate(zip(original, regenerated), start=1):
            if old != new:
                tick = None
                try:
                    tick = json.loads(new).get("tick")
                except (ValueError, AttributeError):
                    pass
                return {
                    "ok": False,
                    "verdict": "FAIL",
                    "first_divergence_line": n,
                    "first_divergence_tick": tick,
                    "lines_checked": n,
                }
        if len(original) != len(regenerated):
            short = min(len(original), len(regenerated))
            return {
                "ok": False,
                "verdict": "FAIL",
                "first_divergence_line": short + 1,
                "first_divergence_tick": None,
                "lines_checked": short,
            }
        return {
            "ok": True,
            "verdict": "OK",
            "first_divergence_line": None,
            "first_divergence_tick": None,
            "lines_checked": len(original),
        }
    except (DriftworldError, KeyError, ValueError, OSError) as exc:
        return {
            "ok": False,
            "verdict": "FAIL",
            "error": f"{type(exc).__name__}: {exc}",
            "first_divergence_line": None,
            "first_divergence_tick": None,
            "lines_checked": 0,
        }


def law_bytes(law: CausationLaw) -> bytes:
    """Canonical bytes of one law, for change audits."""
    return canonical_dumps(law.to_dict()).encode("utf-8")
