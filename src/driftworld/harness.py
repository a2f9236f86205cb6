"""Episode loop, evaluation stages, and trace replay.

The tick pipeline is fixed and order-deterministic: issue problems to
idle agents, sense for every agent in id order, act for every agent in
id order, advance the world one step (laws drift inside the step), close
any problem that is solved or out of time, then record score samples and
periodic snapshot hashes.  Every agent senses exactly once and acts
exactly once per tick; the loop checks that invariant itself so
multi-agent runs cannot silently starve anyone.  Each body's sensor is
read once before the loop and once after each step, and that reading
serves both the close check and the next tick's observation.  A
problem's null baseline is rolled only if it closes solved, from a clone
of the world taken when it was issued; its disclosure line is held until
then.

Stage one evaluates each agent alone on matched worlds derived from one
master seed.  Stage two puts all agents into a single shared world with
disjoint bodies and per-agent problem streams.  Replay reads a
disclosure trace once, as a stream, re-runs it on a regenerated world
with the recorded actions, and compares the regenerated file with the
original line by line as raw bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .agents import BaseAgent, make_agent
from .canon import from_doc, to_doc
from .config import EpisodeConfig, RunConfig
from .dynamics import StepParams, prepare, snapshot_hash, step
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
from .trace import DISCLOSURE, TRACE_FORMAT, TraceSink, check_line, iter_trace
from .worldgen import GenSpec, World, generate_world


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
    origin: World | None = None  # the world the active problem was issued from
    issued_doc: dict | None = None  # its held disclosure line


@dataclass
class EpisodeResult:
    agent_ids: list[str]
    samples: dict[str, list[tuple[int, float]]]
    cumulative: dict[str, float]
    drift_marks: list[int]
    closures: dict[str, list[dict]]
    senses: dict[str, int]
    acts: dict[str, int]
    budget_misses: dict[str, int]
    final_tick: int
    problems_closed: int

    def metrics(self, agent_id: str, params: MetricParams) -> AgentMetrics:
        return compute_metrics(self.samples[agent_id], self.drift_marks, params)


class ScriptedAgent(BaseAgent):
    """Replays recorded actions verbatim.  Forces are already validated,
    so the loop must not clamp them again (bit-exactness).  It also
    impersonates the recorded agent's kind, declared resources and budget
    misses, since all three are echoed into trace lines the replay must
    reproduce.  Replay fills `forces`, `declared` and `budget_misses`
    from the trace before the episode runs."""

    kind = "scripted"
    reportable = False
    pre_validated = True

    def __init__(self, body: BodySpec, dim: int, kind: str | None = None):
        super().__init__(body, dim)
        if kind is not None:
            self.kind = kind
        self.forces: dict[int, np.ndarray] = {}  # by tick
        self.declared: dict[int, dict] = {}  # resources by tick
        self.budget_misses = 0

    def act(self, observation: dict) -> np.ndarray:
        tick = observation["tick"]
        if tick not in self.forces:
            raise ContractViolation(f"no recorded action for tick {tick}")
        self._tick = tick
        return self.forces[tick]

    def resources(self) -> dict:
        return dict(self.declared[self._tick])


def _header(world: World, slots: list[Slot], step_params: StepParams,
            problem_params: ProblemParams, score_params: ScoreParams,
            episode: EpisodeConfig) -> dict:
    return {
        "kind": "header",
        "mode": DISCLOSURE,
        "format": TRACE_FORMAT,
        "stream_algorithm": rngmod.STREAM_ALGORITHM,
        "step_params": to_doc(step_params),
        "score_params": to_doc(score_params),
        "episode": to_doc(episode),
        "bodies": {s.agent_id: to_doc(s.body) for s in slots},
        "agent_kinds": {s.agent_id: s.agent.kind for s in slots},
        "gen_spec": to_doc(world.spec),
        "problem_params": to_doc(problem_params),
        "stream_names": {s.agent_id: s.stream_name for s in slots},
        "initial_state_hash": snapshot_hash(world),
    }


def run_episode(world: World, slots: list[Slot], step_params: StepParams,
                problem_params: ProblemParams, score_params: ScoreParams,
                episode: EpisodeConfig, live_path: str | None = None,
                disclosure_path: str | None = None,
                replay_nulls: dict[int, float | None] | None = None
                ) -> EpisodeResult:
    """Run one episode in place.  The world is consumed.

    Every trace line goes through one `TraceSink`, which decides what the
    live tier sees.  A problem's `problem_issued` line is held in the
    disclosure tier until the problem closes.  Only a solved problem gets
    a null baseline, rolled then from a clone of the world taken after
    the problems of its issue tick were drawn; any other problem's
    `p_null` is null.  `replay_nulls` substitutes recorded null-baseline
    values by problem id instead of rolling them; everything else in
    replay mode flows through the ordinary pipeline.
    """
    ids = [s.agent_id for s in slots]
    if len(set(ids)) != len(ids):
        raise ConfigError("agent ids must be unique")
    claimed: set[int] = set()
    for slot in slots:
        members = set(slot.body.member_ids)
        if max(members) >= world.n_entities:
            raise ConfigError("body member id out of range for this world")
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
    next_problem_id = 0
    closed_total = 0
    # one reading per body per tick: taken before the loop and after each
    # step, it serves the close check and the next tick's observation,
    # since issuing problems moves only clones
    readings = {slot.agent_id: sense(world, slot.body) for slot in slots}

    with TraceSink(live_path, disclosure_path, header) as sink:
        for t in range(episode.horizon):
            if world.tick != t:
                raise ContractViolation("episode loop lost the world clock")

            # 1. issue problems to idle agents: compute this tick's forces
            #    once, for the live step and every rollout from this state,
            #    draw the problems in slot order, keep the world they were
            #    drawn from for their null baselines, then announce them
            idle = [slot for slot in slots if slot.active is None
                    and (episode.max_problems is None
                         or slot.issued_total < episode.max_problems)
                    and (episode.problems_per_regime is None
                         or slot.issued_in_segment < episode.problems_per_regime)]
            if idle:
                prepare(world, step_params)
            batch: list[tuple[Slot, Problem]] = []
            for slot in idle:
                batch.append((slot, generate_problem(
                    world, slot.body, problem_params, step_params,
                    next_problem_id, slot.stream_name,
                )))
                next_problem_id += 1
            origin = world.clone() if batch and replay_nulls is None else None
            for slot, problem in batch:
                slot.active = problem
                slot.origin = origin
                slot.o_count = 0
                slot.issued_in_segment += 1
                slot.issued_total += 1
                slot.issued_doc = {"kind": "problem_issued", "tick": t,
                                   "agent": slot.agent_id,
                                   "problem": to_doc(problem)}
                issued = sink.event(slot.issued_doc, hold=True)
                slot.agent.on_problem(issued["problem"])
                if hasattr(slot.agent, "load_script"):
                    slot.agent.load_script(problem.hidden_actions,
                                           problem.issued_tick)

            # 2. sense phase, fixed id order
            observations: dict[str, dict] = {}
            for slot in slots:
                reading = readings[slot.agent_id]
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
                    raise ContractViolation(
                        f"fairness broken for {slot.agent_id} at tick {t}"
                    )

            # 4. advance the world; law drift happens inside the step
            step(world, step_params, external_accel=total_accel)
            readings = {slot.agent_id: sense(world, slot.body) for slot in slots}
            if world.last_drift_events:
                levels = sorted(e["level"] for e in world.last_drift_events)
                marks.append(t)
                sink.event({"kind": "drift", "tick": t, "levels": levels,
                            "new_laws": [to_doc(world.laws[lv]) for lv in levels]})
                for slot in slots:
                    slot.issued_in_segment = 0

            # 5. close solved and expired problems
            for slot in slots:
                if slot.active is None:
                    continue
                problem = slot.active
                solved, distance = check_solved(readings[slot.agent_id], problem)
                timed_out = world.tick >= problem.deadline()
                last_tick = t == episode.horizon - 1
                if not (solved or timed_out or last_tick):
                    continue
                # only a solved problem's score depends on its null baseline
                if solved:
                    if replay_nulls is None:
                        problem.p_null = null_baseline(slot.origin, slot.body,
                                                       problem, step_params)
                    elif replay_nulls.get(problem.id) is None:
                        raise ContractViolation(
                            f"trace records no null baseline for problem {problem.id}"
                        )
                    else:
                        problem.p_null = replay_nulls[problem.id]
                    slot.issued_doc["problem"]["p_null"] = problem.p_null
                sink.release(slot.issued_doc)
                slot.origin = slot.issued_doc = None
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

        cumulative = {s.agent_id: s.cumulative for s in slots}
        budget_misses = {s.agent_id: getattr(s.agent, "budget_misses", 0)
                         for s in slots}
        sink.event({"kind": "end", "tick": world.tick, "cumulative": cumulative,
                    "problems_closed": closed_total,
                    "budget_misses": budget_misses})

    return EpisodeResult(
        agent_ids=[s.agent_id for s in slots],
        samples={s.agent_id: list(s.samples) for s in slots},
        cumulative=cumulative,
        drift_marks=marks,
        closures={s.agent_id: list(s.closures) for s in slots},
        senses={s.agent_id: s.senses for s in slots},
        acts={s.agent_id: s.acts for s in slots},
        budget_misses=budget_misses,
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
        stream = rngmod.agent_stream(rngmod.agent_seed(world_seed, f"agent{suffix}"))
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
        # A floor, not a point estimate: retuning an agent's own
        # parameters can only raise its index.
        return {**to_doc(self), "lower_bound": True}


def _stage1_paths(outdir: str, i: int, kind: str) -> tuple[str, str]:
    """The live and disclosure trace paths of stage-one cell (i, kind)."""
    stem = os.path.join(outdir, f"w{i}_{kind}")
    return f"{stem}.live.ndjson", f"{stem}.disclosure.ndjson"


def _stage1_job(config: RunConfig, i: int, kind: str, outdir: str | None
                ) -> tuple[AgentMetrics, dict]:
    """One stage-one cell: `kind` alone on world `i`, traced into outdir
    when given.  Returns the cell's metrics and its report row."""
    seed = rngmod.derive_world_seed(config.master_seed, i)
    world = generate_world(replace(config.gen, seed=seed))
    slot = _make_slot(kind, config, seed, 0, multi=False)
    live_path = disc_path = None
    if outdir:
        live_path, disc_path = _stage1_paths(outdir, i, kind)
    result = run_episode(
        world, [slot], config.step, config.problem, config.score,
        config.episode, live_path=live_path, disclosure_path=disc_path,
    )
    m = result.metrics(slot.agent_id, config.metric)
    return m, {
        "metrics": to_doc(m),
        "cumulative": result.cumulative[slot.agent_id],
        "problems_closed": len(result.closures[slot.agent_id]),
        "drift_marks": result.drift_marks,
    }


def _map_jobs(fn, jobs: list[tuple]) -> list:
    """`fn(*job)` for every job, results in job order, with at most one
    process per CPU this process may run on.  Without
    `os.sched_getaffinity` (not Linux), or with one CPU, the jobs run here
    one after another.

    They also run here while `run_episode` is wrapped (the wrapper names
    the original as `__wrapped__`, as `functools.wraps` does): a wrapper
    that times or counts episodes keeps its records in this process, and
    a forked worker's records would be lost with the worker.
    """
    affinity = getattr(os, "sched_getaffinity", None)
    workers = min(len(jobs), len(affinity(0))) if affinity else 1
    if workers <= 1 or hasattr(run_episode, "__wrapped__"):
        return [fn(*job) for job in jobs]
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # Fork, named because Python 3.14 changes the Linux default: spawn and
    # forkserver re-import the caller's __main__, which fails for a script
    # without a __main__ guard.  Python 3.12+ warns when it forks a
    # process that has threads, and numpy's OpenBLAS has started some.
    # Fork is safe here all the same: the executor forks every worker from
    # this thread before its own manager thread starts, and OpenBLAS
    # registers at-fork handlers for its thread pool.
    pool = ProcessPoolExecutor(workers,
                               mp_context=multiprocessing.get_context("fork"))
    try:
        futures = [pool.submit(fn, *job) for job in jobs]
        return [f.result() for f in futures]
    finally:
        pool.shutdown(cancel_futures=True)


def run_stage1(config: RunConfig, outdir: str | None = None,
               write_traces: bool = False) -> StageReport:
    """Each agent alone on the same derived worlds; mean metrics rank them.

    Every (world, agent) episode is independent, so they run as jobs on
    every CPU this process may use; `taskset -c 0` runs them serially.
    Reports and traces are the same bytes either way.
    """
    kinds = list(config.agents)
    if len(set(kinds)) != len(kinds):
        raise ConfigError("stage one agent kinds must be distinct")
    _require_reportable([_make_slot(kind, config, config.master_seed, 0,
                                    multi=False) for kind in kinds])

    traced = outdir if write_traces else None
    jobs = [(config, i, kind, traced)
            for i in range(config.n_worlds) for kind in kinds]
    cells = iter(_map_jobs(_stage1_job, jobs))

    per_world: list[dict] = []
    per_world_metrics: list[dict[str, AgentMetrics]] = []
    for i in range(config.n_worlds):
        seed = rngmod.derive_world_seed(config.master_seed, i)
        world_row: dict = {"world": i, "seed": seed, "agents": {}}
        world_metrics: dict[str, AgentMetrics] = {}
        for kind in kinds:
            world_metrics[kind], world_row["agents"][kind] = next(cells)
        per_world.append(world_row)
        per_world_metrics.append(world_metrics)

    means, ranking, wins = _summarize(kinds, per_world_metrics)
    return StageReport(stage=1, agent_ids=kinds, per_world=per_world,
                       means=means, ranking=ranking, wins=wins)


def run_stage2(config: RunConfig, live_path: str | None = None,
               disclosure_path: str | None = None) -> StageReport:
    """All agents share one world, disjoint bodies, own problem streams."""
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
            "metrics": to_doc(m),
            "cumulative": result.cumulative[slot_id],
            "problems_closed": len(result.closures[slot_id]),
            "senses": result.senses[slot_id],
            "acts": result.acts[slot_id],
        }
    per_world = [{
        "world": 0, "seed": config.gen.seed, "agents": agents_row,
        "drift_marks": result.drift_marks,
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
    world = generate_world(config.gen)
    slot = _make_slot("oracle", config, config.gen.seed, 0, multi=False)
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


def _verdict(line: int | None = None, tick: int | None = None,
             checked: int = 0, error: str | None = None) -> dict:
    """A replay verdict; OK when no line diverged and nothing failed."""
    ok = line is None and error is None
    return {"ok": ok, "verdict": "OK" if ok else "FAIL",
            "first_divergence_line": line, "first_divergence_tick": tick,
            "lines_checked": checked, "error": error}


def _header_agent(agents: dict[str, ScriptedAgent], agent_id: str,
                  where: str) -> ScriptedAgent:
    if agent_id not in agents:
        raise ContractViolation(
            f"{where} names agent {agent_id!r}, which the header does not list")
    return agents[agent_id]


def _load_scripts(events, agents: dict[str, ScriptedAgent]
                  ) -> dict[int, float | None]:
    """Fill each agent's recorded forces, resources and budget misses from
    the trace's events, in one pass, and return the recorded null baseline
    of every problem: None where the trace records none (a problem that
    did not close solved).  Each line read from is checked first."""
    nulls: dict[int, float | None] = {}
    for doc in events:
        kind = doc.get("kind")
        if kind == "act":
            check_line(doc, DISCLOSURE)
            agent = _header_agent(agents, doc["agent"], "trace act")
            agent.forces[doc["tick"]] = np.asarray(doc["forces"], dtype=np.float64)
            agent.declared[doc["tick"]] = doc["resources"]
        elif kind == "problem_issued":
            problem = check_line(doc, DISCLOSURE)["problem"]
            nulls[problem["id"]] = problem["p_null"]
        elif kind == "end":
            for agent_id, count in check_line(doc, DISCLOSURE)["budget_misses"].items():
                _header_agent(agents, agent_id, "trace end").budget_misses = count
    return nulls


def replay_trace(disclosure_path: str, regenerated_path: str | None = None) -> dict:
    """Re-run a disclosure trace and compare the bytes.

    The trace is read once, as a stream: the header rebuilds the world,
    the agents' bodies and their problem streams, and the events give
    each agent's recorded actions.  Problems are redrawn from the same
    streams at the same ticks, the actions are applied verbatim, and the
    regenerated disclosure trace is written to `regenerated_path` (a
    temporary directory when None).  Then both files are walked line by
    line as raw bytes, line endings included; the first line that
    differs, or that only one file has, is the divergence.

    Replay takes as given what it cannot recompute: the actions, their
    declared resources, the budget misses and the agent kinds.  Null
    baselines are not re-rolled either: a problem that closes solved
    reuses its recorded value, and one whose trace line records none
    fails the replay.  Any other problem is written with a null
    `p_null`, so a value recorded for it fails the compare.
    """
    try:
        with contextlib.ExitStack() as stack:
            events = stack.enter_context(
                contextlib.closing(iter_trace(disclosure_path)))
            header = next(events)
            if header["mode"] != DISCLOSURE:
                raise ContractViolation("replay needs a disclosure trace")
            if header.get("format") != TRACE_FORMAT:
                raise ContractViolation(
                    f"trace format {header.get('format')} cannot be replayed by "
                    f"this program, which writes format {TRACE_FORMAT}"
                )
            check_line(header, DISCLOSURE)

            spec = from_doc(GenSpec, header["gen_spec"])
            step_params = from_doc(StepParams, header["step_params"])
            problem_params = from_doc(ProblemParams, header["problem_params"])
            score_params = from_doc(ScoreParams, header["score_params"])
            episode = from_doc(EpisodeConfig, header["episode"])
            slots = []
            for agent_id, body_doc in sorted(header["bodies"].items()):
                body = from_doc(BodySpec, body_doc)
                agent = ScriptedAgent(body, spec.dim,
                                      header["agent_kinds"].get(agent_id))
                slots.append(Slot(agent_id=agent_id, agent=agent, body=body,
                                  stream_name=header["stream_names"][agent_id]))
            nulls = _load_scripts(events, {s.agent_id: s.agent for s in slots})

            if regenerated_path is None:
                tmp = stack.enter_context(tempfile.TemporaryDirectory())
                regenerated_path = os.path.join(tmp, "regenerated.ndjson")
            run_episode(
                generate_world(spec), slots, step_params, problem_params,
                score_params, episode, disclosure_path=regenerated_path,
                replay_nulls=nulls,
            )
            n = 0
            with open(disclosure_path, "rb") as old_fh, \
                    open(regenerated_path, "rb") as new_fh:
                for n, (old, new) in enumerate(
                        itertools.zip_longest(old_fh, new_fh), start=1):
                    if old != new:
                        tick = None if new is None else json.loads(new).get("tick")
                        return _verdict(line=n, tick=tick, checked=n)
            return _verdict(checked=n)
    except (DriftworldError, KeyError, ValueError, OSError) as exc:
        return _verdict(error=f"{type(exc).__name__}: {exc}")
