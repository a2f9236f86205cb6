"""Episode loop, evaluation stages, and trace replay.

An `Episode` holds one episode's state, an `AgentRun` per seat, and
advances it a tick at a time through a fixed, order-deterministic
pipeline: `act()` issues problems to idle agents, senses for every agent
in id order and lets every agent act in id order; the driver steps the
world once (laws drift inside the step); `settle()` closes any problem
that is solved or out of time, then records score samples and periodic
snapshot hashes.  `run_episode` is that driver, for live runs and replay
alike.  Every agent senses and acts exactly once per tick; the episode
checks that itself so multi-agent runs cannot silently starve anyone.
Each body is read once before the first tick and once after each step,
and that reading serves both the close check and the next observation.
A problem's null baseline is rolled only if it closes solved, from a
clone of the world taken when it was issued; its disclosure line is
held until then.

Stage one evaluates each agent alone on matched worlds derived from one
master seed.  Stage two puts all agents into a single shared world with
disjoint bodies and per-agent problem streams.  Replay reads a
disclosure trace once, as a stream, re-runs the same episode loop on a
regenerated world with the recorded actions, null baselines included,
and compares the regenerated file with the original line by line as
raw bytes.
"""

from __future__ import annotations

import contextlib
import itertools
import os
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

from . import rng as rngmod
from .agents import BaseAgent, make_agent
from .canon import canonical_loads, from_doc, to_doc
from .config import EpisodeConfig, RunConfig
from .dynamics import StepParams, prepare, snapshot_hash, step
from .errors import ConfigError, ContractViolation, DriftworldError
from .interface import (BodySpec, SenseGrid, forces_to_accel, recorded_forces, sense,
                        validate_forces)
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
from .trace import (DISCLOSURE, TRACE_FORMAT, TraceSink, check_line, iter_trace,
                    live_view)
from .worldgen import GenSpec, World, generate_world


@dataclass
class Slot:
    """One agent's seat: the agent, its body and its problem stream.  An
    episode only reads it and resets its agent first, so a seat can run
    again and starts each episode as it was built."""

    agent_id: str
    agent: BaseAgent
    body: BodySpec
    stream_name: str = "problems"


@dataclass
class AgentRun:
    """One seat's state through one episode, and after it its result."""

    slot: Slot
    reading: SenseGrid  # the body's latest reading: close check, then observation
    active: Problem | None = None
    origin: World | None = None  # the world the active problem was issued from
    issued_doc: dict | None = None  # its held disclosure line
    o_count: int = 0
    issued_in_segment: int = 0
    issued_total: int = 0
    senses: int = 0
    acts: int = 0
    cumulative: float = 0.0
    samples: list = field(default_factory=list)
    closures: list = field(default_factory=list)
    budget_misses: int = 0


class ScriptedAgent(BaseAgent):
    """Replays recorded actions verbatim.  `_load_scripts` checks them as
    it reads them, and the loop must not clamp them again (bit-exactness).
    It also impersonates the recorded agent's kind, declared resources
    and budget misses, since all three are echoed into trace lines the
    replay must reproduce.  Replay fills `forces`, `declared` and
    `budget_misses` from the trace before the episode runs."""

    kind = "scripted"
    reportable = False

    def __init__(self, body: BodySpec, kind: str | None = None):
        super().__init__(body)
        if kind is not None:
            self.kind = kind
        self.forces: dict[int, np.ndarray] = {}  # by tick
        self.declared: dict[int, dict] = {}  # resources by tick

    def act(self, observation: dict) -> np.ndarray:
        tick = observation["tick"]
        if tick not in self.forces:
            raise ContractViolation(f"no recorded action for tick {tick}")
        self._tick = tick
        return self.forces[tick]

    def resources(self) -> dict:
        return dict(self.declared[self._tick])


class Episode:
    """One episode, advanced a tick at a time, and after `end()` its result.

    Until `done`, the driver calls `act()`, steps the world once with the
    acceleration it returns and calls `settle()`; every trace line goes
    through the driver's `TraceSink`, opened with `header`.
    """

    def __init__(self, world: World, slots: list[Slot], step_params: StepParams,
                 problem_params: ProblemParams, score_params: ScoreParams,
                 episode: EpisodeConfig):
        ids = [s.agent_id for s in slots]
        if not ids:
            raise ConfigError("an episode needs at least one agent")
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
        if world.tick != 0:
            raise ContractViolation("an episode starts from a world at tick 0")
        slots = sorted(slots, key=lambda s: s.agent_id)
        for slot in slots:
            slot.agent.reset()  # a reused seat starts as it was built
            world.stream(slot.stream_name)  # materialize before first snapshot
        self.world, self.config = world, episode
        self.step_params, self.problem_params = step_params, problem_params
        self.score_params = score_params
        self.header = {
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
        # one reading per body per tick: taken here and after each step, it
        # serves the close check and the next tick's observation, since
        # issuing problems moves only clones
        self.agents = {s.agent_id: AgentRun(s, sense(world, s.body)) for s in slots}
        self.tick = self.problems_closed = self.next_problem_id = 0
        self.drift_marks: list[int] = []

    @property
    def done(self) -> bool:
        stop = self.config.stop_after_problems
        return self.tick >= self.config.horizon or (
            stop is not None and self.problems_closed >= stop)

    def metrics(self, agent_id: str, params: MetricParams) -> AgentMetrics:
        return compute_metrics(self.agents[agent_id].samples, self.drift_marks, params)

    def act(self, sink: TraceSink) -> np.ndarray:
        """Phases 1-3 of this tick: issue, sense, act.  Returns the agents'
        summed acceleration for the driver's one world step."""
        world, t, cfg, runs = self.world, self.tick, self.config, self.agents.values()

        # 1. issue problems to idle agents: compute this tick's forces once,
        #    for the live step and every rollout from this state, draw the
        #    problems in seat order, keep the world they were drawn from for
        #    their null baselines, then announce them
        idle = [r for r in runs if r.active is None
                and (cfg.max_problems is None or r.issued_total < cfg.max_problems)
                and (cfg.problems_per_regime is None
                     or r.issued_in_segment < cfg.problems_per_regime)]
        if idle:
            prepare(world, self.step_params)
        problems = [generate_problem(world, r.slot.body, self.problem_params,
                                     self.step_params, self.next_problem_id + i,
                                     r.slot.stream_name) for i, r in enumerate(idle)]
        self.next_problem_id += len(idle)
        origin = world.clone() if idle else None
        for run, problem in zip(idle, problems):
            agent = run.slot.agent
            run.active, run.origin, run.o_count = problem, origin, 0
            run.issued_in_segment += 1
            run.issued_total += 1
            run.issued_doc = {"kind": "problem_issued", "tick": t,
                              "agent": run.slot.agent_id, "problem": to_doc(problem)}
            sink.event(run.issued_doc, hold=True)
            agent.on_problem(live_view(run.issued_doc)["problem"])
            if hasattr(agent, "load_script"):
                agent.load_script(problem.hidden_actions, problem.issued_tick)

        # 2. sense phase, fixed id order
        for run in runs:
            run.senses += 1
            if run.active is not None:
                run.o_count += 1
            sink.event({"kind": "sense", "tick": t, "agent": run.slot.agent_id,
                        "grid_hash": run.reading.hash()})
        observations = [run.reading.to_payload() for run in runs]

        # 3. act phase, fixed id order
        total_accel = np.zeros_like(world.positions)
        for run, observation in zip(runs, observations):
            slot = run.slot
            forces = slot.agent.act(observation)
            if not isinstance(slot.agent, ScriptedAgent):
                forces = validate_forces(forces, slot.body)
            run.acts += 1
            resources = slot.agent.resources()
            sink.event({"kind": "act", "tick": t, "agent": slot.agent_id,
                        "forces": forces.tolist(),
                        "resources": {"model_size": resources["model_size"],
                                      "updates": resources["updates"]}})
            total_accel += forces_to_accel(world, slot.body, forces)

        # fairness: exactly one sense and one act each, every tick
        for aid, run in self.agents.items():
            if run.senses != t + 1 or run.acts != t + 1:
                raise ContractViolation(f"fairness broken for {aid} at tick {t}")
        return total_accel

    def settle(self, sink: TraceSink) -> None:
        """Phases 5-7, after the driver stepped the world once (law drift
        happens inside the step): read the bodies, mark drift, close
        problems, then record samples and snapshots."""
        world, t, cfg, runs = self.world, self.tick, self.config, self.agents.values()
        if world.tick != t + 1:
            raise ContractViolation("episode loop lost the world clock")
        for run in runs:
            run.reading = sense(world, run.slot.body)
        if world.last_drift_events:
            levels = sorted(e["level"] for e in world.last_drift_events)
            self.drift_marks.append(t)
            sink.event({"kind": "drift", "tick": t, "levels": levels,
                        "new_laws": [to_doc(world.laws[lv]) for lv in levels]})
            for run in runs:
                run.issued_in_segment = 0

        # 5. close solved and expired problems
        for run in runs:
            problem, slot = run.active, run.slot
            if problem is None:
                continue
            solved, distance = check_solved(run.reading, problem)
            timed_out = world.tick >= problem.deadline()
            if not (solved or timed_out or t == cfg.horizon - 1):
                continue
            # only a solved problem's score depends on its null baseline
            if solved:
                problem.p_null = null_baseline(run.origin, slot.body, problem,
                                               self.step_params)
                run.issued_doc["problem"]["p_null"] = problem.p_null
            sink.release(run.issued_doc)
            run.origin = run.issued_doc = run.active = None
            d_count = world.tick - problem.issued_tick
            raw_score = hit_score(
                solved, run.o_count, d_count, problem.o_ref,
                problem.d_ref, problem.p_null, self.score_params.s_max,
            )
            resources = slot.agent.resources()
            value = normalized_score(
                raw_score, resources["model_size"], resources["updates"],
                self.score_params.lam_model, self.score_params.lam_compute,
            )
            run.cumulative += value
            reason = "solved" if solved else ("timeout" if timed_out else "horizon")
            record = {
                "kind": "problem_closed", "tick": world.tick,
                "agent": slot.agent_id, "problem_id": problem.id,
                "solved": solved, "reason": reason,
                "o_count": run.o_count, "d_count": d_count,
                "distance": distance, "score": value,
            }
            sink.event(record)
            run.closures.append(record)
            self.problems_closed += 1
            slot.agent.on_problem_closed({
                "problem_id": problem.id, "solved": solved,
                "score": value, "tick": world.tick,
            })

        # 6. score samples
        if world.tick % cfg.sample_every == 0 or t == cfg.horizon - 1:
            for aid, run in self.agents.items():
                run.samples.append((world.tick, run.cumulative))
                sink.event({"kind": "sample", "tick": world.tick, "agent": aid,
                            "cumulative": run.cumulative})

        # 7. periodic state fingerprints for replay verification
        if world.tick % cfg.snapshot_every == 0:
            sink.event({"kind": "snapshot", "tick": world.tick,
                        "state_hash": snapshot_hash(world)})
        self.tick += 1

    def end(self, sink: TraceSink) -> None:
        """Write the `end` line with each agent's total and budget misses."""
        for run in self.agents.values():
            run.budget_misses = run.slot.agent.budget_misses
        sink.event({"kind": "end", "tick": self.world.tick,
                    "cumulative": {a: r.cumulative for a, r in self.agents.items()},
                    "problems_closed": self.problems_closed,
                    "budget_misses": {a: r.budget_misses for a, r in self.agents.items()}})


def run_episode(world: World, slots: list[Slot], step_params: StepParams,
                problem_params: ProblemParams, score_params: ScoreParams,
                episode: EpisodeConfig, live_path: str | None = None,
                disclosure_path: str | None = None) -> Episode:
    """Run one episode to its end and return it.  The world is consumed.

    A problem's `problem_issued` line is held in the disclosure tier until
    it closes; only a solved problem's `p_null` is rolled, the others stay
    null.  Replay runs this same loop with scripted agents, so it rolls
    and checks every null baseline the live run rolled.
    """
    ep = Episode(world, slots, step_params, problem_params, score_params, episode)
    with TraceSink(live_path, disclosure_path, ep.header) as sink:
        while not ep.done:
            step(world, step_params, external_accel=ep.act(sink))
            ep.settle(sink)
        ep.end(sink)
    return ep


# -- stages ----------------------------------------------------------------


def _make_slot(kind: str, config: RunConfig, world_seed: int, idx: int,
               multi: bool) -> Slot:
    first_id = idx * config.body_members if multi else 0
    body = config.body(first_id)
    suffix = f".{idx}" if multi else ""
    stream = None
    if kind == "random":
        stream = rngmod.agent_stream(rngmod.agent_seed(world_seed, f"agent{suffix}"))
    agent = make_agent(kind, body, stream=stream)
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
    run = result.agents[slot.agent_id]
    return m, {
        "metrics": to_doc(m),
        "cumulative": run.cumulative,
        "problems_closed": len(run.closures),
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
    for slot_id, run in result.agents.items():
        m = metrics[slot_id] = result.metrics(slot_id, config.metric)
        agents_row[slot_id] = {
            "metrics": to_doc(m),
            "cumulative": run.cumulative,
            "problems_closed": len(run.closures),
            "senses": run.senses,
            "acts": run.acts,
        }
    per_world = [{
        "world": 0, "seed": config.gen.seed, "agents": agents_row,
        "drift_marks": result.drift_marks,
    }]
    means, ranking, wins = _summarize(list(metrics), [metrics])
    return StageReport(stage=2, agent_ids=list(metrics),
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
    closures = result.agents[slot.agent_id].closures[:n_problems]
    solved = sum(1 for c in closures if c["solved"])
    return {
        "total": len(closures),
        "solved": solved,
        "closures": closures,
        "final_tick": result.tick,
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


def _load_scripts(events, agents: dict[str, ScriptedAgent]) -> None:
    """Fill each agent's recorded forces, resources and budget misses from
    the trace's `act` and `end` lines, in one pass.  Each line read from
    is checked first, and each action as the live loop leaves it
    (`recorded_forces`).  Replay reads no other line."""
    for doc in events:
        kind = doc.get("kind")
        if kind == "act":
            check_line(doc, DISCLOSURE)
            agent = _header_agent(agents, doc["agent"], "trace act")
            try:
                forces = recorded_forces(doc["forces"], agent.body)
            except ContractViolation as exc:
                raise ContractViolation(f"trace act of {doc['agent']!r} at tick "
                                        f"{doc['tick']}: {exc}") from None
            agent.forces[doc["tick"]] = forces
            agent.declared[doc["tick"]] = doc["resources"]
        elif kind == "end":
            for agent_id, count in check_line(doc, DISCLOSURE)["budget_misses"].items():
                _header_agent(agents, agent_id, "trace end").budget_misses = count


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

    Replay takes as given only what it cannot recompute: the actions,
    their declared resources, the budget misses and the agent kinds.
    Everything else is the live pipeline's own output, null baselines
    included: a problem that closes solved has its baseline rolled again
    from a clone of the world it was issued from, so a forged `p_null`
    fails the compare at that problem's `problem_issued` line.
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
                agent = ScriptedAgent(body, header["agent_kinds"].get(agent_id))
                slots.append(Slot(agent_id=agent_id, agent=agent, body=body,
                                  stream_name=header["stream_names"][agent_id]))
            _load_scripts(events, {s.agent_id: s.agent for s in slots})

            if regenerated_path is None:
                tmp = stack.enter_context(tempfile.TemporaryDirectory())
                regenerated_path = os.path.join(tmp, "regenerated.ndjson")
            run_episode(
                generate_world(spec), slots, step_params, problem_params,
                score_params, episode, disclosure_path=regenerated_path,
            )
            n = 0
            with open(disclosure_path, "rb") as old_fh, \
                    open(regenerated_path, "rb") as new_fh:
                for n, (old, new) in enumerate(
                        itertools.zip_longest(old_fh, new_fh), start=1):
                    if old != new:
                        tick = None if new is None else canonical_loads(new).get("tick")
                        return _verdict(line=n, tick=tick, checked=n)
            return _verdict(checked=n)
    except (DriftworldError, KeyError, ValueError, OSError) as exc:
        return _verdict(error=f"{type(exc).__name__}: {exc}")
