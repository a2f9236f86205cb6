"""Episode loop, stages, and replay verification.

Lifecycle arithmetic (issue tick, duration, timeout precedence) is
checked by joining the disclosure trace against itself, so the loop is
audited through the same artifact external auditors would use.
"""

import contextlib
import functools
import json
import multiprocessing
import os
import tempfile
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftworld import harness
from driftworld.agents import make_agent
from driftworld.canon import canonical_dumps, from_doc, to_doc
from driftworld.cli import main
from driftworld.config import EpisodeConfig, RunConfig, load_config
from driftworld.dynamics import StepParams, step
from driftworld.errors import ConfigError, ContractViolation
from driftworld.harness import (
    Episode,
    ScriptedAgent,
    Slot,
    _stage_report,
    oracle_calibration,
    replay_trace,
    run_episode,
    run_stage1,
    run_stage2,
)
from driftworld.interface import BodySpec, sense
from driftworld.metrics import AgentMetrics, MetricParams
from driftworld.problems import ProblemParams, ScoreParams
from driftworld.rng import derive_world_seed, stream_state
from driftworld.trace import TraceSink, read_trace
from driftworld.worldgen import DriftSchedule, GenSpec, World, generate_world

from oracles import flip_one_bit, trace_bytes
from test_golden import CASES as GOLDEN_CASES


def small_config(**episode_kw):
    return RunConfig(gen=GenSpec(seed=5, n_levels=2,
                                 drift=DriftSchedule(regime_times=(25, 40))),
                     episode=EpisodeConfig(**{"horizon": 60, **episode_kw}))


def run_one(cfg, kind, live_path=None, disc_path=None):
    world = generate_world(cfg.gen)
    body = cfg.body()
    slot = Slot(agent_id=kind, agent=make_agent(kind, body), body=body)
    result = run_episode(world, [slot], cfg.step, cfg.problem, cfg.score,
                         cfg.episode, live_path=live_path,
                         disclosure_path=disc_path)
    return world, result


# -------------------------------------------------------------- episode loop


def test_episode_deterministic():
    cfg = small_config()
    _, a = run_one(cfg, "greedy")
    _, b = run_one(cfg, "greedy")
    assert a.agents["greedy"].samples == b.agents["greedy"].samples
    assert a.agents["greedy"].cumulative == b.agents["greedy"].cumulative
    assert a.drift_marks == b.drift_marks
    assert [c["score"] for c in a.agents["greedy"].closures] \
        == [c["score"] for c in b.agents["greedy"].closures]


def test_every_agent_senses_and_acts_once_per_tick():
    cfg = small_config()
    _, result = run_one(cfg, "greedy")
    assert result.tick == cfg.episode.horizon
    assert result.agents["greedy"].senses == cfg.episode.horizon
    assert result.agents["greedy"].acts == cfg.episode.horizon


def test_live_world_is_sensed_once_per_body_per_tick(monkeypatch):
    # Each body is read once before the loop and once after each step;
    # the close check at tick t+1 and tick t+1's observation share it.
    cfg = small_config()
    world = generate_world(cfg.gen)
    bodies = [cfg.body(0), cfg.body(cfg.body_members)]
    slots = [Slot(agent_id=kind, agent=make_agent(kind, body), body=body,
                  stream_name=f"problems.{i}")
             for i, (kind, body) in enumerate(zip(("greedy", "null"), bodies))]
    live_reads = []
    real_sense = harness.sense

    def counting_sense(worlds, bodies):
        live_reads.extend((w.tick, b.member_ids) for w, b in zip(worlds, bodies)
                          if w is world)
        return real_sense(worlds, bodies)

    # the first reading and the loop's, one call for every seat
    monkeypatch.setattr(harness, "sense", counting_sense)
    result = run_episode(world, slots, cfg.step, cfg.problem, cfg.score,
                         cfg.episode)
    horizon = cfg.episode.horizon
    assert len(live_reads) == len(set(live_reads)) == len(bodies) * (horizon + 1)
    for body in bodies:
        ticks = {t for t, ids in live_reads if ids == body.member_ids}
        assert ticks == set(range(horizon + 1))
    assert {aid: r.senses for aid, r in result.agents.items()} \
        == {"greedy": horizon, "null": horizon}


def test_drift_marks_land_on_regime_times():
    cfg = small_config()
    world, result = run_one(cfg, "null")
    assert result.drift_marks == [25, 40]
    # The ground level never drifts; the upper level was resampled.
    fresh = generate_world(cfg.gen)
    law_text = [[canonical_dumps(to_doc(law)) for law in w.laws]
                for w in (world, fresh)]
    assert law_text[0][0] == law_text[1][0]
    assert law_text[0][1] != law_text[1][1]


def test_problem_lifecycle_arithmetic(tmp_path):
    cfg = small_config()
    disc = str(tmp_path / "d.ndjson")
    run_one(cfg, "greedy", disc_path=disc)
    _, events = read_trace(disc)

    issued_at = {}
    for e in events:
        if e["kind"] == "problem_issued":
            assert e["problem"]["issued_tick"] == e["tick"]
            issued_at[e["problem"]["id"]] = e["tick"]

    closures = [e for e in events if e["kind"] == "problem_closed"]
    assert closures
    for c in closures:
        assert c["d_count"] == c["tick"] - issued_at[c["problem_id"]]
        assert c["o_count"] >= 1
        if c["reason"] == "solved":
            assert c["solved"]
        if c["reason"] == "timeout":
            assert not c["solved"]
            assert c["d_count"] == cfg.problem.timeout


def solving_config(**episode_kw):
    """Greedy solves problems 0 (which solves itself) and 1 here."""
    return RunConfig(gen=GenSpec(seed=19, drift=DriftSchedule(regime_times=(10, 20))),
                     episode=EpisodeConfig(**{"horizon": 40, **episode_kw}))


def _issued_nulls(events):
    return {e["problem"]["id"]: e["problem"]["p_null"]
            for e in events if e["kind"] == "problem_issued"}


def test_null_baseline_rolls_once_per_solved_problem(monkeypatch, tmp_path):
    original, rolls = harness.null_baseline, []

    def counting(origin, body, problem, step_params):
        assert origin.tick == problem.issued_tick
        rolls.append(problem.id)
        return original(origin, body, problem, step_params)

    monkeypatch.setattr(harness, "null_baseline", counting)
    clones = []
    clone = World.clone
    monkeypatch.setattr(World, "clone", lambda w: clones.append(w.tick) or clone(w))
    disc = str(tmp_path / "d.ndjson")
    _, result = run_one(solving_config(), "greedy", disc_path=disc)
    closures = result.agents["greedy"].closures
    solved = [c["problem_id"] for c in closures if c["solved"]]
    assert solved == [0, 1] and len(closures) > len(solved)
    assert rolls == solved
    # one clone per target script and one per issue tick, then one per
    # solved problem's rollout; a tick that issues nothing takes none
    assert len(clones) == 2 * len(closures) + len(solved)

    # replay runs the same loop: it rolls and clones as the live run did
    clones.clear()
    assert replay_trace(disc)["ok"]
    assert rolls == solved + solved
    assert len(clones) == 2 * len(closures) + len(solved)

    _, events = read_trace(disc)
    nulls = _issued_nulls(events)
    assert set(nulls) == {c["problem_id"] for c in closures}
    for c in closures:
        if c["solved"]:
            assert nulls[c["problem_id"]] in (0.0, 1.0)
        else:
            assert nulls[c["problem_id"]] is None
    # problem 0 solves itself, so solving it is worth nothing
    assert nulls[0] == 1.0
    assert [c["score"] for c in closures if c["problem_id"] == 0] == [0.0]


def test_problems_open_at_a_clean_stop_are_written_with_no_null(tmp_path):
    # the greedy agent solves problem 0 at tick 10; 1 and 2 are still open
    cfg = RunConfig(gen=GenSpec(seed=7, drift=DriftSchedule(regime_times=(10, 20))),
                    episode=EpisodeConfig(horizon=40, stop_after_problems=1),
                    agents=("greedy", "null", "random"))
    slots = [harness._make_slot(kind, cfg, cfg.gen.seed, idx)
             for idx, kind in enumerate(cfg.agents)]
    disc = str(tmp_path / "d.ndjson")
    result = run_episode(generate_world(cfg.gen), slots, cfg.step, cfg.problem,
                         cfg.score, cfg.episode, disclosure_path=disc)
    assert result.tick == 10
    assert [c["solved"] for c in result.agents["a0_greedy"].closures] == [True]
    _, events = read_trace(disc)
    nulls = _issued_nulls(events)
    assert sorted(nulls) == [0, 1, 2]
    assert nulls[0] in (0.0, 1.0) and nulls[1] is None and nulls[2] is None
    ticks = [e["tick"] for e in events]
    assert ticks == sorted(ticks) and events[-1]["kind"] == "end"
    assert replay_trace(disc)["ok"]


def test_null_agent_times_out_on_schedule_and_scores_zero():
    # no drift: pure timeout cadence
    cfg = replace(small_config(max_problems=2), gen=GenSpec(seed=5))
    _, result = run_one(cfg, "null")
    closures = result.agents["null"].closures
    assert len(closures) == 2
    assert [c["reason"] for c in closures] == ["timeout", "timeout"]
    assert [c["d_count"] for c in closures] == [cfg.problem.timeout] * 2
    assert [c["tick"] for c in closures] == [24, 48]
    assert result.agents["null"].cumulative == 0.0
    assert result.seat_row("null", cfg.metric)["metrics"]["index"] == 0.0


def test_problems_per_regime_resets_at_drift():
    cfg = replace(small_config(problems_per_regime=1),
                  gen=GenSpec(seed=5, n_levels=2,
                              drift=DriftSchedule(regime_times=(20,))),
                  problem=ProblemParams(timeout=30))
    _, result = run_one(cfg, "null")
    # One problem per regime: the second slot opens only because the
    # drift at tick 20 reset the segment budget.
    assert len(result.agents["null"].closures) == 2


def test_sample_cadence():
    cfg = replace(small_config(horizon=35, sample_every=10),
                  gen=GenSpec(seed=5))
    _, result = run_one(cfg, "null")
    assert [t for t, _ in result.agents["null"].samples] == [10, 20, 30, 35]


def test_an_episode_needs_an_agent():
    cfg = small_config()
    with pytest.raises(ConfigError, match="at least one agent"):
        run_episode(generate_world(cfg.gen), [], cfg.step, cfg.problem,
                    cfg.score, cfg.episode)


def test_unique_ids_and_disjoint_bodies_enforced():
    cfg = small_config()
    world = generate_world(cfg.gen)
    body = cfg.body()
    mk = lambda aid: Slot(agent_id=aid, agent=make_agent("null", body), body=body)
    with pytest.raises(ConfigError):
        run_episode(world, [mk("x"), mk("x")], cfg.step, cfg.problem,
                    cfg.score, cfg.episode)
    with pytest.raises(ConfigError):
        run_episode(world, [mk("x"), mk("y")], cfg.step, cfg.problem,
                    cfg.score, cfg.episode)  # same body twice
    far = cfg.body(first_id=cfg.gen.n_entities - 1)
    with pytest.raises(ConfigError, match="out of range"):
        run_episode(world, [Slot(agent_id="x", agent=make_agent("null", far),
                                 body=far)],
                    cfg.step, cfg.problem, cfg.score, cfg.episode)


def test_scripted_agent_requires_recorded_ticks():
    cfg = small_config()
    body = cfg.body()
    agent = ScriptedAgent(body)
    with pytest.raises(ContractViolation):
        agent.act({"tick": 0, "grid": []})


def test_a_slot_seats_its_agent_episode_after_episode(tmp_path):
    # the episode keeps its state in its own records and only reads the
    # slots, so a rerun on the same slots is a run on fresh ones
    cfg = small_config()
    body = cfg.body()

    def seats():
        return [Slot(agent_id="null", agent=make_agent("null", body), body=body)]

    def run(name, slots):
        live, disc = tmp_path / f"{name}.live", tmp_path / f"{name}.disc"
        result = run_episode(generate_world(cfg.gen), slots, cfg.step, cfg.problem,
                             cfg.score, cfg.episode, live_path=str(live),
                             disclosure_path=str(disc))
        return (live.read_bytes(), disc.read_bytes(), result.tick,
                result.drift_marks, result.problems_closed,
                [(aid, r.samples, r.cumulative, r.closures, r.senses, r.acts,
                  r.budget_misses) for aid, r in result.agents.items()])

    slots = seats()
    before = [replace(slot) for slot in slots]
    first = run("first", slots)
    assert first[4] > 0
    assert run("again", slots) == run("fresh", seats()) == first
    assert slots == before


@pytest.mark.parametrize("kind", ["random", "greedy"])
def test_a_reused_seat_starts_as_it_was_built(kind, tmp_path):
    # an agent's own state (the random stream, greedy's noise estimate,
    # learnt at rest between problems) is reset by each episode, as a wire
    # agent is by its hello
    cfg = small_config(horizon=120, max_problems=2)

    def run(name, slot):
        disc = tmp_path / f"{name}.disc"
        run_episode(generate_world(cfg.gen), [slot], cfg.step, cfg.problem,
                    cfg.score, cfg.episode, disclosure_path=str(disc))
        return disc.read_bytes()

    def seat():
        return harness._make_slot(kind, cfg, cfg.gen.seed)

    def state(agent):
        return stream_state(agent.stream) if kind == "random" else agent.noise

    slot = seat()
    first = run("first", slot)
    assert state(slot.agent) != state(seat().agent)  # the first episode moved it
    assert run("again", slot) == run("fresh", seat()) == first


def test_episode_refuses_a_world_off_its_clock():
    cfg = small_config()
    body = cfg.body()
    slots = [Slot(agent_id="null", agent=make_agent("null", body), body=body)]
    params = (cfg.step, cfg.problem, cfg.score, cfg.episode)
    world = generate_world(cfg.gen)
    step([world], cfg.step)
    with pytest.raises(ContractViolation, match="at tick 0"):
        Episode(world, slots, *params)
    # the driver must step the world exactly once between act and settle
    for steps in (0, 2):
        world = generate_world(cfg.gen)
        episode = Episode(world, slots, *params)
        with TraceSink(None, None, episode.header) as sink:
            problems = harness._draw_problems([episode.requests()], cfg.problem, cfg.step)
            episode.record(sink, episode.act(sink, problems))
            for _ in range(steps):
                step([world], cfg.step)
            with pytest.raises(ContractViolation, match="lost the world clock"):
                episode.settle(sink, sense([world], [body]))


def test_episodes_driven_in_lockstep_write_their_solo_bytes(tmp_path):
    # The lockstep driver runs every episode's act, then one step of every
    # world, one reading of every body, then every settle.  Same-size
    # worlds share kernel calls and workspaces, so each world's steps,
    # live and in null-baseline rollouts, must leave the other's trace
    # bytes alone; the oracle solves problems, so it rolls null baselines.
    cfgs = [RunConfig(gen=GenSpec(seed=seed, n_entities=48, n_levels=3,
                                  drift=DriftSchedule(regime_times=(20, 40))),
                      episode=EpisodeConfig(horizon=60)) for seed in (11, 12)]

    def slots(cfg):
        body = cfg.body()
        return [Slot(agent_id="oracle", agent=make_agent("oracle", body), body=body)]

    for i, cfg in enumerate(cfgs):
        run_episode(generate_world(cfg.gen), slots(cfg), cfg.step, cfg.problem,
                    cfg.score, cfg.episode,
                    disclosure_path=str(tmp_path / f"solo{i}.ndjson"))
    episodes = [Episode(generate_world(cfg.gen), slots(cfg), cfg.step, cfg.problem,
                        cfg.score, cfg.episode) for cfg in cfgs]
    with contextlib.ExitStack() as stack:
        sinks = [stack.enter_context(TraceSink(
            None, str(tmp_path / f"lockstep{i}.ndjson"), episode.header))
            for i, episode in enumerate(episodes)]
        harness.run_lockstep(episodes, sinks)
    assert all(episode.done and episode.tick == 60 for episode in episodes)
    assert all(any(c["solved"] for c in e.agents["oracle"].closures)
               for e in episodes)
    for i in range(len(cfgs)):
        assert (tmp_path / f"lockstep{i}.ndjson").read_bytes() \
            == (tmp_path / f"solo{i}.ndjson").read_bytes()


@pytest.mark.parametrize("at_once", [harness._LOCKSTEP_EPISODES, 4])
def test_a_lockstep_battery_whose_episodes_stop_apart_writes_solo_bytes(
        monkeypatch, tmp_path, at_once):
    # Episodes that stop after their second closed problem leave the batch
    # at different ticks; each must still write the bytes it writes alone,
    # also when the battery is cut into several lockstep runs of at most
    # `at_once`, run one after another here.
    monkeypatch.setattr(harness, "_LOCKSTEP_EPISODES", at_once)
    see_cpus(monkeypatch, 1)
    cfg = RunConfig(gen=GenSpec(seed=0, drift=DriftSchedule(regime_times=(20, 40))),
                    episode=EpisodeConfig(horizon=80, stop_after_problems=2),
                    agents=("greedy", "random", "null"), n_worlds=3, master_seed=5)
    cells = [(i, derive_world_seed(cfg.master_seed, i), kind)
             for i in range(cfg.n_worlds) for kind in cfg.agents]
    (tmp_path / "lockstep").mkdir()
    (tmp_path / "solo").mkdir()
    runs = []
    real_run_lockstep = harness.run_lockstep

    def counting(episodes, sinks):
        runs.append(len(episodes))
        real_run_lockstep(episodes, sinks)

    monkeypatch.setattr(harness, "run_lockstep", counting)
    rows = harness._map_jobs(functools.partial(
        harness._stage1_cells, cfg, str(tmp_path / "lockstep")), cells)
    assert runs == ([9] if at_once >= 9 else [3, 3, 3])
    ends = set()
    for (i, seed, kind), row in zip(cells, rows):
        slot = harness._make_slot(kind, cfg, seed)
        live, disc = harness._stage1_paths(str(tmp_path / "solo"), i, kind)
        alone = run_episode(generate_world(replace(cfg.gen, seed=seed)), [slot],
                            cfg.step, cfg.problem, cfg.score, cfg.episode,
                            live_path=live, disclosure_path=disc)
        ends.add(alone.tick)
        assert row["cumulative"] == alone.agents[kind].cumulative
    assert len(ends) > 2 and max(ends) < cfg.episode.horizon
    names = sorted(os.listdir(tmp_path / "solo"))
    assert len(names) == 2 * len(cells)
    assert names == sorted(os.listdir(tmp_path / "lockstep"))
    for name in names:
        assert (tmp_path / "lockstep" / name).read_bytes() \
            == (tmp_path / "solo" / name).read_bytes(), name


# ------------------------------------------------------------------- stage 1


def test_stage1_report_shape_and_derived_seeds():
    cfg = replace(small_config(), agents=("greedy", "null"), n_worlds=2)
    report = run_stage1(cfg)
    assert report.stage == 1
    assert report.agent_ids == ["greedy", "null"]
    assert len(report.per_world) == 2
    for i, row in enumerate(report.per_world):
        assert row["seed"] == derive_world_seed(cfg.master_seed, i)
        assert set(row["agents"]) == {"greedy", "null"}
        for cell in row["agents"].values():
            assert {"metrics", "cumulative", "problems_closed",
                    "drift_marks"} <= set(cell)
    assert sorted(report.ranking) == ["greedy", "null"]
    assert set(report.wins) == {"greedy", "null"}
    assert set(report.wins["greedy"]) == {"null"}
    d = report.to_dict()
    assert d["stage"] == 1 and d["ranking"] == report.ranking
    assert d["lower_bound"] is True


def test_summary_means_ranks_and_counts_wins_over_worlds():
    def m(index, plateau=0.5):
        return AgentMetrics(acquisition=2.0, plateau=plateau, retention=1.0,
                            index=index, n_segments=3, n_marks=2)

    worlds = [{"world": w, "agents": {aid: {"metrics": to_doc(metrics)}
                                      for aid, metrics in seats.items()}}
              for w, seats in enumerate([{"a": m(0.1), "b": m(0.3)},
                                         {"a": m(0.6), "b": m(0.2)},
                                         {"a": m(0.2), "b": m(0.2, plateau=0.7)}])]
    report = _stage_report(1, worlds)
    assert report.agent_ids == ["a", "b"] and report.per_world is worlds
    means, ranking, wins = report.means, report.ranking, report.wins
    assert means["a"]["index"] == pytest.approx(0.3)
    assert means["b"]["plateau"] == pytest.approx(0.5 + 0.2 / 3)
    assert ranking == ["a", "b"]
    assert wins == {"a": {"b": 1}, "b": {"a": 1}}
    assert all(type(n) is int for row in wins.values() for n in row.values())

    # one world: the means are the metrics themselves, wins are 0 or 1
    report = _stage_report(2, worlds[2:])
    means, ranking, wins = report.means, report.ranking, report.wins
    assert report.stage == 2
    assert means["b"] == {"acquisition": 2.0, "plateau": 0.7,
                          "retention": 1.0, "index": 0.2}
    assert ranking == ["b", "a"]
    assert wins == {"a": {"b": 0}, "b": {"a": 0}}


def test_stage1_refuses_oracle_and_duplicates():
    cfg = small_config()
    with pytest.raises(ContractViolation):
        run_stage1(replace(cfg, agents=("oracle",)))
    with pytest.raises(ConfigError):
        run_stage1(replace(cfg, agents=("null", "null")))


def see_cpus(monkeypatch, n):
    """Make the harness see n usable CPUs; None, no `sched_getaffinity`."""
    if n is None:
        monkeypatch.delattr(harness.os, "sched_getaffinity", raising=False)
    else:
        monkeypatch.setattr(harness.os, "sched_getaffinity",
                            lambda pid: set(range(n)), raising=False)


def observe_episodes(monkeypatch, note):
    """Call `note()` in the process that builds each episode."""

    class Noted(harness.Episode):
        def __init__(self, *args, **kwargs):
            note()
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(harness, "Episode", Noted)


def test_stage1_pool_and_serial_paths_write_the_same_bytes(monkeypatch, tmp_path):
    # every episode notes the process it ran in
    pid_log = tmp_path / "pids"

    def note_pid():
        with open(pid_log, "a", encoding="utf-8") as fh:
            fh.write(f"{os.getpid()}\n")

    observe_episodes(monkeypatch, note_pid)
    cfg = load_config(None, GOLDEN_CASES["stage1-single-agents"]["overrides"])
    here = str(os.getpid())
    runs = {}
    for cpus in (None, 1, 3):
        see_cpus(monkeypatch, cpus)
        outdir = tmp_path / f"cpus{cpus}"
        outdir.mkdir()
        report = run_stage1(cfg, str(outdir), write_traces=True)
        assert not multiprocessing.active_children()
        pids = pid_log.read_text().split()
        pid_log.unlink()
        assert len(pids) == 6
        if cpus == 3:  # one chunk of two episodes per CPU
            assert here not in pids
            assert sorted(pids.count(pid) for pid in set(pids)) == [2, 2, 2]
        else:
            assert set(pids) == {here}
        runs[cpus] = (report.to_dict(), {
            name: (outdir / name).read_bytes() for name in os.listdir(outdir)})
    assert len(runs[1][1]) == 12
    assert runs[None] == runs[1] == runs[3]


def test_stage1_runs_here_while_run_episode_is_wrapped(monkeypatch):
    # a profiler's wrapper keeps its records in this process, so it must
    # see every episode even when the pool could take them
    seen = []
    real_run_episode = harness.run_episode

    @functools.wraps(real_run_episode)
    def counting(*args, **kwargs):
        return real_run_episode(*args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", counting)
    observe_episodes(monkeypatch, lambda: seen.append(os.getpid()))
    monkeypatch.setattr(multiprocessing, "get_context", None)
    see_cpus(monkeypatch, 3)
    cfg = replace(small_config(), agents=("greedy", "null"), n_worlds=2)
    run_stage1(cfg)
    assert seen == [os.getpid()] * 4


def tag_chunk(chunk):
    """Each job of a chunk with the chunk's first job and size; a module
    function, so a pool worker can take it."""
    return [(chunk[0], len(chunk), job) for job in chunk]


@pytest.mark.parametrize("cpus, n_jobs", [(None, 130), (1, 1), (1, 129), (2, 9),
                                          (3, 2), (3, 200)])
def test_a_battery_is_cut_once_into_bounded_chunks(monkeypatch, cpus, n_jobs):
    # at least one chunk per CPU, none above `_LOCKSTEP_EPISODES`, sizes
    # within one, contiguous and in job order, on the pool and here alike
    see_cpus(monkeypatch, cpus)
    jobs = list(range(n_jobs))
    out = harness._map_jobs(tag_chunk, jobs)
    assert not multiprocessing.active_children()
    assert [job for _, _, job in out] == jobs
    assert all(first <= job < first + size for first, size, job in out)
    sizes = {first: size for first, size, _ in out}
    assert sum(sizes.values()) == n_jobs
    cpus_used = min(n_jobs, cpus or 1)
    assert len(sizes) >= cpus_used
    assert max(sizes.values()) <= harness._LOCKSTEP_EPISODES
    assert max(sizes.values()) - min(sizes.values()) <= 1
    assert len(sizes) == max(cpus_used, -(-n_jobs // harness._LOCKSTEP_EPISODES))
    if (cpus, n_jobs) == (2, 9):  # the benchmark's battery: 5 + 4, one per CPU
        assert list(sizes.values()) == [5, 4]


@pytest.mark.parametrize("cpus", [1, 3])
def test_stage1_refuses_oracle_before_any_world_or_process(monkeypatch, cpus):
    def forbidden(*args, **kwargs):
        raise AssertionError("stage one started work before checking its agents")

    see_cpus(monkeypatch, cpus)
    monkeypatch.setattr(harness, "generate_world", forbidden)
    monkeypatch.setattr(multiprocessing, "get_context", forbidden)
    cfg = small_config()
    for agents in (("oracle",), ("greedy", "oracle")):
        with pytest.raises(ContractViolation, match="calibration-only"):
            run_stage1(replace(cfg, agents=agents))


def test_missing_trace_directory_fails_the_same_on_both_paths(monkeypatch,
                                                              tmp_path):
    cfg = replace(small_config(), agents=("greedy", "null"), n_worlds=2)
    missing = str(tmp_path / "missing")
    errors = []
    for cpus in (1, 3):
        see_cpus(monkeypatch, cpus)
        with pytest.raises(FileNotFoundError) as info:
            run_stage1(cfg, missing, write_traces=True)
        assert not multiprocessing.active_children()
        errors.append((info.value.errno, info.value.filename, str(info.value)))
    assert errors[0] == errors[1]
    assert errors[0][1].startswith(os.path.join(missing, "w0_greedy."))


# ------------------------------------------------------------------- stage 2


def test_stage2_shared_world_disjoint_bodies():
    cfg = replace(small_config(), agents=("greedy", "null"))
    report = run_stage2(cfg)
    assert report.stage == 2
    assert report.agent_ids == ["a0_greedy", "a1_null"]
    row = report.per_world[0]
    for cell in row["agents"].values():
        assert cell["senses"] == cfg.episode.horizon
        assert cell["acts"] == cfg.episode.horizon
    assert set(report.ranking) == {"a0_greedy", "a1_null"}
    assert report.wins["a0_greedy"]["a1_null"] in (0, 1)


def test_stage2_rejects_oversubscribed_world():
    cfg = replace(small_config(), agents=("greedy", "random", "null"),
                  body_members=8)  # 24 members > 16 entities
    with pytest.raises(ConfigError):
        run_stage2(cfg)


def test_stage2_refuses_oracle():
    cfg = replace(small_config(), agents=("greedy", "oracle"))
    with pytest.raises(ContractViolation):
        run_stage2(cfg)


# -------------------------------------------------------------------- oracle


def test_oracle_calibration_solves_its_problems():
    cfg = small_config()
    out = oracle_calibration(cfg, n_problems=3)
    assert out["total"] == 3
    assert out["solved"] == 3
    for row in out["closures"]:
        assert {"tick", "problem_id", "solved", "reason", "o_count",
                "d_count", "distance", "score"} <= set(row)
        assert row["reason"] == "solved"


# -------------------------------------------------------------------- replay


def test_replay_verifies_and_detects_tampering(tmp_path):
    cfg = small_config()
    disc = str(tmp_path / "episode.ndjson")
    run_one(cfg, "greedy", disc_path=disc)

    verdict = replay_trace(disc)
    assert verdict["ok"] and verdict["verdict"] == "OK"
    assert verdict["first_divergence_line"] is None
    with open(disc, "r", encoding="utf-8") as fh:
        n_lines = len(fh.read().splitlines())
    assert verdict["lines_checked"] == n_lines

    # Flip one bit of one digit mid-file; the line stays valid JSON but
    # no longer matches what the regeneration produces.
    raw = trace_bytes(disc)
    anchor = raw.index(b'"cumulative":', len(raw) // 2)
    offset = anchor + len(b'"cumulative":')
    while not chr(raw[offset]).isdigit():
        offset += 1
    flipped_line = raw[:offset].count(b"\n") + 1
    tampered = str(tmp_path / "tampered.ndjson")
    flip_one_bit(disc, tampered, offset, bit=0)

    verdict = replay_trace(tampered)
    assert not verdict["ok"] and verdict["verdict"] == "FAIL"
    assert verdict["first_divergence_line"] == flipped_line
    assert verdict["lines_checked"] == flipped_line


def test_replay_rejects_live_traces(tmp_path):
    cfg = small_config()
    live = str(tmp_path / "live.ndjson")
    run_one(cfg, "greedy", live_path=live)
    verdict = replay_trace(live)
    assert not verdict["ok"]
    assert "error" in verdict


def test_replay_keeps_regenerated_copy(tmp_path):
    cfg = small_config(horizon=30)
    disc = str(tmp_path / "episode.ndjson")
    run_one(cfg, "null", disc_path=disc)
    kept = str(tmp_path / "regen.ndjson")
    verdict = replay_trace(disc, regenerated_path=kept)
    assert verdict["ok"]
    assert trace_bytes(kept) == trace_bytes(disc)


@pytest.fixture(scope="module")
def greedy_trace(tmp_path_factory):
    """A 30-tick greedy disclosure trace; problems 0 and 1 close solved."""
    path = tmp_path_factory.mktemp("greedy") / "greedy.ndjson"
    run_one(solving_config(horizon=30), "greedy", disc_path=str(path))
    return path


def _last_line_start(raw: bytes) -> int:
    return raw.rindex(b"\n", 0, len(raw) - 1) + 1


@pytest.mark.parametrize("edit, line, refused", [
    (lambda raw: raw[:-1] + b"\x0b", lambda n: n, True),
    (lambda raw: raw[:-1] + b"\x0c", lambda n: n, True),
    (lambda raw: raw[:-1], lambda n: n, False),
    (lambda raw: raw[:_last_line_start(raw)], lambda n: n, False),
    (lambda raw: raw + raw[_last_line_start(raw):], lambda n: n + 1, False),
    (lambda raw: raw.replace(b"\n", b"\r\n"), lambda n: 1, False),
], ids=["last-newline-to-vt", "last-newline-to-ff", "last-byte-deleted",
        "last-line-deleted", "line-appended", "crlf"])
def test_replay_fails_at_the_first_edited_line(edit, line, refused, greedy_trace,
                                               tmp_path, capsys):
    raw = greedy_trace.read_bytes()
    n_lines = raw.count(b"\n")
    edited = tmp_path / "edited.ndjson"
    edited.write_bytes(edit(raw))
    verdict = replay_trace(str(edited))
    assert verdict["verdict"] == "FAIL" and not verdict["ok"]
    if refused:  # a line ending the writer never writes: the reader names it
        assert verdict["error"].startswith(
            f"ContractViolation: {edited}:{line(n_lines)}: not valid JSON: ")
        assert main(["replay", str(edited)]) == 1
        return
    assert verdict["error"] is None
    assert verdict["first_divergence_line"] == line(n_lines)
    assert verdict["lines_checked"] == line(n_lines)
    if line(n_lines) > n_lines:  # the original has a line the replay lacks
        assert verdict["first_divergence_tick"] is None
    assert main(["replay", str(edited)]) == 1
    assert f"first divergence at line {line(n_lines)}" in capsys.readouterr().out


def test_replay_leaves_no_temporary_files(greedy_trace, tmp_path, monkeypatch):
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    written = []
    original = harness.run_episode

    def recording(*args, **kwargs):
        written.append(kwargs["disclosure_path"])
        return original(*args, **kwargs)

    monkeypatch.setattr(harness, "run_episode", recording)
    raw = greedy_trace.read_bytes()
    cut = tmp_path / "cut.ndjson"
    cut.write_bytes(raw[:-1])
    # without its last act the episode raises once it reaches that tick
    lines = raw.splitlines(keepends=True)
    last_act = max(i for i, l in enumerate(lines) if b'"kind":"act"' in l)
    no_act = tmp_path / "no_act.ndjson"
    no_act.write_bytes(b"".join(lines[:last_act] + lines[last_act + 1:]))

    verdicts = [replay_trace(str(path)) for path in (greedy_trace, cut, no_act)]
    assert [v["verdict"] for v in verdicts] == ["OK", "FAIL", "FAIL"]
    assert verdicts[1]["error"] is None
    assert "no recorded action for tick 29" in verdicts[2]["error"]
    assert len(written) == 3
    assert all(os.path.dirname(os.path.dirname(p)) == str(scratch) for p in written)
    assert list(scratch.iterdir()) == []


#: The fields replay takes as given, by line kind: a change to one that
#: shows in no recomputed line (a force rounding away, say) replays OK.
TAKEN_AS_GIVEN = {"header": ("agent_kinds",), "act": ("forces", "resources"),
                  "end": ("budget_misses",)}


def _differs_only_in_given_fields(raw: bytes, edited: bytes) -> bool:
    old, new = raw.split(b"\n"), edited.split(b"\n")
    if len(old) != len(new):
        return False
    for a, b in zip(old, new):
        if a != b:
            a, b = json.loads(a), json.loads(b)
            for key in TAKEN_AS_GIVEN.get(a["kind"], ()):
                a.pop(key, None)
                b.pop(key, None)
            if a != b:
                return False
    return True


def _fresh_run_writes(edited: bytes, out) -> bool:
    """Whether the greedy agent, run afresh on the parameters in the
    edited header, writes exactly the edited trace: the edit changed a
    parameter that this episode never exercised."""
    header = json.loads(edited.split(b"\n", 1)[0])
    body = from_doc(BodySpec, header["bodies"]["greedy"])
    slot = Slot(agent_id="greedy", agent=make_agent("greedy", body), body=body)
    run_episode(generate_world(from_doc(GenSpec, header["gen_spec"])), [slot],
                *(from_doc(cls, header[key]) for cls, key in (
                    (StepParams, "step_params"), (ProblemParams, "problem_params"),
                    (ScoreParams, "score_params"), (EpisodeConfig, "episode"))),
                disclosure_path=str(out))
    return out.read_bytes() == edited


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_replay_of_a_damaged_trace_fails(greedy_trace, data):
    """A flipped bit, a cut or two swapped lines: replay returns a verdict,
    never raises, and says FAIL, unless a flip only changed a field replay
    takes as given or a header parameter the episode never exercised (a
    budget no in-process agent uses, a snapshot cadence longer than the
    episode, a cap nothing reached)."""
    raw = greedy_trace.read_bytes()
    how = data.draw(st.sampled_from(["flip", "cut", "swap"]))
    if how == "flip":
        damaged = bytearray(raw)
        damaged[data.draw(st.integers(0, len(raw) - 1))] ^= \
            1 << data.draw(st.integers(0, 7))
    elif how == "cut":
        damaged = raw[:data.draw(st.integers(0, len(raw) - 1))]
    else:
        lines = raw.splitlines(keepends=True)
        i = data.draw(st.integers(0, len(lines) - 2))
        damaged = b"".join(lines[:i] + [lines[i + 1], lines[i]] + lines[i + 2:])
    path = greedy_trace.parent / "damaged.ndjson"
    path.write_bytes(damaged)
    verdict = replay_trace(str(path), str(greedy_trace.parent / "regenerated.ndjson"))
    if verdict["ok"]:
        damaged = bytes(damaged)
        assert how == "flip"
        assert _differs_only_in_given_fields(raw, damaged) or _fresh_run_writes(
            damaged, greedy_trace.parent / "fresh.ndjson")
    else:
        assert verdict["verdict"] == "FAIL"


# ----------------------------------------------------------------- law bytes


def test_law_bytes_track_law_identity():
    ground = [canonical_dumps(to_doc(generate_world(GenSpec(seed=s)).laws[0]))
              for s in (5, 5, 6)]
    assert ground[0] == ground[1] != ground[2]
