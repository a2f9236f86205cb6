"""Release gate for the assembled package.

Ten end-to-end checks, one per numbered claim the system stands on:
rerun determinism, momentum conservation, metric orderings on golden
learners, learner-vs-baseline separation, oracle calibration, score
shape, trace secrecy with tamper evidence, drift accounting, protocol
closure plus sensor conservation, and shared-world ranking.

Each check prints one `criterion NN: PASS/FAIL` line before asserting,
so a red criterion still reports itself alongside the numbers that sank
it.  Run `pytest tests/test_acceptance.py -v -s` to watch the lines
stream; the heavy checks (1, 4, 7, 10) dominate the ~1 minute runtime.
"""

import copy
import os
import tempfile
import time
from dataclasses import replace

import numpy as np

from driftworld.config import RunConfig
from driftworld.dynamics import StepParams, momentum, step
from driftworld.errors import ProtocolError
from driftworld.golden import (
    REFERENCE_MARK,
    reference_drift_samples,
    reference_learner_samples,
)
from driftworld.harness import (
    law_bytes,
    oracle_calibration,
    replay_trace,
    run_stage1,
    run_stage2,
)
from driftworld.interface import BodySpec, sense
from driftworld.metrics import compute_metrics
from driftworld.problems import hit_score
from driftworld.protocol import SCHEMAS, validate_message
from driftworld.rng import derive_world_seed
from driftworld.trace import (
    audit_live_trace,
    flip_one_bit,
    same_bytes,
    secret_strings,
)
from driftworld.worldgen import (
    CausationGrammar,
    DriftSchedule,
    GenSpec,
    generate_world,
)

from test_protocol import VALID


def check(num: int, ok: bool, detail: str) -> None:
    print(f"\ncriterion {num:02d}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"criterion {num:02d}: {detail}"


def test_criterion_01_reruns_are_byte_identical():
    t0 = time.monotonic()
    cfg = RunConfig(agents=("greedy",), n_worlds=20)
    with tempfile.TemporaryDirectory() as run_a, \
            tempfile.TemporaryDirectory() as run_b:
        run_stage1(cfg, outdir=run_a, write_traces=True)
        run_stage1(cfg, outdir=run_b, write_traces=True)
        names = sorted(os.listdir(run_a))
        same_listing = names == sorted(os.listdir(run_b))
        disclosures = [n for n in names if n.endswith(".disclosure.ndjson")]
        mismatched = [
            n for n in names
            if not same_bytes(os.path.join(run_a, n), os.path.join(run_b, n))
        ]
    elapsed = time.monotonic() - t0
    ok = (len(disclosures) == 20 and same_listing and not mismatched
          and elapsed < 120.0)
    check(1, ok,
          f"20 worlds x 2 greedy runs, {len(names)} trace files compared, "
          f"{len(mismatched)} byte mismatches, {elapsed:.1f}s (budget 120s)")


def test_criterion_02_dynamics_conserve_momentum():
    # Equal inertia, flat hierarchy, caps out of the way: pair forces
    # cancel exactly, so drift has to stay at float rounding level.
    params = StepParams(v_max=50.0, a_max=50.0)
    steps = 1000
    worst = 0.0
    for n in range(2, 11):
        grammar = CausationGrammar(
            basis=("inv_sq", "inv", "const", "damp"),
            max_terms=3,
            coeff_range=(-0.02, 0.02),
            base_damping=0.4,
        )
        spec = GenSpec(seed=100 + n, n_entities=n, n_levels=1, grammar=grammar)
        world = generate_world(spec)
        for _ in range(steps):
            step(world, params)
        worst = max(worst, float(np.linalg.norm(momentum(world))) / steps)
    check(2, worst <= 1e-9,
          f"entity counts 2..10, {steps} steps each, worst momentum drift "
          f"{worst:.3e} per step (bound 1e-09)")


def test_criterion_03_metrics_order_golden_learners():
    # The packaged reference learners cross their orderings on purpose:
    # the fastest riser holds the lowest plateau but one.
    learners = {name: compute_metrics(samples)
                for name, samples in reference_learner_samples().items()}
    acq = {n: m.acquisition for n, m in learners.items()}
    plat = {n: m.plateau for n, m in learners.items()}
    acq_ok = acq["learner1"] > acq["learner3"] > acq["learner2"]
    plat_ok = plat["learner1"] > plat["learner2"] > plat["learner3"]

    drift = {name: compute_metrics(samples, drift_marks=(REFERENCE_MARK,))
             for name, samples in reference_drift_samples().items()}
    ret_ok = (drift["keeper"].retention > drift["forgetter"].retention
              and drift["keeper"].index > drift["forgetter"].index)

    check(3, acq_ok and plat_ok and ret_ok,
          f"acquisition {acq['learner1']:.2f} > {acq['learner3']:.2f} > "
          f"{acq['learner2']:.2f} (crossed order); plateau "
          f"{plat['learner1']:.2f} > {plat['learner2']:.2f} > "
          f"{plat['learner3']:.2f}; retention {drift['keeper'].retention:.2f} "
          f"> {drift['forgetter'].retention:.2f}")


def test_criterion_04_learner_separates_from_baselines():
    t0 = time.monotonic()
    report = run_stage1(RunConfig(n_worlds=20))
    elapsed = time.monotonic() - t0
    mean_index = {k: report.means[k]["index"] for k in report.agent_ids}
    vs_random = report.wins["greedy"]["random"]
    vs_null = report.wins["greedy"]["null"]
    ok = (report.ranking[0] == "greedy"
          and mean_index["greedy"] > mean_index["random"] >= mean_index["null"]
          and mean_index["null"] == 0.0
          and vs_random >= 15 and vs_null >= 15
          and elapsed < 600.0)
    check(4, ok,
          f"mean index greedy {mean_index['greedy']:.4f} > random "
          f"{mean_index['random']:.4f} >= null {mean_index['null']:.4f}; "
          f"greedy wins {vs_random}/20 vs random, {vs_null}/20 vs null "
          f"(floor 15); {elapsed:.1f}s (budget 600s)")


def test_criterion_05_oracle_solves_nearly_all_problems():
    out = oracle_calibration(RunConfig(), 100)
    ok = out["total"] == 100 and out["solved"] >= 95
    check(5, ok, f"oracle solved {out['solved']}/{out['total']} (floor 95)")


def test_criterion_06_score_prices_effort_and_self_solving():
    o_ref = d_ref = 10.0
    grid = np.array([
        [hit_score(True, o, d, o_ref, d_ref, p_null=0.0) for d in range(51)]
        for o in range(51)
    ])
    in_bounds = 0.0 < float(grid.min()) and float(grid.max()) <= 1.0
    decreasing = bool(np.all(np.diff(grid, axis=0) < 0)
                      and np.all(np.diff(grid, axis=1) < 0))
    self_solved = hit_score(True, 0, 0, o_ref, d_ref, p_null=1.0) == 0.0
    missed = hit_score(False, 0, 0, o_ref, d_ref, p_null=0.0) == 0.0
    check(6, in_bounds and decreasing and self_solved and missed,
          f"51x51 effort grid in (0, 1]: {in_bounds}; strictly decreasing "
          f"along both axes: {decreasing}; p_null=1 zeroes the score: "
          f"{self_solved}; a miss scores zero: {missed}")


def test_criterion_07_traces_keep_secrets_and_catch_tampering(tmp_path):
    cfg = RunConfig(agents=("greedy",), n_worlds=20)
    outdir = str(tmp_path)
    run_stage1(cfg, outdir=outdir, write_traces=True)
    leaks = replay_failures = undetected = 0
    for i in range(cfg.n_worlds):
        seed = derive_world_seed(cfg.master_seed, i)
        world = generate_world(replace(cfg.gen, seed=seed))
        live = os.path.join(outdir, f"w{i}_greedy.live.ndjson")
        disclosure = os.path.join(outdir, f"w{i}_greedy.disclosure.ndjson")
        if audit_live_trace(live, secret_strings(world)):
            leaks += 1
        if not replay_trace(disclosure)["ok"]:
            replay_failures += 1
        # Flip one bit of a recorded score digit; the replay must notice.
        with open(disclosure, "rb") as fh:
            lines = fh.read().split(b"\n")
        victim = max(j for j, l in enumerate(lines) if b'"kind":"sample"' in l)
        column = lines[victim].index(b'"cumulative":') + len(b'"cumulative":')
        offset = sum(len(l) + 1 for l in lines[:victim]) + column
        tampered = os.path.join(outdir, f"w{i}_tampered.ndjson")
        flip_one_bit(disclosure, tampered, offset)
        if replay_trace(tampered)["ok"]:
            undetected += 1
    ok = leaks == 0 and replay_failures == 0 and undetected == 0
    check(7, ok,
          f"20 worlds: {leaks} live-trace secret leaks, {replay_failures} "
          f"clean replays rejected, {undetected} one-bit tampers missed")


def test_criterion_08_drift_marks_match_schedule_and_spare_ground_laws():
    marks_per_schedule = []
    marks_ok = True
    for regimes in ((), (40,), (20, 45, 70)):
        cfg = RunConfig(agents=("null",))
        cfg.gen = GenSpec(seed=11, drift=DriftSchedule(regime_times=regimes))
        cfg.episode.horizon = 100
        report = run_stage1(cfg)
        marks = report.per_world[0]["agents"]["null"]["drift_marks"]
        marks_ok = marks_ok and marks == list(regimes)
        marks_per_schedule.append(f"{len(regimes)}->{len(marks)}")

    spec = GenSpec(seed=11, drift=DriftSchedule(regime_times=(20, 45, 70)))
    world = generate_world(spec)
    for _ in range(100):
        step(world, StepParams())
    fresh = generate_world(spec)
    ground_ok = law_bytes(world.laws[0]) == law_bytes(fresh.laws[0])
    drifted = law_bytes(world.laws[1]) != law_bytes(fresh.laws[1])
    check(8, marks_ok and ground_ok and drifted,
          f"scheduled->observed marks {', '.join(marks_per_schedule)}; "
          f"ground laws byte-stable: {ground_ok}; drifted level resampled: "
          f"{drifted}")


def test_criterion_09_protocol_is_closed_and_sensing_conserves_entities():
    pairs = rejected = 0
    for (direction, kind), doc in VALID.items():
        assert validate_message(direction, copy.deepcopy(doc)) == kind
        pairs += 1
        poisoned = copy.deepcopy(doc)
        poisoned["unexpected"] = 1
        try:
            validate_message(direction, poisoned)
        except ProtocolError:
            rejected += 1
    schema_ok = pairs == len(SCHEMAS) and rejected == pairs

    world = generate_world(GenSpec(seed=21))
    body = BodySpec((0, 1, 2, 3), resolution=16,
                    window_halfwidth=world.spec.arena_extent, f_max=4.0)
    n_plus = int(np.sum(world.polarity > 0))
    n_minus = world.n_entities - n_plus
    n_senses = 1000
    conserved = 0
    for _ in range(n_senses):
        grid = sense(world, body).grid
        if (grid[:, :, 0].sum() == n_plus
                and grid[:, :, 1].sum() == n_minus):
            conserved += 1
        step(world, StepParams())
    sensor_ok = conserved == n_senses
    check(9, schema_ok and sensor_ok,
          f"{pairs} message schemas all reject out-of-set fields "
          f"({rejected}/{pairs}); full-window channel sums matched polarity "
          f"counts on {conserved}/{n_senses} senses")


def test_criterion_10_shared_world_ranking_prefers_the_learner():
    t0 = time.monotonic()
    firsts = 0
    starved = []
    n_worlds = 10
    for s in range(n_worlds):
        cfg = RunConfig(agents=("greedy", "null"))
        cfg.gen = replace(cfg.gen, seed=s)
        report = run_stage2(cfg)
        if report.ranking[0] == "a0_greedy":
            firsts += 1
        for aid, cell in report.per_world[0]["agents"].items():
            if not cell["senses"] == cell["acts"] == cfg.episode.horizon:
                starved.append((s, aid, cell["senses"], cell["acts"]))
    elapsed = time.monotonic() - t0
    ok = firsts >= 8 and not starved
    check(10, ok,
          f"greedy ranked first on {firsts}/{n_worlds} shared worlds "
          f"(floor 8), every agent sensed and acted once per tick "
          f"(exceptions: {starved}), {elapsed:.1f}s")
