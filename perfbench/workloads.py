"""The four benchmark workloads.

Each workload prepares its inputs in `setup` from the run's seed, then
`round` runs one fixed round of operations.  Rounds repeat the same
inputs, so every round attempts the same operations and writes the same
trace bytes.  One operation is one episode or one replay together with
its checks; only the call into the program is timed.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import sys
import time
import traceback
from dataclasses import replace

import checks
from driftworld import agents, config, harness, protocol, rng, worldgen

AGENT_KINDS = ("greedy", "random", "null")


def derive_seed(*parts) -> int:
    """A 64-bit seed from the run's seed and a salt, fixed across versions."""
    text = ":".join(str(p) for p in parts).encode("utf-8")
    return int.from_bytes(hashlib.sha256(text).digest()[:8], "big")


def law_secrets(world) -> list[str]:
    """Reprs of the world's seed and its initial law coefficients."""
    return [repr(world.spec.seed)] + [repr(float(c)) for law in world.laws
                                      for _, c in law.terms]


class Run:
    """What one run measured and checked, across all of its rounds."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.busy_s = 0.0
        self.last_s = 0.0
        self.ticks = 0
        self.trace_bytes = 0
        self.episode_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.unexpected: list[str] = []
        self.known: list[str] = []
        self.digests: dict[str, str] = {}

    def timed(self, fn, *args, **kwargs):
        """Call into the program, adding the wall time to the busy time."""
        if self.tracer is not None:
            self.tracer.phase = "timed"
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - t0
            self.busy_s += elapsed
            self.last_s = elapsed
            if self.tracer is not None:
                self.tracer.phase = None

    def operation(self, name: str, body) -> None:
        """Run one operation; it fails if it raises or any check fails.

        `body` returns (problems, known): known problems come from a fault
        the benchmark expects on every run; any other problem, or an
        exception, marks the run incorrect as well.
        """
        self.attempted += 1
        try:
            problems, known = body()
        except Exception as exc:  # noqa: BLE001 - an operation that raises fails
            traceback.print_exc(file=sys.stderr)
            problems, known = [f"{type(exc).__name__}: {exc}"], []
        if problems:
            self.failed += 1
            for p in problems:
                (self.known if p in known else self.unexpected).append(f"{name}: {p}")

    def same_digests(self, digests: dict[str, str]) -> list[str]:
        """Compare each trace's digest with the one it had in the first round."""
        reference = {name: self.digests.setdefault(name, d) for name, d in digests.items()}
        return checks.check_digests(digests, reference)


def trace_checks(live: str | None, disc: str, n_entities: int,
                 secrets: list[str]) -> tuple[list[str], list[dict]]:
    """The checks every written trace pair gets; returns (problems, disclosure docs)."""
    docs = checks.read_lines(disc)
    problems = (checks.check_scores(docs) + checks.check_target_grids(docs, n_entities)
                + checks.check_fairness(docs))
    if live is not None:
        problems += checks.check_live_secrecy(live, checks.disclosed_secrets(docs) + secrets)
    return problems, docs


def final_tick(docs: list[dict]) -> int:
    return next(d["tick"] for d in reversed(docs) if d["kind"] == "end")


class Stage1Battery:
    """`run_stage1` with greedy, random and null agents on default worlds."""

    name = "stage1-battery"

    def __init__(self, seed: int, outdir: str, smoke: bool):
        self.n_worlds = 1 if smoke else 3
        self.overrides = [f"run.master_seed={derive_seed(self.name, seed)}",
                          f"run.n_worlds={self.n_worlds}",
                          "run.agents=" + ",".join(AGENT_KINDS)]
        if smoke:
            self.overrides += ["episode.horizon=30", "drift.regime_times=10,20"]
        self.outdir = outdir

    def setup(self) -> None:
        self.cfg = config.load_config(None, self.overrides)
        self.secrets = []
        for i in range(self.n_worlds):
            seed = rng.derive_world_seed(self.cfg.master_seed, i)
            world = worldgen.generate_world(replace(self.cfg.gen, seed=seed))
            self.secrets.append(law_secrets(world))

    def round(self, run: Run) -> None:
        try:
            run.timed(harness.run_stage1, self.cfg, self.outdir, True)
        except Exception as exc:  # noqa: BLE001 - every episode of the round fails
            traceback.print_exc(file=sys.stderr)
            failure = ([f"run_stage1 raised {exc!r}"], [])
            for i in range(self.n_worlds * len(AGENT_KINDS)):
                run.operation(f"stage1 episode {i}", lambda: failure)
            return
        run.episode_s.append(run.last_s / (self.n_worlds * len(AGENT_KINDS)))
        for i in range(self.n_worlds):
            for kind in AGENT_KINDS:
                run.operation(f"w{i}_{kind}", lambda i=i, kind=kind: self._check(run, i, kind))

    def _check(self, run: Run, i: int, kind: str):
        name = f"w{i}_{kind}"
        live = os.path.join(self.outdir, f"{name}.live.ndjson")
        disc = os.path.join(self.outdir, f"{name}.disclosure.ndjson")
        problems, docs = trace_checks(live, disc, self.cfg.gen.n_entities, self.secrets[i])
        problems += run.same_digests({f"{name}.live": checks.sha256_file(live),
                                      f"{name}.disclosure": checks.sha256_file(disc)})
        run.ticks += final_tick(docs)
        run.trace_bytes += os.path.getsize(live) + os.path.getsize(disc)
        return problems, []


class DenseShared:
    """`run_stage2`: three agents in one world of a few hundred entities."""

    name = "dense-shared"

    def __init__(self, seed: int, outdir: str, smoke: bool):
        n, horizon, drift = (24, 20, "8,16") if smoke else (192, 60, "20,40")
        self.overrides = [f"gen.seed={derive_seed(self.name, seed)}",
                          f"gen.n_entities={n}", "gen.n_levels=3",
                          f"episode.horizon={horizon}", f"drift.regime_times={drift}",
                          "run.agents=" + ",".join(AGENT_KINDS)]
        self.live = os.path.join(outdir, "stage2.live.ndjson")
        self.disc = os.path.join(outdir, "stage2.disclosure.ndjson")

    def setup(self) -> None:
        self.cfg = config.load_config(None, self.overrides)
        self.secrets = law_secrets(worldgen.generate_world(self.cfg.gen))

    def round(self, run: Run) -> None:
        def episode():
            run.timed(harness.run_stage2, self.cfg, self.live, self.disc)
            run.episode_s.append(run.last_s)
            problems, docs = trace_checks(self.live, self.disc, self.cfg.gen.n_entities,
                                          self.secrets)
            run.ticks += final_tick(docs)
            run.trace_bytes += os.path.getsize(self.live) + os.path.getsize(self.disc)
            problems += run.same_digests({"live": checks.sha256_file(self.live),
                                          "disclosure": checks.sha256_file(self.disc)})
            return problems, []

        run.operation("stage2 episode", episode)


class ReplayAudit:
    """`replay_trace` over disclosure traces made in set-up."""

    name = "replay-audit"

    def __init__(self, seed: int, outdir: str, smoke: bool):
        short = ["episode.horizon=30", "drift.regime_times=10,20"] if smoke else []
        self.stage1 = [f"run.master_seed={derive_seed(self.name, seed, 1)}",
                       "run.n_worlds=1", "run.agents=" + ",".join(AGENT_KINDS)] + short
        self.stage2 = [f"gen.seed={derive_seed(self.name, seed, 2)}",
                       "run.agents=" + ",".join(AGENT_KINDS)] + short
        self.outdir = outdir

    def setup(self) -> None:
        cfg1 = config.load_config(None, self.stage1)
        harness.run_stage1(cfg1, self.outdir, True)
        cfg2 = config.load_config(None, self.stage2)
        s2 = os.path.join(self.outdir, "s2.disclosure.ndjson")
        harness.run_stage2(cfg2, None, s2)
        self.n_entities = cfg1.gen.n_entities
        self.sources = [os.path.join(self.outdir, f"w0_{k}.disclosure.ndjson")
                        for k in AGENT_KINDS] + [s2]
        self.digests = {p: checks.sha256_file(p) for p in self.sources}
        self.ticks: dict[str, int] = {}  # filled by each trace's first replay

    def round(self, run: Run) -> None:
        for n, path in enumerate(self.sources):
            run.operation(os.path.basename(path),
                          lambda n=n, path=path: self._replay(run, n, path))

    def _replay(self, run: Run, n: int, path: str):
        regenerated = path + ".regenerated"
        verdict = run.timed(harness.replay_trace, path, regenerated)
        run.episode_s.append(run.last_s)
        problems = checks.check_replay(verdict, path)
        digest = checks.sha256_file(regenerated)
        if digest != self.digests[path]:
            problems.append("regenerated trace digest differs from the original")
        problems += run.same_digests({os.path.basename(regenerated): digest})
        if path not in self.ticks:
            # Later rounds replay the same bytes: the content checks and
            # the tamper check need to run once per trace.
            found, docs = trace_checks(None, regenerated, self.n_entities, [])
            problems += found
            self.ticks[path] = final_tick(docs)
            tampered = path + ".tampered"
            size = os.path.getsize(path)
            checks.flip_bit(path, tampered, derive_seed(os.path.basename(path), size) % size, n)
            problems += checks.check_tamper_caught(harness.replay_trace(tampered, regenerated))
        run.ticks += self.ticks[path]
        run.trace_bytes += os.path.getsize(path)
        return problems, []


class WireEpisode:
    """`run_episode` with `SubprocessAgent` driving `python -m driftworld agent`.

    The random agent's parity check fails on every run (a known fault, see
    `_check`), so its episode runs on a world that does not depend on the
    run's seed: the share of failed operations is then the same for
    every seed.  Greedy and null run on the seed's world.
    """

    name = "wire-episode"

    def __init__(self, seed: int, outdir: str, smoke: bool):
        horizon, drift = (12, "4,8") if smoke else (60, "20,40")
        common = [f"episode.horizon={horizon}", f"drift.regime_times={drift}",
                  # high enough that no reply misses it
                  "episode.budget_s=30"]
        self.overrides = {
            kind: [f"gen.seed={derive_seed(self.name, 'random' if kind == 'random' else seed)}"]
            + common for kind in AGENT_KINDS}
        self.outdir = outdir

    def _path(self, kind: str, tier: str, side: str) -> str:
        return os.path.join(self.outdir, f"{side}_{kind}.{tier}.ndjson")

    def setup(self) -> None:
        self.cfg, self.secrets, self.reference = {}, {}, {}
        for kind in AGENT_KINDS:
            cfg = self.cfg[kind] = config.load_config(None, self.overrides[kind])
            self.secrets[kind] = law_secrets(worldgen.generate_world(cfg.gen))
            body = cfg.body(0)
            stream = rng.make_stream(cfg.gen.seed, "agent") if kind == "random" else None
            slot = harness.Slot(agent_id=kind, agent=agents.make_agent(
                kind, body, cfg.gen.dim, stream=stream), body=body)
            path = self._path(kind, "disclosure", "inprocess")
            harness.run_episode(worldgen.generate_world(cfg.gen), [slot], cfg.step,
                                cfg.problem, cfg.score, cfg.episode, disclosure_path=path)
            self.reference[kind] = checks.read_lines(path)

    def _episode(self, kind: str) -> None:
        cfg = self.cfg[kind]
        body = cfg.body(0)
        agent = protocol.SubprocessAgent(
            [sys.executable, "-m", "driftworld", "agent", "--kind", kind],
            body, cfg.gen.dim, horizon=cfg.episode.horizon,
            agent_seed=cfg.gen.seed & ((1 << 63) - 1), budget_s=cfg.episode.budget_s)
        try:
            harness.run_episode(
                worldgen.generate_world(cfg.gen),
                [harness.Slot(agent_id=kind, agent=agent, body=body)],
                cfg.step, cfg.problem, cfg.score, cfg.episode,
                live_path=self._path(kind, "live", "wire"),
                disclosure_path=self._path(kind, "disclosure", "wire"))
        finally:
            agent.close()

    def round(self, run: Run) -> None:
        for kind in AGENT_KINDS:
            run.operation(f"wire {kind}", lambda kind=kind: self._check(run, kind))

    def _check(self, run: Run, kind: str):
        run.timed(self._episode, kind)
        run.episode_s.append(run.last_s)
        live, disc = self._path(kind, "live", "wire"), self._path(kind, "disclosure", "wire")
        problems, docs = trace_checks(live, disc, self.cfg[kind].gen.n_entities,
                                      self.secrets[kind])
        misses = next(d for d in docs if d["kind"] == "end")["budget_misses"]
        problems += [f"{a}: {m} budget misses" for a, m in misses.items() if m]
        parity = checks.check_parity(docs, self.reference[kind])
        problems += run.same_digests({f"{kind}.live": checks.sha256_file(live),
                                      f"{kind}.disclosure": checks.sha256_file(disc)})
        run.ticks += final_tick(docs)
        run.trace_bytes += os.path.getsize(live) + os.path.getsize(disc)
        # The stdio random agent seeds a bare SeedSequence(agent_seed) where
        # the in-process one uses make_stream(seed, "agent"): a known fault.
        known = parity if kind == "random" else []
        return problems + parity, known


WORKLOADS = {w.name: w for w in (Stage1Battery, DenseShared, ReplayAudit, WireEpisode)}


def end_to_end(run: Run, peak_rss_mb: float) -> dict[str, tuple[float, str]]:
    """The end-to-end metrics; a run whose every operation failed reads 0."""
    return {
        "ticks_per_s": (run.ticks / run.busy_s if run.busy_s else 0.0, "ticks/s"),
        "episode_s": (statistics.median(run.episode_s) if run.episode_s else 0.0, "s"),
        "trace_bytes_per_tick": (run.trace_bytes / run.ticks if run.ticks else 0.0, "B/tick"),
        "peak_rss_mb": (peak_rss_mb, "MiB"),
    }
