"""Command-line front end.

Subcommands: gen (write a world), run (one episode), stage1 / stage2
(evaluation stages), replay (verify a disclosure trace), report (metrics
from a trace), agent (serve a bundled agent over stdio).

Exit codes: 0 success, 1 replay verdict FAIL, 2 usage errors (argparse),
3 configuration or contract errors, 4 protocol errors, 5 I/O errors.
Existing output files are never overwritten without --force.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shlex
import sys

from .canon import canonical_dumps, to_doc
from .errors import (
    ConfigError,
    ContractViolation,
    InsufficientDataError,
    ProtocolError,
)
from .protocol import SubprocessAgent, run_stdio_agent
from .rng import agent_seed
from .worldgen import generate_world

# The commands import config, harness, metrics and trace themselves, so
# `driftworld agent` loads only what serving an agent over stdio needs.

E_OK, E_REPLAY_FAIL, E_CONFIG, E_PROTOCOL, E_IO = 0, 1, 3, 4, 5


def _check_out(path: str | None, force: bool) -> None:
    if path and os.path.exists(path) and not force:
        raise ConfigError(f"{path} exists; pass --force to overwrite")


def _write_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _add_config_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", metavar="PATH", default=None,
                   help="config file (default: $DRIFTWORLD_CONFIG if set)")
    p.add_argument("--set", metavar="KEY=VALUE", action="append", default=[],
                   dest="overrides", help="override one config key")


def _print_ranking(report) -> None:
    print("ranking: " + "  ".join(
        f"{i + 1}. {aid} (index {report.means[aid]['index']:.4f})"
        for i, aid in enumerate(report.ranking)
    ))


def cmd_gen(args) -> int:
    from .config import load_config

    cfg = load_config(args.config, args.overrides)
    _check_out(args.out, args.force)
    world = generate_world(cfg.gen)
    doc = world.to_canonical()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(canonical_dumps(doc) + "\n")
        print(f"world seed {cfg.gen.seed} -> {args.out}")
    else:
        print(canonical_dumps(doc))
    return E_OK


def cmd_run(args) -> int:
    from .config import load_config
    from .harness import Slot, _make_slot, run_episode

    cfg = load_config(args.config, args.overrides)
    for path in (args.live, args.disclosure, args.out):
        _check_out(path, args.force)
    external = args.agent_cmd is not None
    if external:
        try:
            argv = shlex.split(args.agent_cmd)
        except ValueError as exc:
            raise ConfigError(f"--agent-cmd {args.agent_cmd!r}: {exc}") from None
        if not argv:
            raise ConfigError("--agent-cmd names no command")
    world = generate_world(cfg.gen)

    if external:
        body = cfg.body(0)
        agent = SubprocessAgent(
            argv, body, horizon=cfg.episode.horizon,
            agent_seed=agent_seed(cfg.gen.seed),
            budget_s=cfg.episode.budget_s,
        )
        slot = Slot(agent_id="external", agent=agent, body=body)
    else:
        slot = _make_slot(args.agent or cfg.agents[0], cfg, cfg.gen.seed, 0,
                          multi=False)
    agent_id = slot.agent_id

    try:
        result = run_episode(
            world, [slot], cfg.step, cfg.problem, cfg.score, cfg.episode,
            live_path=args.live, disclosure_path=args.disclosure,
        )
    finally:
        if external:
            slot.agent.close()

    metrics = result.metrics(agent_id, cfg.metric)
    run = result.agents[agent_id]
    doc = {
        "agent": agent_id,
        "cumulative": run.cumulative,
        "problems_closed": len(run.closures),
        "drift_marks": result.drift_marks,
        "metrics": to_doc(metrics),
        "budget_misses": run.budget_misses,
        "final_tick": result.tick,
    }
    _write_json(doc, args.out)
    return E_OK


def cmd_stage1(args) -> int:
    from .config import load_config
    from .harness import _stage1_paths, run_stage1

    cfg = load_config(args.config, args.overrides)
    paths = [args.out]
    if args.trace_dir:
        paths += [path for i in range(cfg.n_worlds) for kind in cfg.agents
                  for path in _stage1_paths(args.trace_dir, i, kind)]
    for path in paths:
        _check_out(path, args.force)
    report = run_stage1(cfg, outdir=args.trace_dir,
                        write_traces=args.trace_dir is not None)
    _print_ranking(report)
    if args.out:
        _write_json(report.to_dict(), args.out)
    return E_OK


def cmd_stage2(args) -> int:
    from .config import load_config
    from .harness import run_stage2

    cfg = load_config(args.config, args.overrides)
    for path in (args.live, args.disclosure, args.out):
        _check_out(path, args.force)
    report = run_stage2(cfg, live_path=args.live,
                        disclosure_path=args.disclosure)
    _print_ranking(report)
    if args.out:
        _write_json(report.to_dict(), args.out)
    return E_OK


def cmd_oracle(args) -> int:
    from .config import load_config
    from .harness import oracle_calibration

    cfg = load_config(args.config, args.overrides)
    _check_out(args.out, args.force)
    result = oracle_calibration(cfg, args.problems)
    print(f"oracle solved {result['solved']}/{result['total']} problems")
    if args.out:
        _write_json(result, args.out)
    return E_OK


def cmd_replay(args) -> int:
    from .harness import replay_trace

    _check_out(args.save_regenerated, args.force)
    verdict = replay_trace(args.trace, regenerated_path=args.save_regenerated)
    if verdict["ok"]:
        print(f"OK  {args.trace}  ({verdict['lines_checked']} lines)")
        return E_OK
    where = verdict.get("first_divergence_line")
    tick = verdict.get("first_divergence_tick")
    detail = verdict.get("error")
    parts = [f"FAIL  {args.trace}"]
    if where is not None:
        parts.append(f"first divergence at line {where}")
    if tick is not None:
        parts.append(f"tick {tick}")
    if detail:
        parts.append(detail)
    print("  ".join(parts))
    return E_REPLAY_FAIL


def cmd_report(args) -> int:
    from .config import load_config
    from .metrics import curve_metrics, rank_agents, rate_curve
    from .trace import check_line, iter_trace

    cfg = load_config(args.config, args.overrides)
    samples: dict[str, list[tuple[int, float]]] = {}
    marks: list[int] = []
    lines = iter_trace(args.trace)
    tier = next(lines)["mode"]
    for doc in lines:
        if doc.get("kind") == "sample":
            check_line(doc, tier)
            samples.setdefault(doc["agent"], []).append(
                (doc["tick"], doc["cumulative"]))
        elif doc.get("kind") == "drift":
            marks.append(check_line(doc, tier)["tick"])
    if not samples:
        raise InsufficientDataError("trace holds no score samples")
    csv_paths = {}
    if args.rates_csv:
        for agent_id in samples:
            # the id names a file inside --rates-csv, never a path out of it
            if agent_id in ("", ".", "..") or any(
                    sep and sep in agent_id for sep in ("/", "\0", os.sep, os.altsep)):
                raise ContractViolation(
                    f"agent id {agent_id!r} is not a plain file name")
        csv_paths = {agent_id: os.path.join(args.rates_csv, f"{agent_id}.csv")
                     for agent_id in samples}
    for path in (args.out, *csv_paths.values()):
        _check_out(path, args.force)
    entries = []
    per_agent = {}
    rates = {}
    for agent_id, agent_samples in sorted(samples.items()):
        ticks, rates[agent_id] = rate_curve(agent_samples, cfg.metric.window_halfwidth)
        m = curve_metrics(ticks, rates[agent_id], marks, cfg.metric)
        entries.append((agent_id, m))
        per_agent[agent_id] = to_doc(m)
    doc = {
        "agents": per_agent,
        "drift_marks": marks,
        "ranking": rank_agents(entries),
    }
    _write_json(doc, args.out)
    if args.rates_csv:
        os.makedirs(args.rates_csv, exist_ok=True)
        for agent_id, agent_samples in sorted(samples.items()):
            with open(csv_paths[agent_id], "w", newline="",
                      encoding="utf-8") as fh:
                writer = csv.writer(fh)
                writer.writerow(["tick", "rate"])
                for (tick, _), rate in zip(agent_samples, rates[agent_id]):
                    writer.writerow([tick, float(rate)])
    return E_OK


def cmd_agent(args) -> int:
    return run_stdio_agent(args.kind)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="driftworld",
        description="Seeded drifting-law world simulator and agent evaluation harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a world and write its canonical form")
    _add_config_args(p)
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("run", help="run one single-agent episode")
    _add_config_args(p)
    who = p.add_mutually_exclusive_group()
    who.add_argument("--agent", default=None,
                     help="bundled agent kind (default: first of run.agents)")
    who.add_argument("--agent-cmd", default=None,
                     help="external agent command line, spoken to over stdio")
    p.add_argument("--live", default=None, help="write the live trace here")
    p.add_argument("--disclosure", default=None,
                   help="write the disclosure trace here")
    p.add_argument("--out", default=None, help="write the episode report here")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("stage1", help="isolated evaluation across derived worlds")
    _add_config_args(p)
    p.add_argument("--trace-dir", default=None,
                   help="also write per-episode traces into this directory")
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_stage1)

    p = sub.add_parser("stage2", help="shared-world evaluation, disjoint bodies")
    _add_config_args(p)
    p.add_argument("--live", default=None)
    p.add_argument("--disclosure", default=None)
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_stage2)

    p = sub.add_parser("oracle", help="difficulty calibration with the script oracle")
    _add_config_args(p)
    p.add_argument("--problems", type=int, default=100)
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("replay", help="verify a disclosure trace bit for bit")
    p.add_argument("trace")
    p.add_argument("--save-regenerated", default=None,
                   help="keep the regenerated trace at this path")
    p.add_argument("--force", action="store_true")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("report", help="metrics and ranking from a trace")
    _add_config_args(p)
    p.add_argument("trace")
    p.add_argument("--out", default=None)
    p.add_argument("--force", action="store_true")
    p.add_argument("--rates-csv", metavar="DIR", default=None,
                   help="also write per-agent tick,rate curves for plotting")
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("agent", help="serve a bundled agent over stdin/stdout")
    p.add_argument("--kind", required=True, choices=["null", "random", "greedy"])
    p.set_defaults(func=cmd_agent)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ContractViolation, InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return E_CONFIG
    except ProtocolError as exc:
        print(f"protocol error: {exc}", file=sys.stderr)
        return E_PROTOCOL
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return E_IO


if __name__ == "__main__":
    sys.exit(main())
