"""Command-line surface: exit codes, file discipline, subcommand output.

Everything drives `main(argv)` in-process; one test execs the module
for real to cover the installed entry point.
"""

import contextlib
import json
import math
import multiprocessing
import os
import random
import resource
import shlex
import signal
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest

from driftworld import cli, harness
from driftworld.canon import canonical_dumps
from driftworld.cli import main
from driftworld.config import ENV_CONFIG, load_config
from driftworld.errors import ProtocolError
from driftworld.harness import replay_trace
from driftworld.interface import sense
from driftworld.protocol import HELLO_TIMEOUT_S, PROTOCOL_VERSION
from driftworld.rng import agent_seed
from driftworld.trace import LIVE, TRACE_FORMAT, live_view, read_trace
from driftworld.worldgen import generate_world

BASE = ["--set", "gen.seed=5", "--set", "episode.horizon=40"]


def run_cli(*argv):
    return main(list(argv))


# ----------------------------------------------------------------------- gen


def test_gen_writes_canonical_world(tmp_path, capsys):
    out = tmp_path / "world.json"
    assert run_cli("gen", "--set", "gen.seed=3", "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["spec"]["seed"] == 3
    assert set(doc) >= {"format", "spec", "entities", "laws", "rng"}
    capsys.readouterr()


def test_gen_is_deterministic(tmp_path, capsys):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert run_cli("gen", "--set", "gen.seed=9", "--out", str(a)) == 0
    assert run_cli("gen", "--set", "gen.seed=9", "--out", str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


def test_gen_prints_to_stdout_without_out(capsys):
    assert run_cli("gen", "--set", "gen.seed=4") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["tick"] == 0


def test_existing_output_needs_force(tmp_path, capsys):
    out = tmp_path / "world.json"
    out.write_text("precious\n")
    assert run_cli("gen", "--set", "gen.seed=3", "--out", str(out)) == 3
    assert "exists" in capsys.readouterr().err
    assert out.read_text() == "precious\n"
    assert run_cli("gen", "--set", "gen.seed=3", "--out", str(out),
                   "--force") == 0
    assert out.read_text() != "precious\n"


def test_gen_refuses_a_world_no_episode_can_run(tmp_path, capsys):
    out = tmp_path / "world.json"
    assert run_cli("gen", "--set", "gen.dim=3", "--out", str(out)) == 3
    assert capsys.readouterr().err.startswith("error: dim must be 2")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "stage1", "stage2", "oracle"])
def test_episode_commands_refuse_other_dims_before_generating(
        command, monkeypatch, capsys):
    def generate_world(spec):
        raise AssertionError("a world was generated")

    monkeypatch.setattr(cli, "generate_world", generate_world)
    monkeypatch.setattr(harness, "generate_world", generate_world)
    assert run_cli(command, *BASE, "--set", "gen.dim=1") == 3
    assert capsys.readouterr().err.startswith("error: dim must be 2")


# ----------------------------------------------------------------------- run


def test_run_writes_report_and_traces(tmp_path, capsys):
    live = tmp_path / "live.ndjson"
    disc = tmp_path / "disc.ndjson"
    out = tmp_path / "report.json"
    rc = run_cli("run", *BASE, "--agent", "null", "--live", str(live),
                 "--disclosure", str(disc), "--out", str(out))
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["agent"] == "null"
    assert report["cumulative"] == 0.0
    assert report["final_tick"] == 40
    header, _ = read_trace(str(live))
    assert header["mode"] == "live"
    header, _ = read_trace(str(disc))
    assert header["mode"] == "disclosure"
    capsys.readouterr()


def assert_wire_matches_in_process(kind, tmp_path, capsys, *overrides):
    """Same agent in process and as `driftworld agent` over stdio: the
    disclosure traces agree byte for byte apart from agent id and kind."""
    wire = BASE + [arg for key in ("episode.budget_s=30", *overrides)
                   for arg in ("--set", key)]
    inproc, external = tmp_path / "inproc.ndjson", tmp_path / "wire.ndjson"
    assert run_cli("run", *wire, "--agent", kind, "--disclosure", str(inproc)) == 0
    argv = f"{sys.executable} -m driftworld agent --kind {kind}"
    assert run_cli("run", *wire, "--agent-cmd", argv,
                   "--disclosure", str(external)) == 0
    capsys.readouterr()
    renamed = external.read_text().replace('"external"', f'"{kind}"') \
        .replace('"subprocess"', f'"{kind}"')
    assert renamed.splitlines() == inproc.read_text().splitlines()


@pytest.mark.parametrize("kind", ["null", "random", "greedy"])
def test_run_over_the_wire_matches_in_process(kind, tmp_path, capsys):
    assert_wire_matches_in_process(kind, tmp_path, capsys)


def test_run_over_the_wire_matches_in_process_in_a_crowded_window(tmp_path, capsys):
    # 192 entities on 3 levels fill about half of the 256 sensor cells:
    # the dense case of the observation's cell list
    crowded = ["gen.n_entities=192", "gen.n_levels=3", "episode.horizon=30"]
    cfg = load_config(None, ["gen.seed=5", *crowded])
    grid = sense([generate_world(cfg.gen)], [cfg.body(0)])[0].grid
    assert np.count_nonzero(grid.any(axis=2)) > 100
    assert_wire_matches_in_process("greedy", tmp_path, capsys, *crowded)


def test_run_takes_a_bundled_agent_or_a_command_not_both(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("run", *BASE, "--agent", "greedy", "--agent-cmd", "true")
    assert exc.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_run_agent_cmd_honours_quotes(tmp_path, capsys):
    script = tmp_path / "my agents" / "null agent.py"
    script.parent.mkdir()
    script.write_text("import sys\n"
                      "from driftworld.protocol import run_stdio_agent\n"
                      "sys.exit(run_stdio_agent('null'))\n")
    out = tmp_path / "report.json"
    argv = f"{shlex.quote(sys.executable)} {shlex.quote(str(script))}"
    assert run_cli("run", *BASE, "--set", "episode.budget_s=30",
                   "--agent-cmd", argv, "--out", str(out)) == 0
    capsys.readouterr()
    assert json.loads(out.read_text())["final_tick"] == 40


@pytest.mark.parametrize("command", ["", "   ", "'unclosed"],
                         ids=["empty", "blank", "unclosed-quote"])
def test_run_refuses_an_agent_command_that_names_no_program(command, tmp_path,
                                                            capsys):
    disc = tmp_path / "disc.ndjson"
    assert run_cli("run", *BASE, "--agent-cmd", command,
                   "--disclosure", str(disc)) == 3
    assert capsys.readouterr().err.startswith("error: --agent-cmd ")
    assert not disc.exists()


def test_config_help_names_the_environment_variable(capsys):
    with pytest.raises(SystemExit):
        main(["run", "--help"])
    assert f"${ENV_CONFIG}" in capsys.readouterr().out


def test_run_never_sends_the_world_seed(monkeypatch, capsys):
    sent = {}

    def fake_agent(argv, body, **kwargs):
        sent.update(kwargs)
        raise ProtocolError("stop after the handshake arguments")

    monkeypatch.setattr(cli, "SubprocessAgent", fake_agent)
    assert run_cli("run", *BASE, "--agent-cmd", "unused") == 4
    capsys.readouterr()
    assert sent["agent_seed"] == agent_seed(5)
    assert sent["agent_seed"] != 5


# -------------------------------------------------------------------- replay


def write_disclosure(tmp_path, capsys):
    disc = tmp_path / "disc.ndjson"
    assert run_cli("run", *BASE, "--agent", "null",
                   "--disclosure", str(disc)) == 0
    capsys.readouterr()
    return disc


def test_replay_ok_exit_zero(tmp_path, capsys):
    disc = write_disclosure(tmp_path, capsys)
    assert run_cli("replay", str(disc)) == 0
    assert capsys.readouterr().out.startswith("OK")


def test_replay_tampered_exit_one(tmp_path, capsys):
    disc = write_disclosure(tmp_path, capsys)
    lines = disc.read_text().splitlines()
    victim = max(i for i, l in enumerate(lines) if '"kind":"sample"' in l)
    assert '"cumulative":0.0' in lines[victim]
    lines[victim] = lines[victim].replace('"cumulative":0.0',
                                          '"cumulative":9.9', 1)
    tampered = tmp_path / "tampered.ndjson"
    tampered.write_text("\n".join(lines) + "\n")

    assert run_cli("replay", str(tampered)) == 1
    output = capsys.readouterr().out
    assert "FAIL" in output
    assert f"line {victim + 1}" in output


def test_replay_live_trace_exit_one(tmp_path, capsys):
    live = tmp_path / "live.ndjson"
    assert run_cli("run", *BASE, "--agent", "null", "--live", str(live)) == 0
    assert run_cli("replay", str(live)) == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("old_format", [1, 2, TRACE_FORMAT - 1])
def test_replay_names_a_format_mismatch(old_format, tmp_path, capsys):
    disc = write_disclosure(tmp_path, capsys)
    header, *events = disc.read_text().splitlines()
    old = tmp_path / "old_format.ndjson"
    old.write_text("\n".join([
        canonical_dumps(dict(json.loads(header), format=old_format)), *events]) + "\n")
    verdict = replay_trace(str(old))
    assert verdict["verdict"] == "FAIL"
    assert f"trace format {old_format}" in verdict["error"]
    assert f"format {TRACE_FORMAT}" in verdict["error"]
    assert run_cli("replay", str(old)) == 1
    assert f"trace format {old_format}" in capsys.readouterr().out


#: A greedy episode that solves problems 0 (which solves itself) and 1,
#: and closes problems 2 and 3 unsolved.
SOLVING = ["--set", "gen.seed=19", "--set", "episode.horizon=40",
           "--set", "drift.regime_times=10,20"]


def solving_disclosure(tmp_path, capsys) -> list[str]:
    disc = tmp_path / "solving.ndjson"
    assert run_cli("run", *SOLVING, "--agent", "greedy",
                   "--disclosure", str(disc)) == 0
    capsys.readouterr()
    return disc.read_text().splitlines()


def _issued_line(lines: list[str], problem_id: int) -> int:
    return next(i for i, l in enumerate(lines) if '"kind":"problem_issued"' in l
                and json.loads(l)["problem"]["id"] == problem_id)


def _with_p_null(lines: list[str], n: int, value) -> list[str]:
    doc = json.loads(lines[n])
    doc["problem"]["p_null"] = value
    return lines[:n] + [canonical_dumps(doc)] + lines[n + 1:]


def _write_lines(path: Path, lines: list[str]) -> str:
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_replay_names_a_missing_null_baseline(tmp_path, capsys):
    lines = solving_disclosure(tmp_path, capsys)
    n = _issued_line(lines, 1)
    assert json.loads(lines[n])["problem"]["p_null"] == 0.0
    nulled = _with_p_null(lines, n, None)
    dropped = lines[:n] + lines[n + 1:]
    # 1-based, both name line n + 1: the edited line, or the one after
    # the deleted line, which now stands in its place
    for name, cut in (("nulled", nulled), ("dropped", dropped)):
        verdict = replay_trace(_write_lines(tmp_path / f"{name}.ndjson", cut))
        assert verdict["verdict"] == "FAIL", name
        assert verdict["first_divergence_line"] == n + 1, name
        assert verdict["error"] is None, name


def test_replay_fails_at_a_forged_null_baseline(tmp_path, capsys, monkeypatch):
    """A trace whose solved problem 1 was written with a null baseline of
    0.5, and its score and every later line to match, fails at that
    problem's issued line: replay rolls the baseline again."""
    original = harness.null_baseline

    def forged(origin, body, problem, step_params):
        if problem.id == 1:
            return 0.5
        return original(origin, body, problem, step_params)

    monkeypatch.setattr(harness, "null_baseline", forged)
    lines = solving_disclosure(tmp_path, capsys)
    monkeypatch.undo()
    n = _issued_line(lines, 1)
    assert json.loads(lines[n])["problem"]["p_null"] == 0.5
    path = str(tmp_path / "solving.ndjson")
    verdict = replay_trace(path)
    assert verdict["verdict"] == "FAIL"
    assert verdict["first_divergence_line"] == n + 1
    assert run_cli("replay", path) == 1
    assert capsys.readouterr().out.startswith(f"FAIL  {path}")


def test_replay_fails_at_a_null_baseline_planted_on_an_unsolved_problem(
        tmp_path, capsys):
    lines = solving_disclosure(tmp_path, capsys)
    for problem_id in (2, 3):  # timed out, cut by the horizon
        n = _issued_line(lines, problem_id)
        assert json.loads(lines[n])["problem"]["p_null"] is None
        for value in (0.0, 1.0):
            planted = _write_lines(tmp_path / "planted.ndjson",
                                   _with_p_null(lines, n, value))
            verdict = replay_trace(planted)
            assert verdict["verdict"] == "FAIL"
            assert verdict["first_divergence_line"] == n + 1


def test_replay_accepts_null_on_an_unsolved_problem(tmp_path, capsys):
    lines = solving_disclosure(tmp_path, capsys)
    nulls = {doc["problem"]["id"]: doc["problem"]["p_null"]
             for doc in map(json.loads, lines) if doc["kind"] == "problem_issued"}
    assert nulls == {0: 1.0, 1: 0.0, 2: None, 3: None}
    path = _write_lines(tmp_path / "ok.ndjson", lines)
    assert run_cli("replay", path) == 0
    assert capsys.readouterr().out.startswith("OK")


GOLDEN_TRACE = Path(__file__).parent / "golden" / "stage2.disclosure.ndjson"


@pytest.mark.parametrize("header_line, error", [
    (lambda h: dict(h, gen_spec=[]), "ContractViolation"),
    (lambda h: dict(h, bodies=[]), "ContractViolation"),
    (lambda h: dict(h, episode="x"), "ContractViolation"),
    (lambda h: [1, 2], "ContractViolation"),
    (lambda h: dict(h, episode=dict(h["episode"], horizon="x")),
     "ContractViolation"),
    (lambda h: dict(h, step_params=dict(h["step_params"], dt=True)),
     "ContractViolation"),
    (lambda h: dict(h, gen_spec=dict(h["gen_spec"], n_entities=24.0)),
     "ContractViolation"),
    (lambda h: dict(h, step_params=dict(h["step_params"], dt=0)),
     "ConfigError: dt must be > 0"),
    (lambda h: dict(h, episode=dict(h["episode"], horizon=0)),
     "ConfigError: horizon must be >= 1"),
    (lambda h: dict(h, bodies={aid: dict(b, member_ids=b["member_ids"][:1] * 2)
                               for aid, b in h["bodies"].items()}),
     "ConfigError: body member ids must be distinct"),
    (lambda h: dict(h, gen_spec=dict(h["gen_spec"], dim=3)),
     "ConfigError: dim must be 2"),
], ids=["gen_spec-list", "bodies-list", "episode-string", "header-list",
        "horizon-string", "dt-bool", "n_entities-float", "dt-zero",
        "horizon-zero", "member_ids-duplicate", "dim-three"])
def test_replay_of_a_malformed_header_fails(header_line, error, tmp_path,
                                            capsys):
    header, *events = GOLDEN_TRACE.read_text().splitlines()
    bad = tmp_path / "bad_header.ndjson"
    bad.write_text("\n".join([
        canonical_dumps(header_line(json.loads(header))), *events]) + "\n")
    assert run_cli("replay", str(bad)) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL  {bad}")
    assert f"  {error}" in out


@pytest.mark.parametrize("mode", [["disclosure"], {"tier": "disclosure"}])
def test_a_header_whose_mode_is_no_string_is_a_missing_header(mode, tmp_path, capsys):
    _, *events = GOLDEN_TRACE.read_text().splitlines()
    bad = tmp_path / "mode.ndjson"
    bad.write_text("\n".join([canonical_dumps({"kind": "header", "mode": mode}),
                              *events]) + "\n")
    assert run_cli("replay", str(bad)) == 1
    out = capsys.readouterr().out
    assert out.startswith(f"FAIL  {bad}")
    assert "ContractViolation" in out and "missing trace header" in out
    assert run_cli("report", str(bad), "--out", str(tmp_path / "m.json")) == 3
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "missing trace header" in err
    assert "Traceback" not in err


def test_replay_names_a_mistyped_header_field(tmp_path):
    header, *events = GOLDEN_TRACE.read_text().splitlines()
    doc = json.loads(header)
    doc["episode"]["horizon"] = "x"
    bad = tmp_path / "bad_horizon.ndjson"
    bad.write_text("\n".join([canonical_dumps(doc), *events]) + "\n")
    verdict = replay_trace(str(bad))
    assert verdict["verdict"] == "FAIL"
    assert verdict["error"] == ("ContractViolation: EpisodeConfig.horizon: "
                                "expected int, not str")


@pytest.mark.parametrize("kind, field, value", [
    ("problem_issued", "problem", 5),
    ("problem_issued", "problem.id", "0"),
    ("problem_issued", "problem.p_null", "0.0"),
    ("problem_issued", "problem.p_null", True),
    ("end", "budget_misses", 5),
    ("end", "budget_misses", {"a0_greedy": "0"}),
    ("act", "agent", 5),
    ("act", "tick", 0.0),
    ("act", "forces", {"x": 1}),
    ("act", "forces", [[{"x": 1}, 0.0]]),
    ("act", "resources", 7),
    ("act", "agent", "nobody"),
    ("end", "budget_misses", {"nobody": 0}),
], ids=["problem-int", "problem-id-string", "p_null-string", "p_null-bool",
        "budget_misses-int", "budget_misses-value-string", "agent-int",
        "tick-float", "forces-object", "forces-of-objects", "resources-int",
        "agent-unknown", "budget_misses-agent-unknown"])
def test_replay_of_a_mistyped_event_fails(kind, field, value, tmp_path, capsys):
    lines = GOLDEN_TRACE.read_text().splitlines()
    n = next(i for i, l in enumerate(lines) if f'"kind":"{kind}"' in l)
    doc = json.loads(lines[n])
    *outer, key = field.split(".")
    target = doc
    for name in outer:
        target = target[name]
    target[key] = value
    lines[n] = canonical_dumps(doc)
    bad = tmp_path / "bad_event.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    verdict = replay_trace(str(bad))
    assert verdict["verdict"] == "FAIL"
    if kind == "problem_issued":
        # replay reads nothing from it; the bytes differ at that line
        assert verdict["first_divergence_line"] == n + 1
        assert verdict["error"] is None
    else:
        assert verdict["error"].startswith("ContractViolation: ")
    assert run_cli("replay", str(bad)) == 1
    captured = capsys.readouterr()
    assert captured.out.startswith(f"FAIL  {bad}")
    assert "Traceback" not in captured.out + captured.err


@pytest.mark.parametrize("kind, field, value", [
    ("sample", "cumulative", None),
    ("sample", "tick", "x"),
    ("sample", "agent", ["a"]),
    ("sample", "cumulative", "0.0"),
    ("drift", "tick", None),
    ("drift", "tick", 1.5),
], ids=["cumulative-missing", "tick-string", "agent-list", "cumulative-string",
        "drift-tick-missing", "drift-tick-float"])
def test_report_of_a_mistyped_event_fails(kind, field, value, tmp_path, capsys):
    lines = GOLDEN_TRACE.read_text().splitlines()
    n = next(i for i, l in enumerate(lines) if f'"kind":"{kind}"' in l)
    doc = json.loads(lines[n])
    if value is None:
        del doc[field]
    else:
        doc[field] = value
    lines[n] = canonical_dumps(doc)
    bad = tmp_path / "bad_event.ndjson"
    bad.write_text("\n".join(lines) + "\n")
    assert run_cli("report", str(bad), "--out", str(tmp_path / "m.json")) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ")
    assert f"trace {kind} field {field!r}" in captured.err
    assert "Traceback" not in captured.out + captured.err


def test_report_checks_lines_against_the_tier_the_header_names(tmp_path, capsys):
    docs = [json.loads(line) for line in GOLDEN_TRACE.read_text().splitlines()]
    live = [dict(live_view(docs[0]), mode=LIVE)] + [
        view for view in map(live_view, docs[1:]) if view is not None]
    path = tmp_path / "live.ndjson"
    path.write_text("".join(canonical_dumps(doc) + "\n" for doc in live))
    assert run_cli("report", str(path), "--out", str(tmp_path / "m.json")) == 0
    n = next(i for i, doc in enumerate(live) if doc["kind"] == "drift")
    live[n] = dict(live[n], levels=[1])  # a disclosure field
    path.write_text("".join(canonical_dumps(doc) + "\n" for doc in live))
    assert run_cli("report", str(path), "--out", str(tmp_path / "m2.json")) == 3
    assert "trace drift: additional properties are not allowed: ['levels']" in (
        capsys.readouterr().err)


def test_replay_refuses_a_forged_action_over_f_max(tmp_path, capsys, monkeypatch):
    """A trace written by a loop that tripled every action after clamping
    it holds rows no live agent could have applied; replay refuses it as
    it reads the `act` line, instead of applying it verbatim."""
    original = harness.validate_forces
    monkeypatch.setattr(harness, "validate_forces",  # the loop checks a batch
                        lambda raw, bodies: [3.0 * f for f in original(raw, bodies)])
    disc = tmp_path / "tripled.ndjson"
    assert run_cli("run", "--set", "gen.seed=19", "--set", "episode.horizon=60",
                   "--agent", "greedy", "--disclosure", str(disc)) == 0
    monkeypatch.undo()
    header, events = read_trace(str(disc))
    f_max = header["bodies"]["greedy"]["f_max"]
    norms = [math.hypot(*row) for e in events if e["kind"] == "act"
             for row in e["forces"]]
    assert max(norms) == pytest.approx(3 * f_max)
    verdict = replay_trace(str(disc))
    assert verdict["verdict"] == "FAIL"
    assert verdict["first_divergence_line"] is None
    assert verdict["error"].startswith(
        "ContractViolation: trace act of 'greedy' at tick 0: action force of norm ")
    assert verdict["error"].endswith(" exceeds f_max 4.0")
    assert run_cli("replay", str(disc)) == 1
    assert "f_max" in capsys.readouterr().out


@pytest.mark.parametrize("forces, error", [
    (lambda f: canonical_dumps(f[:-1]), "action must be shape"),
    # 1e400 parses to an infinity, which the encoder would refuse to write
    (lambda f: canonical_dumps(f).replace(repr(f[0][0]), "1e400", 1),
     "action forces must be finite"),
    (lambda f: canonical_dumps([[4.0, 1e-5]] + f[1:]), "exceeds f_max 4.0"),
], ids=["row-missing", "infinite", "over-cap"])
def test_replay_refuses_an_inadmissible_recorded_action(forces, error, tmp_path):
    lines = GOLDEN_TRACE.read_text().splitlines()
    n = next(i for i, l in enumerate(lines) if '"kind":"act"' in l)
    doc = json.loads(lines[n])
    forged = lines[n].replace(canonical_dumps(doc["forces"]), forces(doc["forces"]))
    assert forged != lines[n]
    lines[n] = forged
    verdict = replay_trace(_write_lines(tmp_path / "bad_act.ndjson", lines))
    assert verdict["verdict"] == "FAIL"
    assert verdict["error"].startswith(
        f"ContractViolation: trace act of {doc['agent']!r} at tick {doc['tick']}: ")
    assert error in verdict["error"]


def test_undecodable_trace_is_a_contract_error_naming_its_line(tmp_path, capsys):
    raw = GOLDEN_TRACE.read_bytes().split(b"\n")
    n = next(i for i, l in enumerate(raw) if b'"kind":"sample"' in l)
    raw[n] = raw[n].replace(b'"sample"', b'"sam\xffple"')
    bad = tmp_path / "undecodable.ndjson"
    bad.write_bytes(b"\n".join(raw))
    assert run_cli("report", str(bad), "--out", str(tmp_path / "m.json")) == 3
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: {bad}:{n + 1}: ")
    assert "Traceback" not in captured.out + captured.err
    verdict = replay_trace(str(bad))
    assert verdict["verdict"] == "FAIL"
    assert verdict["error"].startswith(f"ContractViolation: {bad}:{n + 1}: ")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
@pytest.mark.parametrize("kind", ["sample", "act"])
def test_non_finite_json_constants_are_refused(kind, constant, tmp_path, capsys):
    lines = GOLDEN_TRACE.read_text().splitlines()
    n = next(i for i, l in enumerate(lines) if f'"kind":"{kind}"' in l)
    doc = json.loads(lines[n])
    field, value = (("cumulative", doc["cumulative"]) if kind == "sample"
                    else ("forces", doc["forces"][0][0]))
    opening = ":" if kind == "sample" else ":[["
    forged = lines[n].replace(f'"{field}"{opening}{value!r}',
                              f'"{field}"{opening}{constant}', 1)
    assert forged != lines[n]
    lines[n] = forged
    bad = _write_lines(tmp_path / "non_finite.ndjson", lines)
    assert run_cli("report", bad, "--out", str(tmp_path / "m.json")) == 3
    assert capsys.readouterr().err.startswith(f"error: {bad}:{n + 1}: ")
    verdict = replay_trace(bad)
    assert verdict["verdict"] == "FAIL"
    assert verdict["error"].startswith(f"ContractViolation: {bad}:{n + 1}: ")
    assert f"{constant.lstrip('-')} is not a JSON number" in verdict["error"]


def test_report_refuses_a_sample_too_large_for_a_float(tmp_path, capsys):
    # `1e400` is a JSON number, but it decodes to an infinity
    lines = GOLDEN_TRACE.read_text().splitlines()
    n = next(i for i, l in enumerate(lines) if '"kind":"sample"' in l)
    value = json.loads(lines[n])["cumulative"]
    forged = lines[n].replace(f'"cumulative":{value!r}', '"cumulative":1e400', 1)
    assert forged != lines[n]
    lines[n] = forged
    bad = _write_lines(tmp_path / "huge.ndjson", lines)
    out = tmp_path / "m.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("report", bad, "--out", str(out)) == 3
    assert capsys.readouterr().err == "error: sample ticks and scores must be finite\n"
    assert not out.exists()


def test_trace_reader_takes_only_the_line_endings_the_writer_writes(tmp_path, capsys):
    # a trailing NEL (U+0085) is whitespace to str.strip(), not to the reader
    raw = GOLDEN_TRACE.read_bytes()
    lines = raw.splitlines(keepends=True)
    n = next(i for i, line in enumerate(lines) if b'"kind":"sample"' in line)
    nel = tmp_path / "nel.ndjson"
    nel.write_bytes(b"".join(line[:-1] + " \u0085\n".encode()
                             if b'"kind":"sample"' in line else line
                             for line in lines))
    assert run_cli("report", str(nel), "--out", str(tmp_path / "m.json")) == 3
    assert capsys.readouterr().err.startswith(f"error: {nel}:{n + 1}: not valid JSON: ")
    assert replay_trace(str(nel))["error"].startswith(f"ContractViolation: {nel}:{n + 1}: ")
    # a CRLF copy reports as the original does and replays to FAIL at line 1
    crlf = tmp_path / "crlf.ndjson"
    crlf.write_bytes(raw.replace(b"\n", b"\r\n"))
    for path, out in ((GOLDEN_TRACE, "lf.json"), (crlf, "crlf.json")):
        assert run_cli("report", str(path), "--out", str(tmp_path / out)) == 0
    assert (tmp_path / "lf.json").read_bytes() == (tmp_path / "crlf.json").read_bytes()
    verdict = replay_trace(str(crlf))
    assert verdict["first_divergence_line"] == 1 and verdict["error"] is None


def test_replay_of_an_agentless_header_fails_at_once(tmp_path):
    header, *events = GOLDEN_TRACE.read_text().splitlines()
    doc = json.loads(header)
    doc.update(bodies={}, agent_kinds={}, stream_names={},
               episode=dict(doc["episode"], horizon=3000))
    bad = _write_lines(tmp_path / "agentless.ndjson",
                       [canonical_dumps(doc)] + [e for e in events
                                                 if '"kind":"act"' not in e
                                                 and '"kind":"end"' not in e])
    verdict = replay_trace(bad)
    assert verdict["verdict"] == "FAIL"
    assert verdict["error"] == "ConfigError: an episode needs at least one agent"


def test_replay_missing_file_exit_one(tmp_path, capsys):
    assert run_cli("replay", str(tmp_path / "nope.ndjson")) == 1
    capsys.readouterr()


# -------------------------------------------------------------------- report


def test_report_ranks_agents_from_trace(tmp_path, capsys):
    live = tmp_path / "live.ndjson"
    assert run_cli("run", *BASE, "--agent", "greedy", "--live", str(live)) == 0
    out = tmp_path / "metrics.json"
    assert run_cli("report", str(live), "--out", str(out)) == 0
    doc = json.loads(out.read_text())
    assert doc["ranking"] == ["greedy"]
    assert "acquisition" in doc["agents"]["greedy"]
    capsys.readouterr()


def test_report_writes_rate_curve_csv(tmp_path, capsys):
    live = tmp_path / "live.ndjson"
    assert run_cli("run", *BASE, "--agent", "greedy", "--live", str(live)) == 0
    csv_dir = tmp_path / "rates"
    assert run_cli("report", str(live), "--out", str(tmp_path / "m.json"),
                   "--rates-csv", str(csv_dir)) == 0
    lines = (csv_dir / "greedy.csv").read_text().splitlines()
    assert lines[0] == "tick,rate"
    _, events = read_trace(str(live))
    n_samples = sum(1 for e in events if e["kind"] == "sample")
    assert len(lines) == 1 + n_samples
    for row in lines[1:]:
        tick, rate = row.split(",")
        assert int(tick) >= 0 and float(rate) >= 0.0
    capsys.readouterr()


def test_report_rates_csv_needs_force(tmp_path, capsys):
    live = tmp_path / "live.ndjson"
    assert run_cli("run", *BASE, "--agent", "greedy", "--live", str(live)) == 0
    csv_dir = tmp_path / "rates"
    csv_dir.mkdir()
    (csv_dir / "greedy.csv").write_text("precious\n")
    out = tmp_path / "m.json"
    capsys.readouterr()
    assert run_cli("report", str(live), "--out", str(out),
                   "--rates-csv", str(csv_dir)) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert (csv_dir / "greedy.csv").read_text() == "precious\n"
    assert not out.exists()
    assert run_cli("report", str(live), "--out", str(out),
                   "--rates-csv", str(csv_dir), "--force") == 0
    assert (csv_dir / "greedy.csv").read_text().startswith("tick,rate")


@pytest.mark.parametrize("agent_id", ["../escaped", "a/b", "..", ".", ""])
def test_report_refuses_an_agent_id_that_is_not_a_file_name(
        agent_id, tmp_path, capsys):
    def trace(agent):
        samples = [canonical_dumps({"kind": "sample", "tick": tick,
                                    "agent": agent, "cumulative": score})
                   for tick, score in ((0, 0.0), (10, 1.0))]
        return "\n".join(['{"kind":"header","mode":"live"}', *samples]) + "\n"

    bad = tmp_path / "bad.ndjson"
    bad.write_text(trace(agent_id))
    work = tmp_path / "work"
    work.mkdir()
    out = work / "m.json"
    assert run_cli("report", str(bad), "--out", str(out),
                   "--rates-csv", str(work / "rates")) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert list(work.iterdir()) == []
    assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.ndjson", "work"]
    # the same trace under a plain name writes its CSV
    good = tmp_path / "good.ndjson"
    good.write_text(trace("escaped"))
    assert run_cli("report", str(good), "--out", str(out),
                   "--rates-csv", str(work / "rates")) == 0
    assert (work / "rates" / "escaped.csv").exists()


def test_report_needs_samples(tmp_path, capsys):
    bare = tmp_path / "bare.ndjson"
    bare.write_text('{"kind":"header","mode":"live"}\n')
    assert run_cli("report", str(bare)) == 3
    assert "error" in capsys.readouterr().err


def _mutants(n: int, seed: int):
    """`n` copies of the golden trace's lines, each with one edit: a key
    dropped or a value retyped, at a random depth of a random line (every
    fourth copy the header's), or a line duplicated or dropped.  Yields
    what was done and the lines."""
    rng = random.Random(seed)
    lines = GOLDEN_TRACE.read_text().splitlines()
    values = [None, True, 0, -1, 2.5, "x", [], {}]
    for case in range(n):
        out = list(lines)
        k = 0 if case % 4 == 0 else rng.randrange(len(out))
        how = rng.choice(["drop-key", "retype", "duplicate", "drop-line"])
        if how == "duplicate":
            out.insert(k, out[k])
        elif how == "drop-line":
            del out[k]
        else:
            parent = doc = json.loads(out[k])
            key = rng.choice(list(doc))
            while isinstance(parent[key], (dict, list)) and parent[key] and rng.random() < 0.5:
                parent = parent[key]
                key = (rng.choice(list(parent)) if isinstance(parent, dict)
                       else rng.randrange(len(parent)))
            if how == "drop-key":
                del parent[key]
            else:
                parent[key] = rng.choice(values)
            out[k] = canonical_dumps(doc)
        yield f"{how} at line {k + 1}", out


def test_report_and_replay_of_a_mutated_trace_exit_with_a_verdict(tmp_path, capsys):
    for n, (what, lines) in enumerate(_mutants(24, seed=37)):
        path = _write_lines(tmp_path / f"mutant{n}.ndjson", lines)
        assert run_cli("replay", path) in (0, 1), what
        assert run_cli("report", path, "--out", str(tmp_path / f"m{n}.json")) in (0, 3), what
    assert "Traceback" not in "".join(capsys.readouterr())


# -------------------------------------------------------------------- stages


def test_stage1_cli(tmp_path, capsys):
    out = tmp_path / "stage1.json"
    rc = run_cli("stage1", *BASE, "--set", "run.agents=greedy,null",
                 "--set", "run.n_worlds=1", "--out", str(out))
    assert rc == 0
    assert capsys.readouterr().out.startswith("ranking:")
    doc = json.loads(out.read_text())
    assert doc["stage"] == 1
    assert sorted(doc["ranking"]) == ["greedy", "null"]


@pytest.mark.parametrize("cpus", [1, 3])
def test_stage1_cli_missing_trace_dir_exits_five(cpus, monkeypatch, tmp_path,
                                                 capsys):
    # three CPUs put the failure in a pool worker, even on a smaller machine
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
                        raising=False)
    rc = run_cli("stage1", *BASE, "--set", "run.agents=greedy,null",
                 "--set", "run.n_worlds=2",
                 "--trace-dir", str(tmp_path / "missing"))
    assert rc == 5
    assert capsys.readouterr().err.startswith("i/o error: ")
    assert not multiprocessing.active_children()


def fill_the_disk():
    """Make this process's file writes fail as on a full disk: EFBIG, since
    Python ignores SIGXFSZ."""
    resource.setrlimit(resource.RLIMIT_FSIZE,
                       (0, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))


@pytest.mark.parametrize("fault, code, message", [
    (lambda: os.kill(os.getpid(), signal.SIGKILL), cli.E_WORKER_LOST,
     "error: a stage worker process was lost"),
    (fill_the_disk, cli.E_IO, "i/o error: "),
], ids=["killed", "disk-full"])
def test_stage1_cli_failed_worker_exits_with_its_code_and_leaves_no_partial_file(
        fault, code, message, monkeypatch, tmp_path, capsys):
    # the first episode to reach tick 10 in a pool worker brings the fault
    # on that worker, the test's own child, while it has traces open
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    here, struck = os.getpid(), str(tmp_path / "struck")
    real_settle = harness.Episode.settle

    def settle(episode, sink, readings):
        if episode.tick == 10 and os.getpid() != here:
            with contextlib.suppress(FileExistsError):
                os.close(os.open(struck, os.O_CREAT | os.O_EXCL))
                fault()
        real_settle(episode, sink, readings)

    monkeypatch.setattr(harness.Episode, "settle", settle)
    traces, out = tmp_path / "traces", tmp_path / "stage1.json"
    traces.mkdir()
    rc = run_cli("stage1", *BASE, "--set", "run.n_worlds=4",
                 "--trace-dir", str(traces), "--out", str(out))
    assert rc == code
    assert capsys.readouterr().err.startswith(message)
    assert not multiprocessing.active_children()
    assert os.path.exists(struck) and not out.exists()
    assert not [name for name in os.listdir(traces) if not name.endswith(".ndjson")]


def test_stage1_cli_traces_need_force(tmp_path, capsys):
    argv = ["stage1", *BASE, "--set", "run.agents=greedy,null",
            "--set", "run.n_worlds=2", "--trace-dir", str(tmp_path)]
    assert run_cli(*argv) == 0
    first = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert len(first) == 8 and "w1_null.disclosure.ndjson" in first
    capsys.readouterr()
    assert run_cli(*argv) == 3
    assert capsys.readouterr().err.startswith("error: ")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == first
    assert run_cli(*argv, "--force") == 0


def test_oracle_cli(tmp_path, capsys):
    rc = run_cli("oracle", *BASE, "--problems", "2")
    assert rc == 0
    assert "oracle solved 2/2" in capsys.readouterr().out


# ---------------------------------------------------------------- exit codes


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli()
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        run_cli("frobnicate")
    assert exc.value.code == 2
    capsys.readouterr()


def test_config_errors_exit_three(capsys):
    assert run_cli("gen", "--set", "gen.magic=1") == 3
    assert run_cli("gen", "--set", "gen.n_entities=0") == 3
    assert run_cli("run", "--config", "/nonexistent.cfg") == 3
    assert "error" in capsys.readouterr().err


def test_protocol_errors_exit_four(tmp_path, capsys):
    bad = tmp_path / "bad_hello.py"
    bad.write_text(
        "import json, sys\n"
        "sys.stdin.readline()\n"
        "sys.stdout.write(json.dumps({'kind': 'hello', 'protocol': "
        f"{PROTOCOL_VERSION},"
        " 'agent': 'x', 'oops': 1}) + '\\n')\n"
        "sys.stdout.flush()\n"
        "sys.stdin.read()\n"
    )
    rc = run_cli("run", *BASE, "--agent-cmd", f"{sys.executable} {bad}")
    assert rc == 4
    assert "protocol error" in capsys.readouterr().err


NON_FINITE_AGENT = r"""
import json, sys
n = len(json.loads(sys.stdin.readline())["body"]["member_ids"])
print(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION, "agent": "x"}),
      flush=True)
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "observation":
        print(ACTION.replace("ROWS", ",".join([FORCE] * n)) % doc["tick"],
              flush=True)
    elif doc["kind"] == "bye":
        break
"""

_ACTION = ('{"kind":"action","tick":%%d,"forces":[ROWS],'
           '"resources":{"model_size":%s,"updates":0}}')


@pytest.mark.parametrize("trace", [True, False], ids=["trace", "no-trace"])
@pytest.mark.parametrize("force, model_size", [
    ("[NaN,0.0]", "0"), ("[1e400,0.0]", "0"),
    ("[0.0,0.0]", "Infinity"), ("[0.0,0.0]", "1e400"),
], ids=["force-NaN", "force-1e400", "resources-Infinity", "resources-1e400"])
def test_non_finite_agent_numbers_exit_four(force, model_size, trace, tmp_path,
                                            capsys):
    script = tmp_path / "non_finite.py"
    script.write_text(f"PROTOCOL_VERSION = {PROTOCOL_VERSION}\n"
                      f"ACTION = {_ACTION % model_size!r}\nFORCE = {force!r}\n"
                      + NON_FINITE_AGENT)
    disc = tmp_path / "disc.ndjson"
    rc = run_cli("run", *BASE, "--set", "episode.budget_s=30",
                 "--agent-cmd", f"{sys.executable} {script}",
                 *(["--disclosure", str(disc)] if trace else []))
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("protocol error: ") and "pipe is closed" not in err
    assert "must be finite" in err or "not valid JSON" in err
    assert not disc.exists()


EARLY_AGENT = r"""
import json, sys
n = len(json.loads(sys.stdin.readline())["body"]["member_ids"])
print(json.dumps({"kind": "hello", "protocol": PROTOCOL_VERSION, "agent": "x"}),
      flush=True)
for line in sys.stdin:
    doc = json.loads(line)
    if doc["kind"] == "observation":
        print(json.dumps({"kind": "action", "tick": doc["tick"] + 1,
                          "forces": [[0.0, 0.0]] * n,
                          "resources": {"model_size": 0, "updates": 0}}),
              flush=True)
"""


def test_reply_tagged_with_a_later_tick_exits_four(tmp_path, capsys):
    script = tmp_path / "early.py"
    script.write_text(f"PROTOCOL_VERSION = {PROTOCOL_VERSION}\n" + EARLY_AGENT)
    disc = tmp_path / "disc.ndjson"
    rc = run_cli("run", *BASE, "--set", "episode.budget_s=30",
                 "--agent-cmd", f"{sys.executable} {script}",
                 "--disclosure", str(disc))
    err = capsys.readouterr().err
    assert rc == 4, err
    assert err.startswith("protocol error: action tagged tick 1 arrived at tick 0")
    assert not disc.exists()


NON_UTF8_AGENT = r"""
import json, sys
stdin, out = sys.stdin.buffer, sys.stdout.buffer
n = len(json.loads(stdin.readline())["body"]["member_ids"])
name = b"\xff" if IN_HELLO else b"x"
out.write(b'{"kind":"hello","protocol":%d,"agent":"%s"}\n' % (PROTOCOL_VERSION, name))
out.flush()
for line in stdin:
    kind = json.loads(line)["kind"]
    if kind == "observation":
        rows = b",".join([b"[0.0,0.0]"] * n)
        out.write(b'{"kind":"action\xff","forces":[%s]}\n' % rows)
        out.write(b'{"kind":"resources","model_size":0,"updates":0}\n')
    elif kind == "bye":
        out.write(b'{"kind":"bye"}\n')
    out.flush()
"""


@pytest.mark.parametrize("in_hello", [True, False], ids=["hello", "action"])
def test_non_utf8_agent_line_exits_four_at_once(in_hello, tmp_path):
    # Run as a process, so that anything printed on the way out is seen.
    script = tmp_path / "non_utf8.py"
    script.write_text(f"PROTOCOL_VERSION = {PROTOCOL_VERSION}\n"
                      f"IN_HELLO = {in_hello}\n" + NON_UTF8_AGENT)
    disc = tmp_path / "disc.ndjson"
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "driftworld", "run", *BASE,
         "--set", "episode.budget_s=30", "--disclosure", str(disc),
         "--agent-cmd", f"{sys.executable} {script}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert time.monotonic() - started < HELLO_TIMEOUT_S
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("protocol error: line is not valid JSON: ")
    assert "can't decode byte 0xff" in done.stderr
    assert "Exception in thread" not in done.stderr
    assert not disc.exists()


STUCK_AGENT = r"""
import json, os, sys, time
stdin, out = sys.stdin.buffer, sys.stdout.buffer
n = len(json.loads(stdin.readline())["body"]["member_ids"])
with open(PID_FILE, "w") as fh:
    fh.write(str(os.getpid()))
out.write(b'{"kind":"hello","protocol":%d,"agent":"x"}\n' % PROTOCOL_VERSION)
out.flush()
stdin.readline()  # the first observation
rows = b",".join([b"[0.0,0.0]"] * n)
out.write(b'{"kind":"action\xff","forces":[%s]}\n' % rows)
out.flush()
time.sleep(30)  # reads nothing more: neither the bye nor the EOF
"""


def test_broken_agent_is_ended_at_once(tmp_path):
    # After a protocol error the harness kills the agent; it does not send
    # bye and wait for an agent that already broke the protocol.
    script, pid_file = tmp_path / "stuck.py", tmp_path / "agent.pid"
    script.write_text(f"PROTOCOL_VERSION = {PROTOCOL_VERSION}\n"
                      f"PID_FILE = {str(pid_file)!r}\n" + STUCK_AGENT)
    src = str(Path(cli.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    started = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "driftworld", "run",
         "--set", "episode.horizon=5", "--set", "episode.budget_s=30",
         "--agent-cmd", f"{sys.executable} {script}"],
        env=env, capture_output=True, text=True, timeout=60)
    assert time.monotonic() - started < HELLO_TIMEOUT_S
    assert done.returncode == 4, done.stderr
    assert done.stderr.startswith("protocol error: ")
    with pytest.raises(ProcessLookupError):
        os.kill(int(pid_file.read_text()), 0)


# ------------------------------------------------------------- installed form


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "driftworld", "gen", "--set", "gen.seed=2"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["spec"]["seed"] == 2
