"""Golden byte fixtures: trace and report digests pinned across versions.

Each case in `golden/digests.json` is a config (override strings in the
`--set` grammar) and a stage to run with both trace tiers written.  The
test reruns every case and compares the sha256 of each trace file and of
the canonical stage report with the committed digest, so any change to
the bytes a configuration produces fails here, naming the case and tier.

One disclosure trace is committed in full and must still replay OK,
which checks replay against a trace written by an earlier build.

A change that alters bytes on purpose bumps `TRACE_FORMAT` and
regenerates the fixtures with

    PYTHONPATH=src python tests/test_golden.py --write
"""

import hashlib
import json
import os
import shutil
import sys
import tempfile

import pytest

from driftworld.canon import canonical_dumps
from driftworld.config import load_config
from driftworld.harness import replay_trace, run_stage1, run_stage2
from driftworld.trace import LIVE, SCHEMAS, check_line, iter_trace, live_view

from oracles import audit_live_trace

GOLDEN_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
DIGESTS = os.path.join(GOLDEN_DIR, "digests.json")
#: The committed trace: case name and tier file written by that case.
REPLAY_CASE, REPLAY_FILE = "stage2-three-agents", "stage2.disclosure.ndjson"

_SHORT = [
    "episode.horizon=30", "episode.snapshot_every=10", "problem.timeout=8",
    "problem.epsilon=0.4", "drift.regime_times=10,20", "body.resolution=8",
]

CASES = {
    "stage1-single-agents": {
        "stage": 1,
        "overrides": _SHORT + ["run.n_worlds=2", "run.master_seed=11",
                               "run.agents=greedy,random,null"],
    },
    "stage2-three-agents": {
        "stage": 2,
        "overrides": _SHORT + ["gen.seed=23", "gen.n_entities=24",
                               "gen.n_levels=3", "run.agents=greedy,random,null"],
    },
    # Enough entities that the pair kernel's reductions and the null
    # rollouts both matter; every agent gets a problem at tick 0, one of
    # those three solves itself, and three problems are solved.
    "stage2-dense": {
        "stage": 2,
        "overrides": _SHORT + ["gen.seed=20", "gen.n_entities=64",
                               "gen.n_levels=3", "run.agents=greedy,random,null"],
    },
}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, outdir: str) -> dict[str, str]:
    """Run one case into outdir; return {file name or 'report': sha256}."""
    case = CASES[name]
    cfg = load_config(None, case["overrides"])
    if case["stage"] == 1:
        report = run_stage1(cfg, outdir, write_traces=True)
    else:
        report = run_stage2(cfg, os.path.join(outdir, "stage2.live.ndjson"),
                            os.path.join(outdir, "stage2.disclosure.ndjson"))
    digests = {"report": _sha256(canonical_dumps(report.to_dict()).encode("utf-8"))}
    for fname in sorted(os.listdir(outdir)):
        with open(os.path.join(outdir, fname), "rb") as fh:
            digests[fname] = _sha256(fh.read())
    return digests


def _load_digests() -> dict:
    with open(DIGESTS, "r", encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def golden_run(tmp_path_factory):
    """Runs a case once per module: (its directory, its digests)."""
    runs = {}

    def run(name: str):
        if name not in runs:
            outdir = tmp_path_factory.mktemp(name)
            runs[name] = outdir, run_case(name, str(outdir))
        return runs[name]
    return run


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_digests_unchanged(name, golden_run):
    expected = _load_digests()[name]
    outdir, got = golden_run(name)
    assert sorted(got) == sorted(expected), f"case {name}: different files written"
    for tier, digest in expected.items():
        assert got[tier] == digest, f"case {name}, {tier}: bytes changed"
    for fname in got:
        if fname.endswith(".live.ndjson"):
            assert audit_live_trace(str(outdir / fname)) == [], fname


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_lines_pass_their_schemas(name, golden_run):
    """Every line of a kind a reader checks, in both tiers of every case."""
    outdir, got = golden_run(name)
    for fname in got:
        if fname == "report":
            continue
        lines = iter_trace(str(outdir / fname))
        header = next(lines)
        tier = header["mode"]
        check_line(header, tier)
        kinds = {check_line(doc, tier)["kind"] for doc in lines
                 if doc["kind"] in SCHEMAS[tier]}
        assert kinds == set(SCHEMAS[tier]) - {"header"}, fname


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_live_trace_is_the_live_view_of_its_disclosure(name, golden_run):
    """Each live file is `live_view` of its disclosure file, line for line,
    with the header's `mode` relabelled: a published live trace can be
    checked against its disclosure trace without re-running anything."""
    outdir, got = golden_run(name)
    lives = [f for f in got if f.endswith(".live.ndjson")]
    assert lives, f"case {name} writes no live trace"
    for live in lives:
        header, *events = iter_trace(str(outdir / live.replace(".live.", ".disclosure.")))
        expected = [dict(live_view(header), mode=LIVE)] + [
            view for view in map(live_view, events) if view is not None]
        with open(outdir / live, "r", encoding="utf-8") as fh:
            assert fh.read().splitlines() == list(map(canonical_dumps, expected)), live


def test_committed_disclosure_trace_replays(tmp_path):
    path = os.path.join(GOLDEN_DIR, REPLAY_FILE)
    with open(path, "rb") as fh:
        assert _sha256(fh.read()) == _load_digests()[REPLAY_CASE][REPLAY_FILE]
    verdict = replay_trace(path, str(tmp_path / "regenerated.ndjson"))
    assert verdict["ok"], verdict
    assert verdict["verdict"] == "OK"


def _write() -> None:
    os.makedirs(GOLDEN_DIR, exist_ok=True)
    digests = {}
    for name in sorted(CASES):
        outdir = tempfile.mkdtemp()
        try:
            digests[name] = run_case(name, outdir)
            if name == REPLAY_CASE:
                shutil.copy(os.path.join(outdir, REPLAY_FILE),
                            os.path.join(GOLDEN_DIR, REPLAY_FILE))
        finally:
            shutil.rmtree(outdir)
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(digests, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --write")
    _write()
