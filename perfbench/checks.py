"""Correctness checks the benchmark computes apart from the program.

Every check reads trace bytes with this file's own parser and formulas;
none of them calls into `driftworld`.  Each returns a list of problems
found, empty when the check passes, so a planted fault can be asserted
on directly.
"""

from __future__ import annotations

import hashlib
import json
import math

#: Keys a live trace must never carry, restated here rather than imported
#: so that a change to the program's own list cannot weaken this check.
FORBIDDEN_LIVE_KEYS = frozenset({
    "seed", "grammar", "laws", "law", "terms", "coeff", "coefficients",
    "polarity_coupled", "drift_handle", "regime_times", "smooth_rate",
    "drift_levels", "hidden_actions", "scriptor_len", "p_null",
    "gen_spec", "rng", "streams",
})

#: Shorter secret reprs would match ordinary numbers by chance.
MIN_SECRET_LEN = 8

SCORE_RTOL = 1e-12


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def read_lines(path: str) -> list[dict]:
    """Decode an NDJSON trace, header first."""
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for line in fh if line.strip())


def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(1.0, abs(a), abs(b))


def expected_score(solved: bool, o_count: float, d_count: float, o_ref: float,
                   d_ref: float, p_null: float, s_max: float) -> float:
    """(1 - p_null) * exp(-(o/o_ref + d/d_ref) / 2), scaled by s_max, or 0."""
    if not solved:
        return 0.0
    return s_max * (1.0 - p_null) * math.exp(-(o_count / o_ref + d_count / d_ref) / 2.0)


def check_scores(docs: list[dict]) -> list[str]:
    """Recompute every closed problem's score and each agent's cumulative.

    Needs a disclosure trace: the references and `p_null` come from the
    matching `problem_issued` line.  Resource discounts must be off, since
    the declared resources at closing time are not in the trace.
    """
    header, events = docs[0], docs[1:]
    score = header["score_params"]
    if score["lam_model"] != 0 or score["lam_compute"] != 0:
        return ["score check needs lam_model == lam_compute == 0"]
    issued: dict[int, dict] = {}
    sums: dict[str, float] = {}
    found: list[str] = []
    end = None
    for doc in events:
        kind = doc["kind"]
        if kind == "problem_issued":
            issued[doc["problem"]["id"]] = doc["problem"]
        elif kind == "problem_closed":
            p = issued.get(doc["problem_id"])
            if p is None:
                found.append(f"problem {doc['problem_id']} closed but never issued")
                continue
            want = expected_score(doc["solved"], doc["o_count"], doc["d_count"],
                                  p["o_ref"], p["d_ref"], p["p_null"], score["s_max"])
            if not _close(doc["score"], want, SCORE_RTOL):
                found.append(f"problem {doc['problem_id']}: score {doc['score']!r} "
                             f"!= recomputed {want!r}")
            sums[doc["agent"]] = sums.get(doc["agent"], 0.0) + doc["score"]
        elif kind == "end":
            end = doc
    if end is None:
        return found + ["trace has no end line"]
    for agent, cumulative in end["cumulative"].items():
        if not _close(cumulative, sums.get(agent, 0.0), 1e-9):
            found.append(f"{agent}: cumulative {cumulative!r} != sum of scores "
                         f"{sums.get(agent, 0.0)!r}")
    return found


def check_target_grids(docs: list[dict], n_entities: int) -> list[str]:
    """Every target grid counts every entity when the window covers the arena."""
    found: list[str] = []
    for doc in docs[1:]:
        if doc["kind"] != "problem_issued":
            continue
        total = sum(sum(sum(cell) for cell in row) for row in doc["problem"]["target_grid"])
        if total != n_entities:
            found.append(f"problem {doc['problem']['id']}: target grid sums to "
                         f"{total}, world has {n_entities} entities")
    return found


def check_fairness(docs: list[dict]) -> list[str]:
    """Each agent sensed and acted exactly once per tick: senses == acts == final tick."""
    header, events = docs[0], docs[1:]
    senses = {agent: 0 for agent in header["bodies"]}
    acts = dict(senses)
    final_tick = None
    for doc in events:
        if doc["kind"] == "sense":
            senses[doc["agent"]] = senses.get(doc["agent"], 0) + 1
        elif doc["kind"] == "act":
            acts[doc["agent"]] = acts.get(doc["agent"], 0) + 1
        elif doc["kind"] == "end":
            final_tick = doc["tick"]
    if final_tick is None:
        return ["trace has no end line"]
    return [f"{agent}: senses {senses[agent]}, acts {acts.get(agent, 0)}, "
            f"final tick {final_tick}"
            for agent in sorted(senses)
            if not senses[agent] == acts.get(agent, 0) == final_tick]


def _forbidden_keys(doc, trail: str, found: list[str]) -> None:
    if isinstance(doc, dict):
        for key, value in doc.items():
            if key in FORBIDDEN_LIVE_KEYS:
                found.append(f"{trail}/{key}")
            _forbidden_keys(value, f"{trail}/{key}", found)
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            _forbidden_keys(value, f"{trail}/{i}", found)


def check_live_secrecy(live_path: str, secrets: list[str]) -> list[str]:
    """No forbidden key anywhere and no secret repr verbatim in a live trace."""
    with open(live_path, "r", encoding="utf-8") as fh:
        raw = fh.read()
    found = [f"secret {s!r} appears verbatim" for s in secrets
             if len(s) >= MIN_SECRET_LEN and s in raw]
    for n, line in enumerate(raw.splitlines(), start=1):
        if line.strip():
            keys: list[str] = []
            _forbidden_keys(json.loads(line), "", keys)
            found.extend(f"line {n}: forbidden key {k}" for k in keys)
    return found


def disclosed_secrets(docs: list[dict]) -> list[str]:
    """Reprs of the seed, every drifted law coefficient and every hidden
    script force that a disclosure trace names."""
    secrets = [repr(docs[0]["gen_spec"]["seed"])]
    for doc in docs[1:]:
        if doc["kind"] == "drift":
            for law in doc["new_laws"]:
                secrets.extend(repr(float(coeff)) for _, coeff in law["terms"])
        elif doc["kind"] == "problem_issued":
            secrets.extend(repr(float(v)) for tick in doc["problem"]["hidden_actions"]
                           for member in tick for v in member)
    return sorted(set(secrets))


def check_replay(verdict: dict, path: str) -> list[str]:
    """A replay of an untouched trace is OK and checked every line of the file."""
    found: list[str] = []
    if verdict.get("verdict") != "OK" or not verdict.get("ok"):
        found.append(f"replay verdict {verdict.get('verdict')!r}: {verdict}")
    lines = count_lines(path)
    if verdict.get("lines_checked") != lines:
        found.append(f"replay checked {verdict.get('lines_checked')} lines, "
                     f"file has {lines}")
    return found


def check_tamper_caught(verdict: dict) -> list[str]:
    """A replay of a trace with one flipped bit must fail."""
    if verdict.get("verdict") == "FAIL" and not verdict.get("ok"):
        return []
    return [f"replay of a tampered trace gave {verdict.get('verdict')!r}"]


def flip_bit(path: str, out_path: str, byte_offset: int, bit: int) -> None:
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[byte_offset % len(data)] ^= 1 << (bit % 8)
    with open(out_path, "wb") as fh:
        fh.write(bytes(data))


def act_forces(docs: list[dict]) -> dict[tuple[str, int], list]:
    return {(d["agent"], d["tick"]): d["forces"] for d in docs[1:] if d["kind"] == "act"}


def check_parity(wire_docs: list[dict], ref_docs: list[dict]) -> list[str]:
    """The same agent and seed give the same act forces over the wire and in process."""
    wire, ref = act_forces(wire_docs), act_forces(ref_docs)
    if wire.keys() != ref.keys():
        return [f"act lines differ: {len(wire)} over the wire, {len(ref)} in process"]
    differing = sorted(tick for (agent, tick) in wire if wire[agent, tick] != ref[agent, tick])
    if differing:
        return [f"act forces differ at {len(differing)} ticks, first at tick {differing[0]}"]
    return []


def check_digests(digests: dict[str, str], reference: dict[str, str]) -> list[str]:
    """Trace digests equal those of an earlier run of the same inputs."""
    return [f"{name}: sha256 {digests.get(name)} != {want}"
            for name, want in sorted(reference.items()) if digests.get(name) != want]
