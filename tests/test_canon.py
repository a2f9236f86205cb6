import json
import math

import numpy as np
import pytest

from driftworld.canon import (canonical_dumps, canonical_hash, canonical_loads,
                              from_doc, to_doc)
from driftworld.config import EpisodeConfig, RunConfig
from driftworld.dynamics import StepParams
from driftworld.errors import ContractViolation, ProtocolError
from driftworld.interface import BodySpec
from driftworld.metrics import AgentMetrics, MetricParams
from driftworld.problems import ProblemParams, ScoreParams, generate_problem
from driftworld.protocol import PROTOCOL_VERSION, validate_message
from driftworld.worldgen import (
    CausationGrammar,
    CausationLaw,
    DriftSchedule,
    GenSpec,
    generate_world,
)


def test_sorted_compact_output():
    assert canonical_dumps({"b": 1, "a": [2, 3]}) == '{"a":[2,3],"b":1}'


def test_key_order_does_not_matter():
    a = canonical_hash({"x": 1, "y": {"p": 2, "q": 3}})
    b = canonical_hash({"y": {"q": 3, "p": 2}, "x": 1})
    assert a == b


def test_value_changes_change_hash():
    assert canonical_hash({"x": 1}) != canonical_hash({"x": 2})


def test_hash_is_hex_sha256():
    h = canonical_hash([1, 2, 3])
    assert len(h) == 64
    int(h, 16)


def test_nan_rejected():
    with pytest.raises(ValueError):
        canonical_dumps({"x": math.nan})


@pytest.mark.parametrize("line", [b'{"a":[1,2.5]}', b'{"a":[1,2.5]}\n',
                                  b'{"a":[1,2.5]}\r\n', b'{"a": [1, 2.5]} \n'])
def test_canonical_loads_strips_only_the_line_ending(line):
    assert canonical_loads(line) == {"a": [1, 2.5]}


@pytest.mark.parametrize("line, error", [
    (b'{"a":1}\r', "carriage return"), (b'{"a":1}\r\r\n', "carriage return"),
    (b'{"a":\r1}\n', "carriage return"), (b'{"a":"\xff"}\n', "can't decode byte 0xff"),
    (' {"a":1} \u0085\n'.encode(), "Extra data"), (b'{"a":1}\x0b\n', "Extra data"),
    (b'{"a":NaN}\n', "NaN is not a JSON number"),
    (b"\n", "Expecting value"),
], ids=["bare-cr", "cr-crlf", "inner-cr", "not-utf8", "nel", "vt", "nan", "empty"])
def test_canonical_loads_refuses_what_no_writer_writes(line, error):
    with pytest.raises(ValueError, match=error):
        canonical_loads(line)


def test_float_repr_is_stable():
    # Exact shortest-repr floats are the byte-level determinism anchor.
    assert canonical_dumps({"v": 0.1}) == '{"v":0.1}'
    assert canonical_dumps({"v": 1.0}) == '{"v":1.0}'


# --------------------------------------------------------------------- codec

BODY = BodySpec(member_ids=(0, 1, 2, 3), resolution=16, window_halfwidth=8.0,
                f_max=4.0)

CODEC_CASES = {
    "body": BODY,
    "step_params": StepParams(dt=0.5, v_max=2.0, a_max=6.0, eps_r=0.25),
    "problem_params": ProblemParams(scriptor_len=3, epsilon=0.2, timeout=9,
                                    impulse_floor=0.3),
    "score_params": ScoreParams(s_max=2.0, lam_model=0.1, lam_compute=0.2),
    "metric_params": MetricParams(window_halfwidth=7, theta=0.8, tail_frac=0.3,
                                  pre_window=30, post_window=25,
                                  weights=(2, 1, 1)),
    "metric_params_float_weights": MetricParams(weights=(0.5, 0.25, 1 / 3)),
    "episode": EpisodeConfig(horizon=50, problems_per_regime=2,
                             stop_after_problems=7, budget_s=1.5),
    "agent_metrics": AgentMetrics(
        acquisition=0.25, plateau=0.5, retention=0.75, index=0.4,
        n_segments=2, n_marks=1,
        segments=[{"start": 0, "plateau": 0.5}, {"start": 40, "plateau": 0.25}]),
    "gen_spec": GenSpec(seed=17, n_entities=12, n_levels=3,
                        drift=DriftSchedule(regime_times=(10, 20),
                                            smooth_rate=0.001)),
    "gen_spec_drift_levels": GenSpec(
        seed=2**64 - 1, n_levels=3,
        grammar=CausationGrammar(basis=("inv", "damp"), max_terms=2,
                                 coeff_range=(-0.002, 0.003),
                                 polarity_coupling=False),
        drift=DriftSchedule(regime_times=(5,), drift_levels=(1, 2))),
    "law": CausationLaw(level=1,
                        terms=(("inv_sq", -0.0004), ("lin", 7e-4), ("damp", 0.01)),
                        polarity_coupled=(True, False, False),
                        drift_handle="level1"),
    "law_without_handle": CausationLaw(level=0, terms=(("const", 0.001),),
                                       polarity_coupled=(True,)),
}


@pytest.mark.parametrize("obj", CODEC_CASES.values(), ids=CODEC_CASES.keys())
def test_codec_roundtrip(obj):
    doc = json.loads(canonical_dumps(to_doc(obj)))
    assert from_doc(type(obj), doc) == obj


def test_codec_roundtrips_generated_laws():
    world = generate_world(GenSpec(seed=5, n_levels=3))
    assert len(world.laws) == 3
    for law in world.laws:
        doc = json.loads(canonical_dumps(to_doc(law)))
        assert from_doc(CausationLaw, doc) == law


def _tuples(doc, trail="") -> list[str]:
    if isinstance(doc, tuple):
        return [trail]
    if isinstance(doc, dict):
        return [t for k, v in doc.items() for t in _tuples(v, f"{trail}/{k}")]
    if isinstance(doc, list):
        return [t for i, v in enumerate(doc) for t in _tuples(v, f"{trail}/{i}")]
    return []


def test_to_doc_emits_lists_never_tuples():
    world = generate_world(GenSpec(seed=5, n_levels=3))
    [problem] = generate_problem([world], [BODY], ProblemParams(), StepParams(), [0],
                                 ["problems"])
    problem.p_null = 0.0
    for obj in [*CODEC_CASES.values(), problem, RunConfig()]:
        assert _tuples(to_doc(obj)) == [], type(obj).__name__
    doc = to_doc(problem)
    assert set(doc) == {"id", "issued_tick", "target_grid", "scriptor_len",
                        "epsilon", "timeout", "o_ref", "d_ref",
                        "hidden_actions", "p_null"}
    assert doc["target_grid"] == problem.target_grid.tolist()
    assert doc["hidden_actions"] == problem.hidden_actions.tolist()


def test_hello_built_from_to_doc_is_valid():
    hello = {"kind": "hello", "protocol": PROTOCOL_VERSION, "horizon": 10,
             "body": to_doc(BODY), "agent_seed": 0}
    validate_message("to_agent", hello)
    # The checker treats only lists as arrays, which is why to_doc must
    # never hand it a tuple.
    with pytest.raises(ProtocolError):
        validate_message("to_agent", dict(hello, body=dict(
            hello["body"], member_ids=BODY.member_ids)))


def test_from_doc_shape_errors():
    doc = to_doc(CODEC_CASES["gen_spec"])
    assert from_doc(GenSpec, dict(doc, extra=1)) == CODEC_CASES["gen_spec"]
    with pytest.raises(KeyError, match="n_levels"):
        from_doc(GenSpec, {k: v for k, v in doc.items() if k != "n_levels"})
    for bad in ([], "x", None, 3):
        with pytest.raises(ContractViolation, match="GenSpec must be an object"):
            from_doc(GenSpec, bad)
    with pytest.raises(ContractViolation, match="DriftSchedule must be an object"):
        from_doc(GenSpec, dict(doc, drift=[]))
    with pytest.raises(ContractViolation, match="expected 2 items"):
        from_doc(GenSpec, dict(doc, grammar=dict(doc["grammar"],
                                                 coeff_range=[0.1])))
    with pytest.raises(ContractViolation, match="expected an array"):
        from_doc(GenSpec, dict(doc, drift=dict(doc["drift"], regime_times=4)))


def test_from_doc_checks_scalar_types():
    episode = to_doc(EpisodeConfig())
    step = to_doc(StepParams())
    body = to_doc(BodySpec(member_ids=(0, 1)))
    spec = to_doc(CODEC_CASES["gen_spec"])
    # int takes only an int; float takes an int or a float; never a bool
    for bad in ("x", 3.0, True, None):
        with pytest.raises(ContractViolation, match="EpisodeConfig.horizon: expected int"):
            from_doc(EpisodeConfig, dict(episode, horizon=bad))
    for bad in ("1", True, [1.0]):
        with pytest.raises(ContractViolation, match="StepParams.dt: expected float"):
            from_doc(StepParams, dict(step, dt=bad))
    assert from_doc(StepParams, dict(step, dt=2)).dt == 2
    # a numpy scalar is no JSON type, whatever its base class
    with pytest.raises(ContractViolation, match="expected int, not int64"):
        from_doc(EpisodeConfig, dict(episode, horizon=np.int64(3)))
    with pytest.raises(ContractViolation, match="expected float, not float64"):
        from_doc(StepParams, dict(step, dt=np.float64(0.5)))
    with pytest.raises(ContractViolation, match="BodySpec.member_ids: expected int, not bool"):
        from_doc(BodySpec, dict(body, member_ids=[0, False]))
    # str and bool match exactly
    with pytest.raises(ContractViolation, match="expected str, not int"):
        from_doc(GenSpec, dict(spec, grammar=dict(spec["grammar"], basis=["inv", 1])))
    with pytest.raises(ContractViolation, match="expected bool, not int"):
        from_doc(GenSpec, dict(spec, grammar=dict(spec["grammar"], polarity_coupling=1)))
    # optionals still take None
    assert from_doc(EpisodeConfig, dict(episode, max_problems=None)).max_problems is None
