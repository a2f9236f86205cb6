import hashlib
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from driftworld import dynamics
from driftworld.config import RunConfig
from driftworld.dynamics import (
    StepParams,
    _level_accel,
    compute_accelerations,
    prepare,
    snapshot_hash,
    step,
)
from driftworld.errors import ConfigError, ContractViolation
from driftworld.interface import BodySpec, forces_to_accel
from driftworld.rng import derive_world_seed
from driftworld.worldgen import (
    DAMPING_TERM,
    RADIAL_EXPONENT,
    CausationGrammar,
    CausationLaw,
    DriftSchedule,
    GenSpec,
    LevelConstants,
    divide_by_span,
    generate_world,
    minimal_image,
)

from conftest import flat_quiet_spec
from oracles import eval_law, level_accel, momentum, radial_power, snapshot


# -- minimal image ---------------------------------------------------------


def test_minimal_image_basic():
    e = 8.0
    assert minimal_image(np.array(1.0), e) == 1.0
    assert minimal_image(np.array(15.0), e) == -1.0
    assert minimal_image(np.array(-15.0), e) == 1.0
    assert minimal_image(np.array(17.0), e) == 1.0


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False), st.integers(-30, 30),
       st.sampled_from([1.0, 0.75, 1.5, 3.0]))
def test_divide_by_span_is_the_divide_to_the_bit(delta, power, mantissa):
    # a power-of-two span (mantissa 1.0) takes the multiply, which must
    # round to the divide's bits, subnormal and overflowing quotients included
    span = mantissa * 2.0 ** power
    deltas = np.array([delta, -delta, 0.0])
    with np.errstate(over="ignore"):
        assert divide_by_span(deltas, span).tobytes() == (deltas / span).tobytes()


def test_minimal_image_vectorized_matches_scalar():
    e = 5.0
    deltas = np.linspace(-30, 30, 121)
    out = minimal_image(deltas, e)
    for d, o in zip(deltas, out):
        assert o == minimal_image(np.array(d), e)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_minimal_image_negation_symmetric(delta):
    # Exact float antisymmetry: this property is what makes pairwise
    # forces cancel to the last bit.
    e = 8.0
    a = minimal_image(np.array(delta), e)
    b = minimal_image(np.array(-delta), e)
    assert a == -b


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=-1e6, max_value=1e6,
                 allow_nan=False, allow_infinity=False))
def test_minimal_image_in_half_open_box(delta):
    e = 8.0
    v = float(minimal_image(np.array(delta), e))
    assert -e <= v <= e


# -- law evaluation --------------------------------------------------------


def make_two_entity_world(law_terms, coupled=None, polarity=(1, -1)):
    spec = flat_quiet_spec(0, n_entities=2)
    world = generate_world(spec)
    world.positions[:] = [[0.0, 0.0], [2.0, 0.0]]
    world.velocities[:] = 0.0
    world.polarity[:] = polarity
    if coupled is None:
        coupled = tuple(name != "damp" for name, _ in law_terms)
    world.laws[0] = CausationLaw(level=0, terms=tuple(law_terms),
                                 polarity_coupled=coupled, drift_handle=None)
    return world


def test_const_law_acceleration_by_hand():
    # Coupled constant pull between opposite polarities: magnitude c,
    # direction along the separation, sign from the polarity product.
    c = 0.25
    world = make_two_entity_world([("const", c)])
    params = StepParams(a_max=100.0, v_max=100.0)
    acc = compute_accelerations(world, params, world.recompute_aggregates())
    # product is -1, unit vector b->a for entity 0 is (-1, 0)
    assert np.allclose(acc[0], [c, 0.0])
    assert np.allclose(acc[1], [-c, 0.0])


def test_inverse_law_uses_effective_radius_floor():
    c = 0.3
    world = make_two_entity_world([("inv", c)], polarity=(1, 1))
    world.positions[:] = [[0.0, 0.0], [0.01, 0.0]]  # nearly on top
    params = StepParams(a_max=1e9, v_max=1e9, eps_r=0.5)
    acc = compute_accelerations(world, params, world.recompute_aggregates())
    # r_eff = 0.5, same polarity so the pair repels along -x for entity 0
    assert np.allclose(np.abs(acc[0, 0]), c / 0.5)


def test_damping_term_never_polarity_coupled():
    d = 0.2
    world = make_two_entity_world([("damp", d)], coupled=(False,))
    world.velocities[:] = [[1.0, 0.0], [0.0, 0.0]]
    params = StepParams(a_max=100.0, v_max=100.0)
    acc = compute_accelerations(world, params, world.recompute_aggregates())
    assert np.allclose(acc[0], [-d, 0.0])
    assert np.allclose(acc[1], [d, 0.0])


def test_eval_law_matches_vectorized_path():
    # The scalar reference and the vectorized level pass must agree.
    spec = GenSpec(seed=14, n_entities=6, n_levels=1)
    world = generate_world(spec)
    params = StepParams()
    law = world.laws[0]
    extent = world.spec.arena_extent
    acc = compute_accelerations(world, params, world.recompute_aggregates())
    for a in range(6):
        total = np.zeros(2)
        for b in range(6):
            if a == b:
                continue
            delta = minimal_image(world.positions[a] - world.positions[b], extent)
            total += eval_law(
                law, delta,
                world.velocities[a], world.velocities[b],
                world.polarity[a], world.polarity[b],
                world.inertia[a], params,
            )
        assert np.allclose(acc[a], total, atol=1e-12)


def test_pairwise_antisymmetry_is_exact():
    spec = flat_quiet_spec(5, n_entities=2)
    world = generate_world(spec)
    params = StepParams(a_max=1e6, v_max=1e6)
    law = world.laws[0]
    extent = world.spec.arena_extent
    d_ab = minimal_image(world.positions[0] - world.positions[1], extent)
    d_ba = minimal_image(world.positions[1] - world.positions[0], extent)
    f_ab = eval_law(law, d_ab, world.velocities[0], world.velocities[1],
                    world.polarity[0], world.polarity[1], 1.0, params)
    f_ba = eval_law(law, d_ba, world.velocities[1], world.velocities[0],
                    world.polarity[1], world.polarity[0], 1.0, params)
    assert np.array_equal(f_ab, -f_ba)


# -- integration -----------------------------------------------------------


def test_semi_implicit_update_by_hand():
    c = 0.1
    world = make_two_entity_world([("const", c)])
    params = StepParams(dt=1.0, a_max=100.0, v_max=100.0)
    p0 = world.positions.copy()
    step(world, params)
    # v1 = a, x1 = x0 + v1 (velocity updates before position)
    assert np.allclose(world.velocities[0], [c, 0.0])
    assert np.allclose(world.positions[0], p0[0] + [c, 0.0])


def test_velocity_cap():
    world = make_two_entity_world([("const", 5.0)])
    params = StepParams(v_max=0.5, a_max=100.0)
    step(world, params)
    speeds = np.linalg.norm(world.velocities, axis=1)
    assert np.all(speeds <= 0.5 + 1e-12)


def test_acceleration_cap():
    world = make_two_entity_world([("const", 500.0)])
    params = StepParams(a_max=2.0, v_max=1e9)
    acc = compute_accelerations(world, params, world.recompute_aggregates())
    norms = np.linalg.norm(acc, axis=1)
    assert np.all(norms <= 2.0 + 1e-12)


def test_positions_wrap():
    world = make_two_entity_world([("const", 0.0)])
    world.positions[0] = [7.9, 0.0]
    world.velocities[0] = [0.5, 0.0]
    params = StepParams(v_max=10.0)
    step(world, params)
    assert -8.0 <= world.positions[0, 0] < 8.0


def test_tick_advances():
    world = generate_world(flat_quiet_spec(1))
    step(world, StepParams())
    step(world, StepParams())
    assert world.tick == 2


def test_momentum_conservation_battery():
    # Equal inertia, flat hierarchy, generous caps: pair forces cancel
    # exactly, so total momentum drift stays at float rounding level.
    params = StepParams(v_max=50.0, a_max=50.0)
    for n in range(2, 11):
        grammar = CausationGrammar(
            basis=("inv_sq", "inv", "const", "damp"),
            max_terms=3,
            coeff_range=(-0.02, 0.02),
            base_damping=0.4,
        )
        spec = GenSpec(seed=100 + n, n_entities=n, n_levels=1, grammar=grammar)
        world = generate_world(spec)
        steps = 1000
        for _ in range(steps):
            step(world, params)
        drift = np.linalg.norm(momentum(world))
        assert drift / steps <= 1e-9, f"n={n}: {drift/steps}"


def test_composites_never_jump_across_the_seam():
    # A composite moves with its members, so no farther than v_max * dt in
    # a tick, also when its members straddle the wrap seam.
    cfg = RunConfig()
    extent = cfg.gen.arena_extent
    worst = 0.0
    for i in range(5):
        world = generate_world(replace(cfg.gen, seed=derive_world_seed(0, i)))
        before = world.recompute_aggregates()
        for _ in range(240):
            step(world, cfg.step)
            after = world.recompute_aggregates()
            for (p0, *_), (p1, *_) in zip(before, after):
                moved = np.linalg.norm(minimal_image(p1 - p0, extent), axis=1)
                worst = max(worst, float(moved.max()))
            before = after
    assert worst <= cfg.step.v_max * cfg.step.dt + 1e-9, worst


def test_external_accel_enters_velocity():
    world = make_two_entity_world([("const", 0.0)])
    ext = np.zeros((2, 2))
    ext[0] = [0.25, 0.0]
    step(world, StepParams(), external_accel=ext)
    assert np.allclose(world.velocities[0], [0.25, 0.0])


def test_drift_applies_inside_step_at_pre_increment_tick():
    spec = GenSpec(seed=8, n_levels=2, drift=DriftSchedule(regime_times=(0,)))
    world = generate_world(spec)
    law_before = world.laws[1]
    step(world, StepParams())
    assert world.last_drift_events == [{"tick": 0, "level": 1, "kind": "regime"}]
    assert world.laws[1] is not law_before


def test_step_params_validation():
    for bad in (dict(dt=0.0), dict(v_max=0.0), dict(a_max=0.0), dict(eps_r=0.0)):
        with pytest.raises(ConfigError):
            StepParams(**bad)


def test_snapshot_hash_tracks_state():
    world = generate_world(flat_quiet_spec(2))
    h0 = snapshot_hash(world)
    assert h0 == snapshot_hash(world)
    step(world, StepParams())
    assert snapshot_hash(world) != h0
    blob = snapshot(world)
    assert isinstance(blob, bytes) and blob


def test_step_is_deterministic():
    a = generate_world(flat_quiet_spec(9))
    b = generate_world(flat_quiet_spec(9))
    for _ in range(50):
        step(a, StepParams())
        step(b, StepParams())
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


# -- pair kernel bytes -----------------------------------------------------

#: Every law term at once, so each radial exponent, polarity coupling and
#: damping take part in the pinned bytes.
_ALL_TERMS = CausationLaw(
    level=0,
    terms=(("inv_sq", 0.02), ("inv", -0.05), ("const", 0.03), ("lin", -0.004),
           ("quad", 0.0006), ("damp", 0.07)),
    polarity_coupled=(True, False, True, False, True, False),
)

#: sha256 of every `_level_accel` output of `_kernel_outputs`.  Any change
#: of layout must keep these bytes: the summation over partners has to
#: stay sequential and in partner order.  They must not depend on numpy's
#: SIMD dispatch either; CI reruns this test with AVX-512 disabled.
_KERNEL_DIGESTS = {
    (16, 2): "12d5eeccca496ed3601f15dc3655e2fa850f5065f69912ff3b26934dd380cef7",
    (64, 2): "b856d1c37235ffa7f8cfc6f5f08d80cd827f9a75aa44331d41b546d7158ff0bb",
    (192, 2): "549f1d1eaa144b204e24da42d57ef166b37190357f9932bbe190f5db399bef9c",
}


def _kernel_outputs(n: int) -> list[np.ndarray]:
    """`_level_accel` on every level of a stepped 3-level world, under its
    own law and `_ALL_TERMS`, with the default cap and with a cap low
    enough that the clamp rescales pairs."""
    world = generate_world(GenSpec(seed=31 + n, n_entities=n, n_levels=3))
    for _ in range(3):
        step(world, StepParams())
    extent = world.spec.arena_extent
    levels = [(world.positions, world.velocities)]
    levels += [(pos, vel) for pos, vel, _, _ in world.recompute_aggregates()]
    outputs = []
    for lv, (pos, vel) in enumerate(levels):
        for law in (world.laws[lv], _ALL_TERMS):
            for params in (StepParams(), StepParams(a_max=1e-4)):
                outputs.append(_level_accel(pos, vel, world.level_constants()[lv],
                                            law, extent, params))
    return outputs


@pytest.mark.parametrize("n, dim", sorted(_KERNEL_DIGESTS))
def test_pair_kernel_bytes_are_pinned(n, dim):
    outputs = _kernel_outputs(n)
    assert {o.shape[1] for o in outputs} == {dim}
    # under `_ALL_TERMS` the low cap rescales pairs at every level
    assert all(not np.array_equal(default, capped)
               for default, capped in zip(outputs[2::4], outputs[3::4]))
    digest = hashlib.sha256(b"".join(o.tobytes() for o in outputs)).hexdigest()
    assert digest == _KERNEL_DIGESTS[n, dim], f"n={n}, dim={dim}: kernel bytes changed"


# -- pair kernel workspace -------------------------------------------------


def _sum_of_squares(planes):
    total = planes[0] * planes[0]
    for plane in planes[1:]:
        total += plane * plane
    return total


def _reference_level_accel(positions, velocities, consts, law, extent, params):
    """The pair kernel written as plain expressions, one fresh array per op.

    The workspace kernel runs the same elementwise ops in the same order,
    so the two must agree to the bit.
    """
    polarity, inertia = consts.polarity, consts.inertia
    m, dim = positions.shape
    if m < 2:
        return np.zeros((m, dim))
    pos = positions.T
    delta = minimal_image(pos[:, None, :] - pos[:, :, None], extent)
    r = np.sqrt(_sum_of_squares(delta))
    r_eff = np.maximum(r, params.eps_r)
    radial = np.zeros((m, m))
    damping = 0.0
    pol_prod = polarity[None, :] * polarity[:, None]
    for (name, coeff), coupled in zip(law.terms, law.polarity_coupled):
        if name == DAMPING_TERM:
            damping = coeff
            continue
        magnitude = coeff * radial_power(r_eff, RADIAL_EXPONENT[name])
        if coupled:
            magnitude = magnitude * pol_prod
        radial += magnitude
    pair = np.divide(delta, r, out=np.zeros_like(delta), where=r > 0)
    pair *= radial / inertia
    if damping != 0.0:
        vel = velocities.T
        relative = vel[:, None, :] - vel[:, :, None]
        relative *= damping
        pair -= relative
    diagonal = np.arange(m)
    pair[:, diagonal, diagonal] = 0.0
    norm = np.sqrt(_sum_of_squares(pair))
    over = norm > params.a_max
    if over.any():
        pair *= np.where(over, params.a_max / np.where(norm > 0, norm, 1.0), 1.0)
    return pair.sum(axis=1).T.copy()


def _level_inputs(seed: int, n: int, law: CausationLaw | None = None):
    """Ground-level kernel arguments of a stepped one-level world."""
    world = generate_world(GenSpec(seed=seed, n_entities=n, n_levels=1))
    step(world, StepParams())
    return [world.positions, world.velocities, world.level_constants()[0],
            law or world.laws[0], world.spec.arena_extent]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 24), seed=st.integers(0, 2**16),
       terms=st.lists(st.sampled_from(sorted(RADIAL_EXPONENT) + [DAMPING_TERM]),
                      min_size=1, max_size=6, unique=True),
       coincide=st.booleans(), a_max=st.sampled_from([8.0, 1e-2, 1e-4]))
def test_pair_kernel_matches_plain_expressions(n, seed, terms, coincide, a_max):
    law = CausationLaw(
        level=0,
        terms=tuple((name, 0.01 * (k + 1) * (-1) ** k) for k, name in enumerate(terms)),
        polarity_coupled=tuple(name != DAMPING_TERM and k % 2 == 0
                               for k, name in enumerate(terms)),
    )
    args = _level_inputs(seed, n, law)
    if coincide:
        args[0] = args[0].copy()
        args[0][1] = args[0][0]
    params = StepParams(a_max=a_max)
    got = _level_accel(*args, params)
    want = _reference_level_accel(*args, params)
    assert got.tobytes() == want.tobytes()


# the clamp off, on for some pairs, and on for every pair
@pytest.mark.parametrize("a_max", [8.0, 0.05, 1e-4])
def test_pair_kernel_equals_plain_python_oracle(a_max):
    # The oracle does its arithmetic in Python floats, so equality to the
    # bit pins the kernel to IEEE 754 semantics, not to numpy's SIMD
    # dispatch or reduction order.
    params = StepParams(a_max=a_max)
    for m in range(2, 21):
        positions, velocities, consts, own_law, extent = _level_inputs(100 + m, m)
        coincident = positions.copy()
        coincident[-1] = coincident[0]
        for law in (own_law, _ALL_TERMS):
            for pos in (positions, coincident):
                want = np.array(level_accel(pos, velocities, consts.polarity,
                                            consts.inertia, law, extent, params))
                got = _level_accel(pos, velocities, consts, law, extent, params)
                assert got.tobytes() == want.tobytes(), (m, law)


def test_pair_kernel_never_returns_workspace_memory():
    first_args = _level_inputs(1, 10, _ALL_TERMS)
    second_args = _level_inputs(2, 10, _ALL_TERMS)
    first = _level_accel(*first_args, StepParams())
    kept = first.copy()
    second = _level_accel(*second_args, StepParams())
    assert np.array_equal(first, kept)
    assert not np.shares_memory(first, second)
    assert not np.array_equal(first, second)
    first += 1.0  # callers accumulate into the result
    assert np.array_equal(_level_accel(*second_args, StepParams()), second)


# the clamp off, on for about half the pairs, and on for every pair
@pytest.mark.parametrize("a_max", [8.0, 0.05, 1e-4])
def test_pair_kernel_keeps_no_state_between_calls(monkeypatch, a_max):
    params = StepParams(a_max=a_max)
    a = _level_inputs(3, 12, _ALL_TERMS)
    b = _level_inputs(4, 12, _ALL_TERMS)
    other_size = _level_inputs(5, 7, _ALL_TERMS)
    # b has a coincident off-diagonal pair; a has none
    b[0] = b[0].copy()
    b[0][5] = b[0][2]
    b[1] = b[1].copy()
    b[1][5] = b[1][2] + 0.5

    monkeypatch.setattr(dynamics, "_WORKSPACES", {})
    alone_a = _level_accel(*a, params).tobytes()
    monkeypatch.setattr(dynamics, "_WORKSPACES", {})
    alone_b = _level_accel(*b, params).tobytes()

    monkeypatch.setattr(dynamics, "_WORKSPACES", {})
    assert _level_accel(*a, params).tobytes() == alone_a
    after_a = _level_accel(*b, params)
    assert after_a.tobytes() == alone_b
    _level_accel(*other_size, params)  # first call at a new size
    assert _level_accel(*a, params).tobytes() == alone_a

    # the coincident pair acts through damping alone, as the oracle says
    positions, velocities, consts, law, extent = b
    for receiver in (2, 5):
        total = np.zeros(2)
        for partner in range(12):
            if partner == receiver:
                continue
            delta = minimal_image(positions[receiver] - positions[partner], extent)
            total += eval_law(law, delta, velocities[receiver], velocities[partner],
                              consts.polarity[receiver], consts.polarity[partner],
                              consts.inertia[receiver], params)
        assert np.allclose(after_a[receiver], total, rtol=1e-12, atol=1e-15)


def test_warm_pair_kernel_allocates_nothing_pair_sized():
    m = 192
    args = _level_inputs(6, m, _ALL_TERMS)
    params = StepParams(a_max=1e-4)  # the clamp path runs too
    _level_accel(*args, params)
    tracemalloc.start()
    try:
        _level_accel(*args, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < m * m * 8, f"warm call peaked at {peak} bytes"


# -- exact shortcuts -------------------------------------------------------


def _counting_sums_of_squares(monkeypatch) -> list:
    calls = []
    real = dynamics._axis_sum_of_squares

    def counted(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(dynamics, "_axis_sum_of_squares", counted)
    return calls


# the default cap, which no pair reaches, and one that clamps every pair
@pytest.mark.parametrize("a_max, clamp_norms", [(8.0, 0), (1e-4, 1)])
def test_clamp_norm_runs_only_when_the_bound_allows_a_clamp(monkeypatch, a_max,
                                                             clamp_norms):
    positions, velocities, consts, law, extent = _level_inputs(7, 32, _ALL_TERMS)
    params = StepParams(a_max=a_max)
    calls = _counting_sums_of_squares(monkeypatch)
    got = _level_accel(positions, velocities, consts, law, extent, params)
    assert len(calls) == 1 + clamp_norms  # the separations, then the clamp
    want = level_accel(positions, velocities, consts.polarity, consts.inertia,
                       law, extent, params)
    assert got.tobytes() == np.array(want).tobytes()
    unclamped = _level_accel(positions, velocities, consts, law, extent, StepParams(a_max=1e9))
    assert np.array_equal(got, unclamped) == (clamp_norms == 0)


def test_non_unit_inertia_is_still_divided():
    positions, velocities, consts, law, extent = _level_inputs(9, 12, _ALL_TERMS)
    heavy = LevelConstants.of(np.linspace(0.5, 3.0, 12), consts.polarity)
    assert consts.unit_inertia and not heavy.unit_inertia
    params = StepParams()
    got = _level_accel(positions, velocities, heavy, law, extent, params)
    want = level_accel(positions, velocities, heavy.polarity, heavy.inertia,
                       law, extent, params)
    assert got.tobytes() == np.array(want).tobytes()
    assert not np.array_equal(got, _level_accel(positions, velocities, consts, law,
                                                extent, params))


@pytest.mark.parametrize("terms", [
    (("const", 0.0),),
    (("const", 0.0), ("damp", 0.05)),
    (("inv", 0.0), ("quad", 0.0), ("damp", 0.05)),
    (("lin", -0.0), ("damp", 0.0)),
])
def test_zero_first_radial_term_keeps_the_bytes(terms):
    # Coupled to opposite polarities, a zero first term puts -0.0 where
    # the oracle's sum, started at 0.0, has +0.0; the bytes still agree.
    law = CausationLaw(level=0, terms=terms,
                       polarity_coupled=tuple(n != DAMPING_TERM for n, _ in terms))
    positions, velocities, consts, _, extent = _level_inputs(10, 9)
    coincident = positions.copy()
    coincident[4] = coincident[1]
    params = StepParams()
    for pos in (positions, coincident):
        got = _level_accel(pos, velocities, consts, law, extent, params)
        want = level_accel(pos, velocities, consts.polarity, consts.inertia,
                           law, extent, params)
        assert got.tobytes() == np.array(want).tobytes()


def test_level_constants_are_shared_and_read_only():
    world = generate_world(GenSpec(seed=4, n_entities=30, n_levels=3))
    consts = world.level_constants()
    assert world.clone().level_constants() is consts
    for level, agg in zip(consts[1:], world.recompute_aggregates()):
        assert agg[2] is level.inertia and agg[3] is level.polarity
    for level in consts:
        assert not level.inertia.flags.writeable
        assert not level.polarity_product.flags.writeable
    assert consts[0].unit_inertia and not consts[1].unit_inertia


# a regime resample at tick 3; tick 2 is quiet
@pytest.mark.parametrize("tick", [2, 3])
# a script rollout pushes the body; a null baseline does not
@pytest.mark.parametrize("pushed", [True, False])
def test_prepared_world_and_its_clones_step_like_plain_ones(tick, pushed):
    spec = GenSpec(seed=12, n_entities=24, n_levels=3,
                   drift=DriftSchedule(regime_times=(3,)))
    params = StepParams()
    plain = generate_world(spec)
    for _ in range(tick):
        step(plain, params)
    live = plain.clone()
    pending = prepare(live, params)
    assert prepare(live, params) is pending
    assert bool(pending.drift_events) == (tick == 3)
    ghosts = [live.clone(), live.clone()]
    body = BodySpec(member_ids=(0, 1, 2))
    for ghost in ghosts:
        reference = plain.clone()
        for t in range(4):
            push = None
            if pushed:
                push = forces_to_accel(ghost, body, np.full((3, 2), 0.5 * (t + 1)))
            step(ghost, params, external_accel=push)
            step(reference, params, external_accel=push)
            assert ghost.last_drift_events == reference.last_drift_events
            assert snapshot(ghost) == snapshot(reference), (tick, t)
    step(live, params)
    step(plain, params)
    assert live.last_drift_events == plain.last_drift_events
    assert snapshot(live) == snapshot(plain)
    assert live.pending is None


def test_pending_forces_belong_to_one_tick_and_one_set_of_params():
    world = generate_world(GenSpec(seed=5, n_levels=2))
    pending = prepare(world, StepParams())
    assert not pending.accel.flags.writeable
    with pytest.raises(ContractViolation):
        prepare(world, StepParams(a_max=1.0))
    with pytest.raises(ContractViolation):
        world.to_canonical()
    step(world, StepParams())
    assert world.to_canonical()["tick"] == 1
