"""Metric pipeline against hand-computed curves.

Expected values: cumulative curves built from known rate profiles
(linear ramps, plateaus, post-change slowdowns), so every summary
number has a closed-form target.
"""

import numpy as np
import pytest

from driftworld.canon import to_doc
from driftworld.errors import ConfigError, ContractViolation, InsufficientDataError
from driftworld.metrics import (
    AgentMetrics,
    MetricParams,
    compute_metrics,
    rank_agents,
    rate_curve,
    retention_at,
)


def ramp_samples(t_end, rate, tau, dt=1.0):
    """Cumulative score for rate(t) = rate * min(1, t / tau)."""
    samples = []
    t = 0.0
    while t <= t_end:
        if t <= tau:
            samples.append((t, rate * t * t / (2.0 * tau)))
        else:
            samples.append((t, rate * (t - tau / 2.0)))
        t += dt
    return samples


def kink_samples(t_end, mark, pre_rate, post_rate, dt=1.0):
    """Slope pre_rate up to the mark, slope post_rate after it."""
    samples = []
    t = 0.0
    while t <= t_end:
        if t <= mark:
            samples.append((t, pre_rate * t))
        else:
            samples.append((t, pre_rate * mark + post_rate * (t - mark)))
        t += dt
    return samples


# ---------------------------------------------------------------- rate_curve


def test_rate_curve_exact_on_linear():
    samples = [(t, 0.3 * t) for t in range(50)]
    rates = rate_curve(samples, window_halfwidth=5)
    assert rates.shape == (50,)
    assert np.allclose(rates, 0.3)


def test_rate_curve_zero_on_flat():
    samples = [(t, 7.0) for t in range(20)]
    assert np.all(rate_curve(samples) == 0.0)


def test_rate_curve_clamps_negative_slopes():
    samples = [(t, -2.0 * t) for t in range(20)]
    assert np.all(rate_curve(samples) == 0.0)


def test_rate_curve_truncated_window_by_hand():
    # scores 0,0,1,2,3: at index 0 with w=1 the window is {0,1}, slope 0;
    # at index 2 the window is {1,2,3}, slope 1.
    samples = [(0, 0.0), (1, 0.0), (2, 1.0), (3, 2.0), (4, 3.0)]
    rates = rate_curve(samples, window_halfwidth=1)
    assert rates[0] == 0.0
    assert rates[2] == pytest.approx(1.0)
    assert rates[4] == pytest.approx(1.0)


def test_rate_curve_needs_two_samples():
    with pytest.raises(InsufficientDataError):
        rate_curve([(0, 0.0)])


def test_rate_curve_rejects_non_increasing_ticks():
    with pytest.raises(ContractViolation):
        rate_curve([(0, 0.0), (0, 1.0), (1, 2.0)])


# -------------------------------------------------------------- retention_at


def test_retention_exact_halving():
    ticks = np.arange(0.0, 41.0)
    rates = np.concatenate([np.ones(20), 0.5 * np.ones(21)])
    params = MetricParams(pre_window=20, post_window=20)
    assert retention_at(ticks, rates, 20.0, params) == pytest.approx(0.5)


def test_retention_clamped_at_one():
    ticks = np.arange(0.0, 41.0)
    rates = np.concatenate([np.ones(20), 3.0 * np.ones(21)])
    params = MetricParams(pre_window=20, post_window=20)
    assert retention_at(ticks, rates, 20.0, params) == 1.0


def test_retention_trivial_when_idle_before_mark():
    ticks = np.arange(0.0, 41.0)
    rates = np.concatenate([np.zeros(20), np.ones(21)])
    params = MetricParams(pre_window=20, post_window=20)
    assert retention_at(ticks, rates, 20.0, params) == 1.0


def test_retention_none_when_window_empty():
    ticks = np.arange(0.0, 41.0)
    rates = np.ones(41)
    params = MetricParams(pre_window=20, post_window=20)
    assert retention_at(ticks, rates, 100.0, params) is None
    assert retention_at(ticks, rates, -5.0, params) is None


# ----------------------------------------------------------- compute_metrics


def test_linear_curve_pins_every_summary():
    # Exactly linear from tick 0: the rate is at plateau immediately, so
    # acquisition hits the max(t_acq - t0, 1) clamp and equals the span.
    samples = [(t, 2.0 * t) for t in range(101)]
    m = compute_metrics(samples)
    assert m.plateau == pytest.approx(2.0)
    assert m.acquisition == pytest.approx(100.0)
    assert m.retention == 1.0
    assert m.n_segments == 1
    assert m.n_marks == 0


def test_idle_curve_scores_zero():
    samples = [(t, 0.0) for t in range(40)]
    m = compute_metrics(samples)
    assert m.plateau == 0.0
    assert m.acquisition == 0.0
    assert m.retention == 1.0
    assert m.index == 0.0


def test_acquisition_orders_fast_before_slow():
    fast = compute_metrics(ramp_samples(100, 1.0, tau=5))
    mid = compute_metrics(ramp_samples(100, 1.0, tau=15))
    slow = compute_metrics(ramp_samples(100, 1.0, tau=40))
    assert fast.acquisition > mid.acquisition > slow.acquisition
    assert fast.index > mid.index > slow.index


def test_plateau_orders_by_final_rate():
    high = compute_metrics(ramp_samples(100, 1.0, tau=10))
    mid = compute_metrics(ramp_samples(100, 0.7, tau=10))
    low = compute_metrics(ramp_samples(100, 0.4, tau=10))
    assert high.plateau == pytest.approx(1.0, abs=0.05)
    assert mid.plateau == pytest.approx(0.7, abs=0.05)
    assert low.plateau == pytest.approx(0.4, abs=0.05)
    assert high.plateau > mid.plateau > low.plateau


def test_retention_orders_keeper_before_forgetter():
    keeper = compute_metrics(kink_samples(100, 50, 1.0, 0.8), drift_marks=(50,))
    forgetter = compute_metrics(kink_samples(100, 50, 1.0, 0.2), drift_marks=(50,))
    assert keeper.n_marks == 1 and forgetter.n_marks == 1
    assert keeper.retention == pytest.approx(0.8, abs=0.05)
    assert forgetter.retention == pytest.approx(0.2, abs=0.05)
    assert keeper.retention > forgetter.retention
    assert keeper.index > forgetter.index


def test_marks_split_segments():
    m = compute_metrics(kink_samples(100, 50, 1.0, 0.5), drift_marks=(50,))
    assert m.n_segments == 2
    assert len(m.segments) == 2
    assert m.segments[0]["tick_hi"] < m.segments[1]["tick_lo"]


def test_marks_outside_span_are_ignored():
    samples = [(t, 1.0 * t) for t in range(101)]
    m = compute_metrics(samples, drift_marks=(0, 50, 100, 700))
    assert m.n_segments == 2
    assert m.n_marks == 1


def test_tail_frac_controls_plateau_window():
    # Flat for 50 ticks then slope 1: the final-half tail sees only the
    # active stretch, a full-segment tail averages in the idle start.
    samples = kink_samples(100, 50, 0.0, 1.0)
    tail = compute_metrics(samples, params=MetricParams(tail_frac=0.5))
    full = compute_metrics(samples, params=MetricParams(tail_frac=1.0))
    assert tail.plateau == pytest.approx(1.0, abs=0.1)
    assert full.plateau == pytest.approx(0.5, abs=0.1)


def test_index_is_weighted_geometric_mean():
    m = compute_metrics(ramp_samples(100, 0.8, tau=20))
    expect = (m.acquisition ** (1 / 3)) * (m.plateau ** (1 / 3)) * (m.retention ** (1 / 3))
    assert m.index == pytest.approx(expect, rel=1e-12)


def test_index_respects_weights():
    samples = ramp_samples(100, 0.8, tau=20)
    only_acq = compute_metrics(samples, params=MetricParams(weights=(1, 0, 0)))
    assert only_acq.index == pytest.approx(only_acq.acquisition)
    only_plat = compute_metrics(samples, params=MetricParams(weights=(0, 1, 0)))
    assert only_plat.index == pytest.approx(only_plat.plateau)


def test_too_sparse_segments_raise():
    # One sample on each side of the mark: no segment can fit a slope.
    with pytest.raises(InsufficientDataError):
        compute_metrics([(0, 0.0), (10, 1.0)], drift_marks=(5,))


def test_metrics_to_dict_roundtrip():
    m = compute_metrics(ramp_samples(60, 1.0, tau=10))
    d = to_doc(m)
    assert d["plateau"] == m.plateau
    assert d["n_segments"] == m.n_segments
    assert isinstance(d["segments"], list)


# ------------------------------------------------------------------- ranking


def mk(index, plateau=0.0, acquisition=0.0):
    return AgentMetrics(
        acquisition=acquisition,
        plateau=plateau,
        retention=1.0,
        index=index,
        n_segments=1,
        n_marks=0,
    )


def test_rank_by_index_first():
    order = rank_agents([("a", mk(0.1)), ("b", mk(0.9)), ("c", mk(0.5))])
    assert order == ["b", "c", "a"]


def test_rank_ties_break_on_plateau_then_acquisition_then_id():
    order = rank_agents([
        ("a", mk(0.5, plateau=0.1)),
        ("b", mk(0.5, plateau=0.9)),
    ])
    assert order == ["b", "a"]
    order = rank_agents([
        ("a", mk(0.5, plateau=0.5, acquisition=1.0)),
        ("b", mk(0.5, plateau=0.5, acquisition=2.0)),
    ])
    assert order == ["b", "a"]
    order = rank_agents([
        ("z", mk(0.5, 0.5, 0.5)),
        ("a", mk(0.5, 0.5, 0.5)),
    ])
    assert order == ["a", "z"]


# -------------------------------------------------------------------- params


def test_params_validation():
    cases = [
        dict(window_halfwidth=0),
        dict(theta=0.0),
        dict(theta=1.5),
        dict(tail_frac=0.0),
        dict(pre_window=0),
        dict(post_window=0),
        dict(weights=(1, 1, -1)),
        dict(weights=(0, 0, 0)),
    ]
    for kw in cases:
        with pytest.raises(ConfigError):
            MetricParams(**kw)


# ----------------------------------------------------------- reference curves


def test_packaged_reference_curves_have_known_shapes():
    from learner_curves import drifting_learner, saturating_learner

    sat = saturating_learner(1.0, 5.0, 50)
    rates = np.diff([v for _, v in sat])
    assert np.all(rates >= 0)
    assert np.all(np.diff(rates) >= 0)  # rate never falls back
    assert rates[-1] == pytest.approx(1.0, abs=1e-3)

    dr = drifting_learner(1.0, 5.0, 0.2, 25, 50)
    rates = np.diff([v for _, v in dr])
    assert rates[23] == pytest.approx(1.0, abs=0.01)  # saturated before the mark
    assert rates[24] == pytest.approx(0.2)            # drops to the kept fraction
    assert rates[-1] > 0.95                           # then re-approaches the plateau
