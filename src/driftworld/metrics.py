"""Learning metrics over cumulative score histories.

The raw material is a sampled curve of (tick, cumulative score).  From it
we estimate a smoothed score rate, then three summary numbers per
episode: acquisition speed (how early the rate approaches its plateau),
asymptotic rate (the plateau itself), and retention (how much of the
rate survives a law change).  Their weighted geometric mean is the
single index used for ranking.

Episodes with scheduled law changes are split into per-regime segments;
acquisition and plateau are computed per segment and averaged, retention
is computed around each change mark and averaged.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, ContractViolation, InsufficientDataError


@dataclass(frozen=True)
class MetricParams:
    """Estimation constants for the metric pipeline."""

    window_halfwidth: int = 5      # slope window, in sample indices
    theta: float = 0.9             # fraction of plateau that counts as "acquired"
    tail_frac: float = 0.5         # final fraction of a segment used as plateau
    pre_window: int = 20           # ticks before a change mark
    post_window: int = 20          # ticks after a change mark
    weights: tuple[float, float, float] = (1 / 3, 1 / 3, 1 / 3)

    def __post_init__(self):
        if self.window_halfwidth < 1:
            raise ConfigError("window_halfwidth must be >= 1")
        if not 0.0 < self.theta <= 1.0:
            raise ConfigError("theta must lie in (0, 1]")
        if not 0.0 < self.tail_frac <= 1.0:
            raise ConfigError("tail_frac must lie in (0, 1]")
        if self.pre_window < 1 or self.post_window < 1:
            raise ConfigError("retention windows must be >= 1")
        if len(self.weights) != 3 or any(w < 0 for w in self.weights) \
                or sum(self.weights) <= 0:
            raise ConfigError("weights must be three nonnegative numbers, not all zero")


@dataclass
class AgentMetrics:
    """Summary numbers for one agent over one or more episodes."""

    acquisition: float
    plateau: float
    retention: float
    index: float
    n_segments: int
    n_marks: int
    segments: list[dict] = field(default_factory=list)


def _as_arrays(samples) -> tuple[np.ndarray, np.ndarray]:
    ticks = np.asarray([s[0] for s in samples], dtype=np.float64)
    scores = np.asarray([s[1] for s in samples], dtype=np.float64)
    if ticks.size != scores.size:
        raise ContractViolation("tick and score columns differ in length")
    if not (np.isfinite(ticks).all() and np.isfinite(scores).all()):
        raise ContractViolation("sample ticks and scores must be finite")
    if np.any(np.diff(ticks) <= 0):
        raise ContractViolation("sample ticks must be strictly increasing")
    return ticks, scores


def rate_curve(samples, window_halfwidth: int = 5) -> tuple[np.ndarray, np.ndarray]:
    """(ticks, rates): the sample ticks as floats, and per sample the score
    rate, a centered least-squares slope clamped at zero.

    The window is index-centered and truncated at the ends, so early
    samples are not discarded, just estimated from a shorter window.
    """
    ticks, scores = _as_arrays(samples)
    n = ticks.size
    if n < 2:
        raise InsufficientDataError("need at least two samples for a rate curve")
    rates = np.zeros(n)
    w = window_halfwidth
    for i in range(n):
        lo, hi = max(0, i - w), min(n, i + w + 1)
        x = ticks[lo:hi]
        y = scores[lo:hi]
        xm = x - x.mean()
        var = (xm * xm).sum()
        if var > 0:
            rates[i] = max(0.0, float((xm * (y - y.mean())).sum() / var))
    return ticks, rates


def _segment_stats(ticks, rates, lo, hi, params: MetricParams) -> dict | None:
    """Acquisition and plateau for samples with lo <= tick < hi."""
    mask = (ticks >= lo) & (ticks < hi)
    idx = np.nonzero(mask)[0]
    if idx.size < 2:
        return None
    seg_ticks = ticks[idx]
    seg_rates = rates[idx]
    t0, t1 = float(seg_ticks[0]), float(seg_ticks[-1])

    n_tail = max(1, int(np.ceil(params.tail_frac * idx.size)))
    plateau = float(seg_rates[-n_tail:].mean())

    if plateau <= 0.0:
        acquisition = 0.0
        t_acq = None
    else:
        threshold = params.theta * plateau
        hit = np.nonzero(seg_rates >= threshold)[0]
        t_acq = float(seg_ticks[hit[0]]) if hit.size else t1
        acquisition = (t1 - t0) / max(t_acq - t0, 1.0)

    return {
        "tick_lo": t0,
        "tick_hi": t1,
        "n_samples": int(idx.size),
        "plateau": plateau,
        "acquisition": acquisition,
        "acquired_at": t_acq,
    }


def retention_at(ticks, rates, mark: float, params: MetricParams) -> float | None:
    """Rate kept across one change mark, clamped to [0, 1].

    Compares the mean rate just before the mark with the mean just
    after; an idle pre-mark period retains trivially (nothing to lose).
    Returns None when either window holds no samples.
    """
    pre = (ticks >= mark - params.pre_window) & (ticks < mark)
    post = (ticks > mark) & (ticks <= mark + params.post_window)
    if not pre.any() or not post.any():
        return None
    r_pre = float(rates[pre].mean())
    r_post = float(rates[post].mean())
    if r_pre <= 0.0:
        return 1.0
    return float(min(1.0, max(0.0, r_post / r_pre)))


def compute_metrics(samples, drift_marks=(), params: MetricParams | None = None) -> AgentMetrics:
    """Full pipeline: rate curve, per-regime stats, combined index."""
    params = params or MetricParams()
    return curve_metrics(*rate_curve(samples, params.window_halfwidth),
                         drift_marks, params)


def curve_metrics(ticks, rates, drift_marks, params: MetricParams) -> AgentMetrics:
    """Per-regime stats and the combined index of a `rate_curve`."""
    marks = sorted(float(m) for m in drift_marks
                   if ticks[0] < m < ticks[-1])
    bounds = [float(ticks[0])] + marks + [float(ticks[-1]) + 1.0]
    segments = []
    for lo, hi in zip(bounds, bounds[1:]):
        stats = _segment_stats(ticks, rates, lo, hi, params)
        if stats is not None:
            segments.append(stats)
    if not segments:
        raise InsufficientDataError("no segment holds two or more samples")

    acquisition = float(np.mean([s["acquisition"] for s in segments]))
    plateau = float(np.mean([s["plateau"] for s in segments]))

    retentions = []
    for mark in marks:
        r = retention_at(ticks, rates, mark, params)
        if r is not None:
            retentions.append(r)
    retention = float(np.mean(retentions)) if retentions else 1.0

    w_a, w_p, w_r = params.weights
    total = w_a + w_p + w_r
    index = (
        max(acquisition, 0.0) ** (w_a / total)
        * max(plateau, 0.0) ** (w_p / total)
        * max(retention, 0.0) ** (w_r / total)
    )

    return AgentMetrics(
        acquisition=acquisition,
        plateau=plateau,
        retention=retention,
        index=float(index),
        n_segments=len(segments),
        n_marks=len(retentions),
        segments=segments,
    )


def rank_agents(entries: list[tuple[str, AgentMetrics]]) -> list[str]:
    """Order agent ids best first: index, then plateau, then acquisition.

    Remaining ties break on the id itself so rankings are reproducible.
    """
    return [
        aid
        for aid, _ in sorted(
            entries,
            key=lambda kv: (-kv[1].index, -kv[1].plateau, -kv[1].acquisition, kv[0]),
        )
    ]
