"""Per-candidate alignment and similarity measures, the reference for tests.

Each candidate is aligned with the reference on its own, in decimal
arithmetic, min-max scaled into its own ``NormalizedSeries`` and
scored by four scalar functions, and DTW also has a plain-list dynamic
program.  ``simobs.similarity`` scores the whole device set as row
arrays, one kernel per measure, and is checked against these
functions bit for bit: the ``repr`` of every measure and the flags.
``score_report`` gathers each candidate's measures into the columns
of a ``Report``, as the engine returns them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import ROUND_HALF_EVEN, Context, Decimal
from typing import Sequence

import numpy as np

from simobs.errors import AlignmentError, ParameterError, SimobsError
from simobs.similarity import (
    FLAG_CAND_DEGENERATE,
    FLAG_CC_UNDEFINED,
    FLAG_KLD_UNDEFINED,
    FLAG_REF_DEGENERATE,
    MEASURES,
    Report,
)
from simobs.timeseries import ByteSeries

_SIGMA_FLOOR = 1e-9


class UndefinedCorrelationError(SimobsError):
    """Pearson correlation is undefined (zero variance input)."""


class UndefinedDistributionError(SimobsError):
    """A series with zero sum cannot be turned into a distribution."""


@dataclass(frozen=True, eq=False)
class NormalizedSeries:
    """A series rescaled into [0, 1]; a constant source maps to all zeros
    and is marked ``degenerate``."""

    values: np.ndarray
    degenerate: bool = False

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float64)
        if vals.ndim != 1 or vals.size < 1:
            raise ParameterError("values must be a non-empty 1-d sequence")
        if (vals < 0).any() or (vals > 1).any():
            raise ParameterError("normalized values must lie in [0, 1]")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return int(self.values.size)


_DECIMALS = Context(prec=200)  # exact for every start and step the tests draw


def align(a: ByteSeries, b: ByteSeries) -> tuple[ByteSeries, ByteSeries]:
    """Both series cut to the whole steps they share.  ``b``'s start less
    ``a``'s, over the step, each the decimal its ``repr`` prints and
    rounded half to even, is the number of steps ``a`` skips, or, when
    negative, that ``b`` skips; a series that skips takes the other's
    start.  ParameterError on unequal steps, AlignmentError when no step
    is shared."""
    if a.step != b.step:
        raise ParameterError(f"step mismatch: {a.step} vs {b.step}")
    a_start, b_start, step = (Decimal(repr(float(v))) for v in (a.start_time, b.start_time, a.step))
    offset = _DECIMALS.divide(_DECIMALS.subtract(b_start, a_start), step)
    skip = int(offset.to_integral_value(rounding=ROUND_HALF_EVEN))
    a_from, b_from = max(skip, 0), max(-skip, 0)
    n = min(len(a) - a_from, len(b) - b_from)
    if n < 1:
        raise AlignmentError(f"no overlap at an offset of {skip} steps")
    return (ByteSeries(b.start_time if a_from else a.start_time, a.step, a.values[a_from : a_from + n]),
            ByteSeries(a.start_time if b_from else b.start_time, b.step, b.values[b_from : b_from + n]))


def min_max_normalize(series: ByteSeries | Sequence[float] | np.ndarray) -> NormalizedSeries:
    vals = np.asarray(series.values if isinstance(series, ByteSeries) else series, dtype=np.float64)
    if vals.ndim != 1 or vals.size < 1:
        raise ParameterError("series must be a non-empty 1-d sequence")
    lo = vals.min()
    hi = vals.max()
    if hi == lo:
        return NormalizedSeries(np.zeros_like(vals), degenerate=True)
    return NormalizedSeries((vals - lo) / (hi - lo), degenerate=False)


def _vals(series) -> np.ndarray:
    if isinstance(series, (NormalizedSeries, ByteSeries)):
        return np.asarray(series.values, dtype=np.float64)
    return np.asarray(series, dtype=np.float64)


def pearson_cc(a, b) -> float:
    x = _vals(a)
    y = _vals(b)
    if x.size != y.size:
        raise ParameterError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise ParameterError("pearson_cc needs length >= 2")
    xd = x - x.mean()
    yd = y - y.mean()
    sx = math.sqrt(float(xd @ xd))
    sy = math.sqrt(float(yd @ yd))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("zero variance input")
    return float(np.clip((xd @ yd) / (sx * sy), -1.0, 1.0))


def dtw_distance(a, b) -> float:
    """The plain-list dynamic program over {match, insert, delete}."""
    x = _vals(a).tolist()
    y = _vals(b).tolist()
    if not x or not y:
        raise ParameterError("dtw_distance needs non-empty series")
    inf = math.inf
    m = len(y)
    prev = [0.0] + [inf] * m
    for xi in x:
        cur = [inf] * (m + 1)
        for j in range(1, m + 1):
            best = prev[j]
            if prev[j - 1] < best:
                best = prev[j - 1]
            if cur[j - 1] < best:
                best = cur[j - 1]
            cur[j] = abs(xi - y[j - 1]) + best
        prev = cur
    return prev[m]


def _dtw_rows(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    d, m = ys.shape
    prev = np.full((d, m + 1), np.inf)
    prev[:, 0] = 0.0
    for xi in x:
        cost = np.abs(xi - ys)
        csum = np.concatenate((np.zeros((d, 1)), np.cumsum(cost, axis=1)), axis=1)
        best_above = np.minimum(prev[:, 1:], prev[:, :-1])
        cur = np.empty((d, m + 1))
        cur[:, 0] = np.inf
        cur[:, 1:] = csum[:, 1:] + np.minimum.accumulate(best_above - csum[:, :-1], axis=1)
        prev = cur
    return prev[:, m]


def gaussian_moments(series) -> tuple[float, float]:
    v = _vals(series)
    if v.size < 2:
        raise ParameterError("moment fit needs length >= 2")
    return float(v.mean()), float(v.std())


def gaussian_kld(a, b) -> float:
    mu_a, sd_a = gaussian_moments(a)
    mu_b, sd_b = gaussian_moments(b)
    sd_a = max(sd_a, _SIGMA_FLOOR)
    sd_b = max(sd_b, _SIGMA_FLOOR)
    return math.log(sd_b / sd_a) + (sd_a**2 + (mu_a - mu_b) ** 2) / (2 * sd_b**2) - 0.5


def jsd(a, b) -> float:
    p = _vals(a)
    q = _vals(b)
    if p.size != q.size:
        raise ParameterError(f"length mismatch: {p.size} vs {q.size}")
    if p.size < 1:
        raise ParameterError("jsd needs length >= 1")
    if (p < 0).any() or (q < 0).any():
        raise ParameterError("jsd inputs must be non-negative")
    ps = p.sum()
    qs = q.sum()
    if ps <= 0 or qs <= 0:
        raise UndefinedDistributionError("zero-sum series has no distribution")
    p = p / ps
    q = q / qs
    m = 0.5 * (p + q)
    return 0.5 * _kl_discrete(p, m) + 0.5 * _kl_discrete(q, m)


def _kl_discrete(p: np.ndarray, m: np.ndarray) -> float:
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / m[nz])))


def _jsd_with_fallback(
    ref: np.ndarray,
    cand: np.ndarray,
    ref_n: NormalizedSeries,
    cand_n: NormalizedSeries,
) -> float:
    if not ref_n.degenerate and not cand_n.degenerate:
        return jsd(ref_n, cand_n)
    ref_sum = int(ref.sum())
    cand_sum = int(cand.sum())
    if ref_sum == 0 and cand_sum == 0:
        return 0.0
    if ref_sum == 0 or cand_sum == 0:
        return math.log(2)
    return jsd(ref, cand)


def score_report(reference: ByteSeries, candidates: Sequence[ByteSeries]) -> Report:
    if len({(c.start_time, c.step, len(c)) for c in candidates}) != 1:
        raise ParameterError("candidates must be one or more series sharing start_time, step and length")
    ref = align(reference, candidates[0])[0]
    raw = np.stack([align(reference, c)[1].values for c in candidates])
    ref_n = min_max_normalize(ref)
    cands_n = [min_max_normalize(row) for row in raw]
    dtws = _dtw_rows(ref_n.values, np.stack([c.values for c in cands_n]))

    entries = []  # per candidate: cc, dtw, kld, jsd, flags
    for cand, cand_n, dtw in zip(raw, cands_n, dtws):
        flags: set[str] = set()
        if ref_n.degenerate:
            flags.add(FLAG_REF_DEGENERATE)
        if cand_n.degenerate:
            flags.add(FLAG_CAND_DEGENERATE)

        cc: float | None = None
        kld: float | None = None
        if len(ref_n) < 2 or ref_n.degenerate or cand_n.degenerate:
            flags.add(FLAG_CC_UNDEFINED)
            flags.add(FLAG_KLD_UNDEFINED)
        else:
            cc = pearson_cc(ref_n, cand_n)
            kld = gaussian_kld(ref_n, cand_n)

        jsd_val = _jsd_with_fallback(ref.values, cand, ref_n, cand_n)
        entries.append((cc, float(dtw), kld, jsd_val, frozenset(flags)))
    *measures, flags = zip(*entries)
    columns = {m: np.array([math.nan if v is None else v for v in cells], dtype=np.float64)
               for m, cells in zip(MEASURES, measures)}
    return Report([None] * len(entries), columns, list(flags))
