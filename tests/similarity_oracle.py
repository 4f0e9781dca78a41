"""Per-candidate similarity measures, the reference for tests.

Each candidate is min-max scaled into its own ``NormalizedSeries`` and
scored by four scalar functions, and DTW also has a plain-list dynamic
program.  ``simobs.similarity`` scores the whole device set as row
arrays, one kernel per measure, and is checked against these
functions bit for bit: the ``repr`` of every measure and the flags.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from simobs.errors import ParameterError, SimobsError
from simobs.similarity import (
    FLAG_CAND_DEGENERATE,
    FLAG_CC_UNDEFINED,
    FLAG_KLD_UNDEFINED,
    FLAG_REF_DEGENERATE,
    SimilarityVector,
)
from simobs.timeseries import ByteSeries, align

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


def similarity_vectors(reference: ByteSeries, candidates: Sequence[ByteSeries]) -> list[SimilarityVector]:
    if len({(c.start_time, c.step, len(c)) for c in candidates}) != 1:
        raise ParameterError("candidates must be one or more series sharing start_time, step and length")
    first = candidates[0]
    ref, aligned = align(reference, first)
    skip = round((aligned.start_time - first.start_time) / first.step)
    raw = np.stack([c.values for c in candidates])[:, skip : skip + len(aligned)]
    ref_n = min_max_normalize(ref)
    cands_n = [min_max_normalize(row) for row in raw]
    dtws = _dtw_rows(ref_n.values, np.stack([c.values for c in cands_n]))

    vectors = []
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
        vectors.append(SimilarityVector(cc, float(dtw), kld, jsd_val, frozenset(flags)))
    return vectors
