"""The four series-similarity measures and their combined evaluation.

A reference recording and a candidate device trace are aligned,
min-max scaled, and compared with Pearson correlation, dynamic time
warping, a Gaussian-moment Kullback-Leibler divergence, and
Jensen-Shannon divergence.  Degenerate inputs surface as flags on the
combined vector instead of exceptions.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    FormatError,
    ParameterError,
    UndefinedCorrelationError,
    UndefinedDistributionError,
    read_json,
)
from .timeseries import ByteSeries, NormalizedSeries, align, min_max_normalize

MEASURES = ("cc", "dtw", "kld", "jsd")

# Flags carried by a SimilarityVector.
FLAG_CC_UNDEFINED = "cc_undefined"
FLAG_KLD_UNDEFINED = "kld_undefined"
FLAG_REF_DEGENERATE = "ref_degenerate"
FLAG_CAND_DEGENERATE = "cand_degenerate"

_SIGMA_FLOOR = 1e-9


def _vals(series) -> np.ndarray:
    if isinstance(series, (NormalizedSeries, ByteSeries)):
        return np.asarray(series.values, dtype=np.float64)
    return np.asarray(series, dtype=np.float64)


@dataclass(frozen=True)
class SimilarityVector:
    """All four measures for one reference/candidate pair.

    ``cc`` and ``kld`` are None when undefined (constant input); the
    reason is in ``flags``.  ``dtw`` and ``jsd`` are always defined.
    """

    cc: float | None
    dtw: float
    kld: float | None
    jsd: float
    flags: frozenset[str] = frozenset()

    def measure(self, name: str) -> float | None:
        if name not in MEASURES:
            raise ParameterError(f"unknown measure {name!r}")
        return getattr(self, name)


def pearson_cc(a, b) -> float:
    """Sample Pearson correlation, clamped into [-1, 1]."""
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
    """Dynamic time warping distance with |x - y| local cost.

    Full dynamic program over {match, insert, delete} moves, no band
    constraint, not normalized by path length.
    """
    x = _vals(a).tolist()
    y = _vals(b).tolist()
    if not x or not y:
        raise ParameterError("dtw_distance needs non-empty series")
    # Plain-list DP: for one pair of series up to the default window it is
    # as fast as the row recurrence below, and much faster when short.
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
    # DTW of x against each row of ys, one DP row at a time.  Within a row,
    # D[i,j] = c[j] + min(M[j], D[i,j-1]) unrolls to a prefix-min over
    # M[k] - csum[k-1], so each row is vector work instead of a Python scan.
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
    """Mean and population standard deviation of a series."""
    v = _vals(series)
    if v.size < 2:
        raise ParameterError("moment fit needs length >= 2")
    return float(v.mean()), float(v.std())


def gaussian_kld(a, b) -> float:
    """KL divergence between Gaussians fit to each series' moments.

    Direction is KL(a || b).  Standard deviations are floored at 1e-9,
    so constant inputs yield a huge-but-finite divergence; callers that
    need to distinguish that case check degeneracy themselves.
    """
    mu_a, sd_a = gaussian_moments(a)
    mu_b, sd_b = gaussian_moments(b)
    sd_a = max(sd_a, _SIGMA_FLOOR)
    sd_b = max(sd_b, _SIGMA_FLOOR)
    return math.log(sd_b / sd_a) + (sd_a**2 + (mu_a - mu_b) ** 2) / (2 * sd_b**2) - 0.5


def jsd(a, b) -> float:
    """Jensen-Shannon divergence (natural log) between two series.

    Each series is scaled by its own sum into a probability vector;
    result lies in [0, ln 2].
    """
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
    # 0 * log 0 := 0; m[i] > 0 wherever p[i] > 0 by construction of the mix.
    nz = p > 0
    return float(np.sum(p[nz] * np.log(p[nz] / m[nz])))


def similarity_vectors(reference: ByteSeries, candidates: Sequence[ByteSeries]) -> list[SimilarityVector]:
    """Align, normalize, and compare a reference with each candidate.

    The candidates are one device set: one or more series sharing
    ``start_time``, ``step`` and length (else ParameterError), so one
    alignment with the reference serves them all.  A missing overlap
    raises AlignmentError; per-measure degeneracies become flags.
    """
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

        # JSD falls back to the raw bins when normalization flattened a side
        # to all zeros; an idle-then-burst device still gets an informative
        # value that way.  A side with zero raw bytes is maximally dissimilar.
        jsd_val = _jsd_with_fallback(ref.values, cand, ref_n, cand_n)
        vectors.append(SimilarityVector(cc, float(dtw), kld, jsd_val, frozenset(flags)))
    return vectors


def similarity_vector(reference: ByteSeries, candidate: ByteSeries) -> SimilarityVector:
    """similarity_vectors of a single candidate."""
    return similarity_vectors(reference, [candidate])[0]


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


# ---------------------------------------------------------------------------
# Similarity report serialization: one row per candidate device.
# ---------------------------------------------------------------------------

def _fmt(value: float | None) -> str:
    return "" if value is None else repr(float(value))


def write_report_csv(rows: Iterable[tuple[str, SimilarityVector]], out: TextIO) -> None:
    out.write("device_id,cc,dtw,kld,jsd,flags\n")
    for device_id, sv in rows:
        flags = ";".join(sorted(sv.flags))
        out.write(f"{device_id},{_fmt(sv.cc)},{_fmt(sv.dtw)},{_fmt(sv.kld)},{_fmt(sv.jsd)},{flags}\n")


def vector_to_row(sv: SimilarityVector) -> dict:
    """The JSON object form of a vector: the four measures and sorted flags."""
    return {"cc": sv.cc, "dtw": sv.dtw, "kld": sv.kld, "jsd": sv.jsd, "flags": sorted(sv.flags)}


def vector_from_row(row: Mapping) -> SimilarityVector:
    """Inverse of vector_to_row; other keys in ``row`` are ignored.  A
    measure that is not finite (JSON NaN or Infinity) raises FormatError."""
    cc, kld = row["cc"], row["kld"]
    sv = SimilarityVector(
        cc=None if cc is None else float(cc),
        dtw=float(row["dtw"]),
        kld=None if kld is None else float(kld),
        jsd=float(row["jsd"]),
        flags=frozenset(row.get("flags", [])),
    )
    for name in MEASURES:
        if not math.isfinite(sv.measure(name) or 0.0):
            raise FormatError(f"measure {name} is {sv.measure(name)!r}, not a finite number or null")
    return sv


def read_rows_json(inp: TextIO, parse_row: Callable[[Mapping], object]) -> list:
    """``parse_row`` of each object in a JSON list, read by read_json."""
    return read_json(inp, lambda rows: [parse_row(row) for row in rows], "similarity")


def write_report_json(rows: Iterable[tuple[str, SimilarityVector]], out: TextIO) -> None:
    payload = [{"device_id": device_id, **vector_to_row(sv)} for device_id, sv in rows]
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def _report_row(row: Mapping) -> tuple[str, SimilarityVector]:
    device_id = row["device_id"]
    if not isinstance(device_id, str):
        raise FormatError(f"device_id must be a string, got {device_id!r}")
    return device_id, vector_from_row(row)


def read_report_json(inp: TextIO) -> list[tuple[str, SimilarityVector]]:
    return read_rows_json(inp, _report_row)
