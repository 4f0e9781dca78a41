"""The four series-similarity measures and their combined evaluation.

A reference recording and a candidate device trace are aligned,
min-max scaled, and compared with Pearson correlation, dynamic time
warping, a Gaussian-moment Kullback-Leibler divergence, and
Jensen-Shannon divergence.  Degenerate inputs surface as flags on the
combined vector instead of exceptions.
"""
from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import FormatError, ParameterError, json_number, json_strings, json_text, read_json
from .timeseries import ByteSeries, align, device_set, min_max_normalize

MEASURES = ("cc", "dtw", "kld", "jsd")

# Flags carried by a SimilarityVector.
FLAG_CC_UNDEFINED = "cc_undefined"
FLAG_KLD_UNDEFINED = "kld_undefined"
FLAG_REF_DEGENERATE = "ref_degenerate"
FLAG_CAND_DEGENERATE = "cand_degenerate"

_SIGMA_FLOOR = 1e-9


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


# One kernel per measure: each scores a reference row x against every row
# of a (D, T) stack ys and returns D values.  score_rows, and dtw_distance
# as a one-row call, share them.

def _cc_rows(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # Per-row dot products go through matmul on (D, 1, T) stacks, which
    # rounds each row exactly as a 1-D ``@`` does.  NaN marks a row where
    # either side has zero variance.
    xd = x - x.mean()
    yd = ys - ys.mean(axis=1, keepdims=True)
    rows = yd[:, None, :]
    sx = np.sqrt(xd @ xd)
    sy = np.sqrt(rows @ yd[:, :, None])[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        cc = np.clip((rows @ xd[:, None])[:, 0, 0] / (sx * sy), -1.0, 1.0)
    return np.where((sx == 0.0) | (sy == 0.0), np.nan, cc)


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


def _kld_rows(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # Moments come from row-wise mean and std.  The closed form then runs
    # on Python floats: math.log and float ** 2 round through libm, and
    # numpy's SIMD log and squaring differ from them in the last bit.
    mu_a, sd_a = float(x.mean()), max(float(x.std()), _SIGMA_FLOOR)
    sd_bs = np.maximum(ys.std(axis=1), _SIGMA_FLOOR)
    return np.array([
        math.log(sd_b / sd_a) + (sd_a**2 + (mu_a - mu_b) ** 2) / (2 * sd_b**2) - 0.5
        for mu_b, sd_b in zip(ys.mean(axis=1).tolist(), sd_bs.tolist())
    ])


def _jsd_rows(ps: np.ndarray, qs: np.ndarray) -> np.ndarray:
    # Row i of ``ps`` against row i of ``qs``; every row needs a positive
    # sum.  0 * log 0 := 0, so each half sums only a row's positive terms,
    # and sums them as one 1-D run: a sum over the whole row with zeros in
    # their place rounds differently.
    p = ps / ps.sum(axis=1, keepdims=True)
    q = qs / qs.sum(axis=1, keepdims=True)
    m = 0.5 * (p + q)
    halves = []
    for r in (p, q):
        nz = r > 0
        terms = r[nz] * np.log(r[nz] / m[nz])
        halves.append(np.array([t.sum() for t in np.split(terms, np.cumsum(nz.sum(axis=1))[:-1])]))
    return 0.5 * halves[0] + 0.5 * halves[1]


def dtw_distance(a, b) -> float:
    """Dynamic time warping distance with |x - y| local cost.

    Full dynamic program over {match, insert, delete} moves, no band
    constraint, not normalized by path length.
    """
    x = np.asarray(a, dtype=np.float64)
    y = np.asarray(b, dtype=np.float64)
    if x.size < 1 or y.size < 1:
        raise ParameterError("dtw_distance needs non-empty series")
    return float(_dtw_rows(x, y[None])[0])


class MeasureColumns(NamedTuple):
    """Measures of one device set, one entry per candidate.

    ``columns`` maps each requested measure to its values and the mask of
    candidates where it is undefined, with NaN there: cc and kld are
    undefined where min-max scaling flattened either side, dtw and jsd
    never.  ``ref_degenerate`` and ``cand_degenerate`` say which side
    was flattened.
    """

    columns: dict[str, tuple[np.ndarray, np.ndarray]]
    ref_degenerate: bool
    cand_degenerate: np.ndarray


def aligned_rows(reference: ByteSeries, candidates: Sequence[ByteSeries]) -> np.ndarray:
    """The reference's and each candidate's bins over their shared window,
    as one ``(1 + D, T)`` int64 array: the reference, then each candidate.

    The candidates are one device set: one or more series sharing
    ``start_time``, ``step`` and length (else ParameterError), so one
    alignment with the reference serves them all.  A missing overlap
    raises AlignmentError.
    """
    first = device_set(candidates)
    ref, aligned = align(reference, first)
    skip = round((aligned.start_time - first.start_time) / first.step)
    cands = np.stack([c.values for c in candidates])[:, skip : skip + len(aligned)]
    return np.concatenate((ref.values[None], cands))


def score_rows(raw: np.ndarray, measures: Sequence[str]) -> MeasureColumns:
    """Normalize the rows ``aligned_rows`` stacks and score each candidate
    row against the reference row on ``measures`` only, each measure
    scoring the whole set at once.  Any leading columns of those rows,
    such as the first t steps, are rows of the same kind."""
    if unknown := set(measures) - set(MEASURES):
        raise ParameterError(f"unknown measures {sorted(unknown)}")
    scaled, degenerate = min_max_normalize(raw)
    x, ys = scaled[0], scaled[1:]
    flattened = degenerate[0] | degenerate[1:]
    never = np.zeros(len(ys), dtype=bool)

    columns = {}
    for name in measures:
        if name == "cc":
            columns[name] = (np.where(flattened, np.nan, _cc_rows(x, ys)), flattened)
        elif name == "kld":
            columns[name] = (np.where(flattened, np.nan, _kld_rows(x, ys)), flattened)
        elif name == "dtw":
            columns[name] = (_dtw_rows(x, ys), never)
        else:
            # JSD falls back to the raw bins when normalization flattened
            # a side to all zeros; an idle-then-burst device still gets an
            # informative value that way.  A side with zero raw bytes is
            # maximally dissimilar, and two such sides are identical.
            empty = raw.sum(axis=1) == 0
            scored = ~(empty[0] | empty[1:])
            jsds = np.where(empty[0] & empty[1:], 0.0, math.log(2))
            jsds[scored] = _jsd_rows(
                np.where(flattened[:, None], raw[0], x)[scored], np.where(flattened[:, None], raw[1:], ys)[scored]
            )
            columns[name] = (jsds, never)
    return MeasureColumns(columns, bool(degenerate[0]), degenerate[1:])


def similarity_vectors(reference: ByteSeries, candidates: Sequence[ByteSeries]) -> list[SimilarityVector]:
    """All four measures of a device set, one vector per candidate; an
    undefined measure is None and a flattened side is a flag."""
    scored = score_rows(aligned_rows(reference, candidates), MEASURES)
    cells = [
        [None if undefined else value for value, undefined in zip(values.tolist(), mask.tolist())]
        for values, mask in scored.columns.values()
    ]
    vectors = []
    for (cc, dtw, kld, jsd_val), cand_degenerate in zip(zip(*cells), scored.cand_degenerate.tolist()):
        flags: set[str] = set()
        if scored.ref_degenerate:
            flags.add(FLAG_REF_DEGENERATE)
        if cand_degenerate:
            flags.add(FLAG_CAND_DEGENERATE)
        if flags:  # a flattened side leaves cc and kld undefined
            flags |= {FLAG_CC_UNDEFINED, FLAG_KLD_UNDEFINED}
        vectors.append(SimilarityVector(cc, dtw, kld, jsd_val, frozenset(flags)))
    return vectors


def similarity_vector(reference: ByteSeries, candidate: ByteSeries) -> SimilarityVector:
    """similarity_vectors of a single candidate."""
    return similarity_vectors(reference, [candidate])[0]


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
    measure that is not a finite JSON number (cc and kld may be null), or
    flags that are not a list of strings, raise FormatError."""
    def measure(name: str) -> float | None:
        value = row[name]
        return None if value is None and name in ("cc", "kld") else json_number(value, f"measure {name}")

    return SimilarityVector(
        cc=measure("cc"),
        dtw=measure("dtw"),
        kld=measure("kld"),
        jsd=measure("jsd"),
        flags=frozenset(json_strings(row.get("flags", []), "flags")),
    )


def read_rows_json(inp: TextIO, parse_row: Callable[[Mapping], object]) -> list:
    """``parse_row`` of each object in a JSON list, read by read_json."""
    return read_json(inp, lambda rows: [parse_row(row) for row in rows], "similarity")


def write_report_json(rows: Iterable[tuple[str, SimilarityVector]], out: TextIO) -> None:
    payload = [{"device_id": device_id, **vector_to_row(sv)} for device_id, sv in rows]
    out.write(json_text(payload))


def _report_row(row: Mapping) -> tuple[str, SimilarityVector]:
    device_id = row["device_id"]
    if not isinstance(device_id, str):
        raise FormatError(f"device_id must be a string, got {device_id!r}")
    return device_id, vector_from_row(row)


def read_report(inp: TextIO) -> list[tuple[str, SimilarityVector]]:
    """A similarity report in either format analyze writes: CSV when the
    first line is write_report_csv's header, else JSON.  CSV cells are
    read as numbers, an empty one as null, and flags split on ';', then
    the rows go through the JSON rows' codec.  A report with no device
    row is malformed."""
    try:
        text = inp.read()
    except ValueError as exc:  # bytes that do not decode
        raise FormatError(f"malformed similarity report ({exc})") from exc
    lines = text.splitlines()
    header = ["device_id", *MEASURES, "flags"]
    if not lines or lines[0] != ",".join(header):
        rows = read_rows_json(io.StringIO(text), _report_row)
    else:
        rows = []
        try:
            for line in lines[1:]:
                cells = line.split(",")
                if len(cells) != len(header):
                    raise FormatError(f"similarity CSV row {line!r} does not have {len(header)} cells")
                row = dict(zip(header, cells))
                measures = {name: float(row[name]) if row[name] else None for name in MEASURES}
                rows.append(_report_row({**row, **measures, "flags": row["flags"].split(";") if row["flags"] else []}))
        except ValueError as exc:
            raise FormatError(f"malformed similarity CSV ({exc})") from exc
    if not rows:
        raise FormatError("a similarity report needs at least one device row")
    return rows
