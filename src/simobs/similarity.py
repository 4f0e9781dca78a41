"""The four series-similarity measures and the report that holds them.

A reference recording and a candidate device trace are aligned,
min-max scaled, and compared with Pearson correlation, dynamic time
warping, a Gaussian-moment Kullback-Leibler divergence, and
Jensen-Shannon divergence.  Degenerate inputs surface as flags on the
report's entries instead of exceptions.
"""
from __future__ import annotations

import functools
import io
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence, TextIO

import numpy as np

from .errors import AlignmentError, FormatError, ParameterError, json_bool, json_number, json_strings, json_text, read_json
from .timeseries import ByteSeries, device_set, exact, min_max_normalize

MEASURES = ("cc", "dtw", "kld", "jsd")


def measure_names(names: Sequence[str]) -> tuple[str, ...]:
    """``names`` as a tuple if they are one or more of MEASURES, none named
    twice, else ParameterError: the one rule for every list of measures."""
    names = tuple(names)
    if not names or not set(names) <= set(MEASURES) or len(set(names)) < len(names):
        raise ParameterError(f"measures must be one or more of {','.join(MEASURES)}, none named twice; "
                             f"got {list(names)}")
    return names


# Flags carried by a report entry.
FLAG_CC_UNDEFINED = "cc_undefined"
FLAG_KLD_UNDEFINED = "kld_undefined"
FLAG_REF_DEGENERATE = "ref_degenerate"
FLAG_CAND_DEGENERATE = "cand_degenerate"

_SIGMA_FLOOR = 1e-9

# {measure: values}: what a decision reads, one float64 entry per device,
# NaN exactly where the measure is undefined (cc and kld only).
Columns = dict[str, np.ndarray]


# One kernel per measure: each scores a reference row x against every row
# of a (D, T) stack ys and returns D values.  score_rows, and dtw_distance
# as a one-row call, share them.

def _cc_rows(x: np.ndarray, ys: np.ndarray) -> np.ndarray:
    # Per-row dot products go through matmul on (D, 1, T) stacks, which
    # rounds each row exactly as a 1-D ``@`` does.  A side with zero
    # variance gives 0 / 0; score_rows marks such rows undefined.
    xd = x - x.mean()
    yd = ys - ys.mean(axis=1, keepdims=True)
    rows = yd[:, None, :]
    sx = np.sqrt(xd @ xd)
    sy = np.sqrt(rows @ yd[:, :, None])[:, 0, 0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.clip((rows @ xd[:, None])[:, 0, 0] / (sx * sy), -1.0, 1.0)


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

    ``columns`` maps each requested measure to its values, NaN where it
    is undefined: cc and kld are undefined where min-max scaling
    flattened either side, dtw and jsd never.  ``ref_degenerate`` and
    ``cand_degenerate`` say which side was flattened.
    """

    columns: Columns
    ref_degenerate: bool
    cand_degenerate: np.ndarray


def aligned_rows(reference: ByteSeries, candidates: Sequence[ByteSeries]) -> np.ndarray:
    """The reference's and each candidate's bins over their shared window,
    as one ``(1 + D, T)`` int64 array: the reference, then each candidate.

    The candidates are one device set: one or more series sharing
    ``start_time``, ``step`` and length (else ParameterError), so one
    offset serves them all.  The offset is the candidates' start less
    the reference's, over the step, all three read as ``exact`` reads
    them, rounded half to even: the steps the reference skips, or, when
    negative, the steps the candidates skip.  So the later series' grid
    wins, sub-step skew is ignored, and shifting both starts by the same
    whole seconds changes nothing.  Unequal steps raise ParameterError,
    and a window that shares no step AlignmentError.
    """
    first = device_set(candidates)
    if reference.step != first.step:
        raise ParameterError(f"step mismatch: {reference.step} vs {first.step}")
    skip = round((exact(first.start_time) - exact(reference.start_time)) / exact(first.step))
    ref_from, cands_from = max(skip, 0), max(-skip, 0)
    n = min(len(reference) - ref_from, len(first) - cands_from)
    if n < 1:
        earlier, later = (reference, first) if skip > 0 else (first, reference)
        raise AlignmentError(f"no overlap: [{earlier.start_time}, {earlier.end_time}) ends before "
                             f"[{later.start_time}, {later.end_time}) begins")
    cands = np.stack([c.values for c in candidates])[:, cands_from : cands_from + n]
    return np.concatenate((reference.values[None, ref_from : ref_from + n], cands))


def score_rows(raw: np.ndarray, measures: Sequence[str]) -> MeasureColumns:
    """Normalize the rows ``aligned_rows`` stacks and score each candidate
    row against the reference row on ``measures`` only, each measure
    scoring the whole set at once.  Any leading columns of those rows,
    such as the first t steps, are rows of the same kind."""
    measures = measure_names(measures)
    scaled, degenerate = min_max_normalize(raw)
    x, ys = scaled[0], scaled[1:]
    flattened = degenerate[0] | degenerate[1:]

    columns = {}
    for name in measures:
        if name in ("cc", "kld"):  # undefined where scaling flattened a side
            kernel = _cc_rows if name == "cc" else _kld_rows
            columns[name] = np.where(flattened, np.nan, kernel(x, ys))
        elif name == "dtw":
            columns[name] = _dtw_rows(x, ys)
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
            columns[name] = jsds
    return MeasureColumns(columns, bool(degenerate[0]), degenerate[1:])




@dataclass(frozen=True, eq=False)
class Report:
    """The similarity of each device of a set to one reference, as columns.

    Entry i of every column is device i.  ``columns`` maps each of the
    four measures to its values, as score_rows returns them (NaN where
    undefined: cc and kld only); ``flags`` holds each entry's flags.  A
    labeled samples file adds ``labels``, a bool array, and ``tags``,
    each entry's tags in file order; a samples row may have no device
    id, and its entry in ``device_ids`` is None.
    """

    device_ids: list
    columns: Columns
    flags: list[frozenset[str]]
    labels: np.ndarray | None = None
    tags: list[list[str]] | None = None

    def __len__(self) -> int:
        return len(self.device_ids)

    def take(self, index) -> Report:
        """The entries at ``index``, a sequence or array of positions, in its order."""
        index = np.asarray(index, dtype=np.intp)

        def pick(cells):
            return None if cells is None else [cells[i] for i in index.tolist()]

        return Report(pick(self.device_ids), {m: v[index] for m, v in self.columns.items()},
                      pick(self.flags), None if self.labels is None else self.labels[index], pick(self.tags))


def score_report(reference: ByteSeries, candidates: Sequence[ByteSeries], device_ids: Sequence | None = None) -> Report:
    """All four measures of a device set, one entry per candidate, with
    ``device_ids`` (default None each); a flattened side is a flag, and
    leaves cc and kld undefined."""
    scored = score_rows(aligned_rows(reference, candidates), MEASURES)
    flags = []
    for cand_degenerate in scored.cand_degenerate.tolist():
        sides = {FLAG_REF_DEGENERATE} if scored.ref_degenerate else set()
        if cand_degenerate:
            sides.add(FLAG_CAND_DEGENERATE)
        flags.append(frozenset(sides | {FLAG_CC_UNDEFINED, FLAG_KLD_UNDEFINED} if sides else sides))
    ids = [None] * len(candidates) if device_ids is None else list(device_ids)
    return Report(ids, scored.columns, flags)


def similarity_vector(reference: ByteSeries, candidate: ByteSeries) -> Report:
    """score_report of a single candidate.  A one-row view kept because
    perfbench/layers.py wraps it by name."""
    return score_report(reference, [candidate])


# ---------------------------------------------------------------------------
# Report serialization: CSV, JSON, and samples JSON (the JSON report plus
# each entry's label and tags).  Every codec reads and writes whole columns.
# ---------------------------------------------------------------------------

def _cells(values: np.ndarray) -> list:
    """A measure column as JSON cells: None where undefined, else a float."""
    return [None if math.isnan(v) else v for v in values.tolist()]


def _measure_column(name: str, cells: list) -> np.ndarray:
    """Inverse of _cells: a cell that is not a finite JSON number (cc and
    kld may be None) raises FormatError."""
    return np.array([math.nan if cell is None and name in ("cc", "kld") else json_number(cell, f"measure {name}")
                     for cell in cells], dtype=np.float64)


def write_report_csv(report: Report, out: TextIO) -> None:
    cells = [["" if c is None else repr(c) for c in _cells(report.columns[m])] for m in MEASURES]
    flags = [";".join(sorted(f)) for f in report.flags]
    out.write("device_id,cc,dtw,kld,jsd,flags\n")
    out.write("".join(",".join(row) + "\n" for row in zip(report.device_ids, *cells, flags)))


def write_report_json(report: Report, out: TextIO) -> None:
    """One JSON object per entry: its device id (unless None), measures and
    sorted flags, and, for a labeled report, its label and tags."""
    columns = {m: _cells(report.columns[m]) for m in MEASURES}
    columns["flags"] = [sorted(f) for f in report.flags]
    if report.labels is not None:
        columns["label"] = report.labels.tolist()
        columns["tags"] = [list(t) for t in report.tags]
    payload = [dict(zip(columns, row)) for row in zip(*columns.values())]
    for row, device_id in zip(payload, report.device_ids):
        if device_id is not None:
            row["device_id"] = device_id
    out.write(json_text(payload))


def _report_from_rows(rows: list, labeled: bool) -> Report:
    """The Report of a JSON list of report rows, or of samples rows when
    ``labeled``.  Other keys are ignored.  A device id that is present
    must be a string, and only a samples row may leave it out; flags and
    tags are lists of strings and a label is true or false, else
    FormatError."""
    ids = []
    for i, row in enumerate(rows):
        if not labeled and isinstance(row, dict) and "device_id" not in row:
            raise FormatError(f"similarity report row {i} (counting from 0) has no device_id; only a samples "
                              "file, as train, grid-search, portability and agreement read, may leave it out")
        present = not labeled or "device_id" in row
        ids.append(row["device_id"] if present else None)
        if present and not isinstance(ids[-1], str):
            raise FormatError(f"device_id must be a string, got {ids[-1]!r}")
    columns = {m: _measure_column(m, [row[m] for row in rows]) for m in MEASURES}
    flags = [frozenset(json_strings(row.get("flags", []), "flags")) for row in rows]
    if not labeled:
        return Report(ids, columns, flags)
    labels = np.array([json_bool(row["label"], "label") for row in rows], dtype=bool)
    return Report(ids, columns, flags, labels, [json_strings(row.get("tags", []), "tags") for row in rows])


def read_samples(inp: TextIO) -> Report:
    """A labeled samples file, as ``analyze --manifest`` writes it."""
    return read_json(inp, functools.partial(_report_from_rows, labeled=True), "similarity")


def read_report(inp: TextIO) -> Report:
    """A similarity report in either format analyze writes: CSV when the
    first non-blank line is write_report_csv's header, else JSON.  As in
    every CSV reader, blank lines are skipped; a cell is read as a
    number, an empty one as undefined, and flags split on ';'.  A report
    with no device row is malformed."""
    try:
        text = inp.read()
    except ValueError as exc:  # bytes that do not decode
        raise FormatError(f"malformed similarity report ({exc})") from exc
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    header = ["device_id", *MEASURES, "flags"]
    if not lines or lines[0] != ",".join(header):
        report = read_json(io.StringIO(text), functools.partial(_report_from_rows, labeled=False), "similarity")
    else:
        rows = [line.split(",") for line in lines[1:]]
        for line, cells in zip(lines[1:], rows):
            if len(cells) != len(header):
                raise FormatError(f"similarity CSV row {line!r} does not have {len(header)} cells")
        ids, *measures, flags = map(list, zip(*rows)) if rows else [[]] * len(header)
        try:
            cells = [[float(c) if c else None for c in column] for column in measures]
        except ValueError as exc:
            raise FormatError(f"malformed similarity CSV ({exc})") from exc
        columns = {m: _measure_column(m, column) for m, column in zip(MEASURES, cells)}
        report = Report(ids, columns, [frozenset(f.split(";")) if f else frozenset() for f in flags])
    if not len(report):
        raise FormatError("a similarity report needs at least one device row")
    return report
