"""Byte-count time series: binning, min-max scaling, window alignment.

Every device trace and every reference recording is reduced to the same
shape here: a vector of byte counts over fixed wall-clock steps.  All
types are immutable values and all operations are pure functions.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence, TextIO

import numpy as np

from .errors import AlignmentError, FormatError, ParameterError

DEFAULT_STEP = 1.0
DEFAULT_WINDOW = 60
# The longest window: 48 days of 1 s steps, 32 MiB per int64 series.
MAX_STEPS = 2**22


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# Timestamped byte counts (packets, video samples, ...), one record each.
EVENT_DTYPE = np.dtype([("timestamp", "f8"), ("byte_count", "i8")])


def check_window(start: float, step: float, n_steps: int = 1) -> None:
    """The one rule for a window of ``n_steps`` steps from ``start``, else ParameterError."""
    if not (math.isfinite(start) and 0 < step < math.inf and 1 <= n_steps <= MAX_STEPS):
        raise ParameterError(f"a window needs a finite start, 0 < step < inf and 1 <= n_steps <= {MAX_STEPS}, "
                             f"got start {start}, step {step}, n_steps {n_steps}")


def step_index(times, start: float, step: float, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Each time's step, ``floor((t - start) / step)``, and whether the window holds it."""
    index = np.floor((np.asarray(times) - start) / step)
    return index, (index >= 0) & (index < n_steps)


def add_to_steps(bins: np.ndarray, rows, index: np.ndarray, sizes) -> None:
    """Add each of ``sizes`` to ``bins[rows, index]`` in place: the one
    scatter every binning ends in.  ``bins`` is a C-contiguous int64
    array whose last axis is the steps (``rows`` is 0 for a single row),
    and ``index`` holds in-window steps from ``step_index``.  Integer
    sums do not depend on order, so every bin is exact."""
    np.add.at(bins.reshape(-1), rows * bins.shape[-1] + index.astype(np.int64), sizes)


def event_array(timestamps, byte_counts) -> np.ndarray:
    """Read-only events from parallel timestamp and byte-count sequences."""
    events = np.empty(len(timestamps), dtype=EVENT_DTYPE)
    events["timestamp"] = timestamps
    events["byte_count"] = byte_counts
    return _frozen(events)


@dataclass(frozen=True, eq=False)
class ByteSeries:
    """Byte counts per fixed time step over an aligned wall-clock window.

    ``values[i]`` covers ``[start_time + i*step, start_time + (i+1)*step)``.
    """

    start_time: float
    step: float
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.int64)
        if vals.ndim != 1:
            raise ParameterError("values must be a 1-d sequence")
        check_window(self.start_time, self.step, vals.size)
        if (vals < 0).any():
            raise ParameterError("byte counts must be non-negative")
        object.__setattr__(self, "values", _frozen(vals))

    def __eq__(self, other) -> bool:
        if not isinstance(other, ByteSeries):
            return NotImplemented
        return (
            self.start_time == other.start_time
            and self.step == other.step
            and np.array_equal(self.values, other.values)
        )

    def __len__(self) -> int:
        return int(self.values.size)

    def __array__(self, dtype=None, copy=None) -> np.ndarray:
        # np.asarray(series) is its values, so dtw_distance takes a series.
        return np.array(self.values, dtype=dtype, copy=copy)

    @property
    def end_time(self) -> float:
        return self.start_time + len(self) * self.step


def bin_events(
    events: np.ndarray,
    start_time: float,
    step: float,
    n_steps: int,
) -> ByteSeries:
    """Sum event byte counts into ``n_steps`` half-open bins.

    ``events`` is an ``EVENT_DTYPE`` array.  Events outside
    ``[start_time, start_time + n_steps*step)`` are dropped; input order
    does not matter.
    """
    check_window(start_time, step, n_steps)
    sizes = events["byte_count"]
    if (sizes < 0).any():
        raise ParameterError(f"byte_count must be >= 0, got {sizes.min()}")
    idx, keep = step_index(events["timestamp"], start_time, step, n_steps)
    bins = np.zeros(n_steps, dtype=np.int64)
    add_to_steps(bins, 0, idx[keep], sizes[keep])
    return ByteSeries(start_time, step, bins)


def min_max_normalize(series: ByteSeries | Sequence[float] | np.ndarray) -> tuple[np.ndarray, bool | np.ndarray]:
    """Rescale a series, or each row of a 2-d array, into [0, 1].

    Returns the float64 scaled values and the degenerate flag: a constant
    series or row becomes all zeros and is marked degenerate.  The flag
    is a bool for a series and a bool array with one entry per row for
    a 2-d array.
    """
    vals = np.asarray(series, dtype=np.float64)
    if vals.ndim not in (1, 2) or vals.size < 1:
        raise ParameterError("series must be a non-empty 1-d sequence or 2-d array of rows")
    lo = vals.min(axis=-1, keepdims=True)
    hi = vals.max(axis=-1, keepdims=True)
    flat = hi == lo
    scaled = np.divide(vals - lo, hi - lo, out=np.zeros_like(vals), where=~flat)
    return scaled, flat[:, 0] if vals.ndim == 2 else bool(flat[0])


def device_set(series: Sequence[ByteSeries]) -> ByteSeries:
    """The first of a device set: series sharing start_time, step and length."""
    if len({(s.start_time, s.step, len(s)) for s in series}) != 1:
        raise ParameterError("a device set needs one or more series sharing start_time, step and length")
    return series[0]


def align(a: ByteSeries, b: ByteSeries) -> tuple[ByteSeries, ByteSeries]:
    """Truncate both series to their overlapping window, in whole steps.

    The later series' step grid wins; sub-step skew between the two grids
    is ignored (irrelevant at the 1 s steps this pipeline runs on).
    """
    if a.step != b.step:
        raise ParameterError(f"step mismatch: {a.step} vs {b.step}")
    step = a.step
    a_is_later = a.start_time >= b.start_time
    later, earlier = (a, b) if a_is_later else (b, a)
    skip = round((later.start_time - earlier.start_time) / step)
    if skip >= len(earlier):
        raise AlignmentError(
            f"no overlap: [{earlier.start_time}, {earlier.end_time}) ends before "
            f"[{later.start_time}, {later.end_time}) begins"
        )
    n = min(len(later), len(earlier) - skip)
    later_out = ByteSeries(later.start_time, step, later.values[:n])
    earlier_out = ByteSeries(earlier.start_time + skip * step, step, earlier.values[skip : skip + n])
    return (later_out, earlier_out) if a_is_later else (earlier_out, later_out)


# ---------------------------------------------------------------------------
# CSV round trip: two preamble lines (start_time,step header + values), then
# one index,bytes row per step with exact integer bytes.
# ---------------------------------------------------------------------------

def write_series_csv(series: ByteSeries, out: TextIO) -> None:
    out.write("start_time,step\n")
    out.write(f"{series.start_time!r},{series.step!r}\n")
    out.write("index,bytes\n")
    for i, v in enumerate(series.values):
        out.write(f"{i},{int(v)}\n")


def read_series_csv(inp: TextIO) -> ByteSeries:
    try:
        lines = [ln.strip() for ln in inp if ln.strip()]
        if len(lines) < 4 or lines[0] != "start_time,step" or lines[2] != "index,bytes":
            raise FormatError("not a byte-series CSV (expected start_time,step / index,bytes headers)")
        start_s, step_s = lines[1].split(",")
        start_time, step = float(start_s), float(step_s)
        values = []
        for ln in lines[3:]:
            idx_s, bytes_s = ln.split(",")
            if int(idx_s) != len(values):
                raise FormatError(f"non-contiguous index {idx_s} in byte-series CSV")
            values.append(int(bytes_s))
        return ByteSeries(start_time, step, np.array(values, dtype=np.int64))
    except (ValueError, OverflowError) as exc:  # ParameterError included
        raise FormatError(f"malformed byte-series CSV: {exc}") from exc
