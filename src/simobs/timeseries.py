"""Byte-count time series: binning, min-max scaling, CSV round trip.

Every device trace and every reference recording is reduced to the same
shape here: a vector of byte counts over fixed wall-clock steps.  All
types are immutable values and all operations are pure functions.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TextIO

import numpy as np

from .errors import FormatError, ParameterError

DEFAULT_STEP = 1.0
DEFAULT_WINDOW = 60
# The longest window: 48 days of 1 s steps, 32 MiB per int64 series.
MAX_STEPS = 2**22


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


# Timestamped byte counts (packets, video samples, ...), one record each.
EVENT_DTYPE = np.dtype([("timestamp", "f8"), ("byte_count", "i8")])

MICROSECOND = 10**6  # ticks per second of a microsecond capture
# Every window lies within (-TICK_BOUND, TICK_BOUND) ticks, and no
# source gives a tick past it: a nanosecond pcap's last is 4.3e18, an
# MP4's 1.2e16, and ``microseconds`` holds a time at 2**42 s (139 000
# years) on the bound.  So a tick less a window's first tick stays
# inside int64, as 2 * TICK_BOUND < 2**63.
TICK_BOUND = 2**42 * MICROSECOND


def check_window(start, step, n_steps: int = 1) -> None:
    """The one rule for a window of ``n_steps`` steps from ``start``, else
    ParameterError.  ``start`` and ``step`` are floats or Fractions."""
    if not (-math.inf < start < math.inf and 0 < step < math.inf and 1 <= n_steps <= MAX_STEPS):
        raise ParameterError(f"a window needs a finite start, 0 < step < inf and 1 <= n_steps <= {MAX_STEPS}, "
                             f"got start {start}, step {step}, n_steps {n_steps}")


def exact(value) -> Fraction:
    """A start or step as an exact rational.  A float means the decimal
    it prints, as the CSVs write it and the CLI reads it: 0.1 is 1/10."""
    return value if isinstance(value, Fraction) else Fraction(repr(float(value)))


def microseconds(times) -> np.ndarray:
    """Each time in seconds as int64 whole microseconds, as a capture
    records it: the whole seconds, then the fraction rounded half to
    even.  A time past 2**42 s either way is held there, and so is a
    NaN, outside every window."""
    times = np.clip(np.nan_to_num(times, nan=2.0**42), -2.0**42, 2.0**42)
    seconds = times.astype(np.int64)
    return seconds * MICROSECOND + np.round((times - seconds) * MICROSECOND).astype(np.int64)


@functools.lru_cache(maxsize=64, typed=True)
def _tick_window(rate: int, start, step, n_steps: int) -> tuple[int, int, int, int, int]:
    """The integer constants ``step_index`` bins a window with, in ticks
    of ``1 / rate`` s.  ``base`` is the whole tick at or before the
    start, and ``base + reach`` a tick past the window's end.  ``scale``
    is the least factor that makes the start's excess over ``base``
    (``offset``) and the step (``width``) whole numbers of ticks once
    multiplied by it.  ParameterError if the window's ticks do not fit
    ``TICK_BOUND``.  Typed, as a float and a ``Fraction`` of one value
    are equal keys that ``exact`` reads apart."""
    first, width = exact(start) * rate, exact(step) * rate
    scale = math.lcm(first.denominator, width.denominator)
    base = math.floor(first)
    reach = math.ceil(first + n_steps * width) - base + 1
    if not (-TICK_BOUND < base and base + reach < TICK_BOUND):
        raise ParameterError(f"a window of {n_steps} steps of {float(step)} s from {float(start)} s "
                             f"does not fit int64 ticks of 1/{rate} s")
    return base, reach, int((first - base) * scale), int(width * scale), scale


def step_index(ticks, rate: int, start, step, n_steps: int) -> tuple[np.ndarray, np.ndarray]:
    """Each time's step, ``floor((ticks / rate - start) / step)``, exactly,
    and whether the window holds it; the step of a time outside the
    window is only known to be outside ``[0, n_steps)``.  ``ticks`` are
    int64 ticks of ``1 / rate`` s; ``start`` and ``step`` are what
    ``exact`` reads.  The arithmetic is int64 when the scaled window fits
    it, and Python integers when it does not (a float step of 1/30 reads
    as 17 decimals)."""
    base, reach, offset, width, scale = _tick_window(rate, start, step, n_steps)
    since = np.minimum(np.maximum(np.asarray(ticks, dtype=np.int64) - base, -1), reach)  # a tick outside at most
    if reach * scale < TICK_BOUND:
        index = (since * scale - offset) // width
    else:  # held to [-1, n_steps], as a step past the window may not fit int64
        index = np.clip((since.astype(object) * scale - offset) // width, -1, n_steps).astype(np.int64)
    return index, (index >= 0) & (index < n_steps)


def add_to_steps(bins: np.ndarray, rows, index: np.ndarray, sizes) -> None:
    """Add each of ``sizes`` to ``bins[rows, index]`` in place: the one
    scatter every binning ends in.  ``bins`` is a C-contiguous int64
    array whose last axis is the steps (``rows`` is 0 for a single row),
    and ``index`` holds in-window steps from ``step_index``.  Integer
    sums do not depend on order, so every bin is exact."""
    np.add.at(bins.reshape(-1), rows * bins.shape[-1] + index, sizes)


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


def bin_events(events: np.ndarray, start_time, step, n_steps: int) -> ByteSeries:
    """Sum event byte counts into ``n_steps`` half-open bins.

    ``events`` is an ``EVENT_DTYPE`` array; each timestamp is taken in
    whole ``microseconds``, as a capture records it.  Events outside
    ``[start_time, start_time + n_steps*step)`` are dropped; input order
    does not matter.
    """
    check_window(start_time, step, n_steps)
    sizes = events["byte_count"]
    if (sizes < 0).any():
        raise ParameterError(f"byte_count must be >= 0, got {sizes.min()}")
    idx, keep = step_index(microseconds(events["timestamp"]), MICROSECOND, start_time, step, n_steps)
    bins = np.zeros(n_steps, dtype=np.int64)
    add_to_steps(bins, 0, idx[keep], sizes[keep])
    return ByteSeries(float(start_time), float(step), bins)


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
