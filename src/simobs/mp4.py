"""ISO base-media (MP4) sample-table parsing for the reference recording.

Only what the byte-rate feature needs is read: per-track sample sizes
(stsz), decode deltas (stts), timescale (mdhd) and handler (hdlr).
Chunk offsets, codecs and presentation offsets are irrelevant here.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .errors import NoVideoTrackError, ParameterError, StructureError, TruncationError
from .timeseries import MAX_STEPS, ByteSeries, add_to_steps, check_window, exact, step_index

VIDEO_HANDLER = "vide"

# Parser sanity bound: refuse sample tables larger than any plausible
# recording before allocating for them (fuzzed counts are 32-bit).
MAX_SAMPLES = 50_000_000
# The same for the length of the media: a corrupt decode delta can claim
# centuries in a file of a few hundred bytes.  A month is longer than
# MAX_SAMPLES frames at 30 fps.
MAX_SECONDS = 31 * 24 * 3600


@dataclass(frozen=True, eq=False)
class TrackSampleTable:
    """Sample sizes and decode deltas of one track."""

    timescale: int
    sample_sizes: np.ndarray  # int64, one per sample
    sample_deltas: np.ndarray  # int64, shape (runs, 2): (count, delta_ticks)
    handler: str

    def __post_init__(self):
        if self.timescale <= 0:
            raise StructureError("track timescale must be > 0")
        total = int(self.sample_deltas[:, 0].sum())
        if total != self.sample_sizes.size:
            raise StructureError(
                f"stts delta count does not match stsz sample count ({total} vs {self.sample_sizes.size})"
            )

    @property
    def sample_count(self) -> int:
        return self.sample_sizes.size

    def decode_ticks(self) -> np.ndarray:
        """Per-sample decode times in ticks of ``1 / timescale`` s."""
        deltas = np.repeat(self.sample_deltas[:, 1], self.sample_deltas[:, 0])
        ticks = np.zeros(deltas.size, dtype=np.int64)
        ticks[1:] = np.cumsum(deltas[:-1])
        return ticks


def _boxes(data: bytes, start: int, end: int, depth: int = 0) -> Iterator[tuple[str, int, int]]:
    """Yield (type, body_start, body_end) for each box in data[start:end]."""
    if depth > 16:
        raise StructureError("box nesting deeper than 16 levels")
    offset = start
    while offset < end:
        if offset + 8 > end:
            raise TruncationError(f"box header truncated at byte {offset}", offset=offset)
        (size,) = struct.unpack_from(">I", data, offset)
        box_type = data[offset + 4 : offset + 8].decode("latin-1")
        body_start = offset + 8
        if size == 1:
            if offset + 16 > end:
                raise TruncationError(f"64-bit box size truncated at byte {offset}", offset=offset)
            (size,) = struct.unpack_from(">Q", data, offset + 8)
            if size < 16:
                raise StructureError(f"box {box_type!r} has impossible 64-bit size {size}")
            body_start = offset + 16
        elif size == 0:
            size = end - offset  # box runs to the end of its container
        elif size < 8:
            raise StructureError(f"box {box_type!r} has impossible size {size}")
        if offset + size > end:
            raise TruncationError(
                f"box {box_type!r} of size {size} at byte {offset} overruns container", offset=offset
            )
        yield box_type, body_start, offset + size
        offset += size


def _find(data: bytes, start: int, end: int, box_type: str, depth: int) -> tuple[int, int] | None:
    for name, body_start, body_end in _boxes(data, start, end, depth):
        if name == box_type:
            return body_start, body_end
    return None


def _require(data: bytes, start: int, end: int, box_type: str, depth: int) -> tuple[int, int]:
    found = _find(data, start, end, box_type, depth)
    if found is None:
        raise StructureError(f"required box {box_type!r} not found")
    return found


def _read_u32(data: bytes, offset: int, end: int, what: str) -> int:
    if offset + 4 > end:
        raise TruncationError(f"{what} truncated at byte {offset}", offset=offset)
    return struct.unpack_from(">I", data, offset)[0]


def parse_mp4(data: bytes) -> list[TrackSampleTable]:
    """Parse every track's sample table from the bytes of an MP4/MOV file."""
    data = bytes(data)

    moov_span = None
    for name, body_start, body_end in _boxes(data, 0, len(data)):
        if name == "moof":
            raise StructureError("fragmented MP4 (moof) is not supported")
        if name == "moov" and moov_span is None:
            moov_span = (body_start, body_end)
    if moov_span is None:
        raise StructureError("required box 'moov' not found")

    tables = []
    for name, trak_start, trak_end in _boxes(data, *moov_span, depth=1):
        if name != "trak":
            continue
        tables.append(_parse_trak(data, trak_start, trak_end))
    if not tables:
        raise StructureError("moov contains no 'trak' boxes")
    return tables


def _parse_trak(data: bytes, start: int, end: int) -> TrackSampleTable:
    mdia = _require(data, start, end, "mdia", depth=2)
    mdhd = _require(data, *mdia, "mdhd", depth=3)
    hdlr = _require(data, *mdia, "hdlr", depth=3)
    minf = _require(data, *mdia, "minf", depth=3)
    stbl = _require(data, *minf, "stbl", depth=4)
    stts = _require(data, *stbl, "stts", depth=5)
    stsz = _require(data, *stbl, "stsz", depth=5)

    timescale = _parse_mdhd(data, *mdhd)
    handler = _parse_hdlr(data, *hdlr)
    deltas = _parse_stts(data, *stts)
    total = int(deltas[:, 0].sum())
    if total > MAX_SAMPLES:
        raise StructureError(f"stts claims {total} samples, beyond the {MAX_SAMPLES} parser limit")
    sizes = _parse_stsz(data, *stsz, expected_count=total)
    return TrackSampleTable(timescale=timescale, sample_sizes=sizes, sample_deltas=deltas, handler=handler)


def _parse_mdhd(data: bytes, start: int, end: int) -> int:
    if start + 4 > end:
        raise TruncationError(f"mdhd header truncated at byte {start}", offset=start)
    version = data[start]
    # v0: 4+4 byte creation/modification times; v1: 8+8.
    ts_offset = start + 4 + (16 if version == 1 else 8)
    return _read_u32(data, ts_offset, end, "mdhd timescale")


def _parse_hdlr(data: bytes, start: int, end: int) -> str:
    if start + 12 > end:
        raise TruncationError(f"hdlr box truncated at byte {start}", offset=start)
    return data[start + 8 : start + 12].decode("latin-1")


def _parse_stts(data: bytes, start: int, end: int) -> np.ndarray:
    entry_count = _read_u32(data, start + 4, end, "stts entry count")
    needed = start + 8 + entry_count * 8
    if needed > end:
        raise TruncationError(f"stts claims {entry_count} entries but box ends early", offset=start)
    entries = np.frombuffer(data, ">u4", 2 * entry_count, start + 8)
    return entries.reshape(entry_count, 2).astype(np.int64)


def _parse_stsz(data: bytes, start: int, end: int, expected_count: int) -> np.ndarray:
    uniform_size = _read_u32(data, start + 4, end, "stsz sample size")
    sample_count = _read_u32(data, start + 8, end, "stsz sample count")
    if uniform_size != 0:
        if sample_count != expected_count:
            raise StructureError(
                f"stsz sample count {sample_count} does not match stts total {expected_count}"
            )
        return np.full(sample_count, uniform_size, dtype=np.int64)
    needed = start + 12 + sample_count * 4
    if needed > end:
        raise TruncationError(f"stsz claims {sample_count} entries but box ends early", offset=start)
    return np.frombuffer(data, ">u4", sample_count, start + 12).astype(np.int64)


def video_byte_series(tables: Sequence[TrackSampleTable], step: float | Fraction = 1.0) -> ByteSeries:
    """Bytes per time step of the first video track, media-relative.

    Each sample's bytes land in the step of its decode ticks, exactly
    (``timeseries.step_index``); the series starts at media time zero
    and runs through the last sample's step.
    """
    check_window(0.0, step)
    video = next((t for t in tables if t.handler == VIDEO_HANDLER), None)
    if video is None:
        raise NoVideoTrackError("no track with handler 'vide'")
    if video.sample_count == 0:
        raise StructureError("video track has no samples")
    ticks, rate = video.decode_ticks(), video.timescale
    last = int(ticks[-1])  # decode ticks never fall
    if last > MAX_SECONDS * rate:
        raise StructureError(f"video spans {last / rate:.0f} s, beyond the {MAX_SECONDS} s parser limit")
    n_steps = Fraction(last, rate) // exact(step) + 1  # through the last sample's step
    if n_steps > MAX_STEPS:
        raise ParameterError(f"step {float(step)} s is too small for a video of {last / rate:g} s "
                             f"(over {MAX_STEPS} steps)")
    index, _ = step_index(ticks, rate, 0.0, step, n_steps)
    bins = np.zeros(n_steps, dtype=np.int64)
    add_to_steps(bins, 0, index, video.sample_sizes)
    return ByteSeries(0.0, float(step), bins)
