"""A minimal MP4 writer for the reference recording.

Writes ``ftyp`` and ``moov/trak/mdia`` with ``mdhd``, ``hdlr`` (vide)
and ``minf/stbl`` holding ``stts`` and ``stsz``: the sample tables the
byte-rate feature reads.  There is no media data; only sample sizes and
timing matter.  Written independently of the program and of its tests.
"""
from __future__ import annotations

import struct


def _box(kind: bytes, body: bytes) -> bytes:
    return struct.pack(">I", 8 + len(body)) + kind + body


def _full_box(kind: bytes, body: bytes) -> bytes:
    return _box(kind, bytes(4) + body)  # version 0, flags 0


def frame_sizes(step_bytes, fps: int) -> list[int]:
    """Split each step's bytes over ``fps`` frames; each step's frames
    sum to that step's bytes exactly."""
    sizes = []
    for total in step_bytes:
        base, extra = divmod(int(total), fps)
        sizes.extend(base + (1 if j < extra else 0) for j in range(fps))
    return sizes


def reference_mp4(step_bytes, fps: int = 30) -> bytes:
    """One video track at ``fps`` frames per second (1 s steps)."""
    sizes = frame_sizes(step_bytes, fps)
    n = len(sizes)
    ftyp = _box(b"ftyp", b"isom" + struct.pack(">I", 512) + b"isomiso2")
    # creation, modification, timescale (one tick per frame), duration, language, quality
    mdhd = _full_box(b"mdhd", struct.pack(">IIIIHH", 0, 0, fps, n, 0x55C4, 0))
    hdlr = _full_box(b"hdlr", bytes(4) + b"vide" + bytes(12) + b"reference\x00")
    stts = _full_box(b"stts", struct.pack(">III", 1, n, 1))
    stsz = _full_box(b"stsz", struct.pack(">II", 0, n) + struct.pack(f">{n}I", *sizes))
    minf = _box(b"minf", _box(b"stbl", stts + stsz))
    moov = _box(b"moov", _box(b"trak", _box(b"mdia", mdhd + hdlr + minf)))
    return ftyp + moov
