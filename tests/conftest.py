"""Shared byte-level fixture builders, and similarity reports built
entry by entry.

These writers are deliberately independent of the package's own
serializers so that parser tests check against hand-assembled bytes,
not against the code under test.
"""
from __future__ import annotations

import dataclasses
import math
import struct

import numpy as np
import pytest


# ---------------------------------------------------------------------------
# pcap building
# ---------------------------------------------------------------------------

def pcap_header(magic: int = 0xA1B2C3D4, order: str = "<", network: int = 1) -> bytes:
    return struct.pack(order + "IHHiIII", magic, 2, 4, 0, 0, 65535, network)


def pcap_record(
    ts_sec: int,
    ts_frac: int,
    payload: bytes,
    orig_len: int | None = None,
    order: str = "<",
) -> bytes:
    orig = len(payload) if orig_len is None else orig_len
    return struct.pack(order + "IIII", ts_sec, ts_frac, len(payload), orig) + payload


def ethernet_frame(src_mac: str, dst_mac: str = "ff:ff:ff:ff:ff:ff", ethertype: int = 0x0800,
                   body: bytes = b"") -> bytes:
    dst = bytes.fromhex(dst_mac.replace(":", ""))
    src = bytes.fromhex(src_mac.replace(":", ""))
    return dst + src + struct.pack(">H", ethertype) + body


def ipv4_body(src_ip: str, dst_ip: str = "10.0.0.254", payload: bytes = b"") -> bytes:
    src = bytes(int(x) for x in src_ip.split("."))
    dst = bytes(int(x) for x in dst_ip.split("."))
    total = 20 + len(payload)
    return struct.pack(">BBHHHBBH4s4s", 0x45, 0, total, 0, 0, 64, 17, 0, src, dst) + payload


def radiotap_frame(dot11: bytes, rt_len: int = 24) -> bytes:
    header = struct.pack("<BBHI", 0, 0, rt_len, 0)
    return header + bytes(rt_len - len(header)) + dot11


def dot11_data_frame(transmitter_mac: str, receiver_mac: str = "02:aa:aa:aa:aa:aa",
                     body: bytes = b"") -> bytes:
    ta = bytes.fromhex(transmitter_mac.replace(":", ""))
    ra = bytes.fromhex(receiver_mac.replace(":", ""))
    # frame control: type=data, subtype 0, to-DS
    return bytes([0x08, 0x01]) + bytes(2) + ra + ta + ra + bytes(2) + body


def dot11_ack_frame(receiver_mac: str = "02:aa:aa:aa:aa:aa") -> bytes:
    ra = bytes.fromhex(receiver_mac.replace(":", ""))
    # frame control: type=control (01), subtype=ACK (1101)
    return bytes([0xD4, 0x00]) + bytes(2) + ra


def dot11_beacon_frame(transmitter_mac: str) -> bytes:
    ta = bytes.fromhex(transmitter_mac.replace(":", ""))
    broadcast = b"\xff" * 6
    # frame control: type=management, subtype=beacon (1000)
    return bytes([0x80, 0x00]) + bytes(2) + broadcast + ta + ta + bytes(2)


# ---------------------------------------------------------------------------
# MP4 building
# ---------------------------------------------------------------------------

def box(box_type: str, body: bytes, force_64bit: bool = False) -> bytes:
    if force_64bit:
        return struct.pack(">I", 1) + box_type.encode() + struct.pack(">Q", 16 + len(body)) + body
    return struct.pack(">I", 8 + len(body)) + box_type.encode() + body


def mdhd_box(timescale: int, version: int = 0) -> bytes:
    if version == 0:
        body = struct.pack(">BBHIIIIHH", 0, 0, 0, 0, 0, timescale, 0, 0x55C4, 0)
    else:
        body = struct.pack(">BBHQQIQHH", 1, 0, 0, 0, 0, timescale, 0, 0x55C4, 0)
    return box("mdhd", body)


def hdlr_box(handler: str) -> bytes:
    body = struct.pack(">I", 0) + bytes(4) + handler.encode() + bytes(12) + b"name\x00"
    return box("hdlr", body)


def stts_box(entries: list[tuple[int, int]]) -> bytes:
    body = struct.pack(">II", 0, len(entries))
    for count, delta in entries:
        body += struct.pack(">II", count, delta)
    return box("stts", body)


def stsz_box(sizes: list[int] | None = None, uniform: tuple[int, int] | None = None) -> bytes:
    if uniform is not None:
        size, count = uniform
        return box("stsz", struct.pack(">III", 0, size, count))
    assert sizes is not None
    body = struct.pack(">III", 0, 0, len(sizes))
    for s in sizes:
        body += struct.pack(">I", s)
    return box("stsz", body)


def trak_box(
    timescale: int,
    handler: str,
    sizes: list[int] | None = None,
    deltas: list[tuple[int, int]] | None = None,
    uniform: tuple[int, int] | None = None,
    mdhd_version: int = 0,
) -> bytes:
    stbl = box("stbl", stts_box(deltas or []) + stsz_box(sizes, uniform))
    minf = box("minf", stbl)
    mdia = box("mdia", mdhd_box(timescale, mdhd_version) + hdlr_box(handler) + minf)
    return box("trak", mdia)


def mp4_file(*traks: bytes, with_ftyp: bool = True) -> bytes:
    out = b""
    if with_ftyp:
        out += box("ftyp", b"isom\x00\x00\x02\x00isomiso2")
    out += box("moov", b"".join(traks))
    return out


@pytest.fixture
def simple_video_mp4() -> bytes:
    """One video track: timescale 1000, sizes [10, 20, 30], deltas 3x500."""
    return mp4_file(trak_box(1000, "vide", sizes=[10, 20, 30], deltas=[(3, 500)]))


# ---------------------------------------------------------------------------
# Similarity reports, built and read entry by entry
# ---------------------------------------------------------------------------

def report_of(rows: list[dict]):
    """A Report with one entry per row dict: each measure's value (None
    where undefined) and optionally its ``flags`` and ``device_id``.  Rows
    that hold a ``label`` (and optionally ``tags``) make a labeled report."""
    from simobs.similarity import MEASURES, Report

    columns = {m: np.array([math.nan if r[m] is None else r[m] for r in rows], dtype=np.float64) for m in MEASURES}
    report = Report([r.get("device_id") for r in rows], columns, [frozenset(r.get("flags", ())) for r in rows])
    if not any("label" in r for r in rows):
        return report
    return labeled(report, [r["label"] for r in rows], [list(r.get("tags", ())) for r in rows])


def labeled(report, labels, tags=None):
    """``report`` with a label per entry, and ``tags`` (default none)."""
    tags = [[] for _ in labels] if tags is None else [list(t) for t in tags]
    return dataclasses.replace(report, labels=np.array(labels, dtype=bool), tags=tags)


def stack_reports(reports):
    """The entries of ``reports``, in order, as one Report."""
    from simobs.similarity import Report

    def joined(name):
        parts = [getattr(r, name) for r in reports]
        return None if parts[0] is None else [cell for part in parts for cell in part]

    columns = {m: np.concatenate([r.columns[m] for r in reports]) for m in reports[0].columns}
    labels = None if reports[0].labels is None else np.concatenate([r.labels for r in reports])
    return Report(joined("device_ids"), columns, joined("flags"), labels, joined("tags"))


def report_entries(report) -> list[dict]:
    """Each entry of ``report`` as a dict: its device id, each measure (None
    where undefined), its flags and, for a labeled report, its label and tags."""
    cells = {m: [None if math.isnan(v) else v for v in values.tolist()] for m, values in report.columns.items()}
    entries = [dict(zip(cells, row)) for row in zip(*cells.values())]
    for i, entry in enumerate(entries):
        entry.update(device_id=report.device_ids[i], flags=report.flags[i])
        if report.labels is not None:
            entry.update(label=bool(report.labels[i]), tags=list(report.tags[i]))
    return entries


def report_reprs(report) -> list[tuple]:
    """Each entry's four measures by repr (None where undefined) and its
    flags: repr, not ==, so that -0.0 does not stand for 0.0."""
    return [(*(repr(e[m]) for m in ("cc", "dtw", "kld", "jsd")), e["flags"]) for e in report_entries(report)]
