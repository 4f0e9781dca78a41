"""Per-record pcap reader, frame attribution and per-frame pcap writer,
the reference for tests.

One ``struct`` read and one Python decision per frame: slow, but each
rule is a plain ``if``, so the columnar reader and attribution in
``simobs.pcap`` are checked against it frame for frame (streams, frame
counts, drop counters, and the type, message and offset of every
error).  A record's time is the exact ``Fraction`` its seconds and
fraction fields write, and a frame's step is the floor of exact
``Fraction`` arithmetic on it.
"""
from __future__ import annotations

import ipaddress
import math
import struct
from fractions import Fraction
from io import BytesIO
from typing import BinaryIO, Iterable, Iterator, NamedTuple

import numpy as np

from simobs.errors import (
    FormatError,
    ParameterError,
    TruncationError,
    UnsupportedLinkTypeError,
)
from simobs.pcap import (
    ETHERTYPE_IPV4,
    ETHERTYPE_IPV6,
    GLOBAL_HEADER_LEN,
    MAGIC_MICROS,
    MAGIC_NANOS,
    MAX_CAPTURED_LEN,
    PCAPNG_MAGIC,
    RECORD_HEADER_LEN,
    DeviceStream,
    LinkType,
)
from simobs.timeseries import ByteSeries


class MalformedFrameError(Exception):
    """A frame is too short for the header fields it should carry."""


class PacketRecord(NamedTuple):
    """One captured frame as stored in the pcap file (a tuple, since a
    capture holds hundreds of thousands of them)."""

    timestamp: Fraction  # seconds, exactly
    on_wire_len: int
    link_type: LinkType
    payload: bytes


def read_pcap(source: BinaryIO | bytes) -> Iterator[PacketRecord]:
    """Yield PacketRecords from a classic pcap byte stream, in file order."""
    stream = BytesIO(source) if isinstance(source, (bytes, bytearray)) else source
    head = stream.read(GLOBAL_HEADER_LEN)
    if len(head) < 4:
        raise FormatError("not a pcap file: shorter than a magic number")
    (magic_le,) = struct.unpack("<I", head[:4])
    (magic_be,) = struct.unpack(">I", head[:4])
    if magic_le == PCAPNG_MAGIC:
        raise FormatError("pcapng input is not supported; convert to classic pcap first")
    if magic_le in (MAGIC_MICROS, MAGIC_NANOS):
        order, magic = "<", magic_le
    elif magic_be in (MAGIC_MICROS, MAGIC_NANOS):
        order, magic = ">", magic_be
    else:
        raise FormatError(f"unknown pcap magic 0x{magic_le:08x}")
    if len(head) < GLOBAL_HEADER_LEN:
        raise TruncationError("pcap global header truncated", offset=0)
    rate = 10**6 if magic == MAGIC_MICROS else 10**9
    _vmaj, _vmin, _zone, _sigfigs, _snaplen, network = struct.unpack(order + "HHiIII", head[4:])
    try:
        link_type = LinkType(network)
    except ValueError:
        raise UnsupportedLinkTypeError(network) from None

    record_header = struct.Struct(order + "IIII")
    offset = GLOBAL_HEADER_LEN
    while True:
        header = stream.read(RECORD_HEADER_LEN)
        if not header:
            return
        if len(header) < RECORD_HEADER_LEN:
            raise TruncationError(f"record header truncated at byte {offset}", offset=offset)
        ts_sec, ts_frac, incl_len, orig_len = record_header.unpack(header)
        if incl_len > orig_len:
            raise FormatError(
                f"record at byte {offset} claims captured length {incl_len} > on-wire length {orig_len}"
            )
        if incl_len > MAX_CAPTURED_LEN:
            raise FormatError(
                f"record at byte {offset} claims captured length {incl_len} > {MAX_CAPTURED_LEN}, "
                "the longest libpcap writes"
            )
        payload = stream.read(incl_len)
        if len(payload) < incl_len:
            raise TruncationError(f"record payload truncated at byte {offset}", offset=offset)
        yield PacketRecord(ts_sec + Fraction(ts_frac, rate), orig_len, link_type, payload)
        offset += RECORD_HEADER_LEN + incl_len


def records_of(batches: Iterable) -> list[PacketRecord]:
    """The frames of ``simobs.pcap`` FrameBatches as PacketRecords."""
    return [
        PacketRecord(Fraction(ticks, batch.rate), on_wire_len, batch.link_type,
                     batch.data[offset : offset + captured_len])
        for batch in batches
        for ticks, on_wire_len, captured_len, offset in zip(
            batch.ticks.tolist(),
            batch.on_wire_len.tolist(),
            batch.captured_len.tolist(),
            batch.offset.tolist(),
        )
    ]


def transmitter_of(
    record: PacketRecord,
    group_by: str = "mac",
    include_non_data: bool = False,
) -> str | None:
    """The MAC or IP text of a frame's transmitter, or None if unattributable.

    For radiotap captures only 802.11 data frames are attributed unless
    ``include_non_data`` is set; ACK/CTS control frames carry no
    transmitter address and always map to None.  ``group_by="ip"`` reads
    the source IP of Ethernet IPv4/IPv6 frames and skips everything else.
    """
    _check_group_by(group_by)
    key, _ = _attribute(record, group_by, include_non_data)
    return None if key is None else key[1]


def _check_group_by(group_by: str) -> None:
    if group_by not in ("mac", "ip"):
        raise ParameterError(f"group_by must be 'mac' or 'ip', got {group_by!r}")


def _attribute(
    record: PacketRecord, group_by: str, include_non_data: bool
) -> tuple[tuple[str, str] | None, int]:
    """The ``(kind, value)`` of a frame's transmitter (or None) and the
    bytes it sent: its on-wire length minus the radiotap pseudo-header,
    which is capture metadata and never crossed the air."""
    payload = record.payload
    if record.link_type is LinkType.ETHERNET:
        if group_by == "ip":
            return _ethernet_source_ip(payload), record.on_wire_len
        if len(payload) < 12:
            raise MalformedFrameError("ethernet frame shorter than its address fields")
        return ("mac", payload[6:12].hex(":")), record.on_wire_len

    if len(payload) < 4:
        raise MalformedFrameError("frame too short for a radiotap header")
    (rt_len,) = struct.unpack_from("<H", payload, 2)
    if rt_len < 8 or rt_len > len(payload):
        raise MalformedFrameError(f"radiotap header length {rt_len} exceeds frame")
    size = record.on_wire_len - rt_len
    # IP grouping is not attempted on 802.11: frame bodies are typically
    # encrypted, which is the whole point of the monitor-mode path.
    if group_by == "ip":
        return None, size
    if len(payload) < rt_len + 2:
        raise MalformedFrameError("802.11 header shorter than frame control")
    fc0 = payload[rt_len]
    ftype = (fc0 >> 2) & 0b11
    subtype = fc0 >> 4
    if ftype == 1 and subtype in (12, 13):  # CTS / ACK: no Address 2
        return None, size
    if ftype != 2 and not include_non_data:
        return None, size
    if len(payload) < rt_len + 16:
        raise MalformedFrameError("802.11 frame shorter than its Address 2 field")
    return ("mac", payload[rt_len + 10 : rt_len + 16].hex(":")), size


def _ethernet_source_ip(payload: bytes) -> tuple[str, str] | None:
    if len(payload) < 14:
        raise MalformedFrameError("ethernet frame shorter than its header")
    (ethertype,) = struct.unpack_from(">H", payload, 12)
    if ethertype == ETHERTYPE_IPV4:
        if len(payload) < 14 + 20:
            raise MalformedFrameError("IPv4 header truncated")
        return "ipv4", str(ipaddress.IPv4Address(payload[26:30]))
    if ethertype == ETHERTYPE_IPV6:
        if len(payload) < 14 + 40:
            raise MalformedFrameError("IPv6 header truncated")
        return "ipv6", str(ipaddress.IPv6Address(payload[22:38]))
    return None  # non-IP ethertype: skip


def counted_bytes(record: PacketRecord, group_by: str = "mac", include_non_data: bool = False) -> int:
    """The bytes a frame contributes to the conservation identity: its
    on-wire length when malformed, else the size attribution gives it."""
    try:
        key, size = _attribute(record, group_by, include_non_data)
    except MalformedFrameError:
        return record.on_wire_len
    return size if key is None else max(size, 0)


def extract_device_series(
    records: Iterable[PacketRecord],
    start: float | None,
    step: float,
    n_steps: int,
    group_by: str = "mac",
    include_non_data: bool = False,
    counters: dict | None = None,
) -> list[DeviceStream]:
    """Group frames by transmitter and bin each device's bytes.

    The window is ``n_steps`` steps of ``step`` seconds from ``start``;
    ``None`` starts it at the first record's timestamp, whether or not
    that frame is attributed.  A float start or step is the decimal it
    prints, and a frame's step is ``floor((timestamp - start) / step)``
    in exact fractions.  A frame counts its on-wire bytes minus the
    radiotap pseudo-header.  Malformed frames are skipped.  Devices come
    back with their MAC or IP text as id, in ``(kind, text)`` order:
    ipv4 before ipv6 before mac, each in text order.

    Pass a dict as ``counters`` to receive drop accounting: frames and
    bytes that were malformed, unattributable, or outside the window.
    Binned bytes plus dropped bytes add up to the counted bytes of all
    input records.
    """
    if step <= 0 or n_steps < 1:
        raise ParameterError(f"window needs step > 0 and n_steps >= 1, got step {step}, n_steps {n_steps}")
    _check_group_by(group_by)
    exact_step = _exact(step)
    exact_start = None if start is None else _exact(start)
    drops = {"malformed": 0, "unattributed": 0, "out_of_window": 0, "dropped_bytes": 0}
    per_device: dict[tuple[str, str], list[tuple[int, int]]] = {}
    for record in records:
        if exact_start is None:
            exact_start = record.timestamp
        try:
            key, size = _attribute(record, group_by, include_non_data)
        except MalformedFrameError:
            drops["malformed"] += 1
            drops["dropped_bytes"] += record.on_wire_len
            continue
        if key is None:
            drops["unattributed"] += 1
            drops["dropped_bytes"] += size
            continue
        index = math.floor((record.timestamp - exact_start) / exact_step)
        per_device.setdefault(key, []).append((index, max(size, 0)))

    streams = []
    for key in sorted(per_device):
        values = np.zeros(n_steps, dtype=np.int64)
        kept = 0
        for index, size in per_device[key]:
            if 0 <= index < n_steps:
                values[index] += size
                kept += 1
            else:
                drops["out_of_window"] += 1
                drops["dropped_bytes"] += size
        if kept:
            series = ByteSeries(float(exact_start), float(exact_step), values)
            streams.append(DeviceStream(device_id=key[1], series=series, frame_count=kept))
    if counters is not None:
        counters.update(drops)
    return streams


def _exact(value) -> Fraction:
    """A start or step as the decimal a float of it prints: 0.1 is 1/10."""
    return value if isinstance(value, Fraction) else Fraction(repr(float(value)))


def write_pcap(frames, link: str = "ethernet") -> bytes:
    """The capture ``simobs.simulate.write_pcap`` must write from
    ``(device id, event array)`` pairs, built one ``struct``-packed record
    and frame at a time."""
    link_type = {"ethernet": LinkType.ETHERNET, "radiotap": LinkType.IEEE80211_RADIOTAP}[link]
    gateway = bytes.fromhex("0200000000fe")
    radiotap = struct.pack("<BBHI", 0, 0, 8, 0)
    records = sorted((
        (float(ts), str(device_id), dev, int(size))
        for dev, (device_id, events) in enumerate(frames) for ts, size in events.tolist()
    ), key=lambda record: record[:2])  # stable: equal (time, id) keeps device, then event order
    out = struct.pack("<IHHiIII", MAGIC_MICROS, 2, 4, 0, 0, 65535, int(link_type))
    for ts, device_id, dev, size in records:
        src = bytes.fromhex(device_id.replace(":", ""))
        if link_type is LinkType.ETHERNET:
            # 10.0.0.1 to 10.0.0.253, then on from 10.0.1.0: never the gateway's 10.0.0.254
            host = dev + 1 if dev < 253 else dev + 3
            ip = struct.pack(">BBHHHBBH4s4s", 0x45, 0, size - 14, 0, 0, 64, 17, 0,
                             (10 << 24 | host).to_bytes(4, "big"), bytes([10, 0, 0, 254]))
            frame = gateway + src + struct.pack(">H", ETHERTYPE_IPV4) + ip + bytes(size - 34)
        else:
            dot11 = bytes([0x08, 0x01, 0, 0]) + gateway + src + gateway + bytes(2)
            frame = radiotap + dot11 + bytes(size - len(dot11))
        sec = int(ts)
        usec = round((ts - sec) * 1e6)
        if usec == 1_000_000:
            sec, usec = sec + 1, 0
        out += struct.pack("<IIII", sec, usec, len(frame), len(frame)) + frame
    return out
