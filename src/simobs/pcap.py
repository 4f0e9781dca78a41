"""Classic pcap parsing and per-device byte series extraction.

Offline .pcap files only (both magics, both byte orders, link types 1
and 127).  Frames are read in batches of columns over the capture's
bytes: a mapped file, a bytes object, or the joined reads of a stream.
The walk reads record lengths through native views when the capture's
byte order is the host's.  Each frame is attributed to its transmitting
device (source MAC for Ethernet, Address 2 of 802.11 data frames behind
radiotap) by gathering the bytes its rules read, and each batch is
binned as it arrives into one row of steps per device, so extraction
holds devices x steps plus one batch, not anything per frame.
"""
from __future__ import annotations

import io
import ipaddress
import mmap
import os
import stat
import struct
from dataclasses import dataclass
from enum import IntEnum
from fractions import Fraction
from typing import BinaryIO, Callable, Iterable, Iterator, NamedTuple, Sequence, TextIO

import numpy as np

from .errors import (
    FormatError,
    ParameterError,
    TruncationError,
    UnsupportedLinkTypeError,
)
# bin_events is not called here; perfbench/layers.py wraps pcap.bin_events.
from .timeseries import ByteSeries, add_to_steps, bin_events, check_window, device_set, step_index

MAGIC_MICROS = 0xA1B2C3D4
MAGIC_NANOS = 0xA1B23C4D
PCAPNG_MAGIC = 0x0A0D0D0A

GLOBAL_HEADER_LEN = 24
RECORD_HEADER_LEN = 16
# libpcap's MAXIMUM_SNAPLEN: no Ethernet or radiotap record is longer,
# and refusing longer claims keeps a corrupt length from making one read
# allocate gigabytes for a short file.
MAX_CAPTURED_LEN = 262_144
# Reads joined into one FrameBatch: larger batches spread the fixed cost
# of each batch's array calls over more frames.
BATCH_READS = 4

ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_IPV6 = 0x86DD


class LinkType(IntEnum):
    ETHERNET = 1
    IEEE80211_RADIOTAP = 127


class FrameBatch(NamedTuple):
    """Consecutive frames of one capture, as columns over the bytes they
    were read from.  Frame ``i``'s payload is
    ``data[offset[i] : offset[i] + captured_len[i]]``.

    ``data`` is a shared, read-only buffer: the read-only map of a
    capture file or the bytes given to ``read_pcap``, shared by every
    batch of the capture, or the joined reads of a stream."""

    link_type: LinkType
    rate: int  # ticks per second: 10**6 or 10**9
    ticks: np.ndarray  # i8, the record's seconds * rate + its fraction
    on_wire_len: np.ndarray  # i8
    captured_len: np.ndarray  # i8
    offset: np.ndarray  # i8, into data
    data: bytes | bytearray | mmap.mmap


@dataclass(frozen=True)
class DeviceStream:
    """The binned byte series of one device, with its frame count.
    ``device_id`` is the device's MAC or IP address as text."""

    device_id: str
    series: ByteSeries
    frame_count: int


def read_pcap(source: BinaryIO | bytes) -> Iterator[FrameBatch]:
    """Yield FrameBatches from a classic pcap, in file order.

    ``bytes`` are walked in place, and so is a regular file, mapped
    read-only from the stream's position (which is left as it was):
    every batch's ``data`` is the bytes or the whole map.  After each
    batch of a map, the whole pages walked past are released, so a
    streamed walk holds only the pages of the batch it is on; a batch a
    caller keeps stays valid, its pages read back from the file when it
    is used.  Any other stream (a pipe, ``BytesIO``) is read
    ``MAX_CAPTURED_LEN`` bytes at a time, and up to ``BATCH_READS``
    reads are joined, with the record carried over from the last batch,
    into the ``data`` of one batch.

    Either way batch ``j`` holds the records that end by capture offset
    ``GLOBAL_HEADER_LEN + (j + 1) * BATCH_READS * MAX_CAPTURED_LEN``, so
    a file, its bytes and a stream whose reads return all they are asked
    for yield the same batches and raise the same errors.  Error offsets
    count from the capture's first byte.  A mapped file truncated while
    it is read kills the process with SIGBUS.
    """
    if isinstance(source, (bytes, bytearray)):
        yield from _walk(source, 0, None)
        return
    mapped = _map(source)
    if mapped is None:
        yield from _read(source)
    else:
        yield from _walk(mapped, source.tell(), mapped.madvise)


def _map(stream: BinaryIO) -> mmap.mmap | None:
    """A read-only map of the regular file ``stream`` reads, or None.

    Only a file object of the ``io`` module's own (``open``'s) is
    mapped: a compressed file object's ``fileno`` is that of its
    compressed file.  An empty file cannot be mapped, and a platform
    without ``madvise`` could not release the pages walked.
    """
    if not isinstance(getattr(stream, "raw", stream), io.FileIO) or not hasattr(mmap.mmap, "madvise"):
        return None
    fd = stream.fileno()
    status = os.fstat(fd)
    if not stat.S_ISREG(status.st_mode) or not status.st_size:
        return None
    return mmap.mmap(fd, 0, access=mmap.ACCESS_READ)


class _Format(NamedTuple):
    """What a capture's global header says about its records."""

    link_type: LinkType
    incl_len: Callable  # unpack_from of a record header's incl_len field
    header_fields: np.dtype  # the four u4 fields of a record header
    rate: int  # ticks per second of the fraction field


def _global_header(head: bytes) -> _Format:
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
    _vmaj, _vmin, _zone, _sigfigs, _snaplen, network = struct.unpack(order + "HHiIII", head[4:])
    try:
        link_type = LinkType(network)
    except ValueError:
        raise UnsupportedLinkTypeError(network) from None
    return _Format(link_type, struct.Struct(order + "I").unpack_from, np.dtype(order + "u4"),
                   10**6 if magic == MAGIC_MICROS else 10**9)


def _walk(data, origin: int, release: Callable | None) -> Iterator[FrameBatch]:
    """The batches of the capture at ``data[origin:]``, walked in place.
    ``release`` (an mmap's ``madvise``) drops the pages walked past."""
    fmt = _global_header(data[origin : origin + GLOBAL_HEADER_LEN])
    end = len(data)
    pos = limit = origin + GLOBAL_HEADER_LEN
    released = 0
    while limit < end:
        limit = min(limit + BATCH_READS * MAX_CAPTURED_LEN, end)
        batch, pos = _batch(data, pos, limit, -origin, fmt)
        if batch is not None:
            yield batch
        if release is not None and pos - released >= mmap.PAGESIZE:
            page = pos - pos % mmap.PAGESIZE
            release(mmap.MADV_DONTNEED, released, page - released)
            released = page
    _check_end(end - pos, pos - origin)


def _read(stream: BinaryIO) -> Iterator[FrameBatch]:
    """The batches of a capture read from ``stream``."""
    head = b""
    while len(head) < GLOBAL_HEADER_LEN:  # a raw pipe or socket may return fewer bytes than asked
        chunk = stream.read(GLOBAL_HEADER_LEN - len(head))
        if not chunk:
            break
        head += chunk
    fmt = _global_header(head)
    data = b""
    base = GLOBAL_HEADER_LEN  # capture offset of data[0]
    reading = True
    while reading:
        chunks = [data]
        for _ in range(BATCH_READS):
            chunk = stream.read(MAX_CAPTURED_LEN)
            if not chunk:
                reading = False
                break
            chunks.append(chunk)
        if len(chunks) == 1:
            break
        data = b"".join(chunks)
        # Free the reads before the batch is yielded, not at the next
        # batch: held across the yield, they sit between the batches a
        # caller keeps in a list, and freeing that list then handed the
        # memory back to the system, to be faulted in on the next pass.
        del chunks
        batch, pos = _batch(data, 0, len(data), base, fmt)
        if batch is not None:
            yield batch
        data = data[pos:]
        base += pos
    _check_end(len(data), base)


def _batch(data, pos: int, limit: int, base: int, fmt: _Format) -> tuple[FrameBatch | None, int]:
    """The batch of the records from ``data[pos]`` that end by
    ``data[limit]``, or None if none does, and where the next batch
    starts.  ``base`` turns a position in ``data`` into a capture offset.

    The walk follows incl_len alone, from one incl_len field (8 bytes
    into its header) to the next.  Both lengths of every header it
    passed are checked as arrays before the batch is returned, so the
    first bad header in file order raises, as in a per-record check; a
    bad length only sends the walk on to ``limit``.
    """
    fields, at = _incl_len_fields(data, pos + 8, limit - 8, fmt)
    if not fields:
        return None, pos
    begin = np.fromiter(fields, np.int64, len(fields)) - 8
    ts_sec, ts_frac, incl, orig = _window(data, "V16")[begin].view(fmt.header_fields).reshape(-1, 4).T
    bad = np.flatnonzero((incl > orig) | (incl > MAX_CAPTURED_LEN))
    if bad.size:
        i = bad[0]
        raise _length_error(base + int(begin[i]), int(incl[i]), int(orig[i]))
    n = len(fields)
    pos = at - 8
    if pos > limit:  # the last record's payload ends past the limit
        n -= 1
        pos = fields[-1] - 8
    if not n:
        return None, pos
    batch = FrameBatch(
        fmt.link_type,
        fmt.rate,
        ts_sec[:n].astype(np.int64) * fmt.rate + ts_frac[:n],
        orig[:n].astype(np.int64),
        incl[:n].astype(np.int64),
        begin[:n] + RECORD_HEADER_LEN,
        data,
    )
    return batch, pos


def _incl_len_fields(data, at: int, last: int, fmt: _Format) -> tuple[list[int], int]:
    """The position of the incl_len field of each record whose header is
    whole, from the field at ``at`` to the last that starts by ``last``,
    and the position the walk stopped at.

    In the host's byte order the fields are read through four views of
    ``data`` as native u4, one per offset mod 4 (``unpack_from`` takes
    and releases a buffer export of ``data`` on every call); the views
    are released before this returns.
    """
    fields = []
    append = fields.append
    if not fmt.header_fields.isnative:
        incl_len = fmt.incl_len
        while at <= last:
            append(at)
            at += RECORD_HEADER_LEN + incl_len(data, at)[0]
        return fields, at
    whole = memoryview(data)
    n = max(len(whole) - 3, 0) & ~3  # bytes per view: as many whole u4 in each
    views = [whole[r : r + n].cast("I") for r in range(4)]
    try:
        while at <= last:
            append(at)
            at += RECORD_HEADER_LEN + views[at & 3][at >> 2]
    finally:
        for view in (*views, whole):
            view.release()
    return fields, at


def _check_end(rest: int, offset: int) -> None:
    """Raise if the capture ends ``rest`` bytes into a record that starts
    at capture offset ``offset``."""
    if rest >= RECORD_HEADER_LEN:
        raise TruncationError(f"record payload truncated at byte {offset}", offset=offset)
    if rest:
        raise TruncationError(f"record header truncated at byte {offset}", offset=offset)


def _length_error(offset: int, incl_len: int, orig_len: int) -> FormatError:
    if incl_len > orig_len:
        return FormatError(
            f"record at byte {offset} claims captured length {incl_len} > on-wire length {orig_len}"
        )
    return FormatError(
        f"record at byte {offset} claims captured length {incl_len} > {MAX_CAPTURED_LEN}, "
        "the longest libpcap writes"
    )


def _check_group_by(group_by: str) -> None:
    if group_by not in ("mac", "ip"):
        raise ParameterError(f"group_by must be 'mac' or 'ip', got {group_by!r}")


# IP keys: the version (4 or 6), then the source address, zero-padded.
_IP_KEY = np.dtype("V17")
_MAC_MASK = np.uint64(0xFFFF_FFFF_FFFF)


def _window(data: bytes, dtype) -> np.ndarray:
    """A view of ``data`` holding one ``dtype`` value per byte offset:
    element ``i`` is ``data[i : i + itemsize]``.  Indexing it gathers
    only the bytes a field spans; nothing else of the batch is copied.
    It is read-only unless ``data`` is writable (a ``bytearray``), and
    then assigning to it scatters whole items into ``data``."""
    dtype = np.dtype(dtype)
    return np.ndarray((max(len(data) - dtype.itemsize + 1, 0),), dtype, buffer=data, strides=(1,))


def _at(window: np.ndarray, pos: np.ndarray) -> np.ndarray:
    """The values of ``window`` at each position.  Positions past the
    last whole value read that value; the frames they belong to are too
    short for the field and are never attributed by it."""
    return window[np.minimum(pos, window.size - 1)]


def _mac(data: bytes, pos: np.ndarray) -> np.ndarray:
    """The 6-byte address at each position as a 48-bit integer, read as
    the low bytes of the big-endian 8-byte word that ends with it."""
    return _window(data, ">u8")[pos - 2] & _MAC_MASK


# Per 802.11 frame-control byte: is the frame a data frame, and does it
# carry Address 2?  CTS and ACK control frames (type 1, subtypes 12 and
# 13) are the ones that do not.
_FTYPE, _SUBTYPE = (np.arange(256) >> 2) & 0b11, np.arange(256) >> 4
_DATA_FRAME = _FTYPE == 2
_HAS_ADDRESS2 = ~((_FTYPE == 1) & ((_SUBTYPE == 12) | (_SUBTYPE == 13)))


def _transmitters(
    batch: FrameBatch, group_by: str, include_non_data: bool
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Attribute each frame of a batch to its transmitter.

    Returns the malformed and attributed masks, the bytes each frame
    sent (its on-wire length minus the radiotap pseudo-header, which is
    capture metadata and never crossed the air), and one key per
    attributed frame: the MAC as a 48-bit integer, or an ``_IP_KEY``.
    Frames that are neither malformed nor attributed are unattributed.
    For radiotap only 802.11 data frames are attributed unless
    ``include_non_data`` is set; ACK/CTS control frames carry no
    transmitter address and never are.
    """
    data = batch.data
    off, cap, wire = batch.offset, batch.captured_len, batch.on_wire_len
    if batch.link_type is LinkType.ETHERNET:
        if group_by == "ip":
            malformed, attributed, keys = _ip_sources(data, off, cap)
            return malformed, attributed, wire, keys
        malformed = cap < 12  # shorter than its address fields
        attributed = ~malformed
        return malformed, attributed, wire, _mac(data, off[attributed] + 6)

    rt_len = _at(_window(data, "<u2"), off + 2).astype(np.int64)
    size = wire - rt_len
    malformed = (cap < 4) | (rt_len < 8) | (rt_len > cap)
    # IP grouping is not attempted on 802.11: frame bodies are typically
    # encrypted, which is the whole point of the monitor-mode path.
    if group_by == "ip":
        return malformed, np.zeros_like(malformed), size, np.empty(0, _IP_KEY)
    dot11 = off + rt_len  # frame control, then Address 2 at byte 10
    malformed |= cap < rt_len + 2  # no frame control
    frame_control = _at(np.frombuffer(data, np.uint8), dot11)
    wanted = ~malformed & (_HAS_ADDRESS2 if include_non_data else _DATA_FRAME)[frame_control]
    malformed |= wanted & (cap < rt_len + 16)  # shorter than its Address 2 field
    attributed = wanted & ~malformed
    return malformed, attributed, size, _mac(data, dot11[attributed] + 10)


def _ip_sources(
    data: bytes, off: np.ndarray, cap: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The malformed and attributed masks and keys of Ethernet frames
    grouped by source IP; frames that are neither IPv4 nor IPv6 are
    unattributed."""
    malformed = cap < 14  # shorter than its header
    ethertype = _at(_window(data, ">u2"), off + 12)
    ipv4 = ~malformed & (ethertype == ETHERTYPE_IPV4)
    ipv6 = ~malformed & (ethertype == ETHERTYPE_IPV6)
    malformed |= (ipv4 & (cap < 14 + 20)) | (ipv6 & (cap < 14 + 40))  # IP header truncated
    ipv4 &= ~malformed
    ipv6 &= ~malformed
    keys = np.zeros((off.size, _IP_KEY.itemsize), np.uint8)
    keys[ipv4, 0] = 4
    keys[ipv4, 1:5] = _window(data, "V4")[off[ipv4] + 26].view(np.uint8).reshape(-1, 4)
    keys[ipv6, 0] = 6
    keys[ipv6, 1:] = _window(data, "V16")[off[ipv6] + 22].view(np.uint8).reshape(-1, 16)
    attributed = ipv4 | ipv6
    return malformed, attributed, keys[attributed].view(_IP_KEY).ravel()


def _device_id(key: int | bytes) -> str:
    """The MAC or IP text of one key from ``_transmitters``, as ``tolist`` gives it."""
    if isinstance(key, bytes):
        if key[0] == 4:
            return str(ipaddress.IPv4Address(key[1:5]))
        return str(ipaddress.IPv6Address(key[1:]))
    return key.to_bytes(6, "big").hex(":")


def _with_room(array: np.ndarray, rows: int) -> np.ndarray:
    """``array`` with ``rows`` rows, the new ones zero."""
    grown = np.zeros((rows, *array.shape[1:]), array.dtype)
    grown[: len(array)] = array
    return grown


class _DeviceBins:
    """One row of steps and one frame count per device, filled a batch at
    a time.  Each key's row is looked up in the keys seen so far, kept
    sorted; a key not seen before takes the next free row."""

    def __init__(self, key: np.ndarray, n_steps: int):
        """Rows for the devices of ``key``, the first keys to be binned."""
        self.keys = np.unique(key)
        self.rows = np.arange(self.keys.size)  # the row of each of keys
        self.bins = np.zeros((self.keys.size, n_steps), np.int64)
        self.frame_counts = np.zeros(self.keys.size, np.int64)

    def add(self, key: np.ndarray, index: np.ndarray, size: np.ndarray) -> None:
        """Bin frames with these keys, in-window step indices and sizes."""
        at = np.searchsorted(self.keys, key)
        fresh = self.keys.take(at, mode="clip") != key
        if fresh.any():
            self._add_keys(np.unique(key[fresh]))
            at = np.searchsorted(self.keys, key)
        row = self.rows[at]
        add_to_steps(self.bins, row, index, size)
        self.frame_counts += np.bincount(row, minlength=self.frame_counts.size)

    def _add_keys(self, fresh: np.ndarray) -> None:
        keys = np.concatenate((self.keys, fresh))
        order = np.argsort(keys)
        self.keys = keys[order]
        self.rows = np.concatenate((self.rows, np.arange(self.rows.size, keys.size)))[order]
        if keys.size > len(self.bins):
            # The room doubles, so a table that grows a row at a time is
            # copied a logarithmic number of times.
            room = max(keys.size, 2 * len(self.bins))
            self.bins, self.frame_counts = (_with_room(a, room) for a in (self.bins, self.frame_counts))

    def streams(self, start: float, step: float) -> list[DeviceStream]:
        """One stream per device: MACs in text order; IPv4 sources, which
        hold no colon, before IPv6 ones, each in text order."""
        streams = [DeviceStream(_device_id(key), ByteSeries(start, step, self.bins[row]), int(self.frame_counts[row]))
                   for key, row in zip(self.keys.tolist(), self.rows.tolist())]
        return sorted(streams, key=lambda stream: (":" in stream.device_id, stream.device_id))


def extract_device_series(
    batches: Iterable[FrameBatch],
    start: float | Fraction | None,
    step: float | Fraction,
    n_steps: int,
    group_by: str = "mac",
    include_non_data: bool = False,
    counters: dict | None = None,
) -> list[DeviceStream]:
    """Group frames by transmitter and bin each device's bytes.

    The window is ``n_steps`` steps of ``step`` seconds from ``start``;
    ``None`` starts it at the first frame's time, whether or not that
    frame is attributed.  A frame is in the step ``timeseries.step_index``
    gives its ticks, exactly; a float start or step is the decimal it
    prints.  A frame counts its on-wire bytes minus the
    radiotap pseudo-header, which is capture metadata and never crossed
    the air.  Malformed frames are skipped.  Devices come back with
    their MAC or IP text as id: MACs in text order, IPv4 sources before
    IPv6 ones, each in text order.  ``group_by="ip"`` reads the source
    IP of Ethernet IPv4/IPv6 frames and skips everything else.

    Pass a dict as ``counters`` to receive drop accounting: frames and
    bytes that were malformed, unattributable, or outside the window.
    Binned bytes plus dropped bytes add up to the counted bytes of all
    input frames.

    Each batch is binned as it arrives, into one row of steps and one
    frame count per device: nothing per frame outlives its batch, so
    the memory this holds is devices x steps plus one batch, however
    long the capture.
    """
    check_window(0.0 if start is None else start, step, n_steps)
    _check_group_by(group_by)
    drops = {"malformed": 0, "unattributed": 0, "out_of_window": 0, "dropped_bytes": 0}
    devices = None  # until a frame is binned
    for batch in batches:
        if not batch.ticks.size:
            continue
        if start is None:
            start = Fraction(int(batch.ticks[0]), batch.rate)
        malformed, attributed, size, key = _transmitters(batch, group_by, include_non_data)
        n_malformed = int(np.count_nonzero(malformed))
        n_unattributed = batch.ticks.size - n_malformed - key.size
        drops["malformed"] += n_malformed
        drops["unattributed"] += n_unattributed
        # The masks and sums below are skipped when they select nothing.
        if n_malformed:
            drops["dropped_bytes"] += int(batch.on_wire_len[malformed].sum())
        if n_unattributed:
            drops["dropped_bytes"] += int(size[~(malformed | attributed)].sum())
        # Called for a batch with no frame to bin too, so a window past
        # int64 ticks is refused whatever the frames hold.
        index, in_window = step_index(batch.ticks[attributed], batch.rate, start, step, n_steps)
        if not key.size:
            continue
        size = np.maximum(size[attributed], 0)
        n_out = key.size - int(np.count_nonzero(in_window))
        if n_out:
            drops["out_of_window"] += n_out
            drops["dropped_bytes"] += int(size[~in_window].sum())
            key, index, size = key[in_window], index[in_window], size[in_window]
        if key.size:  # a device gets a row with its first frame in the window
            devices = devices or _DeviceBins(key, n_steps)
            devices.add(key, index, size)
    if counters is not None:
        counters.update(drops)
    return devices.streams(float(start), float(step)) if devices else []


# ---------------------------------------------------------------------------
# Device-set serialization: a start_time,step preamble, a header row of
# device ids, then one row per step with one column per device.
# ---------------------------------------------------------------------------

def write_devices_csv(devices: Sequence[tuple[str, ByteSeries]], out: TextIO) -> None:
    first = device_set([series for _, series in devices])
    out.write("start_time,step\n")
    out.write(f"{first.start_time!r},{first.step!r}\n")
    out.write(",".join(device_id for device_id, _ in devices) + "\n")
    for i in range(len(first)):
        out.write(",".join(str(int(series.values[i])) for _, series in devices) + "\n")


def read_devices_csv(inp: TextIO) -> list[tuple[str, ByteSeries]]:
    """Inverse of write_devices_csv: (device id, series) pairs, each id
    kept as written.  An empty or repeated id is malformed."""
    try:
        lines = [ln.strip() for ln in inp if ln.strip()]
        if len(lines) < 4 or lines[0] != "start_time,step":
            raise FormatError("not a device-set CSV (expected start_time,step preamble)")
        start_s, step_s = lines[1].split(",")
        start_time, step = float(start_s), float(step_s)
        ids = lines[2].split(",")
        if "" in ids or len(set(ids)) != len(ids):
            raise FormatError(f"device ids must be non-empty and distinct, got {lines[2]!r}")
        columns: list[list[int]] = [[] for _ in ids]
        for ln in lines[3:]:
            cells = ln.split(",")
            if len(cells) != len(ids):
                raise FormatError(f"row width {len(cells)} != device count {len(ids)}")
            for col, cell in zip(columns, cells):
                col.append(int(cell))
        devices = [(device_id, ByteSeries(start_time, step, np.array(col, dtype=np.int64)))
                   for device_id, col in zip(ids, columns)]
    except (ValueError, OverflowError) as exc:  # ParameterError included
        raise FormatError(f"malformed device-set CSV: {exc}") from exc
    return devices
