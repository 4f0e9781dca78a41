import gzip
import io
import ipaddress
import mmap
import os
import struct
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dot11_ack_frame,
    dot11_beacon_frame,
    dot11_data_frame,
    ethernet_frame,
    ipv4_body,
    pcap_header,
    pcap_record,
    radiotap_frame,
)
import pcap_oracle as oracle
import simobs
from simobs.errors import (
    FormatError,
    ParameterError,
    SimobsError,
    TruncationError,
    UnsupportedLinkTypeError,
)
from simobs.pcap import (
    BATCH_READS,
    GLOBAL_HEADER_LEN,
    MAGIC_NANOS,
    MAX_CAPTURED_LEN,
    FrameBatch,
    LinkType,
    extract_device_series,
    read_devices_csv,
    read_pcap,
    write_devices_csv,
)
from simobs.timeseries import ByteSeries, bin_events, event_array


class TestReadPcap:
    def test_three_ethernet_packets_verbatim(self):
        frames = [
            (0, 500_000, 100),
            (1, 500_000, 200),
            (1, 500_000, 300),
        ]
        data = pcap_header()
        for sec, usec, wire_len in frames:
            payload = ethernet_frame("aa:bb:cc:dd:ee:01", body=bytes(wire_len - 14))
            data += pcap_record(sec, usec, payload, orig_len=wire_len)
        records = oracle.records_of(read_pcap(data))
        assert [r.timestamp for r in records] == [0.5, 1.5, 1.5]
        assert [r.on_wire_len for r in records] == [100, 200, 300]
        assert all(len(r.payload) == r.on_wire_len for r in records)
        assert all(r.link_type is LinkType.ETHERNET for r in records)

    def test_header_only_file(self):
        assert list(read_pcap(pcap_header())) == []

    def test_nanosecond_magic(self):
        data = pcap_header(magic=0xA1B23C4D) + pcap_record(1, 500_000_000, b"x" * 64)
        (record,) = oracle.records_of(read_pcap(data))
        assert record.timestamp == 1.5

    def test_big_endian(self):
        data = pcap_header(order=">") + pcap_record(2, 250_000, b"y" * 64, order=">")
        (record,) = oracle.records_of(read_pcap(data))
        assert record.timestamp == 2.25
        assert record.on_wire_len == 64

    def test_unknown_magic(self):
        with pytest.raises(FormatError):
            list(read_pcap(b"\x00\x01\x02\x03" + bytes(40)))

    def test_pcapng_named_in_error(self):
        with pytest.raises(FormatError, match="pcapng"):
            list(read_pcap(bytes.fromhex("0a0d0d0a") + bytes(40)))

    def test_truncated_record_reports_offset(self):
        data = pcap_header() + pcap_record(0, 0, b"z" * 64)
        truncated = data + struct.pack("<IIII", 1, 0, 50, 50) + b"short"
        with pytest.raises(TruncationError) as err:
            list(read_pcap(truncated))
        assert err.value.offset == 24 + 16 + 64

    def test_unsupported_link_type(self):
        with pytest.raises(UnsupportedLinkTypeError, match="228"):
            list(read_pcap(pcap_header(network=228)))

    def test_captured_longer_than_wire_rejected(self):
        data = pcap_header() + pcap_record(0, 0, b"w" * 64, orig_len=10)
        with pytest.raises(FormatError):
            list(read_pcap(data))

    def test_record_length_bounded_before_reading(self):
        class Stream(io.BytesIO):
            largest = 0

            def read(self, n=-1):
                Stream.largest = max(Stream.largest, n)
                return super().read(n)

        payload = ethernet_frame("aa:bb:cc:dd:ee:01", body=bytes(MAX_CAPTURED_LEN - 14))
        (record,) = oracle.records_of(read_pcap(Stream(pcap_header() + pcap_record(0, 0, payload))))
        assert len(record.payload) == record.on_wire_len == MAX_CAPTURED_LEN

        Stream.largest = 0
        claim = struct.pack("<IIII", 0, 0, MAX_CAPTURED_LEN + 1, MAX_CAPTURED_LEN + 1)
        with pytest.raises(FormatError, match="262145"):
            list(read_pcap(Stream(pcap_header() + claim + payload + b"x")))
        assert Stream.largest <= MAX_CAPTURED_LEN

    def test_accepts_stream_object(self):
        data = pcap_header() + pcap_record(0, 0, b"q" * 64)
        assert len(oracle.records_of(read_pcap(io.BytesIO(data)))) == 1

    @pytest.mark.parametrize("most", [1, 7, 16])
    def test_reads_shorter_than_the_global_header(self, most):
        """A stream that returns at most ``most`` bytes per read, as a raw
        pipe or socket may, yields what the same bytes yield."""
        frame = radiotap_frame(dot11_data_frame("11:00:00:00:00:01", body=bytes(40)), rt_len=8)
        data = pcap_header(network=127) + pcap_record(3, 250_000, frame)
        assert oracle.records_of(read_pcap(Trickle(data, most))) == oracle.records_of(read_pcap(data))

    @pytest.mark.parametrize("most", [1, 7, 16])
    @pytest.mark.parametrize("length, error, message", [
        (3, FormatError, "not a pcap file: shorter than a magic number"),
        (20, TruncationError, "pcap global header truncated"),
    ])
    def test_short_file_in_short_reads(self, most, length, error, message):
        for source in (pcap_header()[:length], Trickle(pcap_header()[:length], most)):
            with pytest.raises(error, match=message) as err:
                list(read_pcap(source))
            assert getattr(err.value, "offset", 0) == 0


class Trickle(io.BytesIO):
    """A byte stream that returns at most ``most`` bytes per read."""

    def __init__(self, data: bytes, most: int):
        super().__init__(data)
        self.most = most

    def read(self, n=-1):
        return super().read(self.most if n < 0 else min(n, self.most))


class TestTransmitterOf:
    """Attribution rules, each on a one-frame capture read back through
    extract and its drop counters."""

    def _extract(self, payload, link=LinkType.ETHERNET, **options):
        data = pcap_header(network=int(link)) + pcap_record(0, 0, payload)
        counters: dict = {}
        streams = extract_device_series(read_pcap(data), 0.0, 1.0, 1, counters=counters, **options)
        return [s.device_id for s in streams], counters

    def test_ethernet_source_mac(self):
        ids, _ = self._extract(ethernet_frame("aa:bb:cc:dd:ee:ff"))
        assert ids == ["aa:bb:cc:dd:ee:ff"]

    def test_ack_has_no_transmitter(self):
        frame = radiotap_frame(dot11_ack_frame())
        for include_non_data in (False, True):
            ids, counters = self._extract(
                frame, link=LinkType.IEEE80211_RADIOTAP, include_non_data=include_non_data
            )
            assert ids == []
            assert counters["unattributed"] == 1

    def test_radiotap_data_frame_address2(self):
        dot11 = dot11_data_frame("11:22:33:44:55:66", body=bytes(40))
        ids, _ = self._extract(radiotap_frame(dot11, rt_len=24), link=LinkType.IEEE80211_RADIOTAP)
        assert ids == ["11:22:33:44:55:66"]

    def test_management_frame_skipped_by_default(self):
        frame = radiotap_frame(dot11_beacon_frame("11:22:33:44:55:66"))
        ids, counters = self._extract(frame, link=LinkType.IEEE80211_RADIOTAP)
        assert ids == []
        assert counters["unattributed"] == 1
        ids, _ = self._extract(frame, link=LinkType.IEEE80211_RADIOTAP, include_non_data=True)
        assert ids == ["11:22:33:44:55:66"]

    def test_short_frame_is_malformed(self):
        ids, counters = self._extract(b"\x08\x00", link=LinkType.IEEE80211_RADIOTAP)
        assert ids == []
        assert counters["malformed"] == 1
        assert counters["dropped_bytes"] == 2

    def test_ip_grouping(self):
        frame = ethernet_frame("aa:bb:cc:dd:ee:ff", body=ipv4_body("192.168.1.9"))
        ids, _ = self._extract(frame, group_by="ip")
        assert ids == ["192.168.1.9"]

    def test_ip_grouping_skips_non_ip(self):
        frame = ethernet_frame("aa:bb:cc:dd:ee:ff", ethertype=0x0806, body=bytes(40))
        ids, counters = self._extract(frame, group_by="ip")
        assert ids == []
        assert counters["unattributed"] == 1


class TestExtractDeviceSeries:
    def _pcap(self, entries):
        data = pcap_header()
        for sec, usec, mac, wire in entries:
            payload = ethernet_frame(mac, body=bytes(wire - 14))
            data += pcap_record(sec, usec, payload, orig_len=wire)
        return list(read_pcap(data))

    def test_two_devices_hand_bins(self):
        records = self._pcap(
            [
                (0, 100_000, "aa:00:00:00:00:01", 100),
                (0, 200_000, "aa:00:00:00:00:02", 64),
                (0, 900_000, "aa:00:00:00:00:01", 150),
                (1, 100_000, "aa:00:00:00:00:02", 80),
                (2, 500_000, "aa:00:00:00:00:01", 70),
            ]
        )
        streams = extract_device_series(records, start=0.0, step=1.0, n_steps=3)
        assert [str(s.device_id) for s in streams] == ["aa:00:00:00:00:01", "aa:00:00:00:00:02"]
        assert streams[0].series.values.tolist() == [250, 0, 70]
        assert streams[1].series.values.tolist() == [64, 80, 0]
        assert streams[0].frame_count == 3

    def test_single_device_frame_count(self):
        records = self._pcap([(i, 0, "aa:00:00:00:00:07", 100) for i in range(5)])
        (stream,) = extract_device_series(records, start=0.0, step=1.0, n_steps=10)
        assert stream.frame_count == 5

    def test_only_acks_yields_empty(self):
        data = pcap_header(network=127)
        for i in range(3):
            data += pcap_record(i, 0, radiotap_frame(dot11_ack_frame()))
        streams = extract_device_series(list(read_pcap(data)), start=0.0, step=1.0, n_steps=5)
        assert streams == []

    def test_radiotap_header_not_counted(self):
        dot11 = dot11_data_frame("11:22:33:44:55:66", body=bytes(40))
        frame = radiotap_frame(dot11, rt_len=24)
        data = pcap_header(network=127) + pcap_record(0, 500_000, frame)
        records = list(read_pcap(data))
        (stream,) = extract_device_series(records, 0.0, 1.0, 1)
        assert int(stream.series.values[0]) == len(frame) - 24

    def test_default_start_is_first_record_even_unattributed(self):
        data = pcap_header(network=127) + pcap_record(3, 250_000, radiotap_frame(dot11_ack_frame()))
        for sec in (3, 4, 6):
            dot11 = dot11_data_frame("11:22:33:44:55:66", body=bytes(40))
            data += pcap_record(sec, 750_000, radiotap_frame(dot11))
        records = list(read_pcap(data))
        (default,) = extract_device_series(records, None, 1.0, 3)
        (explicit,) = extract_device_series(records, 3.25, 1.0, 3)
        assert default.series == explicit.series
        assert default.series.start_time == 3.25
        assert default.frame_count == 2
        assert extract_device_series([], None, 1.0, 3) == []

    def test_frame_at_the_window_end_is_binned_or_counted(self):
        # (63.5 - 0.1) / 0.1 floors to step 634, past the window, although
        # 63.5 < 0.1 + 634 * 0.1: the frame is out of the window, not lost
        data = pcap_header(network=127)
        for sec, usec, body in [(0, 100_000, 100), (63, 500_000, 1000)]:
            frame = radiotap_frame(dot11_data_frame("11:00:00:00:00:01", body=bytes(body)), rt_len=8)
            data += pcap_record(sec, usec, frame)
        counters: dict = {}
        (stream,) = extract_device_series(read_pcap(data), start=0.1, step=0.1, n_steps=634, counters=counters)
        assert int(stream.series.values.sum()) == 124 and stream.frame_count == 1
        assert counters["out_of_window"] == 1 and counters["dropped_bytes"] == 1024

    @pytest.mark.parametrize("step, n_steps", [(0.0, 10), (-1.0, 10), (1.0, 0)])
    def test_bad_window_rejected_before_reading(self, step, n_steps):
        def records():
            raise AssertionError("a record was taken")
            yield

        with pytest.raises(ParameterError):
            extract_device_series(records(), None, step, n_steps)

    def test_byte_conservation(self):
        rng = np.random.default_rng(3)
        entries = []
        for _ in range(200):
            mac = f"aa:00:00:00:00:{rng.integers(1, 5):02x}"
            entries.append((int(rng.integers(0, 70)), int(rng.integers(0, 1_000_000)), mac, int(rng.integers(64, 1500))))
        records = self._pcap(entries)
        streams = extract_device_series(records, start=0.0, step=1.0, n_steps=60)
        binned = sum(int(s.series.values.sum()) for s in streams)
        in_window = sum(wire for sec, usec, _, wire in entries if 0 <= sec + usec / 1e6 < 60)
        assert binned == in_window

    def test_byte_conservation_with_drop_accounting(self):
        # ethernet frames from two devices + unattributable ACKs, some
        # out of window: binned + dropped must equal the total byte basis
        data = pcap_header(network=127)
        total_basis = 0
        for i in range(40):
            if i % 5 == 0:
                frame = radiotap_frame(dot11_ack_frame(), rt_len=16)
            else:
                mac = f"aa:00:00:00:00:{(i % 3) + 1:02x}"
                frame = radiotap_frame(dot11_data_frame(mac, body=bytes(30 + i)), rt_len=16)
            data += pcap_record(i % 12, 250_000, frame)
            total_basis += len(frame) - 16
        counters: dict = {}
        streams = extract_device_series(
            list(read_pcap(data)), start=0.0, step=1.0, n_steps=8, counters=counters
        )
        binned = sum(int(s.series.values.sum()) for s in streams)
        assert binned + counters["dropped_bytes"] == total_basis
        assert counters["unattributed"] == 8
        assert counters["out_of_window"] > 0


@st.composite
def _windowed_capture(draw):
    """A radiotap capture of data, ACK and malformed frames, with its
    window: (data, start, step, n_steps).  Frame times are whole
    microseconds, anywhere near the window or within one microsecond of
    its first, second, last or one-past-last step boundary; steps are not
    dyadic."""
    start_us = draw(st.integers(0, 5_000_000))
    step_us = draw(st.sampled_from([100_000, 300_000, 700_000, 1_100_000, 33_333, 1_000_003]))
    n_steps = draw(st.integers(1, 700))
    edges = [start_us, start_us + step_us, start_us + (n_steps - 1) * step_us,
             start_us + n_steps * step_us, start_us + (n_steps + 1) * step_us]
    times = draw(st.lists(st.one_of(
        st.integers(max(start_us - step_us, 0), start_us + (n_steps + 1) * step_us),
        st.builds(lambda edge, d: max(edge + d, 0), st.sampled_from(edges), st.integers(-1, 1)),
    ), min_size=1, max_size=30))
    data = pcap_header(network=127)
    for t in times:
        kind = draw(st.sampled_from(["data", "data", "data", "ack", "short"]))
        if kind == "data":
            mac = f"11:00:00:00:00:{draw(st.integers(1, 3)):02x}"
            frame = radiotap_frame(dot11_data_frame(mac, body=bytes(draw(st.integers(0, 1400)))), rt_len=8)
        elif kind == "ack":
            frame = radiotap_frame(dot11_ack_frame(), rt_len=8)
        else:  # shorter than its Address 2 field
            frame = radiotap_frame(dot11_data_frame("11:00:00:00:00:01"), rt_len=8)[:20]
        data += pcap_record(t // 1_000_000, t % 1_000_000, frame)
    start = draw(st.sampled_from([None, start_us // 1_000_000 + start_us % 1_000_000 / 1e6]))
    return data, start, step_us / 1e6, n_steps


class TestDropAccounting:
    @settings(max_examples=200, deadline=None)
    @given(_windowed_capture())
    def test_binned_plus_dropped_is_every_frame(self, capture):
        """Binned bytes plus dropped bytes are the counted bytes of all
        frames, and every frame is binned or counted as dropped once,
        wherever the window's edges fall."""
        data, start, step, n_steps = capture
        counters: dict = {}
        streams = extract_device_series(read_pcap(data), start, step, n_steps, counters=counters)
        records = list(oracle.read_pcap(data))
        binned = sum(int(s.series.values.sum()) for s in streams)
        assert binned + counters["dropped_bytes"] == sum(oracle.counted_bytes(r) for r in records)
        dropped = counters["malformed"] + counters["unattributed"] + counters["out_of_window"]
        assert sum(s.frame_count for s in streams) + dropped == len(records)
        # a device's frames are the ones bin_events bins, one at a time
        first = records[0].timestamp if start is None else start
        in_window = {}
        for r in records:
            try:
                device = oracle.transmitter_of(r)
            except oracle.MalformedFrameError:
                continue
            if device is not None and bin_events(event_array([r.timestamp], [1]), first, step, n_steps).values.any():
                in_window[device] = in_window.get(device, 0) + 1
        assert {s.device_id: s.frame_count for s in streams} == in_window


class TestFuzzSmoke:
    def test_mutated_bytes_never_crash(self):
        base = pcap_header()
        for i in range(4):
            base += pcap_record(i, 250_000, ethernet_frame("aa:bb:cc:dd:ee:0f", body=bytes(80)))
        rng = np.random.default_rng(99)
        for _ in range(2000):
            data = bytearray(base)
            for _ in range(rng.integers(1, 8)):
                data[rng.integers(0, len(data))] = rng.integers(0, 256)
            try:
                records = list(read_pcap(bytes(data)))
                extract_device_series(records, 0.0, 1.0, 10)
            except SimobsError:
                pass


def _ipv6_body(src: str) -> bytes:
    # version 6, payload length 0, next header UDP, hop limit 64
    return struct.pack(">IHBB", 6 << 28, 0, 17, 64) + ipaddress.IPv6Address(src).packed + bytes(16)


def _record_offsets(data: bytes) -> list[int]:
    """The offset of every record header of a well-formed little-endian capture."""
    offsets, at = [], GLOBAL_HEADER_LEN
    while at < len(data):
        offsets.append(at)
        at += 16 + struct.unpack_from("<I", data, at + 8)[0]
    return offsets


# (byte order, nanosecond timestamps) of the captures other than the
# little-endian microsecond ones the fixtures write
OTHER_FORMATS = pytest.mark.parametrize("order, nanos", [(">", False), ("<", True), (">", True)],
                                        ids=["big-endian", "nanoseconds", "big-endian-nanoseconds"])


def _reordered(data: bytes, headers: list[int], order: str, nanos: bool) -> bytes:
    """``data``, a little-endian microsecond capture whose record headers
    start at ``headers``, rewritten in byte order ``order`` and, if
    ``nanos``, with a nanosecond magic and fractions.  Every field is
    rewritten as it stands, a corrupt length included; a field cut short
    by the end of ``data`` is left as it is."""
    out = bytearray(data)
    magic, *fields = struct.unpack_from("<IHHiIII", data)
    struct.pack_into(order + "IHHiIII", out, 0, MAGIC_NANOS if nanos else magic, *fields)
    for at in headers:
        values = struct.unpack_from("<IIII", data[at : at + 16].ljust(16, b"\0"))
        if nanos:
            values = (values[0], values[1] * 1000, *values[2:])
        for i, value in enumerate(values):
            if at + 4 * i + 4 <= len(data):
                struct.pack_into(order + "I", out, at + 4 * i, value)
    return bytes(out)


def _outcome(read, extract, source, group_by, include_non_data, start):
    """(streams, counters) of one extract run, or the error that ended it."""
    counters: dict = {}
    try:
        streams = extract(read(source), start, 1.0, 4, group_by=group_by,
                          include_non_data=include_non_data, counters=counters)
    except SimobsError as exc:
        return _error(exc)
    return streams, counters


OPTIONS = [
    (group_by, include_non_data, start)
    for group_by in ("mac", "ip")
    for include_non_data in (False, True)
    for start in (0.0, None)
]


class TestAgainstOracle:
    """The columnar reader and attribution against the per-record oracle
    in ``pcap_oracle``, on seeded mutations of captures that hold every
    kind of frame the rules tell apart."""

    ETHERNET = [
        ethernet_frame("aa:00:00:00:00:01", body=ipv4_body("10.0.0.9", payload=bytes(30))),
        ethernet_frame("aa:00:00:00:00:02", body=ipv4_body("10.0.0.10", payload=bytes(50))),
        ethernet_frame("aa:00:00:00:00:01", ethertype=0x86DD, body=_ipv6_body("2001:db8::7")),
        ethernet_frame("aa:00:00:00:00:03", ethertype=0x0806, body=bytes(28)),  # not IP
        # each length check, one byte short and exactly met
        *[ethernet_frame("aa:00:00:00:00:02")[:n] for n in (11, 12, 13, 14)],
        *[ethernet_frame("aa:00:00:00:00:02", body=ipv4_body("10.0.0.10"))[:n] for n in (30, 33, 34)],
        *[ethernet_frame("aa:00:00:00:00:01", ethertype=0x86DD, body=_ipv6_body("::1"))[:n] for n in (40, 53, 54)],
    ]
    RADIOTAP = [
        radiotap_frame(dot11_data_frame("11:00:00:00:00:01", body=bytes(30)), rt_len=8),
        radiotap_frame(dot11_data_frame("11:00:00:00:00:02", body=bytes(20)), rt_len=16),
        radiotap_frame(dot11_data_frame("11:00:00:00:00:01", body=bytes(10)), rt_len=24),
        radiotap_frame(dot11_ack_frame(), rt_len=8),
        radiotap_frame(bytes([0xC4, 0]) + bytes(8), rt_len=12),  # CTS
        radiotap_frame(dot11_beacon_frame("11:00:00:00:00:03"), rt_len=24),
        # each length check, one byte short and exactly met
        b"\x00\x00\x08",
        struct.pack("<BBH", 0, 0, 4),
        struct.pack("<BBHI", 0, 0, 7, 0) + bytes(20),
        struct.pack("<BBHI", 0, 0, 64, 0) + bytes(20),
        *[radiotap_frame(dot11_data_frame("11:00:00:00:00:02"), rt_len=8)[:n] for n in (8, 9, 10, 23, 24)],
        radiotap_frame(dot11_ack_frame(), rt_len=8)[:9],
    ]

    def _base(self, link: LinkType, frames: list[bytes]) -> bytes:
        data = pcap_header(network=int(link))
        # out of time order, so some frames fall before a window that
        # starts at the first frame and some after the fourth step
        for i, frame in enumerate(frames * 2):
            data += pcap_record(1 + (i * 7) % 6, (i * 137_000) % 1_000_000, frame, orig_len=len(frame) + i % 3)
        return data

    def _check(self, data: bytes) -> int:
        """Compare every option on one capture; the number that parsed."""
        try:
            records = list(oracle.read_pcap(data))
        except SimobsError:
            records = None
        parsed = 0
        for options in OPTIONS:
            expected = _outcome(oracle.read_pcap, oracle.extract_device_series, data, *options)
            assert _outcome(read_pcap, extract_device_series, data, *options) == expected
            if records is None:
                continue
            parsed += 1
            streams, counters = expected
            binned = sum(int(s.series.values.sum()) for s in streams)
            counted = sum(oracle.counted_bytes(r, *options[:2]) for r in records)
            assert binned + counters["dropped_bytes"] == counted
        return parsed

    def test_ip_sources_come_ipv4_first(self):
        """IPv4 sources before IPv6 ones, each in text order: in plain
        text order 1000::1 would come before 192.168.0.1."""
        frames = [
            ethernet_frame("aa:00:00:00:00:01", body=ipv4_body("10.0.0.9")),
            ethernet_frame("aa:00:00:00:00:02", ethertype=0x86DD, body=_ipv6_body("1000::1")),
            ethernet_frame("aa:00:00:00:00:03", body=ipv4_body("192.168.0.1")),
            ethernet_frame("aa:00:00:00:00:04", body=ipv4_body("10.0.0.10")),
        ]
        data = pcap_header() + b"".join(pcap_record(i, 0, frame) for i, frame in enumerate(frames))
        expected = ["10.0.0.10", "10.0.0.9", "192.168.0.1", "1000::1"]
        for read, extract in ((read_pcap, extract_device_series), (oracle.read_pcap, oracle.extract_device_series)):
            streams = extract(read(data), 0.0, 1.0, 4, group_by="ip")
            assert [s.device_id for s in streams] == expected

    @pytest.mark.parametrize("link", [LinkType.ETHERNET, LinkType.IEEE80211_RADIOTAP], ids=["ethernet", "radiotap"])
    def test_mutated_captures_match_oracle(self, link):
        base = self._base(link, self.ETHERNET if link is LinkType.ETHERNET else self.RADIOTAP)
        assert self._check(base) == len(OPTIONS)
        rng = np.random.default_rng(2024 + int(link))
        parsed = 0
        for _ in range(300):
            data = bytearray(base)
            for pos in rng.integers(0, len(data), size=rng.integers(1, 6)):
                data[pos] = rng.integers(0, 256)
            if rng.random() < 0.25:
                del data[rng.integers(0, len(data)) :]
            parsed += self._check(bytes(data))
        assert parsed >= 300  # the identity was checked on many captures

    @OTHER_FORMATS
    @pytest.mark.parametrize("link", [LinkType.ETHERNET, LinkType.IEEE80211_RADIOTAP], ids=["ethernet", "radiotap"])
    def test_other_formats_match_oracle(self, link, order, nanos, tmp_path):
        """Both captures in another byte order or time unit: the oracle's
        streams and counters from the bytes, and its records from a file,
        the bytes, a stream and a pipe."""
        base = self._base(link, self.ETHERNET if link is LinkType.ETHERNET else self.RADIOTAP)
        data = _reordered(base, _record_offsets(base), order, nanos)
        assert self._check(data) == len(OPTIONS)
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            from_file = _batch_records(fh)
        expected = [list(oracle.read_pcap(data))]
        assert from_file == _batch_records(data) == _batch_records(io.BytesIO(data)) == expected
        assert _piped(path, _batch_records) == expected

    @pytest.mark.parametrize("link", [LinkType.ETHERNET, LinkType.IEEE80211_RADIOTAP], ids=["ethernet", "radiotap"])
    def test_mutated_big_endian_captures_match_oracle(self, link):
        """The mutated corpus of ``test_mutated_captures_match_oracle``,
        in big-endian, which the walk reads through ``unpack_from``."""
        base = self._base(link, self.ETHERNET if link is LinkType.ETHERNET else self.RADIOTAP)
        base = _reordered(base, _record_offsets(base), ">", False)
        rng = np.random.default_rng(4048 + int(link))
        parsed = 0
        for _ in range(300):
            data = bytearray(base)
            for pos in rng.integers(0, len(data), size=rng.integers(1, 6)):
                data[pos] = rng.integers(0, 256)
            if rng.random() < 0.25:
                del data[rng.integers(0, len(data)) :]
            parsed += self._check(bytes(data))
        assert parsed >= 300

    @pytest.mark.parametrize("frames_per_batch", [1, 4, 7])
    def test_devices_first_seen_in_later_batches(self, frames_per_batch):
        """Devices that first appear batch after batch, in no key order,
        each keep their own bins and frame count."""
        macs = [f"11:00:00:00:00:{b:02x}" for b in (0x50, 0x20, 0x90, 0x10, 0x70, 0x30, 0x80, 0x60, 0x40)]
        data = pcap_header(network=127)
        for i in range(6 * len(macs)):
            seen = i // 6 + 1  # device j first transmits in frame 6 j
            mac = macs[seen - 1 if i % 6 == 0 else i * 5 % seen]
            data += pcap_record(i % 5, i * 37_000 % 1_000_000,
                                radiotap_frame(dot11_data_frame(mac, body=bytes(i)), rt_len=8))
        (whole,) = read_pcap(data)
        batches = [FrameBatch(whole.link_type, whole.rate, *(column[i : i + frames_per_batch] for column in whole[2:6]),
                              data)
                   for i in range(0, whole.ticks.size, frames_per_batch)]
        for options in OPTIONS:
            expected = _outcome(oracle.read_pcap, oracle.extract_device_series, data, *options)
            assert _outcome(list, extract_device_series, batches, *options) == expected
            assert options[0] == "ip" or len(expected[0]) == len(macs)

    def test_negative_size_bins_zero(self):
        # a batch built by hand may claim fewer on-wire bytes than its
        # radiotap header; the reader never yields one
        frame = radiotap_frame(dot11_data_frame("11:00:00:00:00:01", body=bytes(30)), rt_len=24)
        batch = FrameBatch(LinkType.IEEE80211_RADIOTAP, 10**6, np.array([500_000]), np.array([10]),
                           np.array([len(frame)]), np.array([0]), frame)
        (record,) = oracle.records_of([batch])
        for options in OPTIONS:
            expected = _outcome(list, oracle.extract_device_series, [record], *options)
            assert _outcome(list, extract_device_series, [batch], *options) == expected

    def test_streamed_and_drained_runs_agree(self):
        data = self._base(LinkType.IEEE80211_RADIOTAP, self.RADIOTAP)
        for options in OPTIONS:
            streamed = _outcome(lambda d: read_pcap(io.BytesIO(d)), extract_device_series, data, *options)
            drained = _outcome(lambda d: list(read_pcap(d)), extract_device_series, data, *options)
            assert streamed == drained


class LoggingStream(io.BytesIO):
    """A byte stream that logs the size of every read it is asked for.
    Given ``short`` sizes, it answers reads of MAX_CAPTURED_LEN with
    fewer bytes, cycling through them, as a raw pipe or socket may."""

    def __init__(self, data: bytes, reads: list, short: tuple = ()):
        super().__init__(data)
        self.reads, self.short = reads, short

    def read(self, n=-1):
        self.reads.append(n)
        if self.short and n == MAX_CAPTURED_LEN:
            n = self.short[len(self.reads) % len(self.short)]
        return super().read(n)


class TestChunkBoundaries:
    """Records that straddle the reader's MAX_CAPTURED_LEN reads, inside
    a batch of BATCH_READS reads and at its end."""

    READ_ENDS = [GLOBAL_HEADER_LEN + k * MAX_CAPTURED_LEN for k in range(1, 2 * BATCH_READS + 1)]

    @pytest.fixture(scope="class")
    def capture(self) -> tuple[bytes, list[int]]:
        """A radiotap capture over 2 MiB (two whole batches and a tail)
        and the file offset of every record header.  At the ends of its
        reads: a record header cut 5 bytes in, a MAX_CAPTURED_LEN record
        inside a batch, a payload, a MAX_CAPTURED_LEN record across the
        first batch end, a gap between records, a header cut 10 bytes in,
        a payload, and a gap at the second batch end."""
        data = bytearray(pcap_header(network=127))
        headers = []
        macs = ["11:00:00:00:00:01", "11:00:00:00:00:02", "11:00:00:00:00:03"]

        def add(length: int) -> None:
            count = len(headers)
            if count % 9 == 4:
                frame = radiotap_frame(dot11_ack_frame(), rt_len=8)
                frame += bytes(length - len(frame))
            else:
                frame = radiotap_frame(dot11_data_frame(macs[count % 3], body=bytes(length - 32)), rt_len=8)
            headers.append(len(data))
            data.extend(pcap_record(count % 4, 250_000, frame))

        def fill_to(target: int) -> None:
            while target - len(data) > 16 + 1500 + 16 + 40:
                add(1500)
            add(target - len(data) - 16)

        ends = self.READ_ENDS
        fill_to(ends[0] - 5)
        add(900)
        fill_to(ends[1] - 100_000)
        add(MAX_CAPTURED_LEN)
        fill_to(ends[2] - 16 - 700)
        add(1400)
        fill_to(ends[3] - 60_000)
        add(MAX_CAPTURED_LEN)
        fill_to(ends[4])
        fill_to(ends[5] - 10)
        add(500)
        fill_to(ends[6] - 16 - 300)
        add(800)
        fill_to(ends[7])
        add(600)
        assert len(data) > 2 << 20
        return bytes(data), headers

    def test_boundaries_and_cuts_match_oracle(self, capture):
        data, _ = capture
        reads = []
        cuts = [len(data)] + [end + d for end in self.READ_ENDS for d in (-1, 0, 1)]
        errors = set()
        for cut in cuts:
            source = data[:cut]
            expected = _outcome(oracle.read_pcap, oracle.extract_device_series, source, "mac", False, 0.0)
            streamed = _outcome(lambda d: read_pcap(LoggingStream(d, reads)), extract_device_series, source, "mac", False, 0.0)
            drained = _outcome(lambda d: list(read_pcap(d)), extract_device_series, source, "mac", False, 0.0)
            assert streamed == drained == expected, cut
            if expected[0] is TruncationError:
                errors.add(expected[1].split(" at ")[0])
            else:
                # every batch is read before the first is looked at
                assert oracle.records_of(list(read_pcap(LoggingStream(source, reads)))) == list(oracle.read_pcap(source))
        assert errors == {"record header truncated", "record payload truncated"}
        assert max(reads) == MAX_CAPTURED_LEN
        batch_bytes = BATCH_READS * MAX_CAPTURED_LEN
        assert len(list(read_pcap(data))) == -(-(len(data) - GLOBAL_HEADER_LEN) // batch_bytes)

    # (incl_len, orig_len): longer than the wire; longer than any record,
    # landing inside the batch; and reaching past the end of the batch
    @pytest.mark.parametrize("claim", [(70, 69), (MAX_CAPTURED_LEN + 1,) * 2, (2**32 - 1,) * 2])
    def test_length_errors_in_each_read_match_oracle(self, capture, claim):
        """A bad record header in the 2nd to 4th read of either batch
        ends the run with the oracle's error, message and offset."""
        data, headers = capture
        for k, end in enumerate(self.READ_ENDS[:-1]):
            if (k + 1) % BATCH_READS == 0:
                continue  # the next read starts a batch
            at = next(h for h in headers if h >= end)
            corrupt = bytearray(data)
            corrupt[at + 8 : at + 16] = struct.pack("<II", *claim)
            source = bytes(corrupt)
            expected = _outcome(oracle.read_pcap, oracle.extract_device_series, source, "mac", False, 0.0)
            assert expected[0] is FormatError and expected[2] is None and f"at byte {at} " in expected[1]
            for read in (lambda d: read_pcap(LoggingStream(d, [])), lambda d: list(read_pcap(d))):
                assert _outcome(read, extract_device_series, source, "mac", False, 0.0) == expected, k

    @pytest.mark.parametrize("short", [(1, 7, 5000), (MAX_CAPTURED_LEN - 3, 100_000, 17)])
    def test_short_reads_match_oracle(self, capture, short):
        """A stream whose reads return fewer bytes than asked yields what
        the same bytes yield read whole."""
        data, _ = capture
        for cut in (len(data), self.READ_ENDS[3] + 1):
            source = data[:cut]
            expected = _outcome(oracle.read_pcap, oracle.extract_device_series, source, "mac", False, 0.0)
            reads = []
            got = _outcome(lambda d: read_pcap(LoggingStream(d, reads, short)), extract_device_series,
                           source, "mac", False, 0.0)
            assert got == expected and max(reads) == MAX_CAPTURED_LEN, cut
        batches = list(read_pcap(LoggingStream(data, [], short)))
        assert oracle.records_of(batches) == list(oracle.read_pcap(data))


    def _variants(self, data: bytes, headers: list[int]):
        """Every cut and every length corruption the tests above make."""
        for cut in [len(data)] + [end + d for end in self.READ_ENDS for d in (-1, 0, 1)]:
            yield data[:cut]
        for claim in [(70, 69), (MAX_CAPTURED_LEN + 1,) * 2, (2**32 - 1,) * 2]:
            for k, end in enumerate(self.READ_ENDS[:-1]):
                if (k + 1) % BATCH_READS:
                    at = next(h for h in headers if h >= end)
                    yield data[: at + 8] + struct.pack("<II", *claim) + data[at + 16 :]

    def test_file_bytes_stream_and_pipe_match_oracle(self, capture, tmp_path):
        """Each variant on disk, read through an open file, its bytes, a
        stream and a pipe: the oracle's records or its error, message and
        offset.  The file, the bytes and the stream of whole reads also
        cut the same batches."""
        path = tmp_path / "capture.pcap"
        errors = set()
        for source in self._variants(*capture):
            path.write_bytes(source)
            try:
                expected = list(oracle.read_pcap(source))
            except SimobsError as exc:
                expected = _error(exc)
                errors.add(type(exc))
            with open(path, "rb") as fh:
                from_file = _batch_records(fh)
            batched = [from_file, _batch_records(source), _batch_records(LoggingStream(source, []))]
            assert batched[1] == batched[0] == batched[2]
            for got in (from_file, _piped(path, _batch_records)):
                assert (got if isinstance(got, tuple) else [r for batch in got for r in batch]) == expected
        assert errors == {TruncationError, FormatError}

    @OTHER_FORMATS
    def test_other_formats_match_oracle(self, capture, order, nanos, tmp_path):
        """Every variant of ``_variants`` in another byte order or time
        unit, read through an open file, its bytes, a stream and a pipe:
        the oracle's records, streams and counters, or its error, message
        and offset."""
        data, headers = capture
        path = tmp_path / "capture.pcap"
        errors = set()
        for variant in self._variants(data, headers):
            source = _reordered(variant, headers, order, nanos)
            path.write_bytes(source)
            try:
                expected = list(oracle.read_pcap(source))
            except SimobsError as exc:
                expected = _error(exc)
                errors.add(type(exc))
            with open(path, "rb") as fh:
                from_file = _batch_records(fh)
            assert _batch_records(source) == from_file == _batch_records(LoggingStream(source, []))
            for got in (from_file, _piped(path, _batch_records)):
                assert (got if isinstance(got, tuple) else [r for batch in got for r in batch]) == expected
            extracted = _outcome(oracle.read_pcap, oracle.extract_device_series, source, "mac", False, 0.0)
            assert _outcome(read_pcap, extract_device_series, source, "mac", False, 0.0) == extracted
        assert errors == {TruncationError, FormatError}

    def test_capture_at_a_nonzero_file_position(self, capture, tmp_path):
        """A capture after other bytes of its file reads from the file's
        position, with error offsets counted from the capture's start."""
        data, headers = capture
        path = tmp_path / "capture.pcap"
        prefix = bytes(range(256)) * 17 + b"x"  # not a whole number of pages
        *_, corrupt = self._variants(data, headers)
        outcomes = []
        for source in (data, data[: self.READ_ENDS[2] + 1], corrupt):
            path.write_bytes(prefix + source)
            with open(path, "rb") as fh:
                fh.read(len(prefix))
                outcomes.append(_batch_records(fh))
            assert outcomes[-1] == _batch_records(source)
        assert [type(outcome) for outcome in outcomes] == [list, tuple, tuple]

    def test_batches_kept_after_the_file_is_closed(self, capture, tmp_path):
        """Batches drained into a list stay valid once the file is closed,
        although the pages walked past were released."""
        data, _ = capture
        path = tmp_path / "capture.pcap"
        path.write_bytes(data)
        with open(path, "rb") as fh:
            batches = list(read_pcap(fh))
        assert all(isinstance(batch.data, mmap.mmap) for batch in batches)
        counters, expected_counters = {}, {}
        streams = extract_device_series(batches, 0.0, 1.0, 4, counters=counters)
        assert streams == extract_device_series(read_pcap(data), 0.0, 1.0, 4, counters=expected_counters)
        assert counters == expected_counters
        assert oracle.records_of(batches) == list(oracle.read_pcap(data))


def _error(exc: SimobsError) -> tuple:
    return type(exc), str(exc), getattr(exc, "offset", None)


def _batch_records(source) -> list | tuple:
    """The records of each batch of ``source``, or the error that ended the read."""
    try:
        return [oracle.records_of([batch]) for batch in read_pcap(source)]
    except SimobsError as exc:
        return _error(exc)


def _piped(path, consume):
    """``consume`` of the read end of a pipe that a thread fills with the
    file at ``path``; the reads return at most what the pipe holds."""
    read_end, write_end = os.pipe()

    def fill():
        try:
            with open(write_end, "wb") as out:
                out.write(path.read_bytes())
        except BrokenPipeError:  # consume stopped at an error
            pass

    thread = threading.Thread(target=fill)
    thread.start()
    try:
        with open(read_end, "rb", buffering=0) as stream:
            return consume(stream)
    finally:
        thread.join(timeout=60)
        assert not thread.is_alive()


class TestFilesOnDisk:
    @pytest.mark.parametrize("content", [b"", pcap_header()[:3], pcap_header()], ids=["empty", "3-byte", "header-only"])
    def test_short_files(self, content, tmp_path):
        path = tmp_path / "capture.pcap"
        path.write_bytes(content)
        with open(path, "rb") as fh:
            got = _batch_records(fh)
        assert got == _batch_records(content)
        short = (FormatError, "not a pcap file: shorter than a magic number", None)
        assert got == ([] if len(content) == GLOBAL_HEADER_LEN else short)

    def test_compressed_file_reads_its_contents(self, tmp_path):
        """A compressed file object is read, not mapped: its ``fileno`` is
        that of the compressed bytes."""
        data = pcap_header() + pcap_record(0, 0, ethernet_frame("aa:bb:cc:dd:ee:01", body=bytes(80)))
        path = tmp_path / "capture.pcap.gz"
        path.write_bytes(gzip.compress(data))
        with gzip.open(path, "rb") as fh:
            assert _batch_records(fh) == _batch_records(data)

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
    def test_walk_releases_the_pages_it_passed(self, tmp_path):
        """Extracting a 64 MiB capture from disk grows a process's peak RSS
        by under 32 MiB over one that only imports simobs: the mapped
        file's pages are released behind the walk."""
        frames = [radiotap_frame(dot11_data_frame(f"11:00:00:00:00:0{sec % 3 + 1}", body=bytes(1400)), rt_len=8)
                  for sec in range(60)]
        block = b"".join(pcap_record(sec, 0, frame) for sec, frame in enumerate(frames))
        repeats = -(-(64 << 20) // len(block))
        path = tmp_path / "capture.pcap"
        with open(path, "wb") as out:
            out.write(pcap_header(network=127))
            for _ in range(repeats):
                out.write(block)
        # The child's own peak: ru_maxrss also counts the peak of the process it was started from.
        peak = "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
        extract = (
            "from simobs.pcap import extract_device_series, read_pcap\n"
            f"with open({str(path)!r}, 'rb') as fh:\n"
            "    streams = extract_device_series(read_pcap(fh), 0.0, 1.0, 60)\n"
            f"assert sum(s.frame_count for s in streams) == {repeats * len(frames)}\n"
        )
        paths = [str(Path(simobs.__file__).parents[1]), os.environ.get("PYTHONPATH")]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
        try:
            kib = [int(subprocess.run([sys.executable, "-c", script + peak], env=env, check=True,
                                      capture_output=True, text=True, timeout=120).stdout)
                   for script in ("import simobs\n", extract)]
        finally:
            path.unlink()
        assert kib[1] - kib[0] < 32 << 10, kib

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the peak RSS from /proc")
    def test_extract_memory_does_not_grow_with_frames(self, tmp_path):
        """Extracting 500 000 minimum-size radiotap frames grows a
        process's peak RSS by under 16 MiB over one that only imports
        simobs: each batch is binned as it is walked, so nothing per frame
        outlives its batch."""
        frames = [pcap_record(i % 60, i * 997 % 1_000_000,
                              radiotap_frame(dot11_data_frame(f"11:00:00:00:00:0{i % 5 + 1}"), rt_len=8))
                  for i in range(1000)]
        path = tmp_path / "capture.pcap"
        with open(path, "wb") as out:
            out.write(pcap_header(network=127))
            for _ in range(500):
                out.write(b"".join(frames))
        extract = (
            "from simobs.pcap import extract_device_series, read_pcap\n"
            f"with open({str(path)!r}, 'rb') as fh:\n"
            "    streams = extract_device_series(read_pcap(fh), 0.0, 1.0, 60)\n"
            "assert sum(s.frame_count for s in streams) == 500_000\n"
        )
        try:
            kib = [_peak_kib(script) for script in ("import simobs\n", extract)]
        finally:
            path.unlink()
        assert kib[1] - kib[0] < 16 << 10, kib


def _peak_kib(script: str) -> int:
    """The peak RSS of a child process that runs ``script``, in KiB: its
    own VmHWM, since ru_maxrss also counts the peak of the process it
    was started from."""
    peak = "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))"
    paths = [str(Path(simobs.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
    return int(subprocess.run([sys.executable, "-c", script + peak], env=env, check=True,
                              capture_output=True, text=True, timeout=120).stdout)


class TestDevicesCsv:
    def test_round_trip(self):
        from simobs.timeseries import ByteSeries

        devices = [
            ("aa:00:00:00:00:01", ByteSeries(5.0, 1.0, np.array([1, 2, 3]))),
            ("aa:00:00:00:00:02", ByteSeries(5.0, 1.0, np.array([4, 0, 6]))),
        ]
        buf = io.StringIO()
        write_devices_csv(devices, buf)
        back = read_devices_csv(io.StringIO(buf.getvalue()))
        assert back == devices

    @pytest.mark.parametrize("start_time, step, values", [(5.0, 1.0, [4, 0]), (5.0, 0.5, [4, 0, 6]), (0.0, 1.0, [4, 0, 6])],
                             ids=["length", "step", "start_time"])
    def test_one_window_or_parameter_error(self, start_time, step, values):
        """A device set shares one window: the CSV preamble holds one start and step."""
        devices = [("aa:00:00:00:00:01", ByteSeries(5.0, 1.0, np.array([1, 2, 3]))),
                   ("aa:00:00:00:00:02", ByteSeries(start_time, step, np.array(values)))]
        for bad in (devices, []):
            with pytest.raises(ParameterError, match="sharing start_time, step and length"):
                write_devices_csv(bad, io.StringIO())

    def test_non_integer_cell_is_format_error(self):
        text = "start_time,step\n0.0,1.0\naa:00:00:00:00:01\n12\nlots\n"
        with pytest.raises(FormatError):
            read_devices_csv(io.StringIO(text))

    def test_bad_preamble_is_format_error(self):
        with pytest.raises(FormatError):
            read_devices_csv(io.StringIO("start_time,step\n0.0;1.0\naa:00:00:00:00:01\n12\n"))

    def test_id_kinds(self):
        ids = ["aa:00:00:00:00:01", "2001:db8::1:2:3:4", "fe80::1", "10.0.0.7"]
        text = "start_time,step\n0.0,1.0\n" + ",".join(ids) + "\n1,2,3,4\n"
        back = read_devices_csv(io.StringIO(text))
        assert [device_id for device_id, _ in back] == ids

    @pytest.mark.parametrize("header", ["aa:00:00:00:00:01,aa:00:00:00:00:01", "aa:00:00:00:00:01,", ",10.0.0.7"])
    def test_repeated_or_empty_id_is_format_error(self, header):
        with pytest.raises(FormatError, match="non-empty and distinct"):
            read_devices_csv(io.StringIO(f"start_time,step\n0.0,1.0\n{header}\n1,2\n"))

    @pytest.mark.parametrize("preamble", ["nan,1.0", "inf,1.0", "0.0,nan", "0.0,inf", "0.0,0.0"])
    def test_bad_window_is_format_error(self, preamble):
        with pytest.raises(FormatError):
            read_devices_csv(io.StringIO(f"start_time,step\n{preamble}\naa:00:00:00:00:01\n12\n"))
