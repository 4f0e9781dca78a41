"""Output checks for benchmark operations.

The parsers here are the benchmark's own, so a defect in the program's
readers cannot hide a defect in its writers.
"""
from __future__ import annotations

import struct


class CheckError(Exception):
    """An operation's output is wrong."""


def _lines(text: str) -> list[str]:
    return [ln.strip() for ln in text.splitlines() if ln.strip()]


def parse_series_csv(text: str) -> tuple[float, float, tuple[int, ...]]:
    """(start_time, step, values) of a byte-series CSV."""
    lines = _lines(text)
    if len(lines) < 4 or lines[0] != "start_time,step" or lines[2] != "index,bytes":
        raise CheckError("not a byte-series CSV")
    start, step = (float(x) for x in lines[1].split(","))
    values = []
    for i, line in enumerate(lines[3:]):
        index, value = line.split(",")
        if int(index) != i:
            raise CheckError(f"byte-series row {i} has index {index}")
        values.append(int(value))
    return start, step, tuple(values)


def parse_devices_csv(text: str) -> dict[str, tuple[float, float, tuple[int, ...]]]:
    """Device id -> (start_time, step, values) of a device-set CSV."""
    lines = _lines(text)
    if len(lines) < 4 or lines[0] != "start_time,step":
        raise CheckError("not a device-set CSV")
    start, step = (float(x) for x in lines[1].split(","))
    ids = lines[2].split(",")
    if len(set(ids)) != len(ids):
        raise CheckError("device-set CSV repeats a device id")
    rows = [[int(cell) for cell in line.split(",")] for line in lines[3:]]
    if any(len(row) != len(ids) for row in rows):
        raise CheckError("device-set CSV row width differs from its device count")
    return {device: (start, step, tuple(row[j] for row in rows)) for j, device in enumerate(ids)}


def require_equal_series(what: str, expected, actual) -> None:
    if actual != expected:
        raise CheckError(f"{what}: series differs from the rendered one")


def require_equal_devices(expected: dict, actual: dict) -> None:
    if sorted(actual) != sorted(expected):
        raise CheckError(f"device set {sorted(actual)} != rendered {sorted(expected)}")
    for device, series in expected.items():
        require_equal_series(f"device {device}", series, actual[device])


def require_unit_interval(what: str, value) -> float:
    if not isinstance(value, (int, float)) or isinstance(value, bool) or not 0.0 <= value <= 1.0:
        raise CheckError(f"{what} = {value!r} is not a number in [0, 1]")
    return float(value)


def f1_score(predictions, labels) -> float:
    tp = sum(1 for p, y in zip(predictions, labels) if p and y)
    fp = sum(1 for p, y in zip(predictions, labels) if p and not y)
    fn = sum(1 for p, y in zip(predictions, labels) if y and not p)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0


def count_pcap_records(path) -> int:
    """Number of records in a little-endian microsecond classic pcap,
    walked by record headers without reading payloads."""
    count = 0
    with open(path, "rb") as fh:
        if struct.unpack("<I", fh.read(24)[:4])[0] != 0xA1B2C3D4:
            raise CheckError(f"{path} is not a little-endian classic pcap")
        while header := fh.read(16):
            fh.seek(struct.unpack_from("<I", header, 8)[0], 1)
            count += 1
    return count
