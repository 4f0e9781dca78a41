"""The benchmark's traced run against the program it wraps.

``perfbench/layers.py`` replaces program functions by name and drains
what ``read_pcap`` yields into a list before ``extract_device_series``
sees it.  A renamed or deleted function, or a reader whose output does
not survive that, breaks the traced run; these tests break first.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from pathlib import Path

from conftest import dot11_ack_frame, dot11_data_frame, pcap_header, pcap_record, radiotap_frame
from simobs import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _capture() -> bytes:
    data = pcap_header(network=127)
    for i in range(60):
        if i % 7 == 3:
            frame = radiotap_frame(dot11_ack_frame(), rt_len=8)
        else:
            mac = f"11:00:00:00:00:{i % 3 + 1:02x}"
            frame = radiotap_frame(dot11_data_frame(mac, body=bytes(40 + 13 * i)), rt_len=8)
        data += pcap_record(i // 4, (i * 250_000) % 1_000_000, frame)
    return data


@contextmanager
def perfbench_tracer(monkeypatch):
    """A Tracer with perfbench's wrappers installed; every wrapped name is
    put back on exit."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)  # leave perfbench/ as checked in
    from layers import install
    from spans import Tracer

    tracer = Tracer()
    try:
        install(tracer)
        wrapped = list(tracer._originals)
        for module, attr, original in wrapped:
            assert getattr(module, attr).__wrapped__ is original, f"{module.__name__}.{attr}"
        yield tracer
    finally:
        tracer.unwrap()
    for module, attr, original in wrapped:
        assert getattr(module, attr) is original


def test_traced_extract_matches_untraced(tmp_path, monkeypatch):
    capture = tmp_path / "capture.pcap"
    capture.write_bytes(_capture())

    def extract(name: str) -> str:
        out = tmp_path / name
        assert cli.main(["extract", "--pcap", str(capture), "--start", "0", "--out", str(out)]) == 0
        return out.read_text()

    untraced = extract("untraced.csv")
    with perfbench_tracer(monkeypatch) as tracer:
        traced = extract("traced.csv")
        spans, counts = tracer.take()

    assert traced == untraced
    names = {s[0] for s in spans}
    assert {"cli.extract", "pcap.read", "pcap.extract"} <= names
    # extract bins each batch itself; the pcap.bin_events that perfbench wraps is never called
    assert "timeseries.bin_events" not in names
    assert counts["pcap.records"] > 0
    assert counts["pcap.binned"] == 60 - 9  # every data frame; the 9 ACKs are unattributed


def test_traced_series_commands_render_in_a_span(tmp_path, monkeypatch):
    """converge and a simulate without a capture render through the
    wrapped ``render_scenario``, so their render time has its own span."""
    argvs = [["converge", "--preset", "far", "--trials", "2", "--seed", "3", "--measure", "cc",
              "--out", "curve.csv"],
             ["simulate", "--preset", "far", "--seed", "2", "--out-dir", "scene"]]

    def outputs(name: str) -> dict[str, bytes]:
        root = tmp_path / name
        root.mkdir()
        for argv in argvs:
            assert cli.main([*argv[:-1], str(root / argv[-1])]) == 0
        return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

    untraced = outputs("untraced")
    with perfbench_tracer(monkeypatch) as tracer:
        traced = outputs("traced")
        spans, counts = tracer.take()

    assert traced == untraced and len(traced) == 4
    renders = [spans[parent][0] for name, _, _, parent in spans if name == "simulate.render"]
    assert renders == ["cli.converge", "cli.converge", "cli.simulate"]  # one per trial, one per scene
    assert "simulate.packetize" not in {s[0] for s in spans}
    assert counts["simulate.events"] == 0
