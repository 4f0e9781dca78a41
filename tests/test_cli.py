import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    dot11_ack_frame,
    dot11_data_frame,
    ethernet_frame,
    mp4_file,
    pcap_header,
    pcap_record,
    radiotap_frame,
    report_entries,
    trak_box,
)
import pcap_oracle as oracle
import simobs
from simobs import classify, cli, simulate
from simobs.cli import main
from simobs.pcap import GLOBAL_HEADER_LEN, read_devices_csv
from simobs.similarity import MEASURES, read_report, read_samples, write_report_csv, write_report_json
from simobs.timeseries import MAX_STEPS, event_array


def run(args):
    return main(args)


@pytest.fixture
def pcap_file(tmp_path):
    data = pcap_header()
    for sec, mac, wire in [(0, "aa:00:00:00:00:01", 100), (1, "aa:00:00:00:00:01", 200),
                           (1, "aa:00:00:00:00:02", 150)]:
        payload = ethernet_frame(mac, body=bytes(wire - 14))
        data += pcap_record(sec, 500_000, payload, orig_len=wire)
    path = tmp_path / "capture.pcap"
    path.write_bytes(data)
    return path


@pytest.fixture
def video_file(tmp_path):
    path = tmp_path / "clip.mp4"
    path.write_bytes(mp4_file(trak_box(1000, "vide", sizes=[10, 20, 30, 40], deltas=[(4, 500)])))
    return path


class TestExtract:
    def test_pcap_to_devices_csv(self, pcap_file, tmp_path):
        out = tmp_path / "devices.csv"
        code = run(["extract", "--pcap", str(pcap_file), "--window", "3", "--start", "0",
                    "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "start_time,step"
        assert lines[2] == "aa:00:00:00:00:01,aa:00:00:00:00:02"
        assert lines[3] == "100,0"
        assert lines[4] == "200,150"

    def test_video_to_series_csv(self, video_file, tmp_path):
        out = tmp_path / "series.csv"
        assert run(["extract", "--video", str(video_file), "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[3] == "0,30"
        assert lines[4] == "1,70"

    def test_missing_file_exit_2_no_output(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run(["extract", "--pcap", str(tmp_path / "nope.pcap"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_bad_pcap_exit_1(self, tmp_path):
        bad = tmp_path / "bad.pcap"
        bad.write_bytes(b"\x00" * 64)
        assert run(["extract", "--pcap", str(bad), "--out", "-"]) == 1

    def test_default_start_is_first_frame(self, pcap_file, tmp_path):
        default, explicit = tmp_path / "default.csv", tmp_path / "explicit.csv"
        assert run(["extract", "--pcap", str(pcap_file), "--window", "3", "--out", str(default)]) == 0
        assert run(["extract", "--pcap", str(pcap_file), "--window", "3", "--start", "0.5",
                    "--out", str(explicit)]) == 0
        assert default.read_bytes() == explicit.read_bytes()

    @pytest.fixture
    def radiotap_file(self, tmp_path):
        data = pcap_header(network=127) + pcap_record(0, 0, radiotap_frame(dot11_ack_frame()))
        data += pcap_record(1, 0, radiotap_frame(dot11_data_frame("aa:00:00:00:00:01", body=bytes(40))))
        data += pcap_record(2, 0, b"\x00\x00")
        path = tmp_path / "radiotap.pcap"
        path.write_bytes(data)
        return path

    @pytest.mark.parametrize("flags, counts", [
        (["--start", "1e9"], "1 frames malformed, 1 unattributed, 1 out of window"),
        (["--group-by", "ip"], "1 frames malformed, 2 unattributed, 0 out of window"),
    ])
    def test_no_device_in_window_exit_1(self, radiotap_file, flags, counts, tmp_path, capsys):
        out = tmp_path / "devices.csv"
        assert run(["extract", "--pcap", str(radiotap_file), "--out", str(out)] + flags) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert err.endswith(counts)
        assert not out.exists()


@st.composite
def _shiftable_capture(draw):
    """A microsecond or nanosecond Ethernet capture whose frames sit on,
    just off and between the step edges of a window, and the flags of
    that window: (rate, records as (sec, frac, mac, size), start as
    (sec, frac) or None, step text, window)."""
    rate = draw(st.sampled_from([10**6, 10**9]))
    step = draw(st.from_regex(r"0\.0[1-9]|0\.[1-9][0-9]?[0-9]?|[1-3](\.[0-9]{1,2})?", fullmatch=True))
    window = draw(st.integers(1, 40))
    start = draw(st.integers(0, 3 * rate))
    width = Fraction(step) * rate
    times = draw(st.lists(st.one_of(
        st.builds(lambda k, d: start + math.floor(k * width) + d, st.integers(-1, window + 1), st.integers(-1, 1)),
        st.integers(0, start + math.ceil((window + 1) * width)),
    ), min_size=1, max_size=25))
    records = [(max(t, 0) // rate, max(t, 0) % rate, f"aa:00:00:00:00:0{draw(st.integers(1, 3))}",
                draw(st.integers(64, 200))) for t in times]
    return rate, records, draw(st.sampled_from([divmod(start, rate), None])), step, window


class TestExactTime:
    """A frame's step is computed from its exact record time, so no
    epoch, step or start moves it into a neighbouring step."""

    @staticmethod
    def _extract(records, rate, shift, start, step, window, directory) -> tuple[int, list[str]]:
        data = pcap_header(magic=0xA1B2C3D4 if rate == 10**6 else 0xA1B23C4D)
        for sec, frac, mac, size in records:
            data += pcap_record(sec + shift, frac, ethernet_frame(mac, body=bytes(size - 14)))
        capture, out = directory / f"shift{shift}.pcap", directory / f"shift{shift}.csv"
        capture.write_bytes(data)
        flags = [] if start is None else ["--start", f"{start[0] + shift}.{start[1]:0{len(str(rate)) - 1}d}"]
        code = run(["extract", "--pcap", str(capture), "--step", step, "--window", str(window), *flags,
                    "--out", str(out)])
        return code, out.read_text().splitlines() if code == 0 else []

    @settings(max_examples=150, deadline=None)
    @given(_shiftable_capture(), st.integers(1, 2**32 - 1000))
    def test_shifting_records_and_start_moves_only_start_time(self, capture, shift):
        rate, records, start, step, window = capture
        with tempfile.TemporaryDirectory() as directory:
            here = self._extract(records, rate, 0, start, step, window, Path(directory))
            shifted = self._extract(records, rate, shift, start, step, window, Path(directory))
        assert here[0] == shifted[0]
        assert [line for i, line in enumerate(here[1]) if i != 1] == \
            [line for i, line in enumerate(shifted[1]) if i != 1]

    def test_every_tenth_of_a_second_of_a_90khz_video_holds_its_frame(self, tmp_path):
        sizes = list(range(1000, 1100))
        video = tmp_path / "clip.mp4"
        video.write_bytes(mp4_file(trak_box(90_000, "vide", sizes=sizes, deltas=[(100, 9000)])))
        out = tmp_path / "series.csv"
        assert run(["extract", "--video", str(video), "--step", "0.1", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[3:] == [f"{i},{size}" for i, size in enumerate(sizes)]

    def test_a_frame_a_whole_step_after_the_first_lands_in_that_step(self, tmp_path):
        """``far`` seed 3 starts at 0.001923 s, and its spy sends a frame
        at 4.001923 s, exactly 4 steps on: it is in step 4, not 3."""
        assert run(["simulate", "--preset", "far", "--seed", "3", "--out-dir", str(tmp_path),
                    "--pcap-out", str(tmp_path / "capture.pcap")]) == 0
        spy = "02:00:00:00:01:01"
        records = list(oracle.read_pcap((tmp_path / "capture.pcap").read_bytes()))
        assert records[0].timestamp == Fraction("0.001923")
        assert any(r.timestamp == Fraction("4.001923") and oracle.transmitter_of(r) == spy for r in records)
        out = tmp_path / "captured.csv"
        assert run(["extract", "--pcap", str(tmp_path / "capture.pcap"), "--out", str(out)]) == 0
        with open(out) as fh:
            captured = dict(read_devices_csv(fh))
        expected = oracle.extract_device_series(records, None, 1.0, 60)
        assert {s.device_id: s.series for s in expected} == captured
        assert captured[spy].values[3:5].tolist() == [220_082, 234_658]

    @pytest.mark.parametrize("start, step", [("0", "0.03333333333333333"), ("0.00000000000000000001", "1")])
    def test_a_start_or_step_with_many_decimals_is_the_exact_floor(self, start, step, tmp_path):
        """Scaled to whole ticks, these windows pass int64, and are still
        binned exactly: every frame on, just before and just after a
        step edge is in the step the exact floor gives."""
        width, n_steps = Fraction(step) * 10**6, 1800 if step != "1" else 60
        ticks = sorted({max(0, math.floor(k * width) + d) for k in range(0, n_steps + 1, 7) for d in (-1, 0, 1)})
        data = pcap_header()
        for i, tick in enumerate(ticks):
            data += pcap_record(*divmod(tick, 10**6), ethernet_frame(f"aa:00:00:00:00:0{i % 3 + 1}",
                                                                      body=bytes(50 + i % 40)))
        capture, out = tmp_path / "capture.pcap", tmp_path / "devices.csv"
        capture.write_bytes(data)
        assert run(["extract", "--pcap", str(capture), "--start", start, "--step", step, "--window", str(n_steps),
                    "--out", str(out)]) == 0
        with open(out) as fh:
            captured = dict(read_devices_csv(fh))
        expected = oracle.extract_device_series(oracle.read_pcap(data), Fraction(start), Fraction(step), n_steps)
        assert {s.device_id: s.series for s in expected} == captured

    @pytest.mark.parametrize("flags", [["--start", "-10000000000000"], ["--step", "1e12"]])
    def test_a_window_past_int64_ticks(self, flags, pcap_file, tmp_path, capsys):
        out = tmp_path / "devices.csv"
        code = run(["extract", "--pcap", str(pcap_file), *flags, "--out", str(out)])
        err = TestNonFiniteNumbers._one_line_error(code, 2, out, capsys)
        assert "does not fit int64 ticks of 1/1000000 s" in err


class TestSimulateAnalyzeClassify:
    def test_pipeline(self, tmp_path):
        out_dir = tmp_path / "sim"
        assert run(["simulate", "--preset", "easy", "--seed", "7", "--out-dir", str(out_dir)]) == 0
        assert (out_dir / "reference.csv").exists()
        assert (out_dir / "devices.csv").exists()
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert len(manifest["devices"]) == 10

        report = tmp_path / "report.json"
        assert run(["analyze", "--reference", str(out_dir / "reference.csv"),
                    "--devices", str(out_dir / "devices.csv"),
                    "--format", "json", "--out", str(report)]) == 0
        rows = json.loads(report.read_text())
        assert len(rows) == 10
        assert {"cc", "dtw", "kld", "jsd"} <= set(rows[0])

        verdicts = tmp_path / "verdicts.json"
        assert run(["classify", "--report", str(report), "--thresholds", "default",
                    "--format", "json", "--out", str(verdicts)]) == 0
        decided = json.loads(verdicts.read_text())
        spies = {d["device_id"] for d in decided if d["spy_kld"]}
        truth = {d["device_id"] for d in manifest["devices"] if d["spying"]}
        assert truth <= spies

    @pytest.mark.parametrize("preset", sorted(simulate.PRESETS))
    def test_preset_reports_hold_finite_measures(self, preset, tmp_path):
        out_dir = tmp_path / "sim"
        assert run(["simulate", "--preset", preset, "--seed", "3", "--out-dir", str(out_dir)]) == 0
        report = tmp_path / "report.json"
        assert run(["analyze", "--reference", str(out_dir / "reference.csv"),
                    "--devices", str(out_dir / "devices.csv"),
                    "--format", "json", "--out", str(report)]) == 0
        with open(report) as fh:
            rows = report_entries(read_report(fh))  # raises FormatError on a non-finite measure
        values = [row[m] for row in rows for m in MEASURES]
        assert values and all(math.isfinite(v) for v in values if v is not None)

    def test_capture_of_300_devices_extracts_as_its_devices_csv(self, tmp_path):
        """Devices past the 255th of a group get valid, distinct MACs, so the
        capture can be written and read back."""
        config = {"duration": 5, "seed": 1, "reference": {}, "spies": [{"idle_bytes_per_step": 2000.0}],
                  "background": [["cbr", {"bytes_per_step": 1000.0 + i}] for i in range(299)]}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(config))
        out_dir, capture = tmp_path / "sim", tmp_path / "capture.pcap"
        assert run(["simulate", "--scenario", str(scenario), "--out-dir", str(out_dir),
                    "--pcap-out", str(capture), "--link", "radiotap"]) == 0
        extracted = tmp_path / "extracted.csv"
        assert run(["extract", "--pcap", str(capture), "--start", "0", "--window", "5", "--out", str(extracted)]) == 0
        assert extracted.read_text() == (out_dir / "devices.csv").read_text()
        ids = extracted.read_text().splitlines()[2].split(",")
        assert len(set(ids)) == 300 and "02:00:00:01:02:00" in ids

    def test_ethernet_capture_of_300_devices_extracts_by_ip_as_its_devices_csv(self, tmp_path):
        """Devices past the 253rd get IPv4 sources of their own, none of them the gateway's."""
        config = {"duration": 5, "seed": 1, "reference": {}, "spies": [{"idle_bytes_per_step": 2000.0}],
                  "background": [["cbr", {"bytes_per_step": 1000.0 + i}] for i in range(299)]}
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(config))
        out_dir, capture = tmp_path / "sim", tmp_path / "capture.pcap"
        assert run(["simulate", "--scenario", str(scenario), "--out-dir", str(out_dir),
                    "--pcap-out", str(capture), "--link", "ethernet"]) == 0
        extracted = tmp_path / "extracted.csv"
        assert run(["extract", "--pcap", str(capture), "--start", "0", "--window", "5", "--group-by", "ip",
                    "--out", str(extracted)]) == 0
        by_ip = extracted.read_text().splitlines()
        by_mac = (out_dir / "devices.csv").read_text().splitlines()
        ips = by_ip[2].split(",")
        assert len(ips) == len(set(ips)) == len(by_mac[2].split(",")) == 300
        assert {"10.0.0.1", "10.0.0.253", "10.0.1.0"} <= set(ips) and "10.0.0.254" not in ips
        # The same series, one per device: each background sends its own rate.
        assert by_ip[:2] == by_mac[:2]
        assert sorted(zip(*(ln.split(",") for ln in by_ip[3:]))) == sorted(zip(*(ln.split(",") for ln in by_mac[3:])))

    def test_simulate_deterministic(self, tmp_path):
        dir_a = tmp_path / "a"
        dir_b = tmp_path / "b"
        for d in (dir_a, dir_b):
            assert run(["simulate", "--preset", "easy", "--seed", "7", "--out-dir", str(d),
                        "--pcap-out", str(d / "capture.pcap")]) == 0
        for name in ("reference.csv", "devices.csv", "manifest.json", "capture.pcap"):
            assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()

    def test_analyze_self_reference(self, tmp_path):
        out_dir = tmp_path / "sim"
        run(["simulate", "--preset", "easy", "--seed", "3", "--out-dir", str(out_dir)])
        report = tmp_path / "self.json"
        # reference against a devices file containing series identical to it:
        # build one by analyzing devices, then check the spy row is most similar
        assert run(["analyze", "--reference", str(out_dir / "reference.csv"),
                    "--devices", str(out_dir / "devices.csv"),
                    "--format", "json", "--out", str(report)]) == 0
        rows = json.loads(report.read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        spy_ids = {d["device_id"] for d in manifest["devices"] if d["spying"]}
        best = min(rows, key=lambda r: r["kld"] if r["kld"] is not None else float("inf"))
        assert best["device_id"] in spy_ids


def _synthetic_rows():
    # Big enough that every CV train split keeps >= 10 samples of each
    # class; half the rows are tagged regime=near, half regime=far.
    rng = np.random.default_rng(0)
    rows = []
    for i in range(40):
        tags = ["regime=near" if i % 2 else "regime=far"]
        rows.append({"cc": float(rng.normal(0.9, 0.03)), "dtw": 1.0,
                     "kld": float(abs(rng.normal(0.005, 0.002))),
                     "jsd": float(abs(rng.normal(0.002, 0.001))),
                     "flags": [], "label": True, "tags": tags})
        rows.append({"cc": float(rng.normal(0.1, 0.1)), "dtw": 8.0,
                     "kld": float(abs(rng.normal(0.8, 0.2))),
                     "jsd": float(abs(rng.normal(0.2, 0.05))),
                     "flags": [], "label": False, "tags": tags})
    return rows


def _overlapping_rows():
    # 41 spy and 83 other rows whose measures overlap, so fits run for
    # many iterations, and whose 3 stratified folds leave training sets
    # of two sizes (82 and 84 rows).  Every seventh row has cc and kld
    # undefined, so the indicator inputs vary.
    rng = np.random.default_rng(11)
    rows = []
    for i in range(124):
        spy = i % 3 == 0 and i < 123
        undefined = i % 7 == 3
        rows.append({
            "cc": None if undefined else float(rng.normal(0.5 if spy else 0.3, 0.2)),
            "dtw": float(abs(rng.normal(4.0 if spy else 6.0, 2.0))),
            "kld": None if undefined else float(abs(rng.normal(0.05 if spy else 0.15, 0.08))),
            "jsd": float(abs(rng.normal(0.01 if spy else 0.03, 0.015))),
            "flags": ["cc_undefined", "kld_undefined"] if undefined else [],
            "label": spy, "tags": [],
        })
    return rows


class TestTrainingGoldenBytes:
    """sha256 of the training outputs on a seeded corpus, as the pre-stacked
    per-fit trainer wrote them.  The hashes hold for this float arithmetic
    (numpy and its BLAS); a platform whose BLAS rounds differently needs
    them recorded anew from a trainer known to be right."""

    GRID = "bc52064719d8bb07efe22bd966e0a4f5d5a6a8dc3861796f3281e29ff5afcfb8"
    FIT = "cdae5b5f796cb0934f46a334204004058a1e811f53ba0f170919f7b2f48b3279"
    TRAIN = "62714fcd771b1faf2bdd14497d0cb6d0cf7aac8b5b00eeb25ac192b44b3c8609"

    def test_grid_search_and_train_outputs(self, tmp_path):
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(_overlapping_rows()))
        assert run(["grid-search", "--samples", str(corpus), "--folds", "3", "--seed", "7",
                    "--out", str(tmp_path / "grid.json"), "--fit-out", str(tmp_path / "fit.json")]) == 0
        assert run(["train", "--samples", str(corpus), "--seed", "7",
                    "--out", str(tmp_path / "model.json")]) == 0
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("grid.json", "fit.json", "model.json")]
        assert digests == [self.GRID, self.FIT, self.TRAIN]

    def test_grid_search_in_spawned_workers(self, tmp_path):
        """grid-search run where workers start by spawn (the macOS default;
        Python 3.14 defaults to forkserver on Linux) writes the bytes of an
        in-process run: the worker and its arguments pickle."""
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(_overlapping_rows()))
        argv = ["grid-search", "--samples", str(corpus), "--folds", "3", "--seed", "7"]
        assert run(argv + ["--out", str(tmp_path / "grid.json"), "--fit-out", str(tmp_path / "fit.json")]) == 0
        script = (
            "import multiprocessing, sys\n"
            "from simobs import classify, cli\n"
            "multiprocessing.set_start_method('spawn')\n"
            "classify._cpu_count = lambda: 2  # a pool starts on a one-CPU host too\n"
            "sys.exit(cli.main(sys.argv[1:]))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(simobs.__file__).parents[1])}
        subprocess.run(
            [sys.executable, "-c", script, *argv, "--out", str(tmp_path / "spawn_grid.json"),
             "--fit-out", str(tmp_path / "spawn_fit.json")],
            env=env, check=True, timeout=300,
        )
        for name in ("grid.json", "fit.json"):
            assert (tmp_path / f"spawn_{name}").read_bytes() == (tmp_path / name).read_bytes()


class TestSimilarityGoldenBytes:
    """sha256 of the similarity outputs of seeded scenes, as the
    per-candidate measures wrote them.  Like the training hashes, they
    hold for this float arithmetic (numpy, its BLAS and libm)."""

    ANALYZE = {
        "json": "20a45d9ed9876c341b2836b5bdb3ac0618f7dae314c1404d079e9ded4b82c2c0",
        "csv": "cc2c554795f0403048ec3186ed758e205e4ae6a519fe8b3869e3bf4a29a3749b",
        "manifest": "eaf2ce550147e09f5d90226f0f45e160fe022a98a9c020f8fd9f5ca43823c8e7",
    }
    CONVERGE = {
        "easy70": "2f1cc1789d95b45580420561081e48d96ba749c512187abd872d329e19737dec",
        "far_cc": "c68d62c70dd494cbd3ab4ca94a913584b54a12ae89f3908d459ff686b8f58214",
    }

    @staticmethod
    def _digest(path) -> str:
        return hashlib.sha256(path.read_bytes()).hexdigest()

    def test_analyze_outputs(self, tmp_path):
        scene = tmp_path / "scene"
        assert run(["simulate", "--preset", "easy", "--seed", "3", "--out-dir", str(scene)]) == 0
        inputs = ["--reference", str(scene / "reference.csv"), "--devices", str(scene / "devices.csv")]
        flags = {"json": ["--format", "json"], "csv": [],
                 "manifest": ["--manifest", str(scene / "manifest.json")]}
        digests = {}
        for name, extra in flags.items():
            out = tmp_path / f"{name}.out"
            assert run(["analyze", *inputs, *extra, "--out", str(out)]) == 0
            digests[name] = self._digest(out)
        assert digests == self.ANALYZE

    def test_converge_outputs(self, tmp_path):
        argvs = {"easy70": ["--preset", "easy70", "--trials", "1"],
                 "far_cc": ["--preset", "far", "--trials", "3", "--seed", "11", "--measure", "cc"]}
        digests = {}
        for name, argv in argvs.items():
            out = tmp_path / f"{name}.csv"
            assert run(["converge", *argv, "--out", str(out)]) == 0
            digests[name] = self._digest(out)
        assert digests == self.CONVERGE

    def test_converge_mean_of_nine_trials(self, tmp_path):
        """From 8 trials on, np.mean of a list sums pairwise, and each
        cell's mean must be that sum, not the trials added one after
        another."""
        out = tmp_path / "easy9.csv"
        assert run(["converge", "--preset", "easy", "--trials", "9", "--seed", "3", "--out", str(out)]) == 0
        assert self._digest(out) == "bb492acc3391bf08b074ad3897b18acdb24b035566d991894a635a6e7f321fad"


def _carry_frames() -> list:
    """Two devices whose frames share times, some rounding up to the next
    whole second."""
    return [(f"02:00:00:00:01:0{2 - i}", event_array(times, sizes))
            for i, (times, sizes) in enumerate([([0.5, 1.9999996, 3.0000004], [64, 1500, 700]),
                                                ([1.9999996, 1.9999996, 2.9999995], [100, 64, 1400])])]


class TestCaptureGoldenBytes:
    """sha256 of simulated captures, as the per-frame writer built them."""

    EASY3 = {
        "ethernet": "8a5a7459befc3306a928470cfd789ca1c7569e5b9422416189bd18c3461fac6d",
        "radiotap": "8191a148d5f4e9d9da7ab12624c053aa592472d631b146ee12d9329e4b18d12a",
    }
    EASY70_5 = {
        "ethernet": "38049d57112a88779cd26d282bab07a403abe278d82bfc091db3aa0571e92d7d",
        "radiotap": "703b7340854c14aee63998e1ca8bda345016561353e4bfc51f7c130e638fc854",
    }
    CARRY = {
        "ethernet": "1f0e53b456a7b37a362fbcce1ab1ca7f9e192aefd2c7ffea1832df75dcc1beda",
        "radiotap": "1a9e7dd0f3d07555e1ee9942ec2f27d5f109bf31abc61313a20a6e9eed159c70",
    }

    @pytest.mark.parametrize("link", ["ethernet", "radiotap"])
    def test_simulate_pcap_out(self, link, tmp_path):
        capture = tmp_path / "capture.pcap"
        assert run(["simulate", "--preset", "easy", "--seed", "3", "--link", link,
                    "--out-dir", str(tmp_path / "scene"), "--pcap-out", str(capture)]) == 0
        assert hashlib.sha256(capture.read_bytes()).hexdigest() == self.EASY3[link]

    @pytest.mark.parametrize("link", ["ethernet", "radiotap"])
    def test_easy70_in_time_windows(self, link):
        """The 1.85 GB easy70 capture, hashed from one write per ten-second
        window: every window keeps all traces, so its records are the
        whole capture's records of that window, heads and order included."""
        dataset = simulate.render_scenario(simulate.preset_scenario("easy70", 5))
        frames = [(tr.device_id, simulate.packetize(tr.step_bytes, 1.0, tr.delay)) for tr in dataset.traces]
        digest = hashlib.sha256()
        for lo in range(0, 60, 10):
            hi = math.inf if lo == 50 else lo + 10
            window = [(device_id, events[(events["timestamp"] >= lo) & (events["timestamp"] < hi)])
                      for device_id, events in frames]
            data = simulate.write_pcap(window, link=link)
            digest.update(data if lo == 0 else data[GLOBAL_HEADER_LEN:])
        assert digest.hexdigest() == self.EASY70_5[link]

    @pytest.mark.parametrize("link", ["ethernet", "radiotap"])
    def test_microsecond_carry(self, link):
        data = simulate.write_pcap(_carry_frames(), link=link)
        assert hashlib.sha256(data).hexdigest() == self.CARRY[link]


@pytest.fixture
def synthetic_samples(tmp_path):
    path = tmp_path / "synthetic.json"
    path.write_text(json.dumps(_synthetic_rows()))
    return path


def _near_far_samples(directory):
    """Labeled samples of near scenes at seeds 100-105, then far scenes at
    seeds 200-205, merged into one file in that order."""
    paths = []
    for regime, base_seed in (("near", 100), ("far", 200)):
        for seed in range(6):
            out_dir = directory / f"{regime}{seed}"
            run(["simulate", "--preset", regime, "--seed", str(base_seed + seed),
                 "--out-dir", str(out_dir)])
            report = out_dir / "samples.json"
            run(["analyze", "--reference", str(out_dir / "reference.csv"),
                 "--devices", str(out_dir / "devices.csv"),
                 "--manifest", str(out_dir / "manifest.json"),
                 "--out", str(report)])
            paths.append(report)
    merged = []
    for p in paths:
        merged.extend(json.loads(p.read_text()))
    combined = directory / "samples.json"
    combined.write_text(json.dumps(merged))
    return combined


class TestVerdictGoldenBytes:
    """sha256 of the verdict outputs (classify, agreement, portability and
    converge) as the per-sample decision loops wrote them.  Like the
    training hashes, they hold for this float arithmetic."""

    DIGESTS = {
        "classify": "8154c610938f4f7ccaedb6ae3a201041a527101ea5d4bb7cfe6ed4510d9b31e2",
        "classify_thresholds": "b85ce4f81bc53040cd59c6cfb826818ddb0843cf11b1d7ccd6ca9e9ae9da753f",
        "classify_model": "af39a2242083c493b99027dde58ac5f4fe3e7fb817378dfe8c07ca6bc9b4df11",
        "classify_model4": "c65e4a781d0cf65b60b73dfafcc0c123086b51e55d91676cc1371e817fd41c64",
        "classify_samples_model4": "13588c927fa482c9f7303568844e8c4755641bec6a306285997fa8d83d6ec86a",
        "agreement": "d1a7d13e1c5b9b7debf6123de0ca5950d5fecd7347e1534562294f477cea6e7a",
        "agreement_thresholds": "7ae9fed29cc2c6078878b5f3d5e12018a7ad81197bb6bc0fe66712d68f7497c9",
        "portability_kld": "6e94c0f0a9ad20c5125da3e4b67991d934a1554d629d7e0e1b7225bd75c1f7fe",
        "portability_cc": "103ca5b781bb5ba5f56023fb1f1e01be2b423e42332c5aaea54bbb1b19307c04",
        "converge_model4": "004c907fe0eff2d1b77adbb5866a0c508ce9bb6fe57e65e70cc95ef55688e9e6",
        "converge_dtw": "b4137d2cedab372194f81733c6205fde97087817dc732b73700005443702c53a",
    }

    def test_verdict_outputs(self, tmp_path):
        assert run(["simulate", "--preset", "easy", "--seed", "3", "--out-dir", str(tmp_path / "scene")]) == 0
        report, samples = str(tmp_path / "report.json"), str(_near_far_samples(tmp_path))
        assert run(["analyze", "--reference", str(tmp_path / "scene" / "reference.csv"),
                    "--devices", str(tmp_path / "scene" / "devices.csv"), "--format", "json",
                    "--out", report]) == 0
        model, model4 = str(tmp_path / "model.json"), str(tmp_path / "model4.json")
        assert run(["train", "--samples", samples, "--layers", "8", "--seed", "1", "--out", model]) == 0
        assert run(["train", "--samples", samples, "--layers", "5,4", "--activation", "relu",
                    "--features", "cc,dtw,kld,jsd", "--seed", "2", "--out", model4]) == 0
        argvs = {
            "classify": ["classify", "--report", report, "--format", "json"],
            "classify_thresholds": ["classify", "--report", report, "--measures", "cc,dtw,kld,jsd",
                                    "--thresholds", "cc=0.5,dtw=20,kld=0.1,jsd=0.01"],
            "classify_model": ["classify", "--report", report, "--model", model, "--format", "json"],
            "classify_model4": ["classify", "--report", report, "--model", model4],
            "classify_samples_model4": ["classify", "--report", samples, "--model", model4, "--format", "json"],
            "agreement": ["agreement", "--samples", samples],
            "agreement_thresholds": ["agreement", "--samples", samples, "--measures", "cc,dtw,kld,jsd",
                                     "--thresholds", "cc=0.1,dtw=30,kld=0.5,jsd=0.02"],
            "portability_kld": ["portability", "--samples", samples, "--partition-tag", "regime",
                                "--trainer", "kld", "--seed", "1"],
            "portability_cc": ["portability", "--samples", samples, "--partition-tag", "regime",
                               "--trainer", "cc", "--seed", "2"],
            "converge_model4": ["converge", "--preset", "far", "--trials", "2", "--seed", "5", "--model", model4],
            "converge_dtw": ["converge", "--preset", "near", "--trials", "2", "--seed", "6", "--measure", "dtw"],
        }
        digests = {}
        for name, argv in argvs.items():
            out = tmp_path / f"{name}.out"
            assert run([*argv, "--out", str(out)]) == 0
            digests[name] = hashlib.sha256(out.read_bytes()).hexdigest()
        assert digests == self.DIGESTS


class TestClassifyReports:
    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        """An easy scene whose first device sends a constant 500 bytes a step,
        its CSV and JSON similarity reports, and a model."""
        d = tmp_path_factory.mktemp("scene")
        assert run(["simulate", "--preset", "easy", "--seed", "2", "--out-dir", str(d)]) == 0
        lines = (d / "devices.csv").read_text().splitlines()
        lines[3:] = ["500," + line.split(",", 1)[1] for line in lines[3:]]
        (d / "devices.csv").write_text("\n".join(lines) + "\n")
        for fmt in ("csv", "json"):
            assert run(["analyze", "--reference", str(d / "reference.csv"), "--devices", str(d / "devices.csv"),
                        "--format", fmt, "--out", str(d / f"report.{fmt}")]) == 0
        (d / "samples.json").write_text(json.dumps(_synthetic_rows()))
        assert run(["train", "--samples", str(d / "samples.json"), "--layers", "4", "--max-iter", "50",
                    "--features", "cc,dtw,kld,jsd", "--out", str(d / "model.json")]) == 0
        return d

    def _classify(self, scene, report, argv, out):
        assert run(["classify", "--report", str(scene / report), *argv, "--out", str(out)]) == 0
        return out.read_text()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_undefined_measure_is_indeterminate_not_spy(self, fmt, scene, tmp_path):
        text = self._classify(scene, "report.json", ["--format", fmt], tmp_path / "verdicts")
        if fmt == "json":
            rows = json.loads(text)
        else:
            header, *lines = text.splitlines()
            rows = [dict(zip(header.split(","), line.split(","))) for line in lines]
        constant = rows[0]
        assert constant["device_id"] == (scene / "devices.csv").read_text().splitlines()[2].split(",")[0]
        for measure in ("cc", "kld"):
            assert constant[f"spy_{measure}"] in (False, "False")
            assert constant[f"indeterminate_{measure}"] in (True, "True")
        assert "indeterminate_jsd" not in constant or constant["indeterminate_jsd"] == ""
        assert all(row.get("indeterminate_cc") in (None, "") for row in rows[1:])

    @pytest.mark.parametrize("argv", [[], ["--format", "json"],
                                      ["--measures", "cc,dtw,kld,jsd", "--thresholds", "cc=0.5,dtw=20"],
                                      ["--model", "MODEL"], ["--model", "MODEL", "--format", "json"]])
    def test_csv_report_classifies_as_json_report(self, argv, scene, tmp_path):
        argv = [str(scene / "model.json") if a == "MODEL" else a for a in argv]
        assert (self._classify(scene, "report.csv", argv, tmp_path / "from_csv")
                == self._classify(scene, "report.json", argv, tmp_path / "from_json"))

    @pytest.mark.parametrize("argv", [[], ["--format", "json"], ["--model", "MODEL"]])
    @pytest.mark.parametrize("blank", ["trailing", "inner", "spaces"])
    def test_blank_lines_in_csv_report_are_skipped(self, blank, argv, scene, tmp_path):
        """As in the series and device-set CSV readers, a blank line in a
        CSV report is skipped."""
        argv = [str(scene / "model.json") if a == "MODEL" else a for a in argv]
        text = (scene / "report.csv").read_text()
        if blank == "trailing":
            text += "\n"
        else:
            header, first, rest = text.split("\n", 2)
            text = "\n".join([header, first, "" if blank == "inner" else " \t ", rest])
        (tmp_path / "blank.csv").write_text(text)
        assert (self._classify(tmp_path, "blank.csv", argv, tmp_path / "from_blank")
                == self._classify(scene, "report.csv", argv, tmp_path / "from_csv"))

    @pytest.mark.parametrize("cell,value", [("dtw", ""), ("jsd", ""), ("cc", "nan"), ("dtw", "inf"),
                                            ("kld", "abc"), ("width", "extra")])
    def test_malformed_csv_cell_one_line_exit_1(self, cell, value, scene, tmp_path, capsys):
        header, first, *rest = (scene / "report.csv").read_text().splitlines()
        if cell == "width":
            first += "," + value
        else:
            cells = dict(zip(header.split(","), first.split(",")))
            cells[cell] = value
            first = ",".join(cells.values())
        report = tmp_path / "report.csv"
        report.write_text("\n".join([header, first, *rest]) + "\n")
        out = tmp_path / "verdicts.csv"
        assert run(["classify", "--report", str(report), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["classify", "--report", "REPORT", "--thresholds", "default"],
        ["classify", "--report", "REPORT", "--measures", "kld"],
        ["converge", "--preset", "easy", "--threshold", "0.5"],
        ["converge", "--preset", "easy", "--measure", "kld"],
    ])
    def test_threshold_flag_with_model_one_line_exit_2(self, argv, scene, tmp_path, capsys):
        argv = [str(scene / "report.json") if a == "REPORT" else a for a in argv]
        out = tmp_path / "out"
        assert run([*argv, "--model", str(scene / "model.json"), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "--model" in err
        assert not out.exists()


class TestTrainAndStudies:
    @pytest.fixture
    def samples_file(self, tmp_path):
        return _near_far_samples(tmp_path)

    def test_train_and_classify_with_model(self, samples_file, tmp_path):
        model = tmp_path / "model.json"
        assert run(["train", "--samples", str(samples_file), "--layers", "8",
                    "--seed", "1", "--out", str(model)]) == 0
        payload = json.loads(model.read_text())
        assert payload["layer_sizes"] == [6, 8, 1]

        out_dir = tmp_path / "fresh"
        run(["simulate", "--preset", "near", "--seed", "999", "--out-dir", str(out_dir)])
        report = tmp_path / "fresh.json"
        run(["analyze", "--reference", str(out_dir / "reference.csv"),
             "--devices", str(out_dir / "devices.csv"), "--format", "json",
             "--out", str(report)])
        verdicts = tmp_path / "fresh_verdicts.json"
        assert run(["classify", "--report", str(report), "--model", str(model),
                    "--format", "json", "--out", str(verdicts)]) == 0
        decided = json.loads(verdicts.read_text())
        assert all(0.0 < d["probability"] < 1.0 for d in decided)

    def test_portability_command(self, samples_file, tmp_path):
        out = tmp_path / "matrix.csv"
        assert run(["portability", "--samples", str(samples_file),
                    "--partition-tag", "regime", "--trainer", "kld",
                    "--seed", "1", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "train\\test,far,near,both"
        assert len(lines) == 4

    def test_agreement_command(self, samples_file, tmp_path):
        out = tmp_path / "agreement.json"
        assert run(["agreement", "--samples", str(samples_file), "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert "total_false_positives" in payload

    def test_grid_search_command(self, synthetic_samples, tmp_path):
        out = tmp_path / "grid.json"
        model = tmp_path / "best.json"
        assert run(["grid-search", "--samples", str(synthetic_samples), "--folds", "3",
                    "--seed", "2", "--out", str(out), "--fit-out", str(model)]) == 0
        payload = json.loads(out.read_text())
        assert payload["grid_points"] == 8
        assert 0.0 <= payload["cv_f1"] <= 1.0
        assert model.exists()

    @pytest.mark.parametrize("argv", [
        ["train", "--layers", "4", "--max-iter", "50"],
        ["grid-search", "--folds", "3"],
        ["portability", "--partition-tag", "regime"],
    ])
    def test_default_seed_is_zero(self, argv, synthetic_samples, tmp_path):
        outputs = []
        for seed_flag in ([], ["--seed", "0"]):
            out = tmp_path / f"out{len(outputs)}"
            assert run(argv + ["--samples", str(synthetic_samples), "--out", str(out)] + seed_flag) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class TestConverge:
    def test_final_row_matches_full_window(self, tmp_path):
        out = tmp_path / "curve.csv"
        assert run(["converge", "--preset", "easy", "--seed", "21", "--trials", "1",
                    "--measure", "kld", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "t,mean_f1,mean_accuracy,mean_precision,mean_recall"
        last_t, last_f1 = lines[-1].split(",")[:2]
        assert last_t == "60"

        # classify the full window directly and compare
        out_dir = tmp_path / "sim"
        run(["simulate", "--preset", "easy", "--seed", "21", "--out-dir", str(out_dir)])
        report = tmp_path / "report.json"
        run(["analyze", "--reference", str(out_dir / "reference.csv"),
             "--devices", str(out_dir / "devices.csv"), "--format", "json",
             "--out", str(report)])
        rows = json.loads(report.read_text())
        manifest = json.loads((out_dir / "manifest.json").read_text())
        truth = {d["device_id"]: d["spying"] for d in manifest["devices"]}
        preds = [(r["kld"] is not None and r["kld"] <= 0.021) for r in rows]
        labels = [truth[r["device_id"]] for r in rows]
        from simobs.classify import evaluate

        assert float(last_f1) == evaluate(preds, labels).f1

    def test_deterministic(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            assert run(["converge", "--preset", "easy", "--seed", "4", "--trials", "2",
                        "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @staticmethod
    def _unscored(name):
        def kernel(*args):
            raise AssertionError(f"converge ran {name}")
        return kernel

    def test_kld_threshold_scores_kld_only(self, tmp_path, monkeypatch):
        for name in ("_cc_rows", "_dtw_rows", "_jsd_rows"):
            monkeypatch.setattr(simobs.similarity, name, self._unscored(name))
        out = tmp_path / "curve.csv"
        assert run(["converge", "--preset", "easy70", "--trials", "1", "--measure", "kld", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TestSimilarityGoldenBytes.CONVERGE["easy70"]

    def test_default_model_never_scores_dtw(self, synthetic_samples, tmp_path, monkeypatch):
        model = tmp_path / "model.json"
        assert run(["train", "--samples", str(synthetic_samples), "--layers", "4", "--out", str(model)]) == 0
        argv = ["converge", "--preset", "easy", "--seed", "8", "--model", str(model), "--out"]
        assert run([*argv, str(tmp_path / "all.csv")]) == 0
        monkeypatch.setattr(simobs.similarity, "_dtw_rows", self._unscored("_dtw_rows"))
        assert run([*argv, str(tmp_path / "no_dtw.csv")]) == 0
        assert (tmp_path / "no_dtw.csv").read_bytes() == (tmp_path / "all.csv").read_bytes()


    def test_series_commands_build_no_frames(self, synthetic_samples, tmp_path, monkeypatch):
        """converge and a simulate without --pcap-out bin per-step byte
        totals; only a capture packetizes."""
        model = tmp_path / "model.json"
        assert run(["train", "--samples", str(synthetic_samples), "--layers", "4", "--out", str(model)]) == 0
        argvs = [["converge", "--preset", "far", "--seed", "8", "--model", str(model), "--out", "model.csv"],
                 ["simulate", "--preset", "far", "--seed", "2", "--out-dir", "far"]]

        def outputs(name):
            root = tmp_path / name
            root.mkdir()
            for argv in argvs:
                assert run([*argv[:-1], str(root / argv[-1])]) == 0
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        framed = outputs("framed")
        monkeypatch.setattr(simulate, "packetize", self._unscored("packetize"))
        assert outputs("frameless") == framed
        assert len(framed) == 4
        out = tmp_path / "curve.csv"
        assert run(["converge", "--preset", "easy70", "--trials", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TestSimilarityGoldenBytes.CONVERGE["easy70"]
        with pytest.raises(AssertionError, match="packetize"):  # a capture still packetizes
            run(["simulate", "--preset", "far", "--out-dir", str(tmp_path / "capture"),
                 "--pcap-out", str(tmp_path / "capture.pcap")])


class TestReportBytesRoundTrip:
    """analyze's CSV report, JSON report and samples file, each read into
    a Report and written back by its own codec, are the bytes analyze
    wrote."""

    @pytest.mark.parametrize("scene,seed", [("easy", 4), ("far", 9), ("constant reference", 5)])
    def test_read_then_write_gives_the_same_bytes(self, scene, seed, tmp_path):
        d = tmp_path / "scene"
        assert run(["simulate", "--preset", scene.split()[0].replace("constant", "easy"), "--seed", str(seed),
                    "--out-dir", str(d)]) == 0
        if scene == "constant reference":
            lines = (d / "reference.csv").read_text().splitlines()
            lines[3:] = [line.split(",")[0] + ",700" for line in lines[3:]]
            (d / "reference.csv").write_text("\n".join(lines) + "\n")
        inputs = ["--reference", str(d / "reference.csv"), "--devices", str(d / "devices.csv")]
        codecs = {"report.csv": ([], read_report, write_report_csv),
                  "report.json": (["--format", "json"], read_report, write_report_json),
                  "samples.json": (["--manifest", str(d / "manifest.json")], read_samples, write_report_json)}
        for name, (extra, read, write) in codecs.items():
            assert run(["analyze", *inputs, *extra, "--out", str(d / name)]) == 0
            with open(d / name) as fh:
                report = read(fh)
            buf = io.StringIO()
            write(report, buf)
            assert buf.getvalue() == (d / name).read_text(), name
        rows = json.loads((d / "samples.json").read_text())
        assert len(rows) == 10 and sum(row["label"] for row in rows) == 1
        if scene == "constant reference":
            for row in rows:
                assert row["cc"] is None and row["kld"] is None
                assert {"ref_degenerate", "cc_undefined", "kld_undefined"} <= set(row["flags"])
        else:
            assert any(row["cc"] is not None for row in rows)


class TestUsageErrors:
    def test_usage_error_leaves_the_parser_for_later_commands(self, synthetic_samples, tmp_path):
        """main builds its parser once per process; a usage error (exit 2)
        leaves it as it was for the commands run after it."""
        argvs = [["converge", "--preset", "easy", "--seed", "2", "--measure", "cc", "--out", "curve.csv"],
                 ["agreement", "--samples", str(synthetic_samples), "--out", "agreement.json"],
                 ["simulate", "--preset", "far", "--seed", "2", "--out-dir", "far"]]

        def outputs(name):
            root = tmp_path / name
            root.mkdir()
            for argv in argvs:
                assert run([*argv[:-1], str(root / argv[-1])]) == 0
            return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}

        before = outputs("before")
        for argv in (["converge", "--preset", "easy", "--trials", "x"], ["simulate", "--preset", "easy"],
                     ["converge", "--preset", "easy", "--format", "json"]):
            with pytest.raises(SystemExit) as exc:
                run(argv)
            assert exc.value.code == 2
        assert cli.build_parser() is cli.build_parser()
        assert outputs("after") == before
        out = tmp_path / "easy70.csv"
        assert run(["converge", "--preset", "easy70", "--trials", "1", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == TestSimilarityGoldenBytes.CONVERGE["easy70"]

    def test_extract_needs_exactly_one_input(self, pcap_file, video_file):
        assert run(["extract", "--pcap", str(pcap_file), "--video", str(video_file)]) == 2
        assert run(["extract"]) == 2

    def test_simulate_needs_scenario_or_preset(self, tmp_path):
        assert run(["simulate", "--out-dir", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("argv", [
        ["agreement", "--samples", "s.json", "--step", "5"],
        ["agreement", "--samples", "s.json", "--window", "3"],
        ["agreement", "--samples", "s.json", "--format", "json"],
        ["agreement", "--samples", "s.json", "--seed", "9"],
        ["analyze", "--reference", "r.csv", "--devices", "d.csv", "--seed", "1"],
        ["classify", "--report", "r.json", "--window", "3"],
        ["train", "--samples", "s.json", "--format", "json"],
        ["simulate", "--preset", "easy", "--out-dir", "x", "--step", "2"],
        ["converge", "--preset", "easy", "--format", "json"],
        ["extract", "--pcap", "c.pcap", "--format", "json"],
        ["simulate", "--preset", "easy", "--out-dir", "x", "--out", "y"],
        ["extract", "--pcap", "c.pcap", "--byte-basis", "on_wire"],
    ])
    def test_flag_the_command_never_reads_exits_2(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 2


    @pytest.mark.parametrize("flags", [["--window", "60"], ["--start", "0"], ["--group-by", "mac"],
                                       ["--include-non-data"]])
    def test_extract_video_rejects_pcap_flags(self, flags, video_file, tmp_path, capsys):
        out = tmp_path / "reference.csv"
        assert run(["extract", "--video", str(video_file), "--out", str(out)] + flags) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert flags[0] in err
        assert not out.exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_analyze_manifest_rejects_format(self, fmt, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["simulate", "--preset", "easy", "--out-dir", str(scene)]) == 0
        out = tmp_path / "samples.json"
        assert run(["analyze", "--reference", str(scene / "reference.csv"), "--devices", str(scene / "devices.csv"),
                    "--manifest", str(scene / "manifest.json"), "--format", fmt, "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert "--format" in err
        assert not out.exists()

    def test_grid_search_unwritable_fit_out(self, synthetic_samples, tmp_path, capsys):
        out = tmp_path / "grid.json"
        assert run(["grid-search", "--samples", str(synthetic_samples), "--folds", "3", "--out", str(out),
                    "--fit-out", str(tmp_path / "missing" / "model.json")]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert "missing" in err
        assert not out.exists()

    def test_simulate_unwritable_pcap_out(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["simulate", "--preset", "easy", "--out-dir", str(scene),
                    "--pcap-out", str(tmp_path / "missing" / "c.pcap")]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert "missing" in err
        assert list(scene.iterdir()) == []

    @pytest.mark.parametrize("command, flags", [("train", []), ("grid-search", ["--folds", "3"]),
                                                ("portability", ["--partition-tag", "regime"])])
    def test_negative_seed_one_line_exit_2(self, command, flags, synthetic_samples, tmp_path, capsys):
        out = tmp_path / "out"
        assert run([command, "--samples", str(synthetic_samples), "--seed", "-1", *flags, "--out", str(out)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert "seed must be >= 0" in err
        assert not out.exists()

    def test_negative_scenario_seed_still_runs(self, tmp_path):
        """A scenario seed only names sub-seeds through ``derive_seed``."""
        assert run(["simulate", "--preset", "far", "--seed", "-1", "--out-dir", str(tmp_path / "far")]) == 0
        assert run(["converge", "--preset", "far", "--seed", "-1", "--out", str(tmp_path / "curve.csv")]) == 0
        assert len((tmp_path / "curve.csv").read_text().splitlines()) == 60

    @pytest.mark.parametrize("fit_out", ["grid.json", "./grid.json", "sub/../grid.json"])
    def test_grid_search_outputs_name_one_file(self, fit_out, synthetic_samples, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        assert run(["grid-search", "--samples", str(synthetic_samples), "--folds", "3", "--out", "grid.json",
                    "--fit-out", fit_out]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert "would overwrite" in err
        assert not (tmp_path / "grid.json").exists()

    def test_grid_search_outputs_both_stdout(self, synthetic_samples, capsys):
        assert run(["grid-search", "--samples", str(synthetic_samples), "--folds", "3", "--out", "-",
                    "--fit-out", "-"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "would overwrite" in captured.err and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize("name", ["devices.csv", "manifest.json", "../scene/reference.csv"])
    def test_simulate_capture_names_a_scene_file(self, name, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["simulate", "--preset", "easy", "--out-dir", str(scene), "--pcap-out", str(scene / name)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert "would overwrite" in err
        assert list(scene.iterdir()) == []

    def test_simulate_capture_through_a_symlink(self, tmp_path, capsys):
        scene, link = tmp_path / "scene", tmp_path / "link"
        scene.mkdir()
        link.symlink_to(scene)
        assert run(["simulate", "--preset", "easy", "--out-dir", str(scene),
                    "--pcap-out", str(link / "devices.csv")]) == 2
        assert "would overwrite" in capsys.readouterr().err
        assert list(scene.iterdir()) == []

    def test_simulate_link_needs_pcap_out(self, tmp_path, capsys):
        scene = tmp_path / "scene"
        assert run(["simulate", "--preset", "easy", "--link", "radiotap", "--out-dir", str(scene)]) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert "--pcap-out" in err
        assert not scene.exists()

    @pytest.mark.parametrize("flags", [["--step", "0"], ["--step", "-1"], ["--window", "0"]])
    def test_empty_extract_window_one_line_exit_2(self, flags, pcap_file, tmp_path, capsys):
        out = tmp_path / "devices.csv"
        assert run(["extract", "--pcap", str(pcap_file), "--out", str(out)] + flags) == 2
        (err,) = capsys.readouterr().err.splitlines()
        assert "window needs" in err
        assert not out.exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_converge_needs_a_trial(self, trials, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        assert run(["converge", "--preset", "easy", "--trials", trials, "--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--layers", "abc"], ["--layers", ""], ["--layers", "0"],
                                       ["--layers", "4,-2"], ["--max-iter", "0"]])
    def test_bad_train_flag_one_line_exit_2(self, flags, synthetic_samples, tmp_path, capsys):
        out = tmp_path / "model.json"
        assert run(["train", "--samples", str(synthetic_samples), "--out", str(out)] + flags) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["classify", "agreement"])
    @pytest.mark.parametrize("flag", [["--measures", "cc,foo"], ["--thresholds", "kld=abc"],
                                      # a threshold for a measure that is not classified
                                      ["--thresholds", "dtw=5"], ["--measures", "cc", "--thresholds", "kld=0.1"]])
    def test_bad_threshold_flag_one_line_exit_2(self, command, flag, synthetic_samples, tmp_path, capsys):
        if command == "classify":
            report = tmp_path / "report.json"
            report.write_text('[{"device_id": "x", "cc": 0.5, "dtw": 1.0, "kld": 0.01, "jsd": 0.001}]')
            argv = ["classify", "--report", str(report)]
        else:
            argv = ["agreement", "--samples", str(synthetic_samples)]
        out = tmp_path / "out.json"
        assert run(argv + flag + ["--out", str(out)]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()


# JSON writes these as NaN, Infinity and -Infinity.
NON_FINITE_MEASURES = [("cc", math.nan), ("dtw", math.inf), ("kld", -math.inf), ("jsd", math.nan)]


class TestMalformedInput:
    @pytest.mark.parametrize("text", [
        '[{"device_id": "x", "cc": 0.5',
        '[{"device_id": "x"}]',
        '{"device_id": "x"}',
        '[{"device_id": 5, "cc": 0.5, "dtw": 1.0, "kld": 0.01, "jsd": 0.001}]',
    ])
    def test_garbled_report_one_line_exit_1(self, text, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(text)
        out = tmp_path / "verdicts.json"
        assert run(["classify", "--report", str(report), "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("text", ['[{"cc": 0.1, "dtw": 1.0, "kld": 0.01, "jsd": 0.001}]', "[{"])
    def test_garbled_samples_one_line_exit_1(self, text, tmp_path, capsys):
        samples = tmp_path / "samples.json"
        samples.write_text(text)
        out = tmp_path / "model.json"
        assert run(["train", "--samples", str(samples), "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("measure,value", NON_FINITE_MEASURES)
    def test_non_finite_report_measure_one_line_exit_1(self, measure, value, tmp_path, capsys):
        row = {"device_id": "x", "cc": 0.5, "dtw": 1.0, "kld": 0.01, "jsd": 0.001, "flags": []}
        report = tmp_path / "report.json"
        report.write_text(json.dumps([{**row, measure: value}]))
        out = tmp_path / "verdicts.json"
        assert run(["classify", "--report", str(report), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"measure {measure} is" in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("measure,value", NON_FINITE_MEASURES)
    @pytest.mark.parametrize("argv", [["train"], ["grid-search", "--folds", "3"],
                                      ["portability", "--partition-tag", "regime"], ["agreement"]])
    def test_non_finite_sample_measure_one_line_exit_1(self, argv, measure, value, tmp_path, capsys):
        rows = _synthetic_rows()
        rows[5][measure] = value
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(rows))
        out = tmp_path / "out"
        assert run(argv + ["--samples", str(samples), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"measure {measure} is" in err[0]
        assert not out.exists()

    def test_non_integer_device_cell_one_line_exit_1(self, tmp_path, capsys):
        out_dir = tmp_path / "sim"
        assert run(["simulate", "--preset", "easy", "--seed", "1", "--out-dir", str(out_dir)]) == 0
        devices = out_dir / "devices.csv"
        lines = devices.read_text().splitlines()
        lines[3] = "x" + lines[3]
        devices.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        assert run(["analyze", "--reference", str(out_dir / "reference.csv"),
                    "--devices", str(devices), "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        """An easy scene and its JSON similarity report."""
        d = tmp_path_factory.mktemp("scene")
        assert run(["simulate", "--preset", "easy", "--seed", "1", "--out-dir", str(d)]) == 0
        assert run(["analyze", "--reference", str(d / "reference.csv"), "--devices", str(d / "devices.csv"),
                    "--format", "json", "--out", str(d / "report.json")]) == 0
        return d

    @pytest.mark.parametrize("text", ['{"devices": [{"device_id": "02:00', '[{"devices": []}]'])
    def test_garbled_manifest_one_line_exit_1(self, text, scene, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(text)
        out = tmp_path / "samples.json"
        assert run(["analyze", "--reference", str(scene / "reference.csv"),
                    "--devices", str(scene / "devices.csv"), "--manifest", str(manifest),
                    "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    @pytest.mark.parametrize("garble", ["text tags", "tag not a string", "text spying"])
    def test_mistyped_manifest_field_one_line_exit_1(self, garble, scene, tmp_path, capsys):
        payload = json.loads((scene / "manifest.json").read_text())
        if garble == "text tags":  # not read as the set of its characters
            payload["scenario"]["tags"] = "regime=near"
        elif garble == "tag not a string":
            payload["scenario"]["tags"] = [7]
        else:
            payload["devices"][0]["spying"] = "false"
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "samples.json"
        assert run(["analyze", "--reference", str(scene / "reference.csv"),
                    "--devices", str(scene / "devices.csv"), "--manifest", str(manifest),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and " must be " in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("garble", ["int ids", "device unlisted"])
    def test_manifest_that_misses_a_device_one_line_exit_1(self, garble, scene, tmp_path, capsys):
        """A device the manifest does not name is not labelled not spy."""
        payload = json.loads((scene / "manifest.json").read_text())
        if garble == "int ids":
            for i, device in enumerate(payload["devices"]):
                device["device_id"] = i
        else:
            del payload["devices"][-1]
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(payload))
        out = tmp_path / "samples.json"
        assert run(["analyze", "--reference", str(scene / "reference.csv"),
                    "--devices", str(scene / "devices.csv"), "--manifest", str(manifest),
                    "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and ("must be a string" in err[0] or "does not list 1 of the 10" in err[0])
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [("label", "false"), ("label", 1), ("tags", "regime=near"),
                                           ("tags", ["regime=near", None]), ("flags", "cc_undefined")])
    @pytest.mark.parametrize("argv", [["train"], ["grid-search", "--folds", "3"],
                                      ["portability", "--partition-tag", "regime"], ["agreement"]])
    def test_mistyped_sample_field_one_line_exit_1(self, argv, key, value, tmp_path, capsys):
        rows = _synthetic_rows()
        rows[5][key] = value
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(rows))
        out = tmp_path / "out"
        assert run(argv + ["--samples", str(samples), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and f"{key} must be " in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("argv", [["train"], ["grid-search", "--folds", "3"],
                                      ["portability", "--partition-tag", "regime"], ["agreement"]])
    def test_non_string_device_id_in_samples_one_line_exit_1(self, argv, tmp_path, capsys):
        """A samples row may leave out its device id, as these rows do, but
        one that is there is a string, as a report row's is."""
        rows = _synthetic_rows()
        assert run(argv + ["--samples", str(self._samples(tmp_path, rows)), "--out", str(tmp_path / "ok")]) == 0
        rows[0]["device_id"] = 5
        samples = self._samples(tmp_path, rows)
        for command in (argv, ["classify", "--report"]):
            out = tmp_path / "out"
            flag = [] if command[0] == "classify" else ["--samples"]
            assert run(command + flag + [str(samples), "--out", str(out)]) == 1
            err = capsys.readouterr().err.splitlines()
            assert err == ["error: device_id must be a string, got 5"]
            assert not out.exists()

    def test_report_row_without_device_id_one_line_exit_1(self, tmp_path, capsys):
        """Only a samples file may leave a row's device id out; classify
        reads a report, and names the row that lacks one."""
        rows = [{**row, "device_id": f"d{i}"} for i, row in enumerate(_synthetic_rows())]
        out = tmp_path / "verdicts.json"
        assert run(["classify", "--report", str(self._samples(tmp_path, rows)), "--out", str(out)]) == 0
        out.unlink()
        del rows[3]["device_id"]
        assert run(["classify", "--report", str(self._samples(tmp_path, rows)), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "device_id" in err[0] and "row 3 " in err[0]
        assert not out.exists()

    @staticmethod
    def _samples(tmp_path, rows):
        path = tmp_path / "samples.json"
        path.write_text(json.dumps(rows))
        return path

    @pytest.mark.parametrize("flags", ["cc_undefined", ["cc_undefined", 1]])
    def test_mistyped_report_flags_one_line_exit_1(self, flags, tmp_path, capsys):
        row = {"device_id": "x", "cc": 0.5, "dtw": 1.0, "kld": 0.01, "jsd": 0.001, "flags": flags}
        report = tmp_path / "report.json"
        report.write_text(json.dumps([row]))
        out = tmp_path / "verdicts.json"
        assert run(["classify", "--report", str(report), "--out", str(out)]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and "flags must be " in err[0]
        assert not out.exists()

    @pytest.mark.parametrize("garble", ["truncated", "list", "no layer_sizes", "no feature_subset",
                                        "unknown activation", "unknown feature", "short mean", "empty feature_subset",
                                        "repeated feature", "version true", "version 1.0", "version 2"])
    def test_garbled_model_one_line_exit_1(self, garble, scene, synthetic_samples, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(["train", "--samples", str(synthetic_samples), "--layers", "3", "--max-iter", "5",
                    "--out", str(model)]) == 0
        text = model.read_text()
        payload = json.loads(text)
        if garble == "truncated":
            text = text[: len(text) // 2]
        else:
            if garble == "list":
                payload = [payload]
            elif garble.startswith("no "):
                del payload[garble.removeprefix("no ")]
            elif garble == "unknown activation":
                payload["activation"] = "softmax"
            elif garble == "unknown feature":
                payload["feature_subset"][0] = "dtv"
            elif garble == "repeated feature":  # cc,kld,jsd as cc,cc,jsd: the arrays still fit
                payload["feature_subset"][1] = payload["feature_subset"][0]
            elif garble.startswith("version "):  # true == 1 == 1.0 in Python, but only 1 is the version
                payload["format_version"] = json.loads(garble.removeprefix("version "))
            elif garble == "empty feature_subset":  # a consistent network of no inputs
                payload.update(layer_sizes=[0, 1], weights=[[]], biases=[[0.0]], feature_subset=[],
                               standardization={"mean": [], "std": []})
            else:
                payload["standardization"]["mean"].pop()
            text = json.dumps(payload)
        model.write_text(text)
        out = tmp_path / "verdicts.json"
        assert run(["classify", "--report", str(scene / "report.json"), "--model", str(model),
                    "--out", str(out)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out.exists()

    def test_truncated_scenario_one_line_exit_1(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(simulate.scenario_to_dict(simulate.easy_scenario(seed=1)),
                                       indent=2, sort_keys=True) + "\n")
        scenario.write_text(scenario.read_text()[:100])
        out_dir = tmp_path / "sim"
        assert run(["simulate", "--scenario", str(scenario), "--out-dir", str(out_dir)]) == 1
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert not out_dir.exists()

    def test_no_device_overlaps_reference_exit_1(self, scene, tmp_path, capsys):
        devices = tmp_path / "devices.csv"
        lines = (scene / "devices.csv").read_text().splitlines()
        lines[1] = "1700000000.0," + lines[1].split(",")[1]
        devices.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        assert run(["analyze", "--reference", str(scene / "reference.csv"),
                    "--devices", str(devices), "--out", str(out)]) == 1
        assert capsys.readouterr().err.splitlines() == [
            "error: no overlap: [0.0, 60.0) ends before [1700000000.0, 1700000060.0) begins"]
        assert not out.exists()


class TestNonFiniteNumbers:
    """A NaN or infinity where a finite number is needed ends in one
    stderr line and exit 1 (in a file) or 2 (in a flag), never a
    traceback or a silently wrong result."""

    @pytest.fixture(scope="class")
    def scene(self, tmp_path_factory):
        d = tmp_path_factory.mktemp("scene")
        assert run(["simulate", "--preset", "easy", "--seed", "1", "--out-dir", str(d)]) == 0
        assert run(["analyze", "--reference", str(d / "reference.csv"), "--devices", str(d / "devices.csv"),
                    "--format", "json", "--out", str(d / "report.json")]) == 0
        return d

    @staticmethod
    def _one_line_error(code, expected, out, capsys) -> str:
        err = capsys.readouterr().err
        assert code == expected
        assert len(err.splitlines()) == 1 and "Traceback" not in err
        assert not out.exists()
        return err

    @pytest.mark.parametrize("target", ["reference.csv", "devices.csv"])
    @pytest.mark.parametrize("preamble", ["nan,1.0", "inf,1.0", "-inf,1.0", "0.0,nan", "0.0,inf"])
    def test_analyze_series_window(self, target, preamble, scene, tmp_path, capsys):
        inputs = {name: scene / name for name in ("reference.csv", "devices.csv")}
        lines = inputs[target].read_text().splitlines()
        lines[1] = preamble
        inputs[target] = tmp_path / target
        inputs[target].write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        code = run(["analyze", "--reference", str(inputs["reference.csv"]),
                    "--devices", str(inputs["devices.csv"]), "--out", str(out)])
        self._one_line_error(code, 1, out, capsys)

    @pytest.mark.parametrize("flags", [["--pcap", "--step", "nan"], ["--pcap", "--step", "inf"],
                                       ["--pcap", "--start", "nan"], ["--pcap", "--start=-inf"],
                                       ["--video", "--step", "nan"], ["--video", "--step", "inf"]])
    def test_extract_window_flag(self, flags, pcap_file, video_file, tmp_path, capsys):
        source = str(pcap_file if flags[0] == "--pcap" else video_file)
        out = tmp_path / "series.csv"
        code = run(["extract", flags[0], source, *flags[1:], "--out", str(out)])
        self._one_line_error(code, 2, out, capsys)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("measure", ["kld", "cc"])
    def test_converge_threshold(self, measure, threshold, tmp_path, capsys):
        out = tmp_path / "curve.csv"
        code = run(["converge", "--preset", "easy", "--measure", measure, f"--threshold={threshold}",
                    "--out", str(out)])
        self._one_line_error(code, 2, out, capsys)

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", ["classify", "agreement"])
    def test_threshold_table(self, command, threshold, scene, synthetic_samples, tmp_path, capsys):
        if command == "classify":
            argv = ["classify", "--report", str(scene / "report.json")]
        else:
            argv = ["agreement", "--samples", str(synthetic_samples)]
        out = tmp_path / "out.json"
        code = run(argv + ["--thresholds", f"kld={threshold}", "--out", str(out)])
        self._one_line_error(code, 2, out, capsys)

    @pytest.mark.parametrize("command", ["classify", "agreement"])
    def test_measure_named_twice(self, command, scene, synthetic_samples, tmp_path, capsys):
        """A repeated measure would count one measure's vote twice, or write one column for two."""
        if command == "classify":
            argv = ["classify", "--report", str(scene / "report.json"), "--measures", "cc,cc"]
        else:
            argv = ["agreement", "--samples", str(synthetic_samples), "--measures", "kld,kld",
                    "--thresholds", "kld=0.5"]
        out = tmp_path / "out.json"
        self._one_line_error(run(argv + ["--out", str(out)]), 2, out, capsys)

    @pytest.mark.parametrize("features", ["cc,cc", "kld,jsd,kld", "cc,dtv"])
    @pytest.mark.parametrize("command", [["train", "--max-iter", "5"], ["grid-search", "--folds", "3"]])
    def test_features_not_a_list_of_distinct_measures(self, command, features, synthetic_samples, tmp_path, capsys):
        """A repeated feature would feed one measure to the network twice."""
        out = tmp_path / "out.json"
        code = run(command + ["--samples", str(synthetic_samples), f"--features={features}", "--out", str(out)])
        assert "none named twice" in self._one_line_error(code, 2, out, capsys)

    @pytest.mark.parametrize("command", ["classify", "agreement"])
    @pytest.mark.parametrize("thresholds", ["kld=1,kld=0.001", "kld=0.001,kld=1"])
    def test_threshold_named_twice(self, command, thresholds, scene, synthetic_samples, tmp_path, capsys):
        """Neither entry wins: the order of the two would decide the verdicts."""
        if command == "classify":
            argv = ["classify", "--report", str(scene / "report.json")]
        else:
            argv = ["agreement", "--samples", str(synthetic_samples)]
        out = tmp_path / "out.json"
        code = run(argv + ["--measures", "kld", "--thresholds", thresholds, "--out", str(out)])
        assert "--thresholds names a measure twice" in self._one_line_error(code, 2, out, capsys)

    @pytest.mark.parametrize("alpha", ["-1", "nan", "inf"])
    def test_train_alpha(self, alpha, synthetic_samples, tmp_path, capsys):
        out = tmp_path / "model.json"
        code = run(["train", "--samples", str(synthetic_samples), "--layers", "4", "--max-iter", "50",
                    f"--alpha={alpha}", "--out", str(out)])
        assert "alpha" in self._one_line_error(code, 2, out, capsys)

    @pytest.mark.parametrize("key, value", [
        (("spies", 0, "delay"), math.nan),
        (("spies", 0, "delay"), -0.9),  # frames before the epoch
        (("spies", 0, "delay"), 5e9),  # frames past 2**32 s
        (("spies", 0, "noise_std"), math.nan),
        (("reference", "idle_bytes_per_step"), math.inf),
        (("step",), math.nan),
        (("background", 7, 1, "ramp_steps"), "x"),
        # a count of steps with a fractional part
        (("spies", 0, "iframe_period"), 2.5),
        (("reference", "iframe_period"), 9.5),
        (("background", 0, 1, "surge_period"), 8.7),
        (("background", 3, 1, "iframe_period"), 8.5),
        (("background", 7, 1, "ramp_steps"), 5.5),
        (("duration",), 10.5),
        # a seed that is not a whole number
        (("seed",), 1.5),
        (("seed",), math.nan),
        (("seed",), math.inf),
        (("seed",), True),
        (("spies", 0, "release_threshold"), -1.0),
    ], ids=["delay-nan", "delay-negative", "delay-past-2**32", "noise_std-nan", "idle_bytes_per_step-inf",
            "step-nan", "ramp_steps-text", "spy-iframe_period-2.5", "reference-iframe_period-9.5",
            "surge_period-8.7", "vbr-iframe_period-8.5", "ramp_steps-5.5", "duration-10.5",
            "seed-1.5", "seed-nan", "seed-inf", "seed-true", "release_threshold-negative"])
    def test_scenario_number(self, key, value, tmp_path, capsys):
        self._scenario_error(key, value, tmp_path, capsys)

    @pytest.mark.parametrize("key, value", [
        (("spies", 0, "iframe_period"), True),
        (("reference", "iframe_period"), True),
        (("background", 0, 1, "surge_period"), True),
        (("background", 3, 1, "iframe_period"), True),
        (("background", 7, 1, "ramp_steps"), True),
        (("step",), True),
        (("step",), "0.5"),
        (("background", 0, 1, "jitter"), True),
        (("tags",), "regime=near"),
        (("tags",), ["regime=near", 3]),
        (("reference", "motion_gain"), True),
        (("spies", 0, "burst_accumulate"), 0.5),
        (("activity_proflie",), "still"),
    ], ids=["spy-iframe_period-true", "reference-iframe_period-true", "surge_period-true",
            "vbr-iframe_period-true", "ramp_steps-true", "step-true", "step-text",
            "jitter-true", "tags-text", "tags-number", "motion_gain-true", "burst_accumulate-0.5",
            "unknown-field"])
    def test_scenario_type(self, key, value, tmp_path, capsys):
        """A JSON bool is not a number, a number is not a bool, text is not
        a step, one string is not a list of tags, and a key that is not a
        scenario field is not ignored."""
        self._scenario_error(key, value, tmp_path, capsys)

    @pytest.mark.parametrize("key, value", [
        (("background", 0, 1), {"bytes_per_stepp": 5.0, "jiter": 1.0}),
        (("background", 0, 1), {"profile": 7}),
        (("background", 4, 1, "profile"), "walking"),
        (("background", 7, 1, "surge_period"), 3),
    ], ids=["cbr-misspelled", "cbr-profile", "browsing-profile", "download-surge_period"])
    def test_scenario_parameter_the_kind_does_not_read(self, key, value, tmp_path, capsys):
        """A background parameter its kind does not read is an error, not
        a default run under a manifest that records it."""
        self._scenario_error(key, value, tmp_path, capsys)

    def _scenario_error(self, key, value, tmp_path, capsys):
        config = simulate.scenario_to_dict(simulate.easy_scenario(seed=1, duration=10))
        *parents, last = key
        target = config
        for part in parents:
            target = target[part]
        target[last] = value
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps(config))  # NaN and Infinity as Python's json writes them
        code = run(["simulate", "--scenario", str(scenario), "--out-dir", str(tmp_path / "sim"),
                    "--pcap-out", str(tmp_path / "capture.pcap")])
        err = self._one_line_error(code, 2, tmp_path / "sim", capsys)
        assert list(tmp_path.iterdir()) == [scenario]
        return err

    @pytest.mark.parametrize("key, value, pattern", [
        (("spies",), [{}, {"delay": -0.9}], r"spies\[1\]: delay must be a finite number >= 0, got -0\.9"),
        (("spies",), [{}, {"delya": 0.3}], r"spies\[1\]: .*unexpected keyword argument 'delya'"),
        (("reference", "iframe_period"), 0, r"reference: iframe_period must be >= 1, got 0"),
        (("background", 3, 1, "iframe_period"), 0, r"background\[3\] vbr_stream iframe_period must be >= 1, got 0"),
        (("background", 3, 1, "profile"), "running", r"background\[3\] vbr_stream profile must be one of"),
    ], ids=["second-spy", "second-spy-misspelled", "reference", "vbr_stream", "vbr_stream-profile"])
    def test_camera_and_background_errors_name_their_owner(self, key, value, pattern, tmp_path, capsys):
        assert re.search(pattern, self._scenario_error(key, value, tmp_path, capsys))

    def test_repeated_device_id(self, scene, tmp_path, capsys):
        lines = (scene / "devices.csv").read_text().splitlines()
        ids = lines[2].split(",")
        lines[2] = ",".join([ids[0], ids[0], *ids[2:]])
        devices = tmp_path / "devices.csv"
        devices.write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.csv"
        code = run(["analyze", "--reference", str(scene / "reference.csv"), "--devices", str(devices),
                    "--out", str(out)])
        self._one_line_error(code, 1, out, capsys)


class TestWindowBound:
    """A window longer than MAX_STEPS steps ends in one stderr line and
    exit 2, whichever command asks for it."""

    @staticmethod
    def _one_line_error(code, out, capsys) -> str:
        return TestNonFiniteNumbers._one_line_error(code, 2, out, capsys)

    def test_extract_pcap_window(self, pcap_file, tmp_path, capsys):
        out = tmp_path / "devices.csv"
        code = run(["extract", "--pcap", str(pcap_file), "--window", str(10**20), "--out", str(out)])
        assert f"n_steps <= {MAX_STEPS}" in self._one_line_error(code, out, capsys)

    def test_extract_video_step(self, video_file, tmp_path, capsys):
        out = tmp_path / "series.csv"
        code = run(["extract", "--video", str(video_file), "--step", "1e-300", "--out", str(out)])
        err = self._one_line_error(code, out, capsys)
        assert "too small for a video of 1.5 s" in err and len(err) < 200

    @pytest.mark.parametrize("command", ["simulate", "converge"])
    def test_scenario_duration(self, command, tmp_path, capsys):
        config = simulate.scenario_to_dict(simulate.easy_scenario(seed=1, duration=10))
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({**config, "duration": 1e20}))
        out = tmp_path / "out"
        flags = ["--out-dir", str(out)] if command == "simulate" else ["--out", str(out)]
        code = run([command, "--scenario", str(scenario), *flags])
        assert f"n_steps <= {MAX_STEPS}" in self._one_line_error(code, out, capsys)


class TestJsonNumbers:
    """A measure, weight, bias or standardization entry must be a JSON
    number: text and true/false are not read as numbers."""

    ROW = {"device_id": "x", "cc": 0.5, "dtw": 1.0, "kld": 0.01, "jsd": 0.001, "flags": []}

    @staticmethod
    def _one_line_error(code, out, capsys) -> str:
        return TestNonFiniteNumbers._one_line_error(code, 1, out, capsys)

    @pytest.mark.parametrize("measure, value", [("kld", "0.001"), ("kld", True), ("cc", "0.5"), ("dtw", False),
                                                ("jsd", "0"), ("dtw", None), ("cc", [0.5])])
    def test_report_measure(self, measure, value, tmp_path, capsys):
        report = tmp_path / "report.json"
        report.write_text(json.dumps([{**self.ROW, measure: value}]))
        out = tmp_path / "verdicts.csv"
        code = run(["classify", "--report", str(report), "--measures", "kld", "--out", str(out)])
        assert f"measure {measure} is {value!r}, not a finite number" in self._one_line_error(code, out, capsys)

    @pytest.mark.parametrize("argv", [["train"], ["agreement"]])
    @pytest.mark.parametrize("measure, value", [("kld", "0.001"), ("cc", True)])
    def test_sample_measure(self, argv, measure, value, tmp_path, capsys):
        rows = _synthetic_rows()
        rows[5][measure] = value
        samples = tmp_path / "samples.json"
        samples.write_text(json.dumps(rows))
        out = tmp_path / "out"
        code = run(argv + ["--samples", str(samples), "--out", str(out)])
        assert f"measure {measure} is" in self._one_line_error(code, out, capsys)

    @pytest.mark.parametrize("garble", ["text weight", "true bias", "text std", "nested weights"])
    def test_model_array(self, garble, synthetic_samples, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(["train", "--samples", str(synthetic_samples), "--layers", "3", "--max-iter", "5",
                    "--out", str(model)]) == 0
        payload = json.loads(model.read_text())
        if garble == "text weight":
            payload["weights"][0][0] = "0.5"
        elif garble == "true bias":
            payload["biases"][0][0] = True
        elif garble == "text std":
            payload["standardization"]["std"][0] = str(payload["standardization"]["std"][0])
        else:
            payload["weights"][0] = [payload["weights"][0]]
        model.write_text(json.dumps(payload))
        report = tmp_path / "report.json"
        report.write_text(json.dumps([self.ROW]))
        out = tmp_path / "verdicts.csv"
        code = run(["classify", "--report", str(report), "--model", str(model), "--out", str(out)])
        assert "not a finite number" in self._one_line_error(code, out, capsys)

    @pytest.mark.parametrize("loss", ["abc", True, "1.0"])
    def test_model_training_loss(self, loss, synthetic_samples, tmp_path, capsys):
        model = tmp_path / "model.json"
        assert run(["train", "--samples", str(synthetic_samples), "--layers", "3", "--max-iter", "5",
                    "--out", str(model)]) == 0
        model.write_text(json.dumps({**json.loads(model.read_text()), "training_loss": loss}))
        report = tmp_path / "report.json"
        report.write_text(json.dumps([self.ROW]))
        out = tmp_path / "verdicts.csv"
        code = run(["classify", "--report", str(report), "--model", str(model), "--out", str(out)])
        assert f"training_loss is {loss!r}, not a finite number" in self._one_line_error(code, out, capsys)

    def test_model_training_loss_read_back(self, synthetic_samples, tmp_path):
        model = tmp_path / "model.json"
        assert run(["train", "--samples", str(synthetic_samples), "--layers", "3", "--max-iter", "5",
                    "--out", str(model)]) == 0
        text = model.read_text()
        with open(model) as fh:
            loaded = classify.load_model(fh)
        assert math.isfinite(loaded.training_loss)
        resaved = io.StringIO()
        classify.save_model(loaded, resaved)
        assert resaved.getvalue() == text
        # A model without a loss reads it as NaN, and is saved without one again.
        payload = json.loads(text)
        del payload["training_loss"]
        lossless = classify.load_model(io.StringIO(json.dumps(payload)))
        assert math.isnan(lossless.training_loss)
        resaved = io.StringIO()
        classify.save_model(lossless, resaved)
        assert "training_loss" not in json.loads(resaved.getvalue())
        assert math.isnan(classify.load_model(io.StringIO(resaved.getvalue())).training_loss)

    @pytest.mark.parametrize("text", ["device_id,cc,dtw,kld,jsd,flags\n", "[]"], ids=["csv", "json"])
    def test_report_with_no_device(self, text, tmp_path, capsys):
        report = tmp_path / "report"
        report.write_text(text)
        out = tmp_path / "verdicts.csv"
        code = run(["classify", "--report", str(report), "--out", str(out)])
        assert "at least one device row" in self._one_line_error(code, out, capsys)


class TestCliFuzz:
    """Seeded truncations and byte flips of every input file.

    Each run either exits 0 and writes its output, or exits 1 or 2 with
    exactly one stderr line and no output; an exception escaping
    ``main`` fails the test.
    """

    TRUNCATIONS = 15
    FLIPS = 45

    @pytest.fixture(scope="class")
    def inputs(self, tmp_path_factory):
        """Input name -> (file, argv with FILE and OUT placeholders)."""
        d = tmp_path_factory.mktemp("fuzz")
        capture = pcap_header()
        for sec, mac, wire in [(0, "aa:00:00:00:00:01", 100), (1, "aa:00:00:00:00:01", 200),
                               (1, "aa:00:00:00:00:02", 150), (2, "aa:00:00:00:00:03", 90)]:
            capture += pcap_record(sec, 500_000, ethernet_frame(mac, body=bytes(wire - 14)), orig_len=wire)
        (d / "capture.pcap").write_bytes(capture)
        (d / "clip.mp4").write_bytes(mp4_file(trak_box(1000, "vide", sizes=[10, 20, 30, 40],
                                                       deltas=[(4, 500)])))
        small = simulate.easy_scenario(seed=1, duration=10, n_background=2)
        (d / "scenario.json").write_text(json.dumps(simulate.scenario_to_dict(small), indent=2, sort_keys=True) + "\n")
        (d / "samples.json").write_text(json.dumps(_synthetic_rows()))
        scene = d / "scene"
        assert run(["simulate", "--preset", "easy", "--seed", "1", "--out-dir", str(scene)]) == 0
        assert run(["analyze", "--reference", str(scene / "reference.csv"),
                    "--devices", str(scene / "devices.csv"), "--format", "json",
                    "--out", str(d / "report.json")]) == 0
        assert run(["analyze", "--reference", str(scene / "reference.csv"),
                    "--devices", str(scene / "devices.csv"), "--out", str(d / "report.csv")]) == 0
        assert run(["train", "--samples", str(d / "samples.json"), "--layers", "3",
                    "--max-iter", "5", "--out", str(d / "model.json")]) == 0
        reference, devices = str(scene / "reference.csv"), str(scene / "devices.csv")
        return {
            "pcap": (d / "capture.pcap", ["extract", "--pcap", "FILE", "--window", "3", "--out", "OUT"]),
            "mp4": (d / "clip.mp4", ["extract", "--video", "FILE", "--out", "OUT"]),
            "reference": (scene / "reference.csv",
                          ["analyze", "--reference", "FILE", "--devices", devices, "--out", "OUT"]),
            "devices": (scene / "devices.csv",
                        ["analyze", "--reference", reference, "--devices", "FILE", "--out", "OUT"]),
            "manifest": (scene / "manifest.json",
                         ["analyze", "--reference", reference, "--devices", devices,
                          "--manifest", "FILE", "--out", "OUT"]),
            "report": (d / "report.json", ["classify", "--report", "FILE", "--out", "OUT"]),
            "similarity_csv": (d / "report.csv", ["classify", "--report", "FILE", "--out", "OUT"]),
            "samples": (d / "samples.json",
                        ["train", "--samples", "FILE", "--layers", "2", "--max-iter", "10", "--out", "OUT"]),
            "model": (d / "model.json",
                      ["classify", "--report", str(d / "report.json"), "--model", "FILE", "--out", "OUT"]),
            "scenario": (d / "scenario.json", ["simulate", "--scenario", "FILE", "--out-dir", "OUT",
                                               "--pcap-out", "OUT/capture.pcap"]),
        }

    # Each input's own mutant seed, so adding an input leaves the others' mutants as they are.
    SEEDS = {"devices": 0, "manifest": 1, "model": 2, "mp4": 3, "pcap": 4, "reference": 5, "report": 6,
             "samples": 7, "scenario": 8, "similarity_csv": 9}

    @pytest.mark.parametrize("name", ["pcap", "mp4", "reference", "devices", "manifest", "report",
                                      "samples", "model", "scenario", "similarity_csv"])
    def test_mutated_input(self, name, inputs, tmp_path, capsys):
        path, argv = inputs[name]
        base = path.read_bytes()
        rng = np.random.default_rng(self.SEEDS[name])
        mutants = [base[:cut] for cut in rng.integers(0, len(base), self.TRUNCATIONS)]
        for pos, mask in zip(rng.integers(0, len(base), self.FLIPS), rng.integers(1, 256, self.FLIPS)):
            mutant = bytearray(base)
            mutant[pos] ^= mask
            mutants.append(bytes(mutant))

        failures = []
        for i, mutant in enumerate(mutants):
            data = tmp_path / f"input{i}"
            data.write_bytes(mutant)
            out = tmp_path / f"out{i}"
            args = [str(data) if a == "FILE" else str(out) + a[3:] if a.startswith("OUT") else a for a in argv]
            try:
                code = run(args)
            except Exception as exc:  # a traceback: record it with the mutant that caused it
                failures.append((i, f"{type(exc).__name__}: {exc}"))
                continue
            err = capsys.readouterr().err.splitlines()
            if code == 0:
                ok = out.exists()
            else:
                ok = code in (1, 2) and len(err) == 1 and not out.exists()
            if not ok:
                failures.append((i, f"exit {code}, stderr {err}, output {out.exists()}"))
        assert failures == []
