"""Acceptance suite: one test per criterion, printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria complete.  The statistical criteria run the full corpus sizes,
so this module takes a few minutes.
"""
import itertools
import json
import math
import time

import numpy as np
import pytest

from conftest import (
    ethernet_frame,
    labeled,
    mp4_file,
    pcap_header,
    pcap_record,
    report_entries,
    stack_reports,
    trak_box,
)
from dtw_oracle import bruteforce_matrix_halfunits, dtw_bruteforce
from simobs.classify import (
    GridPoint,
    ThresholdConfig,
    convergence_analysis,
    grid_search,
    portability_matrix,
    sweep_threshold,
)
from simobs.cli import main as cli_main
from simobs.errors import SimobsError
from simobs.mp4 import parse_mp4, video_byte_series
from simobs.pcap import extract_device_series, read_pcap
from simobs.similarity import Report, _cc_rows, _dtw_rows, _jsd_rows, _kld_rows, dtw_distance, score_report
from simobs.similarity import similarity_vector
from simobs.simulate import easy_scenario, packetize, regime_scenario, render_scenario, write_pcap
from simobs.timeseries import ByteSeries


def report(name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {name}{suffix}")
    assert ok, f"{name}{suffix}"


# ---------------------------------------------------------------------------
# Shared corpora
# ---------------------------------------------------------------------------

def _labeled_corpus(scenarios) -> Report:
    reports = []
    for scenario in scenarios:
        dataset = render_scenario(scenario)
        report = score_report(dataset.reference_series, [trace.series for trace in dataset.traces])
        reports.append(labeled(report, [trace.spying for trace in dataset.traces],
                               [sorted(scenario.tags)] * len(dataset.traces)))
    return stack_reports(reports)


@pytest.fixture(scope="module")
def easy_renders() -> list[Report]:
    """200 seeded renders of the easy scenario: 1 spy + 9 background each."""
    renders = []
    for i in range(200):
        scenario = easy_scenario(seed=10_000 + i)
        renders.append(_labeled_corpus([scenario]))
    return renders


@pytest.fixture(scope="module")
def easy_corpus(easy_renders) -> Report:
    return stack_reports(easy_renders)


# ---------------------------------------------------------------------------
# Criteria
# ---------------------------------------------------------------------------

class TestMeasureIdentities:
    def test_self_similarity_identities(self):
        start = time.monotonic()
        rng = np.random.default_rng(123)
        ok = True
        for n in (2, 17, 60, 300):
            s = ByteSeries(0.0, 1.0, rng.integers(0, 100_000, n))
            (sv,) = report_entries(similarity_vector(s, s))
            ok &= abs(sv["cc"] - 1.0) <= 1e-9
            ok &= sv["dtw"] == 0.0
            ok &= abs(sv["kld"]) <= 1e-9
            ok &= abs(sv["jsd"]) <= 1e-12
        elapsed = time.monotonic() - start
        report("measure identities: sv(s,s) = (1, 0, 0, 0)", ok and elapsed < 1.0,
               f"{elapsed:.3f}s")


class TestDtwOracle:
    def test_exhaustive_small_grid_and_random(self):
        # Every sequence over {0, 0.5, 1} of length <= 6 against every
        # other, in both orders: one row of a length against the stack of
        # all rows of another, through the engine's DTW kernel.  Half-unit
        # sums are exact, so the kernel must equal the path enumeration.
        start = time.monotonic()
        codes = [np.array(list(itertools.product((0, 1, 2), repeat=n)), dtype=np.uint8) for n in range(1, 7)]

        mismatches = 0
        checked = 0
        for i, a_codes in enumerate(codes):
            for j, b_codes in enumerate(codes[i:], start=i):
                oracle = bruteforce_matrix_halfunits(a_codes, b_codes)
                a_stack, b_stack = a_codes / 2.0, b_codes / 2.0
                for s, a in enumerate(a_stack):
                    mismatches += int(np.count_nonzero(2.0 * _dtw_rows(a, b_stack) != oracle[s]))
                checked += oracle.size
                if j > i:
                    for t, b in enumerate(b_stack):
                        mismatches += int(np.count_nonzero(2.0 * _dtw_rows(b, a_stack) != oracle[:, t]))
                    checked += oracle.size

        rng = np.random.default_rng(777)
        for _ in range(500):
            n, m = rng.integers(1, 7, size=2)
            a = rng.uniform(0, 1, n)
            b = rng.uniform(0, 1, m)
            if abs(dtw_distance(a, b) - dtw_bruteforce(a, b)) > 1e-12:
                mismatches += 1
            checked += 1

        elapsed = time.monotonic() - start
        report(
            "dtw oracle: DTW kernel equals exhaustive path minimum",
            mismatches == 0 and checked == 1092**2 + 500 and elapsed < 30.0,
            f"{checked} pairs, {elapsed:.1f}s",
        )


class TestMeasureBounds:
    def test_bounds_and_symmetry_on_random_pairs(self):
        rng = np.random.default_rng(4242)
        ok = True
        for _ in range(1000):
            a = rng.uniform(0, 1, 60)
            b = rng.uniform(0, 1, 60)
            cc = _cc_rows(a, b[None])[0]
            dtw = dtw_distance(a, b)
            kld = _kld_rows(a, b[None])[0]
            j = _jsd_rows(a[None], b[None])[0]
            ok &= -1.0 <= cc <= 1.0
            ok &= dtw >= 0.0
            ok &= kld >= -1e-12
            ok &= 0.0 <= j <= math.log(2) + 1e-12
            ok &= abs(j - _jsd_rows(b[None], a[None])[0]) <= 1e-12
            ok &= abs(dtw - dtw_distance(b, a)) <= 1e-12
        report("measure bounds and symmetry on 1000 random pairs", ok)


class TestKldClosedForm:
    def test_hand_evaluated_values(self):
        # exact moment constructions: [-1,1] -> (mu 0, sd 1), [0,2] -> (1,1), [-2,2] -> (0,2)
        shift, widen = _kld_rows(np.array([-1.0, 1.0]), np.array([[0.0, 2.0], [-2.0, 2.0]]))
        ok = abs(shift - 0.5) <= 1e-9 and abs(widen - (math.log(2) - 3 / 8)) <= 1e-9
        report("gaussian kld closed form: 0.5 and ln2 - 3/8", ok,
               f"{shift:.10f}, {widen:.10f}")


class TestParserExactness:
    def _pcap_fixture(self) -> bytes:
        data = pcap_header()
        packets = [
            (0, 100_000, "aa:00:00:00:00:01", 120),
            (0, 600_000, "aa:00:00:00:00:02", 90),
            (0, 900_000, "aa:00:00:00:00:01", 200),
            (1, 50_000, "aa:00:00:00:00:02", 70),
            (2, 999_999, "aa:00:00:00:00:01", 1500),
            (3, 0, "aa:00:00:00:00:02", 64),
        ]
        for sec, usec, mac, wire in packets:
            data += pcap_record(sec, usec, ethernet_frame(mac, body=bytes(wire - 14)), orig_len=wire)
        return data

    def test_pcap_hand_bins_exact(self):
        records = list(read_pcap(self._pcap_fixture()))
        streams = extract_device_series(records, 0.0, 1.0, 4)
        bins = {str(s.device_id): s.series.values.tolist() for s in streams}
        ok = bins == {
            "aa:00:00:00:00:01": [320, 0, 1500, 0],
            "aa:00:00:00:00:02": [90, 70, 0, 64],
        }
        report("pcap fixture reproduces hand-computed bins exactly", ok)

    def test_mp4_hand_bins_exact(self):
        # 5 samples, 0.4 s apart: decode times 0, .4, .8, 1.2, 1.6
        data = mp4_file(trak_box(1000, "vide", sizes=[11, 22, 33, 44, 55], deltas=[(5, 400)]))
        series = video_byte_series(parse_mp4(data), step=1.0)
        ok = series.values.tolist() == [66, 99]
        report("mp4 fixture reproduces hand-computed bins exactly", ok)

    def test_fuzz_pcap_100k(self):
        base = bytearray(self._pcap_fixture())
        rng = np.random.default_rng(31337)
        positions = rng.integers(0, len(base), size=(100_000, 3))
        replacements = rng.integers(0, 256, size=(100_000, 3))
        crashes = 0
        for muts, vals in zip(positions, replacements):
            data = bytearray(base)
            for pos, val in zip(muts, vals):
                data[pos] = val
            try:
                records = list(read_pcap(bytes(data)))
                extract_device_series(records, 0.0, 1.0, 4)
            except SimobsError:
                pass
            except Exception:
                crashes += 1
        report("pcap parser total under 1e5 seeded mutations", crashes == 0)

    def test_fuzz_mp4_100k(self):
        base = bytearray(
            mp4_file(
                trak_box(1000, "vide", sizes=[11, 22, 33], deltas=[(3, 400)]),
                trak_box(48000, "soun", sizes=[5, 5], deltas=[(2, 1024)]),
            )
        )
        rng = np.random.default_rng(999)
        positions = rng.integers(0, len(base), size=(100_000, 3))
        replacements = rng.integers(0, 256, size=(100_000, 3))
        crashes = 0
        for muts, vals in zip(positions, replacements):
            data = bytearray(base)
            for pos, val in zip(muts, vals):
                data[pos] = val
            try:
                video_byte_series(parse_mp4(bytes(data)), step=1.0)
            except SimobsError:
                pass
            except Exception:
                crashes += 1
        report("mp4 parser total under 1e5 seeded mutations", crashes == 0)


class TestRoundTrip:
    def test_simulate_pcap_round_trip_both_links(self):
        ok = True
        for link in ("ethernet", "radiotap"):
            for seed in (1, 2, 3):
                dataset = render_scenario(easy_scenario(seed=seed))
                frames = [(tr.device_id, packetize(tr.step_bytes, 1.0, tr.delay)) for tr in dataset.traces]
                records = list(read_pcap(write_pcap(frames, link=link)))
                streams = extract_device_series(records, 0.0, 1.0, 60)
                by_id = {str(s.device_id): s.series.values.tolist() for s in streams}
                for trace in dataset.traces:
                    ok &= by_id.get(str(trace.device_id)) == trace.series.values.tolist()
        report("simulate -> write_pcap -> read_pcap -> extract is exact (both links)", ok)


class TestEndToEndDetection:
    def test_published_kld_threshold_separates(self, easy_renders):
        # the fixed operating point (not the swept one) already separates
        # the spy from every background device in most renders
        separated = 0
        spy_hits = 0
        for render in easy_renders:
            spy_ok = all(
                s["kld"] is not None and s["kld"] <= 0.021
                for s in report_entries(render)
                if s["label"]
            )
            bg_ok = all(
                s["kld"] is None or s["kld"] > 0.021
                for s in report_entries(render)
                if not s["label"]
            )
            spy_hits += spy_ok
            separated += spy_ok and bg_ok
        assert spy_hits >= 160, f"spy kld under 0.021 in only {spy_hits}/200 renders"
        assert separated >= 160, f"full separation in only {separated}/200 renders"

    def test_measure_disagreement_on_false_positives(self, easy_corpus):
        # when measures are wrong at their fixed thresholds they are
        # rarely all wrong at once, which is the headroom the combined
        # model exploits
        from simobs.classify import DEFAULT_THRESHOLDS, measure_agreement

        configs = [ThresholdConfig(m, DEFAULT_THRESHOLDS[m]) for m in ("cc", "kld", "jsd")]
        report_out = measure_agreement(easy_corpus, configs)
        if report_out.total_false_positives:
            assert report_out.distribution.get(3, 0.0) < 1.0

    def test_sweep_and_grid_search(self, easy_corpus):
        start = time.monotonic()
        assert len(easy_corpus) == 2000 and easy_corpus.labels.sum() == 200

        best_measure_f1 = 0.0
        sweep_results = {}
        for measure in ("cc", "dtw", "kld", "jsd"):
            _, f1 = sweep_threshold(easy_corpus, measure)
            sweep_results[measure] = f1
            best_measure_f1 = max(best_measure_f1, f1)
        kld_ok = sweep_results["kld"] >= 0.90

        grid = [
            GridPoint(hidden_layers=(width,) * count, activation="logistic", alpha=alpha)
            for count in (1, 3)
            for width in (8, 13)
            for alpha in (1e-4, 1e-2)
        ]
        _, cv_f1 = grid_search(easy_corpus, grid, folds=10, seed=77)
        mlp_ok = cv_f1 >= best_measure_f1 - 0.02
        elapsed = time.monotonic() - start
        report(
            "end-to-end detection: kld sweep F1 >= 0.90 and MLP CV within 0.02 of best",
            kld_ok and mlp_ok and elapsed < 600.0,
            f"kld={sweep_results['kld']:.3f} best={best_measure_f1:.3f} cv={cv_f1:.3f} {elapsed:.0f}s",
        )


class TestConvergence:
    def test_prefix_f1_curve(self):
        start = time.monotonic()
        cfg = ThresholdConfig("kld", 0.021)
        curves = []
        for trial in range(40):
            dataset = render_scenario(easy_scenario(seed=20_000 + trial, n_background=69))
            results = convergence_analysis(
                dataset.reference_series,
                [trace.series for trace in dataset.traces],
                [trace.spying for trace in dataset.traces],
                cfg,
            )
            curves.append([metrics.f1 for _, metrics in results])
        curves_arr = np.array(curves)
        mean_at = lambda t: float(curves_arr[:, t - 2].mean())
        ok = mean_at(30) >= 0.90 and mean_at(60) >= mean_at(10)
        elapsed = time.monotonic() - start
        report(
            "convergence: mean prefix-F1 >= 0.90 by step 30, no regression at 60",
            ok and elapsed < 600.0,
            f"f1@10={mean_at(10):.3f} f1@30={mean_at(30):.3f} f1@60={mean_at(60):.3f} {elapsed:.0f}s",
        )


class TestPortability:
    def test_diagonal_beats_off_diagonal(self):
        scenarios = [regime_scenario("near", seed=30_000 + i) for i in range(30)]
        scenarios += [regime_scenario("far", seed=31_000 + i) for i in range(30)]
        samples = _labeled_corpus(scenarios)
        _, matrix = portability_matrix(samples, "regime", trainer="kld", seed=5)
        diag = float(np.mean([matrix[i, i] for i in range(3)]))
        off = float(np.mean([matrix[i, j] for i in range(3) for j in range(3) if i != j]))
        report(
            "portability: mean diagonal F1 exceeds mean off-diagonal F1",
            diag > off,
            f"diag={diag:.3f} off={off:.3f}",
        )


class TestCliDeterminism:
    def test_every_command_byte_identical(self, tmp_path):
        def run(args):
            assert cli_main(args) == 0, f"command failed: {args}"

        def twice(build_args, outputs):
            blobs = []
            for tag in ("x", "y"):
                for out in outputs:
                    target = tmp_path / f"{tag}_{out}"
                    if target.exists():
                        target.unlink()
                run(build_args(tag))
                blobs.append([(tmp_path / f"{tag}_{out}").read_bytes() for out in outputs])
            return all(a == b for a, b in zip(*blobs))

        ok = True

        # simulate (+ pcap output)
        ok &= twice(
            lambda tag: ["simulate", "--preset", "easy", "--seed", "5",
                         "--out-dir", str(tmp_path / f"{tag}_sim"),
                         "--pcap-out", str(tmp_path / f"{tag}_cap.pcap")],
            ["sim/reference.csv", "sim/devices.csv", "sim/manifest.json", "cap.pcap"],
        )

        # extract from the simulated pcap
        ok &= twice(
            lambda tag: ["extract", "--pcap", str(tmp_path / "x_cap.pcap"), "--start", "0",
                         "--out", str(tmp_path / f"{tag}_devices.csv")],
            ["devices.csv"],
        )

        # analyze, with and without manifest
        ok &= twice(
            lambda tag: ["analyze", "--reference", str(tmp_path / "x_sim/reference.csv"),
                         "--devices", str(tmp_path / "x_sim/devices.csv"),
                         "--format", "json", "--out", str(tmp_path / f"{tag}_report.json")],
            ["report.json"],
        )
        ok &= twice(
            lambda tag: ["analyze", "--reference", str(tmp_path / "x_sim/reference.csv"),
                         "--devices", str(tmp_path / "x_sim/devices.csv"),
                         "--manifest", str(tmp_path / "x_sim/manifest.json"),
                         "--out", str(tmp_path / f"{tag}_samples.json")],
            ["samples.json"],
        )

        # classify via thresholds
        ok &= twice(
            lambda tag: ["classify", "--report", str(tmp_path / "x_report.json"),
                         "--format", "json", "--out", str(tmp_path / f"{tag}_verdicts.json")],
            ["verdicts.json"],
        )

        # build a multi-render corpus for the learning commands; 2-fold CV
        # needs every train split to keep >= 10 spy samples
        merged = []
        for i in range(24):
            d = tmp_path / f"corpus{i}"
            run(["simulate", "--preset", "near" if i % 2 else "far", "--seed", str(40_000 + i),
                 "--out-dir", str(d)])
            run(["analyze", "--reference", str(d / "reference.csv"),
                 "--devices", str(d / "devices.csv"), "--manifest", str(d / "manifest.json"),
                 "--out", str(d / "samples.json")])
            merged.extend(json.loads((d / "samples.json").read_text()))
        corpus = tmp_path / "corpus.json"
        corpus.write_text(json.dumps(merged))

        # train
        ok &= twice(
            lambda tag: ["train", "--samples", str(corpus), "--layers", "6", "--seed", "3",
                         "--max-iter", "120", "--out", str(tmp_path / f"{tag}_model.json")],
            ["model.json"],
        )

        # classify via the model
        ok &= twice(
            lambda tag: ["classify", "--report", str(tmp_path / "x_report.json"),
                         "--model", str(tmp_path / "x_model.json"),
                         "--format", "json", "--out", str(tmp_path / f"{tag}_probs.json")],
            ["probs.json"],
        )

        # grid-search (compact grid, few folds to stay quick)
        ok &= twice(
            lambda tag: ["grid-search", "--samples", str(corpus), "--folds", "2", "--seed", "2",
                         "--out", str(tmp_path / f"{tag}_grid.json")],
            ["grid.json"],
        )

        # converge
        ok &= twice(
            lambda tag: ["converge", "--preset", "easy", "--seed", "9", "--trials", "1",
                         "--out", str(tmp_path / f"{tag}_curve.csv")],
            ["curve.csv"],
        )

        # portability
        ok &= twice(
            lambda tag: ["portability", "--samples", str(corpus), "--partition-tag", "regime",
                         "--trainer", "kld", "--seed", "4",
                         "--out", str(tmp_path / f"{tag}_matrix.csv")],
            ["matrix.csv"],
        )

        # agreement
        ok &= twice(
            lambda tag: ["agreement", "--samples", str(corpus),
                         "--out", str(tmp_path / f"{tag}_agreement.json")],
            ["agreement.json"],
        )

        report("determinism: every CLI command yields byte-identical outputs", ok)
