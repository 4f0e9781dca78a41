"""The three benchmark workloads.

Each is a closed loop with one client: an operation starts when the
previous one has ended.  Every operation drives the public CLI in
process (``simobs.cli.main``) and its outputs are checked afterwards,
outside the timed region.  Inputs derive from the run's seed only.

- ``scan_radiotap``: the monitor-mode sweep (extract pcap and MP4,
  analyze, classify).  Most of the time is in the pcap layer.
- ``converge_easy70``: one prefix-convergence trial over 70 devices per
  operation.  The simulator and similarity share the time; no pcap or
  MP4 work, so it is the control for pcap changes.
- ``learn_regimes``: grid search, training, portability and agreement
  on a near/far corpus built in set-up.  The classifier does almost all
  of the work; the simulator and similarity run only in set-up, so it is
  the control for both.
"""
from __future__ import annotations

import json
from pathlib import Path

from checks import (
    CheckError,
    count_pcap_records,
    f1_score,
    parse_devices_csv,
    parse_series_csv,
    require_equal_devices,
    require_equal_series,
    require_unit_interval,
)
from mp4writer import reference_mp4


class OpError(Exception):
    """A CLI command exited non-zero."""


def run_cli(*argv) -> None:
    from simobs import cli

    argv = [str(a) for a in argv]
    # Looked up on the module at call time, so the traced run's wrapper applies.
    code = cli.main(argv)
    if code != 0:
        raise OpError(f"simobs {argv[0]} exited with code {code}")


class Workload:
    """One workload: ``setup`` builds inputs in a set-up directory (in a
    child process), ``load`` reads what the checks need, ``op`` runs one
    operation into an output directory and ``check`` validates it,
    returning (work items done, detection F1)."""

    name = ""
    work_name = ""  # what a unit of work is, for the summary
    setup_reps = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self, setup_dir: Path) -> None:
        pass

    def load(self, setup_dir: Path) -> None:
        pass

    def op(self, index: int, out: Path) -> None:
        raise NotImplementedError

    def check(self, index: int, out: Path) -> tuple[int, float]:
        raise NotImplementedError


class ScanRadiotap(Workload):
    name = "scan_radiotap"
    work_name = "packets_per_s"

    def setup(self, setup_dir):
        run_cli("simulate", "--preset", "easy", "--seed", self.seed, "--out-dir", setup_dir,
                "--pcap-out", setup_dir / "capture.pcap", "--link", "radiotap")
        _, _, reference = parse_series_csv((setup_dir / "reference.csv").read_text())
        (setup_dir / "reference.mp4").write_bytes(reference_mp4(reference))

    def load(self, setup_dir):
        self.setup_dir = setup_dir
        self.devices = parse_devices_csv((setup_dir / "devices.csv").read_text())
        self.reference = parse_series_csv((setup_dir / "reference.csv").read_text())
        manifest = json.loads((setup_dir / "manifest.json").read_text())
        self.spying = {d["device_id"]: d["spying"] for d in manifest["devices"]}
        self.frames = count_pcap_records(setup_dir / "capture.pcap")

    def op(self, index, out):
        run_cli("extract", "--pcap", self.setup_dir / "capture.pcap", "--start", 0,
                "--out", out / "devices.csv")
        run_cli("extract", "--video", self.setup_dir / "reference.mp4", "--out", out / "reference.csv")
        run_cli("analyze", "--reference", out / "reference.csv", "--devices", out / "devices.csv",
                "--format", "json", "--out", out / "report.json")
        run_cli("classify", "--report", out / "report.json", "--format", "json",
                "--out", out / "verdicts.json")

    def check(self, index, out):
        require_equal_devices(self.devices, parse_devices_csv((out / "devices.csv").read_text()))
        require_equal_series("reference", self.reference,
                             parse_series_csv((out / "reference.csv").read_text()))
        expected_ids = sorted(self.devices)
        report = json.loads((out / "report.json").read_text())
        if sorted(row["device_id"] for row in report) != expected_ids:
            raise CheckError("report does not hold exactly one row per device")
        verdicts = json.loads((out / "verdicts.json").read_text())
        if sorted(row["device_id"] for row in verdicts) != expected_ids:
            raise CheckError("verdicts do not hold exactly one row per device")
        if not all(isinstance(row.get("spy_kld"), bool) for row in verdicts):
            raise CheckError("a verdict lacks a boolean spy_kld")
        f1 = f1_score([row["spy_kld"] for row in verdicts],
                      [self.spying[row["device_id"]] for row in verdicts])
        return self.frames, f1


CURVE_HEADER = "t,mean_f1,mean_accuracy,mean_precision,mean_recall"


class ConvergeEasy70(Workload):
    name = "converge_easy70"
    work_name = "pairs_per_s"

    def op_seed(self, index: int) -> int:
        return self.seed * 1000 + index

    def load(self, setup_dir):
        from simobs import simulate

        scenario = simulate.preset_scenario("easy70", self.seed)
        self.n_devices = len(scenario.spies) + len(scenario.background)

    def op(self, index, out):
        run_cli("converge", "--preset", "easy70", "--trials", 1, "--seed", self.op_seed(index),
                "--out", out / "curve.csv")

    def check(self, index, out):
        lines = (out / "curve.csv").read_text().splitlines()
        if not lines or lines[0] != CURVE_HEADER:
            raise CheckError("curve header is wrong")
        rows = [line.split(",") for line in lines[1:]]
        if len(rows) != 59 or [int(r[0]) for r in rows] != list(range(2, 61)):
            raise CheckError(f"curve has {len(rows)} rows, want t = 2..60")
        for row in rows:
            for cell in row[1:]:
                require_unit_interval(f"curve cell at t={row[0]}", float(cell))
        return self.n_devices * len(rows), float(rows[-1][1])


class LearnRegimes(Workload):
    name = "learn_regimes"
    work_name = "fits_per_s"
    # One set-up is 12-18 s of simulate + analyze on 2 cores; repeating it
    # would not fit the benchmark's time budget.
    setup_reps = 1
    scenes = 40
    OUTPUTS = ("grid.json", "model.json", "matrix.csv", "agreement.json")

    def setup(self, setup_dir):
        merged = []
        for i in range(self.scenes):
            scene = setup_dir / f"scene{i:02d}"
            run_cli("simulate", "--preset", "near" if i % 2 else "far", "--seed", self.seed * 1000 + i,
                    "--out-dir", scene)
            run_cli("analyze", "--reference", scene / "reference.csv", "--devices", scene / "devices.csv",
                    "--manifest", scene / "manifest.json", "--out", scene / "samples.json")
            merged += json.loads((scene / "samples.json").read_text())
        (setup_dir / "corpus.json").write_text(json.dumps(merged))

    def load(self, setup_dir):
        from simobs import classify

        self.corpus = setup_dir / "corpus.json"
        with open(self.corpus) as fh:
            self.samples = classify.read_samples_json(fh)
        self.first_outputs = None

    def op(self, index, out):
        run_cli("grid-search", "--samples", self.corpus, "--folds", 10, "--seed", self.seed,
                "--out", out / "grid.json")
        run_cli("train", "--samples", self.corpus, "--seed", self.seed, "--out", out / "model.json")
        run_cli("portability", "--samples", self.corpus, "--partition-tag", "regime",
                "--trainer", "kld", "--seed", self.seed, "--out", out / "matrix.csv")
        run_cli("agreement", "--samples", self.corpus, "--out", out / "agreement.json")

    def check(self, index, out):
        from simobs import classify

        outputs = tuple((out / name).read_bytes() for name in self.OUTPUTS)
        if self.first_outputs is None:
            self.first_outputs = outputs
        elif outputs != self.first_outputs:
            raise CheckError("outputs differ from the first operation's on the same inputs")

        grid = json.loads(outputs[0])
        cv_f1 = require_unit_interval("cv_f1", grid["cv_f1"])
        if grid["folds"] != 10 or grid["grid_points"] != 8 or not grid["hidden_layers"]:
            raise CheckError(f"grid-search report is wrong: {grid}")

        with open(out / "model.json") as fh:
            model = classify.load_model(fh)
        for sample in self.samples:
            require_unit_interval("spy probability", classify.mlp_predict(model, sample.features))

        lines = outputs[2].decode().splitlines()
        if lines[0] != "train\\test,far,near,both" or [ln.split(",")[0] for ln in lines[1:]] != ["far", "near", "both"]:
            raise CheckError("portability matrix labels are wrong")
        for line in lines[1:]:
            cells = line.split(",")[1:]
            if len(cells) != 3:
                raise CheckError("portability matrix is not 3x3")
            for cell in cells:
                require_unit_interval("portability F1", float(cell))

        agreement = json.loads(outputs[3])
        if not isinstance(agreement["total_false_positives"], int) or agreement["total_false_positives"] < 0:
            raise CheckError("agreement report lacks a false-positive count")
        if sum(agreement["counts"].values()) != agreement["total_false_positives"]:
            raise CheckError("agreement counts do not add up to the false-positive total")

        fits = grid["grid_points"] * grid["folds"] + 1  # CV fits plus the train command's fit
        return fits, cv_f1


WORKLOADS = {w.name: w for w in (ScanRadiotap, ConvergeEasy70, LearnRegimes)}
