"""Command-line front end: extract, analyze, classify, train, simulate,
and the evaluation studies.

Every command is a pure function of its inputs, flags and seed; paths
are read fully before any output is written, so failures leave no
partial files behind.  Exit codes: 0 ok, 1 analysis error, 2 usage or
I/O error.
"""
from __future__ import annotations

import argparse
import functools
import io
import math
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import classify as cls
from . import mp4, pcap, similarity, simulate
from .errors import FormatError, ParameterError, SimobsError, json_bool, json_strings, json_text, read_json
from .timeseries import DEFAULT_STEP, DEFAULT_WINDOW, ByteSeries, read_series_csv, write_series_csv


def _write_outputs(outputs: list[tuple[str, str | bytearray]]) -> None:
    """Write each (path, text or bytes) pair to its file, or to stdout for
    '-', stdout last; refuse two paths that name one file before writing
    any, and if a file cannot be written, remove the files already
    written and raise."""
    names = [path if path == "-" else os.path.realpath(path) for path, _ in outputs]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ParameterError(f"{outputs[i][0]} would overwrite another output of this command")
    written = []
    try:
        for path, data in sorted(outputs, key=lambda output: output[0] == "-"):
            if path == "-" and isinstance(data, str):
                sys.stdout.write(data)
            elif path == "-":
                sys.stdout.flush()
                sys.stdout.buffer.write(data)
            elif isinstance(data, str):
                Path(path).write_text(data)
            else:
                Path(path).write_bytes(data)
            written.append(path)
    except OSError:
        for path in written:
            Path(path).unlink()
        raise


def _render(writer, *args) -> str:
    buf = io.StringIO()
    writer(*args, buf)
    return buf.getvalue()


def _threshold_configs(args) -> list[cls.ThresholdConfig]:
    """One ThresholdConfig per --measures name (default: cc,kld,jsd), at its
    --thresholds value (default: the published one).  A measure named
    twice in either flag, or a --thresholds entry for one that is not
    classified, is an error."""
    thresholds = dict(cls.DEFAULT_THRESHOLDS)
    measures = args.measures.split(",") if args.measures is not None else cls.CAMERA_REF_FEATURES
    if len(set(measures)) < len(measures):
        raise ParameterError(f"--measures names a measure twice: {args.measures}")
    if args.thresholds not in (None, "default"):
        parts = args.thresholds.split(",")
        if len({part.partition("=")[0] for part in parts}) < len(parts):
            raise ParameterError(f"--thresholds names a measure twice: {args.thresholds}")
        for part in parts:
            measure, _, value = part.partition("=")
            try:
                threshold = float(value)
            except ValueError:
                threshold = None
            if measure not in thresholds or threshold is None or not math.isfinite(threshold):
                raise ParameterError(f"bad threshold {part!r} (want measure=finite number)")
            if measure not in measures:
                raise ParameterError(f"--thresholds sets {measure}, but only {','.join(measures)} are classified")
            thresholds[measure] = threshold
    # ThresholdConfig rejects a name that is not a measure.
    return [cls.ThresholdConfig(m, thresholds.get(m)) for m in measures]


def _load_samples(path: str) -> similarity.Report:
    with open(path) as fh:
        return similarity.read_samples(fh)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def _decimal(flag: str, text: str) -> Fraction:
    """The number a flag's text writes, exactly: "0.1" is 1/10, not the
    float nearest it.  Parsed here, not by argparse, so a bad value ends
    in one stderr line."""
    try:
        if "/" not in text and math.isfinite(number := Fraction(text)):  # isfinite: not past a float's range
            return number
    except (ValueError, OverflowError):
        pass
    raise ParameterError(f"{flag} must be a finite decimal number, got {text!r}")


def cmd_extract(args) -> int:
    if bool(args.pcap) == bool(args.video):
        raise ParameterError("give exactly one of --pcap or --video")
    if args.video:  # the pcap window and device flags default to None, so a given one shows
        pcap_flags = (("--window", args.window), ("--start", args.start), ("--group-by", args.group_by),
                      ("--include-non-data", args.include_non_data))
        given = [flag for flag, value in pcap_flags if value is not None]
        if given:
            raise ParameterError(f"--video reads the whole track; drop {', '.join(given)}")
    step = _decimal("--step", args.step)
    if args.pcap:
        drops: dict = {}
        with open(args.pcap, "rb") as fh:
            streams = pcap.extract_device_series(
                pcap.read_pcap(fh),
                start=None if args.start is None else _decimal("--start", args.start),
                step=step,
                n_steps=DEFAULT_WINDOW if args.window is None else args.window,
                group_by=args.group_by or "mac",
                include_non_data=bool(args.include_non_data),
                counters=drops,
            )
        if not streams:
            raise SimobsError(
                "no device in the window: {malformed} frames malformed, {unattributed} unattributed, "
                "{out_of_window} out of window".format(**drops)
            )
        text = _render(pcap.write_devices_csv, [(ds.device_id, ds.series) for ds in streams])
    else:
        data = Path(args.video).read_bytes()
        tables = mp4.parse_mp4(data)
        text = _render(write_series_csv, mp4.video_byte_series(tables, step=step))
    _write_outputs([(args.out, text)])
    return 0


def _read_series(path: str) -> ByteSeries:
    with open(path) as fh:
        return read_series_csv(fh)


def _manifest_labels(manifest) -> dict[str, tuple[bool, list]]:
    """The spying label and sample tags (the scenario's sorted tags,
    then the device kind) of each device the simulator manifest lists."""
    tags = sorted(json_strings(manifest.get("scenario", {}).get("tags", []), "scenario tags"))
    labels = {}
    for d in manifest.get("devices", []):
        if not isinstance(d["device_id"], str):
            raise FormatError(f"manifest device_id must be a string, got {d['device_id']!r}")
        kind = [f"kind={d['kind']}"] if "kind" in d else []
        labels[d["device_id"]] = (json_bool(d.get("spying", False), "spying"), tags + kind)
    return labels


def cmd_analyze(args) -> int:
    if args.manifest and args.format is not None:
        raise ParameterError("--manifest always writes JSON samples; drop --format")
    reference = _read_series(args.reference)
    with open(args.devices) as fh:
        devices = pcap.read_devices_csv(fh)
    labels = None
    if args.manifest:
        with open(args.manifest) as fh:
            labels = read_json(fh, _manifest_labels, "manifest")

    ids = [device_id for device_id, _ in devices]
    if labels is not None:
        unlisted = [device_id for device_id in ids if device_id not in labels]
        if unlisted:
            raise FormatError(f"the manifest does not list {len(unlisted)} of the {len(ids)} devices, "
                              f"first {unlisted[0]}")
    report = similarity.score_report(reference, [series for _, series in devices], ids)
    if labels is not None:  # a samples file: the JSON report plus labels and tags
        report = replace(report, labels=np.array([labels[d][0] for d in ids], dtype=bool),
                         tags=[labels[d][1] for d in ids])
    json_out = labels is not None or args.format == "json"
    writer = similarity.write_report_json if json_out else similarity.write_report_csv
    _write_outputs([(args.out, _render(writer, report))])
    return 0


def _verdict_table(ids: list[str], columns: dict[str, list], fmt: str) -> str:
    """One row per device id, one column per name in ``columns``.  A None
    cell is empty in CSV and absent in JSON; a column of None is left out."""
    keys = sorted(k for k, cells in columns.items() if any(c is not None for c in cells))
    table = [[columns[k][i] for k in keys] for i in range(len(ids))]
    if fmt == "csv":
        lines = ["device_id," + ",".join(keys)]
        lines += [d + "," + ",".join("" if c is None else str(c) for c in row) for d, row in zip(ids, table)]
        return "\n".join(lines) + "\n"
    payload = [{"device_id": d, **{k: c for k, c in zip(keys, row) if c is not None}} for d, row in zip(ids, table)]
    return json_text(payload)


def cmd_classify(args) -> int:
    if args.model and (args.thresholds is not None or args.measures is not None):
        raise ParameterError("--model decides alone; drop --thresholds and --measures")
    with open(args.report) as fh:
        report = similarity.read_report(fh)
    if args.model:
        with open(args.model) as fh:
            model = cls.load_model(fh)
        probability = cls.mlp_probabilities(model, report.columns)
        columns = {"probability": probability.tolist(), "spy": (probability >= 0.5).tolist()}
    else:
        columns = {}
        for cfg in _threshold_configs(args):
            columns[f"spy_{cfg.measure}"] = cls.column_verdicts(report.columns, cfg).tolist()
            undefined = report.columns[cfg.measure][1]
            columns[f"indeterminate_{cfg.measure}"] = np.where(undefined, True, None).tolist()
    _write_outputs([(args.out, _verdict_table(report.device_ids, columns, args.format or "csv"))])
    return 0


def cmd_train(args) -> int:
    if not math.isfinite(args.alpha):  # an infinite penalty would only diverge
        raise ParameterError(f"--alpha must be a finite number, got {args.alpha}")
    samples = _load_samples(args.samples)
    try:
        layers = tuple(int(x) for x in args.layers.split(","))
    except ValueError:
        raise ParameterError(f"--layers must be comma-separated integers, got {args.layers!r}") from None
    model = cls.mlp_train(
        samples,
        layers=layers,
        activation=args.activation,
        seed=args.seed,
        max_iter=args.max_iter,
        alpha=args.alpha,
        feature_subset=tuple(args.features.split(",")),
    )
    _write_outputs([(args.out, _render(cls.save_model, model))])
    return 0


def cmd_grid_search(args) -> int:
    samples = _load_samples(args.samples)
    subset = tuple(args.features.split(","))
    if args.full_grid:
        grid = cls.ParamGrid()
    else:
        grid = cls.ParamGrid(
            layer_counts=(1, 3), widths=(8, 13), activations=("logistic",), alphas=(1e-4, 1e-2)
        )
    points = grid.points()
    best, cv_f1 = cls.grid_search(
        samples, points, folds=args.folds, seed=args.seed, feature_subset=subset
    )
    report = {
        "cv_f1": cv_f1,
        "hidden_layers": list(best.hidden_layers),
        "activation": best.activation,
        "alpha": best.alpha,
        "folds": args.folds,
        "grid_points": len(points),
    }
    outputs = [(args.out, json_text(report))]
    if args.fit_out:
        model = cls.mlp_train(
            samples,
            layers=best.hidden_layers,
            activation=best.activation,
            seed=args.seed,
            alpha=best.alpha,
            feature_subset=subset,
        )
        outputs.append((args.fit_out, _render(cls.save_model, model)))
    _write_outputs(outputs)
    return 0


def _scenario_from_args(args) -> simulate.SimScenario:
    if bool(args.scenario) == bool(args.preset):
        raise ParameterError("give exactly one of --scenario or --preset")
    if args.scenario:
        with open(args.scenario) as fh:
            scenario = simulate.load_scenario(fh)
        return scenario if args.seed is None else replace(scenario, seed=args.seed)
    seed = args.seed if args.seed is not None else 0
    return simulate.preset_scenario(args.preset, seed)


def cmd_simulate(args) -> int:
    if args.link is not None and not args.pcap_out:
        raise ParameterError("--link sets the capture's link type; give --pcap-out too")
    scenario = _scenario_from_args(args)
    dataset = simulate.render_scenario(scenario)
    devices = [(tr.device_id, tr.series) for tr in dataset.traces]
    out_dir = Path(args.out_dir)
    outputs: list[tuple[str, str | bytearray]] = [
        (str(out_dir / "reference.csv"), _render(write_series_csv, dataset.reference_series)),
        (str(out_dir / "devices.csv"), _render(pcap.write_devices_csv, devices)),
        (str(out_dir / "manifest.json"), json_text(dataset.manifest)),
    ]
    if args.pcap_out:  # only a capture needs frames; the series are binned from the same totals
        frames = [(tr.device_id, simulate.packetize(tr.step_bytes, scenario.step, tr.delay))
                  for tr in dataset.traces]
        outputs.append((args.pcap_out, simulate.write_pcap(frames, link=args.link or "ethernet")))
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_outputs(outputs)
    return 0


def cmd_converge(args) -> int:
    if args.trials < 1:
        raise ParameterError(f"--trials must be >= 1, got {args.trials}")
    if args.model and (args.threshold is not None or args.measure is not None):
        raise ParameterError("--model decides alone; drop --threshold and --measure")
    scenario = _scenario_from_args(args)
    if args.model:
        with open(args.model) as fh:
            classifier = cls.load_model(fh)
    else:
        measure = args.measure or "kld"
        threshold = args.threshold if args.threshold is not None else cls.DEFAULT_THRESHOLDS[measure]
        if not math.isfinite(threshold):
            raise ParameterError(f"--threshold must be a finite number, got {threshold}")
        classifier = cls.ThresholdConfig(measure, threshold)

    curves = []
    for trial in range(args.trials):
        dataset = simulate.render_scenario(replace(scenario, seed=scenario.seed + trial))
        results = cls.convergence_analysis(
            dataset.reference_series,
            [tr.series for tr in dataset.traces],
            [tr.spying for tr in dataset.traces],
            classifier,
        )
        curves.append([(m.f1, m.accuracy, m.precision, m.recall) for _, m in results])

    # Every trial renders the same duration, so the curves are of one
    # length.  The trials go on the last, contiguous axis, where each
    # cell's sum is pairwise, as np.mean sums a list.
    means = np.stack(curves, axis=-1).mean(axis=-1)
    lines = ["t,mean_f1,mean_accuracy,mean_precision,mean_recall"]
    lines += [f"{t}," + ",".join(repr(c) for c in cells) for t, cells in enumerate(means.tolist(), start=2)]
    _write_outputs([(args.out, "\n".join(lines) + "\n")])
    return 0


def cmd_portability(args) -> int:
    samples = _load_samples(args.samples)
    order, matrix = cls.portability_matrix(samples, args.partition_tag, args.trainer, seed=args.seed)
    lines = ["train\\test," + ",".join(order)]
    for name, row in zip(order, matrix):
        lines.append(name + "," + ",".join(repr(float(v)) for v in row))
    _write_outputs([(args.out, "\n".join(lines) + "\n")])
    return 0


def cmd_agreement(args) -> int:
    samples = _load_samples(args.samples)
    report = cls.measure_agreement(samples, _threshold_configs(args))
    payload = {
        "total_false_positives": report.total_false_positives,
        "counts": {str(k): v for k, v in sorted(report.counts.items())},
        "distribution": {str(k): v for k, v in report.distribution.items()},
    }
    _write_outputs([(args.out, json_text(payload))])
    return 0


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

@functools.cache  # one parser per process; parse_args leaves it as it was
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simobs",
        description="Find streaming cameras by comparing device byte rates with a reference recording.",
    )
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default="-", help="output path ('-' for stdout)")
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("csv", "json"), help="output format (default: csv)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="seed for every stochastic path")
    scene = argparse.ArgumentParser(add_help=False)
    scene.add_argument("--scenario", help="scenario config JSON")
    scene.add_argument("--preset", choices=sorted(simulate.PRESETS))
    scene.add_argument("--seed", type=int, default=None,
                       help="scenario seed (default: the scenario file's, or 0 for a preset)")
    samples = argparse.ArgumentParser(add_help=False)
    samples.add_argument("--samples", required=True, help="labeled samples JSON, as analyze --manifest writes it")
    features = argparse.ArgumentParser(add_help=False)
    features.add_argument("--features", default=",".join(cls.CAMERA_REF_FEATURES),
                          help="comma-separated measures the network reads")
    thresholds = argparse.ArgumentParser(add_help=False)
    thresholds.add_argument("--thresholds", help="'default' (the published thresholds) or measure=value,...")
    thresholds.add_argument("--measures", help="comma-separated measures to threshold "
                            f"(default: {','.join(cls.CAMERA_REF_FEATURES)})")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", parents=[out], help="byte series from a pcap or MP4 file")
    p.add_argument("--step", default=str(DEFAULT_STEP), help="time step in seconds")
    p.add_argument("--window", type=int, help=f"pcap window length in steps (default: {DEFAULT_WINDOW})")
    p.add_argument("--pcap")
    p.add_argument("--video")
    p.add_argument("--group-by", choices=("mac", "ip"), help="pcap device key (default: mac)")
    p.add_argument("--include-non-data", action="store_true", default=None)
    p.add_argument("--start", help="pcap window start in seconds (default: the first packet)")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("analyze", parents=[out, fmt], help="similarity of each device to the reference")
    p.add_argument("--reference", required=True, help="reference byte-series CSV")
    p.add_argument("--devices", required=True, help="device-set CSV")
    p.add_argument("--manifest", help="simulator manifest; adds labels/tags and forces JSON")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("classify", parents=[out, fmt, thresholds], help="verdicts from a similarity report")
    p.add_argument("--report", required=True, help="similarity report (CSV or JSON, as analyze writes it)")
    p.add_argument("--model", help="trained model JSON (instead of thresholds)")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("train", parents=[out, seeded, samples, features], help="train the network classifier")
    p.add_argument("--layers", default="13,13,13")
    p.add_argument("--activation", choices=cls.ACTIVATIONS, default="logistic")
    p.add_argument("--alpha", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=400)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("grid-search", parents=[out, seeded, samples, features], help="hyperparameter search with CV")
    p.add_argument("--folds", type=int, default=10)
    p.add_argument("--full-grid", action="store_true", help="all 768 combinations")
    p.add_argument("--fit-out", help="also fit the best point on all samples, write model here")
    p.set_defaults(func=cmd_grid_search)

    p = sub.add_parser("simulate", parents=[scene], help="render a synthetic labeled dataset")
    p.add_argument("--out-dir", required=True)
    p.add_argument("--pcap-out", help="also write the dataset as a pcap ('-' for stdout)")
    p.add_argument("--link", choices=("ethernet", "radiotap"), help="capture link type (default: ethernet)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("converge", parents=[out, scene], help="metrics at every prefix length")
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--measure", choices=similarity.MEASURES, help="measure to threshold (default: kld)")
    p.add_argument("--threshold", type=float, help="threshold of --measure (default: its published one)")
    p.add_argument("--model", help="trained model JSON (instead of a threshold)")
    p.set_defaults(func=cmd_converge)

    p = sub.add_parser("portability", parents=[out, seeded, samples], help="train/test F1 across two partitions")
    p.add_argument("--partition-tag", required=True)
    p.add_argument("--trainer", choices=similarity.MEASURES, default="kld", help="measure swept per cell")
    p.set_defaults(func=cmd_portability)

    p = sub.add_parser("agreement", parents=[out, samples, thresholds], help="simultaneous false-positive counts")
    p.set_defaults(func=cmd_agreement)

    # A flag's prefix is not that flag: `simulate --out` must not read as --out-dir.
    for command in sub.choices.values():
        command.allow_abbrev = False
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ParameterError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SimobsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
