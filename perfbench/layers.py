"""Which program functions the traced run wraps, and the per-layer
metrics computed from their spans and counters.

Each wrapper sits in the namespace where its callers look the function
up: ``cli`` calls ``pcap.read_pcap`` through the module, while
``pcap.extract_device_series`` calls the ``bin_events`` it imported, so
both ``pcap.bin_events`` and ``simulate.bin_events`` are wrapped.
Functions called once per frame or per verdict get counters only.
"""
from __future__ import annotations

from collections import Counter

from spans import Tracer, totals_by_name

CLI_COMMANDS = (
    "extract", "analyze", "classify", "converge", "simulate",
    "grid-search", "train", "portability", "agreement",
)

# (name, unit, better) of every per-layer metric, in output order.
PER_LAYER = [
    ("pcap.read_s", "s", "lower"),
    ("pcap.extract_s", "s", "lower"),
    ("pcap.records", "count", "lower"),
    ("pcap.records_per_s", "1/s", "higher"),
    ("pcap.attributed_ratio", "ratio", "higher"),
    ("mp4.parse_s", "s", "lower"),
    ("mp4.bin_s", "s", "lower"),
    ("mp4.samples", "count", "lower"),
    ("simulate.render_s", "s", "lower"),
    ("simulate.packetize_s", "s", "lower"),
    ("simulate.events", "count", "lower"),
    ("simulate.write_pcap_s", "s", "lower"),
    ("simulate.pcap_bytes", "B", "lower"),
    ("timeseries.bin_events_s", "s", "lower"),
    ("timeseries.events_binned", "count", "lower"),
    ("similarity.vector_s", "s", "lower"),
    ("similarity.pairs", "count", "lower"),
    ("similarity.dtw_s", "s", "lower"),
    ("similarity.dtw_cells", "count", "lower"),
    ("similarity.dtw_read_ratio", "ratio", "higher"),
    ("classify.converge_s", "s", "lower"),
    ("classify.mlp_train_s", "s", "lower"),
    ("classify.mlp_fits", "count", "lower"),
    ("classify.grid_search_s", "s", "lower"),
    ("classify.sweep_s", "s", "lower"),
    ("classify.portability_s", "s", "lower"),
    ("classify.agreement_s", "s", "lower"),
    *[(f"cli.{command}.self_s", "s", "lower") for command in CLI_COMMANDS],
    ("trace.op_s", "s", "lower"),
    ("trace.setup_s", "s", "lower"),
    ("trace.glue_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

# Metric name -> (span name, use self time rather than total time).
_TIMES = {
    "pcap.read_s": ("pcap.read", False),
    "pcap.extract_s": ("pcap.extract", True),
    "mp4.parse_s": ("mp4.parse", False),
    "mp4.bin_s": ("mp4.bin", False),
    "simulate.render_s": ("simulate.render", True),
    "simulate.packetize_s": ("simulate.packetize", False),
    "simulate.write_pcap_s": ("simulate.write_pcap", False),
    "timeseries.bin_events_s": ("timeseries.bin_events", False),
    "similarity.vector_s": ("similarity.vector", True),
    "similarity.dtw_s": ("similarity.dtw", False),
    "classify.converge_s": ("classify.converge", True),
    "classify.mlp_train_s": ("classify.mlp_train", False),
    "classify.grid_search_s": ("classify.grid_search", True),
    "classify.sweep_s": ("classify.sweep", False),
    "classify.portability_s": ("classify.portability", True),
    "classify.agreement_s": ("classify.agreement", True),
    **{f"cli.{c}.self_s": (f"cli.{c}", True) for c in CLI_COMMANDS},
}

# Counters reported as they are, per unit.
_COUNTS = (
    "pcap.records",
    "mp4.samples",
    "simulate.events",
    "simulate.pcap_bytes",
    "timeseries.events_binned",
    "similarity.pairs",
    "similarity.dtw_cells",
    "classify.mlp_fits",
)


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _add(key, amount):
    def count(counts, args, kwargs, result):
        counts[key] += amount(args, kwargs, result)
    return count


def _dtw_reads_by_threshold(counts, args, kwargs, result):
    if _arg(args, kwargs, 1, "cfg").measure == "dtw":
        counts["similarity.dtw_reads"] += 1


def _dtw_reads_by_model(n_rows):
    def count(counts, args, kwargs, result):
        if "dtw" in _arg(args, kwargs, 0, "model").feature_subset:
            counts["similarity.dtw_reads"] += n_rows(args, kwargs)
    return count


def install(tracer: Tracer) -> None:
    """Wrap the program's layer entry points so ``tracer`` records them."""
    from simobs import classify, cli, mp4, pcap, similarity, simulate, timeseries

    tracer.wrap(cli, "main", lambda argv=None: f"cli.{argv[0]}")

    tracer.wrap(pcap, "read_pcap", "pcap.read", consume=True,
                count=_add("pcap.records", lambda a, k, r: len(r)))
    tracer.wrap(pcap, "extract_device_series", "pcap.extract",
                count=_add("pcap.binned", lambda a, k, r: sum(ds.frame_count for ds in r)))

    events_binned = _add("timeseries.events_binned", lambda a, k, r: len(_arg(a, k, 0, "events")))
    for module in (pcap, simulate, timeseries):
        tracer.wrap(module, "bin_events", "timeseries.bin_events", count=events_binned)

    tracer.wrap(mp4, "parse_mp4", "mp4.parse",
                count=_add("mp4.samples", lambda a, k, r: sum(t.sample_count for t in r)))
    tracer.wrap(mp4, "video_byte_series", "mp4.bin")

    tracer.wrap(simulate, "render_scenario", "simulate.render")
    tracer.wrap(simulate, "packetize", "simulate.packetize",
                count=_add("simulate.events", lambda a, k, r: len(r)))
    tracer.wrap(simulate, "write_pcap", "simulate.write_pcap",
                count=_add("simulate.pcap_bytes", lambda a, k, r: len(r)))

    pairs = _add("similarity.pairs", lambda a, k, r: 1)
    tracer.wrap(similarity, "similarity_vector", "similarity.vector", count=pairs)
    tracer.wrap(classify, "similarity_vector", "similarity.vector", count=pairs)

    def dtw_count(counts, args, kwargs, result):
        counts["similarity.dtw_calls"] += 1
        counts["similarity.dtw_cells"] += len(_arg(args, kwargs, 0, "a")) * len(_arg(args, kwargs, 1, "b"))
    tracer.wrap(similarity, "dtw_distance", "similarity.dtw", count=dtw_count)

    tracer.wrap(classify, "convergence_analysis", "classify.converge")
    tracer.wrap(classify, "mlp_train", "classify.mlp_train",
                count=_add("classify.mlp_fits", lambda a, k, r: 1))
    tracer.wrap(classify, "grid_search", "classify.grid_search")
    tracer.wrap(classify, "sweep_threshold", "classify.sweep")
    tracer.wrap(classify, "portability_matrix", "classify.portability")
    tracer.wrap(classify, "measure_agreement", "classify.agreement")
    tracer.wrap(classify, "threshold_classify", None, timed=False, count=_dtw_reads_by_threshold)
    tracer.wrap(classify, "mlp_predict", None, timed=False, count=_dtw_reads_by_model(lambda a, k: 1))
    tracer.wrap(classify, "mlp_verdicts", None, timed=False,
                count=_dtw_reads_by_model(lambda a, k: len(_arg(a, k, 1, "samples"))))


class PhaseSums:
    """Span time and counters summed over the traced units of one phase
    (operations, or set-up repetitions)."""

    def __init__(self, root: str):
        self.root = root
        self.units = 0
        self.total: Counter = Counter()
        self.own: Counter = Counter()
        self.counts: Counter = Counter()

    def add(self, spans: list[list], counts: Counter) -> None:
        total, own = totals_by_name(spans)
        self.units += 1
        self.total.update(total)
        self.own.update(own)
        self.counts.update(counts)

    def per_unit(self) -> tuple[Counter, Counter, Counter]:
        n = max(self.units, 1)
        return tuple(Counter({k: v / n for k, v in c.items()}) for c in (self.total, self.own, self.counts))


def layer_metrics(ops: PhaseSums, setup: PhaseSums, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics: per operation plus per set-up repetition.

    Most layers run in one phase of a workload only (set-up renders the
    scan scene; the converge op renders its own), so the sum reads as
    the layer's cost in whichever phase uses it.  The exception is
    ``timeseries`` on scan: extract bins per operation and the render
    bins per set-up.
    """
    total, own, counts = Counter(), Counter(), Counter()
    for phase in (ops, setup):
        t, o, c = phase.per_unit()
        total.update(t)
        own.update(o)
        counts.update(c)

    out: dict[str, float] = {}
    for metric, (span, use_self) in _TIMES.items():
        out[metric] = (own if use_self else total)[span]
    for metric in _COUNTS:
        out[metric] = counts[metric]
    pcap_s = total["pcap.read"] + total["pcap.extract"]
    out["pcap.records_per_s"] = counts["pcap.records"] / pcap_s if pcap_s else 0.0
    out["pcap.attributed_ratio"] = (
        counts["pcap.binned"] / counts["pcap.records"] if counts["pcap.records"] else 0.0
    )
    out["similarity.dtw_read_ratio"] = (
        counts["similarity.dtw_reads"] / counts["similarity.dtw_calls"]
        if counts["similarity.dtw_calls"] else 0.0
    )
    out["trace.op_s"] = ops.per_unit()[0][ops.root]
    out["trace.setup_s"] = setup.per_unit()[0][setup.root]
    out["trace.glue_s"] = own[ops.root] + own[setup.root]
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name, _, _ in PER_LAYER}
