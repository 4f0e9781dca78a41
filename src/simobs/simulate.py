"""Synthetic labeled datasets: scene motion, camera traffic, background
devices, and pcap output.

Cameras here follow the interframe-compression shape: a motion-driven
byte rate on top of an idle floor, periodic full-frame spikes, noise,
optional transmit delay and store-then-burst behavior.  Background
devices model streaming, browsing and bulk downloads that must not be
mistaken for cameras watching the scene.
"""
from __future__ import annotations

import hashlib
import math
import numbers
import struct
from dataclasses import asdict, dataclass, fields, replace
from typing import Mapping, Sequence, TextIO

import numpy as np

from .errors import ParameterError, read_json
from .pcap import ETHERTYPE_IPV4, GLOBAL_HEADER_LEN, MAGIC_MICROS, RECORD_HEADER_LEN, LinkType, _window
# bin_events is not called here; perfbench/layers.py wraps simulate.bin_events.
from .timeseries import (MICROSECOND, ByteSeries, add_to_steps, bin_events, check_window, event_array, microseconds,
                         step_index)

MTU = 1500
MIN_FRAME = 64  # nonzero step emissions are padded to the physical minimum

ACTIVITY_RESOLUTION = 0.1
ACTIVITY_PROFILES = ("still", "walking", "burst", "mixed")


def derive_seed(root_seed: int, *scope: object) -> int:
    """Stable per-device sub-seed: adding devices never reshuffles others."""
    text = ":".join([str(root_seed), *map(str, scope)])
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


def _check(name: str, value, kind: type) -> None:
    """The one rule for a simulator value, by the type of its default: a
    bool is a JSON bool, text an activity profile name, an int a whole
    count of steps >= 0 (10.0 is 10) and a float a finite number >= 0.  A
    bool is not a number."""
    if kind is bool:
        ok = isinstance(value, bool)
    elif kind is str:
        ok = value in ACTIVITY_PROFILES
    else:  # NaN fails 0 <= value
        number = type(value) in (float, int) or (isinstance(value, numbers.Real) and not isinstance(value, bool))
        ok = number and 0 <= value < math.inf and (kind is float or value == math.floor(value))
    if not ok:
        want = {bool: "true or false", str: f"one of {ACTIVITY_PROFILES}", int: "a whole number of steps >= 0",
                float: "a finite number >= 0"}[kind]
        raise ParameterError(f"{name} must be {want}, got {value!r}")


@dataclass(frozen=True)
class CameraModel:
    """Byte-rate behavior of one streaming camera."""

    idle_bytes_per_step: float = 50_000.0
    motion_gain: float = 400_000.0  # bytes per unit activity per step
    iframe_period: int = 10  # steps between full-frame spikes
    iframe_bytes: float = 50_000.0
    noise_std: float = 3_000.0
    delay: float = 0.0  # seconds between capture and transmission
    burst_accumulate: bool = False
    release_threshold: float = 400_000.0
    observed_fraction: float = 1.0  # share of the scene this camera sees

    def __post_init__(self):
        for field in fields(self):
            _check(field.name, getattr(self, field.name), type(field.default))
        if self.iframe_period < 1:
            raise ParameterError(f"iframe_period must be >= 1, got {self.iframe_period!r}")
        if self.observed_fraction > 1.0:
            raise ParameterError(f"observed_fraction must be <= 1, got {self.observed_fraction!r}")


@dataclass(frozen=True)
class SimScenario:
    duration: int  # steps
    seed: int
    reference: CameraModel
    spies: tuple[CameraModel, ...] = ()
    background: tuple[tuple[str, Mapping], ...] = ()
    tags: frozenset[str] = frozenset()
    step: float = 1.0
    activity_profile: str = "walking"

    def __post_init__(self):
        _check("duration", self.duration, int)
        _check("step", self.step, float)
        _check("activity_profile", self.activity_profile, str)
        if not isinstance(self.tags, (list, tuple, set, frozenset)) or not all(isinstance(t, str) for t in self.tags):
            raise ParameterError(f"tags must be a list of strings, got {self.tags!r}")
        # 10.0 steps is 10, seed 7.0 is 7 and a step of 1 is 1.0, as the manifest records them.
        object.__setattr__(self, "duration", int(self.duration))
        object.__setattr__(self, "seed", _seed(self.seed))
        object.__setattr__(self, "step", float(self.step))
        object.__setattr__(self, "tags", frozenset(self.tags))
        check_window(0.0, self.step, self.duration)
        if self.duration < 2:
            raise ParameterError(f"duration must be >= 2 steps, got {self.duration}")
        if not self.spies and not self.background:
            raise ParameterError("scenario needs at least one device")
        for index, (kind, params) in enumerate(self.background):
            defaults = BACKGROUND_PARAMS.get(kind) if isinstance(kind, str) else None
            if defaults is None:
                raise ParameterError(
                    f"background[{index}]: unknown background kind {kind!r} (have {sorted(BACKGROUND_PARAMS)})"
                )
            owner = f"background[{index}] {kind}"
            if unknown := params.keys() - defaults.keys():
                raise ParameterError(f"{owner} has no parameter {', '.join(map(repr, sorted(unknown)))}")
            for key, value in params.items():
                _check(f"{owner} {key}", value, type(defaults[key]))
            if kind == "vbr_stream":  # the camera it runs, whose iframe_period is >= 1
                _owned(owner + " ", _vbr_camera, params)


@dataclass(frozen=True, eq=False)
class LabeledTrace:
    """One simulated device: its per-step byte totals, transmit delay,
    binned stream and ground truth."""

    device_id: str  # its MAC
    kind: str
    spying: bool
    step_bytes: np.ndarray
    delay: float
    series: ByteSeries


@dataclass(frozen=True)
class SimDataset:
    reference_series: ByteSeries
    traces: tuple[LabeledTrace, ...]
    manifest: dict


# ---------------------------------------------------------------------------
# Scene activity
# ---------------------------------------------------------------------------

def gen_activity(profile: str, duration: int, seed: int, step: float = 1.0) -> np.ndarray:
    """Deterministic scene motion for ``duration`` steps: magnitudes in
    [0, 1], ``ACTIVITY_RESOLUTION`` seconds apart."""
    if duration < 1:
        raise ParameterError("duration must be >= 1")
    if profile not in ACTIVITY_PROFILES:
        raise ParameterError(f"unknown activity profile {profile!r}")
    n = duration * max(1, round(step / ACTIVITY_RESOLUTION))
    values = _profile_values(profile, np.random.default_rng(seed), n)
    return np.clip(values, 0.0, 1.0)


def _profile_values(profile: str, rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` unclipped samples of one activity profile."""
    if profile == "still":
        return rng.uniform(0.0, 0.02, n)
    if profile == "walking":
        return _walking(rng, n)
    if profile == "burst":
        return _burst(rng, n)
    # mixed: a few segments of the basic profiles, each from its own seed
    segments = []
    remaining = n
    while remaining > 0:
        length = min(remaining, int(rng.integers(n // 6 + 1, n // 2 + 2)))
        kind = str(rng.choice(["still", "walking", "burst"]))
        segments.append(_profile_values(kind, np.random.default_rng(int(rng.integers(0, 2**32))), length))
        remaining -= length
    return np.concatenate(segments)


def _walking(rng: np.random.Generator, n: int) -> np.ndarray:
    # Reflected random walk in [0.2, 0.8], lightly smoothed.
    lo, hi = 0.2, 0.8
    width = hi - lo
    raw = rng.uniform(lo + 0.1, hi - 0.1) + np.cumsum(rng.normal(0.0, 0.08, n))
    z = np.mod(raw - lo, 2 * width)
    folded = lo + width - np.abs(z - width)
    kernel = np.ones(12) / 12
    # The centred n samples of the full convolution: mode="same" would
    # return 12 when n < 12.
    return np.convolve(folded, kernel, "full")[5 : 5 + n]


def _burst(rng: np.random.Generator, n: int) -> np.ndarray:
    values = np.zeros(n)
    t = float(rng.exponential(5.0))
    horizon = n * ACTIVITY_RESOLUTION
    while t < horizon:
        length = rng.uniform(0.5, 2.0)
        magnitude = rng.uniform(0.5, 1.0)
        i0 = int(t / ACTIVITY_RESOLUTION)
        i1 = min(n, int((t + length) / ACTIVITY_RESOLUTION) + 1)
        values[i0:i1] = np.maximum(values[i0:i1], magnitude)
        t += length + float(rng.exponential(6.0))
    return values


# ---------------------------------------------------------------------------
# Device traffic
# ---------------------------------------------------------------------------

def packetize(step_bytes: Sequence[int], step: float, delay: float = 0.0) -> np.ndarray:
    """Spread each step's bytes over MTU-sized events within the step.

    Nonzero emissions are padded to the 64-byte minimum frame; packets
    sit at evenly spaced sub-step offsets, shifted by ``delay``.
    """
    totals = np.asarray(step_bytes, dtype=np.int64)
    steps = np.flatnonzero(totals > 0)
    which, j, n, sizes = _packets(totals[steps])
    return event_array(_packet_times(steps[which], j, n, step, delay), sizes)


def _packets(totals: np.ndarray, whole=False) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Each step total padded to the frame minimum and cut into ``n``
    MTU-sized packets a byte apart at most, the larger first: per packet,
    the index of its total, its index ``j`` of the ``n`` and its size.  A
    total marked ``whole`` is one piece, packet 0 of its ``n``."""
    sizes = np.maximum(totals, MIN_FRAME)
    n = -(-sizes // MTU)
    parts = np.where(whole, 1, n)
    base, extra = np.divmod(sizes, parts)
    which = np.repeat(np.arange(sizes.size), parts)
    j = np.arange(which.size) - (np.cumsum(parts) - parts)[which]
    return which, j, n[which], base[which] + (j < extra[which])


def _packet_times(steps: np.ndarray, j: np.ndarray, n: np.ndarray, step: float, delay: float) -> np.ndarray:
    """Time of packet ``j`` of the ``n`` a step sends, monotone in ``j``."""
    return (steps + (j + 0.5) / n) * step + delay


def step_bins(step_bytes: np.ndarray, step: float, delays: Sequence[float], n_steps: int) -> np.ndarray:
    """The series ``bin_events(packetize(step_bytes[i], step, delays[i]),
    0.0, step, n_steps)`` would give for every row ``i`` of a ``(D, T)``
    block of per-step totals, bit for bit, as a ``(D, n_steps)`` int64
    array.

    Each packet is binned at the microsecond a capture records it at.  A
    step whose first and last packet fall in one bin is binned whole, as
    packet times rise with the packet index; a step that straddles a bin
    boundary is binned packet by packet, in the same scatter.
    """
    check_window(0.0, step, n_steps)
    totals = np.asarray(step_bytes, dtype=np.int64)
    rows, steps = np.nonzero(totals > 0)
    delays = np.asarray(delays, dtype=np.float64)[rows]
    n_pkts = _packets(totals[rows, steps], whole=True)[2]

    def packet_steps(steps, j, n, delays):
        ticks = microseconds(_packet_times(steps, j, n, step, delays))
        return step_index(ticks, MICROSECOND, 0.0, step, n_steps)

    first, last = (packet_steps(steps, j, n_pkts, delays)[0] for j in (0, n_pkts - 1))
    which, j, n, sizes = _packets(totals[rows, steps], whole=first == last)
    index, held = packet_steps(steps[which], j, n, delays[which])
    values = np.zeros((len(totals), n_steps), dtype=np.int64)
    add_to_steps(values, rows[which][held], index[held], sizes[held])
    return values


def _camera_bytes(activity: np.ndarray, model: CameraModel, step: float, seed: int) -> np.ndarray:
    """Bytes a camera with this model sends in each step of the scene."""
    per = max(1, round(step / ACTIVITY_RESOLUTION))
    n_steps = len(activity) // per
    act = activity[: n_steps * per].reshape(n_steps, per).mean(axis=1) * model.observed_fraction
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, model.noise_std, n_steps) if model.noise_std > 0 else np.zeros(n_steps)
    produced = model.idle_bytes_per_step + model.motion_gain * act + noise
    produced[:: int(model.iframe_period)] += model.iframe_bytes
    produced = np.maximum(produced, 0.0)
    if model.burst_accumulate:  # a store-then-burst camera carries its buffer from step to step
        released = np.zeros(n_steps)
        buffered = 0.0
        for i, amount in enumerate(produced.tolist()):
            buffered += amount
            if buffered >= model.release_threshold:
                released[i], buffered = buffered, 0.0
        produced = released
    return _byte_counts(produced)


def _byte_counts(step_bytes: np.ndarray) -> np.ndarray:
    """Per-step byte amounts rounded half to even, as ``round`` does, into
    int64 totals; ParameterError for an amount that no int64 holds."""
    rounded = np.rint(step_bytes)
    if not (rounded < 2.0**63).all():  # NaN fails too
        raise ParameterError(f"a step's byte total {float(rounded.max())!r} does not fit in 64 bits")
    return rounded.astype(np.int64)


# Every background kind, its parameters and their defaults.  A value is
# checked by its default's type, as a camera field is (``_check``).
BACKGROUND_PARAMS: dict[str, dict[str, str | int | float]] = {
    "cbr": {"bytes_per_step": 300_000.0, "jitter": 0.0, "surge_period": 0, "surge_factor": 0.0},
    "vbr_stream": {"profile": "walking", "idle_bytes_per_step": 40_000.0, "motion_gain": 350_000.0,
                   "iframe_period": 10, "iframe_bytes": 100_000.0, "noise_std": 10_000.0},
    "browsing": {"burst_bytes": 400_000.0, "off_mean": 6.0},
    "download": {"bytes_per_step": 2_000_000.0, "ramp_steps": 5, "jitter": math.nan},  # NaN: 1 % of the rate
}


def _background_bytes(kind: str, params: Mapping, duration: int, seed: int, step: float) -> np.ndarray:
    """Bytes one background device sends in each step; it never delays."""
    return _GENERATORS[kind]({**BACKGROUND_PARAMS[kind], **params}, duration, seed, step)


def _cbr(params: dict, duration: int, seed: int, step: float) -> np.ndarray:
    base, surge_period = float(params["bytes_per_step"]), params["surge_period"]
    step_bytes = np.full(duration, base)
    if params["jitter"] > 0:
        step_bytes += np.random.default_rng(seed).laplace(0.0, params["jitter"], duration)
    if surge_period > 0:
        surge_at = np.arange(duration) % surge_period == surge_period - 1
        step_bytes += np.where(surge_at, base * params["surge_factor"], 0.0)
    return _byte_counts(np.maximum(step_bytes, 0.0))


def _vbr_camera(params: Mapping) -> CameraModel:
    """The camera a ``vbr_stream`` runs: all its parameters but its scene's ``profile``."""
    return CameraModel(**{key: value for key, value in params.items() if key != "profile"})


def _vbr_stream(params: dict, duration: int, seed: int, step: float) -> np.ndarray:
    model = _vbr_camera(params)
    # Its own scene: seed-derived, independent of the observed one.
    activity = gen_activity(params["profile"], duration, derive_seed(seed, "vbr-activity"), step=step)
    return _camera_bytes(activity, model, step, derive_seed(seed, "vbr-camera"))


def _browsing(params: dict, duration: int, seed: int, step: float) -> np.ndarray:
    burst_mean, off_mean = params["burst_bytes"], params["off_mean"]
    rng = np.random.default_rng(seed)
    step_bytes = np.zeros(duration)
    t = float(rng.exponential(off_mean))
    horizon = duration * step
    while t < horizon:
        # Heavy-tailed page/asset fetch spread over a short on-period.
        total = burst_mean * float(rng.pareto(1.5) + 0.25)
        total = min(total, 30 * burst_mean)
        length = rng.uniform(0.3, 1.5)
        i0 = int(t / step)
        i1 = min(duration, int((t + length) / step) + 1)
        if i1 > i0:  # t / step can round up to the horizon
            step_bytes[i0:i1] += np.rint(total * (1.0 / (i1 - i0)))
        t += length + float(rng.exponential(off_mean))
    return _byte_counts(step_bytes)


def _download(params: dict, duration: int, seed: int, step: float) -> np.ndarray:
    rate = params["bytes_per_step"]
    jitter = rate * 0.01 if math.isnan(params["jitter"]) else params["jitter"]
    ramp_curve = np.minimum(1.0, (np.arange(duration) + 1) / max(1, params["ramp_steps"]))
    noise = np.random.default_rng(seed).laplace(0.0, jitter, duration) if jitter > 0 else 0.0
    return _byte_counts(np.maximum(rate * ramp_curve + noise, 0.0))


_GENERATORS = {"cbr": _cbr, "vbr_stream": _vbr_stream, "browsing": _browsing, "download": _download}


# ---------------------------------------------------------------------------
# Scenario rendering
# ---------------------------------------------------------------------------

def _device_mac(group: int, index: int) -> str:
    """The MAC of a group's device: ``index + 1`` in the last octet, its
    higher bytes in the fourth and third."""
    n = index + 1
    return f"02:00:{n >> 16:02x}:{n >> 8 & 0xFF:02x}:{group:02x}:{n & 0xFF:02x}"


def render_scenario(scenario: SimScenario) -> SimDataset:
    """Every device's per-step totals and binned series for one scenario.

    All randomness flows from the scenario seed through per-device
    sub-seeds, so datasets are byte-identical across runs and adding a
    device never changes the others.  Each series is the exact binning
    of the frames ``packetize`` builds from the same totals and delay,
    which only a capture needs.
    """
    step = scenario.step
    duration = scenario.duration
    scene = gen_activity(
        scenario.activity_profile, duration, derive_seed(scenario.seed, "scene"), step=step
    )
    reference = scenario.reference
    reference_bytes = _camera_bytes(scene, reference, step, derive_seed(scenario.seed, "reference"))
    devices = [
        (_device_mac(1, i), "spy_camera", True,
         _camera_bytes(scene, model, step, derive_seed(scenario.seed, "spy", i)), model.delay)
        for i, model in enumerate(scenario.spies)
    ] + [
        (_device_mac(2, i), kind, False,
         _background_bytes(kind, params, duration, derive_seed(scenario.seed, "background", i), step), 0.0)
        for i, (kind, params) in enumerate(scenario.background)
    ]
    # The reference is row 0 of one block that bins every device at once.
    bins = step_bins(
        np.stack([reference_bytes, *(step_bytes for *_, step_bytes, _ in devices)]),
        step, [reference.delay, *(delay for *_, delay in devices)], duration,
    )
    reference_series = ByteSeries(0.0, step, bins[0])
    traces = sorted(
        (LabeledTrace(device_id, kind, spying, step_bytes, delay, ByteSeries(0.0, step, values))
         for (device_id, kind, spying, step_bytes, delay), values in zip(devices, bins[1:])),
        key=lambda tr: tr.device_id,
    )

    manifest = {
        "scenario": scenario_to_dict(scenario),
        "devices": [
            {"device_id": tr.device_id, "kind": tr.kind, "spying": tr.spying}
            for tr in traces
        ],
    }
    return SimDataset(reference_series=reference_series, traces=tuple(traces), manifest=manifest)


# ---------------------------------------------------------------------------
# pcap output
# ---------------------------------------------------------------------------

_GATEWAY_MAC = bytes.fromhex("0200000000fe")
_RADIOTAP_HEADER = struct.pack("<BBHI", 0, 0, 8, 0)
_LINK_TYPES = {"ethernet": LinkType.ETHERNET, "radiotap": LinkType.IEEE80211_RADIOTAP}
SNAPLEN = 65535


def _frame_heads(device_ids: Sequence[str], link_type: LinkType) -> np.ndarray:
    """One uint8 row per device: its fixed frame head.  Ethernet is the
    Ethernet header plus an IPv4 header with total length 0 from a source
    of its own: 10.0.0.(i + 1) for the first 253 devices, then on from
    10.0.1.0, past the gateway's 10.0.0.254 and 10.0.0.255.  Radiotap is
    the radiotap plus to-DS 802.11 header."""
    rows = []
    for i, device_id in enumerate(device_ids):
        src = bytes.fromhex(device_id.replace(":", ""))
        if link_type is LinkType.ETHERNET:
            n = i + 1 if i < 253 else i + 3
            ip = bytes([0x45, 0, 0, 0, 0, 0, 0, 0, 64, 17, 0, 0,  # UDP, TTL 64, lengths and checksum 0
                        10, n >> 16, n >> 8 & 0xFF, n & 0xFF, 10, 0, 0, 254])
            rows.append(_GATEWAY_MAC + src + ETHERTYPE_IPV4.to_bytes(2, "big") + ip)
        else:
            rows.append(_RADIOTAP_HEADER + b"\x08\x01\0\0" + _GATEWAY_MAC + src + _GATEWAY_MAC + b"\0\0")
    return np.frombuffer(b"".join(rows), np.uint8).reshape(len(device_ids), -1)


def write_pcap(frames: Sequence[tuple[str, np.ndarray]], link: str = "ethernet") -> bytearray:
    """Serialize ``(device MAC, event array)`` pairs as a classic
    microsecond pcap, returned as the one buffer it is built in.

    Record headers and each device's fixed frame head are scattered into
    a zero-filled buffer, so every frame body is zero fill.  Each record
    holds its frame's ``microseconds``, the ticks ``step_bins`` bins, and
    frame lengths are chosen so reading the file back through the pcap
    module's default byte basis reproduces each device's bins exactly.
    The float times only order the records.  Every frame must hold at
    least 64 bytes, fit the snaplen and lie in [0, 2**32) s.
    """
    if link not in _LINK_TYPES:
        raise ParameterError(f"link must be 'ethernet' or 'radiotap', got {link!r}")
    link_type = _LINK_TYPES[link]

    device_ids = [device_id for device_id, _ in frames]
    per_device = [events for _, events in frames]
    events = np.concatenate(per_device)
    smallest = int(events["byte_count"].min(initial=MIN_FRAME))
    if smallest < MIN_FRAME:
        raise ParameterError(f"event of {smallest} bytes is below the {MIN_FRAME}-byte frame minimum")
    dev_index = np.repeat(np.arange(len(per_device)), [len(e) for e in per_device])
    # Frames go out in (timestamp, device id) order; equal keys keep
    # device order, then event order.
    _, rank = np.unique(device_ids, return_inverse=True)
    order = np.lexsort((rank[dev_index], events["timestamp"]))

    time = events["timestamp"][order]
    fits = (time >= 0) & (time < 2**32)  # False for NaN
    if fits.all():
        sec, usec = np.divmod(microseconds(time), MICROSECOND)
        fits = sec < 2**32  # a time that rounds up to 2**32 s
    if not fits.all():
        raise ParameterError(f"frame time {float(time[~fits][0])} s is outside a classic pcap's [0, 2**32) s")
    size = events["byte_count"][order]
    frame_len = size if link_type is LinkType.ETHERNET else size + len(_RADIOTAP_HEADER)
    if frame_len.max(initial=0) > SNAPLEN:
        raise ParameterError(f"frame of {frame_len.max()} bytes is longer than the {SNAPLEN}-byte snaplen")
    heads = _frame_heads(device_ids, link_type)
    block = np.empty((len(order), RECORD_HEADER_LEN + heads.shape[1]), np.uint8)
    header = np.stack([sec, usec, frame_len, frame_len], axis=1).astype("<u4")
    block[:, :RECORD_HEADER_LEN] = header.view(np.uint8)
    block[:, RECORD_HEADER_LEN:] = heads[dev_index[order]]
    if link_type is LinkType.ETHERNET:  # IPv4 total length, 2 bytes into the IP header
        ip_len = (size - 14).astype(">u2")
        block[:, RECORD_HEADER_LEN + 16 : RECORD_HEADER_LEN + 18] = ip_len[:, None].view(np.uint8)

    record_len = RECORD_HEADER_LEN + frame_len
    buf = bytearray(GLOBAL_HEADER_LEN + int(record_len.sum()))
    buf[:GLOBAL_HEADER_LEN] = struct.pack("<IHHiIII", MAGIC_MICROS, 2, 4, 0, 0, SNAPLEN, link_type)
    start = GLOBAL_HEADER_LEN + np.cumsum(record_len) - record_len
    head = np.dtype((np.void, block.shape[1]))  # one record header and frame head as one item
    _window(buf, head)[start] = block.view(head)[:, 0]
    return buf


# ---------------------------------------------------------------------------
# Scenario config (JSON key-value schema mirroring SimScenario)
# ---------------------------------------------------------------------------

def scenario_to_dict(scenario: SimScenario) -> dict:
    return {
        "duration": scenario.duration,
        "seed": scenario.seed,
        "step": scenario.step,
        "activity_profile": scenario.activity_profile,
        "reference": asdict(scenario.reference),
        "spies": [asdict(m) for m in scenario.spies],
        "background": [[kind, dict(params)] for kind, params in scenario.background],
        "tags": sorted(scenario.tags),
    }


def _seed(value) -> int:
    """A scenario seed: an integer, or a float with no fractional part
    (7.0 is 7); not a bool."""
    whole = isinstance(value, numbers.Integral) or isinstance(value, float) and value.is_integer()
    if isinstance(value, bool) or not whole:
        raise ParameterError(f"seed must be a whole number, got {value!r}")
    return int(value)


def scenario_from_dict(data: Mapping) -> SimScenario:
    """The scenario a ``scenario_to_dict`` mapping describes; a key it
    leaves out takes the field's default."""
    decode = {
        "reference": lambda model: _owned("reference: ", CameraModel, **model),
        "spies": lambda models: tuple(
            _owned(f"spies[{index}]: ", CameraModel, **model) for index, model in enumerate(models)
        ),
        "background": lambda devices: tuple((kind, dict(params)) for kind, params in devices),
    }
    try:
        if unknown := data.keys() - {field.name for field in fields(SimScenario)}:
            raise ParameterError(f"a scenario has no field {', '.join(map(repr, sorted(unknown)))}")
        return SimScenario(**{key: decode.get(key, lambda value: value)(value) for key, value in data.items()})
    except ParameterError:
        raise
    except (TypeError, ValueError, OverflowError, AttributeError) as exc:
        raise ParameterError(f"bad scenario config: {exc}") from exc


def _owned(owner: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose error names ``owner`` first: a
    bad value raises ParameterError, an unknown camera field TypeError."""
    try:
        return build(*args, **kwargs)
    except (ParameterError, TypeError) as exc:
        raise type(exc)(owner + str(exc)) from None


def load_scenario(inp: TextIO) -> SimScenario:
    return read_json(inp, scenario_from_dict, "scenario")


# ---------------------------------------------------------------------------
# Presets used by the CLI and the end-to-end studies
# ---------------------------------------------------------------------------

_EASY_SPY = CameraModel(
    idle_bytes_per_step=48_000.0,
    motion_gain=385_000.0,
    iframe_period=10,
    iframe_bytes=48_000.0,
    noise_std=3_500.0,
)

_EASY_BACKGROUND: tuple[tuple[str, Mapping], ...] = (
    ("cbr", {"bytes_per_step": 300_000.0, "jitter": 15_000.0, "surge_period": 8, "surge_factor": 1.0}),
    ("cbr", {"bytes_per_step": 150_000.0, "jitter": 10_000.0, "surge_period": 12, "surge_factor": 1.5}),
    ("vbr_stream", {"profile": "burst", "motion_gain": 350_000.0, "idle_bytes_per_step": 30_000.0}),
    ("vbr_stream", {"profile": "still", "motion_gain": 300_000.0, "idle_bytes_per_step": 60_000.0,
                    "iframe_period": 8, "iframe_bytes": 120_000.0}),
    ("browsing", {"burst_bytes": 400_000.0, "off_mean": 6.0}),
    ("browsing", {"burst_bytes": 800_000.0, "off_mean": 10.0}),
    ("browsing", {"burst_bytes": 200_000.0, "off_mean": 4.0}),
    ("download", {"bytes_per_step": 2_000_000.0, "ramp_steps": 5}),
    ("download", {"bytes_per_step": 1_200_000.0, "ramp_steps": 8}),
)


def easy_scenario(seed: int, duration: int = 60, n_background: int = 9) -> SimScenario:
    """One clearly-observing spy camera among distinguishable backgrounds."""
    background = tuple(
        (kind, dict(params))
        for kind, params in (_EASY_BACKGROUND * (n_background // len(_EASY_BACKGROUND) + 1))[:n_background]
    )
    return SimScenario(
        duration=duration,
        seed=seed,
        reference=CameraModel(),
        spies=(_EASY_SPY,),
        background=background,
        tags=frozenset({"scenario=easy"}),
        activity_profile="walking",
    )


_FAR_SPY = CameraModel(
    idle_bytes_per_step=55_000.0,
    motion_gain=330_000.0,
    iframe_period=7,
    iframe_bytes=70_000.0,
    noise_std=12_000.0,
    delay=0.3,
    observed_fraction=0.8,
)


def regime_scenario(regime: str, seed: int) -> SimScenario:
    """Two data regimes with different spy-camera hardware behavior.

    ``near`` matches the reference closely; ``far`` is a weaker, noisier,
    delayed camera seeing only part of the scene.
    """
    if regime == "near":
        spy = _EASY_SPY
    elif regime == "far":
        spy = _FAR_SPY
    else:
        raise ParameterError(f"unknown regime {regime!r}")
    return replace(easy_scenario(seed), spies=(spy,), tags=frozenset({f"regime={regime}"}))


PRESETS = {
    "easy": lambda seed: easy_scenario(seed),
    "easy70": lambda seed: easy_scenario(seed, n_background=69),
    "near": lambda seed: regime_scenario("near", seed),
    "far": lambda seed: regime_scenario("far", seed),
}


def preset_scenario(name: str, seed: int) -> SimScenario:
    if name not in PRESETS:
        raise ParameterError(f"unknown preset {name!r} (have {sorted(PRESETS)})")
    return PRESETS[name](seed)
