"""Per-step device traffic and per-device binning, the reference for tests.

Every camera step is one Python decision (idle plus motion plus noise,
the I-frame spike, the clamp, the store-then-burst buffer), every
browsing on-period is spread with its own share array, and every
device is binned as ``bin_events`` over its ``packetize`` frames, one
device at a time.  ``simobs.simulate`` computes cameras and browsing
as arrays and bins a whole scenario as one block; ``render_totals``
and ``render_bins`` are checked against it value for value.
"""
from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from simobs.simulate import (
    ACTIVITY_RESOLUTION,
    CameraModel,
    SimScenario,
    _device_mac,
    derive_seed,
    gen_activity,
    packetize,
)
from simobs.timeseries import bin_events


def camera_bytes(activity: np.ndarray, model: CameraModel, step: float, seed: int) -> np.ndarray:
    per = max(1, round(step / ACTIVITY_RESOLUTION))
    n_steps = len(activity) // per
    act = activity[: n_steps * per].reshape(n_steps, per).mean(axis=1) * model.observed_fraction
    rng = np.random.default_rng(seed)
    noise = rng.normal(0.0, model.noise_std, n_steps) if model.noise_std > 0 else np.zeros(n_steps)
    step_bytes = np.zeros(n_steps, dtype=np.int64)
    buffered = 0.0
    for i in range(n_steps):
        produced = model.idle_bytes_per_step + model.motion_gain * act[i] + noise[i]
        if i % model.iframe_period == 0:
            produced += model.iframe_bytes
        produced = max(0.0, produced)
        if model.burst_accumulate:
            buffered += produced
            if buffered >= model.release_threshold:
                step_bytes[i] = round(buffered)
                buffered = 0.0
        else:
            step_bytes[i] = round(produced)
    return step_bytes


def _cbr(params: dict, duration: int, rng: np.random.Generator) -> np.ndarray:
    base = float(params.get("bytes_per_step", 300_000.0))
    jitter = float(params.get("jitter", 0.0))
    surge_period = int(params.get("surge_period", 0))
    surge_factor = float(params.get("surge_factor", 0.0))
    step_bytes = np.full(duration, base)
    if jitter > 0:
        step_bytes += rng.laplace(0.0, jitter, duration)
    if surge_period > 0:
        surge_at = np.arange(duration) % surge_period == surge_period - 1
        step_bytes += np.where(surge_at, base * surge_factor, 0.0)
    return np.maximum(0, np.round(step_bytes)).astype(np.int64)


def _vbr_stream(params: dict, duration: int, seed: int, step: float) -> np.ndarray:
    model = CameraModel(
        idle_bytes_per_step=float(params.get("idle_bytes_per_step", 40_000.0)),
        motion_gain=float(params.get("motion_gain", 350_000.0)),
        iframe_period=int(params.get("iframe_period", 10)),
        iframe_bytes=float(params.get("iframe_bytes", 100_000.0)),
        noise_std=float(params.get("noise_std", 10_000.0)),
    )
    activity = gen_activity(str(params.get("profile", "walking")), duration,
                            derive_seed(seed, "vbr-activity"), step=step)
    return camera_bytes(activity, model, step, derive_seed(seed, "vbr-camera"))


def _browsing(params: dict, duration: int, rng: np.random.Generator, step: float) -> np.ndarray:
    burst_mean = float(params.get("burst_bytes", 400_000.0))
    off_mean = float(params.get("off_mean", 6.0))
    step_bytes = np.zeros(duration, dtype=np.int64)
    t = float(rng.exponential(off_mean))
    while t < duration * step:
        total = min(burst_mean * float(rng.pareto(1.5) + 0.25), 30 * burst_mean)
        length = rng.uniform(0.3, 1.5)
        i0 = int(t / step)
        i1 = min(duration, int((t + length) / step) + 1)
        share = np.ones(i1 - i0) / (i1 - i0)
        step_bytes[i0:i1] += np.round(total * share).astype(np.int64)
        t += length + float(rng.exponential(off_mean))
    return step_bytes


def _download(params: dict, duration: int, rng: np.random.Generator) -> np.ndarray:
    rate = float(params.get("bytes_per_step", 2_000_000.0))
    ramp = max(1, int(params.get("ramp_steps", 5)))
    jitter = float(params.get("jitter", rate * 0.01))
    ramp_curve = np.minimum(1.0, (np.arange(duration) + 1) / ramp)
    step_bytes = rate * ramp_curve + (rng.laplace(0.0, jitter, duration) if jitter > 0 else 0.0)
    return np.maximum(0, np.round(step_bytes)).astype(np.int64)


def background_bytes(kind: str, parameters: Mapping, duration: int, seed: int, step: float) -> np.ndarray:
    params = dict(parameters)
    rng = np.random.default_rng(seed)
    if kind == "cbr":
        return _cbr(params, duration, rng)
    if kind == "vbr_stream":
        return _vbr_stream(params, duration, seed, step)
    if kind == "browsing":
        return _browsing(params, duration, rng, step)
    assert kind == "download", kind
    return _download(params, duration, rng)


def render_totals(scenario: SimScenario) -> tuple[np.ndarray, list[tuple[str, np.ndarray, float]]]:
    """The reference's per-step totals, and each device's id, totals and
    delay in device id order, from the per-step functions above."""
    step, duration, seed = scenario.step, scenario.duration, scenario.seed
    scene = gen_activity(scenario.activity_profile, duration, derive_seed(seed, "scene"), step=step)
    reference = camera_bytes(scene, scenario.reference, step, derive_seed(seed, "reference"))
    devices = [
        (_device_mac(1, i), camera_bytes(scene, model, step, derive_seed(seed, "spy", i)), model.delay)
        for i, model in enumerate(scenario.spies)
    ] + [
        (_device_mac(2, i), background_bytes(kind, params, duration, derive_seed(seed, "background", i), step), 0.0)
        for i, (kind, params) in enumerate(scenario.background)
    ]
    return reference, [(str(device), totals, delay) for device, totals, delay in sorted(devices, key=lambda d: d[0])]


def render_bins(step_bytes: Sequence[np.ndarray], step: float, delays: Sequence[float], n_steps: int) -> np.ndarray:
    """Each device's totals binned through its frames, one device at a time."""
    return np.array([
        bin_events(packetize(totals, step, delay), 0.0, step, n_steps).values
        for totals, delay in zip(step_bytes, delays)
    ])
