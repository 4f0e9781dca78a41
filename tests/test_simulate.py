import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pcap_oracle
import render_oracle
from pcap_oracle import records_of, transmitter_of
from simobs.errors import ParameterError
from simobs.pcap import DeviceId, extract_device_series, read_pcap
from simobs.similarity import _cc_rows, _kld_rows
from simobs.simulate import (
    ACTIVITY_PROFILES,
    ACTIVITY_RESOLUTION,
    BACKGROUND_PARAMS,
    MIN_FRAME,
    MTU,
    PRESETS,
    CameraModel,
    SimDataset,
    SimScenario,
    _background_bytes,
    _camera_bytes,
    _device_mac,
    derive_seed,
    easy_scenario,
    gen_activity,
    load_scenario,
    packetize,
    preset_scenario,
    render_scenario,
    scenario_from_dict,
    scenario_to_dict,
    step_bins,
    write_pcap,
)
from simobs.timeseries import MAX_STEPS, ByteSeries, bin_events, event_array, min_max_normalize


class TestGenActivity:
    def test_still_is_near_zero(self):
        for seed in range(5):
            assert gen_activity("still", 60, seed).max() <= 0.05

    def test_deterministic(self):
        a = gen_activity("walking", 60, 42)
        b = gen_activity("walking", 60, 42)
        assert np.array_equal(a, b)

    def test_walking_mean_in_band(self):
        signal = gen_activity("walking", 60, 7)
        assert len(signal) == 600
        assert 0.2 <= signal.mean() <= 0.8

    def test_burst_has_zero_baseline(self):
        signal = gen_activity("burst", 60, 3)
        assert (signal == 0).any()
        assert signal.max() <= 1.0

    @pytest.mark.parametrize("step", [0.1, 0.5, 1.0])
    def test_short_walk_has_requested_length(self, step):
        # durations below the 12-sample smoothing kernel
        per_step = round(step / ACTIVITY_RESOLUTION)
        for duration in range(1, 12 // per_step + 1):
            assert len(gen_activity("walking", duration, 5, step=step)) == duration * per_step

    def test_mixed_profile_runs(self):
        assert len(gen_activity("mixed", 60, 9)) == 600

    def test_unknown_profile(self):
        with pytest.raises(ParameterError):
            gen_activity("sprinting", 60, 0)


def packetize_oracle(step_bytes, step, delay):
    """Per-packet loop: (timestamp, size) of every packet, in order."""
    events = []
    for i, total in enumerate(step_bytes):
        if total <= 0:
            continue
        total = max(total, MIN_FRAME)
        n_pkts = math.ceil(total / MTU)
        base, extra = divmod(total, n_pkts)
        for j in range(n_pkts):
            events.append(((i + (j + 0.5) / n_pkts) * step + delay, base + (1 if j < extra else 0)))
    return events


class TestPacketize:
    @given(
        st.lists(st.one_of(st.integers(-10, MIN_FRAME), st.integers(0, 20_000)), max_size=40),
        st.sampled_from([1.0, 0.5, 2.0]),
        st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
    )
    def test_matches_per_packet_loop(self, step_bytes, step, delay):
        events = packetize(np.array(step_bytes, dtype=np.int64), step, delay)
        assert events.tolist() == packetize_oracle(step_bytes, step, delay)


def capture_frames(dataset: SimDataset) -> list:
    """The (device id, event array) pairs ``simulate --pcap-out`` writes."""
    step = dataset.reference_series.step
    return [(tr.device_id, packetize(tr.step_bytes, step, tr.delay)) for tr in dataset.traces]


class TestStepSeries:
    """``step_bins`` is ``bin_events`` over ``packetize``, bit for bit."""

    # Totals of one packet, and of several that may straddle a bin boundary.
    SMALL = [-3, 0, *range(1, 64), 64]
    LARGE = [MTU - 1, MTU, MTU + 1, 2 * MTU - 1, 2 * MTU + 1, 40 * MTU - 1, 40 * MTU + 1, 2_000_000]
    STEPS = [1.0, 0.5, 0.3, 0.1, 1 / 3]
    DELAYS = [0.0, 0.3, -0.7, 2.5, 59.9, 1e-9]

    @staticmethod
    def _straddles(totals, step, delay) -> int:
        """Steps whose packets fall in more than one bin."""
        count = 0
        for i in np.flatnonzero(totals > 0):
            alone = np.zeros_like(totals)
            alone[i] = totals[i]
            bins = np.floor(packetize(alone, step, delay)["timestamp"] / step)
            count += bins.min() != bins.max()
        return count

    def test_equals_binned_packets(self):
        rng = np.random.default_rng(14)
        cases = straddled = 0
        for step in self.STEPS:
            for delay in self.DELAYS:
                for _ in range(8):
                    size = int(rng.integers(1, 30))
                    totals = np.where(rng.random(size) < 0.5, rng.choice(self.SMALL, size), rng.choice(self.LARGE, size))
                    for n_steps in (1, len(totals) // 2 + 1, len(totals), len(totals) + 70):
                        expected = bin_events(packetize(totals, step, delay), 0.0, step, n_steps)
                        row = step_bins(totals[None], step, [delay], n_steps)[0]
                        assert ByteSeries(0.0, step, row) == expected, (totals, step, delay)
                        cases += 1
                    straddled += self._straddles(totals, step, delay)
        assert cases == 960
        assert straddled >= 400

    def test_block_equals_binned_packets_per_row(self):
        """``step_bins`` of a block, one delay per row, is each row binned
        through its own frames, including rows whose steps straddle."""
        rng = np.random.default_rng(15)
        straddled = 0
        for step in [1.0, 0.5, 0.3, 1 / 3]:
            for _ in range(50):
                n_rows, size = int(rng.integers(1, 12)), int(rng.integers(1, 40))
                block = np.where(rng.random((n_rows, size)) < 0.5, rng.choice(self.SMALL, (n_rows, size)),
                                 rng.choice(self.LARGE, (n_rows, size)))
                delays = rng.choice(self.DELAYS, n_rows)
                for n_steps in (1, size, size + 5):
                    expected = render_oracle.render_bins(block, step, delays, n_steps)
                    assert np.array_equal(step_bins(block, step, delays, n_steps), expected), (step, delays)
                straddled += sum(self._straddles(row, step, delay) > 0 for row, delay in zip(block, delays))
        assert straddled >= 100

    def test_rejects_what_bin_events_rejects(self):
        for step, n_steps in [(1.0, 0), (0.0, 5), (math.inf, 5), (math.nan, 5)]:
            with pytest.raises(ParameterError):
                step_bins(np.array([[100]]), step, [0.0], n_steps)

    def test_rejects_a_window_past_the_bound(self):
        with pytest.raises(ParameterError, match="n_steps <= "):
            step_bins(np.array([[100]]), 1.0, [0.0], MAX_STEPS + 1)

    def test_straddling_steps_build_no_events(self, monkeypatch):
        """Whole and straddling steps are binned in one scatter: no row
        builds an event array or calls bin_events."""
        block = np.array([[3000, 0, 1500 * 40 + 1, 64], [1, 2 * MTU + 1, 0, 5000]])
        delays = [0.3, 0.7]
        expected = render_oracle.render_bins(block, 1.0, delays, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("step_bins built events")
        monkeypatch.setattr("simobs.simulate.event_array", refuse)
        monkeypatch.setattr("simobs.simulate.bin_events", refuse)
        assert np.array_equal(step_bins(block, 1.0, delays, 5), expected)

    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_presets_bin_their_frames(self, preset):
        for seed, step in [(0, 1.0), (9, 1.0), (4, 0.3)]:
            scenario = replace(preset_scenario(preset, seed), step=step)
            series = render_scenario(scenario)
            assert len(series.traces) == len(scenario.spies) + len(scenario.background)
            for tr, (device_id, events) in zip(series.traces, capture_frames(series)):
                assert tr.device_id == device_id
                assert tr.series == bin_events(events, 0.0, step, scenario.duration)
            scene = gen_activity(scenario.activity_profile, scenario.duration,
                                 derive_seed(scenario.seed, "scene"), step=step)
            reference = packetize(_camera_bytes(scene, scenario.reference, step,
                                                derive_seed(scenario.seed, "reference")), step, scenario.reference.delay)
            assert series.reference_series == bin_events(reference, 0.0, step, scenario.duration)


def _burst_scenario(seed: int) -> SimScenario:
    """The easy scene with a store-then-burst spy and a delayed spy."""
    spies = (CameraModel(burst_accumulate=True, release_threshold=300_000.0),
             CameraModel(noise_std=8_000.0, delay=0.3, iframe_period=10.0))
    return replace(easy_scenario(seed), spies=spies)


class TestRenderOracle:
    """The array render (cameras, browsing, one block of bins) equals the
    per-step loops and per-device binning in ``render_oracle``."""

    SCENARIOS = {**PRESETS, "burst": _burst_scenario}

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_render_series_equals_per_step_loops(self, name):
        for seed in range(10):
            for step in (1.0, 0.5, 0.3):
                scenario = replace(self.SCENARIOS[name](seed), step=step)
                rendered = render_scenario(scenario)
                reference, devices = render_oracle.render_totals(scenario)
                assert [str(tr.device_id) for tr in rendered.traces] == [d[0] for d in devices]
                for tr, (_, totals, delay) in zip(rendered.traces, devices):
                    assert np.array_equal(tr.step_bytes, totals), (seed, step, tr.device_id)
                    assert tr.delay == delay
                bins = render_oracle.render_bins([reference, *(d[1] for d in devices)], step,
                                                 [scenario.reference.delay, *(d[2] for d in devices)],
                                                 scenario.duration)
                assert np.array_equal(rendered.reference_series.values, bins[0]), (seed, step)
                assert np.array_equal([tr.series.values for tr in rendered.traces], bins[1:]), (seed, step)

    def test_burst_camera_releases_and_carries(self):
        scenario = _burst_scenario(3)
        spy = next(tr for tr in render_scenario(scenario).traces if tr.kind == "spy_camera")  # the burst one
        released = spy.step_bytes > 0
        assert 0 < released.sum() < scenario.duration  # steps with no release carry their bytes on
        assert (spy.step_bytes[released] >= 300_000).all()

    @pytest.mark.parametrize("kind, params", [
        ("cbr", {"bytes_per_step": 1e19}),
        ("download", {"bytes_per_step": 1e19}),
        ("browsing", {"burst_bytes": 1e21}),
        ("browsing", {"burst_bytes": 1e307}),
        ("vbr_stream", {"idle_bytes_per_step": 1e19}),
    ])
    def test_total_past_int64_is_a_parameter_error(self, kind, params):
        with pytest.raises(ParameterError, match="does not fit in 64 bits"):
            _background_bytes(kind, params, 60, 1, 1.0)


class TestCameraTraffic:
    def test_silent_camera_no_events(self):
        activity = np.zeros(600)
        model = CameraModel(idle_bytes_per_step=0, motion_gain=1000, iframe_bytes=0, noise_std=0)
        assert len(packetize(_camera_bytes(activity, model, 1.0, 0), 1.0)) == 0

    def test_constant_activity_closed_form(self):
        activity = np.ones(600)
        model = CameraModel(
            idle_bytes_per_step=10_000, motion_gain=90_000, iframe_bytes=0, noise_std=0
        )
        assert _camera_bytes(activity, model, 1.0, 0).tolist() == [100_000] * 60

    def test_iframe_spikes_on_period(self):
        activity = np.zeros(600)
        model = CameraModel(
            idle_bytes_per_step=1000, motion_gain=0, iframe_period=10, iframe_bytes=5000, noise_std=0
        )
        totals = _camera_bytes(activity, model, 1.0, 0)
        assert totals[0] == 6000
        assert totals[10] == 6000
        assert totals[1] == 1000

    def test_observed_fraction_degrades_similarity(self):
        wins = 0
        for seed in range(100):
            act = gen_activity("walking", 60, 1000 + seed)
            ref = _camera_bytes(act, CameraModel(), 1.0, seed)
            seeing = CameraModel(noise_std=5000, observed_fraction=1.0)
            blind = CameraModel(noise_std=5000, observed_fraction=0.0)
            c_see = _camera_bytes(act, seeing, 1.0, seed + 7)
            c_blind = _camera_bytes(act, blind, 1.0, seed + 7)
            k_see = _kld_rows(min_max_normalize(ref)[0], min_max_normalize(c_see)[0][None])[0]
            k_blind = _kld_rows(min_max_normalize(ref)[0], min_max_normalize(c_blind)[0][None])[0]
            wins += k_blind > k_see
        assert wins >= 90

    @pytest.mark.parametrize("model", [
        CameraModel(idle_bytes_per_step=1e19),
        CameraModel(burst_accumulate=True, idle_bytes_per_step=5e18, release_threshold=8e18),
    ])
    def test_total_past_int64_is_a_parameter_error(self, model):
        with pytest.raises(ParameterError, match="does not fit in 64 bits"):
            _camera_bytes(gen_activity("walking", 20, 1), model, 1.0, 0)

    def test_burst_accumulate_buffers(self):
        activity = np.zeros(100)
        model = CameraModel(
            idle_bytes_per_step=1000, motion_gain=0, iframe_bytes=0, noise_std=0,
            burst_accumulate=True, release_threshold=2500,
        )
        # 1000/step buffers to >= 2500 every third step
        assert _camera_bytes(activity, model, 1.0, 0).tolist() == [0, 0, 3000, 0, 0, 3000, 0, 0, 3000, 0]

    def test_delay_shifts_events(self):
        activity = np.zeros(20)
        model = CameraModel(idle_bytes_per_step=1000, motion_gain=0, iframe_bytes=0,
                            noise_std=0, delay=1.0)
        events = packetize(_camera_bytes(activity, model, 1.0, 0), 1.0, model.delay)
        assert events["timestamp"].min() >= 1.0


def _one_background(kind, params):
    return SimScenario(duration=10, seed=1, reference=CameraModel(), background=((kind, params),))


class TestBackgroundTraffic:
    @pytest.mark.parametrize("kind, params, unread", [
        ("cbr", {"jitter": 1.0, "bytes_per_stepp": 5.0}, "bytes_per_stepp"),
        ("cbr", {"profile": "walking"}, "profile"),
        ("vbr_stream", {"burst_bytes": 1.0}, "burst_bytes"),
        ("browsing", {"jitter": 1.0}, "jitter"),
        ("download", {"off_mean": 1.0}, "off_mean"),
    ])
    def test_parameter_the_kind_does_not_read(self, kind, params, unread):
        with pytest.raises(ParameterError, match=f"{kind} has no parameter '{unread}'"):
            _one_background(kind, params)

    def test_cbr_exact_without_jitter(self):
        totals = _background_bytes("cbr", {"bytes_per_step": 1000.0, "jitter": 0.0}, 60, 0, 1.0)
        assert totals.tolist() == [1000] * 60

    def test_vbr_uses_independent_activity(self):
        misses = 0
        for seed in range(100):
            scene = gen_activity("walking", 60, derive_seed(seed, "scene"))
            ref = _camera_bytes(scene, CameraModel(), 1.0, seed)
            totals = _background_bytes("vbr_stream", {"profile": "walking"}, 60, seed, 1.0)
            cc = _cc_rows(min_max_normalize(ref)[0], min_max_normalize(totals)[0][None])[0]
            misses += abs(cc) < 0.5
        assert misses >= 90

    def test_browsing_has_idle_bins(self):
        assert (_background_bytes("browsing", {}, 60, 1, 1.0) == 0).any()

    def test_download_ramps_to_rate(self):
        totals = _background_bytes(
            "download", {"bytes_per_step": 1_000_000.0, "ramp_steps": 5, "jitter": 0.0}, 60, 0, 1.0
        )
        assert totals[0] == pytest.approx(200_000, rel=0.01)
        assert totals[10] == pytest.approx(1_000_000, rel=0.01)

    def test_unknown_kind(self):
        for kind in ("torrent", 7, ["cbr"]):
            with pytest.raises(ParameterError, match="unknown background kind"):
                _one_background(kind, {})

    @pytest.mark.parametrize("kind, key", [("cbr", "surge_period"), ("vbr_stream", "iframe_period"),
                                           ("download", "ramp_steps")])
    def test_step_count_must_be_whole(self, kind, key):
        with pytest.raises(ParameterError, match="whole number of steps"):
            _one_background(kind, {key: 8.7})
        assert np.array_equal(_background_bytes(kind, {key: 8.0}, 60, 0, 1.0), _background_bytes(kind, {key: 8}, 60, 0, 1.0))


class TestRenderScenario:
    def test_single_spy_dataset(self):
        scenario = SimScenario(duration=60, seed=1, reference=CameraModel(),
                               spies=(CameraModel(),))
        dataset = render_scenario(scenario)
        assert len(dataset.traces) == 1
        assert dataset.traces[0].spying
        assert len(dataset.reference_series) == 60

    def test_byte_identical_re_render(self):
        scenario = easy_scenario(seed=5)
        a = render_scenario(scenario)
        b = render_scenario(scenario)
        assert np.array_equal(a.reference_series.values, b.reference_series.values)
        assert len(a.traces) == len(b.traces)
        for ta, tb in zip(a.traces, b.traces):
            assert (ta.device_id, ta.kind, ta.spying) == (tb.device_id, tb.kind, tb.spying)
            assert ta.step_bytes.dtype == tb.step_bytes.dtype
            assert np.array_equal(ta.step_bytes, tb.step_bytes)
            assert ta.delay == tb.delay
            assert ta.series == tb.series
        assert a.manifest == b.manifest

    def test_adding_device_does_not_perturb_existing(self):
        base = easy_scenario(seed=11, n_background=3)
        more = easy_scenario(seed=11, n_background=5)
        ds_base = render_scenario(base)
        ds_more = render_scenario(more)
        by_id = {str(tr.device_id): tr for tr in ds_more.traces}
        for tr in ds_base.traces:
            assert np.array_equal(by_id[str(tr.device_id)].step_bytes, tr.step_bytes)
            assert by_id[str(tr.device_id)].delay == tr.delay

    def test_device_macs_past_255_are_valid_and_distinct(self):
        """Ids below 255 keep their names; larger indexes carry into the fourth octet."""
        assert _device_mac(2, 0).value == "02:00:00:00:02:01"
        assert _device_mac(2, 254).value == "02:00:00:00:02:ff"
        macs = [_device_mac(group, i).value for group in (1, 2) for i in range(70_000)]
        assert len(set(macs)) == len(macs)
        assert all(bytes.fromhex(mac.replace(":", "")).hex(":") == mac for mac in macs)
        assert _device_mac(2, 255).value == "02:00:00:01:02:00"

    def test_manifest_covers_every_device(self):
        dataset = render_scenario(easy_scenario(seed=2))
        listed = {d["device_id"] for d in dataset.manifest["devices"]}
        assert listed == {str(tr.device_id) for tr in dataset.traces}

    def test_backgrounds_independent_of_scene_signal(self):
        ok = total = 0
        for seed in range(20):
            scenario = easy_scenario(seed=600 + seed)
            dataset = render_scenario(scenario)
            scene = gen_activity("walking", 60, derive_seed(scenario.seed, "scene"))
            scene_means = scene.reshape(60, 10).mean(axis=1)
            for tr in dataset.traces:
                if tr.spying:
                    continue
                total += 1
                vals = tr.series.values.astype(float)
                if vals.std() == 0:
                    ok += 1
                    continue
                cc = float(np.corrcoef(scene_means, vals)[0, 1])
                ok += abs(cc) < 0.5
        assert ok / total >= 0.90

    def test_spy_separable_at_default_threshold_mostly(self):
        # Smoke-scale version of the acceptance run.
        from simobs.similarity import similarity_vector

        ok = 0
        for seed in range(25):
            dataset = render_scenario(easy_scenario(seed=500 + seed))
            verdicts = []
            for tr in dataset.traces:
                values, undefined = similarity_vector(dataset.reference_series, tr.series).columns["kld"]
                kld = float("inf") if undefined[0] else values[0]
                verdicts.append((tr.spying, kld <= 0.021))
            ok += all(spy == flagged for spy, flagged in verdicts)
        assert ok >= 20


class TestWritePcap:
    def test_round_trip_ethernet(self):
        dataset = render_scenario(easy_scenario(seed=3))
        records = list(read_pcap(write_pcap(capture_frames(dataset), link="ethernet")))
        streams = extract_device_series(records, 0.0, 1.0, 60)
        by_id = {str(s.device_id): s for s in streams}
        for tr in dataset.traces:
            assert by_id[str(tr.device_id)].series.values.tolist() == tr.series.values.tolist()

    def test_round_trip_radiotap(self):
        dataset = render_scenario(easy_scenario(seed=4))
        records = list(read_pcap(write_pcap(capture_frames(dataset), link="radiotap")))
        streams = extract_device_series(records, 0.0, 1.0, 60)
        by_id = {str(s.device_id): s for s in streams}
        for tr in dataset.traces:
            assert by_id[str(tr.device_id)].series.values.tolist() == tr.series.values.tolist()

    def test_round_trip_ip_grouping(self):
        dataset = render_scenario(easy_scenario(seed=6, n_background=3))
        records = list(read_pcap(write_pcap(capture_frames(dataset), link="ethernet")))
        streams = extract_device_series(records, 0.0, 1.0, 60, group_by="ip")
        assert len(streams) == len(dataset.traces)
        totals = sorted(int(s.series.values.sum()) for s in streams)
        expected = sorted(int(tr.series.values.sum()) for tr in dataset.traces)
        assert totals == expected

    def test_empty_dataset_header_only(self):
        scenario = SimScenario(duration=60, seed=1, reference=CameraModel(),
                               spies=(CameraModel(idle_bytes_per_step=0, motion_gain=0,
                                                  iframe_bytes=0, noise_std=0),))
        dataset = render_scenario(scenario)
        # the only device is silent: valid pcap with just the global header
        data = write_pcap(capture_frames(dataset))
        assert len(data) == 24
        assert list(read_pcap(data)) == []

    @staticmethod
    def _with_extra_frame(time: float, size: int):
        dataset = render_scenario(easy_scenario(seed=1, duration=10, n_background=1))
        (device_id, events), *rest = capture_frames(dataset)
        events = event_array(np.append(events["timestamp"], time), np.append(events["byte_count"], size))
        return [(device_id, events), *rest]

    @pytest.mark.parametrize("time", [-1e-6, math.nan, math.inf, 2.0**32, np.nextafter(2.0**32, 0)])
    @pytest.mark.parametrize("link", ["ethernet", "radiotap"])
    def test_time_outside_classic_pcap(self, time, link):
        # the last time rounds up to 2**32 s, one past the largest u32 second
        with pytest.raises(ParameterError, match="classic pcap"):
            write_pcap(self._with_extra_frame(time, 100), link=link)

    @pytest.mark.parametrize("link, size", [("ethernet", 65_536), ("radiotap", 65_528)])
    def test_frame_longer_than_snaplen(self, link, size):
        write_pcap(self._with_extra_frame(1.0, size - 1), link=link)
        with pytest.raises(ParameterError, match="snaplen"):
            write_pcap(self._with_extra_frame(1.0, size), link=link)

    @pytest.mark.parametrize("link", ["ethernet", "radiotap"])
    def test_equals_per_frame_writer(self, link):
        """Device sets in shuffled id order, with silent devices, more
        devices than IPv4 host numbers, shared frame times and times
        that round up to the next second."""
        rng = np.random.default_rng(7)
        times = np.array([0.0, 0.5, 1.9999996, 2.0, 2.9999995, 7.25, 4e9])
        for n_devices in (1, 3, 40, 260):
            frames = []
            for i in rng.permutation(n_devices):
                n = int(rng.integers(0, 6))
                events = event_array(rng.choice(times, n), rng.integers(MIN_FRAME, MTU + 1, n))
                frames.append((DeviceId("mac", f"02:00:00:00:{i // 256:02x}:{i % 256:02x}"), events))
            assert write_pcap(frames, link=link) == pcap_oracle.write_pcap(frames, link=link)

    def test_returns_the_buffer_it_fills(self):
        dataset = render_scenario(easy_scenario(seed=5, duration=10, n_background=2))
        data = write_pcap(capture_frames(dataset), link="radiotap")
        assert type(data) is bytearray
        streams = extract_device_series(read_pcap(data), 0.0, 1.0, 10)
        assert {str(s.device_id): s.series.values.tolist() for s in streams} == {
            str(tr.device_id): tr.series.values.tolist() for tr in dataset.traces
        }

    def test_deterministic_bytes(self):
        frames = capture_frames(render_scenario(easy_scenario(seed=8)))
        assert write_pcap(frames) == write_pcap(frames)

    def test_records_match_events_verbatim(self):
        frames = capture_frames(render_scenario(easy_scenario(seed=12, n_background=2)))
        events = sorted(
            (ts, str(device_id), size) for device_id, sent in frames for ts, size in sent.tolist()
        )
        data = write_pcap(frames, link="radiotap")
        records = records_of(read_pcap(data))
        assert len(records) == len(events)
        rt_len = 8
        for record, (ts, device_id, size) in zip(records, events):
            assert record.on_wire_len - rt_len == size
            assert len(record.payload) == record.on_wire_len
            assert abs(record.timestamp - ts) < 1e-6
            assert str(transmitter_of(record)) == device_id
        streams = extract_device_series(read_pcap(data), 0.0, 1.0, 60)
        in_window = {}
        for ts, device_id, _ in events:
            in_window[device_id] = in_window.get(device_id, 0) + (0 <= ts < 60)
        assert {str(s.device_id): s.frame_count for s in streams} == in_window


class TestScenarioConfig:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    def test_round_trip(self, preset, tmp_path):
        scenario = preset_scenario(preset, seed=9)
        text = json.dumps(scenario_to_dict(scenario))
        path = tmp_path / "scenario.json"
        path.write_text(text)
        with open(path) as fh:
            back = load_scenario(fh)
        assert back == scenario
        assert json.dumps(scenario_to_dict(back)) == text

    def test_dict_round_trip(self):
        scenario = preset_scenario("far", seed=1)
        assert scenario_from_dict(scenario_to_dict(scenario)) == scenario

    def test_bad_config(self):
        with pytest.raises(ParameterError):
            scenario_from_dict({"duration": 60})

    def test_unknown_preset(self):
        with pytest.raises(ParameterError):
            preset_scenario("nightmare", seed=0)

    def test_whole_float_step_counts_accepted(self):
        config = scenario_to_dict(easy_scenario(seed=1, duration=10))
        config["duration"] = 10.0
        config["spies"][0]["iframe_period"] = 10.0
        config["background"][0][1]["surge_period"] = 8.0
        config["background"][3][1]["iframe_period"] = 8.0
        config["background"][7][1]["ramp_steps"] = 5.0
        config["seed"] = 1.0
        floats = render_scenario(scenario_from_dict(config))
        ints = render_scenario(easy_scenario(seed=1, duration=10))
        assert floats.reference_series == ints.reference_series
        assert [tr.series for tr in floats.traces] == [tr.series for tr in ints.traces]

    @pytest.mark.parametrize("model", [{"iframe_period": 2.5}, {"iframe_period": 0.5}])
    def test_camera_iframe_period_must_be_whole(self, model):
        with pytest.raises(ParameterError, match="whole number of steps"):
            CameraModel(**model)


# Each scenario field change that fails when the scenario is built, as (field, value).
UNBUILDABLE = {
    "misspelled-key": ("background", (("cbr", {"jiter": 1.0}),)),
    "unknown-kind": ("background", (("torrent", {}),)),
    "unknown-vbr-profile": ("background", (("vbr_stream", {"profile": "running"}),)),
    "negative-vbr-rate": ("background", (("vbr_stream", {"idle_bytes_per_step": -1.0}),)),
    "negative-off-mean": ("background", (("browsing", {"off_mean": -1.0}),)),  # numpy's ValueError in render
    "negative-burst": ("background", (("browsing", {"burst_bytes": -1e6}),)),  # negative step totals
    "step-0": ("step", 0),
    "step-negative": ("step", -1),
    "duration-10.5": ("duration", 10.5),
    "duration-1e20": ("duration", 1e20),  # numpy's ValueError in render
    "duration-past-the-bound": ("duration", MAX_STEPS + 1),
    "seed-1.5": ("seed", 1.5),  # a manifest holding it could not be loaded back
    "tags-text": ("tags", "regime=near"),  # was stored as its characters
}

# Each camera field value that fails when the camera is built, as (field, value).
UNBUILDABLE_CAMERA = {
    "burst_accumulate-0.5": ("burst_accumulate", 0.5),  # ran a store-then-burst camera
    "delay-negative": ("delay", -0.9),  # a spy ahead of the reference: raise the reference's delay
    "release_threshold-negative": ("release_threshold", -1.0),
    "motion_gain-true": ("motion_gain", True),  # a JSON bool is not a number
}


def _nodes(node, path=()):
    """(key path, value) of every node of a JSON-like tree, the root included."""
    yield path, node
    if isinstance(node, (dict, list)):
        for key, child in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield from _nodes(child, (*path, key))


_MUTANT_VALUES = st.one_of(
    st.booleans(),
    st.just(math.nan),
    st.floats(0.1, 20.0).filter(lambda x: not x.is_integer()),  # a fractional count of steps
    st.floats(-1e6, -1e-3),  # a negative byte rate
    st.sampled_from([0, 0.0, -1, -1.0]),  # a step <= 0
    st.text(max_size=12),  # an unknown kind or profile
    st.sampled_from(ACTIVITY_PROFILES + tuple(BACKGROUND_PARAMS)),
)


class TestScenarioChecks:
    """A scenario is checked when it is built: one that builds renders."""

    @pytest.mark.parametrize("field, value", UNBUILDABLE.values(), ids=UNBUILDABLE.keys())
    def test_rejected_at_construction(self, field, value):
        base = easy_scenario(seed=1, duration=10)
        with pytest.raises(ParameterError):
            SimScenario(**{"duration": 10, "seed": 1, "reference": CameraModel(), "spies": (CameraModel(),),
                           field: value})
        with pytest.raises(ParameterError):
            replace(base, **{field: value})
        with pytest.raises(ParameterError):
            scenario_from_dict({**scenario_to_dict(base), field: value})

    @pytest.mark.parametrize("field, value", UNBUILDABLE_CAMERA.values(), ids=UNBUILDABLE_CAMERA.keys())
    def test_camera_rejected_at_construction(self, field, value):
        with pytest.raises(ParameterError, match=field):
            SimScenario(duration=10, seed=1, reference=CameraModel(), spies=(CameraModel(**{field: value}),))
        with pytest.raises(ParameterError, match=field):
            replace(CameraModel(), **{field: value})
        config = scenario_to_dict(easy_scenario(seed=1, duration=10))
        config["spies"][0][field] = value
        with pytest.raises(ParameterError, match=field):
            scenario_from_dict(config)

    @pytest.mark.parametrize("change, message", [
        (lambda c: c["spies"].append({**c["spies"][0], "delay": -0.9}), "spies[1]: delay must be "),
        (lambda c: c["reference"].update(iframe_period=0), "reference: iframe_period must be >= 1"),
        (lambda c: c["background"][3][1].update(iframe_period=0),
         "background[3] vbr_stream iframe_period must be >= 1"),
        (lambda c: c["background"][3][1].update(iframe_period=1.5), "background[3] vbr_stream iframe_period must be a whole"),
        (lambda c: c["background"][5].__setitem__(0, "torrent"), "background[5]: unknown background kind 'torrent'"),
        (lambda c: c["background"][0][1].update(jiter=1.0), "background[0] cbr has no parameter 'jiter'"),
    ], ids=["second-spy", "reference", "vbr_stream-camera", "vbr_stream-value", "unknown-kind", "unknown-parameter"])
    def test_errors_name_the_camera_or_background(self, change, message):
        config = scenario_to_dict(easy_scenario(seed=1, duration=10))
        change(config)
        with pytest.raises(ParameterError) as err:
            scenario_from_dict(config)
        assert message in str(err.value)

    def test_unknown_field(self):
        with pytest.raises(ParameterError, match="activity_proflie"):
            scenario_from_dict({**scenario_to_dict(easy_scenario(seed=1, duration=10)), "activity_proflie": "still"})

    def test_left_out_fields_take_the_defaults(self):
        config = {"duration": 10, "seed": 1, "reference": {}, "spies": [{}]}
        assert scenario_from_dict(config) == SimScenario(duration=10, seed=1, reference=CameraModel(),
                                                         spies=(CameraModel(),))

    def test_tags_are_stored_as_a_frozenset(self):
        scenario = replace(easy_scenario(seed=1, duration=10), tags=["b", "a"])
        assert scenario.tags == frozenset({"a", "b"})

    def test_counts_and_step_are_stored_as_int_and_float(self):
        """So a whole float duration renders, and the manifest reads as one from a file would."""
        scenario = SimScenario(duration=10.0, seed=7.0, reference=CameraModel(), spies=(CameraModel(),), step=1)
        assert [type(v) for v in (scenario.duration, scenario.seed, scenario.step)] == [int, int, float]
        render_scenario(scenario)

    @settings(max_examples=300, deadline=None)
    @given(preset=st.sampled_from(sorted(PRESETS)), data=st.data())
    def test_one_field_mutants_raise_or_render(self, preset, data):
        config = scenario_to_dict(preset_scenario(preset, seed=2))
        if data.draw(st.booleans(), label="add a key"):
            dicts = [path for path, node in _nodes(config) if isinstance(node, dict)]
            *parents, last = (*data.draw(st.sampled_from(dicts), label="dict"),
                              data.draw(st.text(min_size=1, max_size=12), label="key"))
        else:
            leaves = [path for path, node in _nodes(config) if not isinstance(node, (dict, list))]
            *parents, last = data.draw(st.sampled_from(leaves), label="leaf")
        target = config
        for part in parents:
            target = target[part]
        target[last] = data.draw(_MUTANT_VALUES, label="value")
        try:
            scenario = scenario_from_dict(config)
        except ParameterError:
            return
        render_scenario(scenario)
