import math
from fractions import Fraction

import numpy as np
import pytest

from conftest import box, mp4_file, trak_box
from simobs.errors import NoVideoTrackError, SimobsError, StructureError, TruncationError
from simobs.mp4 import parse_mp4, video_byte_series


class TestParseMp4:
    def test_single_track_fields(self, simple_video_mp4):
        (table,) = parse_mp4(simple_video_mp4)
        assert table.timescale == 1000
        assert table.sample_sizes.tolist() == [10, 20, 30]
        assert table.sample_deltas.tolist() == [[3, 500]]
        assert table.handler == "vide"

    def test_two_tracks_with_handlers(self):
        data = mp4_file(
            trak_box(48000, "soun", sizes=[100, 100], deltas=[(2, 1024)]),
            trak_box(1000, "vide", sizes=[10, 20], deltas=[(2, 500)]),
        )
        tables = parse_mp4(data)
        assert [t.handler for t in tables] == ["soun", "vide"]
        assert tables[0].timescale == 48000

    def test_missing_moov(self):
        with pytest.raises(StructureError, match="moov"):
            parse_mp4(box("ftyp", b"isom"))

    def test_missing_stsz(self):
        from conftest import hdlr_box, mdhd_box, stts_box

        stbl = box("stbl", stts_box([(1, 500)]))
        mdia = box("mdia", mdhd_box(1000) + hdlr_box("vide") + box("minf", stbl))
        with pytest.raises(StructureError, match="stsz"):
            parse_mp4(mp4_file(box("trak", mdia)))

    def test_box_overrun_is_truncation(self):
        data = mp4_file(trak_box(1000, "vide", sizes=[10], deltas=[(1, 500)]))
        with pytest.raises((TruncationError, StructureError)):
            parse_mp4(data[:-7])

    def test_64bit_box_size(self):
        trak = trak_box(1000, "vide", sizes=[10, 20], deltas=[(2, 500)])
        data = box("ftyp", b"isom") + box("moov", trak, force_64bit=True)
        (table,) = parse_mp4(data)
        assert table.sample_sizes.tolist() == [10, 20]

    def test_mdhd_version_1(self):
        data = mp4_file(trak_box(90000, "vide", sizes=[5], deltas=[(1, 3000)], mdhd_version=1))
        (table,) = parse_mp4(data)
        assert table.timescale == 90000

    def test_uniform_stsz_expands(self):
        data = mp4_file(trak_box(1000, "vide", uniform=(777, 4), deltas=[(4, 250)]))
        (table,) = parse_mp4(data)
        assert table.sample_sizes.tolist() == [777, 777, 777, 777]

    def test_fragmented_rejected(self):
        data = mp4_file(trak_box(1000, "vide", sizes=[10], deltas=[(1, 500)])) + box("moof", b"")
        with pytest.raises(StructureError, match="moof"):
            parse_mp4(data)

    def test_delta_size_mismatch(self):
        data = mp4_file(trak_box(1000, "vide", sizes=[10, 20], deltas=[(3, 500)]))
        with pytest.raises(StructureError):
            parse_mp4(data)


class TestVideoByteSeries:
    def test_hand_bucketing(self):
        data = mp4_file(trak_box(1000, "vide", sizes=[10, 20, 30, 40], deltas=[(4, 500)]))
        series = video_byte_series(parse_mp4(data), step=1.0)
        assert series.values.tolist() == [30, 70]
        assert series.start_time == 0.0

    def test_single_sample(self):
        data = mp4_file(trak_box(1000, "vide", sizes=[100], deltas=[(1, 500)]))
        series = video_byte_series(parse_mp4(data), step=1.0)
        assert series.values.tolist() == [100]

    def test_audio_only_errors(self):
        data = mp4_file(trak_box(48000, "soun", sizes=[100], deltas=[(1, 1024)]))
        with pytest.raises(NoVideoTrackError):
            video_byte_series(parse_mp4(data), step=1.0)

    def test_byte_conservation(self):
        rng = np.random.default_rng(21)
        sizes = [int(s) for s in rng.integers(1000, 90_000, 240)]
        data = mp4_file(trak_box(30, "vide", sizes=sizes, deltas=[(240, 1)]))
        series = video_byte_series(parse_mp4(data), step=1.0)
        assert int(series.values.sum()) == sum(sizes)

    def test_no_dropped_tail(self):
        # 8 samples of 0.75 s: duration 6 s; the last bin must exist.
        data = mp4_file(trak_box(1000, "vide", sizes=[10] * 8, deltas=[(8, 750)]))
        series = video_byte_series(parse_mp4(data), step=1.0)
        duration = 8 * 0.75
        assert len(series) * series.step >= duration - series.step
        assert int(series.values.sum()) == 80

    def test_picks_first_video_track(self):
        data = mp4_file(
            trak_box(48000, "soun", sizes=[1], deltas=[(1, 1)]),
            trak_box(1000, "vide", sizes=[10, 20], deltas=[(2, 500)]),
            trak_box(1000, "vide", sizes=[999], deltas=[(1, 500)]),
        )
        series = video_byte_series(parse_mp4(data), step=1.0)
        assert int(series.values.sum()) == 30

    def test_span_beyond_duration_limit_rejected(self):
        # Two samples 0xFF000000 ticks apart: 4.3 million seconds of media.
        data = mp4_file(trak_box(1000, "vide", sizes=[10, 20], deltas=[(2, 0xFF000000)]))
        with pytest.raises(StructureError):
            video_byte_series(parse_mp4(data), step=1.0)

    def test_long_video_at_small_step_bins(self):
        # Three hours of media at a 10 ms step: over a million bins.
        data = mp4_file(trak_box(1000, "vide", sizes=[10, 20], deltas=[(2, 3 * 3600 * 1000)]))
        series = video_byte_series(parse_mp4(data), step=0.01)
        assert len(series) == 3 * 3600 * 100 + 1
        assert series.values[0] == 10 and series.values[-1] == 20
        assert int(series.values.sum()) == 30

    def test_step_of_one_thirtieth_at_90khz_is_the_exact_floor(self):
        # 1/30 prints as 0.03333333333333333: at 90 kHz the window is
        # exact only past int64 once scaled.
        rng = np.random.default_rng(22)
        deltas = [int(d) for d in rng.choice([2999, 3000, 3001, 6000], 300)]
        sizes = [int(s) for s in rng.integers(100, 5000, 300)]
        data = mp4_file(trak_box(90_000, "vide", sizes=sizes, deltas=[(1, d) for d in deltas]))
        series = video_byte_series(parse_mp4(data), step=1 / 30)
        ticks = np.concatenate([[0], np.cumsum(deltas[:-1])])
        expected = np.zeros(math.floor(Fraction(int(ticks[-1]), 90_000) / Fraction("0.03333333333333333")) + 1,
                            dtype=np.int64)
        for tick, size in zip(ticks, sizes):
            expected[math.floor(Fraction(int(tick), 90_000) / Fraction("0.03333333333333333"))] += size
        assert series.values.tolist() == expected.tolist()
        assert series.step == 1 / 30


class TestFuzzSmoke:
    def test_mutated_bytes_never_crash(self, simple_video_mp4):
        rng = np.random.default_rng(55)
        for _ in range(2000):
            data = bytearray(simple_video_mp4)
            for _ in range(rng.integers(1, 6)):
                data[rng.integers(0, len(data))] = rng.integers(0, 256)
            try:
                tables = parse_mp4(bytes(data))
                video_byte_series(tables, step=1.0)
            except SimobsError:
                pass
