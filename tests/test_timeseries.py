import io
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from simobs.errors import AlignmentError, FormatError, ParameterError
from simobs.timeseries import (
    MAX_STEPS,
    MICROSECOND,
    TICK_BOUND,
    ByteSeries,
    align,
    bin_events,
    check_window,
    device_set,
    event_array,
    exact,
    min_max_normalize,
    read_series_csv,
    step_index,
    write_series_csv,
)


def make_series(values, start=0.0, step=1.0):
    return ByteSeries(start, step, np.array(values, dtype=np.int64))


class TestBinEvents:
    def test_direct_bucket_sums(self):
        events = event_array([0.1, 0.9, 1.5], [100, 50, 200])
        series = bin_events(events, 0.0, 1.0, 2)
        assert series.values.tolist() == [150, 200]

    def test_empty_events(self):
        series = bin_events(event_array([], []), 0.0, 1.0, 3)
        assert series.values.tolist() == [0, 0, 0]

    def test_uniform_events_conserved(self):
        rng = np.random.default_rng(7)
        events = event_array(rng.uniform(0, 60, 1000), np.ones(1000, dtype=np.int64))
        series = bin_events(events, 0.0, 1.0, 60)
        assert int(series.values.sum()) == 1000

    def test_out_of_window_dropped(self):
        events = event_array([-0.5, 5.0, 2.0], [10, 20, 7])
        series = bin_events(events, 0.0, 1.0, 5)
        assert int(series.values.sum()) == 7

    def test_right_edge_goes_to_next_bin(self):
        series = bin_events(event_array([1.0], [5]), 0.0, 1.0, 3)
        assert series.values.tolist() == [0, 5, 0]

    def test_times_past_every_window_are_dropped(self):
        events = event_array([np.nan, 0.5, np.inf, -np.inf, 1e300, -1e300], [1, 2, 4, 8, 16, 32])
        assert bin_events(events, 0.0, 1.0, 3).values.tolist() == [2, 0, 0]

    def test_a_time_is_taken_at_its_microsecond(self):
        # 0.9999996 s is recorded at 1.000000 s, ten steps of 0.1 s; 0.3 s
        # is three steps exactly, where floats put it in step 2
        series = bin_events(event_array([0.9999994, 0.9999996, 0.3], [1, 2, 4]), 0.0, 0.1, 11)
        assert series.values.tolist() == [0, 0, 0, 4, 0, 0, 0, 0, 0, 1, 2]

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            bin_events(event_array([], []), 0.0, 0.0, 3)
        with pytest.raises(ParameterError):
            bin_events(event_array([], []), 0.0, 1.0, 0)

    def test_negative_byte_count_rejected(self):
        with pytest.raises(ParameterError):
            bin_events(event_array([0.5, 1.5], [10, -1]), 0.0, 1.0, 3)

    @given(
        st.lists(
            st.tuples(st.floats(-10, 70), st.integers(0, 10_000)),
            max_size=200,
        )
    )
    def test_conservation_property(self, raw):
        events = event_array([t for t, _ in raw], [b for _, b in raw])
        series = bin_events(events, 0.0, 1.0, 60)
        # bin_events takes each time at the microsecond a capture records:
        # the whole seconds, then the fraction rounded half to even
        def microsecond(t: float) -> int:
            return int(t) * MICROSECOND + round((t - int(t)) * MICROSECOND)
        in_window = sum(b for t, b in raw if 0 <= microsecond(t) < 60 * MICROSECOND)
        assert int(series.values.sum()) == in_window


class TestWindowRule:
    """One rule says what a window is and which step a time falls in."""

    @pytest.mark.parametrize("start,step,n_steps", [
        (0.0, 0.0, 3), (0.0, -1.0, 3), (0.0, np.inf, 3), (0.0, np.nan, 3), (np.nan, 1.0, 3), (-np.inf, 1.0, 3),
        (0.0, 1.0, 0), (0.0, 1.0, MAX_STEPS + 1), (0.0, 1.0, 10**20),
    ])
    def test_every_window_check_refuses_a_bad_window_with_one_message(self, start, step, n_steps):
        checks = [
            lambda: check_window(start, step, n_steps),
            lambda: bin_events(event_array([], []), start, step, n_steps),
        ]
        if n_steps <= MAX_STEPS + 1:  # a series holds its values
            checks.append(lambda: ByteSeries(start, step, np.zeros(n_steps, dtype=np.int64)))
        for check in checks:
            with pytest.raises(ParameterError, match="window needs a finite start, 0 < step < inf and 1 <= n_steps"):
                check()

    def test_longest_window_is_accepted(self):
        check_window(-5.0, 1e-9, MAX_STEPS)
        assert len(bin_events(event_array([0.5], [7]), 0.0, 1.0, MAX_STEPS)) == MAX_STEPS

    def test_step_index_is_floor_inside_the_window(self):
        index, held = step_index([-500, 0, 990, 1000, 2900, 3000], 1000, 0.0, 1.0, 3)
        assert index.tolist() == [-1, 0, 0, 1, 2, 3]
        assert held.tolist() == [False, True, True, True, True, False]

    def test_a_float_start_or_step_is_the_decimal_it_prints(self):
        # in floats, (k * 0.1) / 0.1 floors below k for k = 3, 6, 7, ...
        ticks = np.arange(100) * 100_000
        assert step_index(ticks, MICROSECOND, 0.0, 0.1, 100)[0].tolist() == list(range(100))
        assert step_index(ticks + 1_760_000_000 * MICROSECOND, MICROSECOND, 1760000000.0, 0.1, 100)[0].tolist() \
            == list(range(100))

    @given(st.integers(-10**12, 10**12), st.sampled_from([1, 1000, 90_000, MICROSECOND, 10**9]),
           st.from_regex(r"-?[0-9]{1,4}(\.[0-9]{1,10})?", fullmatch=True),
           st.one_of(st.from_regex(r"[0-9]{1,3}(\.[0-9]{1,10})?", fullmatch=True),
                     st.floats(1e-9, 1e3).map(repr)),
           st.integers(1, MAX_STEPS))
    def test_step_index_is_the_exact_floor(self, tick, rate, start, step, n_steps):
        start, step = Fraction(start), Fraction(step)
        assume(step > 0)
        try:
            (index,), (held,) = step_index([tick], rate, start, step, n_steps)
        except ParameterError as exc:  # only a window whose ticks do not fit int64
            assert "does not fit int64 ticks" in str(exc)
            assert math.floor(start * rate) <= -TICK_BOUND or math.ceil((start + n_steps * step) * rate) + 1 >= TICK_BOUND
            return
        expected = math.floor((Fraction(tick, rate) - start) / step)
        assert held == (0 <= expected < n_steps)
        if held:
            assert index == expected

    @pytest.mark.parametrize("start, step", [(1e300, 1.0), (Fraction(TICK_BOUND, MICROSECOND), 1.0),
                                             (-1e13, 1.0), (0.0, 1e11)])
    def test_a_window_past_int64_ticks_is_refused(self, start, step):
        with pytest.raises(ParameterError, match="does not fit int64 ticks of 1/1000000 s"):
            step_index([0], MICROSECOND, start, step, 60)

    @pytest.mark.parametrize("start, step, n_steps", [
        (Fraction("1e-17"), 1.0, 60),
        (0.0, Fraction("1e-30"), 60),
        (0.0, Fraction("1.00000000000000000001"), 60),
        (0.0, 1 / 30, 60),  # 0.03333333333333333, scaled by 10**11: int64 over 60 steps
        (0.0, 1 / 30, 1800),  # and Python integers over 1 800
    ])
    def test_a_start_or_step_of_many_decimals_is_exact(self, start, step, n_steps):
        ticks = np.concatenate([[0, 1, 999_999], np.arange(-7, 61 * MICROSECOND, 9973)])
        index, held = step_index(ticks, MICROSECOND, start, step, n_steps)
        expected = [math.floor((Fraction(int(t), MICROSECOND) - exact(start)) / exact(step)) for t in ticks]
        assert held.tolist() == [0 <= i < n_steps for i in expected]
        assert index[held].tolist() == [i for i in expected if 0 <= i < n_steps]

    def test_a_float_and_its_fraction_are_different_steps(self):
        # 0.1 prints as 1/10; Fraction(0.1) is the binary value, a little more
        assert step_index([MICROSECOND], MICROSECOND, 0.0, 0.1, 20)[0].tolist() == [10]
        assert step_index([MICROSECOND], MICROSECOND, 0.0, Fraction(0.1), 20)[0].tolist() == [9]
        assert step_index([MICROSECOND], MICROSECOND, 0.0, 0.1, 20)[0].tolist() == [10]

    def test_device_set_is_series_sharing_a_window(self):
        a, b = make_series([1, 2]), make_series([3, 4])
        assert device_set([a, b]) is a
        for bad in ([], [a, make_series([1, 2], start=1.0)], [a, make_series([1, 2, 3])],
                    [a, make_series([1, 2], step=2.0)]):
            with pytest.raises(ParameterError, match="sharing start_time, step and length"):
                device_set(bad)


class TestNormalize:
    def test_linear_scaling(self):
        values, degenerate = min_max_normalize(make_series([0, 5, 10]))
        assert values.tolist() == [0.0, 0.5, 1.0]
        assert degenerate is False

    def test_constant_series(self):
        values, degenerate = min_max_normalize(make_series([7, 7, 7]))
        assert values.tolist() == [0.0, 0.0, 0.0]
        assert degenerate is True

    def test_interior_extremes(self):
        values, _ = min_max_normalize(make_series([3, 1, 2]))
        assert values.tolist() == [1.0, 0.0, 0.5]

    @given(st.lists(st.integers(0, 10**9), min_size=2, max_size=80))
    def test_idempotent_on_non_degenerate(self, values):
        first, degenerate = min_max_normalize(make_series(values))
        again, _ = min_max_normalize(first)
        if degenerate:
            assert again.tolist() == first.tolist()
        else:
            assert np.allclose(again, first, atol=1e-12)

    @given(
        st.lists(st.integers(0, 10**6), min_size=2, max_size=60),
        st.integers(1, 50),
        st.integers(0, 10**6),
    )
    def test_scale_shift_invariant(self, values, alpha, beta):
        base, base_degenerate = min_max_normalize(make_series(values))
        mapped, mapped_degenerate = min_max_normalize(make_series([alpha * v + beta for v in values]))
        assert mapped_degenerate == base_degenerate
        assert np.allclose(mapped, base, atol=1e-9)

    @given(st.lists(st.lists(st.integers(0, 10**6), min_size=3, max_size=3), min_size=1, max_size=8))
    def test_rows_normalize_one_by_one(self, rows):
        values, degenerate = min_max_normalize(np.array(rows))
        for row, out, flat in zip(rows, values, degenerate.tolist()):
            one, one_flat = min_max_normalize(row)
            assert out.tolist() == one.tolist() and flat == one_flat

    @pytest.mark.parametrize("bad", [[], [[]], [[[1.0]]]])
    def test_shape_validation(self, bad):
        with pytest.raises(ParameterError):
            min_max_normalize(np.array(bad))


class TestAlign:
    def test_identical_windows_unchanged(self):
        a = make_series(range(60))
        b = make_series(range(60))
        out_a, out_b = align(a, b)
        assert out_a.values.tolist() == a.values.tolist()
        assert out_b.values.tolist() == b.values.tolist()

    def test_offset_overlap(self):
        a = make_series(range(60), start=0.0)
        b = make_series(range(60), start=10.0)
        out_a, out_b = align(a, b)
        assert len(out_a) == len(out_b) == 50
        assert out_a.start_time == 10.0
        assert out_a.values.tolist() == list(range(10, 60))
        assert out_b.values.tolist() == list(range(0, 50))

    def test_disjoint_windows(self):
        a = make_series(range(30), start=0.0)
        b = make_series(range(30), start=40.0)
        with pytest.raises(AlignmentError):
            align(a, b)

    def test_step_mismatch(self):
        with pytest.raises(ParameterError):
            align(make_series([1, 2], step=1.0), make_series([1, 2], step=2.0))

    def test_sub_step_skew_ignored(self):
        a = make_series(range(20), start=0.0)
        b = make_series(range(20), start=5.3)
        out_a, out_b = align(a, b)
        assert len(out_a) == 15
        assert out_a.values.tolist() == list(range(5, 20))

    @given(
        st.integers(0, 50),
        st.integers(0, 50),
        st.integers(1, 40),
        st.integers(1, 40),
    )
    def test_commutative_window(self, start_a, start_b, len_a, len_b):
        a = make_series(range(len_a), start=float(start_a))
        b = make_series(range(len_b), start=float(start_b))
        try:
            out_a, out_b = align(a, b)
        except AlignmentError:
            with pytest.raises(AlignmentError):
                align(b, a)
            return
        swapped_b, swapped_a = align(b, a)
        assert out_a.values.tolist() == swapped_a.values.tolist()
        assert out_b.values.tolist() == swapped_b.values.tolist()
        assert out_a.start_time == swapped_a.start_time
        assert len(out_a) == len(out_b) >= 1


class TestSeriesValidation:
    def test_negative_values_rejected(self):
        with pytest.raises(ParameterError):
            make_series([1, -2, 3])

    def test_empty_rejected(self):
        with pytest.raises(ParameterError):
            make_series([])

    def test_values_frozen(self):
        series = make_series([1, 2, 3])
        with pytest.raises(ValueError):
            series.values[0] = 9


class TestCsvRoundTrip:
    def test_round_trip_exact(self):
        series = make_series([0, 12345678901, 17], start=1700000000.25, step=1.0)
        buf = io.StringIO()
        write_series_csv(series, buf)
        back = read_series_csv(io.StringIO(buf.getvalue()))
        assert back.start_time == series.start_time
        assert back.step == series.step
        assert back.values.tolist() == series.values.tolist()

    def test_layout(self):
        buf = io.StringIO()
        write_series_csv(make_series([5, 6]), buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "start_time,step"
        assert lines[2] == "index,bytes"
        assert lines[3] == "0,5"
        assert lines[4] == "1,6"

    def test_reject_garbage(self):
        with pytest.raises(FormatError):
            read_series_csv(io.StringIO("not,a\nseries,file\n"))
