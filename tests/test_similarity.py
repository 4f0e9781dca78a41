import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import similarity_oracle
from conftest import report_entries, report_reprs
from dtw_oracle import bruteforce_matrix_halfunits, dtw_bruteforce
from simobs import simulate
from simobs.errors import AlignmentError, ParameterError
from simobs.similarity import (
    FLAG_CAND_DEGENERATE,
    FLAG_CC_UNDEFINED,
    FLAG_KLD_UNDEFINED,
    FLAG_REF_DEGENERATE,
    MEASURES,
    _cc_rows,
    _dtw_rows,
    _jsd_rows,
    _kld_rows,
    aligned_rows,
    dtw_distance,
    score_report,
    score_rows,
    similarity_vector,
)
from simobs.timeseries import ByteSeries, min_max_normalize
from similarity_oracle import align


def series(values, start=0.0, step=1.0):
    return ByteSeries(start, step, np.array(values, dtype=np.int64))


# One-row calls of the kernels score_rows runs on a whole device set.
def cc_pair(a, b):
    return float(_cc_rows(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)[None])[0])


def kld_pair(a, b):
    return float(_kld_rows(np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)[None])[0])


def jsd_pair(a, b):
    return float(_jsd_rows(np.asarray(a, dtype=np.float64)[None], np.asarray(b, dtype=np.float64)[None])[0])


class TestPearson:
    def test_identity(self):
        assert cc_pair([0, 0.5, 1], [0, 0.5, 1]) == pytest.approx(1.0)

    def test_inversion(self):
        assert cc_pair([0, 0.5, 1], [1, 0.5, 0]) == pytest.approx(-1.0)

    def test_zero_variance_is_undefined(self):
        # NaN in the kernel; score_rows masks it as undefined.
        assert math.isnan(cc_pair([0.5, 0.5, 0.5], [0, 0.5, 1]))
        assert math.isnan(cc_pair([0, 0.5, 1], [0.5, 0.5, 0.5]))
        assert np.isnan(score_rows(np.array([[1, 1, 1], [0, 1, 2]]), ["cc"]).columns["cc"]).tolist() == [True]

    def test_alternating_vs_random_mostly_uncorrelated(self):
        # Independent noise should rarely correlate with a fixed square wave.
        rng = np.random.default_rng(101)
        alternating = np.tile([0.0, 1.0], 30)
        hits = sum(abs(cc_pair(alternating, rng.uniform(0, 1, 60))) < 0.5 for _ in range(1000))
        assert hits >= 950

    @given(st.lists(st.floats(0, 1), min_size=2, max_size=40))
    def test_symmetric(self, a):
        rng = np.random.default_rng(len(a))
        b = rng.uniform(0, 1, len(a))
        a_arr = np.array(a)
        if a_arr.std() == 0 or b.std() == 0:
            return
        assert cc_pair(a_arr, b) == pytest.approx(cc_pair(b, a_arr), abs=1e-12)

    def test_affine_invariant(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 1, 60)
        b = rng.uniform(0, 1, 60)
        assert cc_pair(3.5 * a + 2.0, b) == pytest.approx(cc_pair(a, b), abs=1e-9)


class TestDtw:
    def test_identical_is_zero(self):
        assert dtw_distance([0, 0.5, 1, 0.5], [0, 0.5, 1, 0.5]) == 0.0

    def test_hand_case(self):
        # One insert aligns the step; every matched pair costs zero.
        assert dtw_distance([0, 0, 1], [0, 1, 1]) == 0.0

    def test_empty_raises(self):
        with pytest.raises(ParameterError):
            dtw_distance([], [1.0])

    def test_matches_bruteforce_small_grid(self):
        values = [0.0, 0.5, 1.0]
        rng = np.random.default_rng(3)
        for _ in range(300):
            n, m = rng.integers(1, 6, size=2)
            a = rng.choice(values, size=n)
            b = rng.choice(values, size=m)
            assert dtw_distance(a, b) == dtw_bruteforce(a, b)

    def test_matches_bruteforce_random_values(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            n, m = rng.integers(1, 7, size=2)
            a = rng.uniform(0, 1, n)
            b = rng.uniform(0, 1, m)
            assert dtw_distance(a, b) == pytest.approx(dtw_bruteforce(a, b), abs=1e-12)

    def test_vectorized_path_agrees_with_small_path(self):
        # The stacked row recurrence against the plain DP as reference.
        rng = np.random.default_rng(17)
        a = rng.uniform(0, 1, 40)
        b = rng.uniform(0, 1, 40)
        assert _dtw_rows(a, b[None])[0] == pytest.approx(similarity_oracle.dtw_distance(a, b), abs=1e-9)

    def test_stacked_rows_match_exhaustive_oracle(self):
        # Every sequence over {0, 0.5, 1} of length <= 6 against the stack
        # of all sequences of each length; half-unit sums are exact.
        codes = [np.array(list(itertools.product((0, 1, 2), repeat=n)), dtype=np.uint8) for n in range(1, 7)]
        for i, a_codes in enumerate(codes):
            for b_codes in codes[i:]:
                oracle = bruteforce_matrix_halfunits(a_codes, b_codes)
                a_stack, b_stack = a_codes / 2.0, b_codes / 2.0
                for s, a in enumerate(a_stack):
                    assert np.array_equal(2.0 * _dtw_rows(a, b_stack), oracle[s])
                for t, b in enumerate(b_stack):
                    assert np.array_equal(2.0 * _dtw_rows(b, a_stack), oracle[:, t])

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=30))
    @settings(max_examples=50)
    def test_self_distance_zero_and_symmetry(self, a):
        rng = np.random.default_rng(len(a) + 1)
        b = rng.uniform(0, 1, rng.integers(1, 30))
        assert dtw_distance(a, a) == 0.0
        d_ab = dtw_distance(a, b)
        assert d_ab >= 0.0
        assert d_ab == pytest.approx(dtw_distance(b, a), abs=1e-12)


class TestGaussianKld:
    def test_identical_zero(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0, 1, 30)
        assert kld_pair(a, a) == pytest.approx(0.0, abs=1e-12)

    def test_closed_form_mean_shift(self):
        # moments: a -> (0, 1), b -> (1, 1); KL = 0.5
        a = [-1.0, 1.0]
        b = [0.0, 2.0]
        assert kld_pair(a, b) == pytest.approx(0.5, abs=1e-9)

    def test_closed_form_sigma_double(self):
        # moments: a -> (0, 1), b -> (0, 2); KL = ln 2 - 3/8
        a = [-1.0, 1.0]
        b = [-2.0, 2.0]
        assert kld_pair(a, b) == pytest.approx(math.log(2) - 3 / 8, abs=1e-9)

    def test_asymmetric_witness(self):
        a = [-1.0, 1.0]
        b = [-2.0, 2.0]
        assert kld_pair(a, b) != pytest.approx(kld_pair(b, a), abs=1e-6)

    def test_non_negative_random(self):
        rng = np.random.default_rng(9)
        for _ in range(200):
            a = rng.uniform(0, 1, 60)
            b = rng.uniform(0, 1, 60)
            assert kld_pair(a, b) >= -1e-12

    def test_length_precondition(self):
        # A one-step window has no spread to fit, so kld is undefined there.
        assert np.isnan(score_rows(np.array([[1], [2]]), ["kld"]).columns["kld"]).tolist() == [True]


class TestJsd:
    def test_identical_zero(self):
        assert jsd_pair([1, 2, 3], [1, 2, 3]) == pytest.approx(0.0, abs=1e-15)

    def test_disjoint_support_max(self):
        assert jsd_pair([1, 0], [0, 1]) == pytest.approx(math.log(2), abs=1e-12)

    def test_direct_evaluation(self):
        # P=[.5,.5], Q=[.25,.75]; evaluate the definition by hand.
        p = np.array([0.5, 0.5])
        q = np.array([0.25, 0.75])
        m = (p + q) / 2
        expected = 0.5 * np.sum(p * np.log(p / m)) + 0.5 * np.sum(q * np.log(q / m))
        assert jsd_pair([1, 1], [1, 3]) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.033822, abs=5e-6)

    def test_zero_sum_side_is_maximal(self):
        # A zero-sum row has no distribution: score_rows gives ln 2 against
        # a positive one and 0 against another zero-sum row.
        jsds = score_rows(np.array([[0, 0], [1, 2], [0, 0]]), ["jsd"]).columns["jsd"]
        assert jsds.tolist() == [math.log(2), 0.0]

    @given(st.lists(st.integers(0, 1000), min_size=1, max_size=60))
    @settings(max_examples=60)
    def test_symmetric_and_bounded(self, a):
        rng = np.random.default_rng(sum(a) % 2**32)
        b = rng.integers(0, 1000, len(a))
        if sum(a) == 0 or b.sum() == 0:
            return
        d1 = jsd_pair(a, b)
        assert d1 == pytest.approx(jsd_pair(b, a), abs=1e-12)
        assert -1e-15 <= d1 <= math.log(2) + 1e-12


EPOCH = 1_760_000_000  # seconds, a capture's time in 2025


def ms_series(values, start_ms, step_ms):
    """A series whose start and step are whole milliseconds, as the decimals they print."""
    return series(values, start=start_ms / 1000, step=step_ms / 1000)


@st.composite
def _skewed_windows(draw):
    """Whole-millisecond reference and device starts and a decimal step.
    The skew is drawn in half steps and then moved by at most 1 ms, so
    many skews are ties, or a millisecond from one, where rounding decides."""
    step_ms = draw(st.integers(1, 1000))
    skew_ms = draw(st.integers(-81, 81)) * step_ms // 2 + draw(st.integers(-1, 1))
    return (draw(st.integers(0, 10**6)), skew_ms, step_ms, draw(st.integers(1, 40)), draw(st.integers(1, 40)),
            draw(st.integers(1, 3)))


class TestAlign:
    """aligned_rows is the one alignment: the device set's start less the
    reference's, in steps of the decimals both print, rounded half to
    even, is the steps the reference skips (the devices skip its negative)."""

    def test_identical_windows_unchanged(self):
        assert aligned_rows(series(range(60)), [series(range(60))]).tolist() == [list(range(60))] * 2

    def test_offset_overlap_either_way(self):
        ref, devices = series(range(60)), [series(range(100, 160), start=10.0)] * 2
        assert aligned_rows(ref, devices).tolist() == [list(range(10, 60))] + [list(range(100, 150))] * 2
        ref, devices = series(range(60), start=10.0), [series(range(100, 160))] * 2
        assert aligned_rows(ref, devices).tolist() == [list(range(50))] + [list(range(110, 160))] * 2

    @pytest.mark.parametrize("ref_start, dev_start", [(0.0, 40.0), (40.0, 0.0), (0.0, 30.0)])
    def test_disjoint_windows(self, ref_start, dev_start):
        ref, device = series(range(30), start=ref_start), series(range(30), start=dev_start)
        earlier, later = sorted([ref_start, dev_start])
        message = f"no overlap: [{earlier}, {earlier + 30.0}) ends before [{later}, {later + 30.0}) begins"
        with pytest.raises(AlignmentError) as err:
            aligned_rows(ref, [device])
        assert str(err.value) == message

    def test_step_mismatch(self):
        with pytest.raises(ParameterError, match=r"^step mismatch: 1.0 vs 2.0$"):
            aligned_rows(series([1, 2], step=1.0), [series([1, 2], step=2.0)])

    @pytest.mark.parametrize("dev_start, skipped", [(5.3, 5), (5.7, 6), (5.5, 6), (4.5, 4)])
    def test_sub_step_skew_ignored(self, dev_start, skipped):
        rows = aligned_rows(series(range(20)), [series(range(100, 120), start=dev_start)])
        assert rows.tolist() == [list(range(skipped, 20)), list(range(100, 120 - skipped))]

    @pytest.mark.parametrize("epoch", [0, EPOCH])
    @pytest.mark.parametrize("skew_ms, skipped", [(150, 2), (450, 4), (-150, -2), (-450, -4)])
    def test_a_tie_rounds_to_even_at_every_epoch(self, epoch, skew_ms, skipped):
        # A float difference of the starts reads 0.15 s as 1.4999999999999998
        # steps at start 0 and as 1.5000009536743164 at the epoch.
        ref = ms_series(range(20), epoch * 1000, 100)
        device = ms_series(range(100, 120), epoch * 1000 + skew_ms, 100)
        ref_from, dev_from = max(skipped, 0), max(-skipped, 0)
        assert aligned_rows(ref, [device]).tolist() == [list(range(ref_from, 20 - dev_from)),
                                                        list(range(100 + dev_from, 120 - ref_from))]

    @given(_skewed_windows())
    @settings(max_examples=300, deadline=None)
    def test_shifting_both_by_whole_seconds_changes_no_row(self, drawn):
        ref_ms, skew_ms, step_ms, ref_len, dev_len, n_devices = drawn

        def rows(epoch):
            ref = ms_series(range(ref_len), epoch * 1000 + ref_ms, step_ms)
            devices = [ms_series(range(100 * d, 100 * d + dev_len), epoch * 1000 + ref_ms + skew_ms, step_ms)
                       for d in range(1, n_devices + 1)]
            try:
                return aligned_rows(ref, devices).tolist()
            except AlignmentError:
                return None

        assert rows(0) == rows(EPOCH)

    @given(_skewed_windows())
    @settings(max_examples=300, deadline=None)
    def test_symmetric_and_as_the_oracle_aligns(self, drawn):
        ref_ms, skew_ms, step_ms, ref_len, dev_len, _ = drawn
        ref, device = ms_series(range(ref_len), ref_ms, step_ms), ms_series(range(100, 100 + dev_len),
                                                                           ref_ms + skew_ms, step_ms)
        try:
            expected = [window.values.tolist() for window in align(ref, device)]
        except AlignmentError:
            for a, b in ((ref, device), (device, ref)):
                with pytest.raises(AlignmentError):
                    aligned_rows(a, [b])
            return
        assert aligned_rows(ref, [device]).tolist() == expected
        assert aligned_rows(device, [ref]).tolist() == expected[::-1]


def pair(a, b) -> dict:
    """The one entry of similarity_vector(a, b)."""
    (entry,) = report_entries(similarity_vector(a, b))
    return entry


class TestSimilarityVector:
    def test_self_comparison(self):
        rng = np.random.default_rng(4)
        s = series(rng.integers(100, 10000, 60))
        sv = pair(s, s)
        assert sv["cc"] == pytest.approx(1.0, abs=1e-9)
        assert sv["dtw"] == 0.0
        assert sv["kld"] == pytest.approx(0.0, abs=1e-9)
        assert sv["jsd"] == pytest.approx(0.0, abs=1e-12)
        assert sv["flags"] == frozenset()

    def test_constant_candidate_flags(self):
        rng = np.random.default_rng(6)
        ref = series(rng.integers(100, 10000, 60))
        cand = series([500] * 60)
        sv = pair(ref, cand)
        assert FLAG_CAND_DEGENERATE in sv["flags"]
        assert FLAG_CC_UNDEFINED in sv["flags"]
        assert FLAG_KLD_UNDEFINED in sv["flags"]
        assert sv["cc"] is None and sv["kld"] is None
        # constant-but-positive candidate: jsd falls back to the raw bins
        assert 0.0 <= sv["jsd"] <= math.log(2) + 1e-12

    def test_all_zero_candidate_max_jsd(self):
        rng = np.random.default_rng(8)
        ref = series(rng.integers(100, 10000, 60))
        sv = pair(ref, series([0] * 60))
        assert sv["jsd"] == pytest.approx(math.log(2))
        assert FLAG_CAND_DEGENERATE in sv["flags"]

    def test_constant_reference_flags(self):
        rng = np.random.default_rng(80)
        cand = series(rng.integers(100, 10000, 60))
        sv = pair(series([700] * 60), cand)
        assert FLAG_REF_DEGENERATE in sv["flags"]

    def test_never_raises_on_valid_overlap(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            a = series(rng.integers(0, 5, 30))
            b = series(rng.integers(0, 5, 30))
            assert pair(a, b)["dtw"] >= 0.0

    def test_alignment_error_propagates(self):
        a = series(range(1, 11), start=0.0)
        b = series(range(1, 11), start=100.0)
        with pytest.raises(AlignmentError):
            similarity_vector(a, b)

    def test_report_equals_per_pair_reports(self):
        rng = np.random.default_rng(13)
        ref = series(rng.integers(100, 10000, 70), start=-10.0)
        candidates = [
            series(rng.integers(100, 10000, 60)),
            series(rng.integers(0, 5, 60)),
            series([500] * 60),
            series([0] * 60),
            series([0] * 40 + list(rng.integers(100, 10000, 20))),
        ]
        stacked = report_entries(score_report(ref, candidates))
        assert stacked == [pair(ref, c) for c in candidates]
        flattened = {FLAG_CAND_DEGENERATE, FLAG_CC_UNDEFINED, FLAG_KLD_UNDEFINED}
        assert [sv["flags"] for sv in stacked[2:4]] == [flattened] * 2
        ids = ["a", "b", "c", "d", "e"]
        assert score_report(ref, candidates, ids).device_ids == ids

    @pytest.mark.parametrize("candidates", [
        [],
        [series([1, 2, 3]), series([1, 2, 3], start=1.0)],
        [series([1, 2, 3]), series([1, 2, 3], step=2.0)],
        [series([1, 2, 3]), series([1, 2, 3, 4])],
    ])
    def test_report_needs_one_shared_window(self, candidates):
        with pytest.raises(ParameterError):
            score_report(series([1, 2, 3, 4]), candidates)

    def test_offset_windows_align_first(self):
        rng = np.random.default_rng(12)
        vals = rng.integers(100, 10000, 70)
        a = ByteSeries(0.0, 1.0, vals[:60])
        b = ByteSeries(10.0, 1.0, vals[10:70])
        sv = pair(a, b)
        assert sv["cc"] == pytest.approx(1.0, abs=1e-9)
        assert sv["dtw"] == 0.0


@st.composite
def _byte_row(draw, n, base):
    kind = draw(st.sampled_from(["wide", "small", "constant", "zero", "idle_then_burst", "jitter"]))
    if kind == "jitter":  # a shared pattern plus noise: close moments, as of a spy and its reference
        return [b + e for b, e in zip(base, draw(st.lists(st.integers(0, 50), min_size=n, max_size=n)))]
    if kind == "wide":
        return draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    if kind == "small":
        return draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    if kind == "constant":
        return [draw(st.integers(1, 10**6))] * n
    if kind == "zero":
        return [0] * n
    idle = draw(st.integers(0, n))
    return [0] * idle + draw(st.lists(st.integers(1, 10**6), min_size=n - idle, max_size=n - idle))


@st.composite
def _device_sets(draw, max_len=40):
    """A reference and a device set whose windows overlap by 1 or more steps."""
    n = draw(st.integers(1, max_len))
    ref_len = draw(st.integers(1, max_len + 5))
    offset = draw(st.integers(-(ref_len - 1), n - 1))  # reference start minus device start, in steps
    base = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).integers(1000, 5000, 45).tolist()
    reference = series(draw(_byte_row(ref_len, base)), start=100.0 + offset)
    devices = [series(draw(_byte_row(n, base)), start=100.0) for _ in range(draw(st.integers(1, 6)))]
    return reference, devices


class TestEngineAgainstOracle:
    """score_report against the per-candidate loop in similarity_oracle."""

    @given(_device_sets())
    @settings(max_examples=400, deadline=None)
    def test_device_sets(self, scene):
        reference, devices = scene
        assert report_reprs(score_report(reference, devices)) == report_reprs(
            similarity_oracle.score_report(reference, devices)
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_easy70_prefixes(self, seed):
        dataset = simulate.render_scenario(simulate.preset_scenario("easy70", seed))
        devices = [trace.series for trace in dataset.traces]
        window, _ = align(dataset.reference_series, devices[0])
        for t in range(2, len(window) + 1):
            head = ByteSeries(window.start_time, window.step, window.values[:t])
            assert report_reprs(score_report(head, devices)) == report_reprs(
                similarity_oracle.score_report(head, devices)
            ), f"prefix t={t}"

    @pytest.mark.parametrize("measure", [dtw_distance])
    def test_per_pair_measures_take_a_series(self, measure):
        a, b = series([3, 0, 7, 2, 9]), series([1, 4, 6, 2, 8])
        assert repr(measure(a, b)) == repr(measure(a.values, b.values))

    @given(_device_sets(max_len=6))
    @settings(max_examples=200, deadline=None)
    def test_dtw_against_path_enumeration(self, scene):
        # The oracle's DTW is the engine's own _dtw_rows, so DTW gets an
        # independent check: every warping path of the scaled windows.
        reference, devices = scene
        x, _ = min_max_normalize(align(reference, devices[0])[0])
        for device, sv in zip(devices, report_entries(score_report(reference, devices))):
            y, _ = min_max_normalize(align(reference, device)[1])
            assert sv["dtw"] == pytest.approx(dtw_bruteforce(x, y), rel=1e-12, abs=1e-12)

    @given(_device_sets())
    @settings(max_examples=200, deadline=None)
    def test_per_pair_measures(self, scene):
        # One-row calls of the kernels against the oracle's per-pair functions.
        reference, devices = scene
        a = reference.values.astype(np.float64)
        for device in devices:
            b = device.values.astype(np.float64)
            if a.size >= 2 and b.size >= 2:
                assert repr(kld_pair(a, b)) == repr(similarity_oracle.gaussian_kld(a, b))
            if a.size == b.size >= 2 and a.std() > 0 and b.std() > 0:
                assert repr(cc_pair(a, b)) == repr(similarity_oracle.pearson_cc(a, b))
            if a.size == b.size and a.sum() > 0 and b.sum() > 0:
                assert repr(jsd_pair(a, b)) == repr(similarity_oracle.jsd(a, b))
            assert dtw_distance(a[:6], b[:6]) == pytest.approx(dtw_bruteforce(a[:6], b[:6]), rel=1e-12)


@st.composite
def _stacks(draw):
    """A reference row and 1 to 8 candidate rows of one length, each all
    zero, constant, 10**12 plus 0 to 2 bytes a step, up to 10**12 bytes a
    step, or up to 10**6."""
    n = draw(st.integers(1, 30))

    def steps(lo, hi):
        return draw(st.lists(st.integers(lo, hi), min_size=n, max_size=n))

    rows = []
    for _ in range(draw(st.integers(2, 9))):
        kind = draw(st.sampled_from(["zero", "constant", "near_flat_1e12", "wide_1e12", "bytes"]))
        if kind == "zero":
            rows.append([0] * n)
        elif kind == "constant":
            rows.append([draw(st.integers(1, 10**12))] * n)
        elif kind == "near_flat_1e12":
            rows.append([10**12 + b for b in steps(0, 2)])
        else:
            rows.append(steps(0, 10**12 if kind == "wide_1e12" else 10**6))
    return np.array(rows, dtype=np.int64)


class TestUndefinedMark:
    """NaN is the one mark of an undefined measure, so a kernel that gave
    NaN on a row scaling did not flatten would pass for undefined."""

    @given(_stacks())
    @settings(max_examples=300, deadline=None)
    def test_nan_exactly_where_a_side_is_flattened(self, raw):
        scored = score_rows(raw, MEASURES)
        flattened = scored.ref_degenerate | scored.cand_degenerate
        constant = raw.min(axis=1) == raw.max(axis=1)
        assert flattened.tolist() == (constant[0] | constant[1:]).tolist()
        for m in MEASURES:
            column = scored.columns[m]
            assert column.dtype == np.float64 and column.shape == (len(raw) - 1,), m
            undefined = flattened if m in ("cc", "kld") else np.zeros(len(column), dtype=bool)
            assert np.isnan(column).tolist() == undefined.tolist(), m
            assert np.isfinite(column[~undefined]).all(), m
