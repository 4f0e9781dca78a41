import io
import itertools
import json
import math
import multiprocessing
import os
import tracemalloc

import mlp_oracle
import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from conftest import labeled, report_entries, report_of, stack_reports
from simobs import classify, cli
from simobs.classify import (
    ACTIVATIONS,
    CAMERA_REF_FEATURES,
    DEFAULT_THRESHOLDS,
    DIRECTION_BY_MEASURE,
    GridPoint,
    LabeledSample,
    ParamGrid,
    ThresholdConfig,
    column_verdicts,
    convergence_analysis,
    evaluate,
    feature_matrix,
    grid_search,
    load_model,
    measure_agreement,
    mlp_predict,
    mlp_probabilities,
    mlp_train,
    mlp_verdicts,
    portability_matrix,
    read_samples_json,
    save_model,
    stratified_folds,
    sweep_threshold,
    threshold_classify,
)
from simobs.errors import (
    ClassImbalanceError,
    FormatError,
    ParameterError,
    PartitionError,
    SimobsError,
    TrainingDivergedError,
)
from simobs.similarity import (
    MEASURES,
    aligned_rows,
    read_report,
    read_samples,
    score_report,
    score_rows,
    write_report_csv,
    write_report_json,
)
from simobs.timeseries import ByteSeries, align


def row(cc=0.0, dtw=1.0, kld=1.0, jsd=0.1, flags=()):
    return {"cc": cc, "dtw": dtw, "kld": kld, "jsd": jsd, "flags": flags}


def sv(**kwargs):
    """A one-row report."""
    return report_of([row(**kwargs)])


def sample(label, tags=(), **kwargs):
    """A labeled row; corpus() makes rows into a labeled report."""
    return {**row(**kwargs), "label": label, "tags": sorted(tags)}


def corpus(samples):
    return report_of(list(samples))


def rows_of(report):
    """Each entry of ``report`` as a one-row report."""
    return [report.take([i]) for i in range(len(report))]


class TestThresholdClassify:
    def test_kld_below_default_threshold_is_spy(self):
        cfg = ThresholdConfig("kld", DEFAULT_THRESHOLDS["kld"])
        assert cfg.threshold == 0.021
        assert threshold_classify(sv(kld=0.010), cfg) is True

    def test_high_cc_is_spy(self):
        cfg = ThresholdConfig("cc", DEFAULT_THRESHOLDS["cc"])
        assert threshold_classify(sv(cc=1.0), cfg)

    def test_large_dtw_is_not_spy(self):
        cfg = ThresholdConfig("dtw", DEFAULT_THRESHOLDS["dtw"])
        assert cfg.threshold == 12.51
        assert threshold_classify(sv(dtw=30.0), cfg) is False

    def test_undefined_measure_indeterminate(self):
        cfg = ThresholdConfig("cc", 0.21)
        vector = sv(cc=None, flags={"cc_undefined"})
        assert threshold_classify(vector, cfg) is False
        assert vector.columns["cc"][1].tolist() == [True]

    @pytest.mark.parametrize("measure", MEASURES)
    def test_direction_follows_measure(self, measure):
        cfg = ThresholdConfig(measure, 1.0)
        above = threshold_classify(sv(**{measure: 2.0}), cfg)
        below = threshold_classify(sv(**{measure: 0.5}), cfg)
        assert (above, below) == ((True, False) if measure == "cc" else (False, True))

    def test_unknown_measure_rejected(self):
        with pytest.raises(ParameterError):
            ThresholdConfig("rmse", 0.5)

    @given(st.floats(0, 5), st.floats(0, 5))
    def test_monotone_in_measure(self, low, high):
        low, high = min(low, high), max(low, high)
        cfg = ThresholdConfig("kld", 1.0)
        if threshold_classify(sv(kld=high), cfg):
            assert threshold_classify(sv(kld=low), cfg)


class TestEvaluate:
    def test_all_correct(self):
        metrics = evaluate([True, False, True], [True, False, True])
        assert metrics.accuracy == 1.0 and metrics.f1 == 1.0

    def test_hand_counts(self):
        preds = [True] * 3 + [False] * 7
        labels = [True, True, False] + [True] + [False] * 6
        metrics = evaluate(preds, labels)
        assert (metrics.tp, metrics.fp, metrics.fn, metrics.tn) == (2, 1, 1, 6)
        assert metrics.precision == pytest.approx(2 / 3)
        assert metrics.recall == pytest.approx(2 / 3)
        assert metrics.f1 == pytest.approx(2 / 3)
        assert metrics.accuracy == pytest.approx(0.8)

    def test_degenerate_all_negative(self):
        metrics = evaluate([False, False], [False, False])
        assert metrics.accuracy == 1.0
        assert (metrics.precision, metrics.recall, metrics.f1) == (0.0, 0.0, 0.0)

    def test_length_mismatch(self):
        with pytest.raises(ParameterError):
            evaluate([True], [True, False])

    @given(st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1, max_size=60))
    def test_counts_partition_and_f1_bounded(self, pairs):
        preds, labels = zip(*pairs)
        metrics = evaluate(list(preds), list(labels))
        assert metrics.total == len(pairs)
        assert 0.0 <= metrics.f1 <= 1.0


class TestSweep:
    def test_perfectly_separable(self):
        samples = corpus([
            sample(True, kld=0.01),
            sample(True, kld=0.02),
            sample(False, kld=0.5),
            sample(False, kld=0.9),
        ])
        threshold, f1 = sweep_threshold(samples, "kld")
        assert f1 == 1.0
        assert threshold == pytest.approx(0.26)

    def test_inverted_labels_not_perfect(self):
        samples = corpus([
            sample(False, kld=0.01),
            sample(False, kld=0.02),
            sample(True, kld=0.5),
            sample(True, kld=0.9),
        ])
        _, f1 = sweep_threshold(samples, "kld")
        assert f1 < 1.0

    def test_single_class_raises(self):
        with pytest.raises(ClassImbalanceError):
            sweep_threshold(corpus([sample(True, kld=0.1)] * 4), "kld")

    def test_cc_direction(self):
        samples = corpus([sample(True, cc=0.9), sample(True, cc=0.8), sample(False, cc=0.1)])
        threshold, f1 = sweep_threshold(samples, "cc")
        assert f1 == 1.0
        assert 0.1 < threshold <= 0.8

    @pytest.mark.parametrize("measure,values", [("cc", (0.9, 0.8, 0.7, 0.6)), ("kld", (0.1, 0.2, 0.3, 0.4))])
    def test_f1_tie_breaks_toward_fewer_positives(self, measure, values):
        # Ranked from most spy-like: spy, other, other, spy.  Admitting the
        # first sample or all four both score F1 2/3.
        samples = corpus(sample(label, **{measure: v}) for label, v in zip((True, False, False, True), values))
        threshold, f1 = sweep_threshold(samples, measure)
        assert f1 == 2 / 3
        assert threshold == (values[0] + values[1]) / 2

    # Three undefined negatives where an imputed cc of 0 would rank them
    # above every spy.
    MIXED = [(True, -0.5), (True, -0.52), (True, -0.55), (False, -0.6), (False, -0.9),
             (False, None), (False, None), (False, None)]

    @pytest.mark.parametrize("measure,raw,expected", [
        ("cc", MIXED, ((-0.55 + -0.6) / 2, 1.0)),
        ("kld", [(True, 0.01), (True, None), (False, 0.5)], ((0.01 + 0.5) / 2, 2 / 3)),  # a spy missed
    ])
    def test_undefined_is_never_spy(self, measure, raw, expected):
        samples = corpus(sample(label, **{measure: value}) for label, value in raw)
        assert sweep_threshold(samples, measure) == expected

    @given(st.sampled_from(MEASURES), st.lists(st.tuples(st.booleans(), st.one_of(
        st.floats(-20, 20), st.none())), min_size=2, max_size=40))
    @example("cc", MIXED)
    def test_self_consistency(self, measure, raw):
        labels = [lab for lab, _ in raw]
        if len(set(labels)) < 2:
            return
        samples = corpus(sample(lab, **{measure: val}) for lab, val in raw)
        threshold, f1 = sweep_threshold(samples, measure)
        cfg = ThresholdConfig(measure, threshold)
        assert evaluate(column_verdicts(samples.columns, cfg), labels).f1 == f1


def _sweep_by_loop(samples, measure):
    """sweep_threshold as one evaluate(column_verdicts(...)) per candidate: the O(n^2) reference."""
    labels = samples.labels.tolist()
    values = [e[measure] for e in report_entries(samples)]
    distinct = np.unique([v for v in values if v is not None and not math.isnan(v)])
    candidates = [-math.inf] + [float((a + b) / 2) for a, b in zip(distinct, distinct[1:])] + [math.inf]
    if DIRECTION_BY_MEASURE[measure] == "spy_if_at_least":
        candidates = candidates[::-1]
    best_threshold, best_f1 = candidates[0], -1.0
    for threshold in candidates:
        f1 = evaluate(column_verdicts(samples.columns, ThresholdConfig(measure, threshold)), labels).f1
        if f1 > best_f1:
            best_threshold, best_f1 = threshold, f1
    return best_threshold, best_f1


# Ties, neighbouring doubles whose midpoint rounds onto one of them, and
# undefined measures, besides arbitrary finite values.
_sweep_values = st.one_of(
    st.sampled_from([0.0, 0.1, 0.3, 0.30000000000000004, 1.0, 1.0000000000000002, 5.0]),
    st.floats(-20, 20, allow_nan=False),
    st.none(),
)


class TestSweepAgainstLoop:
    @given(st.sampled_from(MEASURES), st.lists(st.tuples(st.booleans(), _sweep_values), min_size=2, max_size=60))
    def test_threshold_and_f1_bit_identical(self, measure, raw):
        if len({label for label, _ in raw}) < 2:
            return
        samples = corpus(sample(label, **{measure: value}) for label, value in raw)
        assert sweep_threshold(samples, measure) == _sweep_by_loop(samples, measure)


def _toy_separable(n=40, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n // 2):
        out.append(sample(True, cc=float(rng.normal(0.8, 0.05)), kld=float(rng.normal(0.01, 0.003))))
        out.append(sample(False, cc=float(rng.normal(0.1, 0.05)), kld=float(rng.normal(0.5, 0.1))))
    return corpus(out)


def _toy_xor(n_per_cluster=12, seed=1):
    rng = np.random.default_rng(seed)
    out = []
    for cx, cy, label in ((0.1, 0.1, False), (0.9, 0.9, False), (0.1, 0.9, True), (0.9, 0.1, True)):
        for _ in range(n_per_cluster):
            out.append(
                sample(label, cc=float(cx + rng.normal(0, 0.03)), kld=float(cy + rng.normal(0, 0.03)))
            )
    return corpus(out)


class TestMlp:
    def test_separable_training_accuracy(self):
        samples = _toy_separable()
        model = mlp_train(samples, layers=(5,), seed=0, feature_subset=("cc", "kld"))
        preds = column_verdicts(samples.columns, model)
        assert evaluate(preds, samples.labels).accuracy == 1.0

    def test_xor_capability(self):
        samples = _toy_xor()
        model = mlp_train(
            samples, layers=(4,), activation="tanh", seed=2, max_iter=800,
            feature_subset=("cc", "kld"),
        )
        preds = column_verdicts(samples.columns, model)
        assert evaluate(preds, samples.labels).accuracy >= 0.95

    def test_probability_in_open_interval(self):
        samples = _toy_separable()
        model = mlp_train(samples, layers=(5,), seed=0, feature_subset=("cc", "kld"))
        for features in rows_of(samples):
            assert 0.0 < mlp_predict(model, features) < 1.0

    def test_training_deterministic(self):
        samples = _toy_separable()
        m1 = mlp_train(samples, layers=(7, 7), seed=5, feature_subset=("cc", "kld"))
        m2 = mlp_train(samples, layers=(7, 7), seed=5, feature_subset=("cc", "kld"))
        for w1, w2 in zip(m1.weights, m2.weights):
            assert np.array_equal(w1, w2)
        assert m1.training_loss == m2.training_loss

    def test_too_few_per_class(self):
        samples = _toy_separable(n=10)
        with pytest.raises(ClassImbalanceError):
            mlp_train(samples, layers=(5,), feature_subset=("cc", "kld"))

    def test_undefined_features_imputed(self):
        samples = _toy_separable()
        flagged = corpus([sample(False, cc=None, dtw=1.0, kld=None, jsd=0.1,
                                 flags={"cc_undefined", "kld_undefined"})] * 12)
        model = mlp_train(stack_reports([samples, flagged]), layers=(5,), seed=1, feature_subset=("cc", "kld"))
        p = mlp_predict(model, flagged.take([0]))
        assert 0.0 < p < 1.0

    def test_save_load_round_trip(self):
        samples = _toy_separable()
        model = mlp_train(samples, layers=(6, 3), seed=3, feature_subset=("cc", "kld"))
        buf = io.StringIO()
        save_model(model, buf)
        back = load_model(io.StringIO(buf.getvalue()))
        assert back.layer_sizes == model.layer_sizes
        assert back.feature_subset == model.feature_subset
        for features in rows_of(samples)[:5]:
            assert mlp_predict(back, features) == pytest.approx(
                mlp_predict(model, features), abs=1e-12
            )

    def test_zero_weight_model_predicts_half(self):
        from simobs.classify import MlpModel

        model = MlpModel(
            layer_sizes=(4, 3, 1),
            activation="logistic",
            weights=(np.zeros((4, 3)), np.zeros((3, 1))),
            biases=(np.zeros(3), np.zeros(1)),
            feature_subset=("cc", "kld"),
            feature_mean=np.zeros(4),
            feature_std=np.ones(4),
        )
        for features in (sv(cc=0.9, kld=0.001), sv(cc=-0.3, kld=4.0)):
            assert mlp_predict(model, features) == pytest.approx(0.5)

    def test_prediction_order_invariant(self):
        samples = _toy_separable()
        model = mlp_train(samples, layers=(5,), seed=0, feature_subset=("cc", "kld"))
        first = [mlp_predict(model, features) for features in rows_of(samples)]
        second = [mlp_predict(model, features) for features in reversed(rows_of(samples))]
        assert first == second[::-1]


def _overlapping(n_spy, n_other, seed, sep=3.0):
    """Two classes whose cc and kld overlap, so fits run for a while."""
    rng = np.random.default_rng(seed)
    out = []
    for i in range(n_spy + n_other):
        spy = i < n_spy
        out.append(sample(spy, cc=float(rng.normal(sep if spy else 0.0, 1.0)),
                          kld=float(abs(rng.normal(0.0 if spy else sep, 1.0)))))
    return corpus(out)


def _fold_training_sets(samples, folds, seed):
    """Each fold's training samples, in sample order, as grid search splits them."""
    return [samples.take(np.setdiff1d(np.arange(len(samples)), test_idx))
            for test_idx in stratified_folds(samples.labels, folds, seed)]


def _scaled(train, subset):
    """A training set's standardized rows and (n, 1) labels, as the fitter takes them."""
    y = train.labels.astype(np.float64)[:, None]
    x = feature_matrix(train.columns, subset)
    return classify._training_set(x, y)[0], y


def _assert_slice_is_fit(weights, biases, losses, j, reference):
    for stacked, lone in zip(weights, reference.weights):
        assert np.array_equal(stacked[j], lone)
    for stacked, lone in zip(biases, reference.biases):
        assert np.array_equal(stacked[j, 0], lone)
    assert losses[j] == reference.training_loss


def _assert_same_fit(model, reference):
    assert model.layer_sizes == reference.layer_sizes
    for a, b in zip((*model.weights, *model.biases), (*reference.weights, *reference.biases)):
        assert a.shape == b.shape and np.array_equal(a, b)
    assert np.array_equal(model.feature_mean, reference.feature_mean)
    assert np.array_equal(model.feature_std, reference.feature_std)
    assert model.training_loss == reference.training_loss


class TestStackedAgainstOracle:
    """The stacked fitter against the per-fit 2-D loop in mlp_oracle."""

    SUBSET = ("cc", "kld")
    # With 150 iterations: alpha 1e-4 runs to the cap, 30.0 stops within
    # a few dozen iterations, 3.0 stops in some architectures and not others.
    ALPHAS = (1e-4, 3.0, 30.0)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("layers", [(3,), (4, 3), (3, 3, 2)])
    def test_mlp_train_equals_oracle(self, activation, layers):
        samples = _overlapping(20, 25, seed=3)
        for alpha, seed in zip(self.ALPHAS, (0, 1, 2)):
            kwargs = dict(layers=layers, activation=activation, seed=seed, max_iter=150,
                          alpha=alpha, feature_subset=self.SUBSET)
            _assert_same_fit(mlp_train(samples, **kwargs), mlp_oracle.mlp_train(samples, **kwargs))

    @pytest.mark.parametrize("max_iter", [1, 150])
    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("layers", [(1,), (3, 1), (1, 3), (1, 1, 1)])
    def test_width_one_layers_equal_oracle(self, activation, layers, max_iter):
        # A layer of width 1 makes the matmul into and out of it an outer
        # product, and sums its bias gradient over a single column.
        samples = _overlapping(20, 25, seed=3)
        x, y = _scaled(samples, self.SUBSET)
        seeds = (0, 1, 2)
        references = []
        for alpha, seed in zip(self.ALPHAS, seeds):
            kwargs = dict(layers=layers, activation=activation, seed=seed, max_iter=max_iter,
                          alpha=alpha, feature_subset=self.SUBSET)
            references.append(mlp_oracle.mlp_train(samples, **kwargs))
            _assert_same_fit(mlp_train(samples, **kwargs), references[-1])
        weights, biases, losses = classify._fit_stack(
            np.stack([x] * 3), np.stack([y] * 3), seeds, self.ALPHAS, layers, activation, max_iter
        )
        for j, reference in enumerate(references):
            _assert_slice_is_fit(weights, biases, losses, j, reference)

    def test_fits_share_no_memory(self):
        samples = _overlapping(20, 25, seed=3)
        first = mlp_train(samples, layers=(4, 3), seed=0, max_iter=50, feature_subset=self.SUBSET)
        kept = [a.copy() for a in (*first.weights, *first.biases)]
        second = mlp_train(samples, layers=(4, 3), seed=1, max_iter=50, feature_subset=self.SUBSET)
        for a, b in zip((*first.weights, *first.biases), kept):
            assert np.array_equal(a, b)
        for a, b in itertools.product((*first.weights, *first.biases), (*second.weights, *second.biases)):
            assert not np.shares_memory(a, b)

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    @pytest.mark.parametrize("layers", [(3,), (4, 3), (3, 3, 2)])
    def test_stack_of_folds_and_alphas_equals_lone_fits(self, activation, layers):
        # 21 spy / 24 other in 3 folds: every training set has 30 rows.
        training_sets = _fold_training_sets(_overlapping(21, 24, seed=4), 3, seed=5)
        members = [(alpha, k) for alpha in self.ALPHAS for k in range(3)]
        scaled = [_scaled(train, self.SUBSET) for train in training_sets]
        weights, biases, losses = classify._fit_stack(
            np.stack([scaled[k][0] for _, k in members]), np.stack([scaled[k][1] for _, k in members]),
            [5 + k for _, k in members], [alpha for alpha, _ in members], layers, activation, 150,
        )
        stopped_early = set()
        for j, (alpha, k) in enumerate(members):
            kwargs = dict(layers=layers, activation=activation, seed=5 + k, alpha=alpha,
                          feature_subset=self.SUBSET)
            reference = mlp_oracle.mlp_train(training_sets[k], max_iter=150, **kwargs)
            _assert_slice_is_fit(weights, biases, losses, j, reference)
            one_more = mlp_oracle.mlp_train(training_sets[k], max_iter=151, **kwargs)
            if one_more.training_loss == reference.training_loss:
                stopped_early.add(j)
        # The stack held models that stopped before the cap and models that ran to it.
        assert 0 < len(stopped_early) < len(members)

    def test_stack_whose_models_all_stop_together(self):
        train = _overlapping(20, 25, seed=3)
        x, y = _scaled(train, self.SUBSET)
        weights, biases, losses = classify._fit_stack(
            np.stack([x] * 3), np.stack([y] * 3), [1] * 3, [30.0] * 3, (4, 3), "tanh", 150
        )
        kwargs = dict(layers=(4, 3), activation="tanh", seed=1, alpha=30.0, feature_subset=self.SUBSET)
        reference = mlp_oracle.mlp_train(train, max_iter=150, **kwargs)
        # It stops before the cap.
        assert mlp_oracle.mlp_train(train, max_iter=151, **kwargs).training_loss == reference.training_loss
        for j in range(3):
            _assert_slice_is_fit(weights, biases, losses, j, reference)

    @pytest.mark.parametrize("n_spy,n_other,folds", [(23, 31, 3), (26, 40, 4)])
    def test_grid_search_equals_oracle(self, n_spy, n_other, folds, monkeypatch):
        samples = _overlapping(n_spy, n_other, seed=n_spy, sep=1.5)
        sizes = {len(t) for t in _fold_training_sets(samples, folds, seed=2)}
        assert len(sizes) >= 2
        points = [
            GridPoint(hidden_layers=layers, activation=activation, alpha=alpha)
            for layers in ((4,), (3, 3)) for activation in ("logistic", "relu") for alpha in (1e-4, 1.0)
        ]
        expected = mlp_oracle.grid_search(samples, points, folds=folds, seed=2, feature_subset=self.SUBSET)
        assert grid_search(samples, points, folds=folds, seed=2, feature_subset=self.SUBSET) == expected
        # Neither the worker count nor the chunk size changes a result.
        for workers, budget in itertools.product((1, 2, 3), (1, 300, classify.STACK_BUDGET)):
            monkeypatch.setattr(classify, "_cpu_count", lambda: workers)
            monkeypatch.setattr(classify, "STACK_BUDGET", budget)
            got = grid_search(samples, points, folds=folds, seed=2, feature_subset=self.SUBSET)
            assert got == expected, (workers, budget)
        monkeypatch.undo()
        for point in points[::3]:
            score = mlp_oracle.cross_validate(samples, point, folds, 2, self.SUBSET)
            assert grid_search(samples, [point], folds=folds, seed=2, feature_subset=self.SUBSET) == (point, score)

    def test_non_finite_loss_raises(self):
        samples = _overlapping(20, 25, seed=3)
        kwargs = dict(layers=(3,), feature_subset=self.SUBSET, alpha=math.inf)
        for train in (mlp_train, mlp_oracle.mlp_train):
            with pytest.raises(TrainingDivergedError, match="iteration 1$"):
                train(samples, **kwargs)
        nan_row = corpus([sample(False, cc=math.nan)])
        with pytest.raises(TrainingDivergedError):
            mlp_train(stack_reports([samples, nan_row]), layers=(3,), feature_subset=self.SUBSET)
        points = [GridPoint((3,), "logistic", 1e-4), GridPoint((3,), "logistic", math.inf)]
        with pytest.raises(TrainingDivergedError):
            grid_search(samples, points, folds=3, feature_subset=self.SUBSET)

    @pytest.mark.parametrize("alpha", [-1.0, math.nan])
    def test_penalty_below_zero_is_a_parameter_error(self, alpha):
        samples = _overlapping(20, 25, seed=3)
        with pytest.raises(ParameterError, match="alpha"):
            mlp_train(samples, layers=(3,), feature_subset=self.SUBSET, alpha=alpha)
        with pytest.raises(ParameterError, match="alpha"):
            grid_search(samples, [GridPoint((3,), "logistic", alpha)], folds=3, feature_subset=self.SUBSET)

    @pytest.mark.parametrize("bad", ["nan_row", "infinite_alpha"])
    def test_non_finite_loss_raises_from_pool_workers(self, bad, monkeypatch):
        samples = _overlapping(20, 25, seed=3)
        points = [GridPoint((3,), "logistic", 1e-4), GridPoint((4,), "tanh", 1e-4)]
        if bad == "nan_row":
            samples = stack_reports([samples, corpus([sample(False, cc=math.nan)])])
        else:
            points.append(GridPoint((3,), "logistic", math.inf))
        monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
        with pytest.raises(TrainingDivergedError, match="iteration 1$"):
            grid_search(samples, points, folds=3, feature_subset=self.SUBSET)
        # The pool is shut down and its workers joined.
        assert multiprocessing.active_children() == []

    def test_dead_worker_is_one_error(self, tmp_path, monkeypatch, capsys):
        samples = _overlapping(20, 25, seed=3)
        points = [GridPoint((3,), "logistic", 1e-4), GridPoint((4,), "tanh", 1e-4)]
        monkeypatch.setattr(classify, "_cpu_count", lambda: 2)
        monkeypatch.setattr(classify, "_chunk_f1", _exit_in_worker)
        with pytest.raises(SimobsError, match="worker process died.*__main__"):
            grid_search(samples, points, folds=3, feature_subset=self.SUBSET)
        assert multiprocessing.active_children() == []
        samples_file, out = tmp_path / "samples.json", tmp_path / "grid.json"
        with open(samples_file, "w") as fh:
            write_report_json(samples, fh)
        assert cli.main(["grid-search", "--samples", str(samples_file), "--folds", "3", "--out", str(out)]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        assert "worker process died" in err
        assert not out.exists()
        assert multiprocessing.active_children() == []


def _exit_in_worker(*args):
    """A grid_search chunk whose worker process dies without raising."""
    if multiprocessing.parent_process() is None:  # never end the test process itself
        raise AssertionError("chunk ran in the calling process")
    os._exit(1)


class TestGridSearchChunks:
    """grid_search splits a stack larger than STACK_BUDGET, or shared by
    several workers, into chunks of whole models; the chunks are
    independent fits."""

    SUBSET = ("cc", "kld")
    POINTS = [GridPoint(hidden_layers=layers, activation="tanh", alpha=alpha)
              for layers in ((4,), (3, 3)) for alpha in (1e-4, 1.0, 3.0)]

    def _scores(self, samples):
        per_point = [grid_search(samples, [p], folds=3, seed=2, feature_subset=self.SUBSET) for p in self.POINTS]
        return per_point, grid_search(samples, self.POINTS, folds=3, seed=2, feature_subset=self.SUBSET)

    @pytest.mark.parametrize("budget", [1, 300])
    def test_chunks_score_as_one_stack(self, budget, monkeypatch):
        samples = _overlapping(23, 31, seed=23, sep=1.5)
        whole = self._scores(samples)
        stack_sizes = []
        fit_stack = classify._fit_stack
        monkeypatch.setattr(classify, "_cpu_count", lambda: 1)  # fits run in this process, where they are seen
        monkeypatch.setattr(classify, "_fit_stack", lambda x, *args: stack_sizes.append(len(x)) or fit_stack(x, *args))
        monkeypatch.setattr(classify, "STACK_BUDGET", budget)
        assert self._scores(samples) == whole
        # Stacks of 3 alphas on 35-37 training rows x 4 inputs: 300 floats
        # hold 2 models, 1 float holds one.
        assert max(stack_sizes) == (1 if budget == 1 else 2)

    def test_chunked_stack_peak_memory(self, monkeypatch):
        # 24 models (8 alphas x 3 folds) of 3 x 17 units on 1 333 training rows.
        samples = _overlapping(1000, 1000, seed=0)
        points = [GridPoint((17, 17, 17), "logistic", float(a)) for a in np.logspace(-4, 0, 8)]
        monkeypatch.setattr(classify, "CV_MAX_ITER", 2)  # memory does not grow with iterations
        monkeypatch.setattr(classify, "_cpu_count", lambda: 1)  # tracemalloc sees this process only

        def peak(budget):
            monkeypatch.setattr(classify, "STACK_BUDGET", budget)
            tracemalloc.start()
            try:
                grid_search(samples, points, folds=3, seed=0, feature_subset=self.SUBSET)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        budget = 2**17  # under a quarter of the stack's 543 864 floats per layer array
        whole, chunked = peak(10**9), peak(budget)
        assert chunked < 8 * 8 * budget  # eight layer arrays of float64
        assert chunked < whole / 2

    def test_chunk_plan(self, monkeypatch):
        # 4 inputs; 12 models of (4,) on 36 rows (20 weights each), 5 of
        # (3, 3) on 35 rows (24 weights each).
        a = [(p, k) for p in range(4) for k in range(3)]
        b = [(4, k) for k in range(5)]
        stacks = {((4,), "tanh", 36): a, ((3, 3), "tanh", 35): b}
        # Two workers split each stack in two; the costliest chunks go first.
        assert classify._plan_chunks(stacks, 4, 2) == [
            ((4,), "tanh", a[:6]), ((4,), "tanh", a[6:]), ((3, 3), "tanh", b[:3]), ((3, 3), "tanh", b[3:]),
        ]
        default = classify.STACK_BUDGET
        for workers, budget in itertools.product((1, 2, 3, 20), (1, 150, 300, default)):
            monkeypatch.setattr(classify, "STACK_BUDGET", budget)
            chunks = classify._plan_chunks(stacks, 4, workers)
            for (layers, activation, n_rows), members in stacks.items():
                parts = [part for l, act, part in chunks if (l, act) == (layers, activation)]
                # Whole models of one stack, each model in one chunk.
                assert [m for part in parts for m in part] == members
                for part in parts:
                    assert len(part) == 1 or len(part) * n_rows * max(4, *layers) <= budget
                    assert len(part) <= math.ceil(len(members) / workers)
                if budget == default:  # the budget splits no stack: the workers do
                    assert len(parts) == min(workers, len(members))


class TestGridSearch:
    def test_default_grid_has_768_points(self):
        assert len(ParamGrid().points()) == 768

    def test_singleton_grid_returned(self):
        samples = _toy_separable(n=60)
        point = GridPoint(hidden_layers=(13, 13, 13), activation="logistic", alpha=1e-4)
        best, cv_f1 = grid_search(samples, [point], folds=3, seed=0, feature_subset=("cc", "kld"))
        assert best == point
        assert cv_f1 > 0.9

    def test_tie_breaks_toward_fewer_weights(self):
        samples = _toy_separable(n=60)
        big = GridPoint(hidden_layers=(16, 16), activation="logistic", alpha=1e-4)
        small = GridPoint(hidden_layers=(3,), activation="logistic", alpha=1e-4)
        best, cv_f1 = grid_search(samples, [big, small], folds=3, seed=0, feature_subset=("cc", "kld"))
        if cv_f1 == 1.0:
            assert best == small

    def test_empty_grid(self):
        with pytest.raises(ParameterError):
            grid_search(_toy_separable(), [], folds=3)

    def test_folds_deterministic_and_stratified(self):
        labels = [True] * 20 + [False] * 30
        folds_a = stratified_folds(labels, 5, seed=3)
        folds_b = stratified_folds(labels, 5, seed=3)
        for fa, fb in zip(folds_a, folds_b):
            assert np.array_equal(fa, fb)
        for fold in folds_a:
            fold_labels = [labels[i] for i in fold]
            assert fold_labels.count(True) == 4
            assert fold_labels.count(False) == 6


def _ramp_series(values):
    return ByteSeries(0.0, 1.0, np.array(values, dtype=np.int64))


class TestConvergence:
    def test_final_step_equals_full_window(self):
        rng = np.random.default_rng(14)
        ref = _ramp_series(rng.integers(1000, 50_000, 30))
        noise = _ramp_series(rng.integers(1000, 50_000, 30))
        cfg = ThresholdConfig("kld", 0.021)
        results = convergence_analysis(ref, [ref, noise], [True, False], cfg)
        assert results[-1][0] == 30
        from simobs.similarity import similarity_vector

        full_pred_spy = bool(threshold_classify(similarity_vector(ref, ref), cfg))
        assert results[-1][1].tp == int(full_pred_spy)

    def test_self_device_always_spy(self):
        rng = np.random.default_rng(15)
        ref = _ramp_series(rng.integers(1000, 50_000, 20))
        cfg = ThresholdConfig("kld", 0.021)
        results = convergence_analysis(ref, [ref], [True], cfg)
        assert all(m.recall == 1.0 for _, m in results)

    def test_no_devices(self):
        ref = _ramp_series([1, 2, 3])
        with pytest.raises(ParameterError):
            convergence_analysis(ref, [], [], ThresholdConfig("kld", 0.021))

    def test_window_too_short(self):
        ref = _ramp_series([1])
        with pytest.raises(ParameterError):
            convergence_analysis(ref, [ref], [True], ThresholdConfig("kld", 0.021))


def _device_set(flat_head: int, seed: int):
    """A 30-step reference, flat for its first ``flat_head`` steps, and a
    device set of 8 scaled noisy copies of it (the spies), 8 unrelated
    devices, an all-zero device, a constant device and one idle for 10
    steps before it bursts."""
    rng = np.random.default_rng(seed)
    ref = rng.integers(1000, 50_000, 30)
    ref[:flat_head] = 5000
    spies = [ref * rng.uniform(0.5, 2.0) + rng.normal(0, 3000, 30) for _ in range(8)]
    others = [rng.integers(1000, 50_000, 30) for _ in range(8)]
    burst = np.concatenate((np.zeros(10), rng.integers(1000, 9000, 20)))
    devices = [*spies, *others, np.zeros(30), np.full(30, 700), burst]
    labels = [True] * 8 + [False] * 11
    return _ramp_series(ref), [_ramp_series(np.abs(d).astype(np.int64)) for d in devices], labels


def _prefix(series, t):
    return ByteSeries(series.start_time, series.step, series.values[:t])


def _converge_by_reports(reference, devices, labels, classifier):
    """convergence_analysis as four-measure similarity reports at every prefix."""
    window, _ = align(reference, devices[0])
    return [
        (t, evaluate(column_verdicts(score_report(_prefix(window, t), devices).columns, classifier), labels))
        for t in range(2, len(window) + 1)
    ]


def _converge_by_prefix_columns(reference, devices, labels, classifier):
    """convergence_analysis as ``score_rows`` of every prefix window
    against each device aligned with it on its own, then ``column_verdicts``."""
    window, _ = align(reference, devices[0])
    results = []
    for t in range(2, len(window) + 1):
        prefix = _prefix(window, t)
        columns = score_rows(aligned_rows(prefix, [align(prefix, d)[1] for d in devices]), MEASURES).columns
        results.append((t, evaluate(column_verdicts(columns, classifier), labels)))
    return results


def _shifted(series, skip):
    return ByteSeries(series.start_time + skip * series.step, series.step, series.values[skip:])


class TestConvergenceStackedOnce:
    """convergence_analysis stacks the device set once and scores its
    leading columns, with the metrics of scoring every prefix window on
    its own: for each measure's threshold and for a model, on a scene
    whose reference starts flat, aligned with either side starting later."""

    @pytest.fixture(scope="class")
    def scene(self):
        reference, devices, labels = _device_set(6, 32)
        train = stack_reports([labeled(score_report(_prefix(reference, t), devices), labels) for t in (5, 30)])
        model = mlp_train(train, layers=(4,), seed=2, max_iter=100, feature_subset=MEASURES)
        return reference, devices, labels, model

    @pytest.mark.parametrize("shift", ["none", "reference later", "devices later"])
    @pytest.mark.parametrize("classifier", [*MEASURES, "model"])
    def test_equals_per_prefix_columns(self, scene, classifier, shift):
        reference, devices, labels, model = scene
        if shift == "reference later":
            reference = _shifted(reference, 3)
        elif shift == "devices later":
            devices = [_shifted(d, 2) for d in devices]
        if classifier == "model":
            classifier = model
        else:
            values = score_report(reference, devices).columns[classifier][0]
            classifier = ThresholdConfig(classifier, float(np.nanmedian(values)))
        expected = _converge_by_prefix_columns(reference, devices, labels, classifier)
        window, _ = align(reference, devices[0])
        assert score_rows(aligned_rows(_prefix(window, 3), devices), ["cc"]).columns["cc"][1].all()  # flattened early
        assert len({m for _, m in expected}) > 1  # the verdicts change with t
        assert convergence_analysis(reference, devices, labels, classifier) == expected


class TestConvergenceColumns:
    """convergence_analysis scores only the measures its classifier reads,
    and decides as the four-measure reports do."""

    SCENES = [(0, 31), (6, 32)]  # (steps the reference starts flat, seed)

    @pytest.mark.parametrize("flat_head,seed", SCENES)
    def test_columns_are_the_reports_measures(self, flat_head, seed):
        reference, devices, _ = _device_set(flat_head, seed)
        for t in range(2, 31):
            prefix = _prefix(reference, t)
            report = score_report(prefix, devices)
            scored = score_rows(aligned_rows(prefix, devices), MEASURES)
            for m in MEASURES:
                values, undefined = scored.columns[m]
                expected_values, expected_undefined = report.columns[m]
                assert [repr(v) for v in values.tolist()] == [repr(v) for v in expected_values.tolist()], (t, m)
                assert undefined.tolist() == expected_undefined.tolist(), (t, m)
            assert [(scored.ref_degenerate, bool(c)) for c in scored.cand_degenerate] == [
                ("ref_degenerate" in flags, "cand_degenerate" in flags) for flags in report.flags
            ]
            one = score_rows(aligned_rows(prefix, devices), ["kld"])
            assert list(one.columns) == ["kld"]
            assert np.array_equal(one.columns["kld"][0], scored.columns["kld"][0], equal_nan=True)
        # The flat head and the constant and all-zero devices leave measures undefined.
        assert score_rows(aligned_rows(_prefix(reference, 4), devices), ["cc"]).columns["cc"][1].all() == (flat_head > 0)
        assert score_rows(aligned_rows(reference, devices), ["cc"]).columns["cc"][1].sum() == 2

    @pytest.mark.parametrize("flat_head,seed", SCENES)
    def test_threshold_metrics_equal_the_report_path(self, flat_head, seed):
        reference, devices, labels = _device_set(flat_head, seed)
        full = score_report(reference, devices)
        for m in MEASURES:
            values = full.columns[m][0]
            cfg = ThresholdConfig(m, float(np.nanmedian(values)))
            expected = _converge_by_reports(reference, devices, labels, cfg)
            assert len({r[1] for r in expected}) > 1, m  # the verdicts change with t
            assert convergence_analysis(reference, devices, labels, cfg) == expected, m

    @pytest.mark.parametrize("subset", [("cc", "dtw", "kld", "jsd"), CAMERA_REF_FEATURES])
    @pytest.mark.parametrize("flat_head,seed", SCENES)
    def test_network_metrics_equal_the_report_path(self, subset, flat_head, seed):
        reference, devices, labels = _device_set(flat_head, seed)
        train = stack_reports([labeled(score_report(_prefix(reference, t), devices), labels) for t in (5, 10, 20, 30)])
        model = mlp_train(train, layers=(5,), seed=1, max_iter=150, feature_subset=subset)
        expected = _converge_by_reports(reference, devices, labels, model)
        assert convergence_analysis(reference, devices, labels, model) == expected


class TestPortability:
    def _samples(self, shift_b=0.0, n=40, seed=0):
        rng = np.random.default_rng(seed)
        out = []
        for regime, shift in (("a", 0.0), ("b", shift_b)):
            for _ in range(n):
                out.append(sample(True, kld=float(abs(rng.normal(0.01 + shift, 0.005))),
                                  tags={f"env={regime}"}))
                out.append(sample(False, kld=float(abs(rng.normal(0.5, 0.1))),
                                  tags={f"env={regime}"}))
        return corpus(out)

    def test_identical_partitions_all_cells_close(self):
        order, matrix = portability_matrix(self._samples(), "env", trainer="kld", seed=1)
        assert order == ("a", "b", "both")
        assert matrix.max() - matrix.min() <= 0.1

    def test_shifted_partition_diagonal_wins(self):
        order, matrix = portability_matrix(self._samples(shift_b=0.28), "env", trainer="kld", seed=1)
        diag = np.mean([matrix[i, i] for i in range(3)])
        off = np.mean([matrix[i, j] for i in range(3) for j in range(3) if i != j])
        assert diag >= off

    def test_undefined_measure_is_never_spy(self):
        # Defined values separate the classes; an imputed cc of 0 would
        # rank the undefined negatives above every spy.
        rng = np.random.default_rng(2)
        samples = []
        for regime in ("a", "b"):
            for _ in range(20):
                samples.append(sample(True, cc=float(rng.uniform(-0.55, -0.5)), tags={f"env={regime}"}))
                samples.append(sample(False, cc=float(rng.uniform(-0.95, -0.6)), tags={f"env={regime}"}))
                samples.append(sample(False, cc=None, tags={f"env={regime}"}))
        _, matrix = portability_matrix(corpus(samples), "env", trainer="cc", seed=1)
        assert (matrix == 1.0).all()

    def test_single_partition_errors(self):
        samples = self._samples()
        samples = samples.take([i for i, tags in enumerate(samples.tags) if "env=a" in tags])
        with pytest.raises(PartitionError):
            portability_matrix(samples, "env", trainer="kld")

    def test_trainer_must_be_a_measure(self):
        with pytest.raises(ParameterError):
            portability_matrix(self._samples(), "env", trainer="bogus")


class TestAffineInvariance:
    def test_cc_verdict_invariant_under_candidate_scaling(self):
        # normalization makes the cc verdict blind to positive affine
        # maps of the raw candidate bins
        from simobs.similarity import similarity_vector

        rng = np.random.default_rng(33)
        cfg = ThresholdConfig("cc", DEFAULT_THRESHOLDS["cc"])
        for _ in range(20):
            ref = ByteSeries(0.0, 1.0, rng.integers(100, 100_000, 60))
            cand_vals = rng.integers(100, 100_000, 60)
            cand = ByteSeries(0.0, 1.0, cand_vals)
            scaled = ByteSeries(0.0, 1.0, 3 * cand_vals + 7)
            base = threshold_classify(similarity_vector(ref, cand), cfg)
            mapped = threshold_classify(similarity_vector(ref, scaled), cfg)
            assert base == mapped


class TestDefaultThresholds:
    def test_published_operating_points(self):
        assert DEFAULT_THRESHOLDS == {"cc": 0.21, "dtw": 12.51, "kld": 0.021, "jsd": 0.005}


# Measure values for the column tests: undefined (None), NaN, ties and
# arbitrary finite values.
_column_values = st.one_of(st.none(), st.just(math.nan), st.sampled_from([0.0, 0.5, 1.0]),
                           st.floats(-5, 5, allow_nan=False))


class TestDecisionColumns:
    """Every verdict comes from one threshold comparison or one network
    forward over a whole report."""

    def test_undefined_is_none_not_nan(self):
        report = report_of([row(cc=None), row(cc=math.nan), row(cc=0.25)])
        values, undefined = report.columns["cc"]
        assert np.isnan(values[:2]).all() and values[2] == 0.25
        assert undefined.tolist() == [True, False, False]
        assert column_verdicts(report.columns, ThresholdConfig("cc", -1.0)).tolist() == [False, False, True]

    @given(st.sampled_from(MEASURES), st.sampled_from([-math.inf, 0.5, math.inf]),
           st.lists(_column_values, max_size=12))
    def test_verdicts_are_per_entry_comparisons(self, measure, threshold, values):
        values = [*values, threshold]  # a value equal to the threshold is spy
        report = report_of([row(**{measure: v}) for v in values])
        cfg = ThresholdConfig(measure, threshold)
        at_least = DIRECTION_BY_MEASURE[measure] == "spy_if_at_least"
        expected = [v is not None and (v >= threshold if at_least else v <= threshold) for v in values]
        assert column_verdicts(report.columns, cfg).tolist() == expected
        assert [threshold_classify(v, cfg) for v in rows_of(report)] == expected

    @pytest.mark.parametrize("activation", ACTIVATIONS)
    def test_network_paths_agree_by_repr(self, activation):
        undefined = corpus(sample(i % 2 == 0, cc=None, kld=None, flags=("cc_undefined", "kld_undefined"))
                           for i in range(8))
        samples = stack_reports([_overlapping(40, 40, seed=7, sep=1.0), undefined])
        model = mlp_train(samples, layers=(6, 5), activation=activation, seed=3, max_iter=200,
                          feature_subset=("cc", "dtw", "kld", "jsd"))
        rows = rows_of(samples)
        batch = mlp_probabilities(model, samples.columns)
        assert [repr(p) for p in batch.tolist()] == [repr(mlp_predict(model, v)) for v in rows]
        views = [LabeledSample(v, label) for v, label in zip(rows, samples.labels.tolist())]
        assert mlp_verdicts(model, views) == (batch >= 0.5).tolist() == column_verdicts(samples.columns, model).tolist()

    @given(st.lists(st.tuples(st.booleans(), _column_values, _column_values), min_size=1, max_size=20))
    def test_agreement_counts_per_negative(self, rows):
        samples = corpus(sample(label, cc=cc, kld=kld) for label, cc, kld in rows)
        configs = [ThresholdConfig("cc", 0.5), ThresholdConfig("kld", 0.5)]
        counts = {}
        for features, label in zip(rows_of(samples), samples.labels):
            wrong = sum(threshold_classify(features, cfg) for cfg in configs)
            if not label and wrong:
                counts[wrong] = counts.get(wrong, 0) + 1
        if samples.labels.all():
            with pytest.raises(ParameterError):
                measure_agreement(samples, configs)
            return
        report = measure_agreement(samples, configs)
        assert report.counts == counts and report.total_false_positives == sum(counts.values())
        assert all(type(k) is int and type(v) is int for k, v in report.counts.items())

    def test_evaluate_takes_arrays(self):
        preds, labels = [True, True, False, False, True], [True, False, False, True, True]
        assert evaluate(np.array(preds), np.array(labels)) == evaluate(preds, labels)
        assert type(evaluate(np.array(preds), labels).tp) is int


class TestAgreement:
    def _configs(self):
        return [ThresholdConfig(m, DEFAULT_THRESHOLDS[m]) for m in ("cc", "kld", "jsd")]

    def test_all_perfect_empty(self):
        samples = corpus([sample(False, cc=-0.5, kld=5.0, jsd=0.5)] * 10 + [
            sample(True, cc=0.9, kld=0.001, jsd=0.001)
        ])
        report = measure_agreement(samples, self._configs())
        assert report.total_false_positives == 0
        assert report.distribution == {}

    def test_single_measure_fooled(self):
        samples = corpus([sample(False, cc=-0.5, kld=0.001, jsd=0.5)] * 4)
        report = measure_agreement(samples, self._configs())
        assert report.total_false_positives == 4
        assert report.distribution == {1: 1.0}

    def test_needs_negative_sample(self):
        with pytest.raises(ParameterError):
            measure_agreement(corpus([sample(True)]), self._configs())


class TestSimilarityJson:
    ROWS = [
        {**row(cc=0.25, dtw=3.5, kld=0.0125, jsd=0.001), "device_id": "aa:00:00:00:00:01"},
        {**row(cc=None, dtw=0.0, kld=None, jsd=0.693, flags=("cc_undefined", "kld_undefined", "cand_degenerate")),
         "device_id": "aa:00:00:00:00:02"},
    ]

    @pytest.mark.parametrize("writer", [write_report_json, write_report_csv])
    def test_report_round_trip(self, writer):
        report = report_of(self.ROWS)
        buf = io.StringIO()
        writer(report, buf)
        back = read_report(io.StringIO(buf.getvalue()))
        assert report_entries(back) == report_entries(report)
        assert back.labels is None and back.tags is None

    def test_samples_round_trip(self):
        rows = [{**r, "label": i == 0, "tags": sorted({"regime=near", f"kind={i}"})} for i, r in enumerate(self.ROWS)]
        samples = report_of(rows)
        buf = io.StringIO()
        write_report_json(samples, buf)
        assert report_entries(read_samples(io.StringIO(buf.getvalue()))) == report_entries(samples)
        assert [row["device_id"] for row in json.loads(buf.getvalue())] == [r["device_id"] for r in self.ROWS]
        # The row view: one LabeledSample per entry, its features a one-row report.
        views = read_samples_json(io.StringIO(buf.getvalue()))
        assert [(v.label, v.tags) for v in views] == [(r["label"], frozenset(r["tags"])) for r in rows]
        assert [report_entries(v.features) for v in views] == [[e] for e in report_entries(samples)]

    def test_samples_row_may_leave_out_its_device_id(self):
        row_ = {**row(cc=0.25, dtw=3.5, kld=0.0125, jsd=0.001), "label": True, "tags": []}
        text = json.dumps([row_])
        samples = read_samples(io.StringIO(text))
        assert samples.device_ids == [None]
        buf = io.StringIO()
        write_report_json(samples, buf)
        assert json.loads(buf.getvalue()) == [{**row_, "flags": []}]
        with pytest.raises(FormatError, match="row 0 .*has no device_id"):  # a report row needs one
            read_report(io.StringIO(text))

    @pytest.mark.parametrize("device_id", [5, None, ["x"]])
    def test_device_id_that_is_present_is_a_string(self, device_id):
        row_ = {**row(), "device_id": device_id, "label": True, "tags": []}
        for read in (read_report, read_samples, read_samples_json):
            with pytest.raises(FormatError, match="device_id must be a string"):
                read(io.StringIO(json.dumps([row_])))

    @pytest.mark.parametrize("key,value", [("label", "false"), ("label", 0), ("label", None),
                                           ("tags", "regime=near"), ("tags", [["regime=near"]]),
                                           ("flags", "cc_undefined"), ("flags", [None])])
    def test_mistyped_sample_field_is_format_error(self, key, value):
        row_ = {"cc": 0.25, "dtw": 3.5, "kld": 0.0125, "jsd": 0.001, "flags": [], "label": False,
                "tags": ["regime=near"]}
        expected = corpus([sample(False, tags={"regime=near"}, cc=0.25, dtw=3.5, kld=0.0125, jsd=0.001)])
        assert report_entries(read_samples(io.StringIO(json.dumps([row_])))) == report_entries(expected)
        with pytest.raises(FormatError, match=f"{key} must be "):
            read_samples_json(io.StringIO(json.dumps([{**row_, key: value}])))
        if key == "flags":
            with pytest.raises(FormatError, match="flags must be "):
                read_report(io.StringIO(json.dumps([{**row_, "device_id": "x", key: value}])))

    @pytest.mark.parametrize("text", [
        "", "[{", "7", '[{"cc": 0.1}]', '[{"cc": 0.1, "dtw": null, "kld": 0.1, "jsd": 0.1}]',
    ])
    def test_malformed_is_format_error(self, text):
        with pytest.raises(FormatError):
            read_report(io.StringIO(text))
        with pytest.raises(FormatError):
            read_samples_json(io.StringIO(text))
