"""Spy/not-spy decisions from similarity reports.

Two classifier families: per-measure thresholds (cheap, tunable by F1
sweep) and a small feed-forward network over several measures at once.
Also the evaluation machinery: metrics, prefix-convergence curves,
cross-partition portability matrices and false-positive agreement.
"""
from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from typing import Sequence, TextIO

import numpy as np

from .errors import (
    ClassImbalanceError,
    FormatError,
    ParameterError,
    PartitionError,
    SimobsError,
    TrainingDivergedError,
    json_number,
    json_text,
    read_json,
)
# similarity_vector is not called here; perfbench/layers.py wraps classify.similarity_vector.
from .similarity import Columns, Report, aligned_rows, measure_names, read_samples, score_rows, similarity_vector
from .timeseries import ByteSeries

# Measures where larger means more similar classify spy at-or-above the
# threshold; distance/divergence measures at-or-below.
DIRECTION_BY_MEASURE = {
    "cc": "spy_if_at_least",
    "dtw": "spy_if_at_most",
    "kld": "spy_if_at_most",
    "jsd": "spy_if_at_most",
}

# Published operating points; sweep_threshold re-tunes per corpus.
DEFAULT_THRESHOLDS = {"cc": 0.21, "dtw": 12.51, "kld": 0.021, "jsd": 0.005}

# Stand-ins for undefined measures when a model needs a total feature
# vector; each imputed slot also gets an indicator input.
IMPUTED_VALUES = {"cc": 0.0, "dtw": 0.0, "kld": 10.0, "jsd": math.log(2)}
KLD_FEATURE_CAP = 10.0

CAMERA_REF_FEATURES = ("cc", "kld", "jsd")


@dataclass(frozen=True)
class ThresholdConfig:
    measure: str
    threshold: float

    def __post_init__(self):
        measure_names([self.measure])
        if math.isnan(self.threshold):  # +-inf stay: sweep_threshold's admit-all and admit-none points
            raise ParameterError(f"threshold of {self.measure} is NaN")


def _sign(measure: str) -> int:
    """Spy iff sign * value <= sign * threshold."""
    return -1 if DIRECTION_BY_MEASURE[measure] == "spy_if_at_least" else 1


def threshold_classify(row: Report, cfg: ThresholdConfig) -> bool:
    """column_verdicts of a one-row report under a threshold.  A row view
    kept because perfbench/layers.py wraps it by name."""
    return bool(column_verdicts(row.columns, cfg)[0])


@dataclass(frozen=True)
class Metrics:
    tp: int
    fp: int
    tn: int
    fn: int
    accuracy: float
    precision: float
    recall: float
    f1: float

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def _rates(tp, predicted, actual, entries) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Precision, recall, F1 and accuracy of confusion counts of any shape:
    true positives, predicted positives, actual positives and entries.  A
    ratio whose denominator is 0 is 0.0."""
    tp, predicted, actual, entries = np.broadcast_arrays(tp, predicted, actual, entries)

    def ratio(numerator, denominator):
        return np.divide(numerator, denominator, out=np.zeros(tp.shape), where=denominator > 0)

    precision, recall = ratio(tp, predicted), ratio(tp, actual)
    f1 = ratio(2 * precision * recall, precision + recall)
    return precision, recall, f1, ratio(entries - predicted - actual + 2 * tp, entries)


def _metrics(verdicts: np.ndarray, labels: np.ndarray) -> list[Metrics]:
    """The Metrics of each row of a (rows, entries) verdict stack, against
    one row of labels or one per verdict row."""
    tp = np.count_nonzero(verdicts & labels, axis=-1)
    predicted = np.count_nonzero(verdicts, axis=-1)
    actual = np.broadcast_to(np.count_nonzero(labels, axis=-1), tp.shape)
    n = verdicts.shape[-1]
    rates = zip(*(r.tolist() for r in _rates(tp, predicted, actual, n)))
    return [Metrics(t, p - t, n - p - a + t, a - t, accuracy, precision, recall, f1)
            for t, p, a, (precision, recall, f1, accuracy) in zip(tp.tolist(), predicted.tolist(), actual.tolist(), rates)]


def evaluate(predictions: Sequence[bool], labels: Sequence[bool]) -> Metrics:
    """Confusion counts plus accuracy/precision/recall/F1; a ratio whose
    denominator is 0 comes back as 0.0."""
    if len(predictions) != len(labels):
        raise ParameterError(f"length mismatch: {len(predictions)} vs {len(labels)}")
    if len(labels) < 1:
        raise ParameterError("need at least one prediction")
    return _metrics(np.asarray(predictions, dtype=bool)[None], np.asarray(labels, dtype=bool))[0]


def sweep_threshold(samples: Report, measure: str) -> tuple[float, float]:
    """Best F1 threshold for one measure over a labeled report.

    Candidates are midpoints between consecutive distinct defined values
    plus +-inf sentinels; ties break toward the threshold admitting fewer
    positives.  As in ``column_verdicts``, an undefined or NaN value is
    never spy, so an undefined spy counts as a miss at every candidate.
    """
    measure_names([measure])
    labels = samples.labels
    if labels.all() or not labels.any():
        raise ClassImbalanceError("sweep needs both classes present")
    values = samples.columns[measure][0]
    defined = ~np.isnan(values)  # the rest are never spy
    values, spies = values[defined], labels[defined]
    distinct = np.unique(values)
    candidates = np.concatenate(([-math.inf], (distinct[:-1] + distinct[1:]) / 2, [math.inf]))
    # One ascending sort of sign * value counts the positives of every
    # candidate, fewest first.
    sign = _sign(measure)
    candidates = candidates[::sign]
    order = np.argsort(sign * values)
    n_spy = np.searchsorted(sign * values[order], sign * candidates, side="right")
    tp = np.concatenate(([0], np.cumsum(spies[order])))[n_spy]
    f1 = _rates(tp, n_spy, labels.sum(), labels.size)[2]
    best = int(np.argmax(f1))  # the first best
    return float(candidates[best]), float(f1[best])


# ---------------------------------------------------------------------------
# Feed-forward network
# ---------------------------------------------------------------------------

ACTIVATIONS = ("logistic", "tanh", "relu")
MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class MlpModel:
    layer_sizes: tuple[int, ...]  # input, hidden..., 1
    activation: str
    weights: tuple[np.ndarray, ...]
    biases: tuple[np.ndarray, ...]
    feature_subset: tuple[str, ...]
    feature_mean: np.ndarray
    feature_std: np.ndarray
    training_loss: float = math.nan


def feature_matrix(columns: Columns, subset: Sequence[str]) -> np.ndarray:
    """The ``subset`` measures of ``columns`` plus per-measure undefined
    indicators, one row per entry.

    An undefined measure takes its stand-in, and kld is capped so
    near-degenerate candidates cannot blow up feature scaling.
    """
    subset = measure_names(subset)
    x = np.empty((len(columns[subset[0]][0]), 2 * len(subset)))
    for j, m in enumerate(subset):
        values, undefined = columns[m]
        values = np.where(undefined, IMPUTED_VALUES[m], values)
        x[:, j] = np.minimum(values, KLD_FEATURE_CAP) if m == "kld" else values
        x[:, len(subset) + j] = undefined
    return x


def _act_grad(a: np.ndarray, kind: str, scratch: np.ndarray) -> np.ndarray:
    """The activation's derivative from its output ``a``, written over
    ``a``; the logistic's ``1 - a`` goes to ``scratch``, of ``a``'s shape."""
    if kind == "logistic":
        return np.multiply(a, np.subtract(1.0, a, out=scratch), out=a)
    if kind == "tanh":
        return np.subtract(1.0, np.multiply(a, a, out=a), out=a)
    return np.greater(a, 0, out=a)


def _forward(model_weights, model_biases, activation: str, x: np.ndarray, out=None) -> list[np.ndarray]:
    """``x`` and every layer's output; layer i is written into ``out[i]``
    (fresh arrays when ``out`` is None)."""
    if out is None:
        out = [np.empty((*x.shape[:-1], w.shape[-1])) for w in model_weights]
    acts = [x, *out]
    last = len(model_weights) - 1
    for i, (w, b) in enumerate(zip(model_weights, model_biases)):
        a, z = acts[i], acts[i + 1]
        np.matmul(a, w, out=z)
        if i == last or activation == "logistic":
            # 1 / (1 + exp(-(z + b))), with -(z + b) taken as (-b) - z: the
            # same but for the sign of a zero, and exp(+-0) is 1.
            np.exp(np.subtract(-b, z, out=z), out=z)
            np.divide(1.0, np.add(z, 1.0, out=z), out=z)
        elif activation == "tanh":
            np.tanh(np.add(z, b, out=z), out=z)
        else:
            np.maximum(np.add(z, b, out=z), 0.0, out=z)
    return acts


def _training_set(x_raw: np.ndarray, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Training rows scaled to zero mean and unit variance, with the mean
    and std that scale them; needs 10 samples of each class."""
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos < 10 or n_neg < 10:
        raise ClassImbalanceError(f"need >= 10 samples per class, got {n_pos} spy / {n_neg} other")
    mean = x_raw.mean(axis=0)
    std = x_raw.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return (x_raw - mean) / std, mean, std


def _layer_views(params: np.ndarray, sizes: Sequence[int]) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """The (k, fan_in, fan_out) weight and (k, 1, fan_out) bias views of a
    (k, P) array that holds each model's layers, weights then biases, in
    one row."""
    k, at = len(params), 0
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        weights.append(params[:, at : at + fan_in * fan_out].reshape(k, fan_in, fan_out))
        at += fan_in * fan_out
        biases.append(params[:, at : at + fan_out].reshape(k, 1, fan_out))
        at += fan_out
    return weights, biases


def _fit_stack(x, y, seeds, alphas, layers, activation: str, max_iter: int):
    """Fit k networks of one shape at once by full-batch Adam on logistic loss.

    ``x`` is (k, n, f) and ``y`` (k, n, 1); model j starts from ``seeds[j]``,
    has penalty ``alphas[j]`` and stops on its own as a lone fit would.
    The matmuls and reductions run slice by slice, so each model is
    bit-identical to a fit of its own.  Model j's weights and biases are
    row j of one (k, P) array, as are its gradients and Adam moments, so
    one Adam step updates the whole stack.  Every (k, n, width) array, one
    output per layer and two deltas, is allocated once per call and
    written in place at every iteration.  Returns the per-layer weight and
    bias views and each model's last loss.
    """
    if activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if any(width < 1 for width in layers):
        raise ParameterError(f"hidden layer widths must be >= 1, got {tuple(layers)}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    if bad := [alpha for alpha in alphas if not alpha >= 0]:  # NaN fails too; an infinite one diverges
        raise ParameterError(f"alpha must be >= 0, got {bad[0]!r}")
    k, n, n_features = x.shape
    sizes = (n_features, *layers, 1)
    params = np.zeros((k, sum((fan_in + 1) * fan_out for fan_in, fan_out in zip(sizes, sizes[1:]))))
    weights, biases = _layer_views(params, sizes)  # biases start at 0
    rngs = [np.random.default_rng(seed) for seed in seeds]
    for w, fan_in, fan_out in zip(weights, sizes, sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        for j, rng in enumerate(rngs):
            w[j] = rng.uniform(-limit, limit, size=(fan_in, fan_out))
    alpha = np.asarray(alphas, dtype=np.float64).reshape(k, 1)

    grads, penalty, m, v, step, denom = (np.zeros_like(params) for _ in range(6))
    grad_w, grad_b = _layer_views(grads, sizes)
    penalty_w = _layer_views(penalty, sizes)[0]
    outputs = [np.empty((k, n, width)) for width in sizes[1:]]
    deltas = [np.empty(k * n * max(sizes[1:])) for _ in range(2)]  # a layer's delta and the one below

    def delta_rows(c: int, width: int) -> np.ndarray:
        return deltas[c][: k * n * width].reshape(k, n, width)

    lr, beta1, beta2, eps = 0.02, 0.9, 0.999, 1e-8
    active = np.ones((k, 1))  # 0 once stopped: parameters, and so the loss, stay put
    prev_loss = np.full(k, math.inf)
    for it in range(1, max_iter + 1):
        acts = _forward(weights, biases, activation, x, outputs)
        p = np.clip(acts[-1], 1e-12, 1 - 1e-12)
        loss = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p), axis=(1, 2))
        loss += 0.5 * alpha[:, 0] * sum((w * w).reshape(k, -1).sum(axis=1) for w in weights) / n
        if not np.isfinite(loss).all():
            raise TrainingDivergedError(f"loss became non-finite at iteration {it}")
        active[np.abs(prev_loss - loss) < 1e-6] = 0.0
        prev_loss = loss
        if not active.any():
            break

        c = 0
        delta = np.subtract(acts[-1], y, out=delta_rows(c, 1))  # logistic output + BCE
        delta /= n
        np.divide(np.multiply(params, alpha, out=penalty), n, out=penalty)  # alpha * w / n; bias cells unused
        for i in range(len(weights) - 1, -1, -1):
            a = acts[i]
            np.add(np.matmul(a.swapaxes(1, 2), delta, out=grad_w[i]), penalty_w[i], out=grad_w[i])
            # The bias gradient sums delta's rows.  A lone fit's np.sum adds
            # a single column pairwise and wider rows one after another;
            # einsum adds wider rows in that same order at about a quarter
            # of np.sum's cost.
            if delta.shape[-1] == 1:
                np.sum(delta, axis=1, keepdims=True, out=grad_b[i])
            else:
                np.einsum("knu->ku", delta, out=grad_b[i][:, 0])
            if i > 0:
                below = delta_rows(1 - c, sizes[i])
                if delta.shape[-1] == 1:  # one product per cell: the matmul, exactly
                    np.multiply(delta, weights[i].swapaxes(1, 2), out=below)
                else:
                    np.matmul(delta, weights[i].swapaxes(1, 2), out=below)
                # This layer's delta is spent: its buffer takes the logistic's 1 - a.
                below *= _act_grad(a, activation, delta_rows(c, sizes[i]))
                c, delta = 1 - c, below
        # Adam, element by element as in a lone fit:
        # m = beta1 * m + (1 - beta1) * g; v = beta2 * v + (1 - beta2) * g * g;
        # param -= active * (lr * (m / corr1) / (sqrt(v / corr2) + eps)).
        corr1, corr2 = 1 - beta1**it, 1 - beta2**it
        m *= beta1
        m += np.multiply(grads, 1 - beta1, out=step)
        v *= beta2
        v += np.multiply(np.multiply(grads, 1 - beta2, out=step), grads, out=step)
        np.sqrt(np.divide(v, corr2, out=denom), out=denom)
        denom += eps
        np.multiply(np.divide(m, corr1, out=step), lr, out=step)
        step /= denom
        step *= active
        params -= step
    return weights, biases, prev_loss


def _check_seed(seed: int) -> None:
    """numpy seeds its generators from integers >= 0 only."""
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")


def mlp_train(
    train: Report,
    layers: Sequence[int] = (13, 13, 13),
    activation: str = "logistic",
    seed: int = 0,
    max_iter: int = 400,
    alpha: float = 1e-4,
    feature_subset: Sequence[str] = CAMERA_REF_FEATURES,
) -> MlpModel:
    """Fit the network by full-batch Adam on logistic loss.

    Deterministic for a fixed seed; stops when the loss improves by less
    than 1e-6 or after ``max_iter`` iterations.
    """
    _check_seed(seed)
    labels = train.labels.astype(np.float64)
    subset = tuple(feature_subset)
    x_raw = feature_matrix(train.columns, subset)
    x, mean, std = _training_set(x_raw, labels)
    weights, biases, loss = _fit_stack(
        x[None], labels[None, :, None], [seed], [alpha], layers, activation, max_iter
    )
    for a in (*weights, *biases, mean, std):
        a.setflags(write=False)
    return MlpModel(
        layer_sizes=(x.shape[1], *layers, 1),
        activation=activation,
        weights=tuple(w[0] for w in weights),
        biases=tuple(b[0, 0] for b in biases),
        feature_subset=subset,
        feature_mean=mean,
        feature_std=std,
        training_loss=float(loss[0]),
    )


def mlp_probabilities(model: MlpModel, columns: Columns) -> np.ndarray:
    """Spy probability in (0, 1) of every entry of ``columns``, which hold
    at least the model's features."""
    # Rows go through the network as an (n, 1, f) stack, so each is
    # computed, and rounded, as a lone row would be.
    x = (feature_matrix(columns, model.feature_subset) - model.feature_mean) / model.feature_std
    return _forward(model.weights, model.biases, model.activation, x[:, None, :])[-1][:, 0, 0]


def mlp_predict(model: MlpModel, row: Report) -> float:
    """Spy probability in (0, 1) of a one-row report.  A row view kept for
    perfbench/: layers.py wraps it by name and the learn check calls it."""
    return float(mlp_probabilities(model, row.columns)[0])


def mlp_verdicts(model: MlpModel, samples: Sequence[LabeledSample]) -> list[bool]:
    """The model's verdict on each sample's one-row features.  A row view
    kept because perfbench/layers.py wraps it by name."""
    return [bool(mlp_probabilities(model, s.features.columns)[0] >= 0.5) for s in samples]


def _measures_read(classifier: MlpModel | ThresholdConfig) -> tuple[str, ...]:
    """The measures a classifier's verdicts depend on."""
    return classifier.feature_subset if isinstance(classifier, MlpModel) else (classifier.measure,)


def column_verdicts(columns: Columns, classifier: MlpModel | ThresholdConfig) -> np.ndarray:
    """Spy verdict of every entry of ``columns``, which hold at least the
    measures the classifier reads: a spy probability of at least 0.5 under
    a model, or the threshold test in the measure's direction, where an
    undefined or NaN measure is not spy."""
    if isinstance(classifier, MlpModel):
        return mlp_probabilities(classifier, columns) >= 0.5
    sign = _sign(classifier.measure)
    return sign * columns[classifier.measure][0] <= sign * classifier.threshold


def save_model(model: MlpModel, out: TextIO) -> None:
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "layer_sizes": list(model.layer_sizes),
        "activation": model.activation,
        "weights": [w.reshape(-1).tolist() for w in model.weights],
        "biases": [b.tolist() for b in model.biases],
        "feature_subset": list(model.feature_subset),
        "standardization": {
            "mean": model.feature_mean.tolist(),
            "std": model.feature_std.tolist(),
        },
    }
    if math.isfinite(model.training_loss):  # a model without one reads back as NaN
        payload["training_loss"] = model.training_loss
    out.write(json_text(payload))


def load_model(inp: TextIO) -> MlpModel:
    """Inverse of save_model; a payload that is not a consistent network
    raises FormatError."""
    return read_json(inp, _model_from_payload, "model")


def _model_from_payload(payload: dict) -> MlpModel:
    version = payload.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:  # true == 1, but is not a version
        raise FormatError(f"unsupported model format version {version!r}")
    sizes = tuple(payload["layer_sizes"])

    def numbers(values, what: str) -> np.ndarray:
        return np.array([json_number(v, what) for v in values], dtype=np.float64)

    weights = tuple(
        numbers(flat, "a weight").reshape(fan_in, fan_out)
        for flat, fan_in, fan_out in zip(payload["weights"], sizes, sizes[1:])
    )
    biases = tuple(numbers(b, "a bias") for b in payload["biases"])
    loss = json_number(payload["training_loss"], "training_loss") if "training_loss" in payload else math.nan
    model = MlpModel(
        layer_sizes=sizes,
        activation=payload["activation"],
        weights=weights,
        biases=biases,
        feature_subset=tuple(payload["feature_subset"]),
        feature_mean=numbers(payload["standardization"]["mean"], "a standardization mean"),
        feature_std=numbers(payload["standardization"]["std"], "a standardization std"),
        training_loss=loss,
    )
    if model.activation not in ACTIVATIONS:
        raise FormatError(f"model activation {model.activation!r} is not one of {ACTIVATIONS}")
    try:
        measure_names(model.feature_subset)
    except ParameterError as exc:
        raise FormatError(f"model feature_subset: {exc}") from None
    n_inputs = 2 * len(model.feature_subset)
    shapes_ok = (
        sizes[0] == n_inputs
        and sizes[-1] == 1
        and len(weights) == len(sizes) - 1
        and [b.shape for b in biases] == [(n,) for n in sizes[1:]]
        and model.feature_mean.shape == model.feature_std.shape == (n_inputs,)
    )
    if not shapes_ok:
        raise FormatError(f"model arrays do not fit layer sizes {list(sizes)}")
    return model


# ---------------------------------------------------------------------------
# Grid search with stratified cross validation
# ---------------------------------------------------------------------------

# Iteration cap of every fit made during cross validation.
CV_MAX_ITER = 300

# Most models x training rows x widest layer that one stacked fit of
# grid_search holds (floats per layer array, 8 MiB); a larger stack trains
# in chunks of whole models.  A chunk's fit allocates its layer arrays
# once, one output per layer and two deltas, so it holds about
# (hidden layers + 2) such arrays whatever its iteration count.  Every
# stack of the full grid at 10 folds on 400 samples (160 models x 360
# rows x 17 units) fits in one chunk.  A
# stack is also split into one chunk per worker, and the workers (one per
# CPU in the process's affinity mask) fit chunks at the same time, so
# peak memory is up to workers x one chunk.  Chunks are independent fits,
# so results are bit-identical to one serial stack.
STACK_BUDGET = 2**20


def _cpu_count() -> int:
    """CPUs this process may run on: grid_search's worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity masks on this platform
        return os.cpu_count() or 1


@dataclass(frozen=True)
class ParamGrid:
    layer_counts: tuple[int, ...] = (1, 2, 3)
    widths: tuple[int, ...] = (10, 11, 12, 13, 14, 15, 16, 17)
    activations: tuple[str, ...] = ("logistic", "tanh")
    alphas: tuple[float, ...] = tuple(float(a) for a in np.logspace(-5, 0.25, 16))

    def points(self) -> list["GridPoint"]:
        return [
            GridPoint(hidden_layers=(width,) * count, activation=act, alpha=alpha)
            for count, width, act, alpha in itertools.product(
                self.layer_counts, self.widths, self.activations, self.alphas
            )
        ]


@dataclass(frozen=True)
class GridPoint:
    hidden_layers: tuple[int, ...]
    activation: str
    alpha: float


def stratified_folds(labels: Sequence[bool], folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment; returns index arrays."""
    if folds < 2:
        raise ParameterError(f"folds must be >= 2, got {folds}")
    labels_arr = np.asarray(labels, dtype=bool)
    rng = np.random.default_rng(seed)
    assignment = np.empty(len(labels_arr), dtype=np.int64)
    for cls in (True, False):
        idx = np.flatnonzero(labels_arr == cls)
        if idx.size < folds:
            raise ClassImbalanceError(
                f"class {cls} has {idx.size} samples, fewer than {folds} folds"
            )
        rng.shuffle(idx)
        assignment[idx] = np.arange(idx.size) % folds
    return [np.flatnonzero(assignment == k) for k in range(folds)]


def _plan_chunks(
    stacks: dict[tuple, list[tuple[int, int]]], n_features: int, workers: int
) -> list[tuple[tuple[int, ...], str, list[tuple[int, int]]]]:
    """Split every stack of (point, fold) models, keyed by (hidden layers,
    activation, training rows), into chunks of whole models: each holds at
    most STACK_BUDGET floats per layer array (one model may hold more) and
    at most ceil(models / workers) models, so a lone stack still spreads
    over every worker.  Returns (layers, activation, members), the costliest
    chunk (models x rows x weights) first, so the workers finish together.
    """
    costed = []
    for (layers, activation, n_rows), members in stacks.items():
        fit = STACK_BUDGET // (n_rows * max(n_features, *layers))
        per_chunk = max(1, min(fit, math.ceil(len(members) / workers)))
        sizes = (n_features, *layers, 1)
        model_cost = n_rows * sum(a * b for a, b in zip(sizes, sizes[1:]))
        for lo in range(0, len(members), per_chunk):
            part = members[lo : lo + per_chunk]
            costed.append((len(part) * model_cost, (layers, activation, part)))
    return [chunk for _, chunk in sorted(costed, key=lambda c: c[0], reverse=True)]


def _chunk_f1(splits, seeds, alphas, layers, activation: str, max_iter: int) -> list[float]:
    """Held-out F1 of every model of one grid_search chunk, fit as one stack.

    Model j trains on ``splits[j]`` (scaled training rows, their (n, 1)
    labels, scaled test rows, test labels) from ``seeds[j]`` with penalty
    ``alphas[j]``.  It takes arrays and plain values only, so a process
    pool of any start method can run it.
    """
    x, y, x_test, y_test = zip(*splits)
    weights, biases, _ = _fit_stack(np.stack(x), np.stack(y), seeds, alphas, layers, activation, max_iter)
    # The models share a training-set size, so their test sets are the same length.
    spy = _forward(weights, biases, activation, np.stack(x_test))[-1][:, :, 0] >= 0.5
    return [m.f1 for m in _metrics(spy, np.stack(y_test))]


def grid_search(
    samples: Report,
    points: Sequence[GridPoint],
    folds: int = 10,
    seed: int = 0,
    feature_subset: Sequence[str] = CAMERA_REF_FEATURES,
) -> tuple[GridPoint, float]:
    """Pick the hyperparameter point with the best mean held-out F1 over
    stratified folds, fitting fold k from ``seed + k``.

    The folds and alphas of one architecture train as one stack per
    training-set size, split into chunks of whole models (see
    ``_plan_chunks``).  With more than one CPU and chunk, a process pool
    fits the chunks, one worker per CPU; every model's F1 is bit-identical
    to a serial search.  Exact F1 ties break toward fewer weights.
    """
    _check_seed(seed)
    if not points:
        raise ParameterError("hyperparameter grid is empty")
    labels = samples.labels.astype(np.float64)
    subset = tuple(feature_subset)
    x_all = feature_matrix(samples.columns, subset)
    splits = []  # per fold: scaled training rows, their labels, scaled test rows, test labels
    for test_idx in stratified_folds(labels, folds, seed):
        train = np.setdiff1d(np.arange(len(samples)), test_idx)
        x, mean, std = _training_set(x_all[train], labels[train])
        splits.append((x, labels[train, None], (x_all[test_idx] - mean) / std, labels[test_idx] > 0))

    stacks: dict[tuple, list[tuple[int, int]]] = {}
    for (p, point), (k, split) in itertools.product(enumerate(points), enumerate(splits)):
        stacks.setdefault((tuple(point.hidden_layers), point.activation, len(split[0])), []).append((p, k))
    cpus = _cpu_count()
    chunks = _plan_chunks(stacks, x_all.shape[1], cpus)
    columns = zip(*(
        ([splits[k] for _, k in members], [seed + k for _, k in members], [points[p].alpha for p, _ in members],
         layers, activation, CV_MAX_ITER)
        for layers, activation, members in chunks
    ))
    workers = min(cpus, len(chunks))
    if workers == 1:
        scores = list(map(_chunk_f1, *columns))
    else:
        from concurrent.futures import ProcessPoolExecutor  # imports logging; kept off the module's import
        from concurrent.futures.process import BrokenProcessPool

        try:
            with ProcessPoolExecutor(workers) as pool:
                scores = list(pool.map(_chunk_f1, *columns))
        except BrokenProcessPool as exc:
            raise SimobsError(
                f"a grid search worker process died ({exc}); a script that starts workers by spawn or "
                "forkserver must call the CLI or grid_search under `if __name__ == '__main__':`"
            ) from exc
    f1 = np.zeros((len(points), folds))
    for (_, _, members), chunk_f1 in zip(chunks, scores):
        for (p, k), value in zip(members, chunk_f1):
            f1[p, k] = value

    def key(p: int) -> tuple[float, int, int]:
        sizes = (2 * len(feature_subset), *points[p].hidden_layers, 1)
        return -float(np.mean(f1[p])), sum((a + 1) * b for a, b in zip(sizes, sizes[1:])), p

    best = min(range(len(points)), key=key)
    return points[best], float(np.mean(f1[best]))


# ---------------------------------------------------------------------------
# Evaluation studies
# ---------------------------------------------------------------------------

def convergence_analysis(
    reference: ByteSeries,
    devices: Sequence[ByteSeries],
    labels: Sequence[bool],
    model_or_cfg: MlpModel | ThresholdConfig,
) -> list[tuple[int, Metrics]]:
    """Metrics at every prefix length t = 2..T of the shared window.

    ``devices`` is one device set, aligned with the reference and stacked
    once; at each t the measures the classifier reads are scored on the
    first t steps of those rows only, and no other measure is computed.
    """
    if not devices or len(devices) != len(labels):
        raise ParameterError("devices and labels must be non-empty and of equal length")
    raw = aligned_rows(reference, devices)
    if raw.shape[1] < 2:
        raise ParameterError("window must be at least 2 steps")
    measures = _measures_read(model_or_cfg)
    prefixes = range(2, raw.shape[1] + 1)
    verdicts = np.stack([column_verdicts(score_rows(raw[:, :t], measures).columns, model_or_cfg) for t in prefixes])
    return list(zip(prefixes, _metrics(verdicts, np.asarray(labels, dtype=bool))))


def _split_tags(tags: Sequence[Sequence[str]], partition_tag: str) -> dict[str, np.ndarray]:
    """The positions of the entries of each ``<partition_tag>=<value>`` value."""
    prefix = partition_tag + "="
    groups: dict[str, list[int]] = {}
    for i, entry_tags in enumerate(tags):
        values = {t[len(prefix):] for t in entry_tags if t.startswith(prefix)}
        if len(values) != 1:
            raise PartitionError(f"sample lacks a single {partition_tag}=... tag")
        groups.setdefault(values.pop(), []).append(i)
    return {value: np.array(part) for value, part in groups.items()}


def _holdout_split(part: np.ndarray, labels: np.ndarray, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Each class of the entries at ``part`` halved at random, as (train, test) positions."""
    rng = np.random.default_rng(seed)
    train, test = [], []
    for cls in (True, False):
        idx = part[labels[part] == cls]
        rng.shuffle(idx)
        train.append(idx[: idx.size // 2])
        test.append(idx[idx.size // 2 :])
    return np.concatenate(train), np.concatenate(test)


def portability_matrix(
    samples: Report,
    partition_tag: str,
    trainer: str,
    seed: int = 0,
) -> tuple[tuple[str, str, str], np.ndarray]:
    """F1 for train/test over two tagged partitions and their union.

    Tags of the form ``<partition_tag>=<value>`` split the corpus; the
    matrix rows are training sets (A, B, both) and columns test sets.
    Each cell sweeps the threshold of the measure ``trainer`` on its
    training set and scores its ``column_verdicts`` on its test set.
    Diagonal cells use a held-out half; off-diagonal cells train and test
    on the full partitions, as is conventional for portability studies.
    """
    measure_names([trainer])
    _check_seed(seed)
    groups = _split_tags(samples.tags, partition_tag)
    if len(groups) != 2:
        raise PartitionError(
            f"portability needs exactly two {partition_tag}=... values, got {sorted(groups)}"
        )
    name_a, name_b = sorted(groups)
    parts = {name_a: groups[name_a], name_b: groups[name_b], "both": np.arange(len(samples))}
    for name, part in parts.items():
        if samples.labels[part].all() or not samples.labels[part].any():
            raise PartitionError(f"partition {name!r} lacks one of the classes")
    order = (name_a, name_b, "both")
    matrix = np.zeros((3, 3))
    for i, train_name in enumerate(order):
        for j, test_name in enumerate(order):
            if train_name == test_name:
                train, test = _holdout_split(parts[train_name], samples.labels, seed)
            else:
                train, test = parts[train_name], parts[test_name]
            cfg = ThresholdConfig(trainer, sweep_threshold(samples.take(train), trainer)[0])
            matrix[i, j] = evaluate(column_verdicts(samples.columns, cfg)[test], samples.labels[test]).f1
    return order, matrix


@dataclass(frozen=True)
class AgreementReport:
    """How many measures were simultaneously wrong on each false positive."""

    total_false_positives: int
    counts: dict[int, int] = field(default_factory=dict)

    @property
    def distribution(self) -> dict[int, float]:
        if self.total_false_positives == 0:
            return {}
        return {k: v / self.total_false_positives for k, v in sorted(self.counts.items())}


def measure_agreement(samples: Report, configs: Sequence[ThresholdConfig]) -> AgreementReport:
    """Distribution of simultaneous false positives across measures."""
    negatives = ~samples.labels
    if not negatives.any():
        raise ParameterError("agreement analysis needs at least one negative sample")
    wrong = np.zeros(int(negatives.sum()), dtype=np.int64)  # measures fooled, per negative
    for cfg in configs:
        wrong += column_verdicts(samples.columns, cfg)[negatives]
    fooled, counts = np.unique(wrong[wrong > 0], return_counts=True)
    return AgreementReport(
        total_false_positives=int(np.count_nonzero(wrong)), counts=dict(zip(fooled.tolist(), counts.tolist()))
    )


# ---------------------------------------------------------------------------
# Labeled samples as rows.  Every decision above takes the whole Report.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LabeledSample:
    """One entry of a samples file, ``features`` a one-row Report.  A row
    view kept for perfbench/workloads.py, whose learn check passes each
    sample's features to mlp_predict."""

    features: Report
    label: bool
    tags: frozenset[str] = frozenset()


def read_samples_json(inp: TextIO) -> list[LabeledSample]:
    """similarity.read_samples, one LabeledSample per entry.  A row view
    kept because perfbench/workloads.py reads its corpus with it."""
    samples = read_samples(inp)
    return [LabeledSample(samples.take([i]), label, frozenset(tags))
            for i, (label, tags) in enumerate(zip(samples.labels.tolist(), samples.tags))]
