"""Spy/not-spy decisions from similarity vectors.

Two classifier families: per-measure thresholds (cheap, tunable by F1
sweep) and a small feed-forward network over several measures at once.
Also the evaluation machinery: metrics, prefix-convergence curves,
cross-partition portability matrices and false-positive agreement.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence, TextIO

import numpy as np

from .errors import (
    ClassImbalanceError,
    FormatError,
    ParameterError,
    PartitionError,
    SimobsError,
    TrainingDivergedError,
    read_json,
)
# similarity_vector is not called here; perfbench/layers.py wraps classify.similarity_vector.
from .similarity import MEASURES, SimilarityVector, measure_columns, similarity_vector
from .similarity import read_rows_json, vector_from_row, vector_to_row
from .timeseries import ByteSeries, align

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

# {measure: (values, undefined)}: what a decision reads, one entry per
# vector, with NaN where the measure is undefined.
Columns = Mapping[str, tuple[np.ndarray, np.ndarray]]


@dataclass(frozen=True)
class ThresholdConfig:
    measure: str
    threshold: float

    def __post_init__(self):
        if self.measure not in MEASURES:
            raise ParameterError(f"unknown measure {self.measure!r}")
        if math.isnan(self.threshold):  # +-inf stay: sweep_threshold's admit-all and admit-none points
            raise ParameterError(f"threshold of {self.measure} is NaN")

    @property
    def direction(self) -> str:
        return DIRECTION_BY_MEASURE[self.measure]


def default_configs(measures: Iterable[str] = MEASURES) -> list[ThresholdConfig]:
    return [ThresholdConfig(m, DEFAULT_THRESHOLDS[m]) for m in measures]


@dataclass(frozen=True)
class LabeledSample:
    features: SimilarityVector
    label: bool
    tags: frozenset[str] = frozenset()


def measure_values(vectors: Sequence[SimilarityVector], measure: str) -> tuple[np.ndarray, np.ndarray]:
    """One measure of every vector as a column: the values, NaN where the
    measure is undefined (None), and the mask of undefined slots.

    A NaN measure is a value, not undefined, and stays NaN.
    """
    raw = [sv.measure(measure) for sv in vectors]
    undefined = np.array([v is None for v in raw], dtype=bool)
    return np.array([math.nan if v is None else v for v in raw], dtype=np.float64), undefined


def vector_columns(vectors: Sequence[SimilarityVector], measures: Iterable[str]) -> Columns:
    """The measure_values of each of ``measures`` over ``vectors``."""
    return {m: measure_values(vectors, m) for m in measures}


def _sign(measure: str) -> int:
    """Spy iff sign * value <= sign * threshold."""
    return -1 if DIRECTION_BY_MEASURE[measure] == "spy_if_at_least" else 1


def threshold_classify(sv: SimilarityVector, cfg: ThresholdConfig) -> bool:
    """Compare one measure against its threshold; an undefined measure is not spy."""
    return bool(verdicts([sv], cfg)[0])


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
    undefined: frozenset[str] = frozenset()

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


def evaluate(predictions: Sequence[bool], labels: Sequence[bool]) -> Metrics:
    """Confusion counts plus accuracy/precision/recall/F1.

    Zero-denominator ratios come back as 0.0, named in ``undefined``.
    """
    if len(predictions) != len(labels):
        raise ParameterError(f"length mismatch: {len(predictions)} vs {len(labels)}")
    if len(labels) < 1:
        raise ParameterError("need at least one prediction")
    pred, label = np.asarray(predictions, dtype=bool), np.asarray(labels, dtype=bool)
    tp, fp, fn = (int(np.count_nonzero(a & b)) for a, b in ((pred, label), (pred, ~label), (~pred, label)))
    tn = len(labels) - tp - fp - fn
    undefined = set()
    if tp + fp > 0:
        precision = tp / (tp + fp)
    else:
        precision, undefined = 0.0, undefined | {"precision"}
    if tp + fn > 0:
        recall = tp / (tp + fn)
    else:
        recall, undefined = 0.0, undefined | {"recall"}
    if precision + recall > 0:
        f1 = 2 * precision * recall / (precision + recall)
    else:
        f1, undefined = 0.0, undefined | {"f1"}
    accuracy = (tp + tn) / len(labels)
    return Metrics(tp, fp, tn, fn, accuracy, precision, recall, f1, frozenset(undefined))


def sweep_threshold(samples: Sequence[LabeledSample], measure: str) -> tuple[float, float]:
    """Best F1 threshold for one measure over a labeled corpus.

    Candidates are midpoints between consecutive distinct defined values
    plus +-inf sentinels; ties break toward the threshold admitting fewer
    positives.  As in ``verdicts``, an undefined or NaN value is never
    spy, so an undefined spy counts as a miss at every candidate.
    """
    if measure not in MEASURES:
        raise ParameterError(f"unknown measure {measure!r}")
    labels = np.array([s.label for s in samples], dtype=bool)
    if labels.all() or not labels.any():
        raise ClassImbalanceError("sweep needs both classes present")
    values = measure_values([s.features for s in samples], measure)[0]
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
    precision = np.divide(tp, n_spy, out=np.zeros(len(tp)), where=n_spy > 0)
    recall = tp / labels.sum()
    f1 = np.divide(2 * precision * recall, precision + recall, out=np.zeros(len(tp)), where=tp > 0)
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
    if not subset:
        raise ParameterError("the feature subset is empty")
    x = np.empty((len(columns[subset[0]][0]), 2 * len(subset)))
    for j, m in enumerate(subset):
        values, undefined = columns[m]
        values = np.where(undefined, IMPUTED_VALUES[m], values)
        x[:, j] = np.minimum(values, KLD_FEATURE_CAP) if m == "kld" else values
        x[:, len(subset) + j] = undefined
    return x


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    """The activation of ``z``, written over ``z``."""
    if kind == "logistic":
        np.exp(np.negative(z, out=z), out=z)
        return np.divide(1.0, np.add(z, 1.0, out=z), out=z)
    if kind == "tanh":
        return np.tanh(z, out=z)
    return np.maximum(z, 0.0, out=z)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    """The activation's derivative from its output ``a``, written over ``a``."""
    if kind == "logistic":
        return np.multiply(a, 1.0 - a, out=a)
    if kind == "tanh":
        return np.subtract(1.0, np.multiply(a, a, out=a), out=a)
    return np.greater(a, 0, out=a)


def _forward(model_weights, model_biases, activation: str, x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    last = len(model_weights) - 1
    for i, (w, b) in enumerate(zip(model_weights, model_biases)):
        z = acts[-1] @ w
        z += b
        acts.append(_act(z, "logistic" if i == last else activation))
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


def _fit_stack(x, y, seeds, alphas, layers, activation: str, max_iter: int):
    """Fit k networks of one shape at once by full-batch Adam on logistic loss.

    ``x`` is (k, n, f) and ``y`` (k, n, 1); model j starts from ``seeds[j]``,
    has penalty ``alphas[j]`` and stops on its own as a lone fit would.
    The matmuls and reductions run slice by slice, so each model is
    bit-identical to a fit of its own.
    """
    if activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if any(width < 1 for width in layers):
        raise ParameterError(f"hidden layer widths must be >= 1, got {tuple(layers)}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    k, n, n_features = x.shape
    sizes = (n_features, *layers, 1)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    weights, biases = [], []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(np.stack([rng.uniform(-limit, limit, size=(fan_in, fan_out)) for rng in rngs]))
        biases.append(np.zeros((k, 1, fan_out)))
    alpha = np.asarray(alphas, dtype=np.float64).reshape(k, 1, 1)

    m_w, v_w, m_b, v_b = ([np.zeros_like(a) for a in group] for group in (weights, weights, biases, biases))
    lr, beta1, beta2, eps = 0.02, 0.9, 0.999, 1e-8
    active = np.ones((k, 1, 1))  # 0 once stopped: parameters, and so the loss, stay put
    prev_loss = np.full(k, math.inf)
    for it in range(1, max_iter + 1):
        acts = _forward(weights, biases, activation, x)
        p = np.clip(acts[-1], 1e-12, 1 - 1e-12)
        loss = -np.mean(y * np.log(p) + (1 - y) * np.log(1 - p), axis=(1, 2))
        loss += 0.5 * alpha[:, 0, 0] * sum((w * w).reshape(k, -1).sum(axis=1) for w in weights) / n
        if not np.isfinite(loss).all():
            raise TrainingDivergedError(f"loss became non-finite at iteration {it}")
        active[np.abs(prev_loss - loss) < 1e-6] = 0.0
        prev_loss = loss
        if not active.any():
            break

        delta = (acts.pop() - y) / n  # logistic output + BCE
        for i in range(len(weights) - 1, -1, -1):
            a = acts.pop()  # freed once this layer is done
            gw = np.matmul(a.swapaxes(1, 2), delta) + alpha * weights[i] / n
            gb = delta.sum(axis=1, keepdims=True)
            if i > 0:
                delta = np.matmul(delta, weights[i].swapaxes(1, 2))
                delta *= _act_grad(a, activation)
            corr1, corr2 = 1 - beta1**it, 1 - beta2**it
            for param, m, v, g in ((weights[i], m_w[i], v_w[i], gw), (biases[i], m_b[i], v_b[i], gb)):
                m[:] = beta1 * m + (1 - beta1) * g
                v[:] = beta2 * v + (1 - beta2) * g * g
                param -= active * (lr * (m / corr1) / (np.sqrt(v / corr2) + eps))
    return weights, biases, prev_loss


def mlp_train(
    train: Sequence[LabeledSample],
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
    labels = np.array([s.label for s in train], dtype=np.float64)
    subset = tuple(feature_subset)
    x_raw = feature_matrix(vector_columns([s.features for s in train], subset), subset)
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


def _probabilities(model: MlpModel, columns: Columns) -> np.ndarray:
    # Rows go through the network as an (n, 1, f) stack, so each is
    # computed, and rounded, as a lone row would be.
    x = (feature_matrix(columns, model.feature_subset) - model.feature_mean) / model.feature_std
    return _forward(model.weights, model.biases, model.activation, x[:, None, :])[-1][:, 0, 0]


def mlp_probabilities(model: MlpModel, vectors: Sequence[SimilarityVector]) -> np.ndarray:
    """Spy probability in (0, 1) of every similarity vector."""
    return _probabilities(model, vector_columns(vectors, model.feature_subset))


def mlp_predict(model: MlpModel, sv: SimilarityVector) -> float:
    """Spy probability in (0, 1) for one similarity vector."""
    return float(mlp_probabilities(model, [sv])[0])


def mlp_verdicts(model: MlpModel, samples: Sequence[LabeledSample]) -> list[bool]:
    return verdicts([s.features for s in samples], model).tolist()


def _measures_read(classifier: MlpModel | ThresholdConfig) -> tuple[str, ...]:
    """The measures a classifier's verdicts depend on."""
    return classifier.feature_subset if isinstance(classifier, MlpModel) else (classifier.measure,)


def column_verdicts(columns: Columns, classifier: MlpModel | ThresholdConfig) -> np.ndarray:
    """Spy verdict of every entry of ``columns``, which hold at least the
    measures the classifier reads: a spy probability of at least 0.5 under
    a model, or the threshold test in the measure's direction, where an
    undefined or NaN measure is not spy."""
    if isinstance(classifier, MlpModel):
        return _probabilities(classifier, columns) >= 0.5
    sign = _sign(classifier.measure)
    return sign * columns[classifier.measure][0] <= sign * classifier.threshold


def verdicts(vectors: Sequence[SimilarityVector], classifier: MlpModel | ThresholdConfig) -> np.ndarray:
    """column_verdicts of every vector."""
    return column_verdicts(vector_columns(vectors, _measures_read(classifier)), classifier)


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
        "training_loss": model.training_loss,
    }
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def load_model(inp: TextIO) -> MlpModel:
    """Inverse of save_model; a payload that is not a consistent network
    raises FormatError."""
    return read_json(inp, _model_from_payload, "model")


def _model_from_payload(payload: dict) -> MlpModel:
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ParameterError(f"unsupported model format version {version}")
    sizes = tuple(payload["layer_sizes"])
    weights = tuple(
        np.array(flat, dtype=np.float64).reshape(fan_in, fan_out)
        for flat, fan_in, fan_out in zip(payload["weights"], sizes, sizes[1:])
    )
    biases = tuple(np.array(b, dtype=np.float64) for b in payload["biases"])
    model = MlpModel(
        layer_sizes=sizes,
        activation=payload["activation"],
        weights=weights,
        biases=biases,
        feature_subset=tuple(payload["feature_subset"]),
        feature_mean=np.array(payload["standardization"]["mean"], dtype=np.float64),
        feature_std=np.array(payload["standardization"]["std"], dtype=np.float64),
        training_loss=payload.get("training_loss", math.nan),
    )
    if model.activation not in ACTIVATIONS:
        raise FormatError(f"model activation {model.activation!r} is not one of {ACTIVATIONS}")
    if not model.feature_subset or not set(model.feature_subset) <= set(MEASURES):
        raise FormatError(f"model features {list(model.feature_subset)} are not one or more of {MEASURES}")
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
# in chunks of whole models.  Every stack of the full grid at 10 folds on
# 400 samples (160 models x 360 rows x 17 units) fits in one chunk.  A
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
    spy = _forward(weights, biases, activation, np.stack(x_test))[-1][:, :, 0] >= 0.5
    return [evaluate(preds, truth).f1 for preds, truth in zip(spy, y_test)]


def grid_search(
    samples: Sequence[LabeledSample],
    grid: ParamGrid | Sequence[GridPoint],
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
    points = grid.points() if isinstance(grid, ParamGrid) else list(grid)
    if not points:
        raise ParameterError("hyperparameter grid is empty")
    labels = np.array([s.label for s in samples], dtype=np.float64)
    subset = tuple(feature_subset)
    x_all = feature_matrix(vector_columns([s.features for s in samples], subset), subset)
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

    ``devices`` is one device set, aligned with the reference once; at
    each t the measures the classifier reads are recomputed on the first
    t steps only, and no other measure is computed.
    """
    if not devices or len(devices) != len(labels):
        raise ParameterError("devices and labels must be non-empty and of equal length")
    window, _ = align(reference, devices[0])
    if len(window) < 2:
        raise ParameterError("window must be at least 2 steps")
    measures = _measures_read(model_or_cfg)
    results = []
    for t in range(2, len(window) + 1):
        columns = measure_columns(window.prefix(t), devices, measures).columns
        results.append((t, evaluate(column_verdicts(columns, model_or_cfg), labels)))
    return results


def _split_tags(samples: Sequence[LabeledSample], partition_tag: str) -> dict[str, list[LabeledSample]]:
    prefix = partition_tag + "="
    groups: dict[str, list[LabeledSample]] = {}
    for s in samples:
        values = [t[len(prefix):] for t in s.tags if t.startswith(prefix)]
        if len(values) != 1:
            raise PartitionError(f"sample lacks a single {partition_tag}=... tag")
        groups.setdefault(values[0], []).append(s)
    return groups


def _holdout_split(
    samples: Sequence[LabeledSample], seed: int
) -> tuple[list[LabeledSample], list[LabeledSample]]:
    labels = [s.label for s in samples]
    rng = np.random.default_rng(seed)
    train: list[LabeledSample] = []
    test: list[LabeledSample] = []
    for cls in (True, False):
        idx = np.flatnonzero(np.asarray(labels, dtype=bool) == cls)
        rng.shuffle(idx)
        half = idx.size // 2
        train.extend(samples[i] for i in idx[:half])
        test.extend(samples[i] for i in idx[half:])
    return train, test


def portability_matrix(
    samples: Sequence[LabeledSample],
    partition_tag: str,
    trainer: str,
    seed: int = 0,
) -> tuple[tuple[str, str, str], np.ndarray]:
    """F1 for train/test over two tagged partitions and their union.

    Tags of the form ``<partition_tag>=<value>`` split the corpus; the
    matrix rows are training sets (A, B, both) and columns test sets.
    Each cell sweeps the threshold of the measure ``trainer`` on its
    training set and scores its ``verdicts`` on its test set.  Diagonal
    cells use a held-out half; off-diagonal cells train and test on the
    full partitions, as is conventional for portability studies.
    """
    if trainer not in MEASURES:
        raise ParameterError(f"trainer must be a measure name, got {trainer!r}")
    groups = _split_tags(samples, partition_tag)
    if len(groups) != 2:
        raise PartitionError(
            f"portability needs exactly two {partition_tag}=... values, got {sorted(groups)}"
        )
    name_a, name_b = sorted(groups)
    parts = {name_a: groups[name_a], name_b: groups[name_b], "both": list(samples)}
    for name, part in parts.items():
        labels = {s.label for s in part}
        if len(labels) < 2:
            raise PartitionError(f"partition {name!r} lacks one of the classes")
    order = (name_a, name_b, "both")
    matrix = np.zeros((3, 3))
    for i, train_name in enumerate(order):
        for j, test_name in enumerate(order):
            if train_name == test_name:
                train, test = _holdout_split(parts[train_name], seed)
            else:
                train, test = parts[train_name], parts[test_name]
            cfg = ThresholdConfig(trainer, sweep_threshold(train, trainer)[0])
            matrix[i, j] = evaluate(verdicts([s.features for s in test], cfg), [s.label for s in test]).f1
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


def measure_agreement(
    samples: Sequence[LabeledSample], configs: Sequence[ThresholdConfig]
) -> AgreementReport:
    """Distribution of simultaneous false positives across measures."""
    negatives = [s.features for s in samples if not s.label]
    if not negatives:
        raise ParameterError("agreement analysis needs at least one negative sample")
    wrong = np.zeros(len(negatives), dtype=np.int64)  # measures fooled, per negative
    for cfg in configs:
        wrong += verdicts(negatives, cfg)
    fooled, counts = np.unique(wrong[wrong > 0], return_counts=True)
    return AgreementReport(
        total_false_positives=int(np.count_nonzero(wrong)), counts=dict(zip(fooled.tolist(), counts.tolist()))
    )


# ---------------------------------------------------------------------------
# Labeled-sample serialization (feature rows joined with ground truth)
# ---------------------------------------------------------------------------

def write_samples_json(samples: Sequence[LabeledSample], out: TextIO) -> None:
    payload = [{**vector_to_row(s.features), "label": s.label, "tags": sorted(s.tags)} for s in samples]
    json.dump(payload, out, indent=2, sort_keys=True)
    out.write("\n")


def read_samples_json(inp: TextIO) -> list[LabeledSample]:
    return read_rows_json(
        inp,
        lambda row: LabeledSample(vector_from_row(row), bool(row["label"]), frozenset(row.get("tags", []))),
    )
