"""The per-fit network trainer, the reference for tests.

``mlp_train`` fits one network with a 2-D Adam loop, and
``cross_validate`` and ``grid_search`` call it once per fold and grid
point.  ``simobs.classify`` fits every fold and alpha of one
architecture as one stacked run, and is checked against these
functions bit for bit: weights, biases, ``training_loss`` and the
chosen grid point with its CV F1.
"""
from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from simobs.classify import (
    ACTIVATIONS,
    CAMERA_REF_FEATURES,
    CV_MAX_ITER,
    GridPoint,
    LabeledSample,
    MlpModel,
    ParamGrid,
    evaluate,
    feature_matrix,
    stratified_folds,
)
from simobs.errors import ClassImbalanceError, ParameterError, TrainingDivergedError


def _act(z: np.ndarray, kind: str) -> np.ndarray:
    if kind == "logistic":
        return 1.0 / (1.0 + np.exp(-z))
    if kind == "tanh":
        return np.tanh(z)
    return np.maximum(z, 0.0)


def _act_grad(a: np.ndarray, kind: str) -> np.ndarray:
    if kind == "logistic":
        return a * (1.0 - a)
    if kind == "tanh":
        return 1.0 - a * a
    return (a > 0).astype(np.float64)


def _forward(model_weights, model_biases, activation: str, x: np.ndarray) -> list[np.ndarray]:
    acts = [x]
    last = len(model_weights) - 1
    for i, (w, b) in enumerate(zip(model_weights, model_biases)):
        z = acts[-1] @ w + b
        acts.append(_act(z, "logistic" if i == last else activation))
    return acts



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
    if activation not in ACTIVATIONS:
        raise ParameterError(f"activation must be one of {ACTIVATIONS}, got {activation!r}")
    if any(width < 1 for width in layers):
        raise ParameterError(f"hidden layer widths must be >= 1, got {tuple(layers)}")
    if max_iter < 1:
        raise ParameterError(f"max_iter must be >= 1, got {max_iter}")
    labels = np.array([s.label for s in train], dtype=np.float64)
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos < 10 or n_neg < 10:
        raise ClassImbalanceError(f"need >= 10 samples per class, got {n_pos} spy / {n_neg} other")

    x_raw = feature_matrix([s.features for s in train], tuple(feature_subset))
    mean = x_raw.mean(axis=0)
    std = x_raw.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    x = (x_raw - mean) / std
    y = labels.reshape(-1, 1)

    sizes = (x.shape[1], *layers, 1)
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(sizes, sizes[1:]):
        limit = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-limit, limit, size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))

    n = x.shape[0]
    m_w = [np.zeros_like(w) for w in weights]
    v_w = [np.zeros_like(w) for w in weights]
    m_b = [np.zeros_like(b) for b in biases]
    v_b = [np.zeros_like(b) for b in biases]
    lr, beta1, beta2, eps = 0.02, 0.9, 0.999, 1e-8

    prev_loss = math.inf
    loss = prev_loss
    for it in range(1, max_iter + 1):
        acts = _forward(weights, biases, activation, x)
        p = np.clip(acts[-1], 1e-12, 1 - 1e-12)
        loss = float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))
        loss += 0.5 * alpha * sum(float((w * w).sum()) for w in weights) / n
        if not math.isfinite(loss):
            raise TrainingDivergedError(f"loss became non-finite at iteration {it}")
        if abs(prev_loss - loss) < 1e-6:
            break
        prev_loss = loss

        delta = (acts[-1] - y) / n  # logistic output + BCE
        for i in range(len(weights) - 1, -1, -1):
            gw = acts[i].T @ delta + alpha * weights[i] / n
            gb = delta.sum(axis=0)
            if i > 0:
                delta = (delta @ weights[i].T) * _act_grad(acts[i], activation)
            m_w[i] = beta1 * m_w[i] + (1 - beta1) * gw
            v_w[i] = beta2 * v_w[i] + (1 - beta2) * gw * gw
            m_b[i] = beta1 * m_b[i] + (1 - beta1) * gb
            v_b[i] = beta2 * v_b[i] + (1 - beta2) * gb * gb
            corr1 = 1 - beta1**it
            corr2 = 1 - beta2**it
            weights[i] = weights[i] - lr * (m_w[i] / corr1) / (np.sqrt(v_w[i] / corr2) + eps)
            biases[i] = biases[i] - lr * (m_b[i] / corr1) / (np.sqrt(v_b[i] / corr2) + eps)

    for w in weights:
        w.setflags(write=False)
    for b in biases:
        b.setflags(write=False)
    mean.setflags(write=False)
    std.setflags(write=False)
    return MlpModel(
        layer_sizes=sizes,
        activation=activation,
        weights=tuple(weights),
        biases=tuple(biases),
        feature_subset=tuple(feature_subset),
        feature_mean=mean,
        feature_std=std,
        training_loss=loss,
    )



def mlp_verdicts(model: MlpModel, samples: Sequence[LabeledSample]) -> list[bool]:
    x = feature_matrix([s.features for s in samples], model.feature_subset)
    x = (x - model.feature_mean) / model.feature_std
    return (_forward(model.weights, model.biases, model.activation, x)[-1][:, 0] >= 0.5).tolist()


def cross_validate(
    samples: Sequence[LabeledSample],
    point: GridPoint,
    folds: int,
    seed: int,
    feature_subset: Sequence[str] = CAMERA_REF_FEATURES,
) -> float:
    """Mean held-out F1 of one hyperparameter point."""
    labels = [s.label for s in samples]
    fold_indices = stratified_folds(labels, folds, seed)
    scores = []
    for k, test_idx in enumerate(fold_indices):
        test_set = set(test_idx.tolist())
        train_split = [s for i, s in enumerate(samples) if i not in test_set]
        test_split = [samples[i] for i in test_idx]
        model = mlp_train(
            train_split,
            layers=point.hidden_layers,
            activation=point.activation,
            seed=seed + k,
            max_iter=CV_MAX_ITER,
            alpha=point.alpha,
            feature_subset=feature_subset,
        )
        preds = mlp_verdicts(model, test_split)
        scores.append(evaluate(preds, [s.label for s in test_split]).f1)
    return float(np.mean(scores))


def grid_search(
    samples: Sequence[LabeledSample],
    grid: ParamGrid | Sequence[GridPoint],
    folds: int = 10,
    seed: int = 0,
    feature_subset: Sequence[str] = CAMERA_REF_FEATURES,
) -> tuple[GridPoint, float]:
    """Pick the hyperparameter point with the best mean CV F1.

    Exact F1 ties break toward the architecture with fewer weights.
    """
    points = grid.points() if isinstance(grid, ParamGrid) else list(grid)
    if not points:
        raise ParameterError("hyperparameter grid is empty")
    n_features = 2 * len(feature_subset)
    best: tuple[float, int, int] | None = None
    best_point = points[0]
    for order, point in enumerate(points):
        score = cross_validate(samples, point, folds, seed, feature_subset)
        sizes = (n_features, *point.hidden_layers, 1)
        n_weights = sum((a + 1) * b for a, b in zip(sizes, sizes[1:]))
        key = (-score, n_weights, order)
        if best is None or key < best:
            best = key
            best_point = point
    return best_point, -best[0]

