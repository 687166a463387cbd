"""Model generation and scoring (Section IV-B.4).

A logistic-regression model per ad predicts click probability from the
reduced behavior profile: ``y = 1 / (1 + exp(-(w0 + w.x)))``. The paper
chooses LR for simplicity, good performance, and fast convergence; we
train with iteratively reweighted least squares (Newton's method) plus
an L2 ridge, which converges in a handful of iterations.

Because CTR is far below 50%, training data is *balanced* by sampling
the negative examples; the LR output is then no longer an expected CTR,
so predictions are calibrated on a held-out validation set: the CTR for
a prediction ``y`` is the positive fraction among the k validation
examples with the nearest predictions (Section IV-B.4).
"""

from __future__ import annotations

import time as _time
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .examples import Example


@dataclass
class TrainingStats:
    """Bookkeeping for the memory/learning-time experiment (Section V-D)."""

    num_examples: int = 0
    num_positives: int = 0
    num_features: int = 0
    avg_profile_entries: float = 0.0
    learn_seconds: float = 0.0
    iterations: int = 0


class LogisticModel:
    """A trained per-ad logistic regression with CTR calibration."""

    def __init__(
        self,
        ad: str,
        feature_index: Dict[str, int],
        weights: np.ndarray,
        intercept: float,
        calibration: Tuple[np.ndarray, np.ndarray],
        stats: TrainingStats,
        knn_k: int = 101,
    ):
        self.ad = ad
        self.feature_index = feature_index
        self.weights = weights
        self.intercept = intercept
        self.set_calibration(*calibration)
        self.stats = stats
        self.knn_k = knn_k

    def set_calibration(self, preds: np.ndarray, labels: np.ndarray) -> None:
        """Calibrate on validation predictions (ascending) and their labels."""
        self._cal_preds, self._cal_labels = preds, labels
        self._cal_prefix = np.concatenate([[0.0], np.cumsum(labels)])

    def predict(self, features: Dict[str, float]) -> float:
        """The raw LR output in (0, 1) for a reduced profile."""
        s = self.intercept
        for name, value in features.items():
            idx = self.feature_index.get(name)
            if idx is not None:
                s += self.weights[idx] * value
        return float(1.0 / (1.0 + np.exp(-s)))

    def predict_ctr(self, features: Dict[str, float]) -> float:
        """Calibrated expected CTR for a reduced profile."""
        return self.calibrate(self.predict(features))

    def calibrate(self, prediction: float) -> float:
        """Expected CTR: positive rate of the k nearest validation preds."""
        n = len(self._cal_preds)
        if n == 0:
            return prediction
        k = min(self.knn_k, n)
        pos = bisect_left(self._cal_preds, prediction)
        lo = max(0, min(pos - k // 2, n - k))
        hi = lo + k
        return float((self._cal_prefix[hi] - self._cal_prefix[lo]) / k)


def _design(examples: Sequence[Example], transform, ad: str):
    """Reduced profiles -> dense design matrix, intercept column first,
    and the feature index its other columns follow."""
    feature_index: Dict[str, int] = {}
    rows: List[int] = []
    cols: List[int] = []
    data: List[float] = []
    for i, ex in enumerate(examples):
        for name, value in transform(ad, ex.features).items():
            rows.append(i)
            cols.append(feature_index.setdefault(name, len(feature_index)) + 1)
            data.append(value)
    xb = np.zeros((len(examples), len(feature_index) + 1))
    xb[:, 0] = 1.0
    xb[rows, cols] = data
    return xb, feature_index


def _irls(xb: np.ndarray, y: np.ndarray, l2: float, max_iter: int, tol: float) -> Tuple[np.ndarray, float, int]:
    """Ridge-regularized IRLS for logistic regression on a dense design
    whose first column is the intercept: each Newton step solves the
    ``(d+1)^2`` normal equations."""
    beta = np.zeros(xb.shape[1])
    ridge = l2 * np.eye(xb.shape[1])
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mu = 1.0 / (1.0 + np.exp(-(xb @ beta)))
        w = np.maximum(mu * (1.0 - mu), 1e-6)
        penalty = l2 * beta
        penalty[0] = 0.0  # the intercept is not shrunk
        grad = xb.T @ (y - mu) - penalty
        hess = (xb.T * w) @ xb + ridge
        step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.max(np.abs(step)) < tol:
            break
    return beta[1:], float(beta[0]), iterations


@dataclass
class ModelTrainer:
    """Builds one :class:`LogisticModel` per ad from reduced examples."""

    l2: float = 1.0
    max_iter: int = 25
    tol: float = 1e-6
    balance_negatives: bool = True
    validation_fraction: float = 0.25
    knn_k: int = 101
    seed: int = 7

    def fit(self, ad: str, examples: Sequence[Example], transform) -> LogisticModel:
        """Train and calibrate a model for ``ad``.

        Args:
            ad: the ad class.
            examples: its training examples (un-reduced profiles).
            transform: the fitted selector's ``transform(ad, features)``.
        """
        model, validation, examples = self._train(ad, examples, transform)
        # calibration on the (unbalanced) validation slice
        cal_pairs = sorted(
            (model.predict(transform(ad, ex.features)), float(ex.y))
            for ex in validation
        )
        model.set_calibration(
            np.array([p for p, _ in cal_pairs]), np.array([l for _, l in cal_pairs])
        )
        reduced_sizes = [len(transform(ad, ex.features)) for ex in examples]
        if reduced_sizes:
            model.stats.avg_profile_entries = float(np.mean(reduced_sizes))
        return model

    def fit_weights(self, ad: str, examples: Sequence[Example], transform) -> LogisticModel:
        """:meth:`fit` without its calibration and profile-size passes:
        the same weights from the same draws, ``calibrate`` the identity
        — for a caller that reads only ``intercept`` and ``weights``."""
        return self._train(ad, examples, transform)[0]

    def _train(self, ad: str, examples: Sequence[Example], transform):
        """Shuffle, split, balance and solve: all that decides the
        weights. Returns the uncalibrated model, the validation slice
        and the shuffled examples."""
        rng = np.random.default_rng(self.seed)
        start = _time.perf_counter()

        examples = list(examples)
        rng.shuffle(examples)
        n_val = int(len(examples) * self.validation_fraction)
        validation, training = examples[:n_val], examples[n_val:]

        if self.balance_negatives:
            training = self._balance(training, rng)

        xb, feature_index = _design(training, transform, ad)
        y = np.array([ex.y for ex in training], dtype=float)
        if not feature_index or y.sum() in (0, len(y)):
            weights = np.zeros(len(feature_index))
            base = (y.mean() if len(y) else 0.0) or 1e-6
            intercept = float(np.log(base / max(1e-6, 1 - base)))
            iterations = 0
        else:
            weights, intercept, iterations = _irls(
                xb, y, self.l2, self.max_iter, self.tol
            )
        stats = TrainingStats(
            num_examples=len(training),
            num_positives=int(y.sum()),
            num_features=len(feature_index),
            learn_seconds=_time.perf_counter() - start,
            iterations=iterations,
        )
        model = LogisticModel(
            ad=ad,
            feature_index=feature_index,
            weights=weights,
            intercept=intercept,
            calibration=(np.array([]), np.array([])),
            stats=stats,
            knn_k=self.knn_k,
        )
        return model, validation, examples

    def _balance(self, examples: List[Example], rng) -> List[Example]:
        positives = [ex for ex in examples if ex.y == 1]
        negatives = [ex for ex in examples if ex.y == 0]
        if not positives or len(negatives) <= len(positives):
            return examples
        idx = rng.choice(len(negatives), size=len(positives), replace=False)
        sampled = [negatives[i] for i in idx]
        balanced = positives + sampled
        rng.shuffle(balanced)
        return balanced
