"""Evaluation metrics and the small statistics used by the harness."""

from __future__ import annotations

import math

import numpy as np


def f_score(predictions, labels) -> tuple[float, float, float]:
    """Positive-class (label 1) (F, recall, precision). Zero denominators yield 0."""
    predictions = np.asarray(predictions)
    labels = np.asarray(labels)
    if predictions.shape != labels.shape:
        raise ValueError(f"f_score: {predictions.shape} predictions vs {labels.shape} labels")
    tp = int(np.sum((predictions == 1) & (labels == 1)))
    fp = int(np.sum((predictions == 1) & (labels != 1)))
    fn = int(np.sum((predictions != 1) & (labels == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return f, recall, precision


def paired_sign_test(a, b) -> float:
    """Two-sided exact sign test p-value for paired samples; ties dropped."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("paired_sign_test: length mismatch")
    wins = int(np.sum(a > b))
    losses = int(np.sum(a < b))
    n = wins + losses
    if n == 0:
        return 1.0
    k = min(wins, losses)
    tail = sum(math.comb(n, i) for i in range(k + 1)) / 2.0**n
    return min(1.0, 2.0 * tail)


def spearman_rank_correlation(x, y) -> float:
    """Spearman rho via Pearson correlation of ranks (average ranks on ties)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.size < 2:
        raise ValueError("spearman_rank_correlation: need two equal-length samples")

    def ranks(v):
        order = np.argsort(v, kind="stable")
        r = np.empty(v.size)
        r[order] = np.arange(1, v.size + 1, dtype=float)
        # average ranks across ties
        for val in np.unique(v):
            mask = v == val
            if mask.sum() > 1:
                r[mask] = r[mask].mean()
        return r

    rx, ry = ranks(x), ranks(y)
    rx -= rx.mean()
    ry -= ry.mean()
    denom = math.sqrt(float((rx * rx).sum() * (ry * ry).sum()))
    if denom == 0.0:
        return 0.0
    return float((rx * ry).sum() / denom)
