"""One-call wrappers around the model's tape builders, and the Spearman
oracle of criterion 8.

Each wrapper records its quantity on a fresh :class:`Tape` with the
builder the training graph uses, so a value read here is the value the
program computes."""

import math

import numpy as np

from latopt.autodiff import Tape
from latopt.model import domain_loss_on_tape, encode_on_tape, put_params, task_loss_on_tape


def encode(params, sequences) -> np.ndarray:
    """Latent features [B, D] for a batch of token-id sequences."""
    tape = Tape()
    p = put_params(tape, params)
    return tape.value(encode_on_tape(tape, p, sequences))


def task_loss(logits: np.ndarray, y: np.ndarray) -> float:
    """Mean cross-entropy of softmaxed logits against one-hot labels."""
    tape = Tape()
    return float(tape.value(task_loss_on_tape(tape, tape.leaf(logits), y)))


def domain_loss(params, u_s: np.ndarray, u_t: np.ndarray) -> float:
    """The discriminator's loss on shared features ``u_s`` and ``u_t``."""
    tape = Tape()
    p = put_params(tape, params)
    return float(tape.value(domain_loss_on_tape(tape, p, tape.leaf(u_s), tape.leaf(u_t))))


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
