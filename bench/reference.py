"""The benchmark's own plain-numpy forward pass and the outside-in checks
built on it.

Nothing here uses the tape: these functions are an independent reading of
the architecture in ``latopt.model`` (mean-pooled embeddings, two tanh
encoder layers, domain and shared tanh layers, a ReLU head, and a ReLU
discriminator), so they can judge what the program computes.
"""

from __future__ import annotations

import numpy as np

from latopt import model, training

HEADS = {
    "source": ("src_W", "src_b", "cls_s1_W", "cls_s1_b", "cls_s2_W", "cls_s2_b"),
    "target": ("tgt_W", "tgt_b", "cls_t1_W", "cls_t1_b", "cls_t2_W", "cls_t2_b"),
}

FD_EPS = 1e-5
FD_TOL = 1e-5
# An error along the gradient shows in proportion to <grad, d>, which one
# random direction can make small; the check takes the worst of several.
FD_DIRECTIONS = 3


def encode(t, sequences) -> np.ndarray:
    table = t["embedding"]
    pooled = np.stack([table[np.asarray(s)].mean(axis=0) for s in sequences])
    h = np.tanh(pooled @ t["enc1_W"] + t["enc1_b"])
    return np.tanh(h @ t["enc2_W"] + t["enc2_b"])


class ReluPattern:
    """ReLU activation patterns, recorded on one forward pass and then held
    fixed. A central difference whose step crosses a ReLU kink is not a
    derivative; with the pattern of the base point held, both ends lie on
    its linear piece, and the difference measures the derivative that
    ``backward`` computes (which takes the slope at 0 as 0, as the pattern
    ``x > 0`` does)."""

    def __init__(self):
        self.masks: list = []
        self.frozen = False
        self._next = 0

    def freeze(self) -> "ReluPattern":
        self.frozen = True
        self._next = 0
        return self

    def relu(self, x):
        if not self.frozen:
            self.masks.append(x > 0.0)
            return np.maximum(x, 0.0)
        mask = self.masks[self._next]
        self._next += 1
        return x * mask


def _relu(x, pattern):
    return np.maximum(x, 0.0) if pattern is None else pattern.relu(x)


def head_logits(t, z, domain: str, pattern=None) -> np.ndarray:
    w, b, c1w, c1b, c2w, c2b = HEADS[domain]
    v = np.tanh(z @ t[w] + t[b])
    u = np.tanh(z @ t["sh_W"] + t["sh_b"])
    h = _relu(np.concatenate([v, u], axis=1) @ t[c1w] + t[c1b], pattern)
    return h @ t[c2w] + t[c2b]


def cross_entropy(logits, y) -> float:
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    return float((lse - (logits * y).sum(axis=1)).mean())


def domain_loss(t, z_s, z_t, pattern=None) -> float:
    def disc(z):
        u = np.tanh(z @ t["sh_W"] + t["sh_b"])
        return _relu(u @ t["disc1_W"] + t["disc1_b"], pattern) @ t["disc2_W"] + t["disc2_b"]

    n = z_s.shape[0]
    y_s = np.tile([1.0, 0.0], (n, 1))
    y_t = np.tile([0.0, 1.0], (n, 1))
    return cross_entropy(disc(z_s), y_s) + cross_entropy(disc(z_t), y_t)


def predict(t, sequences, domain: str) -> np.ndarray:
    return np.argmax(head_logits(t, encode(t, sequences), domain), axis=1)


def _central(f, plus, minus, base) -> float:
    """(f(plus) - f(minus)) / 2eps for ``f(x, pattern)``, with the ReLU
    pattern of ``base``."""
    pattern = ReluPattern()
    f(base, pattern)
    fp = f(plus, pattern.freeze())
    fm = f(minus, pattern.freeze())
    return (fp - fm) / (2.0 * FD_EPS)


def _directional_fd(f, t, direction, names) -> float:
    """Central difference of ``f(tensors, pattern)`` along ``direction``
    restricted to the tensors in ``names``."""
    plus = dict(t)
    minus = dict(t)
    for k in names:
        plus[k] = t[k] + FD_EPS * direction[k]
        minus[k] = t[k] - FD_EPS * direction[k]
    return _central(f, plus, minus, t)


def _rel_err(value: float, expected: float) -> float:
    return abs(value - expected) / max(1.0, abs(expected))


def _unit_direction(rng, t, names, rows=None) -> dict:
    """A random unit direction over the tensors ``names``; on the embedding
    table only over ``rows``, the tokens the batch uses."""
    d = {k: rng.standard_normal(t[k].shape) for k in names}
    if rows is not None and "embedding" in d:
        mask = np.zeros(t["embedding"].shape[0], dtype=bool)
        mask[rows] = True
        d["embedding"][~mask] = 0.0
    norm = np.sqrt(sum(float((v * v).sum()) for v in d.values()))
    return {k: v / norm for k, v in d.items()}


def _directional_err(grad: dict, direction: dict, expected: float) -> float:
    """|<grad, d> - expected| in units of ||grad|| / sqrt(n), the spread of
    <grad, d> over random unit directions d on n entries. Unlike a relative
    error it does not blow up when <grad, d> happens to be near 0, and
    unlike an absolute one it does not shrink with the gradient."""
    analytic = sum(float(np.vdot(grad[k], direction[k])) for k in direction)
    support = {k: direction[k] != 0.0 for k in direction}
    n = sum(int(m.sum()) for m in support.values())
    norm = np.sqrt(sum(float((grad[k][support[k]] ** 2).sum()) for k in direction))
    return abs(analytic - expected) / max(norm / np.sqrt(n), 1e-300)


def objective_check(strategy, params, batch_s, batch_t, lam, gamma, rng) -> float:
    """Directional central-difference check of one strategy's objective.

    The program's gradient comes from ``strategy_forward`` + ``backward``.
    The expected directional derivative is the central difference of this
    module's forward along a random unit direction, with the two
    first-order conventions the strategies document made explicit: the
    reversal layer contributes ``-lam`` times the domain-loss derivative to
    the encoder and shared tensors, and a latent lookahead step is held
    fixed at its value. The step itself is checked against a central
    difference of its inner loss in latent space (the ``adv+maml`` encoder
    shift in parameter space), and the reported losses against this
    module's values. Returns the worst error over ``FD_DIRECTIONS``
    directions.
    """
    return max(
        _objective_error(strategy, params, batch_s, batch_t, lam, gamma, rng) for _ in range(FD_DIRECTIONS)
    )


def _objective_error(strategy, params, batch_s, batch_t, lam, gamma, rng) -> float:
    seq_s, y_s = batch_s
    seq_t, y_t = batch_t
    groups = model.ModelParams.GROUPS
    rows = sorted({tok for seq in (*seq_s, *seq_t) for tok in seq})
    errors = []
    t = dict(params.tensors)

    def dom(p, pattern):
        return domain_loss(p, encode(p, seq_s), encode(p, seq_t), pattern)

    if strategy == "adv+maml":
        refs = training.domain_loss_graph(params, batch_s, batch_t)
        shifted = training.maml_lookahead_step(params, refs, gamma)
        d = _unit_direction(rng, t, groups["w_b"], rows)
        moved = {k: (shifted[k] - t[k]) / gamma for k in groups["w_b"]}
        errors.append(_directional_err(moved, d, _directional_fd(dom, t, d, groups["w_b"])))
        t = {**t, **shifted}
        params = model.ModelParams(params.config, t)
        graph_strategy = "adv"
    else:
        graph_strategy = strategy

    fwd = training.strategy_forward(params, batch_s, batch_t, graph_strategy, lam, gamma)
    grads = fwd.refs.param_grads(training.backward(fwd.refs.tape, fwd.refs.objective))
    names = training.trainable_tensors(strategy)
    direction = _unit_direction(rng, t, names, rows)

    z_s, z_t = encode(t, seq_s), encode(t, seq_t)
    delta_s = delta_t = 0.0
    if fwd.latents is not None:
        delta_s = fwd.latents.z_s_prime - fwd.latents.z_s
        delta_t = fwd.latents.z_t_prime - fwd.latents.z_t
        errors.append(_lookahead_step_error(t, strategy, z_s, z_t, y_s, y_t, delta_s, delta_t, gamma, rng))

    def task(p, pattern):
        l_s = cross_entropy(head_logits(p, encode(p, seq_s) + delta_s, "source", pattern), y_s)
        return l_s + cross_entropy(head_logits(p, encode(p, seq_t) + delta_t, "target", pattern), y_t)

    expected = _directional_fd(task, t, direction, names)
    errors.append(_rel_err(fwd.loss_s, cross_entropy(head_logits(t, z_s + delta_s, "source"), y_s)))
    errors.append(_rel_err(fwd.loss_t, cross_entropy(head_logits(t, z_t + delta_t, "target"), y_t)))
    if fwd.loss_d is not None:
        disc = [k for k in names if k in groups["theta_d"]]
        reversed_ = [k for k in names if k in groups["w_b"] + groups["w_sh"]]
        expected += _directional_fd(dom, t, direction, disc)
        expected -= lam * _directional_fd(dom, t, direction, reversed_)
        errors.append(_rel_err(fwd.loss_d, dom(t, None)))
    errors.append(_directional_err(grads, direction, expected))
    return max(errors)


def _lookahead_step_error(t, strategy, z_s, z_t, y_s, y_t, delta_s, delta_t, gamma, rng) -> float:
    """Check z' - z = sign * gamma * d(inner loss)/dz along a random latent
    direction: ascent on the raw domain loss for ``adv+lo``, descent on the
    summed task losses for ``mtl+lo``."""
    if strategy == "adv+lo":
        sign = 1.0

        def inner(z, pattern):
            return domain_loss(t, z[0], z[1], pattern)
    else:
        sign = -1.0

        def inner(z, pattern):
            l_s = cross_entropy(head_logits(t, z[0], "source", pattern), y_s)
            return l_s + cross_entropy(head_logits(t, z[1], "target", pattern), y_t)

    d = _unit_direction(rng, {"s": z_s, "t": z_t}, ("s", "t"))
    plus = (z_s + FD_EPS * d["s"], z_t + FD_EPS * d["t"])
    minus = (z_s - FD_EPS * d["s"], z_t - FD_EPS * d["t"])
    fd = _central(inner, plus, minus, (z_s, z_t))
    step = {"s": delta_s / (sign * gamma), "t": delta_t / (sign * gamma)}
    return _directional_err(step, d, fd)
