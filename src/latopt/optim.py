"""Optimizers and schedules: bias-corrected Adam and the cosine
learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8  # moment decay rates and the denominator's offset


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter.

    One state covers all parameter groups of a model. The first
    ``adam_step`` lays it out from the tensors it is handed, and every later
    step must hand it the same ones. Each 1-D tensor, and each 2-D tensor
    whose first gradient has a nonzero in every row, is ``fused``: its
    moments ``m[name]`` and ``v[name]`` are views into the flat buffers
    ``flat_m`` and ``flat_v``, at ``fused[name]``, and all of them take one
    update. Every other 2-D tensor keeps moments of its own, and
    ``live[name]`` marks the rows that have ever had a nonzero gradient.
    """

    step: int = field(default=0, init=False)
    m: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    v: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    live: dict[str, np.ndarray] = field(default_factory=dict, init=False)
    fused: dict[str, slice] = field(default_factory=dict, init=False)
    flat_m: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False, repr=False)
    flat_v: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False, repr=False)

    def _lay_out(self, grads: dict[str, np.ndarray]) -> None:
        rowwise = {name for name, g in grads.items() if g.ndim == 2 and not (g != 0.0).any(axis=1).all()}
        self.flat_m = np.zeros(sum(g.size for name, g in grads.items() if name not in rowwise))
        self.flat_v = np.zeros(self.flat_m.size)
        at = 0
        for name, g in grads.items():
            if name in rowwise:
                self.live[name] = np.zeros(len(g), dtype=bool)
                self.m[name], self.v[name] = np.zeros(g.shape), np.zeros(g.shape)
                continue
            self.fused[name] = span = slice(at, at + g.size)
            self.m[name] = self.flat_m[span].reshape(g.shape)
            self.v[name] = self.flat_v[span].reshape(g.shape)
            at += g.size


def _adam_rows(m, v, g, lr, c1, c2):
    """Update the moments in place and return the parameter decrement
    lr * (m / c1) / (sqrt(v / c2) + EPS), after m = BETA1 * m + (1 - BETA1) * g
    and v = BETA2 * v + (1 - BETA2) * g * g: those operations in that order,
    in two buffers (a product's operands may swap, which changes no bit)."""
    t = g * (1.0 - BETA1)
    m *= BETA1
    m += t
    np.multiply(g, 1.0 - BETA2, out=t)
    t *= g
    v *= BETA2
    v += t
    np.divide(v, c2, out=t)
    np.sqrt(t, out=t)
    t += EPS
    step = m / c1
    step *= lr
    step /= t
    return step


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
    """One in-place Adam update on every tensor in ``grads``.

    ``lr`` must be finite and >= +0.0, every gradient must have its
    parameter's shape, and after the first step ``grads`` must name the
    tensors the first step named; otherwise ``ValueError`` is raised before
    anything changes. A row of a 2-D tensor off the fused update whose
    gradient has always been zero takes an exact identity step (+0.0), so
    only the rows that ever had a nonzero gradient are updated; the fused
    tensors take one update over their concatenated gradient. The result is
    bitwise that of dense Adam on each tensor in turn: every update is
    elementwise, and every live row's moments decay every step (unlike TF's
    LazyAdam).
    """
    if not math.isfinite(lr) or math.copysign(1.0, lr) < 0:
        raise ValueError(f"adam_step: lr must be finite and >= 0, got {lr}")
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != param shape {params[name].shape} for '{name}'")
    if state.step == 0:
        state._lay_out(grads)
    elif grads.keys() != state.m.keys():
        raise ValueError(f"adam_step: gradients for {list(grads)}, but the state is laid out for {list(state.m)}")
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    for name, live in state.live.items():
        g, p, m, v = grads[name], params[name], state.m[name], state.v[name]
        # the rows of g's nonzeros: a row test over 2-D g costs 4x as much
        live[np.flatnonzero(g != 0.0) // g.shape[1]] = True
        rows = np.flatnonzero(live)
        m_r, v_r = m[rows], v[rows]
        p[rows] -= _adam_rows(m_r, v_r, g[rows], lr, c1, c2)
        m[rows] = m_r
        v[rows] = v_r
    if state.fused:
        g = np.concatenate([grads[name].ravel() for name in state.fused])
        step = _adam_rows(state.flat_m, state.flat_v, g, lr, c1, c2)
        for name, at in state.fused.items():
            p = params[name]
            p -= step[at].reshape(p.shape)


def cosine_lr(t: int, total: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi * t / total)); lr0 at t=0, 0 at t=total."""
    if t > total:
        raise ValueError(f"cosine_lr: step {t} past the end of the schedule ({total})")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / total))

