"""Optimizers and schedules: bias-corrected Adam and the cosine
learning-rate schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class AdamState:
    """First/second moment accumulators plus the shared step counter.

    One state covers all parameter groups of a model; accumulators are
    created lazily and mirror each parameter's shape. ``live`` holds, per
    2-D tensor, which rows have ever had a nonzero gradient or moment
    (None once every row has).
    """

    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    live: dict[str, np.ndarray | None] = field(default_factory=dict)

    def state_scalars(self) -> int:
        return sum(a.size for a in self.m.values()) + sum(a.size for a in self.v.values())


def _adam_rows(state: AdamState, m, v, g, lr, c1, c2):
    """Update the moments in place and return the parameter decrement."""
    m *= state.beta1
    m += (1.0 - state.beta1) * g
    v *= state.beta2
    v += (1.0 - state.beta2) * g * g
    return lr * (m / c1) / (np.sqrt(v / c2) + state.eps)


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    # -0.0 counts: a dense step would turn it into +0.0
    return ((a != 0.0) | np.signbit(a)).any(axis=1)


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
    """One in-place Adam update on every tensor present in ``grads``.

    A row of a 2-D tensor whose gradient and moments have always been zero
    takes an exact identity step, so only the rows that ever had a nonzero
    gradient are updated. The result is bitwise that of dense Adam; every
    live row's moments decay every step (unlike TF's LazyAdam).
    """
    state.step += 1
    t = state.step
    c1 = 1.0 - state.beta1**t
    c2 = 1.0 - state.beta2**t
    with np.errstate(all="ignore"):
        rest = _adam_rows(state, np.zeros(1), np.zeros(1), 0.0, lr, c1, c2)[0]
    # skipping the rows at rest is exact only if their step is exactly +0.0
    sparse_ok = rest == 0.0 and not np.signbit(rest)
    for name, g in grads.items():
        p = params[name]
        if g.shape != p.shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != param shape {p.shape} for '{name}'")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        if p.ndim == 2 and name not in state.live:
            state.live[name] = _nonzero_rows(m) | _nonzero_rows(v)
        live = state.live.get(name)
        if live is not None:
            # the rows of g's nonzeros: a row test over 2-D g costs 4x as much
            live[np.flatnonzero(g != 0.0) // g.shape[1]] = True
            if live.all():
                state.live[name] = live = None
        if live is None or not sparse_ok:
            p -= _adam_rows(state, m, v, g, lr, c1, c2)
            continue
        rows = np.flatnonzero(live)
        m_r, v_r = m[rows], v[rows]
        p[rows] -= _adam_rows(state, m_r, v_r, g[rows], lr, c1, c2)
        m[rows] = m_r
        v[rows] = v_r


def cosine_lr(t: int, total: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi * t / total)); lr0 at t=0, 0 at t=total."""
    if t > total:
        raise ValueError(f"cosine_lr: step {t} past the end of the schedule ({total})")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / total))

