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

    One state covers all parameter groups of a model; accumulators are
    created lazily and mirror each parameter's shape. ``live`` holds, per
    2-D tensor, which rows have ever had a nonzero gradient or moment
    (None once every row has). The tensors whose rows are all live are
    ``fused``: their moments sit in one flat buffer each (``m[name]`` and
    ``v[name]`` are views into it, at ``fused[name]``) and take one update.
    """

    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)
    live: dict[str, np.ndarray | None] = field(default_factory=dict)
    fused: dict[str, slice] = field(default_factory=dict, init=False)
    flat_m: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False, repr=False)
    flat_v: np.ndarray = field(default_factory=lambda: np.zeros(0), init=False, repr=False)

    def fuse(self, names) -> None:
        """Move the moments of ``names`` into the flat buffers, after the
        tensors already there, and point every fused name's views at them."""
        order = [*self.fused, *names]
        self.flat_m = np.concatenate([self.m[n].ravel() for n in order])
        self.flat_v = np.concatenate([self.v[n].ravel() for n in order])
        at = 0
        for n in order:
            shape, size = self.m[n].shape, self.m[n].size
            self.fused[n] = slice(at, at + size)
            self.m[n] = self.flat_m[at : at + size].reshape(shape)
            self.v[n] = self.flat_v[at : at + size].reshape(shape)
            at += size


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


def _nonzero_rows(a: np.ndarray) -> np.ndarray:
    # -0.0 counts: a dense step would turn it into +0.0
    return ((a != 0.0) | np.signbit(a)).any(axis=1)


def adam_step(state: AdamState, params: dict[str, np.ndarray], grads: dict[str, np.ndarray], lr: float) -> None:
    """One in-place Adam update on every tensor present in ``grads``.

    ``lr`` must be finite and >= +0.0, or ``ValueError`` is raised before
    anything changes. Then a row of a 2-D tensor whose gradient and moments
    have always been zero takes an exact identity step (+0.0), so only the
    rows that ever had a nonzero gradient are updated. The tensors whose
    rows are all live take one update over their concatenated gradient.
    The result is bitwise that of dense Adam on each tensor in turn: every
    update is elementwise, and every live row's moments decay every step
    (unlike TF's LazyAdam).
    """
    if not math.isfinite(lr) or math.copysign(1.0, lr) < 0:
        raise ValueError(f"adam_step: lr must be finite and >= 0, got {lr}")
    for name, g in grads.items():
        if g.shape != params[name].shape:
            raise ValueError(f"adam_step: gradient shape {g.shape} != param shape {params[name].shape} for '{name}'")
    state.step += 1
    t = state.step
    c1 = 1.0 - BETA1**t
    c2 = 1.0 - BETA2**t
    joining = []
    for name, g in grads.items():
        if name in state.fused:
            continue
        p = params[name]
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
        if live is None:
            joining.append(name)
        else:
            rows = np.flatnonzero(live)
            m_r, v_r = m[rows], v[rows]
            p[rows] -= _adam_rows(m_r, v_r, g[rows], lr, c1, c2)
            m[rows] = m_r
            v[rows] = v_r
    if joining:
        state.fuse(joining)
    if state.fused and state.fused.keys() <= grads.keys():
        g = np.concatenate([grads[name].ravel() for name in state.fused])
        step = _adam_rows(state.flat_m, state.flat_v, g, lr, c1, c2)
        for name, at in state.fused.items():
            p = params[name]
            p -= step[at].reshape(p.shape)
        return
    for name in state.fused:  # some fused tensors have no gradient this step
        if name in grads:
            params[name] -= _adam_rows(state.m[name], state.v[name], grads[name], lr, c1, c2)


def cosine_lr(t: int, total: int, lr0: float) -> float:
    """lr0 * 0.5 * (1 + cos(pi * t / total)); lr0 at t=0, 0 at t=total."""
    if t > total:
        raise ValueError(f"cosine_lr: step {t} past the end of the schedule ({total})")
    return lr0 * 0.5 * (1.0 + math.cos(math.pi * t / total))

