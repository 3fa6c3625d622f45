"""2-D quadratic minimization playground.

Compares vanilla gradient descent against two extragradient lookahead
rules on f(w) = w^T A w + b^T w + c. For a quadratic, both lookahead rules
coincide algebraically per step:

    grad f(w - gamma*grad f(w)) == (I - gamma*H) grad f(w),  H = 2A,

so ``eg_first_order_trajectory`` (re-evaluates the gradient at the
lookahead point) and ``eg_full_hessian_trajectory`` (applies the analytic
Hessian correction) differ only in how the step is computed. Per-mode decay
factors are closed-form: 1 - 2*eta*lam for descent and
1 - 2*eta*lam*(1 - 2*gamma*lam) for the lookahead rules, with lam an
eigenvalue of A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Quadratic:
    """f(w) = w^T A w + b^T w + c with A symmetric positive definite."""

    A: np.ndarray
    b: np.ndarray
    c: float = 0.0

    def __post_init__(self):
        self.A = np.asarray(self.A, dtype=np.float64)
        self.b = np.asarray(self.b, dtype=np.float64)
        if not (np.isfinite(self.A).all() and np.isfinite(self.b).all() and math.isfinite(self.c)):
            raise ValueError("Quadratic: A, b and c must be finite")
        if self.A.shape != (2, 2) or self.b.shape != (2,):
            raise ValueError("Quadratic: A must be 2x2 and b length 2")
        if not np.all(np.abs(self.A - self.A.T) <= 1e-12):
            raise ValueError("Quadratic: A must be symmetric (within 1e-12)")
        if np.linalg.eigvalsh(self.A).min() <= 0:
            raise ValueError("Quadratic: A must be positive definite")

    def f(self, w) -> float:
        w = np.asarray(w, dtype=np.float64)
        return float(w @ self.A @ w + self.b @ w + self.c)

    def grad(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=np.float64)
        return 2.0 * (self.A @ w) + self.b

    def hessian(self) -> np.ndarray:
        return 2.0 * self.A

    def eigen(self):
        """(eigenvalues, eigenvectors) of A, ascending."""
        return np.linalg.eigh(self.A)

    def condition_number(self) -> float:
        lam = np.linalg.eigvalsh(self.A)
        return float(lam.max() / lam.min())

    def minimizer(self) -> np.ndarray:
        return np.linalg.solve(2.0 * self.A, -self.b)


def default_quadratic() -> Quadratic:
    """The ill-conditioned demo problem: condition number exactly 40,
    eigenvalues of A (39, 0.975) under a 30-degree rotation, minimizer at
    (0.4, 0). At eta=0.025 the steep mode's descent factor is -0.95 (the
    zigzag); at eta=0.1 descent diverges while the lookahead rules converge.
    """
    theta = math.pi / 6.0
    cs, sn = math.cos(theta), math.sin(theta)
    r = np.array([[cs, -sn], [sn, cs]])
    a = r.T @ np.diag([39.0, 0.975]) @ r
    a = (a + a.T) / 2.0
    w_star = np.array([0.4, 0.0])
    b = -2.0 * (a @ w_star)
    return Quadratic(a, b, 0.0)


DEFAULT_START = (0.0, -0.15)
CONVERGENCE_TOL = 1e-3
DECAY_STEPS = 12  # steps ``measure_mode_decay`` reads


@dataclass
class Trajectory:
    method: str
    eta: float
    gamma: float
    points: list = field(default_factory=list)
    f_values: list = field(default_factory=list)
    grad_norms: list = field(default_factory=list)
    truncated: bool = False  # hit a non-finite iterate and stopped early

    def __len__(self):
        return len(self.points)

    def steps_to(self):
        """First step index with gradient norm below ``CONVERGENCE_TOL``, or None."""
        for i, g in enumerate(self.grad_norms):
            if g < CONVERGENCE_TOL:
                return i
        return None


def _f_rows(q: Quadratic, P) -> np.ndarray:
    """f at each row of the (n, 2) array ``P``, bitwise the per-point ``q.f``."""
    col = P[..., None]  # each dot a stack of 1x2 by 2x1 products: ``P @ b`` rounds otherwise
    return np.matmul((P @ q.A)[:, None, :], col)[:, 0, 0] + np.matmul(q.b[None, None, :], col)[:, 0, 0] + q.c


def _run(q: Quadratic, w0, steps: int, step_fn, method, eta, gamma) -> Trajectory:
    """The recurrence; ``step_fn(x, y, g0, g1)`` returns the next point's
    coordinates. Only the products stay numpy, as ``ndarray.dot`` (bitwise
    ``@``; OpenBLAS rounds them with FMA); the elementwise arithmetic runs on
    Python floats, which round each IEEE op as numpy does. The loop stops at
    the first gradient with a non-finite coordinate, which also stops at a
    non-finite point (A is positive definite, b finite). f and |g| never feed
    the recurrence: both are computed after the loop, and the trajectory is
    cut at the first point where either is non-finite, where a per-step test
    would have stopped."""
    traj = Trajectory(method=method, eta=float(eta), gamma=float(gamma))
    A = q.A
    b0, b1 = q.b.tolist()
    w = np.array(w0, dtype=np.float64)  # the start is copied; every later point is built fresh
    x, y = w.tolist()
    grads = []
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps + 1):
            m0, m1 = A.dot(w).tolist()
            g0, g1 = 2.0 * m0 + b0, 2.0 * m1 + b1  # q.grad(w)
            if not (math.isfinite(g0) and math.isfinite(g1)):
                traj.truncated = True
                break
            traj.points.append(w)
            grads.append((g0, g1))
            if k == steps:
                break
            x, y = step_fn(x, y, g0, g1)
            w = np.array((x, y))
        f = _f_rows(q, np.array(traj.points).reshape(-1, 2))
        G = np.array(grads).reshape(-1, 2)
        gnorm = np.sqrt(np.matmul(G[:, None, :], G[..., None])[:, 0, 0])  # each bitwise g.dot(g)
    (bad,) = np.nonzero(~(np.isfinite(f) & np.isfinite(gnorm)))
    if len(bad):
        traj.truncated = True
        del traj.points[bad[0] :]
        f, gnorm = f[: bad[0]], gnorm[: bad[0]]
    traj.f_values, traj.grad_norms = f.tolist(), gnorm.tolist()
    return traj


def _descent(eta: float):
    """The descent step w <- w - eta * g on the coordinates. Every rule
    passes eta and gamma as Python floats: a numpy float32 scalar would
    round the float products to float32."""

    def step(x, y, g0, g1):
        return x - eta * g0, y - eta * g1

    return step


def gd_trajectory(q: Quadratic, w0, eta: float, steps: int) -> Trajectory:
    """w <- w - eta * grad f(w)."""
    eta = float(eta)
    return _run(q, w0, steps, _descent(eta), "gd", eta, 0.0)


def eg_first_order_trajectory(q: Quadratic, w0, eta: float, gamma: float, steps: int) -> Trajectory:
    """w <- w - eta * grad f(w - gamma * grad f(w)): the gradient is
    re-evaluated at the lookahead point (Hessian term of the total
    derivative dropped). gamma=0 collapses to vanilla descent bitwise."""
    eta, gamma = float(eta), float(gamma)
    A = q.A
    b0, b1 = q.b.tolist()

    def step(x, y, g0, g1):
        m0, m1 = A.dot(np.array((x - gamma * g0, y - gamma * g1))).tolist()  # A @ lookahead
        return x - eta * (2.0 * m0 + b0), y - eta * (2.0 * m1 + b1)

    return _run(q, w0, steps, _descent(eta) if gamma == 0.0 else step, "eg1", eta, gamma)


def eg_full_hessian_trajectory(q: Quadratic, w0, eta: float, gamma: float, steps: int) -> Trajectory:
    """w <- w - eta * (I - gamma*H) grad f(w) with the analytic Hessian;
    on a quadratic this equals the re-evaluated lookahead gradient exactly.
    gamma=0 collapses to vanilla descent bitwise."""
    eta, gamma = float(eta), float(gamma)
    h = q.hessian()

    def step(x, y, g0, g1):
        h0, h1 = h.dot(np.array((g0, g1))).tolist()  # h @ g
        return x - eta * (g0 - gamma * h0), y - eta * (g1 - gamma * h1)

    return _run(q, w0, steps, _descent(eta) if gamma == 0.0 else step, "eg2", eta, gamma)


TRAJECTORY_FNS = {
    "gd": lambda q, w0, eta, gamma, steps: gd_trajectory(q, w0, eta, steps),
    "eg1": eg_first_order_trajectory,
    "eg2": eg_full_hessian_trajectory,
}


def gd_mode_factor(lam: float, eta: float) -> float:
    return 1.0 - 2.0 * eta * lam


def eg_mode_factor(lam: float, eta: float, gamma: float) -> float:
    return 1.0 - 2.0 * eta * lam * (1.0 - 2.0 * gamma * lam)


def measure_mode_decay(q: Quadratic, traj: Trajectory, min_amp: float = 1e-8):
    """Observed per-mode contraction ratios along a trajectory.

    Projects the displacement from the minimizer onto A's eigenvectors and
    returns, per mode, the list of consecutive ratios over the first
    ``DECAY_STEPS`` steps where the amplitude stays above ``min_amp``.
    """
    lam, vecs = q.eigen()
    w_star = q.minimizer()
    coords = ((np.array(traj.points[: DECAY_STEPS + 1]).reshape(-1, 2) - w_star) @ vecs).tolist()
    ratios: list[list[float]] = [[], []]
    for (a0, a1), (b0, b1) in zip(coords, coords[1:]):
        if abs(a0) > min_amp:
            ratios[0].append(b0 / a0)
        if abs(a1) > min_amp:
            ratios[1].append(b1 / a1)
    return lam, ratios
