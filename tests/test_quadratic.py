"""Quadratic playground: closed-form oracles for values, gradients,
per-mode decay factors, and the lookahead/descent contrasts; the
trajectories agree bit for bit with a loop that evaluates f at every step."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latopt.quadratic import (
    DECAY_STEPS,
    DEFAULT_START,
    TRAJECTORY_FNS,
    Quadratic,
    Trajectory,
    _f_rows,
    default_quadratic,
    eg_first_order_trajectory,
    eg_full_hessian_trajectory,
    eg_mode_factor,
    gd_mode_factor,
    gd_trajectory,
    measure_mode_decay,
)


def random_quadratic(rng):
    m = rng.normal(size=(2, 2))
    a = m @ m.T + 0.5 * np.eye(2)
    return Quadratic(a, rng.normal(size=2), float(rng.normal()))


def test_identity_case():
    q = Quadratic(np.eye(2), np.zeros(2), 0.0)
    w = np.array([1.0, 0.0])
    assert q.f(w) == 1.0
    np.testing.assert_array_equal(q.grad(w), [2.0, 0.0])
    np.testing.assert_array_equal(q.hessian(), 2.0 * np.eye(2))


def test_gradient_vanishes_at_minimizer():
    rng = np.random.default_rng(0)
    for _ in range(20):
        q = random_quadratic(rng)
        np.testing.assert_allclose(q.grad(q.minimizer()), 0.0, atol=1e-12)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    for _ in range(20):
        q = random_quadratic(rng)
        w = rng.normal(size=2)
        eps = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = eps
            fd = (q.f(w + e) - q.f(w - e)) / (2 * eps)
            assert abs(fd - q.grad(w)[i]) / max(1.0, abs(q.grad(w)[i])) < 1e-8


def test_validation_rejects_bad_matrices():
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))  # asymmetric
    with pytest.raises(ValueError):
        Quadratic(np.array([[1.0, 0.0], [0.0, -1.0]]), np.zeros(2))  # not PD


@pytest.mark.parametrize(
    "a, b, c",
    [
        ([[1.0, np.nan], [np.nan, 1.0]], [0.0, 0.0], 0.0),
        (np.eye(2), [np.nan, 0.0], 0.0),
        (np.eye(2), [0.0, 0.0], np.inf),
    ],
    ids=["A", "b", "c"],
)
def test_validation_rejects_non_finite_entries(a, b, c):
    # checked before symmetry, so a NaN in A raises no RuntimeWarning on the way
    with pytest.raises(ValueError, match=r"^Quadratic: A, b and c must be finite$"):
        Quadratic(np.array(a), np.array(b), c)


def test_default_quadratic_condition_number_forty():
    q = default_quadratic()
    assert abs(q.condition_number() - 40.0) < 1e-9
    np.testing.assert_allclose(q.minimizer(), [0.4, 0.0], atol=1e-12)


def test_gd_zero_eta_constant_trajectory():
    q = default_quadratic()
    traj = gd_trajectory(q, (1.0, 1.0), 0.0, 10)
    assert len(traj) == 11
    for p in traj.points:
        np.testing.assert_array_equal(p, [1.0, 1.0])


def test_gd_one_step_convergence_eigencase():
    # A = I/2, b = 0, eta = 1: factor 1 - 2*eta*0.5 = 0
    q = Quadratic(0.5 * np.eye(2), np.zeros(2), 0.0)
    traj = gd_trajectory(q, (3.0, -2.0), 1.0, 3)
    np.testing.assert_allclose(traj.points[1], [0.0, 0.0], atol=1e-15)


def test_gd_decay_factors_match_closed_form():
    q = default_quadratic()
    traj = gd_trajectory(q, DEFAULT_START, 0.025, 60)
    lam, ratios = measure_mode_decay(q, traj)
    for mode in range(2):
        expected = gd_mode_factor(lam[mode], 0.025)
        assert ratios[mode], "no usable amplitude"
        assert max(abs(r - expected) for r in ratios[mode]) < 1e-9


def test_eg_variants_gamma_zero_bitwise_gd():
    q = default_quadratic()
    gd = gd_trajectory(q, DEFAULT_START, 0.05, 50)
    for fn in (eg_first_order_trajectory, eg_full_hessian_trajectory):
        eg = fn(q, DEFAULT_START, 0.05, 0.0, 50)
        for a, b in zip(gd.points, eg.points):
            np.testing.assert_array_equal(a, b)


def test_lookahead_vanishes_as_curvature_goes_to_zero():
    # with epsilon-scaled A the gradient is nearly constant and the
    # lookahead step converges to the plain descent step
    for eps, tol in ((1e-3, 2e-4), (1e-6, 2e-7)):
        q = Quadratic(eps * np.eye(2), np.array([1.0, -2.0]), 0.0)
        gd = gd_trajectory(q, (0.5, 0.5), 0.1, 5)
        eg = eg_first_order_trajectory(q, (0.5, 0.5), 0.1, 0.05, 5)
        diff = max(np.max(np.abs(a - b)) for a, b in zip(gd.points, eg.points))
        assert diff < tol


def test_eg_full_hessian_decay_factors():
    q = default_quadratic()
    traj = eg_full_hessian_trajectory(q, DEFAULT_START, 0.1, 0.01, 60)
    lam, ratios = measure_mode_decay(q, traj)
    for mode in range(2):
        expected = eg_mode_factor(lam[mode], 0.1, 0.01)
        assert max(abs(r - expected) for r in ratios[mode]) < 1e-9


@pytest.mark.parametrize("min_amp", [1e-8, 1e-5, 0.0])
def test_mode_decay_reads_only_the_first_decay_steps(min_amp):
    q = default_quadratic()
    trajs = [
        gd_trajectory(q, DEFAULT_START, 0.025, 200),
        eg_first_order_trajectory(q, DEFAULT_START, 0.1, 0.01, 200),
        eg_full_hessian_trajectory(q, (0.4, 0.0), 0.05, 0.0125, 200),  # starts on the minimizer
        gd_trajectory(q, DEFAULT_START, 5.0, 400),  # truncated after 59 points
        gd_trajectory(q, DEFAULT_START, 0.025, 5),  # shorter than the window
    ]
    for traj in trajs:
        head = Trajectory(traj.method, traj.eta, traj.gamma, points=traj.points[: DECAY_STEPS + 1])
        lam, ratios = measure_mode_decay(q, traj, min_amp=min_amp)
        lam_head, ratios_head = measure_mode_decay(q, head, min_amp=min_amp)
        np.testing.assert_array_equal(lam, lam_head)
        assert ratios == ratios_head
        assert all(len(r) <= DECAY_STEPS for r in ratios)


def test_eg_full_hessian_converges_where_gd_diverges():
    q = default_quadratic()
    eg = eg_full_hessian_trajectory(q, DEFAULT_START, 0.1, 0.01, 400)
    assert eg.steps_to() is not None
    gd = gd_trajectory(q, DEFAULT_START, 0.1, 400)
    assert gd.truncated or gd.grad_norms[-1] > 1e3


def test_first_order_eg_beats_gd_from_step_ten():
    q = default_quadratic()
    gd = gd_trajectory(q, DEFAULT_START, 0.025, 200)
    eg = eg_first_order_trajectory(q, DEFAULT_START, 0.025, 0.01, 200)
    assert all(eg.f_values[n] < gd.f_values[n] for n in range(10, 201))


def test_per_step_identity_full_vs_first_order():
    # eta*(I - gamma*H) grad f(w) == eta*grad f(w - gamma*grad f(w)) and
    # equals the plain step plus the -eta*gamma*H*grad correction
    rng = np.random.default_rng(2)
    q = default_quadratic()
    h = q.hessian()
    eta, gamma = 0.05, 0.02
    for _ in range(50):
        w = rng.normal(size=2)
        g = q.grad(w)
        step_first = eta * q.grad(w - gamma * g)
        step_full = eta * (g - gamma * (h @ g))
        np.testing.assert_allclose(step_full, step_first, atol=1e-12)
        np.testing.assert_allclose(step_full, eta * g - eta * gamma * (h @ g), atol=1e-12)


def test_tail_monotone_once_contractive():
    # nonincreasing up to float resolution around the limit value
    eps = np.finfo(float).eps
    q = default_quadratic()
    for traj in (
        gd_trajectory(q, DEFAULT_START, 0.025, 120),
        eg_full_hessian_trajectory(q, DEFAULT_START, 0.1, 0.01, 120),
    ):
        tail = traj.f_values[len(traj.f_values) // 2 :]
        assert all(b <= a + 32 * eps * max(1.0, abs(a)) for a, b in zip(tail, tail[1:]))


def test_trajectory_records_start_and_length():
    q = default_quadratic()
    w0 = np.array(DEFAULT_START)
    traj = gd_trajectory(q, w0, 0.025, 17)
    assert len(traj.points) == 18
    np.testing.assert_array_equal(traj.points[0], DEFAULT_START)
    assert not np.shares_memory(traj.points[0], w0)


def reference_trajectory(q, w0, eta, gamma, steps, method):
    """The playground's earlier loop: f, the gradient and both finite tests
    at every step, with each rule's step as it was written then."""
    h = q.hessian()

    def step(w, g):
        if method == "gd" or gamma == 0.0:
            return w - eta * g
        if method == "eg1":
            return w - eta * q.grad(w - gamma * g)
        return w - eta * (g - gamma * (h @ g))

    traj = Trajectory(method=method, eta=float(eta), gamma=0.0 if method == "gd" else float(gamma))
    w = np.array(w0, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(steps + 1):
            fval = q.f(w)
            g = q.grad(w)
            gnorm = math.sqrt(g.dot(g))
            if not (math.isfinite(fval) and math.isfinite(gnorm)):
                traj.truncated = True
                break
            traj.points.append(w)
            traj.f_values.append(fval)
            traj.grad_norms.append(gnorm)
            if len(traj.points) == steps + 1:
                break
            w = step(w, g)
            if not (math.isfinite(w[0]) and math.isfinite(w[1])):
                traj.truncated = True
                break
    return traj


def _bits(values):
    return np.array(values, dtype=np.float64).tobytes()


# default: |g| overflows before f; FLAT (eigenvalues below 1/4): f overflows
# first, so the trajectory is cut where f first fails while |g| is finite
FLAT = Quadratic(np.diag([0.22, 0.05]), np.array([1.0, -2.0]), 0.5)
ORACLE_QUADRATICS = (default_quadratic(), FLAT)
magnitude = st.one_of(st.just(0.0), st.floats(-6.0, 200.0).map(lambda e: 10.0**e))
coordinate = st.tuples(st.sampled_from((1.0, -1.0)), magnitude).map(lambda sm: sm[0] * sm[1])


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    k=st.sampled_from(range(len(ORACLE_QUADRATICS))),
    start=st.tuples(coordinate, coordinate),
    eta=st.floats(0.0, 5.0),
    gamma=st.floats(0.0, 0.05),
    steps=st.integers(0, 400),
)
@example(k=0, start=(1e200, 0.0), eta=0.025, gamma=0.01, steps=5)  # empty: f overflows at the start
@example(k=0, start=DEFAULT_START, eta=5.0, gamma=0.0, steps=400)  # the 59-point golden trajectory
@example(k=1, start=(1e154, 1e154), eta=5.0, gamma=0.0, steps=400)  # f fails at step 6, |g| does not
@example(k=1, start=(1e155, 1e155), eta=0.1, gamma=0.05, steps=400)
@example(k=0, start=DEFAULT_START, eta=np.float32(0.1), gamma=np.float32(0.01), steps=50)  # float32 rates
@example(k=0, start=DEFAULT_START, eta=1e307, gamma=0.0, steps=5)  # w overflows while |g| is finite
def test_trajectories_match_the_per_step_loop_bit_for_bit(k, start, eta, gamma, steps):
    q = ORACLE_QUADRATICS[k]
    for method, fn in TRAJECTORY_FNS.items():
        got = fn(q, start, eta, gamma, steps)
        want = reference_trajectory(q, start, eta, gamma, steps, method)
        assert (got.method, got.eta, got.gamma) == (want.method, want.eta, want.gamma)
        assert len(got) == len(want) and got.truncated == want.truncated
        assert _bits(got.points) == _bits(want.points)
        assert _bits(got.f_values) == _bits(want.f_values)
        assert _bits(got.grad_norms) == _bits(want.grad_norms)
        assert all(type(v) is float for v in got.f_values + got.grad_norms)
        # each point a fresh (2,) float64 array: owning distinct buffers, no two share memory
        assert all(type(p) is np.ndarray and p.shape == (2,) and p.dtype == np.float64 for p in got.points)
        assert all(p.flags.owndata for p in got.points)
        assert len({p.ctypes.data for p in got.points}) == len(got.points)
        assert not any(np.shares_memory(p, r) for p, r in zip(got.points, got.points[1:]))


signed_magnitude = st.tuples(st.sampled_from((1.0, -1.0)), st.floats(-6.0, 200.0)).map(lambda se: se[0] * 10.0**se[1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(entries=st.tuples(*[signed_magnitude] * 3), w=st.tuples(signed_magnitude, signed_magnitude))
def test_dot_is_bitwise_matmul_for_a_symmetric_2x2(entries, w):
    # the trajectory products are ndarray.dot, the reference loop's are @
    a, b, d = entries
    v = np.array(w)
    with np.errstate(over="ignore", invalid="ignore"):
        for order in ("C", "F"):
            M = np.array([[a, b], [b, d]], order=order)
            assert M.dot(v).tobytes() == (M @ v).tobytes()


def test_f_is_cut_where_it_first_fails_while_the_gradient_is_finite():
    traj = gd_trajectory(FLAT, (1e154, 1e154), 5.0, 400)
    assert traj.truncated and len(traj) == 6
    w = traj.points[-1] - 5.0 * FLAT.grad(traj.points[-1])
    with np.errstate(over="ignore"):
        assert FLAT.f(w) == math.inf
    g = FLAT.grad(w)
    assert math.isfinite(math.sqrt(g.dot(g)))


@pytest.mark.parametrize("q", ORACLE_QUADRATICS, ids=["default", "flat"])
def test_batched_f_and_gradient_norm_match_the_per_point_forms(q):
    rng = np.random.default_rng(5)
    for n in (0, 1, 2, 3, 64, 401):
        P = rng.normal(size=(n, 2)) * 10.0 ** rng.uniform(-6.0, 160.0, size=(n, 1))
        with np.errstate(over="ignore", invalid="ignore"):
            want = np.array([q.f(p) for p in P], dtype=np.float64)
            want_norms = [math.sqrt(q.grad(p).dot(q.grad(p))) for p in P]
            got = _f_rows(q, P)
            # a 0-step descent from each point records |g| as the loop computes it
            recorded = [gd_trajectory(q, p, 0.0, 0).grad_norms for p in P]
        assert got.shape == (n,) and not np.isnan(want).any()
        assert got.tobytes() == want.tobytes()  # inf where the per-point form overflows
        for f, norm, rec in zip(want, want_norms, recorded):
            assert _bits(rec) == _bits([norm] if math.isfinite(f) and math.isfinite(norm) else [])
    assert np.isinf(want).any() and np.isfinite(want).any()
