"""Quadratic playground: closed-form oracles for values, gradients,
per-mode decay factors, and the lookahead/descent contrasts."""

import numpy as np
import pytest

from latopt.quadratic import (
    DECAY_STEPS,
    DEFAULT_START,
    Quadratic,
    Trajectory,
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
    traj = gd_trajectory(q, DEFAULT_START, 0.025, 17)
    assert len(traj.points) == 18
    np.testing.assert_array_equal(traj.points[0], DEFAULT_START)
