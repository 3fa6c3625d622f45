"""Adam against scalar hand calculations and the cosine schedule."""

import re

import numpy as np
import pytest

from latopt.optim import EPS, AdamState, adam_step, cosine_lr


def test_adam_zero_gradient_keeps_params():
    state = AdamState()
    params = {"w": np.array([1.0, -2.0])}
    adam_step(state, params, {"w": np.zeros(2)}, lr=0.1)
    np.testing.assert_array_equal(params["w"], [1.0, -2.0])


def test_adam_first_step_scalar_oracle():
    # from zero state: m_hat = g, v_hat = g^2, step = -lr*g/(|g|+eps)
    state = AdamState()
    g = np.array([0.37])
    params = {"w": np.array([0.0])}
    adam_step(state, params, {"w": g}, lr=0.01)
    expected = -0.01 * g / (np.abs(g) + EPS)
    np.testing.assert_allclose(params["w"], expected, atol=1e-15)


def test_adam_constant_gradient_step_magnitude_approaches_lr():
    state = AdamState()
    params = {"w": np.array([0.0])}
    g = {"w": np.array([2.5])}
    prev = params["w"].copy()
    for _ in range(500):
        prev = params["w"].copy()
        adam_step(state, params, g, lr=0.01)
    np.testing.assert_allclose(np.abs(params["w"] - prev), 0.01, rtol=1e-6)
    assert params["w"][0] < 0  # moves against the gradient sign


def test_adam_shape_mismatch():
    state = AdamState()
    with pytest.raises(ValueError):
        adam_step(state, {"w": np.zeros(2)}, {"w": np.zeros(3)}, lr=0.1)
    # named, and raised before any tensor or moment changes
    params = {"a": np.ones(2), "b": np.ones((2, 2))}
    adam_step(state, params, {"a": np.ones(2), "b": np.ones((2, 2))}, lr=0.1)
    before = {k: (params[k].copy(), state.m[k].copy(), state.v[k].copy()) for k in params}
    with pytest.raises(ValueError, match=r"\(3,\) != param shape \(2, 2\) for 'b'"):
        adam_step(state, params, {"a": np.ones(2), "b": np.ones(3)}, lr=0.1)
    assert state.step == 1
    for k, arrays in before.items():
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in (params[k], state.m[k], state.v[k])]


def test_adam_refuses_tensors_other_than_the_first_steps():
    # the first step lays the state out; "t" has a zero row, so it stays on the row path
    state = AdamState()
    params = {"a": np.ones(2), "t": np.ones((2, 2)), "b": np.ones((2, 2))}
    grads = {"a": np.ones(2), "t": np.array([[1.0, 0.0], [0.0, 0.0]]), "b": np.ones((2, 2))}
    adam_step(state, params, grads, lr=0.1)
    assert list(state.fused) == ["a", "b"] and list(state.live) == ["t"]

    def snapshot():
        arrays = [*params.values(), *state.m.values(), *state.v.values(), *state.live.values(), state.flat_m, state.flat_v]
        return state.step, [a.tobytes() for a in arrays]

    before = snapshot()
    for names in (("a", "t"), ("a", "t", "b", "c"), ("a", "t", "c")):
        params["c"] = np.ones(3)
        with pytest.raises(ValueError, match=re.escape(f"gradients for {list(names)}, but the state is laid out for ['a', 't', 'b']")):
            adam_step(state, params, {k: np.ones_like(params[k]) for k in names}, lr=0.1)
        del params["c"]
        assert snapshot() == before
    adam_step(state, params, {k: grads[k] for k in ("b", "t", "a")}, lr=0.1)  # the same tensors in another order
    assert state.step == 2


def test_adam_state_scalars_mirror_params():
    state = AdamState()
    params = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    grads = {k: np.ones_like(v) for k, v in params.items()}
    adam_step(state, params, grads, lr=0.1)
    assert sum(a.size for a in (*state.m.values(), *state.v.values())) == 2 * (6 + 4)
    assert state.step == 1


def test_cosine_schedule_endpoints():
    assert cosine_lr(0, 100, 0.5) == 0.5
    assert abs(cosine_lr(100, 100, 0.5)) < 1e-16
    assert abs(cosine_lr(50, 100, 0.5) - 0.25) < 1e-15
    with pytest.raises(ValueError):
        cosine_lr(101, 100, 0.5)
