"""Engine-level contracts: forward shapes, backward gradients against
finite differences, detach semantics, and determinism."""

import os
import subprocess
import sys
import textwrap
import zlib
from pathlib import Path

import numpy as np
import pytest

from latopt.autodiff import (
    DIFFERENTIABLE_OPS,
    _FINITE_IF_INPUTS_FINITE,
    NonFiniteError,
    ShapeError,
    Tape,
    backward,
    finite_diff_check,
)


def test_add_forward():
    t = Tape()
    x = t.leaf([1.0, 2.0])
    y = t.leaf([10.0, 20.0])
    np.testing.assert_array_equal(t.value(t.add(x, y)), [11.0, 22.0])


def test_add_bias_broadcast():
    t = Tape()
    x = t.leaf([[1.0, 2.0], [3.0, 4.0]])
    b = t.leaf([10.0, 20.0])
    np.testing.assert_array_equal(t.value(t.add(x, b)), [[11.0, 22.0], [13.0, 24.0]])


def test_matmul_shape_mismatch():
    t = Tape()
    a = t.leaf(np.zeros((2, 3)))
    b = t.leaf(np.zeros((4, 2)))
    with pytest.raises(ShapeError):
        t.matmul(a, b)


def test_unknown_op_kind():
    t = Tape()
    x = t.leaf([1.0])
    with pytest.raises(KeyError):
        t.record("convolve", (x,))


def test_softmax_symmetry():
    t = Tape()
    x = t.leaf([0.0, 0.0])
    np.testing.assert_allclose(t.value(t.softmax(x)), [0.5, 0.5], atol=0)


def test_log_of_zero_is_nonfinite_error():
    t = Tape()
    x = t.leaf([0.0, 1.0])
    with pytest.raises(NonFiniteError):
        t.log(x)


def test_backward_square():
    # f(x) = x*x via matmul on 1x1, gradient 2x at x=3
    t = Tape()
    x = t.leaf([[3.0]])
    y = t.reduce_sum(t.matmul(x, x))
    g = backward(t, y)
    np.testing.assert_allclose(g[x], [[6.0]], atol=1e-15)


def test_backward_requires_scalar_loss():
    t = Tape()
    x = t.leaf([1.0, 2.0])
    y = t.tanh(x)
    with pytest.raises(ValueError):
        backward(t, y)


def test_softmax_cross_entropy_gradient_identity():
    # d(ce)/dlogits == softmax(logits) - onehot for a single sample
    t = Tape()
    logits = t.leaf([[0.3, -1.2]])
    y = np.array([[1.0, 0.0]])
    loss = t.softmax_cross_entropy(logits, t.leaf(y))
    g = backward(t, loss)
    p = np.exp([0.3, -1.2]) / np.exp([0.3, -1.2]).sum()
    np.testing.assert_allclose(g[logits], (p - y[0])[None, :], atol=1e-12)


def test_backward_gradients_at_intermediate_nodes():
    t = Tape()
    x = t.leaf([[1.0, -2.0]])
    h = t.tanh(x)
    loss = t.reduce_sum(t.matmul(h, t.leaf([[1.0], [1.0]])))
    g = backward(t, loss)
    # gradient at the intermediate tanh output is well-defined (all ones here)
    np.testing.assert_allclose(g[h], [[1.0, 1.0]], atol=0)


def test_backward_wrt_matches_full_sweep():
    rng = np.random.default_rng(5)
    t = Tape()
    w = t.leaf(rng.normal(size=(3, 2)))
    x = t.leaf(rng.normal(size=(4, 3)))
    z = t.tanh(t.matmul(x, w))
    unused = t.tanh(x)
    loss = t.reduce_sum(t.relu(t.matmul(z, t.leaf(rng.normal(size=(2, 1))))))
    later = t.negate(z)
    full = backward(t, loss)
    wrt = (z, x, unused, later)
    got = backward(t, loss, wrt=wrt)
    for nid, g in zip(wrt, got):
        assert g.shape == full[nid].shape and g.tobytes() == full[nid].tobytes()
    assert not got[2].any() and not got[3].any()  # neither feeds the loss
    assert backward(t, loss, wrt=()) == ()


def _rand_inputs(rng, op):
    if op == "matmul":
        return [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))]
    if op == "concat":
        return [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
    if op == "add":
        return [rng.normal(size=(2, 3)), rng.normal(size=(2, 3))]
    if op == "log":
        return [rng.uniform(0.5, 3.0, size=(2, 3))]
    if op == "softmax_cross_entropy":
        onehot = np.zeros((3, 2))
        onehot[np.arange(3), rng.integers(0, 2, 3)] = 1.0
        return [rng.normal(size=(3, 2)), onehot]
    if op == "embedding_mean":
        return [rng.normal(size=(5, 3))]
    if op == "dense":
        # a broadcast row bias or a full (3, 2) bias, in turn at random
        bias = rng.normal(size=(2,)) if rng.random() < 0.5 else rng.normal(size=(3, 2))
        return [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), bias]
    return [rng.normal(size=(2, 3))]


def _build_for_op(op, rng):
    seqs = tuple(tuple(rng.integers(0, 5, size=rng.integers(1, 4))) for _ in range(3))
    # post-matmul sink collapsing the op output to a scalar
    sink = rng.normal(size=(2, 1)) if op in ("matmul", "dense") else rng.normal(size=(3, 1))
    act = (None, "tanh", "relu")[rng.integers(3)] if op == "dense" else None

    def build(xs):
        t = Tape()
        ids = [t.leaf(x) for x in xs]
        if op == "matmul":
            out = t.matmul(ids[0], ids[1])
        elif op == "concat":
            out = t.concat(ids[0], ids[1], axis=1)
        elif op == "add":
            out = t.add(ids[0], ids[1])
        elif op == "scale":
            out = t.scale(ids[0], 1.7)
        elif op == "negate":
            out = t.negate(ids[0])
        elif op == "tanh":
            out = t.tanh(ids[0])
        elif op == "relu":
            out = t.relu(ids[0])
        elif op == "log":
            out = t.log(ids[0])
        elif op == "softmax":
            out = t.softmax(ids[0])
        elif op == "reduce_sum":
            out = ids[0]
        elif op == "grl":
            out = t.grl(ids[0], 0.7)
        elif op == "embedding_mean":
            out = t.embedding_mean(ids[0], seqs)
        elif op == "dense":
            out = t.dense(ids[0], ids[1], ids[2], act)
        elif op == "softmax_cross_entropy":
            return t, ids, t.softmax_cross_entropy(ids[0], ids[1])
        else:
            raise AssertionError(op)
        if op in ("matmul", "embedding_mean", "dense"):
            loss = t.reduce_sum(t.matmul(out, t.leaf(sink)))
        else:
            loss = t.reduce_sum(out)
        return t, ids, loss

    return build


@pytest.mark.parametrize("op", [o for o in DIFFERENTIABLE_OPS if o != "grl"])
def test_op_gradients_match_finite_differences(op):
    # 100 random points per op, relative error below 1e-5
    rng = np.random.default_rng(zlib.crc32(op.encode()))
    worst = 0.0
    for _ in range(100):
        build = _build_for_op(op, rng)
        xs = _rand_inputs(rng, op)
        worst = max(worst, finite_diff_check(build, xs, eps=1e-5))
    assert worst < 1e-5


def test_relu_gradient_excludes_kink():
    # finite differences at the relu kink are meaningless; sample away from 0
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = rng.normal(size=(2, 3))
        x[np.abs(x) < 1e-3] += 0.1

        def build(xs):
            t = Tape()
            nid = t.leaf(xs[0])
            return t, [nid], t.reduce_sum(t.relu(nid))

        assert finite_diff_check(build, [x], eps=1e-6) < 1e-5


def test_grl_forward_identity_backward_reversal():
    for lam in (0.0, 1.0, 2.5):
        t = Tape()
        x = t.leaf([[3.0]])
        y = t.grl(x, lam)
        loss = t.reduce_sum(t.matmul(y, y))  # f = x^2 through the reversal
        np.testing.assert_array_equal(t.value(y), [[3.0]])
        g = backward(t, loss)
        np.testing.assert_allclose(g[x], [[-lam * 6.0]], atol=1e-12)


def test_grl_rejects_negative_lambda():
    # and a non-finite one: -inf * 0.0 in the sweep would be NaN
    t = Tape()
    x = t.leaf([1.0])
    for lam in (-0.5, np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match=f"^grl: lambda must be finite and >= 0, got {lam}$"):
            t.grl(x, lam)
    assert len(t) == 1


def test_detach_breaks_gradient_flow():
    # y = detach(x)*x at x=3: gradient is 3 (not 6)
    t = Tape()
    x = t.leaf([[3.0]])
    d = t.detach(x)
    loss = t.reduce_sum(t.matmul(d, x))
    g = backward(t, loss)
    np.testing.assert_allclose(g[x], [[3.0]], atol=0)


def test_detach_of_constant_has_zero_gradient():
    t = Tape()
    c = t.leaf([[2.0]])
    d = t.detach(c)
    loss = t.reduce_sum(t.matmul(d, d))
    g = backward(t, loss)
    np.testing.assert_array_equal(g[c], [[0.0]])


def test_detach_equals_constant_replacement():
    # gradients upstream of a detached node match the graph where the
    # detached subtree is replaced by a constant leaf
    rng = np.random.default_rng(42)
    for _ in range(20):
        x_val = rng.normal(size=(2, 2))
        w_val = rng.normal(size=(2, 2))

        t1 = Tape()
        x1 = t1.leaf(x_val)
        w1 = t1.leaf(w_val)
        h1 = t1.tanh(t1.matmul(x1, w1))
        mixed1 = t1.matmul(h1, t1.detach(t1.relu(h1)))
        g1 = backward(t1, t1.reduce_sum(mixed1))

        t2 = Tape()
        x2 = t2.leaf(x_val)
        w2 = t2.leaf(w_val)
        h2 = t2.tanh(t2.matmul(x2, w2))
        const = t2.leaf(np.maximum(t2.value(h2), 0.0))
        mixed2 = t2.matmul(h2, const)
        g2 = backward(t2, t2.reduce_sum(mixed2))

        np.testing.assert_array_equal(g1[x1], g2[x2])
        np.testing.assert_array_equal(g1[w1], g2[w2])


def test_backward_linear_in_seed():
    # grad(a*f + b*g) == a*grad(f) + b*grad(g) within 1e-12
    rng = np.random.default_rng(3)
    x_val = rng.normal(size=(2, 3))
    a, b = 1.3, -0.7

    def graph():
        t = Tape()
        x = t.leaf(x_val)
        f = t.reduce_sum(t.tanh(x))
        g = t.reduce_sum(t.relu(x))
        return t, x, f, g

    t, x, f, g = graph()
    combo = t.add(t.scale(f, a), t.scale(g, b))
    grad_combo = backward(t, combo)[x]
    grad_f = backward(t, f)[x]
    grad_g = backward(t, g)[x]
    np.testing.assert_allclose(grad_combo, a * grad_f + b * grad_g, atol=1e-12)


def test_three_layer_mlp_finite_difference():
    rng = np.random.default_rng(7)
    x = rng.normal(size=(2, 3))
    w1, w2, w3 = rng.normal(size=(3, 4)), rng.normal(size=(4, 4)), rng.normal(size=(4, 1))

    def build(xs):
        t = Tape()
        ids = [t.leaf(v) for v in xs]
        h = t.tanh(t.matmul(ids[0], ids[1]))
        h = t.relu(t.matmul(h, ids[2]))
        out = t.matmul(h, ids[3])
        return t, ids, t.reduce_sum(out)

    assert finite_diff_check(build, [x, w1, w2, w3], eps=1e-5) < 1e-5


def test_quadratic_finite_difference_exact_to_roundoff():
    # central differences are exact for quadratics; x=(1,2) as a bilinear form
    def build(xs):
        t = Tape()
        row = t.leaf(xs[0])
        col = t.leaf(xs[1])
        return t, [row, col], t.reduce_sum(t.matmul(row, col))

    err = finite_diff_check(build, [np.array([[1.0, 2.0]]), np.array([[1.0], [2.0]])], eps=1e-5)
    assert err < 1e-8


def test_two_layer_net_cross_entropy_finite_difference():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(3, 4))
    w1, w2 = rng.normal(size=(4, 4)), rng.normal(size=(4, 2))
    y = np.zeros((3, 2))
    y[np.arange(3), rng.integers(0, 2, 3)] = 1.0

    def build(xs):
        t = Tape()
        ids = [t.leaf(v) for v in xs]
        h = t.tanh(t.matmul(ids[0], ids[1]))
        logits = t.matmul(h, ids[2])
        return t, ids, t.softmax_cross_entropy(logits, t.leaf(y))

    assert finite_diff_check(build, [x, w1, w2], eps=1e-5) < 1e-5


def test_finite_diff_check_rejects_bad_eps():
    def build(xs):
        t = Tape()
        x = t.leaf(xs[0])
        return t, [x], t.reduce_sum(x)

    with pytest.raises(ValueError):
        finite_diff_check(build, [np.array([1.0])], eps=0.0)


def test_backward_is_deterministic():
    rng = np.random.default_rng(11)
    t = Tape()
    x = t.leaf(rng.normal(size=(3, 3)))
    h = t.tanh(t.matmul(x, x))
    s = t.softmax(h)
    loss = t.reduce_sum(s)
    g1 = backward(t, loss)
    g2 = backward(t, loss)
    for a, b in zip(g1, g2):
        np.testing.assert_array_equal(a, b)


@pytest.mark.parametrize(
    "table_shape, sequences, error",
    [
        ((4, 2), [(0, 4)], IndexError),
        ((4, 2), [(0, -1)], IndexError),
        ((4, 2), [(0, 1), ()], ShapeError),
        ((4, 2), [], ShapeError),
        ((4,), [(0, 1)], ShapeError),
    ],
    ids=["id_past_vocab", "negative_id", "empty_sequence", "empty_batch", "table_not_2d"],
)
def test_embedding_mean_out_of_vocabulary(table_shape, sequences, error):
    t = Tape()
    table = t.leaf(np.zeros(table_shape))
    with pytest.raises(error):
        t.embedding_mean(table, sequences)
    assert len(t) == 1  # rejected before the op recorded a value


def test_nonfinite_forward_names_op_and_node():
    t = Tape()
    x = t.leaf([[1e200]])
    with pytest.raises(NonFiniteError, match=r"op 'matmul' \(node 1\)"):
        t.matmul(x, x)


def test_nonfinite_gradient_names_op_and_node():
    # log is finite at 1e-310 but its gradient 1/x overflows
    t = Tape()
    x = t.leaf([1e-310])
    loss = t.reduce_sum(t.log(x))
    with pytest.raises(NonFiniteError, match=r"op 'log' \(node 1\) .* gradient for input node 0"):
        backward(t, loss)


@pytest.mark.parametrize("wrt", [None, (0,)])
def test_nonfinite_embedding_gradient_names_op_and_node(wrt):
    # two sequences read row 0, each with weight 1e308: the forward is
    # finite, the row's gradient sum overflows
    t = Tape()
    table = t.leaf(np.full((3, 2), 1e-10))
    pooled = t.embedding_mean(table, [(0,), (0,), (2,)])
    loss = t.reduce_sum(t.scale(pooled, 1e308))
    with pytest.raises(NonFiniteError, match=r"op 'embedding_mean' \(node 1\) .* gradient for input node 0"):
        backward(t, loss, wrt=wrt)


@pytest.mark.parametrize("wrt", [None, (0,), (0, 1)])
def test_nonfinite_frontier_gradient_names_op_node_and_input(wrt):
    # x is zero, so the forward is finite; x's gradient sums two 1e308
    # weights per row and overflows
    t = Tape()
    x = t.leaf(np.zeros((3, 2)))
    w = t.leaf(np.full((2, 2), 1e308))
    out = t.dense(x, w, t.leaf(np.zeros(2)))
    loss = t.reduce_sum(out)
    with pytest.raises(NonFiniteError, match=r"op 'dense' \(node 3\) .* gradient for input node 0"):
        backward(t, loss, wrt=wrt)
    # off the frontier, x's gradient is never computed
    (gw,) = backward(t, loss, wrt=(w,))
    assert not gw.any()


@pytest.mark.parametrize("wrt", [None, (0,)])
@pytest.mark.parametrize(
    "value, read",
    [
        pytest.param([1e-10], lambda t, x: x, id="dense"),
        pytest.param([[1e-10]], lambda t, x: t.embedding_mean(x, [(0,)]), id="row_sparse"),
    ],
)
def test_gradient_that_overflows_when_summed_raises(value, read, wrt):
    # each read of x gets a finite 1e308 gradient; their sum overflows
    t = Tape()
    x = t.leaf(value)
    loss = t.add(t.reduce_sum(t.scale(read(t, x), 1e308)), t.reduce_sum(t.scale(read(t, x), 1e308)))
    with pytest.raises(NonFiniteError, match=r"op 'leaf' \(node 0\) has a gradient that summed to a non-finite value"):
        backward(t, loss, wrt=wrt)
    # a finite sum passes
    t = Tape()
    x = t.leaf(value)
    loss = t.add(t.reduce_sum(t.scale(read(t, x), 1e307)), t.reduce_sum(t.scale(read(t, x), 1e307)))
    (g,) = backward(t, loss, wrt=(x,))
    assert g.tolist() == np.full_like(np.asarray(value), 2e307).tolist()


def test_nonfinite_dense_preactivation_names_op_node_and_stage():
    # tanh(inf) is a finite 1.0: only the pre-activation shows the overflow
    t = Tape()
    x = t.leaf([[1e200]])
    b = t.leaf([0.0])
    with pytest.raises(NonFiniteError, match=r"op 'dense' \(node 2\) produced a non-finite pre-activation \(matmul \+ bias\)"):
        t.dense(x, x, b, "tanh")
    assert len(t) == 2


# ``record`` does not test the outputs of these ops: each must map extreme
# finite inputs to finite outputs (a dense raises on its pre-activation)
EXTREME = np.array([[1.7e308, -1.7e308], [-1.7e308, 1.7e308]])
UNCHECKED_CASES = {
    "dense": lambda t, x: [t.dense(x, t.leaf(np.eye(2)), t.leaf(np.zeros(2)), act) for act in (None, "tanh", "relu")],
    "tanh": lambda t, x: [t.tanh(x)],
    "relu": lambda t, x: [t.relu(x)],
    "concat": lambda t, x: [t.concat(x, x, axis=0), t.concat(x, x, axis=1)],
    "grl": lambda t, x: [t.grl(x, 1e308)],
    "detach": lambda t, x: [t.detach(x)],
    "negate": lambda t, x: [t.negate(x)],
}


def test_unchecked_ops_are_the_cased_ones():
    assert set(UNCHECKED_CASES) == _FINITE_IF_INPUTS_FINITE


@pytest.mark.parametrize("op", sorted(UNCHECKED_CASES))
def test_unchecked_op_maps_extreme_finite_inputs_to_finite_outputs(op):
    t = Tape()
    for nid in UNCHECKED_CASES[op](t, t.leaf(EXTREME)):
        assert t.nodes[nid].op == op
        assert np.isfinite(t.value(nid)).all()


@pytest.mark.parametrize(
    "op, build",
    [
        ("add", lambda t, x: t.add(x, x)),
        ("scale", lambda t, x: t.scale(x, 2.0)),
        ("matmul", lambda t, x: t.matmul(x, x)),
        ("log", lambda t, x: t.log(t.leaf([0.0, 1.0]))),  # log cannot overflow; log(0) is its -inf
    ],
)
def test_checked_op_still_raises_on_a_nonfinite_output(op, build):
    t = Tape()
    x = t.leaf(EXTREME)
    with pytest.raises(NonFiniteError, match=rf"^op '{op}' \(node \d\) produced a non-finite value$"):
        build(t, x)


@pytest.mark.parametrize("act", ["sigmoid", "", "Tanh"])
def test_dense_rejects_unknown_activation(act):
    t = Tape()
    x = t.leaf(np.ones((2, 3)))
    w = t.leaf(np.ones((3, 2)))
    b = t.leaf(np.zeros(2))
    with pytest.raises(ValueError, match="unknown activation"):
        t.dense(x, w, b, act)
    assert len(t) == 3


def test_dense_shape_errors_match_unfused_ops():
    t = Tape()
    x = t.leaf(np.ones((2, 3)))
    w = t.leaf(np.ones((4, 2)))
    b = t.leaf(np.zeros(2))
    with pytest.raises(ShapeError, match="matmul: shapes"):
        t.dense(x, w, b)
    w = t.leaf(np.ones((3, 2)))
    with pytest.raises(ShapeError, match="add: shapes"):
        t.dense(x, w, t.leaf(np.zeros(3)))


def test_summing_row_sparse_gradients_over_other_rows_leaves_numpy_ma_unimported():
    # a fresh interpreter: pytest or an earlier test may hold numpy.ma. Two
    # lookups of one table over other ids make the table's gradient a sum
    # of row-sparse terms with different rows
    script = textwrap.dedent(
        """
        import sys
        import numpy as np
        from latopt.autodiff import Tape, backward

        t = Tape()
        table = t.leaf(np.arange(12.0).reshape(6, 2))
        a = t.embedding_mean(table, [(0, 1), (1,)])
        b = t.embedding_mean(table, [(3,), (1, 4)])
        (g,) = backward(t, t.reduce_sum(t.add(a, b)), wrt=(table,))
        assert g.tolist() == [[0.5, 0.5], [2.0, 2.0], [0.0, 0.0], [1.0, 1.0], [0.5, 0.5], [0.0, 0.0]], g
        assert "numpy.ma" not in sys.modules
        """
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
