"""Property tests: the packed embedding op, its row-sparse gradient in the
sweep, the frontier backward, the fused dense op and touched-row Adam agree
bit for bit with the straightforward computations they replace, and
checkpoints round-trip exactly while tampered ones are refused."""

import json
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from latopt.autodiff import Tape, _accumulate, _densify, _RowGrad, backward  # noqa: E402
from latopt.model import ModelConfig, init_params, load_checkpoint, onehot, save_checkpoint  # noqa: E402
from latopt.optim import AdamState, adam_step  # noqa: E402
from latopt.training import domain_loss_graph, latent_step, strategy_forward  # noqa: E402

TINY = ModelConfig(vocab_size=12, embed_dim=3, latent_dim=4)
PROPERTY = settings(max_examples=60, deadline=None)


def reference_mean(table, sequences):
    return np.stack([table[np.asarray(s)].mean(axis=0) for s in sequences])


def reference_grad(table, sequences, g):
    grad = np.zeros_like(table)
    for i, s in enumerate(sequences):
        np.add.at(grad, np.asarray(s), g[i] / len(s))
    return grad


@st.composite
def embedding_cases(draw):
    """(table, sequences, head weights, labels): ragged sequences over a
    small vocabulary, so ids repeat within and across sequences. The table
    has at least two columns: numpy's ``mean(axis=0)`` sums a single
    column pairwise, so it is not an in-order reference there."""
    vocab = draw(st.integers(1, 12))
    dim = draw(st.integers(2, 5))
    sequences = draw(
        st.lists(st.lists(st.integers(0, vocab - 1), min_size=1, max_size=24), min_size=1, max_size=8)
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    table = rng.normal(size=(vocab, dim)) * 10.0 ** rng.integers(-3, 4)
    head = rng.normal(size=(dim, 2))
    labels = rng.integers(0, 2, size=len(sequences))
    return table, [tuple(s) for s in sequences], head, labels


def _case(sequences, vocab=6, dim=4):
    rng = np.random.default_rng(len(sequences))
    table = rng.normal(size=(vocab, dim))
    return table, sequences, rng.normal(size=(dim, 2)), rng.integers(0, 2, size=len(sequences))


@PROPERTY
@given(embedding_cases())
@example(_case([(2,)]))  # a batch of one sequence of length 1
@example(_case([(1,), (4,), (0,)]))  # every sequence of length 1
@example(_case([(3, 3, 3, 3, 3, 3, 3, 3, 3), (3,), (5, 3, 5)]))  # repeated ids
def test_embedding_mean_matches_per_sequence_reference(case):
    table, sequences, head, labels = case
    t = Tape()
    tid = t.leaf(table)
    pooled = t.embedding_mean(tid, sequences)
    loss = t.softmax_cross_entropy(t.matmul(pooled, t.leaf(head)), t.leaf(onehot(labels)))
    assert t.value(pooled).tobytes() == reference_mean(table, sequences).tobytes()
    grads = backward(t, loss)
    assert grads[tid].tobytes() == reference_grad(table, sequences, grads[pooled]).tobytes()


# --- row-sparse embedding gradient in the sweep -------------------------------


def _sequences_over(rng, pool, n):
    """n sequences that together use every id of ``pool`` and no other."""
    tokens = list(rng.permutation(pool)) + list(rng.choice(pool, size=rng.integers(0, 8)))
    cuts = np.sort(rng.choice(np.arange(1, len(tokens)), size=min(n, len(tokens)) - 1, replace=False))
    return [tuple(int(x) for x in part) for part in np.split(np.array(tokens), cuts)]


def _table_case(seed, overlap, matmul, through, vocab=8, dim=3):
    """Two embedding_mean ops on one table whose id sets are equal,
    overlapping or disjoint; the table may also feed a matmul recorded
    before or after them, and may be a tanh or scale node over the leaf."""
    rng = np.random.default_rng(seed)
    ids = rng.permutation(vocab)
    half = vocab // 2
    pool_a = ids[: half + 1]
    pool_b = {"equal": pool_a, "overlap": ids[half - 1 :], "disjoint": ids[half + 1 :]}[overlap]
    seqs = [_sequences_over(rng, pool, int(rng.integers(1, 5))) for pool in (pool_a, pool_b)]
    table = rng.normal(size=(vocab, dim)) * 10.0 ** rng.integers(-3, 3)
    return table, seqs, matmul, through, rng.normal(size=(2, vocab)), int(rng.integers(0, 2**31))


@st.composite
def table_cases(draw):
    return _table_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.sampled_from(["equal", "overlap", "disjoint"])),
        draw(st.sampled_from([None, "before", "after"])),
        draw(st.sampled_from([None, "tanh", "scale"])),
        draw(st.integers(3, 12)),
        draw(st.integers(2, 4)),
    )


def _table_graph(case):
    """(tape, leaf, table node, readers, loss), ``readers`` the nodes that
    read the table, in recording order, with their kind and extra input."""
    table, seqs, matmul, through, x, seed = case
    rng = np.random.default_rng(seed)
    t = Tape()
    leaf = t.leaf(table)
    tab = {None: lambda n: n, "tanh": t.tanh, "scale": lambda n: t.scale(n, -1.5)}[through](leaf)
    readers, terms = [], []

    def read_matmul():
        mm = t.matmul(t.leaf(x), tab)
        readers.append(("matmul", mm, x))
        terms.append(t.reduce_sum(t.tanh(mm)))

    if matmul == "before":
        read_matmul()
    for s in seqs:
        pooled = t.embedding_mean(tab, s)
        readers.append(("embedding_mean", pooled, s))
        head = t.leaf(rng.normal(size=(table.shape[1], 2)))
        terms.append(t.softmax_cross_entropy(t.matmul(pooled, head), t.leaf(onehot(rng.integers(0, 2, len(s))))))
    if matmul == "after":
        read_matmul()
    loss = terms[0]
    for term in terms[1:]:
        loss = t.add(loss, term)
    return t, leaf, tab, readers, loss


def reference_table_grad(t, tab, readers, upstream):
    """The dense gradient at the table: np.add.at per embedding op, x.T @ g
    per matmul, added from a +0.0 buffer in the sweep's order (last reader
    first)."""
    total = np.zeros_like(t.value(tab))
    for kind, nid, extra in reversed(readers):
        g = upstream[nid]
        total = total + (reference_grad(t.value(tab), extra, g) if kind == "embedding_mean" else extra.T @ g)
    return total


@PROPERTY
@given(table_cases())
@example(_table_case(1, "equal", None, None))  # same rows: added in place
@example(_table_case(2, "overlap", None, None))  # rows merged by union
@example(_table_case(3, "disjoint", None, None))
@example(_table_case(4, "overlap", "before", None))  # dense into row-sparse: the matmul term comes last
@example(_table_case(5, "disjoint", "after", None))  # row-sparse into dense
@example(_table_case(6, "overlap", "after", "tanh"))  # a row-sparse g reaches tanh's backward
@example(_table_case(7, "equal", None, "scale"))
def test_row_sparse_table_gradient_matches_dense_reference(case):
    t, leaf, tab, readers, loss = _table_graph(case)
    full = backward(t, loss)
    want = reference_table_grad(t, tab, readers, full)
    assert _same(full[tab], want)
    g_leaf, g_tab = backward(t, loss, wrt=(leaf, tab))
    assert _same(g_tab, want)
    if tab == leaf:
        assert _same(full[leaf], want) and _same(g_leaf, want)
        return
    through = case[3]
    out = t.value(tab)
    ref = want * (1.0 - out * out) if through == "tanh" else want * -1.5
    assert _same(full[leaf], 0.0 + ref) and _same(g_leaf, 0.0 + ref)
    (g_only,) = backward(t, loss, wrt=(leaf,))
    assert _same(g_only, full[leaf])


@st.composite
def gradient_terms(draw):
    """Dense and row-sparse terms for one (rows, cols) node, with zeros and
    -0.0 among their values."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    terms = []
    for sparse in draw(st.lists(st.booleans(), min_size=1, max_size=5)):
        keep = np.flatnonzero(rng.random(rows) < 0.5) if sparse else None
        vals = rng.normal(size=(rows if keep is None else keep.size, cols))
        vals[rng.random(vals.shape) < 0.3] = 0.0
        vals[rng.random(vals.shape) < 0.3] = -0.0
        terms.append(vals if keep is None else _RowGrad(keep, vals))
    return np.zeros((rows, cols)), terms


@PROPERTY
@given(gradient_terms())
def test_row_sparse_accumulation_matches_dense_sum(case):
    # the sweep's rule for any mix of terms: bitwise the dense sum from a
    # +0.0 buffer, and no term's own array is written to
    like, terms = case
    before = [(t.vals if isinstance(t, _RowGrad) else t).copy() for t in terms]
    want, acc = np.zeros_like(like), None
    for term in terms:
        want = want + _densify(term, like)
        acc = _accumulate(acc, term, like)
    assert _same(_densify(acc, like), want)
    for term, saved in zip(terms, before):
        assert _same(term.vals if isinstance(term, _RowGrad) else term, saved)


@st.composite
def paired_batches(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    b = draw(st.integers(1, 5))

    def batch():
        seqs = tuple(tuple(rng.integers(0, TINY.vocab_size, size=rng.integers(1, 7))) for _ in range(b))
        return seqs, onehot(rng.integers(0, 2, size=b))

    return init_params(TINY, int(rng.integers(0, 2**31))), batch(), batch()


def _same(a, b):
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@PROPERTY
@given(paired_batches(), st.sampled_from(["adv+lo", "mtl+lo"]), st.sampled_from([0.01, 0.25, 1.0]))
def test_frontier_backward_matches_full_sweep(case, strategy, gamma):
    params, batch_s, batch_t = case
    refs = strategy_forward(params, batch_s, batch_t, strategy, lam=0.6, gamma=gamma).refs
    losses = [refs.objective, refs.loss_s, refs.loss_t]
    if strategy == "adv+lo":
        losses.append(refs.loss_d)
    for loss in losses:
        full = backward(refs.tape, loss)
        g_s, g_t = backward(refs.tape, loss, wrt=(refs.z_s, refs.z_t))
        assert _same(g_s, full[refs.z_s]) and _same(g_t, full[refs.z_t])
    # the lookahead step is data, so the source task loss does not reach z_t
    if strategy == "mtl+lo":
        _, g_t = backward(refs.tape, refs.loss_s, wrt=(refs.z_s, refs.z_t))
        assert not g_t.any()


@PROPERTY
@given(paired_batches(), st.sampled_from([0.01, 0.25, 1.0]), st.sampled_from([1.0, -1.0]))
def test_latent_step_matches_full_sweep_step(case, gamma, sign):
    params, batch_s, batch_t = case
    refs = domain_loss_graph(params, batch_s, batch_t)
    tape, z_s, z_t = refs.tape, refs.z_s, refs.z_t
    full = backward(tape, refs.loss_d)
    pair = latent_step(tape, z_s, z_t, refs.loss_d, gamma, sign)
    assert _same(pair.z_s_prime, tape.value(z_s) + sign * gamma * full[z_s])
    assert _same(pair.z_t_prime, tape.value(z_t) + sign * gamma * full[z_t])


# --- fused dense op ---------------------------------------------------------


def unfused_dense(t, x, w, b, act):
    h = t.add(t.matmul(x, w), b)
    return {None: lambda n: n, "tanh": t.tanh, "relu": t.relu}[act](h)


def _dense_case(seed, n, k, m, act, row_bias=True, dead="none", zero_heads=(False, False)):
    """(x, W, b, heads, act): the bias is a broadcast row or a full matrix;
    relu units can be dead, and a zero head makes the upstream gradient of
    its layer all zero."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, k)) * 10.0 ** rng.integers(-2, 2)
    w = rng.normal(size=(k, m))
    b = rng.normal(size=(m,) if row_bias else (n, m))
    if dead != "none":
        cols = rng.random(m) < 0.5 if dead == "some" else np.ones(m, dtype=bool)
        b[..., cols] = -1e3  # pre-activation negative: dead relu units
    heads = [np.zeros((m, 1)) if zero else rng.normal(size=(m, 1)) for zero in zero_heads]
    return x, w, b, heads, act


@st.composite
def dense_cases(draw):
    return _dense_case(
        draw(st.integers(0, 2**32 - 1)),
        draw(st.integers(1, 8)),
        draw(st.integers(1, 5)),
        draw(st.integers(1, 5)),
        draw(st.sampled_from([None, "tanh", "relu"])),
        draw(st.booleans()),
        draw(st.sampled_from(["none", "some", "all"])),
        (draw(st.booleans()), draw(st.booleans())),
    )


def _dense_graph(case, fused):
    x, w, b, heads, act = case
    t = Tape()
    ids = [t.leaf(v) for v in (x, w, b)]
    layer = t.dense if fused else (lambda *a: unfused_dense(t, *a))
    # two layers share x, W and b, so their gradients add up across nodes
    outs = [layer(*ids, act) for _ in heads]
    terms = [t.matmul(out, t.leaf(head)) for out, head in zip(outs, heads)]
    loss = t.reduce_sum(t.add(*terms))
    return t, ids, outs[0], loss


@PROPERTY
@given(dense_cases())
@example(_dense_case(1, 7, 3, 4, "tanh"))  # bias gradient summed over 7 rows
@example(_dense_case(2, 6, 3, 4, "relu", dead="some"))  # dead units: g * False is -0.0 for g < 0
@example(_dense_case(3, 5, 2, 3, None, row_bias=False, zero_heads=(False, True)))
@example(_dense_case(4, 4, 3, 2, "relu", dead="all"))  # an all-zero pre-activation gradient
def test_fused_dense_matches_unfused_chain(case):
    ft, fids, fout, floss = _dense_graph(case, fused=True)
    ut, uids, uout, uloss = _dense_graph(case, fused=False)
    assert _same(ft.value(fout), ut.value(uout))
    assert ft.value(floss).tobytes() == ut.value(uloss).tobytes()
    fgrads, ugrads = backward(ft, floss), backward(ut, uloss)
    frontier = backward(ft, floss, wrt=fids)
    for fid, uid, fg in zip(fids, uids, frontier):
        assert _same(fgrads[fid], ugrads[uid]) and _same(fg, ugrads[uid])


# --- touched-row Adam ---------------------------------------------------------


def dense_adam(p, m, v, g, lr, t, beta1=0.9, beta2=0.999, eps=1e-8):
    """The dense Adam update every row of every tensor takes."""
    c1 = 1.0 - beta1**t
    c2 = 1.0 - beta2**t
    m *= beta1
    m += (1.0 - beta1) * g
    v *= beta2
    v += (1.0 - beta2) * g * g
    p -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


@st.composite
def adam_runs(draw):
    """A table and a bias over >= 20 steps. Rows enter late, go back to a
    zero (sometimes -0.0) gradient, and the state may start pre-filled."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    steps = draw(st.integers(20, 30))
    lr = draw(st.sampled_from([1e-3, 0.5, 0.0, -1e-3]))
    start = rng.integers(0, steps + 5, size=rows)  # some rows never enter
    grads = []
    for t in range(steps):
        on = (start <= t) & (rng.random(rows) < 0.6)
        table = np.where(on[:, None], rng.normal(size=(rows, cols)), 0.0)
        table[rng.random((rows, cols)) < 0.2] *= -0.0
        grads.append({"table": table, "bias": rng.normal(size=cols) * (rng.random() < 0.7)})
    prefill = None
    if draw(st.booleans()):
        keep = rng.random(rows) < 0.4
        m = np.where(keep[:, None], rng.normal(size=(rows, cols)), 0.0)
        v = np.where(keep[:, None], rng.random((rows, cols)), 0.0)
        m[~keep & (rng.random(rows) < 0.3)] = -0.0  # a sign bit a dense step would clear
        prefill = (int(rng.integers(1, 50)), m, v)
    params = {"table": rng.normal(size=(rows, cols)), "bias": rng.normal(size=cols)}
    params["table"][rng.random((rows, cols)) < 0.1] = -0.0
    return params, grads, lr, prefill


def _late_rows_run(lr, prefill=False, steps=20):
    """Row 0 is live from the first step. Row 1 holds -0.0 until one of its
    entries turns nonzero at the last step; row 2 holds -0.0 throughout."""
    rng = np.random.default_rng(steps)
    grads = []
    for t in range(steps):
        table = np.full((3, 2), -0.0)
        table[0] = rng.normal(size=2)
        if t == steps - 1:
            table[1, 1] = rng.normal()
        grads.append({"table": table, "bias": rng.normal(size=2)})
    params = {"table": rng.normal(size=(3, 2)), "bias": rng.normal(size=2)}
    m, v = np.zeros((3, 2)), np.zeros((3, 2))
    m[0], v[0] = (0.1, -0.2), (0.01, 0.04)  # only row 0 has moments
    return params, grads, lr, (7, m, v) if prefill else None


@PROPERTY
@given(adam_runs())
@example(_late_rows_run(1e-3))
@example(_late_rows_run(0.5, prefill=True))
@example(_late_rows_run(-1e-3, steps=25))
def test_touched_row_adam_matches_dense_adam(run):
    params, grads, lr, prefill = run
    state = AdamState()
    ref_p = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    t = 0
    if prefill is not None:
        t, m, v = prefill
        state.step = t
        state.m["table"], state.v["table"] = m.copy(), v.copy()
        ref_m["table"], ref_v["table"] = m.copy(), v.copy()
    for g in grads:
        t += 1
        adam_step(state, params, g, lr)
        for name in params:
            dense_adam(ref_p[name], ref_m[name], ref_v[name], g[name], lr, t)
            assert _same(params[name], ref_p[name])
            assert _same(state.m[name], ref_m[name]) and _same(state.v[name], ref_v[name])
    assert state.state_scalars() == 2 * sum(p.size for p in params.values())


# --- checkpoints ----------------------------------------------------------------

TAMPERS = ("move", "drop", "reshape", "truncate", "unknown")


@st.composite
def checkpoint_cases(draw):
    cfg = ModelConfig(
        vocab_size=draw(st.integers(1, 6)), embed_dim=draw(st.integers(1, 4)), latent_dim=draw(st.integers(1, 4))
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    params = init_params(cfg, int(rng.integers(0, 2**31)))
    for name, arr in params.tensors.items():
        params.tensors[name] = rng.normal(size=arr.shape) * 10.0 ** rng.integers(-300, 300)
    name = draw(st.sampled_from(sorted(params.tensors)))
    return params, name, draw(st.sampled_from((None,) + TAMPERS))


def _tamper(payload, name, how):
    groups = payload["groups"]
    home = next(g for g, members in groups.items() if name in members)
    spec = groups[home][name]
    if how == "move":
        other = next(g for g in groups if g != home)
        groups[other][name] = groups[home].pop(name)
    elif how == "drop":
        del groups[home][name]
    elif how == "reshape":
        spec["shape"] = spec["shape"][::-1] + [1]
    elif how == "truncate":
        spec["data"] = spec["data"][:-1]
    elif how == "unknown":
        groups[home][name + "_extra"] = groups[home].pop(name)


@PROPERTY
@given(checkpoint_cases())
def test_checkpoint_round_trip_and_tampering(case):
    params, name, tamper = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_checkpoint(params, path)
        if tamper is None:
            loaded = load_checkpoint(path)
            assert loaded.config == params.config and list(loaded.tensors) == list(params.tensors)
            for key, arr in params.tensors.items():
                assert _same(loaded.tensors[key], arr)
            return
        payload = json.loads(path.read_text())
        _tamper(payload, name, tamper)
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=repr(name + "_extra" if tamper == "unknown" else name)):
            load_checkpoint(path)
