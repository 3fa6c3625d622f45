"""Property tests: the embedding op on packed batches and sub-batches, its
row-sparse gradient in the sweep, batches gathered from a packed
split, the frontier backward, the fused dense op and touched-row Adam agree
bit for bit with the straightforward computations they replace, the
reversal at lambda 0 leaves mtl's training bitwise as it is, the finite
checks raise exactly on a non-finite entry, and checkpoints round-trip
exactly while tampered ones are refused."""

import contextlib
import json
import math
import re
import tempfile
import warnings
from dataclasses import asdict
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from latopt import autodiff, training  # noqa: E402
from latopt.autodiff import (  # noqa: E402
    NonFiniteError,
    Packed,
    ShapeError,
    Tape,
    _accumulate,
    _densify,
    _RowGrad,
    backward,
    pack,
)
from latopt.data import CHUNK, Example, GeneratorConfig, _exact_count_labels, generate_domain_pair  # noqa: E402
from latopt.model import (  # noqa: E402
    CHECKPOINT_VERSION,
    SAVE_CHUNK,
    ModelConfig,
    ModelParams,
    init_params,
    load_checkpoint,
    onehot,
    predict,
    save_checkpoint,
)
from latopt.optim import AdamState, adam_step  # noqa: E402
from latopt.training import (  # noqa: E402
    TrainingConfig,
    batch_schedule,
    domain_loss_graph,
    latent_step,
    make_batches,
    pack_split,
    strategy_forward,
    train_run,
    trainable_tensors,
)
from latopt.training import paired_batches as pair_up  # noqa: E402

TINY = ModelConfig(vocab_size=12, embed_dim=3, latent_dim=4)
PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


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


def sequential_mean(table, sequences):
    """Each sequence's rows added one position at a time, then divided by
    its length: the order the op must sum in for any number of columns."""
    out = np.empty((len(sequences), table.shape[1]))
    for i, s in enumerate(sequences):
        acc = table[s[0]].copy()
        for token in s[1:]:
            acc += table[token]
        out[i] = acc / len(s)
    return out


@pytest.mark.parametrize("lengths", ["equal", "unequal", "thin_tail", "ones"])
@pytest.mark.parametrize("dim", [1, 16])
@pytest.mark.parametrize("batch", [1, 2, 128])
def test_embedding_mean_forward_matches_sequential_sums(batch, dim, lengths):
    # the positions every sequence reaches are summed in one reduce; a -0.0
    # row keeps a column -0.0 only when the sum starts from -0.0. A thin
    # tail (one sequence of 200 among ones of 1-3) leaves one row at most
    # of the positions after the shortest length; all ones leave none
    rng = np.random.default_rng(batch * 100 + dim)
    for _ in range(5):
        table = rng.normal(size=(40, dim)) * 10.0 ** rng.integers(-3, 4)
        table[rng.random(40) < 0.25] = -0.0
        if lengths == "equal":
            lens = [int(rng.integers(1, 30))] * batch
        elif lengths == "unequal":
            lens = rng.integers(1, 30, size=batch).tolist()
        elif lengths == "thin_tail":
            lens = rng.permutation(rng.integers(1, 4, size=batch - 1).tolist() + [200]).tolist()
        else:
            lens = [1] * batch
        sequences = [rng.integers(0, 40, size=n).tolist() for n in lens]
        t = Tape()
        assert _same(t.value(t.embedding_mean(t.leaf(table), sequences)), sequential_mean(table, sequences))
    t = Tape()
    assert _same(t.value(t.embedding_mean(t.leaf(np.full((3, dim), -0.0)), [[0, 1, 2]] * batch)), np.full((batch, dim), -0.0))


@pytest.mark.parametrize("length", [9, 200])
def test_embedding_mean_of_one_single_column_sequence_is_sequential(length):
    # numpy would reduce a (length, 1, 1) block as one pairwise 1-D sum
    rng = np.random.default_rng(length)
    for _ in range(20):
        table = rng.normal(size=(50, 1))
        sequences = [rng.integers(0, 50, size=length).tolist()]
        t = Tape()
        assert _same(t.value(t.embedding_mean(t.leaf(table), sequences)), sequential_mean(table, sequences))


# --- packed batches ------------------------------------------------------------


def _two_table_graph(tables, batch, head, labels):
    """Both tables read ``batch``; a loss over both pooled outputs."""
    t = Tape()
    leaves = [t.leaf(table) for table in tables]
    pooled = [t.embedding_mean(leaf, batch) for leaf in leaves]
    terms = [t.softmax_cross_entropy(t.matmul(p, t.leaf(head)), t.leaf(onehot(labels))) for p in pooled]
    return t, leaves, pooled, t.add(*terms)


def _check_two_tables(tables, sequences, batch, head, labels):
    """Forward, the full sweep and ``wrt`` sweeps on ``batch`` against the
    per-sequence references on the tuples; returns what it compared."""
    t, leaves, pooled, loss = _two_table_graph(tables, batch, head, labels)
    full = backward(t, loss)
    frontier = backward(t, loss, wrt=leaves)
    seen = []
    for k, (table, leaf, p) in enumerate(zip(tables, leaves, pooled)):
        assert _same(t.value(p), reference_mean(table, sequences))
        want = reference_grad(table, sequences, full[p])
        assert _same(full[leaf], want) and _same(frontier[k], want)
        (alone,) = backward(t, loss, wrt=(leaf,))
        assert _same(alone, want)
        seen.extend((t.value(p), full[leaf]))
    return seen


@PROPERTY
@given(embedding_cases(), st.integers(1, 5))
@example(_case([(3, 3, 3, 3, 3, 3, 3, 3, 3), (3,), (5, 3, 5)]), 2)  # repeated ids
@example(_case([(0, 1), (1, 0), (5,)]), 1)  # equal lengths: a stable length order
def test_packed_embedding_matches_tuple_input(case, extra_rows):
    # one packed batch read by two tables of different vocabulary sizes, on
    # two tapes in turn, against the tuples packed per op
    table, sequences, head, labels = case
    rng = np.random.default_rng(table.shape[0])
    tables = (table, np.vstack([table, rng.normal(size=(extra_rows, table.shape[1]))]))
    from_tuples = _check_two_tables(tables, sequences, sequences, head, labels)
    batch = pack(sequences)
    first = _check_two_tables(tables, sequences, batch, head, labels)
    again = _check_two_tables(tables, sequences, batch, head, labels)
    for a, b, c in zip(from_tuples, first, again):
        assert _same(a, b) and _same(a, c)


@st.composite
def take_cases(draw):
    """Ragged sequences and a selection from them, with repeats, in any order."""
    sequences = draw(st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=12), min_size=1, max_size=10))
    idx = draw(st.lists(st.integers(0, len(sequences) - 1), min_size=1, max_size=12))
    return [tuple(s) for s in sequences], idx


@PROPERTY
@given(take_cases())
@example(([(1, 2, 3), (4,), (5, 6)], [2, 0, 2, 1]))
@example(([(7,), (8,), (9,)], [0, 1]))  # the same lengths, different ids
def test_pack_iteration_and_take_match_packing_the_selection(case):
    sequences, idx = case
    batch = pack(sequences)
    assert pack(batch) is batch and len(batch) == len(sequences)
    assert batch.ids.dtype == np.int64 and not batch.ids.flags.writeable and not batch.lengths.flags.writeable
    rows = list(batch)
    assert all(r.dtype == np.int64 for r in rows) and [tuple(r) for r in rows] == sequences
    chosen = [sequences[i] for i in idx]
    want = pack(chosen)
    for sub in (batch.take(np.array(idx)), pack(rows).take(idx)):
        assert _same(sub.ids, want.ids) and _same(sub.lengths, want.lengths)
        assert [tuple(r) for r in sub] == chosen
    # a sub-batch encodes as its own sequences, forward and backward
    table = np.random.default_rng(len(idx)).normal(size=(10, 3))
    for b, seqs in ((batch, sequences), (batch.take(idx), chosen), (batch.take(idx[::-1]), chosen[::-1])):
        t = Tape()
        leaf = t.leaf(table)
        pooled = t.embedding_mean(leaf, b)
        assert _same(t.value(pooled), reference_mean(table, seqs))
        (grad,) = backward(t, t.reduce_sum(pooled), wrt=(leaf,))
        assert _same(grad, reference_grad(table, seqs, np.ones((len(seqs), 3))))


@pytest.mark.parametrize(
    "ids, lengths",
    [
        (np.arange(5), np.array([2, 2])),  # lengths sum short of the ids
        (np.arange(3), np.array([2, 2])),  # lengths sum past the ids
        (np.arange(4).reshape(2, 2), np.array([2, 2])),  # ids not flat
        (np.arange(4.0), np.array([2, 2])),  # ids not integers
        (np.arange(4), np.array([2.0, 2.0])),  # lengths not integers
        (np.arange(4), np.array([5, -1])),  # a negative length
        (np.arange(0), np.array([], dtype=np.int64)),  # no sequence
    ],
    ids=["short", "long", "2d_ids", "float_ids", "float_lengths", "negative", "empty"],
)
def test_packed_rejects_inconsistent_arrays(ids, lengths):
    with pytest.raises(ShapeError):
        Packed(ids, lengths)


def test_packed_copies_and_leaves_the_callers_arrays_writeable():
    ids, lengths = np.array([3, 1, 2], dtype=np.int32), np.array([1, 2])
    batch = Packed(ids, lengths)
    assert ids.flags.writeable and lengths.flags.writeable
    ids[0] = 9
    assert batch.ids.dtype == np.int64 and [tuple(s) for s in batch] == [(3,), (1, 2)]


def _examples(seed, n, vocab=9):
    rng = np.random.default_rng(seed)
    return [
        (tuple(int(x) for x in rng.integers(0, vocab, size=rng.integers(1, 8))), int(rng.integers(0, 2)))
        for _ in range(n)
    ]


def _tuple_batches(examples, batch_size, rng):
    """Batches as tuples of token tuples, cut from one permutation."""
    order = rng.permutation(len(examples))
    return [
        (tuple(tuple(examples[i][0]) for i in idx), onehot([examples[i][1] for i in idx]))
        for idx in (order[s : s + batch_size] for s in range(0, len(examples) - batch_size + 1, batch_size))
    ]


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 30), st.integers(1, 8))
def test_batches_from_packed_split_match_batches_from_list(seed, n, batch_size):
    examples = _examples(seed, n)
    rngs = [np.random.default_rng(seed) for _ in range(3)]
    want = _tuple_batches(examples, batch_size, rngs[0])
    for split, rng in ((examples, rngs[1]), (pack_split(examples), rngs[2])):
        got = make_batches(split, batch_size, rng)
        assert len(got) == len(want)
        for (seqs, y), (want_seqs, want_y) in zip(got, want):
            assert isinstance(seqs, Packed) and [tuple(s) for s in seqs] == list(want_seqs)
            assert _same(y, want_y)
        assert rng.bit_generator.state == rngs[0].bit_generator.state
    # pairs: the shorter side cycles over reshuffles of the one packed split
    one, other = _examples(seed, n + batch_size), _examples(seed + 1, 2 * n + batch_size)
    pairs = [
        pair_up(a, b, batch_size, np.random.default_rng(seed))
        for a, b in ((one, other), (pack_split(one), pack_split(other)))
    ]
    assert len(pairs[0]) == len(pairs[1])
    for p, q in zip(*pairs):
        for (sa, ya), (sb, yb) in zip(p, q):
            assert _same(sa.ids, sb.ids) and _same(sa.lengths, sb.lengths) and _same(ya, yb)


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(1, 20), st.integers(1, 7))
@example(5, 300, 7)  # more than one of predict's chunks
def test_predict_on_packed_matches_list(seed, n, size):
    params = init_params(TINY, seed % 2**31)
    sequences = [e[0] for e in _examples(seed, n, TINY.vocab_size)]
    want = np.concatenate([predict(params, sequences[s : s + size], "target") for s in range(0, n, size)])
    assert _same(predict(params, sequences, "target"), want)
    assert _same(predict(params, pack(sequences), "target"), want)


def _generated_views(seed, n):
    """The int32 token views of ``n`` generated source examples, and the
    same sequences as tuples of Python ints."""
    cfg = GeneratorConfig(seed=seed, source_train_size=n, target_train_size=1, test_size=1)
    views = [e.tokens for e in generate_domain_pair(cfg)[0].split("train")]
    return views, [tuple(v.tolist()) for v in views]


def test_pack_of_int32_views_equals_pack_of_the_same_tuples():
    views, tuples = _generated_views(9, 300)
    assert all(v.dtype == np.int32 and not v.flags.writeable for v in views)
    want = pack(tuples)
    for got in (pack(views), pack(views[:150] + [list(t) for t in tuples[150:]])):
        assert got.ids.dtype == np.int64 and _same(got.ids, want.ids) and _same(got.lengths, want.lengths)


@pytest.mark.parametrize(
    "sequences, reason",
    [
        ([], "empty batch"),
        ([(1, 2), ()], "empty token sequence"),
        ([np.array([1], dtype=np.int32), np.empty(0, dtype=np.int32)], "empty token sequence"),
        ([(1.5, 2)], "integer arrays"),
        ([np.array([1.0, 2.0])], "integer arrays"),
        ([(True, False)], "integer arrays"),
    ],
    ids=["empty_batch", "empty_tuple", "empty_array", "float_tuple", "float_array", "bool_tuple"],
)
def test_pack_rejects_an_empty_batch_an_empty_sequence_and_non_integer_ids(sequences, reason):
    with pytest.raises(ShapeError, match=reason):
        pack(sequences)


def test_predict_on_int32_views_matches_their_packed_form_and_tuples():
    views, tuples = _generated_views(10, 300)  # more than one of predict's chunks
    params = init_params(ModelConfig(), 3)
    want = predict(params, pack(views), "source")
    assert _same(predict(params, views, "source"), want) and _same(predict(params, tuples, "source"), want)


@pytest.mark.parametrize("small", [(4, 2), (4,)], ids=["id_past_vocab", "table_not_2d"])
def test_packed_batch_rejected_by_a_table_records_nothing(small):
    # a batch encoded by a table that fits it, then rejected by one that
    # does not, records nothing and still encodes correctly afterwards (the
    # tuple-input cases are test_autodiff's out-of-vocabulary test)
    big = np.random.default_rng(0).normal(size=(6, 2))
    batch = pack([(0, 4), (5,)])
    t = Tape()
    good = t.leaf(big)
    first = t.embedding_mean(good, batch)
    backward(t, t.reduce_sum(first))
    bad = t.leaf(np.zeros(small))
    size = len(t)
    with pytest.raises(IndexError if len(small) == 2 else ShapeError):
        t.embedding_mean(bad, batch)
    assert len(t) == size
    again = t.embedding_mean(good, batch)
    assert _same(t.value(again), reference_mean(big, list(batch)))
    grads = backward(t, t.reduce_sum(again))
    assert _same(grads[good], reference_grad(big, list(batch), np.ones((2, 2))))


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

    def dense(g):
        return _densify(g, like) if isinstance(g, _RowGrad) else g

    before = [(t.vals if isinstance(t, _RowGrad) else t).copy() for t in terms]
    first = terms[0]
    # the accumulator starts as backward starts it: the first term plus 0.0
    acc = _RowGrad(first.rows, first.vals + 0.0) if isinstance(first, _RowGrad) else np.asarray(first + 0.0)
    want = np.zeros_like(like) + dense(first)
    for term in terms[1:]:
        want = want + dense(term)
        acc = _accumulate(acc, term, like)
    assert _same(dense(acc), want)
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


# --- the reversal at lambda 0 -------------------------------------------------


def _tiny_splits(rng, n=16):
    splits = {
        "train": [(tuple(rng.integers(0, TINY.vocab_size, 4)), int(rng.integers(0, 2))) for _ in range(n)],
        "dev": [(tuple(rng.integers(0, TINY.vocab_size, 4)), int(rng.integers(0, 2))) for _ in range(6)],
    }
    return {name: pack_split(examples) for name, examples in splits.items()}


@PROPERTY
@given(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1))
@example(0, 1)  # criterion 3's runs
def test_adv_at_lambda_zero_trains_mtl_tensors_bitwise_as_mtl(split_seed, init_seed):
    # the reversal hands the encoder only +-0.0 terms, which change no bit
    # of a sweep buffer, so the discriminator leaves mtl's tensors alone
    rng = np.random.default_rng(split_seed)
    ss, ts = _tiny_splits(rng), _tiny_splits(rng)
    schedule = batch_schedule(ss["train"], ts["train"], 4, 1, 5)
    mtl, adv = init_params(TINY, init_seed), init_params(TINY, init_seed)  # train_run trains them in place
    config = TrainingConfig(lr=1e-3, gamma=0.0)
    train_run("mtl", mtl, schedule, ts["dev"], config)
    with mock.patch.object(training, "grl_weight", lambda progress: 0.0):
        train_run("adv", adv, schedule, ts["dev"], config)
    for name in trainable_tensors("mtl"):
        assert _same(mtl.tensors[name], adv.tensors[name])


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
    """A table and a bias over >= 20 steps. Rows enter late and go back to
    a zero (sometimes -0.0) gradient."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, cols = draw(st.integers(1, 10)), draw(st.integers(1, 4))
    steps = draw(st.integers(20, 30))
    lr = draw(st.sampled_from([1e-3, 0.5, 0.0]))
    start = rng.integers(0, steps + 5, size=rows)  # some rows never enter
    grads = []
    for t in range(steps):
        on = (start <= t) & (rng.random(rows) < 0.6)
        table = np.where(on[:, None], rng.normal(size=(rows, cols)), 0.0)
        table[rng.random((rows, cols)) < 0.2] *= -0.0
        grads.append({"table": table, "bias": rng.normal(size=cols) * (rng.random() < 0.7)})
    params = {"table": rng.normal(size=(rows, cols)), "bias": rng.normal(size=cols)}
    params["table"][rng.random((rows, cols)) < 0.1] = -0.0
    return params, grads, lr


def _late_rows_run(lr, steps=20):
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
    return params, grads, lr


@PROPERTY
@given(adam_runs())
@example(_late_rows_run(1e-3))
@example(_late_rows_run(0.5))
def test_touched_row_adam_matches_dense_adam(run):
    params, grads, lr = run
    state = AdamState()
    ref_p = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    for t, g in enumerate(grads, start=1):
        adam_step(state, params, g, lr)
        for name in params:
            dense_adam(ref_p[name], ref_m[name], ref_v[name], g[name], lr, t)
            assert _same(params[name], ref_p[name])
            assert _same(state.m[name], ref_m[name]) and _same(state.v[name], ref_v[name])
    assert sum(a.size for a in (*state.m.values(), *state.v.values())) == 2 * sum(p.size for p in params.values())


@st.composite
def fused_adam_runs(draw):
    """Biases, a table whose rows turn live at drawn steps (most often some
    only after the first step), and a table with a row that never does,
    over >= 12 steps; lr may be zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps = draw(st.integers(12, 20))
    lr = draw(st.sampled_from([1e-3, 0.5, 0.0]))
    shapes = {"b1": (3,), "b2": (1,), "full": (4, 2), "part": (3, 2)}
    enter = rng.integers(0, steps, size=4)  # the step each row of "full" turns live
    grads = []
    for t in range(steps):
        grads.append({
            "b1": rng.normal(size=3),
            "b2": rng.normal(size=1) * (rng.random() < 0.5),
            "full": np.where((enter <= t)[:, None], rng.normal(size=(4, 2)), -0.0),
            "part": np.vstack([rng.normal(size=(2, 2)), np.full((1, 2), -0.0)]),
        })
    params = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    return params, grads, lr


def _all_live_run(lr):
    """Every tensor live from the first step."""
    rng = np.random.default_rng(3)
    params = {"b1": rng.normal(size=3), "b2": rng.normal(size=1), "full": rng.normal(size=(4, 2)), "part": rng.normal(size=(3, 2))}
    grads = [{k: rng.normal(size=p.shape) for k, p in params.items()} for _ in range(12)]
    return params, grads, lr


@PROPERTY
@given(fused_adam_runs())
@example(_all_live_run(1e-3))
@example(_all_live_run(0.0))
def test_fused_adam_matches_dense_adam(run):
    params, grads, lr = run
    state = AdamState()
    ref_p = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    for t, g in enumerate(grads, start=1):
        adam_step(state, params, g, lr)
        for name in params:
            dense_adam(ref_p[name], ref_m[name], ref_v[name], g[name], lr, t)
            assert _same(params[name], ref_p[name])
            assert _same(state.m[name], ref_m[name]) and _same(state.v[name], ref_v[name])
    # the first step fixes the layout: a 2-D tensor with a zero row then stays off the fused update
    rowwise = [name for name, g in grads[0].items() if g.ndim == 2 and not (g != 0.0).any(axis=1).all()]
    assert list(state.live) == rowwise
    assert list(state.fused) == [name for name in params if name not in rowwise]
    assert sum(a.size for a in (*state.m.values(), *state.v.values())) == 2 * sum(p.size for p in params.values())


def _adam_snapshot(state, params):
    arrays = [*params.values(), *state.m.values(), *state.v.values(), *state.live.values(), state.flat_m, state.flat_v]
    return state.step, dict(state.fused), [a.tobytes() for a in arrays]


@PROPERTY
@given(st.one_of(adam_runs(), fused_adam_runs()), st.sampled_from([-1e-3, -0.5, -0.0, np.nan, np.inf, -np.inf]))
@example(_late_rows_run(1e-3, steps=25), -1e-3)
@example(_all_live_run(1e-3), -0.5)
def test_adam_rejects_a_negative_or_nonfinite_lr(run, bad_lr):
    # mid-run, with live rows and fused tensors in place, a bad rate changes nothing
    params, grads, lr = run
    state = AdamState()
    half = len(grads) // 2
    for g in grads[:half]:
        adam_step(state, params, g, lr)
    before = _adam_snapshot(state, params)
    with pytest.raises(ValueError, match=f"^adam_step: lr must be finite and >= 0, got {bad_lr}$"):
        adam_step(state, params, grads[half], bad_lr)
    assert _adam_snapshot(state, params) == before


# --- finite checks ----------------------------------------------------------------

# finite entries whose squares overflow or underflow, and both zeros
FINITE_EDGES = (0.0, -0.0, 5e-324, -1e-310, 2.2e-308, 1e200, -1.3e200, 1.7e308, -1.7e308)
NONFINITE = (np.nan, np.inf, -np.inf)


@st.composite
def checked_arrays(draw):
    """A float64 array of 0 to 3 dimensions, some of size 0, sometimes a
    transposed or strided view; entries mix ordinary values, FINITE_EDGES
    and, in about half the cases, NaN and +-Inf."""
    shape = tuple(draw(st.lists(st.integers(0, 4), max_size=3)))
    layout = draw(st.sampled_from(["c", "transposed", "strided"])) if shape else "c"
    if layout == "transposed":
        base_shape = shape[::-1]
    elif layout == "strided":
        base_shape = shape[:-1] + (2 * shape[-1],)
    else:
        base_shape = shape
    specials = FINITE_EDGES + (NONFINITE if draw(st.booleans()) else ())
    entry = st.one_of(st.floats(-1e3, 1e3), st.sampled_from(specials))
    n = int(np.prod(base_shape, dtype=np.int64))
    base = np.array(draw(st.lists(entry, min_size=n, max_size=n)), dtype=np.float64).reshape(base_shape)
    if layout == "transposed":
        return base.T
    if layout == "strided":
        return base[..., ::2]  # the skipped entries may be NaN: only the view counts
    return base


def _probe_op():
    """An op whose forward returns ``meta["out"]`` and whose backward hands
    ``meta["grad"]`` to its input: the tape checks them as they are."""
    return mock.patch.dict(
        autodiff._OPS, {"probe": (lambda vals, meta: meta["out"], lambda g, vals, out, meta, need: (meta["grad"],))}
    )


def _raises_iff(bad, message):
    if bad:
        return pytest.raises(NonFiniteError, match="^" + re.escape(message) + "$")
    return contextlib.nullcontext()


@PROPERTY
@given(checked_arrays())
@example(np.array(np.nan))  # 0-d
@example(np.array(1e200))  # 0-d, its square overflows
@example(np.full((3, 2), 1.7e308))
@example(np.full((4, 4), np.inf)[:, ::2])
@example(np.zeros((0, 3)))
@example(np.array([-0.0, 5e-324, -5e-324]))
def test_finite_checks_raise_exactly_on_a_nonfinite_entry(a):
    bad = not all(math.isfinite(v) for v in a.ravel().tolist())
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an overflowing check must not warn
        with _raises_iff(bad, "op 'leaf' (node 0) produced a non-finite value"):
            assert Tape().leaf(a) == 0
        with _probe_op():
            t = Tape()
            x = t.leaf(np.zeros(a.shape))
            with _raises_iff(bad, "op 'probe' (node 1) produced a non-finite value"):
                assert t.value(t.record("probe", (x,), out=a)) is a
            loss = t.record("probe", (x,), out=np.array(0.0), grad=a)
            for wrt in (None, (x,)):
                with _raises_iff(bad, f"op 'probe' (node {loss}) produced a non-finite gradient for input node {x}"):
                    grads = backward(t, loss, wrt=wrt)
                    assert _same(grads[0], a + 0.0)


@pytest.mark.parametrize("size", [autodiff._DOT_CHECK_MAX - 1, autodiff._DOT_CHECK_MAX])
@pytest.mark.parametrize("entry", [0.5, -0.0, 1e200, np.nan, np.inf, -np.inf])
def test_finite_check_gives_one_verdict_on_both_sides_of_the_dot_cut(size, entry):
    # below the cut one dot decides a finite array; from the cut up no dot runs
    a = np.ones(size)
    a[size // 2] = entry
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with mock.patch.object(np, "vdot", wraps=np.vdot) as vdot:
            assert autodiff._all_finite(a) == math.isfinite(entry)
    assert vdot.called == (size < autodiff._DOT_CHECK_MAX)


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


EXTREME_FLOATS = (-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, math.nan, math.inf, -math.inf)


def _save_case(vocab_size, embed_dim, latent_dim, seed, extremes=()):
    """Parameters whose embedding holds ``vocab_size * embed_dim`` values,
    drawn over many magnitudes, with each (tensor, index, value) of
    ``extremes`` written in (the index taken modulo the tensor's size)."""
    params = init_params(ModelConfig(vocab_size, embed_dim, latent_dim), seed)
    rng = np.random.default_rng(seed)
    for name, arr in params.tensors.items():
        params.tensors[name] = rng.normal(size=arr.shape) * 10.0 ** rng.integers(-300, 300, size=arr.shape)
    for name, index, value in extremes:
        params.tensors[name].flat[index % params.tensors[name].size] = value
    return params


@st.composite
def save_cases(draw):
    names = sorted(name for names in ModelParams.GROUPS.values() for name in names)
    extremes = draw(
        st.lists(st.tuples(st.sampled_from(names), st.integers(0, 2**31), st.sampled_from(EXTREME_FLOATS)), max_size=4)
    )
    return _save_case(
        draw(st.integers(1, 3 * SAVE_CHUNK + 1)),
        draw(st.integers(1, 3)),
        draw(st.integers(1, 4)),
        draw(st.integers(0, 2**31)),
        extremes,
    )


@PROPERTY
@given(save_cases())
@example(_save_case(SAVE_CHUNK - 1, 1, 2, 1))
@example(_save_case(SAVE_CHUNK, 1, 3, 2, [("embedding", SAVE_CHUNK - 1, -0.0), ("sh_b", 0, 5e-324)]))
@example(_save_case(SAVE_CHUNK + 1, 1, 1, 3, [("embedding", SAVE_CHUNK, math.nan)]))
@example(_save_case(SAVE_CHUNK // 4, 4, 2, 4, [("enc1_W", 0, math.inf), ("cls_t2_b", 1, -math.inf)]))
@example(_save_case(SAVE_CHUNK + 7, 3, 4, 5, [("embedding", 2 * SAVE_CHUNK, 1.7976931348623157e308)]))
def test_checkpoint_pieces_give_the_bytes_of_one_dumps(params):
    # the reference: the whole payload through one ``json.dumps`` call
    payload = {
        "version": CHECKPOINT_VERSION,
        "config": asdict(params.config),
        "groups": {
            g: {
                name: {
                    "shape": list(params.tensors[name].shape),
                    "data": params.tensors[name].reshape(-1).tolist(),
                }
                for name in names
            }
            for g, names in ModelParams.GROUPS.items()
        },
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ckpt.json"
        save_checkpoint(params, path)
        assert path.read_bytes() == json.dumps(payload).encode()
        if all(np.isfinite(arr).all() for arr in params.tensors.values()):
            loaded = load_checkpoint(path)
            assert all(_same(loaded.tensors[name], arr) for name, arr in params.tensors.items())
        else:
            with pytest.raises(ValueError, match="holds a non-finite value"):
                load_checkpoint(path)


# --- synthetic corpora ------------------------------------------------------------


def reference_domain_pair(cfg):
    """Source and target examples from the per-token sampler: the draws of
    ``generate_domain_pair``, with one bucket chosen per position by an
    ``if`` chain and the token looked up in the bucket's tuple."""
    rng = np.random.default_rng(cfg.seed)
    sets = cfg.token_sets()
    out = []
    for domain, rate, train_size in (
        ("source", cfg.source_positive_rate, cfg.source_train_size),
        ("target", cfg.target_positive_rate, cfg.target_train_size),
    ):
        pos_cue, neg_cue = ("cue_a", "cue_b") if domain == "source" else ("cue_b", "cue_a")
        cue_rate = cfg.cue_rate if domain == "source" else cfg.target_cue_rate
        examples = []
        for split, size in (("train", train_size), ("test", cfg.test_size)):
            for label in _exact_count_labels(size, rate, rng):
                length = int(rng.integers(cfg.min_len, cfg.max_len + 1))
                kinds, flips, picks = rng.random(length), rng.random(length), rng.random(length)
                tokens = []
                for r, flip, pick in zip(kinds, flips, picks):
                    if r < cfg.signal_rate:
                        bucket = "shared_pos" if (label == 1) == (flip < cfg.signal_fidelity) else "shared_neg"
                    elif cfg.n_cues > 0 and r < cfg.signal_rate + cue_rate:
                        bucket = pos_cue if (label == 1) == (flip < cfg.cue_fidelity) else neg_cue
                    else:
                        bucket = "background"
                    members = sets[bucket]
                    tokens.append(members[int(pick * len(members))])
                examples.append(Example(tuple(tokens), int(label), split))
        out.append(examples)
    return out


@st.composite
def generator_configs(draw):
    """Small configs over the whole valid range: empty token sets, rates and
    fidelities of 0 and 1, and lengths down to 1. Configs the boundary
    check refuses are discarded."""
    unit = st.floats(0.0, 1.0) | st.sampled_from([0.0, 0.25, 0.5, 1.0])
    min_len = draw(st.integers(1, 8))
    kwargs = dict(
        n_shared=draw(st.integers(0, 3)),
        n_cues=draw(st.integers(0, 3)),
        n_background=draw(st.integers(0, 5)),
        signal_rate=draw(unit),
        cue_rate=draw(unit),
        target_cue_rate=draw(st.none() | unit),
        signal_fidelity=draw(unit),
        cue_fidelity=draw(unit),
        min_len=min_len,
        max_len=min_len + draw(st.integers(0, 8)),
        source_train_size=draw(st.integers(1, 12)),
        target_train_size=draw(st.integers(1, 12)),
        test_size=draw(st.integers(1, 6)),
        source_positive_rate=draw(unit),
        target_positive_rate=draw(unit),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    try:
        return GeneratorConfig(**kwargs)
    except ValueError:
        assume(False)


def chunk_boundary_config(size):
    """Splits of ``size`` examples of 1-4 tokens: with ``CHUNK - 1``,
    ``CHUNK`` and ``CHUNK + 1`` a split ends just before, on and just after
    a chunk boundary, with ``2 * CHUNK + 1`` it spans three chunks."""
    return GeneratorConfig(min_len=1, max_len=4, source_train_size=size, target_train_size=size, test_size=size, seed=size)


@PROPERTY
@given(generator_configs())
@example(chunk_boundary_config(CHUNK - 1))
@example(chunk_boundary_config(CHUNK))
@example(chunk_boundary_config(CHUNK + 1))
@example(chunk_boundary_config(2 * CHUNK + 1))
def test_generated_examples_match_per_token_reference(cfg):
    source, target = generate_domain_pair(cfg)
    assert [source.examples, target.examples] == reference_domain_pair(cfg)

