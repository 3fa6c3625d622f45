"""Property tests: the packed embedding op and the frontier backward agree
bit for bit with the straightforward computations they replace."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from latopt.autodiff import Tape, backward  # noqa: E402
from latopt.model import ModelConfig, init_params, onehot  # noqa: E402
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
