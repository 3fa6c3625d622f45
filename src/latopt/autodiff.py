"""Reverse-mode automatic differentiation on a dense-tensor tape.

The engine records operations on an append-only :class:`Tape` and computes
gradients for *every* node in a single backward sweep, so callers can read
gradients at intermediate activations, not just at leaf parameters. A
frontier sweep (``backward(tape, loss, wrt=...)``) visits only the nodes
between the requested ones and the loss and gives bitwise the same
gradients there. All values are float64. Any operation that produces a
NaN/Inf raises :class:`NonFiniteError` instead of letting the poison
propagate. A leaf is tested entry by entry; an op's output and every
gradient of fewer than 10,000 entries by one dot product, since a finite
sum of squares proves every entry finite, and only a non-finite sum is
settled entry by entry, as a larger array is. So every
value on a tape is finite, and ``dense``, ``tanh``, ``relu``, ``concat``,
``grl``, ``detach`` and ``negate``, which map finite inputs to finite
outputs (a ``dense`` checks its pre-activation), skip the output test.
Finite gradient terms can sum to Inf, so ``backward`` tests a gradient it
returns once more when two or more terms were summed into it.
Inside the sweep an ``embedding_mean`` gradient holds only the batch's
rows; ``backward`` returns dense arrays. A token batch can be
packed once (:class:`Packed`) and encoded as it is any number of times.

A tape is single-writer: build it and run backward on one thread. The
returned gradient arrays are fresh allocations and safe to share.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

NodeId = int


class ShapeError(ValueError):
    """Operand shapes do not conform for the requested operation."""


class NonFiniteError(FloatingPointError):
    """An operation produced NaN or Inf."""


@dataclass(slots=True)
class Node:
    op: str
    inputs: tuple[NodeId, ...]
    value: np.ndarray
    meta: dict = field(default_factory=dict)


class _RowGrad(NamedTuple):
    """A gradient of a 2-D node that is zero outside ``rows`` (sorted,
    distinct); ``vals`` holds those rows."""

    rows: np.ndarray
    vals: np.ndarray


class Packed:
    """A batch of token sequences packed once: flat int64 ``ids`` and the
    per-sequence ``lengths``, read-only copies of the arrays given. A batch
    is never empty, has no empty sequence, and its lengths sum to the number
    of ids; anything else raises ``ShapeError``."""

    def __init__(self, ids: np.ndarray, lengths: np.ndarray):
        ids, lengths = np.asarray(ids), np.asarray(lengths)
        if ids.ndim != 1 or lengths.ndim != 1 or ids.dtype.kind != "i" or lengths.dtype.kind != "i":
            raise ShapeError(f"pack: ids and lengths must be 1-D integer arrays, got {ids.dtype} {ids.shape} and {lengths.dtype} {lengths.shape}")
        if lengths.size == 0:
            raise ShapeError("pack: empty batch")
        if lengths.min() < 1:
            raise ShapeError("pack: empty token sequence")
        if lengths.sum() != ids.size:
            raise ShapeError(f"pack: lengths sum to {lengths.sum()}, not to the {ids.size} ids")
        self.ids, self.lengths = _frozen(ids), _frozen(lengths)

    def __len__(self) -> int:
        return self.lengths.size

    def __iter__(self):  # the benchmark's plain-numpy reference reads a batch this way
        return iter(np.split(self.ids, np.cumsum(self.lengths[:-1])))

    def take(self, idx) -> "Packed":
        """The sub-batch of the sequences at ``idx``, in that order."""
        lengths = self.lengths[idx]
        starts = np.cumsum(self.lengths) - self.lengths
        shift = starts[idx] - (np.cumsum(lengths) - lengths)  # source start less target start
        return Packed(self.ids[np.arange(lengths.sum()) + np.repeat(shift, lengths)], lengths)


def _frozen(a: np.ndarray) -> np.ndarray:
    a = a.astype(np.int64)  # a copy, so the caller's array stays as it was
    a.flags.writeable = False
    return a


def pack(sequences) -> Packed:
    """``sequences`` (integer arrays, or sequences of ints) as a
    :class:`Packed` batch, by one concatenation; a ``Packed`` is returned as
    it is. An empty batch, an empty sequence or ids that are not integers
    raise ``ShapeError``."""
    if isinstance(sequences, Packed):
        return sequences
    lengths = np.fromiter(map(len, sequences), dtype=np.int64, count=len(sequences))
    if lengths.size == 0:
        raise ShapeError("pack: empty batch")
    if lengths.min() < 1:
        raise ShapeError("pack: empty token sequence")
    return Packed(np.concatenate(sequences), lengths)


def _densify(g: _RowGrad, like: np.ndarray) -> np.ndarray:
    out = np.zeros_like(like)
    out[g.rows] = g.vals
    return out


def _accumulate(prev, g, like: np.ndarray):
    """``prev + g`` as a dense sum from a +0.0 buffer would give it, in place
    where it can be; ``prev`` is a first term plus 0.0 (see ``backward``) or
    an earlier such sum. A term with other rows than a row-sparse ``prev``
    makes the sum dense. A row-sparse term skips the rows where it is +0.0,
    which changes no bit: a sum that starts from +0.0 is never -0.0, and
    0.0 + x is x for any other x."""
    sparse = isinstance(g, _RowGrad)
    if isinstance(prev, _RowGrad):
        if sparse and np.array_equal(prev.rows, g.rows):
            np.add(prev.vals, g.vals, out=prev.vals)
            return prev
        prev = _densify(prev, like)
    if sparse:
        prev[g.rows] += g.vals
    else:
        prev += g
    return prev


_F64 = np.dtype(np.float64)


def _as_f64(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


_DOT_CHECK_MAX = 10_000  # entries; from here on a BLAS may run the dot threaded


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of ``a`` is finite. Below ``_DOT_CHECK_MAX``
    entries one dot decides almost always: the squares are >= 0, so nothing
    cancels and a NaN or Inf keeps the sum non-finite. A non-finite sum (a
    NaN/Inf entry, or finite squares that overflow) is settled entry by
    entry, as a larger array always is: a threaded dot costs more there
    than the test it saves. ``vdot`` flattens ``a`` itself, a view where it
    can, and raises nothing on an overflowing square."""
    if a.size < _DOT_CHECK_MAX and math.isfinite(np.vdot(a, a)):
        return True
    return bool(np.isfinite(a).all())


# --- op registry ------------------------------------------------------------
#
# forward(input_values, meta) -> output ndarray
# backward(grad_out, input_values, output, meta, need) -> tuple of per-input
#   grads. ``need`` holds, per input, whether the sweep reads its gradient;
#   an op returns None for an input it does not need, as for one that gets
#   no gradient (e.g. through detach); the sweep adds every other term, and
#   calls a backward only when some input is needed. The table of
#   embedding_mean gets a _RowGrad. grad_out is always dense.


def _fw_add(vals, meta):
    a, b = vals
    # equal shapes, or a row-vector bias broadcast over the batch
    if a.shape != b.shape and not (a.ndim == 2 and b.ndim == 1 and a.shape[1] == b.shape[0]):
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} do not conform")
    return a + b


def _bw_add(g, vals, out, meta, need):
    a, b = vals
    gb = (g if a.shape == b.shape else np.add.reduce(g, axis=0)) if need[1] else None
    return g if need[0] else None, gb


def _fw_matmul(vals, meta):
    a, b = vals
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: shapes {a.shape} and {b.shape} do not conform")
    return a @ b


def _bw_matmul(g, vals, out, meta, need):
    a, b = vals
    return g @ b.T if need[0] else None, a.T @ g if need[1] else None


def _fw_dense(vals, meta):
    """act(x @ W + b) in one node, in the matmul's buffer, with the shape
    errors of the unfused matmul and add. The pre-activation is checked
    here: tanh would turn an overflowing matmul into a finite 1.0. Past this
    check the output is finite, so ``record`` does not test it."""
    x, w, b = vals
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0]:
        raise ShapeError(f"matmul: shapes {x.shape} and {w.shape} do not conform")
    h = x @ w
    if h.shape != b.shape and not (b.ndim == 1 and h.shape[1] == b.shape[0]):
        raise ShapeError(f"add: shapes {h.shape} and {b.shape} do not conform")
    h += b
    if not _all_finite(h):
        raise NonFiniteError("pre-activation (matmul + bias)")
    act = meta["act"]
    if act == "tanh":
        np.tanh(h, out=h)
    elif act == "relu":
        np.maximum(h, 0.0, out=h)
    return h


def _bw_dense(g, vals, out, meta, need):
    # bitwise the gradients of the unfused matmul -> add -> act chain. An
    # all-zero gh (dead relu units) gives all-+-0.0 terms, as the chain's
    # add and matmul backwards did; the sweep's buffers hold no -0.0, so
    # such a term changes no bit of a sum and +0.0 stands for a missing one.
    x, w, b = vals
    act = meta["act"]
    if act == "tanh":
        gh = out * out  # g * (1.0 - out * out) in one buffer
        np.subtract(1.0, gh, out=gh)
        gh *= g
    elif act == "relu":
        gh = g * (out > 0.0)
    else:
        gh = g
    gx = gh @ w.T if need[0] else None
    gw = x.T @ gh if need[1] else None
    gb = (gh if b.shape == gh.shape else np.add.reduce(gh, axis=0)) if need[2] else None
    return gx, gw, gb


def _fw_scale(vals, meta):
    return vals[0] * meta["factor"]


def _bw_scale(g, vals, out, meta, need):
    return (g * meta["factor"],)


def _fw_negate(vals, meta):
    return -vals[0]


def _bw_negate(g, vals, out, meta, need):
    return (-g,)


def _fw_concat(vals, meta):
    a, b = vals
    axis = meta["axis"]
    if a.ndim != b.ndim:
        raise ShapeError(f"concat: ranks {a.ndim} and {b.ndim} differ")
    for d in range(a.ndim):
        if d != axis and a.shape[d] != b.shape[d]:
            raise ShapeError(f"concat: shapes {a.shape} and {b.shape} do not conform on axis {d}")
    return np.concatenate([a, b], axis=axis)


def _bw_concat(g, vals, out, meta, need):
    a, _ = vals
    axis = meta["axis"]
    n = a.shape[axis]
    idx_a = [slice(None)] * g.ndim
    idx_b = [slice(None)] * g.ndim
    idx_a[axis] = slice(0, n)
    idx_b[axis] = slice(n, None)
    return (g[tuple(idx_a)].copy() if need[0] else None), (g[tuple(idx_b)].copy() if need[1] else None)


def _fw_tanh(vals, meta):
    return np.tanh(vals[0])


def _bw_tanh(g, vals, out, meta, need):
    return (g * (1.0 - out * out),)


def _fw_relu(vals, meta):
    return np.maximum(vals[0], 0.0)


def _bw_relu(g, vals, out, meta, need):
    return (g * (vals[0] > 0.0),)


def _fw_log(vals, meta):
    x = vals[0]
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.log(x)


def _bw_log(g, vals, out, meta, need):
    return (g / vals[0],)


def _softmax(x):
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _fw_softmax(vals, meta):
    return _softmax(vals[0])


def _bw_softmax(g, vals, out, meta, need):
    inner = (g * out).sum(axis=-1, keepdims=True)
    return (out * (g - inner),)


def _fw_reduce_sum(vals, meta):
    return np.asarray(vals[0].sum())


def _bw_reduce_sum(g, vals, out, meta, need):
    return (np.broadcast_to(g, vals[0].shape).copy(),)


def _fw_embedding_mean(vals, meta):
    """Row means of the table over each packed sequence.

    Rows are visited longest first, so the rows still active at position j
    form a prefix; positions are summed in order, then divided by the
    lengths. That is the order ``table[ids].mean(axis=0)`` sums in for a
    table of two or more columns (numpy sums a single column pairwise).
    The positions every sequence reaches are gathered by a dense (position,
    sequence) index, with no mask, and summed in one reduce over the
    position axis, which adds them in order from -0.0 (so an all -0.0
    column stays -0.0). The rest, the tail, are gathered through a mask
    over the tail positions alone and added one position at a time. With
    one sequence of one column numpy would sum that reduce pairwise, so
    there the reduce takes only the first position.
    """
    table = vals[0]
    ids, lengths = meta["ids"], meta["lengths"]
    order = np.argsort(-lengths, kind="stable")
    sorted_len = lengths[order]
    starts = (np.cumsum(lengths) - lengths)[order]
    full = int(sorted_len[-1]) if len(lengths) * table.shape[1] > 1 else 1
    # (position, sequence, column), freed before the tail's rows are taken; take beats []
    acc = np.add.reduce(table.take(ids.take(starts + np.arange(full)[:, None]), axis=0), axis=0, initial=-0.0)
    tail = np.arange(full, sorted_len[0])[:, None]
    active = tail < sorted_len
    rows = table.take(ids.take((starts + tail)[active]), axis=0)  # position-major, active rows only
    at = 0
    for n in np.add.reduce(active, axis=1).tolist():
        acc[:n] += rows[at : at + n]
        at += n
    out = np.empty_like(acc)
    out[order] = acc / sorted_len[:, None]
    return out


def _bw_embedding_mean(g, vals, out, meta, need):
    # row-sparse: only the batch's distinct ids, sorted. One bincount over
    # compact (column, slot) bins adds each bin's terms in sequence order
    # from +0.0, as np.add.at over each sequence in turn would. Column-major
    # bins keep the broadcasts' inner axis long (the ids, not the columns)
    vocab, dim = vals[0].shape
    ids, lengths = meta["ids"], meta["lengths"]
    mark = np.zeros(vocab, dtype=bool)
    mark[ids] = True
    rows = np.flatnonzero(mark)
    slot = np.empty(vocab, dtype=np.int64)  # read only at the marked rows
    slot[rows] = np.arange(rows.size)
    weights = np.repeat(np.ascontiguousarray(g.T) / lengths, lengths, axis=1)
    bins = (slot[ids] + (np.arange(dim) * rows.size)[:, None]).ravel()
    grad = np.bincount(bins, weights=weights.ravel(), minlength=rows.size * dim)
    return (_RowGrad(rows, grad.reshape(dim, rows.size).T),)


def _fw_softmax_xent(vals, meta):
    """Fused softmax + cross-entropy, mean over the batch (log-sum-exp form).
    The softmax the backward reads is kept in ``meta["softmax"]``: the exp
    and row sum computed here, divided as ``_softmax`` divides them, so it
    is bitwise what ``_softmax(logits)`` gives."""
    logits, onehot = vals
    if logits.shape != onehot.shape or logits.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: shapes {logits.shape} vs {onehot.shape}")
    m = np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(logits - m)
    total = np.add.reduce(e, axis=-1, keepdims=True)
    meta["softmax"] = e / total
    lse = m[:, 0] + np.log(total[:, 0])
    per_sample = lse - np.add.reduce(logits * onehot, axis=-1)
    return np.asarray(np.add.reduce(per_sample) / per_sample.size)  # per_sample.mean(), without its wrapper


def _bw_softmax_xent(g, vals, out, meta, need):
    logits, onehot = vals
    n = logits.shape[0]
    g_logits = g * (meta["softmax"] - onehot) / n if need[0] else None
    return g_logits, -g * logits / n if need[1] else None


def _fw_grl(vals, meta):
    return vals[0].copy()


def _bw_grl(g, vals, out, meta, need):
    return (-meta["lam"] * g,)


def _fw_detach(vals, meta):
    return vals[0].copy()


def _bw_detach(g, vals, out, meta, need):
    return (None,)


_OPS = {
    "add": (_fw_add, _bw_add),
    "matmul": (_fw_matmul, _bw_matmul),
    "dense": (_fw_dense, _bw_dense),
    "scale": (_fw_scale, _bw_scale),
    "negate": (_fw_negate, _bw_negate),
    "concat": (_fw_concat, _bw_concat),
    "tanh": (_fw_tanh, _bw_tanh),
    "relu": (_fw_relu, _bw_relu),
    "log": (_fw_log, _bw_log),
    "softmax": (_fw_softmax, _bw_softmax),
    "reduce_sum": (_fw_reduce_sum, _bw_reduce_sum),
    "embedding_mean": (_fw_embedding_mean, _bw_embedding_mean),
    "softmax_cross_entropy": (_fw_softmax_xent, _bw_softmax_xent),
    "grl": (_fw_grl, _bw_grl),
    "detach": (_fw_detach, _bw_detach),
}

DIFFERENTIABLE_OPS = tuple(k for k in _OPS if k not in ("detach",))

# ops whose output is finite whenever their inputs are: every value on a tape
# is, so ``record`` does not test these outputs again
_FINITE_IF_INPUTS_FINITE = frozenset({"dense", "tanh", "relu", "concat", "grl", "detach", "negate"})


class Tape:
    """Append-only record of ops; node ids are indices into ``nodes``.

    Topological order is guaranteed by construction: an op may only
    consume ids already on the tape.
    """

    def __init__(self):
        self.nodes: list[Node] = []

    def __len__(self) -> int:
        return len(self.nodes)

    def value(self, nid: NodeId) -> np.ndarray:
        return self.nodes[nid].value

    def _check_ids(self, ids) -> None:
        for nid in ids:
            if not (0 <= nid < len(self.nodes)):
                raise IndexError(f"node id {nid} not on this tape")

    def leaf(self, value) -> NodeId:
        """Record an input/constant leaf. The tape holds ``value`` itself when
        it is a float64 array, so it must not be written while the tape is in
        use. It takes the finite test every value on a tape takes."""
        v = value if type(value) is np.ndarray and value.dtype is _F64 else _as_f64(value)
        nodes = self.nodes
        if not _all_finite(v):
            raise NonFiniteError(f"op 'leaf' (node {len(nodes)}) produced a non-finite value")
        nodes.append(Node("leaf", (), v))
        return len(nodes) - 1

    def record(self, op: str, inputs, **meta) -> NodeId:
        fns = _OPS.get(op)
        if fns is None:
            raise KeyError(f"unknown op kind '{op}'")
        nodes = self.nodes
        nid = len(nodes)  # the id the new node gets
        for i in inputs:
            if not (0 <= i < nid):
                raise IndexError(f"node id {i} not on this tape")
        vals = [nodes[i].value for i in inputs]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            try:
                out = fns[0](vals, meta)
            except NonFiniteError as e:  # a non-finite intermediate, named by its stage
                raise NonFiniteError(f"op '{op}' (node {nid}) produced a non-finite {e}") from None
            if type(out) is not np.ndarray or out.dtype is not _F64:
                out = _as_f64(out)
            if op not in _FINITE_IF_INPUTS_FINITE and not _all_finite(out):
                raise NonFiniteError(f"op '{op}' (node {nid}) produced a non-finite value")
        nodes.append(Node(op, tuple(inputs), out, meta))
        return nid

    # thin wrappers, in the order the graph code tends to use them
    def add(self, a, b):
        return self.record("add", (a, b))

    def matmul(self, a, b):
        return self.record("matmul", (a, b))

    def dense(self, x, w, b, act=None):
        """act(x @ w + b) as one node; ``act`` is None, "tanh" or "relu"."""
        if act not in (None, "tanh", "relu"):
            raise ValueError(f"dense: unknown activation {act!r}")
        return self.record("dense", (x, w, b), act=act)

    def scale(self, a, factor):
        return self.record("scale", (a,), factor=float(factor))

    def negate(self, a):
        return self.record("negate", (a,))

    def concat(self, a, b, axis=0):
        return self.record("concat", (a, b), axis=int(axis))

    def tanh(self, a):
        return self.record("tanh", (a,))

    def relu(self, a):
        return self.record("relu", (a,))

    def log(self, a):
        return self.record("log", (a,))

    def softmax(self, a):
        return self.record("softmax", (a,))

    def reduce_sum(self, a):
        return self.record("reduce_sum", (a,))

    def embedding_mean(self, table, sequences):
        """Mean table row over each token sequence.

        ``sequences`` is a :class:`Packed` batch or anything ``pack`` takes.
        A table that is not 2-D, an empty batch or an empty sequence raises
        ``ShapeError``, an id outside the table's rows ``IndexError``.
        """
        self._check_ids((table,))
        shape = self.nodes[table].value.shape
        if len(shape) != 2:
            raise ShapeError(f"embedding_mean: table must be 2-D, got {shape}")
        batch = pack(sequences)
        if np.minimum.reduce(batch.ids) < 0 or np.maximum.reduce(batch.ids) >= shape[0]:
            raise IndexError(f"embedding_mean: token id out of range [0, {shape[0]})")
        return self.record("embedding_mean", (table,), ids=batch.ids, lengths=batch.lengths)

    def softmax_cross_entropy(self, logits, onehot):
        return self.record("softmax_cross_entropy", (logits, onehot))

    def grl(self, a, lam):
        """The identity forward, ``-lam`` times the gradient backward. A
        negative or non-finite ``lam`` raises ``ValueError``: an infinite one
        would turn a zero gradient into NaN."""
        if not (math.isfinite(lam) and lam >= 0):
            raise ValueError(f"grl: lambda must be finite and >= 0, got {lam}")
        return self.record("grl", (a,), lam=float(lam))

    def detach(self, a):
        return self.record("detach", (a,))


def backward(tape: Tape, loss: NodeId, wrt=None):
    """Gradient of ``loss`` with respect to the nodes of the tape.

    The sweep visits only the nodes on a path from a ``wrt`` node (ids) to
    the loss and returns the ``wrt`` nodes' gradients as a tuple in ``wrt``
    order, zero for a node that does not feed the loss. Without ``wrt`` every
    node is requested and the result is a list indexed by node id. Terms are
    added in the same order whatever is requested, starting from +0.0, so a
    gradient is bitwise the same either way. A row-sparse gradient is made
    dense only here, or before the backward of a node it reaches. A node's
    gradient that is not requested is dropped as its backward runs. The loss
    must be scalar-shaped.
    """
    nodes = tape.nodes
    loss_node = nodes[loss]
    if loss_node.value.shape not in ((), (1,)):
        raise ValueError(f"backward: loss must be scalar-shaped, got {loss_node.value.shape}")
    every = wrt is None
    wrt = range(len(nodes)) if every else tuple(wrt)
    tape._check_ids(wrt)
    # nodes downstream of a wrt node: the only ones whose gradient can reach it
    first = min(wrt, default=loss + 1)
    live = [False] * (loss + 1)
    for nid in wrt:
        if nid <= loss:
            live[nid] = True
    for nid in range(first, loss + 1):
        if not live[nid]:
            for i in nodes[nid].inputs:
                if live[i]:
                    live[nid] = True
                    break
    grads: dict[NodeId, np.ndarray] = {loss: np.ones_like(loss_node.value)}
    keep = None if every else set(wrt)  # the gradients returned; the rest go once read
    summed = set()  # nodes whose gradient adds two or more checked terms
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for nid in range(loss, first - 1, -1):
            g = grads.get(nid) if keep is None or nid in keep else grads.pop(nid, None)
            if g is None:
                continue
            node = nodes[nid]
            inputs = node.inputs
            need = [live[i] for i in inputs]
            if True not in need:
                continue
            if isinstance(g, _RowGrad):
                g = _densify(g, node.value)
            vals = [nodes[i].value for i in inputs]
            in_grads = _OPS[node.op][1](g, vals, node.value, node.meta, need)
            for inp, ig in zip(inputs, in_grads):
                if ig is None:
                    continue
                sparse = isinstance(ig, _RowGrad)
                a = ig.vals if sparse else ig
                # _all_finite(a), with its dot test inline: a call per term costs about 1% of a step
                if not (a.size < _DOT_CHECK_MAX and math.isfinite(np.vdot(a, a))) and not _all_finite(a):
                    raise NonFiniteError(f"op '{node.op}' (node {nid}) produced a non-finite gradient for input node {inp}")
                prev = grads.get(inp)
                # a first term is 0.0 + ig, as a zero buffer gives: -0.0
                # becomes +0.0, and asarray keeps a 0-d sum an array
                if prev is None:
                    grads[inp] = _RowGrad(ig.rows, ig.vals + 0.0) if sparse else np.asarray(ig + 0.0)
                else:
                    summed.add(inp)
                    grads[inp] = _accumulate(prev, ig, nodes[inp].value)
    # a sum of finite terms can overflow; one that feeds an op reaches that
    # op's checked gradients, so only the requested ones are tested here
    for nid in wrt:
        if nid in summed:
            g = grads[nid]
            if not _all_finite(g.vals if isinstance(g, _RowGrad) else g):
                raise NonFiniteError(f"op '{nodes[nid].op}' (node {nid}) has a gradient that summed to a non-finite value")
    out = []
    for nid in wrt:
        g = grads.get(nid)
        if g is None:
            g = np.zeros_like(nodes[nid].value)
        elif isinstance(g, _RowGrad):
            g = _densify(g, nodes[nid].value)
        out.append(g)
    return out if every else tuple(out)


def finite_diff_check(build, xs, eps: float = 1e-5) -> float:
    """Compare reverse-mode gradients against central finite differences.

    ``build(xs)`` must construct a fresh tape from the list of input arrays
    ``xs`` and return ``(tape, input_ids, loss_id)``. The check perturbs every
    coordinate of every input and returns the max relative error

        |(f(x+eps*e_i) - f(x-eps*e_i)) / (2*eps) - g_i| / max(1, |g_i|)

    where g is the backward gradient at the unperturbed point.
    """
    if eps <= 0:
        raise ValueError("finite_diff_check: eps must be > 0")
    xs = [_as_f64(x) for x in xs]
    tape, input_ids, loss_id = build(xs)
    if not np.isfinite(tape.value(loss_id)).all():
        raise NonFiniteError("finite_diff_check: f returned a non-finite value")
    grads = backward(tape, loss_id)
    analytic = [grads[i] for i in input_ids]

    worst = 0.0
    for k, x in enumerate(xs):
        flat = x.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            t_plus, _, lp = build(xs)
            f_plus = float(t_plus.value(lp))
            flat[j] = orig - eps
            t_minus, _, lm = build(xs)
            f_minus = float(t_minus.value(lm))
            flat[j] = orig
            if not (np.isfinite(f_plus) and np.isfinite(f_minus)):
                raise NonFiniteError("finite_diff_check: f returned a non-finite value")
            fd = (f_plus - f_minus) / (2.0 * eps)
            g = analytic[k].reshape(-1)[j]
            err = abs(fd - g) / max(1.0, abs(g))
            if err > worst:
                worst = err
    return worst
