"""Training strategies (the rows of ``TABLE``) on one shared graph constructor.

All lookahead variants are first-order: the lookahead delta enters the
graph as a detached constant, so no second-order terms flow anywhere. With
gamma=0 every lookahead strategy builds the exact graph of its base
strategy, which makes the reduction identities bitwise.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import asdict, dataclass
from typing import NamedTuple

import numpy as np

# called through their modules, so a patched optim.adam_step, model.predict or metrics.f_score is the one run
from . import metrics, model, optim
from .autodiff import NodeId, NonFiniteError, Packed, Tape, _bw_dense, backward, pack
from .model import (
    GraphRefs,
    ModelParams,
    classifier_logits,
    domain_loss_on_tape,
    encode_on_tape,
    grl_weight,
    onehot,
    put_params,
    task_loss_on_tape,
)
from .optim import AdamState, cosine_lr


@dataclass(frozen=True)
class Strategy:
    """What a strategy name means: one row of ``TABLE``."""

    base: str  # whose rate it inherits: its own name for a base
    disc: bool = False  # trains a discriminator
    lookahead: str | None = None  # None, "latent" (a step on the latents) or "params" (on the encoder)
    domain: str | None = None  # the one domain a single-domain run trains and is scored on
    sequential: bool = False  # runs as the two single-domain phases


TABLE = {
    "mtl": Strategy("mtl"),
    "mtl+lo": Strategy("mtl", lookahead="latent"),
    "adv": Strategy("adv", disc=True),
    # the task heads consume the updated latents, the discriminator the originals
    "adv+lo": Strategy("adv", disc=True, lookahead="latent"),
    "adv+maml": Strategy("adv", disc=True, lookahead="params"),
    "single:source": Strategy("single:source", domain="source"),
    "single:target": Strategy("single:target", domain="target"),
    "seq": Strategy("seq", sequential=True),
}
STRATEGIES = tuple(name for name, s in TABLE.items() if s.domain is None and not s.sequential)


DEFAULT_GAMMA = 0.25  # lookahead step of the +lo variants and adv+maml when none is given


@functools.cache
def trainable_tensors(strategy: str) -> tuple[str, ...]:
    row = TABLE[strategy]
    names = []
    for group, members in ModelParams.GROUPS.items():
        if group == "theta_d" and not row.disc:
            continue
        if row.domain is not None and group == ("phi_t" if row.domain == "source" else "phi_s"):
            continue  # the head of the domain a single-domain run does not train
        names.extend(members)
    return tuple(names)


@dataclass
class LatentPair:
    """Per-batch latents and their lookahead updates (values, not nodes)."""

    z_s: np.ndarray
    z_t: np.ndarray
    z_s_prime: np.ndarray
    z_t_prime: np.ndarray
    id_s_prime: NodeId = -1
    id_t_prime: NodeId = -1


def latent_step(
    tape: Tape, z_s: NodeId, z_t: NodeId, loss: NodeId, gamma: float, sign: float = 1.0, reversed_at=None
) -> LatentPair:
    """One lookahead step on the latents: z' = z + sign*gamma*dloss/dz.

    The gradient factor is inserted as a constant leaf, i.e. detached: the
    graph downstream of z' treats the step as data, which is exactly the
    first-order approximation. The gradient comes from a frontier sweep that
    visits only the nodes between the latents and ``loss``, not the encoder
    and its embedding table. With ``reversed_at``, a (source, target) pair of
    ``grl`` nodes each on a dense layer of its latent, the sweep stops at
    those nodes, so dloss/dz is the loss's unreversed gradient, taken back
    through each dense layer as the sweep takes it: bitwise the gradient of
    the same loss recorded without the reversal. With gamma=0 the original
    nodes are returned untouched.
    """
    if gamma < 0:
        raise ValueError("latent_step: gamma must be >= 0")
    zs_val = tape.value(z_s)
    zt_val = tape.value(z_t)
    if gamma == 0.0:
        return LatentPair(zs_val, zt_val, zs_val, zt_val, z_s, z_t)
    if reversed_at is None:
        grad_s, grad_t = backward(tape, loss, wrt=(z_s, z_t))
    else:
        at_grl = backward(tape, loss, wrt=reversed_at)
        grad_s, grad_t = (_before_dense(tape, tape.nodes[r].inputs[0], g) for r, g in zip(reversed_at, at_grl))
    step_s = tape.leaf(sign * gamma * grad_s)
    step_t = tape.leaf(sign * gamma * grad_t)
    id_s = tape.add(z_s, step_s)
    id_t = tape.add(z_t, step_t)
    return LatentPair(zs_val, zt_val, tape.value(id_s), tape.value(id_t), id_s, id_t)


def _before_dense(tape: Tape, dense: NodeId, g: np.ndarray) -> np.ndarray:
    """The gradient ``g`` at a ``dense`` node taken back to its input, in a
    +0.0 buffer as the sweep's first term is."""
    node = tape.nodes[dense]
    return _bw_dense(g, [tape.value(i) for i in node.inputs], node.value, node.meta, (True, False, False))[0] + 0.0


@dataclass
class ForwardResult:
    """One strategy forward graph plus its reported loss values.

    ``joint`` is L_s + L_t - L_d (or L_s + L_t without a discriminator).
    ``refs.objective`` is the node to run backward on; its -L_d pathway goes
    through the gradient reversal layer so one sweep yields the minimax
    signs while the discriminator still receives +dL_d/d(theta_d).
    """

    refs: GraphRefs
    loss_s: float | None
    loss_t: float | None
    loss_d: float | None
    latents: LatentPair | None = None

    @property
    def joint(self) -> float:
        total = (self.loss_s or 0.0) + (self.loss_t or 0.0)
        if self.loss_d is not None:
            total -= self.loss_d
        return total


def strategy_forward(
    params: ModelParams,
    batch_s,
    batch_t,
    strategy: str = "adv",
    lam: float = 1.0,
    gamma: float = 0.0,
) -> ForwardResult:
    """Build the forward graph for one paired batch under a strategy.

    ``batch_s``/``batch_t`` are (sequences, one-hot labels) tuples. For the
    ``single:*`` strategies the other domain's batch may be None. Every
    two-domain strategy records, in this order: both encoders; with a
    discriminator, the shared features it reads and the reversed domain
    loss; for a ``+lo`` variant with gamma != 0, the inner loss (without a
    discriminator) and the latent step; both heads and task losses; the
    objective. The ``+lo`` step is ascent on the domain loss's unreversed
    gradient, read at the reversal, with a discriminator, and descent on the
    summed task losses without one.
    ``adv+maml`` records the ``adv`` graph: its lookahead is a shift of the
    encoder parameters, which ``training_step`` makes before the call.
    """
    row = TABLE.get(strategy)
    if row is None or row.sequential:
        raise ValueError(f"unknown strategy '{strategy}'")
    tape = Tape()
    p = put_params(tape, params)
    refs = GraphRefs(tape, p)

    if row.domain is not None:
        seqs, y = batch_s if row.domain == "source" else batch_t
        z = encode_on_tape(tape, p, seqs)
        logits = classifier_logits(tape, p, z, row.domain)
        loss = task_loss_on_tape(tape, logits, y)
        refs.objective = loss
        if row.domain == "source":
            refs.z_s, refs.loss_s = z, loss
            return ForwardResult(refs, float(tape.value(loss)), None, None)
        refs.z_t, refs.loss_t = z, loss
        return ForwardResult(refs, None, float(tape.value(loss)), None)

    seq_s, y_s = batch_s
    seq_t, y_t = batch_t

    def heads(z_s, z_t):
        # both heads before both losses: node order sets the order gradients are summed in
        logits_s = classifier_logits(tape, p, z_s, "source")
        logits_t = classifier_logits(tape, p, z_t, "target")
        return task_loss_on_tape(tape, logits_s, y_s), task_loss_on_tape(tape, logits_t, y_t)

    refs.z_s = encode_on_tape(tape, p, seq_s)
    refs.z_t = encode_on_tape(tape, p, seq_t)
    z_s_in, z_t_in = refs.z_s, refs.z_t
    if row.disc:
        # the shared features, reversed, feed the discriminator
        u_s = tape.dense(refs.z_s, p["sh_W"], p["sh_b"], "tanh")
        u_t = tape.dense(refs.z_t, p["sh_W"], p["sh_b"], "tanh")
        grl_s, grl_t = tape.grl(u_s, lam), tape.grl(u_t, lam)
        refs.loss_d = domain_loss_on_tape(tape, p, grl_s, grl_t)
    latents = None
    if row.lookahead == "latent" and gamma != 0.0:
        if row.disc:  # ascent on the domain loss, read before the reversal
            inner, sign, reversed_at = refs.loss_d, 1.0, (grl_s, grl_t)
        else:  # descent on the summed task losses
            inner, sign, reversed_at = tape.add(*heads(refs.z_s, refs.z_t)), -1.0, None
        latents = latent_step(tape, refs.z_s, refs.z_t, inner, gamma, sign, reversed_at)
        z_s_in, z_t_in = latents.id_s_prime, latents.id_t_prime
    refs.loss_s, refs.loss_t = heads(z_s_in, z_t_in)
    if row.disc:
        refs.objective = tape.add(tape.add(refs.loss_s, refs.loss_t), refs.loss_d)
    else:
        refs.objective = tape.add(refs.loss_s, refs.loss_t)
    return ForwardResult(
        refs,
        float(tape.value(refs.loss_s)),
        float(tape.value(refs.loss_t)),
        float(tape.value(refs.loss_d)) if row.disc else None,
        latents,
    )


W_B_TENSORS = ModelParams.GROUPS["w_b"]


def domain_loss_graph(params: ModelParams, batch_s, batch_t) -> GraphRefs:
    """Encoder + shared layer + discriminator only, no reversal; the raw
    domain loss used by the parameter-space lookahead."""
    tape = Tape()
    p = put_params(tape, params)
    refs = GraphRefs(tape, p)
    refs.z_s = encode_on_tape(tape, p, batch_s[0])
    refs.z_t = encode_on_tape(tape, p, batch_t[0])
    u_s = tape.dense(refs.z_s, p["sh_W"], p["sh_b"], "tanh")
    u_t = tape.dense(refs.z_t, p["sh_W"], p["sh_b"], "tanh")
    refs.loss_d = refs.objective = domain_loss_on_tape(tape, p, u_s, u_t)
    return refs


def maml_lookahead_step(params: ModelParams, refs: GraphRefs, gamma: float) -> dict[str, np.ndarray]:
    """Encoder-space lookahead: w_b' = w_b + gamma * dL_d/dw_b.

    ``refs`` must hold a raw domain-loss graph (see ``domain_loss_graph``).
    Returns the modified encoder tensors; everything else is untouched.
    """
    if gamma < 0:
        raise ValueError("maml_lookahead_step: gamma must be >= 0")
    if gamma == 0.0:
        return {k: params.tensors[k].copy() for k in W_B_TENSORS}
    grads = refs.param_grads(backward(refs.tape, refs.loss_d))
    return {k: params.tensors[k] + gamma * grads[k] for k in W_B_TENSORS}


# --- epoch loop --------------------------------------------------------------


@dataclass
class TrainingConfig:
    lr: float = 1e-3
    gamma: float = DEFAULT_GAMMA

    def __post_init__(self):
        # a NaN compares False with everything, so it would slip past the bounds
        if not math.isfinite(self.lr):
            raise ValueError(f"lr must be finite, got {self.lr}")
        if self.lr <= 0:
            raise ValueError(f"lr must be > 0, got {self.lr}")
        if not math.isfinite(self.gamma):
            raise ValueError(f"gamma must be finite, got {self.gamma}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")


@dataclass
class EpochReport:
    epoch: int
    strategy: str
    losses: dict
    lr: float
    lam: float | None  # reversal weight of the first step; None without a discriminator
    wall_ms: float
    aux_state_scalars: int


class TrainingAborted(RuntimeError):
    """A run hit a non-finite loss; carries the diagnostics, including the
    step's learning rate and reversal weight when known."""

    def __init__(self, strategy, epoch, batch, cause, lr=None, lam=None):
        where = f"strategy={strategy} epoch={epoch} batch={batch}"
        if lr is not None:
            where += f" lr={lr:.6g}"
        if lam is not None:
            where += f" lambda={lam:.6g}"
        super().__init__(f"non-finite loss: {where}: {cause}")
        self.strategy = strategy
        self.epoch = epoch
        self.batch = batch
        self.cause = cause
        self.lr = lr
        self.lam = lam

    def __reduce__(self):
        # rebuilt from its own arguments, so it pickles across processes
        return type(self), (self.strategy, self.epoch, self.batch, self.cause, self.lr, self.lam)


class Split(NamedTuple):
    """A split packed once: its token sequences and their integer labels."""

    seqs: Packed
    labels: np.ndarray


def pack_split(examples) -> Split:
    """A list of (token sequence, label) as a :class:`Split`; a ``Split`` is
    returned as it is."""
    if isinstance(examples, Split):
        return examples
    return Split(pack([e[0] for e in examples]), np.array([e[1] for e in examples]))


def make_batches(examples, batch_size: int, rng) -> list:
    """Shuffle and cut into full batches of (packed sequences, onehot
    labels). ``examples`` is a :class:`Split` or a list of (tokens, label)."""
    split = pack_split(examples)
    n = len(split.seqs)
    order = rng.permutation(n)
    cuts = (order[start : start + batch_size] for start in range(0, n - batch_size + 1, batch_size))
    batches = [(split.seqs.take(idx), onehot(split.labels[idx])) for idx in cuts]
    for _, y in batches:
        y.flags.writeable = False  # every run of a seed trains on the same batches
    return batches


def paired_batches(source_examples, target_examples, batch_size: int, rng) -> list:
    """Equal-count batch pairs; the shorter side cycles over reshuffles."""
    source, target = pack_split(source_examples), pack_split(target_examples)
    bs = make_batches(source, batch_size, rng)
    bt = make_batches(target, batch_size, rng)
    if not bs or not bt:
        raise ValueError("paired_batches: a loader produced no full batch")
    n = max(len(bs), len(bt))
    while len(bs) < n:
        bs.extend(make_batches(source, batch_size, rng))
    while len(bt) < n:
        bt.extend(make_batches(target, batch_size, rng))
    return list(zip(bs[:n], bt[:n]))


def batch_schedule(source, target, batch_size: int, epochs: int, seed: int) -> list:
    """Per epoch, the (batch_s, batch_t) pairs a run trains on, all drawn
    from one ``default_rng(seed)``: the ``paired_batches`` of the two train
    splits, or with ``target`` None, ``(b, b)`` for each batch ``b`` that
    ``make_batches`` cuts from ``source`` alone (a ``single:*`` run)."""
    rng = np.random.default_rng(seed)
    if target is None:
        return [[(b, b) for b in make_batches(source, batch_size, rng)] for _ in range(epochs)]
    return [paired_batches(source, target, batch_size, rng) for _ in range(epochs)]


def training_step(strategy, params, opt_state, batch_s, batch_t, lr_t, lam, gamma):
    """One gradient step; returns (loss record, aux state scalars)."""
    forward_params, shift = params, {}
    if TABLE[strategy].lookahead == "params" and gamma != 0.0:
        shift = maml_lookahead_step(params, domain_loss_graph(params, batch_s, batch_t), gamma)
        forward_params = ModelParams(params.config, {**params.tensors, **shift})
    fwd = strategy_forward(forward_params, batch_s, batch_t, strategy, lam, gamma)
    aux = sum(v.size for v in shift.values())
    if fwd.latents is not None:  # the lookahead's z' buffers
        aux += fwd.latents.z_s_prime.size + fwd.latents.z_t_prime.size
    refs = fwd.refs
    wanted = trainable_tensors(strategy)
    grads = backward(refs.tape, refs.objective, wrt=[refs.param_nodes[k] for k in wanted])
    optim.adam_step(opt_state, params.tensors, dict(zip(wanted, grads)), lr_t)
    record = {"L_s": fwd.loss_s, "L_t": fwd.loss_t, "L_d": fwd.loss_d, "joint": fwd.joint}
    return record, aux


@dataclass
class RunResult:
    strategy: str
    selected: ModelParams  # a copy of the parameters after epoch ``epoch``
    epoch: int  # the dev-selected epoch: best dev F, the earliest on a tie
    epoch_reports: list
    dev_f: list  # selection metric per epoch
    wall_ms: float = 0.0
    peak_aux: int = 0


def train_run(
    strategy: str, params: ModelParams, schedule: list, dev: Split, config: TrainingConfig, run_log=None
) -> RunResult:
    """Multi-epoch training of ``params`` in place, with dev selection.

    ``schedule`` holds the (batch_s, batch_t) pairs of each epoch to train,
    one entry per epoch (see ``batch_schedule``); a schedule with no batch,
    or with epochs of unequal length, raises ``ValueError`` before any step.
    Each step takes its rate from the cosine schedule and its reversal
    weight from the ramp; a non-finite loss aborts the run with
    ``TrainingAborted``. After each epoch the parameters are scored by the
    positive-class F, on the ``dev`` split, of the head the strategy trains:
    the source head for ``single:source``, the target head for every other
    strategy. They are copied only when that F beats every earlier epoch's:
    the result holds that copy as ``selected`` and its index as ``epoch``.
    ``run_log`` is an optional file handle receiving one JSON line per
    epoch, written before the epoch is scored.
    """
    steps_per_epoch = len(schedule[0]) if schedule else 0
    if steps_per_epoch == 0:
        raise ValueError("train_run: the schedule holds no batch")
    for epoch, pairs in enumerate(schedule):
        if len(pairs) != steps_per_epoch:
            raise ValueError(f"train_run: epoch {epoch} holds {len(pairs)} batches, epoch 0 holds {steps_per_epoch}")
    total_steps = steps_per_epoch * len(schedule)
    with_disc = TABLE[strategy].disc
    domain = TABLE[strategy].domain or "target"
    opt_state = AdamState()
    reports, dev_f, best = [], [], 0
    t0 = time.perf_counter()
    for epoch, pairs in enumerate(schedule):
        offset = epoch * steps_per_epoch
        records, peak_aux = [], 0
        t_epoch = time.perf_counter()
        for i, (batch_s, batch_t) in enumerate(pairs):
            lr_t = cosine_lr(offset + i, total_steps, config.lr)
            lam = grl_weight((offset + i) / total_steps)
            if i == 0:  # the epoch reports its first step's rate and weight
                lr_start, lam_start = lr_t, lam if with_disc else None
            try:
                record, aux = training_step(strategy, params, opt_state, batch_s, batch_t, lr_t, lam, config.gamma)
            except NonFiniteError as e:
                raise TrainingAborted(strategy, epoch, i, e, lr=lr_t, lam=lam if with_disc else None) from e
            records.append(record)
            peak_aux = max(peak_aux, aux)
        wall_ms = (time.perf_counter() - t_epoch) * 1000.0
        losses = {}
        for key in ("L_s", "L_t", "L_d", "joint"):
            vals = [r[key] for r in records if r[key] is not None]
            losses[key] = float(np.mean(vals)) if vals else None
        reports.append(EpochReport(epoch, strategy, losses, lr_start, lam_start, wall_ms, peak_aux))
        if run_log is not None:
            run_log.write(json.dumps(asdict(reports[-1])) + "\n")
        dev_f.append(metrics.f_score(model.predict(params, dev.seqs, domain), dev.labels)[0])
        if epoch == 0 or dev_f[epoch] > dev_f[best]:
            best, selected = epoch, params.copy()
    wall_ms = (time.perf_counter() - t0) * 1000.0
    peak_aux = max((r.aux_state_scalars for r in reports), default=0)
    return RunResult(strategy, selected, best, reports, dev_f, wall_ms, peak_aux)
