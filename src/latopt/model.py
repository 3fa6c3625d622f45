"""Two-domain transfer architecture: encoder, shared/domain dense layers,
task classifiers, and a domain discriminator behind a gradient reversal
layer.

Parameter groups
----------------
``w_b``   encoder (embedding table + two tanh dense layers)
``w_sh``  shared dense layer (feeds the discriminator and both classifiers)
``phi_s`` source dense layer + source classifier
``phi_t`` target dense layer + target classifier
``theta_d`` domain discriminator

The groups partition the trainable tensors exactly; the training strategies
key their update rules off this partition.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .autodiff import NodeId, Tape, pack

CHECKPOINT_VERSION = 1
GRL_K = 10.0  # steepness of the reversal-weight ramp
PREDICT_CHUNK = 256  # sequences per tape in ``predict``
SAVE_CHUNK = 4096  # tensor values per ``json.dumps`` call in ``save_checkpoint``


@dataclass
class ModelConfig:
    vocab_size: int = 4096
    embed_dim: int = 16
    latent_dim: int = 32

    def __post_init__(self):
        for name in ("vocab_size", "embed_dim", "latent_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")


@dataclass
class ModelParams:
    """All trainable tensors, keyed by name, plus the group partition."""

    config: ModelConfig
    tensors: dict[str, np.ndarray]

    GROUPS = {
        "w_b": ("embedding", "enc1_W", "enc1_b", "enc2_W", "enc2_b"),
        "w_sh": ("sh_W", "sh_b"),
        "phi_s": ("src_W", "src_b", "cls_s1_W", "cls_s1_b", "cls_s2_W", "cls_s2_b"),
        "phi_t": ("tgt_W", "tgt_b", "cls_t1_W", "cls_t1_b", "cls_t2_W", "cls_t2_b"),
        "theta_d": ("disc1_W", "disc1_b", "disc2_W", "disc2_b"),
    }

    def copy(self) -> "ModelParams":
        return ModelParams(self.config, {k: v.copy() for k, v in self.tensors.items()})


def _glorot(rng, fan_in, fan_out):
    a = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-a, a, size=(fan_in, fan_out))


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Shape of every trainable tensor under ``config``, in init order."""
    v, e, d = config.vocab_size, config.embed_dim, config.latent_dim
    return {
        "embedding": (v, e),
        "enc1_W": (e, d),
        "enc1_b": (d,),
        "enc2_W": (d, d),
        "enc2_b": (d,),
        "src_W": (d, d),
        "src_b": (d,),
        "tgt_W": (d, d),
        "tgt_b": (d,),
        "sh_W": (d, d),
        "sh_b": (d,),
        "cls_s1_W": (2 * d, d),
        "cls_s1_b": (d,),
        "cls_s2_W": (d, 2),
        "cls_s2_b": (2,),
        "cls_t1_W": (2 * d, d),
        "cls_t1_b": (d,),
        "cls_t2_W": (d, 2),
        "cls_t2_b": (2,),
        "disc1_W": (d, d),
        "disc1_b": (d,),
        "disc2_W": (d, 2),
        "disc2_b": (2,),
    }


def init_params(config: ModelConfig, seed: int) -> ModelParams:
    """Deterministic initialization; the same (config, seed) always yields
    bit-identical tensors, which is what lets every strategy start from the
    same weights. The embedding is N(0, 0.1), weights Glorot-uniform,
    biases zero; draws follow the order of ``param_shapes``."""
    rng = np.random.default_rng(seed)
    t = {}
    for name, shape in param_shapes(config).items():
        if name == "embedding":
            t[name] = rng.normal(0.0, 0.1, size=shape)
        elif len(shape) == 2:
            t[name] = _glorot(rng, *shape)
        else:
            t[name] = np.zeros(shape)
    return ModelParams(config, t)


def grl_weight(progress: float) -> float:
    """Reversal weight 2/(1+exp(-GRL_K*p)) - 1: 0 at the start of training,
    saturating toward 1. ``progress`` p is the fraction of training done."""
    if not 0.0 <= progress <= 1.0:
        raise ValueError(f"progress must be in [0, 1], got {progress}")
    return 2.0 / (1.0 + math.exp(-GRL_K * progress)) - 1.0


def onehot(labels) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((labels.size, 2))
    out[np.arange(labels.size), labels] = 1.0
    return out


@functools.cache
def _domain_labels(n: int) -> tuple[np.ndarray, np.ndarray]:
    """One-hot domain labels of a batch of ``n`` per domain, source 0 and
    target 1: read-only, made once per batch size and shared by every tape."""
    labels = onehot(np.zeros(n, dtype=int)), onehot(np.ones(n, dtype=int))
    for y in labels:
        y.flags.writeable = False
    return labels


def _validate_onehot(y: np.ndarray) -> None:
    if y.ndim != 2 or not ((y == 0.0) | (y == 1.0)).all() or not (np.add.reduce(y, axis=1) == 1.0).all():
        raise ValueError("labels must be one-hot rows")


@dataclass
class GraphRefs:
    """Node ids of interest after building a forward graph on a tape."""

    tape: Tape
    param_nodes: dict[str, NodeId]
    z_s: NodeId = -1
    z_t: NodeId = -1
    loss_s: NodeId = -1
    loss_t: NodeId = -1
    loss_d: NodeId = -1
    objective: NodeId = -1

    def param_grads(self, grads) -> dict[str, np.ndarray]:
        return {name: grads[nid] for name, nid in self.param_nodes.items()}


def put_params(tape: Tape, params: ModelParams) -> dict[str, NodeId]:
    return {name: tape.leaf(arr) for name, arr in params.tensors.items()}


def encode_on_tape(tape: Tape, p: dict[str, NodeId], sequences) -> NodeId:
    """Mean-pooled embeddings through the two-layer tanh encoder."""
    pooled = tape.embedding_mean(p["embedding"], sequences)
    h = tape.dense(pooled, p["enc1_W"], p["enc1_b"], "tanh")
    return tape.dense(h, p["enc2_W"], p["enc2_b"], "tanh")


HEADS = {"source": "phi_s", "target": "phi_t"}  # the group of each domain's head
DOMAINS = tuple(HEADS)


def check_domain(domain: str) -> None:
    """Raise ``ValueError`` unless ``domain`` is one of ``DOMAINS``."""
    if domain not in DOMAINS:
        raise ValueError(f"unknown domain {domain!r} (choose from {', '.join(DOMAINS)})")


def classifier_logits(tape, p, z, domain: str) -> NodeId:
    """Task logits from latent features: the concatenation of
    domain-specific and shared features through the 2-layer head. An
    unknown ``domain`` raises ``ValueError`` before anything is recorded."""
    check_domain(domain)
    w, b, c1w, c1b, c2w, c2b = ModelParams.GROUPS[HEADS[domain]]
    v = tape.dense(z, p[w], p[b], "tanh")
    u = tape.dense(z, p["sh_W"], p["sh_b"], "tanh")
    vu = tape.concat(v, u, axis=1)
    h = tape.dense(vu, p[c1w], p[c1b], "relu")
    return tape.dense(h, p[c2w], p[c2b], None)


def discriminator_logits(tape, p, u: NodeId) -> NodeId:
    h = tape.dense(u, p["disc1_W"], p["disc1_b"], "relu")
    return tape.dense(h, p["disc2_W"], p["disc2_b"], None)


def task_loss_on_tape(tape: Tape, logits: NodeId, y: np.ndarray) -> NodeId:
    _validate_onehot(y)
    if tape.value(logits).shape != y.shape:
        raise ValueError("task_loss: logits/labels shape mismatch")
    return tape.softmax_cross_entropy(logits, tape.leaf(y))


def domain_loss_on_tape(tape, p, u_s: NodeId, u_t: NodeId) -> NodeId:
    """Discriminator loss: source carries domain label 0, target label 1,
    each term averaged over its batch. A caller that wants the reversal
    records ``tape.grl`` on ``u_s`` and ``u_t`` first."""
    bs = tape.value(u_s).shape[0]
    bt = tape.value(u_t).shape[0]
    if bs != bt:
        raise ValueError(f"domain_loss: batch sizes {bs} and {bt} differ")
    logit_s = discriminator_logits(tape, p, u_s)
    logit_t = discriminator_logits(tape, p, u_t)
    y_s, y_t = _domain_labels(bs)
    return tape.add(
        tape.softmax_cross_entropy(logit_s, tape.leaf(y_s)),
        tape.softmax_cross_entropy(logit_t, tape.leaf(y_t)),
    )


def predict(params: ModelParams, sequences, domain: str) -> np.ndarray:
    """Argmax class predictions for one domain's classifier. ``sequences``
    is packed once (a ``Packed`` batch is used as it is) and encoded in
    chunks of ``PREDICT_CHUNK``; a batch of at most that many is encoded as
    it is. Each chunk's tape holds only the tensors the encoder, ``w_sh``
    and ``domain``'s head read. An unknown ``domain`` raises ``ValueError``."""
    check_domain(domain)
    G = ModelParams.GROUPS
    read = G["w_b"] + G["w_sh"] + G[HEADS[domain]]
    batch = pack(sequences)
    n = len(batch)
    out = []
    for start in range(0, n, PREDICT_CHUNK):
        chunk = batch if n <= PREDICT_CHUNK else batch.take(np.arange(start, min(start + PREDICT_CHUNK, n)))
        tape = Tape()
        p = {name: tape.leaf(params.tensors[name]) for name in read}
        z = encode_on_tape(tape, p, chunk)
        logits = classifier_logits(tape, p, z, domain)
        out.append(np.argmax(tape.value(logits), axis=1))
    return np.concatenate(out)


def save_checkpoint(params: ModelParams, path) -> None:
    """JSON checkpoint: group-name -> tensor-name -> shape + row-major
    values. Floats are serialized via repr so the round-trip is exact. The
    file is written a piece at a time, ``SAVE_CHUNK`` values per call to the
    C encoder, in the bytes one ``json.dumps`` of the whole payload gives;
    every tensor is looked up first, so a missing one raises before ``path``
    is opened."""
    groups = {
        g: {name: (list(params.tensors[name].shape), params.tensors[name].reshape(-1)) for name in names}
        for g, names in ModelParams.GROUPS.items()
    }
    head = json.dumps({"version": CHECKPOINT_VERSION, "config": asdict(params.config)})
    with open(path, "w") as f:
        f.write(head[:-1] + ', "groups": {')
        for i, (g, tensors) in enumerate(groups.items()):
            f.write(f'{", " if i else ""}{json.dumps(g)}: {{')
            for j, (name, (shape, flat)) in enumerate(tensors.items()):
                f.write(f'{", " if j else ""}{json.dumps(name)}: {{"shape": {json.dumps(shape)}, "data": [')
                for k in range(0, flat.size, SAVE_CHUNK):
                    f.write((", " if k else "") + json.dumps(flat[k : k + SAVE_CHUNK].tolist())[1:-1])
                f.write("]}")
            f.write("}")
        f.write("}}")


def load_checkpoint(path) -> ModelParams:
    """Read a checkpoint written by ``save_checkpoint``. The file must be a
    JSON object holding ``version``, ``config`` and ``groups`` and nothing
    else, whose ``version`` is the integer ``CHECKPOINT_VERSION``, whose
    ``config`` holds an integer for each field of ``ModelConfig`` and
    nothing else (a bool or a float is not an integer), and whose ``groups``
    name only groups of ``ModelParams.GROUPS`` and hold every tensor in its
    own group, with the shape the config gives it as a list of integers and
    finite numbers as data; otherwise ``ValueError`` names the key, group or
    tensor."""
    with open(path) as f:
        payload = json.load(f)
    if type(payload) is not dict:
        raise ValueError("checkpoint: not a JSON object")
    version = payload.get("version")
    if type(version) is not int or version != CHECKPOINT_VERSION:
        raise ValueError(f"checkpoint: 'version' must be the integer {CHECKPOINT_VERSION}, got {json.dumps(version)}")
    for key in ("config", "groups"):
        if type(payload.get(key)) is not dict:
            raise ValueError(f"checkpoint: {key!r} must be a JSON object")
    unknown = sorted(set(payload) - {"version", "config", "groups"})
    if unknown:
        raise ValueError(f"checkpoint: unknown key {unknown[0]!r}")
    config = dict(payload["config"])
    config.pop("grl_k", None)  # written by older version-1 files; nothing reads it
    keys = [f.name for f in fields(ModelConfig)]
    unknown = sorted(set(config) - set(keys))
    if unknown:
        raise ValueError(f"checkpoint: unknown config key {unknown[0]!r}")
    for key in keys:
        if key not in config:
            raise ValueError(f"checkpoint: config key {key!r} is missing")
        if type(config[key]) is not int:
            raise ValueError(f"checkpoint: config {key!r} must be an integer, got {json.dumps(config[key])}")
    cfg = ModelConfig(**config)
    shapes = param_shapes(cfg)
    tensors = {}
    for g, names in payload["groups"].items():
        if g not in ModelParams.GROUPS:
            raise ValueError(f"checkpoint: unknown group {g!r}")
        if type(names) is not dict:
            raise ValueError(f"checkpoint: group {g!r} must be a JSON object")
        for name, spec in names.items():
            if name not in ModelParams.GROUPS[g]:
                raise ValueError(f"checkpoint: tensor {name!r} is not a member of group {g!r}")
            if type(spec) is not dict or type(spec.get("shape")) is not list or type(spec.get("data")) is not list:
                raise ValueError(f"checkpoint: tensor {name!r} needs a list 'shape' and a list 'data'")
            if not all(type(d) is int for d in spec["shape"]):
                raise ValueError(f"checkpoint: tensor {name!r} shape must be a list of integers, got {json.dumps(spec['shape'])}")
            not_numbers = f"checkpoint: tensor {name!r} data must be a list of numbers"
            if not set(map(type, spec["data"])) <= {int, float}:  # a bool, a string or a list is not
                raise ValueError(not_numbers)
            try:
                data = np.array(spec["data"], dtype=np.float64)
            except OverflowError:  # an int beyond float range
                raise ValueError(not_numbers) from None
            shape = shapes[name]
            if tuple(spec["shape"]) != shape or data.shape != (math.prod(shape),):
                raise ValueError(
                    f"checkpoint: tensor {name!r} has shape {spec['shape']} and {data.size} values,"
                    f" but the config needs shape {list(shape)}"
                )
            if not np.isfinite(data).all():
                raise ValueError(f"checkpoint: tensor {name!r} holds a non-finite value")
            tensors[name] = data.reshape(shape)
    missing = [name for name in shapes if name not in tensors]
    if missing:
        raise ValueError(f"checkpoint: tensor {missing[0]!r} is missing")
    return ModelParams(cfg, {name: tensors[name] for name in shapes})
