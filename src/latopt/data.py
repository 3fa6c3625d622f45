"""Synthetic two-domain datasets with controllable divergence, the
preprocessing steps (trim, dedup, upsampling), and the unigram KL
divergence diagnostic.

Generator design
----------------
Labels are drawn first (exact class counts per declared positive rate),
then tokens:

- *shared-signal* tokens correlate with the label the same way in both
  domains (positive-signal vs negative-signal subsets),
- *domain-cue* tokens correlate with the label in opposite directions in
  the two domains (cue subset A marks positives in the source but
  negatives in the target),
- everything else is background noise from a common pool.

Because the domains have different positive rates, the cue marginals
diverge: raising ``cue_rate`` raises the unigram KL between the domains,
which is the divergence dial the transfer experiments turn. With no cue
tokens and equal positive rates the two domains are exchangeable.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

CHUNK = 128  # examples whose tokens are computed together; larger chunks raise peak RSS
SPLITS = ("train", "dev", "test")  # the split names an example may carry
INT32 = np.iinfo(np.int32)


def not_a_split(split) -> str:
    """The message refusing an example's ``split`` outside ``SPLITS``."""
    return f"split {split!r} is not {', '.join(SPLITS[:-1])} or {SPLITS[-1]}"


def _token_array(tokens) -> np.ndarray:
    """``tokens`` as a fresh read-only 1-D int32 array; bool, float or
    non-integer tokens, another number of dimensions, or a token outside
    int32 raise ``ValueError``."""
    a = np.asarray(tokens)
    if a.ndim != 1:
        raise ValueError(f"tokens must be a 1-D sequence, got shape {a.shape}")
    if a.size and a.dtype.kind not in "iu":  # Python ints beyond int64 make an object array
        raise ValueError(f"tokens must be integers within int32, got {a.dtype} values")
    if a is not tokens and any(type(t) in (bool, np.bool_) for t in tokens):  # numpy reads True among ints as 1
        raise ValueError("tokens must be integers within int32, got bool values")
    if a.size and (a.min() < INT32.min or a.max() > INT32.max):
        raise ValueError(f"tokens must be integers within int32, got values in [{a.min()}, {a.max()}]")
    a = a.astype(np.int32)
    a.flags.writeable = False
    return a


@dataclass(frozen=True, eq=False, slots=True)
class Example:
    """One labelled token sequence. ``tokens`` is a read-only 1-D int32
    array: an array that already is one is kept as it is, often a view into
    a buffer shared with other examples, and any other integer sequence is
    copied into one (see ``_token_array`` for what it refuses). Two examples
    are equal, and hash alike, when their token values, label and split are."""

    tokens: np.ndarray
    label: int
    split: str

    def __post_init__(self):
        t = self.tokens
        if type(t) is not np.ndarray or t.dtype != np.int32 or t.ndim != 1 or t.flags.writeable:
            object.__setattr__(self, "tokens", _token_array(t))

    def __eq__(self, other):
        if not isinstance(other, Example):
            return NotImplemented
        return (self.label, self.split) == (other.label, other.split) and self.tokens.tobytes() == other.tokens.tobytes()

    def __hash__(self):
        return hash((self.tokens.tobytes(), self.label, self.split))


@dataclass
class DomainDataset:
    domain: str
    vocab_size: int
    seed: int
    examples: list = field(default_factory=list)

    def split(self, name: str) -> list:
        return [e for e in self.examples if e.split == name]

    def pairs(self, name: str) -> list:
        """(tokens, label) tuples for one split, as the trainer consumes them."""
        return [(e.tokens, e.label) for e in self.examples if e.split == name]

    def positive_rate(self, split_name: str | None = None) -> float:
        ex = self.examples if split_name is None else self.split(split_name)
        if not ex:
            return 0.0
        return sum(e.label for e in ex) / len(ex)


@dataclass
class GeneratorConfig:
    vocab_size: int = 4096
    n_shared: int = 8  # per polarity (positive-signal and negative-signal subsets)
    n_cues: int = 8  # per cue subset; 0 removes domain cues entirely
    n_background: int = 128
    signal_rate: float = 0.25  # fraction of positions carrying label signal
    cue_rate: float = 0.15  # source fraction carrying domain cues (divergence dial)
    target_cue_rate: float | None = None  # default 0.4*cue_rate: cue mass identifies the domain
    signal_fidelity: float = 0.9
    cue_fidelity: float = 0.95
    min_len: int = 12
    max_len: int = 30
    source_train_size: int = 2048  # the source corpus is the big noisy one
    target_train_size: int = 1024
    test_size: int = 512
    source_positive_rate: float = 0.5
    target_positive_rate: float = 0.18
    seed: int = 7

    def __post_init__(self):
        if self.vocab_size > INT32.max:
            raise ValueError(f"vocab_size must be at most 2**31 - 1, got {self.vocab_size}")
        if self.target_cue_rate is None:
            self.target_cue_rate = 0.4 * self.cue_rate
        for name in ("n_shared", "n_cues", "n_background", "seed"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        sets = self.token_sets()
        used = 2 * self.n_shared + 2 * self.n_cues + self.n_background
        if used > self.vocab_size:
            raise ValueError(f"config needs {used} tokens but vocab_size is {self.vocab_size}")
        for r in (self.source_positive_rate, self.target_positive_rate):
            if not 0.0 <= r <= 1.0:
                raise ValueError(f"positive rate {r} unreachable")
        for name in ("signal_rate", "cue_rate", "target_cue_rate", "signal_fidelity", "cue_fidelity"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {getattr(self, name)}")
        for name in ("cue_rate", "target_cue_rate"):
            total = self.signal_rate + getattr(self, name)
            if total > 1.0:
                raise ValueError(f"signal_rate + {name} must not exceed 1, got {total}")
        # an empty token set is allowed only where no draw can reach it
        if self.n_shared == 0 and self.signal_rate > 0:
            raise ValueError(f"n_shared is 0 but signal_rate {self.signal_rate} draws shared tokens")
        share = self.signal_rate + (min(self.cue_rate, self.target_cue_rate) if self.n_cues > 0 else 0.0)
        if self.n_background == 0 and share < 1.0:
            raise ValueError(f"n_background is 0 but signal and cue tokens take only {share} of the positions")
        if min(self.source_train_size, self.target_train_size, self.test_size) < 1:
            raise ValueError("split sizes must be >= 1")
        if not 1 <= self.min_len <= self.max_len:
            raise ValueError("need 1 <= min_len <= max_len")
        assert len(set().union(*sets.values())) == used  # disjoint by construction

    def token_sets(self) -> dict:
        n, c = self.n_shared, self.n_cues
        return {
            "shared_pos": tuple(range(0, n)),
            "shared_neg": tuple(range(n, 2 * n)),
            "cue_a": tuple(range(2 * n, 2 * n + c)),
            "cue_b": tuple(range(2 * n + c, 2 * n + 2 * c)),
            "background": tuple(range(2 * n + 2 * c, 2 * n + 2 * c + self.n_background)),
        }


def _exact_count_labels(n: int, rate: float, rng) -> np.ndarray:
    labels = np.zeros(n, dtype=int)
    labels[: round(n * rate)] = 1
    rng.shuffle(labels)
    return labels


def _generate_domain(rng, cfg: GeneratorConfig, domain: str, rate: float) -> DomainDataset:
    """Each split's labels, then per example one length draw and 3 x length
    uniform draws (kind, flip, pick per position). The draws are made one
    example at a time, in that order; the tokens are computed once per
    ``CHUNK`` examples from a table of (first token, set size) per code, into
    one read-only int32 array whose views the chunk's examples hold.
    Every token set is a contiguous range, so ``first + int(pick * size)`` is
    the member ``int(pick * size)`` of the set."""
    sets = cfg.token_sets()
    pos_cue, neg_cue = ("cue_a", "cue_b") if domain == "source" else ("cue_b", "cue_a")
    cue_rate = cfg.cue_rate if domain == "source" else cfg.target_cue_rate
    # a kind draw below edges[0] carries signal, one below edges[1] a cue, any
    # other background; code 2 * kind + against picks from order[code], where
    # against is 1 for the set against the label
    edges = np.array([cfg.signal_rate, cfg.signal_rate + cue_rate if cfg.n_cues > 0 else cfg.signal_rate])
    fidelity = np.array([cfg.signal_fidelity, cfg.cue_fidelity, 0.0])  # background ignores its flip
    order = [sets[b] for b in ("shared_pos", "shared_neg", pos_cue, neg_cue, "background", "background")]
    first = np.array([min(s, default=0) for s in order], dtype=np.int32)
    size = np.array([len(s) for s in order])
    train_size = cfg.source_train_size if domain == "source" else cfg.target_train_size
    examples = []
    for split, n in (("train", train_size), ("test", cfg.test_size)):
        labels = _exact_count_labels(n, rate, rng)
        for start in range(0, n, CHUNK):
            chunk = labels[start : start + CHUNK]
            lengths, draws = [], []
            for _ in range(len(chunk)):
                length = int(rng.integers(cfg.min_len, cfg.max_len + 1))
                lengths.append(length)
                draws.append(rng.random((3, length)))
            kinds, flips, picks = np.concatenate(draws, axis=1)
            kind = (kinds >= edges[0]).astype(np.intp) + (kinds >= edges[1])  # the edges <= each draw
            code = 2 * kind + ((flips < fidelity[kind]) != np.repeat(chunk == 1, lengths))
            tokens = first[code] + (picks * size[code]).astype(np.int32)  # every id is below vocab_size
            tokens.flags.writeable = False
            end = 0
            for label, length in zip(chunk.tolist(), lengths):
                examples.append(Example(tokens[end : end + length], label, split))
                end += length
    return DomainDataset(domain, cfg.vocab_size, cfg.seed, examples)


def generate_domain_pair(config: GeneratorConfig):
    """Deterministic (source, target) datasets under the config seed."""
    rng = np.random.default_rng(config.seed)
    source = _generate_domain(rng, config, "source", config.source_positive_rate)
    target = _generate_domain(rng, config, "target", config.target_positive_rate)
    return source, target


# --- preprocessing -----------------------------------------------------------


def dedup_and_trim(dataset: DomainDataset, max_len: int = 100, taken: set | None = None) -> DomainDataset:
    """Truncate sequences to ``max_len``, then drop duplicate sequences
    (first occurrence kept). ``taken`` extends the duplicate check across
    datasets; it holds each kept sequence's ``tokens.tobytes()``. Truncating
    first keeps the operation idempotent."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    seen = set() if taken is None else taken
    kept = []
    for e in dataset.examples:
        if len(e.tokens) > max_len:
            e = Example(e.tokens[:max_len], e.label, e.split)
        key = e.tokens.tobytes()
        if key in seen:
            continue
        seen.add(key)
        kept.append(e)
    return replace(dataset, examples=kept)


def dedup_pair(source: DomainDataset, target: DomainDataset, max_len: int = 100):
    """Within- and cross-dataset dedup; cross-dataset duplicates are
    removed from the target side."""
    seen: set = set()
    source = dedup_and_trim(source, max_len, seen)
    target = dedup_and_trim(target, max_len, seen)
    return source, target


def split_dev(dataset: DomainDataset, seed: int = 0) -> DomainDataset:
    """Carve a seeded dev split of a tenth of the train split out of it."""
    rng = np.random.default_rng(seed)
    train_idx = [i for i, e in enumerate(dataset.examples) if e.split == "train"]
    n_dev = int(len(train_idx) * 0.1)
    dev_idx = set(rng.permutation(train_idx)[:n_dev].tolist())
    examples = [
        Example(e.tokens, e.label, "dev") if i in dev_idx else e
        for i, e in enumerate(dataset.examples)
    ]
    return replace(dataset, examples=examples)


def upsample(dataset: DomainDataset, to_size: int, seed: int = 0) -> DomainDataset:
    """Resample each train-split class with replacement up to ``to_size``
    examples; originals are kept. Other splits pass through unchanged."""
    rng = np.random.default_rng(seed)
    train = dataset.split("train")
    rest = [e for e in dataset.examples if e.split != "train"]
    out = list(train)
    for label in (0, 1):
        members = [e for e in train if e.label == label]
        if not members:
            raise ValueError(f"upsample: class {label} is empty")
        if len(members) > to_size:
            raise ValueError(f"upsample: class {label} already exceeds to_size={to_size}")
        extra = rng.integers(0, len(members), size=to_size - len(members))
        out.extend(members[i] for i in extra)
    return replace(dataset, examples=out + rest)


def prepare_transfer_pair(config: GeneratorConfig, max_len: int = 100):
    """Full pipeline: generate, trim+dedup (cross-duplicates dropped from
    the target), carve a dev split of a tenth of each train split, and
    upsample the target train classes to the source's larger class size."""
    source, target = generate_domain_pair(config)
    source, target = dedup_pair(source, target, max_len)
    source = split_dev(source, seed=config.seed + 1)
    target = split_dev(target, seed=config.seed + 2)
    to_size = max(
        sum(1 for e in source.split("train") if e.label == 0),
        sum(1 for e in source.split("train") if e.label == 1),
    )
    target = upsample(target, to_size, config.seed + 3)
    return source, target


# --- unigram statistics -------------------------------------------------------


def unigram_counts(dataset: DomainDataset, splits=None) -> dict:
    """Token -> count over the examples of ``splits`` (all when None), with
    Python int keys and counts."""
    # counted on the sorted ids: np.unique would import numpy.ma, and a
    # bincount needs memory for every id up to the largest one in the file
    kept = [e.tokens for e in dataset.examples if splits is None or e.split in splits]
    ids = np.sort(np.concatenate([np.empty(0, np.int32), *kept]))
    if not ids.size:
        return {}
    starts = np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))
    counts = np.diff(np.append(starts, ids.size))
    return dict(zip(ids[starts].tolist(), counts.tolist()))


def kl_over_overlap(target_counts: dict, source_counts: dict) -> float:
    """KL(target || source) over the overlapped vocabulary, with both
    distributions renormalized over the overlap. Natural log."""
    overlap = sorted(set(target_counts) & set(source_counts))
    if not overlap:
        raise ValueError("kl_over_overlap: empty overlapped vocabulary")
    t_total = sum(target_counts[g] for g in overlap)
    s_total = sum(source_counts[g] for g in overlap)
    kl = 0.0
    for g in overlap:
        pt = target_counts[g] / t_total
        ps = source_counts[g] / s_total
        kl += pt * math.log(pt / ps)
    return kl


def unigram_kl(source: DomainDataset, target: DomainDataset, splits=None) -> float:
    """d_KL(P_target || P_source) over the overlapped vocabulary."""
    return kl_over_overlap(unigram_counts(target, splits), unigram_counts(source, splits))


# --- file format ---------------------------------------------------------------


def save_dataset(dataset: DomainDataset, path) -> None:
    """JSON-lines: one header object, then one object per example, in the
    bytes ``json.dumps`` gives each. The examples are written ``CHUNK`` at a
    time, each chunk with one ``%`` format of its lines' templates; a label
    that is not exactly an ``int`` and a split are ``json.dumps``'d alone
    (a ``str`` split once per value), so a bool label writes ``true``. Every
    chunk is formatted before ``path`` is opened, so a value JSON cannot
    hold raises ``TypeError`` and leaves ``path`` as it was."""
    header = {"domain": dataset.domain, "vocab_size": dataset.vocab_size, "seed": dataset.seed}
    chunks = [json.dumps(header) + "\n"]
    quoted: dict = {}
    examples = dataset.examples
    for start in range(0, len(examples), CHUNK):
        lines, values = [], []
        for e in examples[start : start + CHUNK]:
            tokens, label, split = e.tokens.tolist(), e.label, e.split
            if type(label) is not int:
                label = json.dumps(label)
            if type(split) is str:
                if split not in quoted:
                    quoted[split] = json.dumps(split)
                split = quoted[split]
            else:
                split = json.dumps(split)
            n = len(tokens)
            lines.append('{"tokens": [' + ("%d, " * (n - 1) + "%d" if n else "") + '], "label": %s, "split": %s}\n')
            values += tokens
            values += (label, split)
        chunks.append("".join(lines) % tuple(values))
    with open(path, "w") as fh:
        fh.writelines(chunks)


class DatasetError(ValueError):
    """A dataset file that cannot be read or does not hold a dataset; the
    message starts with the file's path."""


def _json_object(line: str) -> dict:
    obj = json.loads(line)
    if type(obj) is not dict:
        raise ValueError("not a JSON object")
    return obj


def load_dataset(path) -> DomainDataset:
    """Read a file written by ``save_dataset``. A missing or unreadable file,
    a line that is not JSON, or a header or example without its keys or
    with a value of the wrong type, a label other than 0 or 1, a split other
    than train, dev or test, or a token outside int32, raises
    ``DatasetError``. The examples hold views into one read-only int32
    buffer of the file's tokens."""
    line_no = 1
    try:
        with open(path) as fh:
            header = _json_object(fh.readline())
            domain, vocab_size, seed = header["domain"], header["vocab_size"], header["seed"]
            if type(domain) is not str or type(vocab_size) is not int or type(seed) is not int:
                raise ValueError("the header needs a string domain and integer vocab_size and seed")
            token_lists, rows = [], []
            for line_no, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                obj = _json_object(line)
                tokens, label, split = obj["tokens"], obj["label"], obj["split"]
                if type(tokens) is not list or not {*map(type, tokens)} <= {int}:  # a bool is not an int here
                    raise ValueError("tokens must be a list of integers")
                if type(label) is not int or type(split) is not str:
                    raise ValueError("an example needs an integer label and a string split")
                if label not in (0, 1):
                    raise ValueError(f"label {label} is not 0 or 1")
                if split not in SPLITS:
                    raise ValueError(not_a_split(split))
                token_lists.append(tokens)
                rows.append((line_no, label, split))
        ends = list(itertools.accumulate(map(len, token_lists)))
        try:
            buffer = np.fromiter(itertools.chain.from_iterable(token_lists), np.int32, ends[-1] if ends else 0)
        except OverflowError:  # a token outside int32: Example names it, on its line
            for tokens, (line_no, label, split) in zip(token_lists, rows):
                Example(tokens, label, split)
            raise
        buffer.flags.writeable = False
        examples = [
            Example(buffer[end - len(tokens) : end], label, split)
            for tokens, (_, label, split), end in zip(token_lists, rows, ends)
        ]
    except OSError as e:
        raise DatasetError(f"{path}: {e.strerror or e}") from None
    except KeyError as e:
        raise DatasetError(f"{path}: line {line_no}: missing key {e}") from None
    except ValueError as e:  # json.JSONDecodeError is a ValueError
        raise DatasetError(f"{path}: line {line_no}: {e}") from None
    return DomainDataset(domain, vocab_size, seed, examples)
