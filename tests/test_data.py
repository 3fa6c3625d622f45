"""Generator guarantees, preprocessing semantics, the unigram KL
diagnostic against hand-computed values, and the file format."""

import hashlib
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest
from helpers import spearman_rank_correlation
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latopt.data import (
    CHUNK,
    INT32,
    DatasetError,
    DomainDataset,
    Example,
    GeneratorConfig,
    dedup_and_trim,
    dedup_pair,
    generate_domain_pair,
    kl_over_overlap,
    load_dataset,
    prepare_transfer_pair,
    save_dataset,
    split_dev,
    unigram_counts,
    unigram_kl,
    upsample,
)
from latopt.metrics import f_score

FAST = dict(source_train_size=256, target_train_size=128, test_size=64)

GOLDENS = Path(__file__).parent / "goldens" / "datasets.json"

# Generator configs whose datasets are pinned byte for byte; the digests
# were written with the per-token sampler that the array sampler replaced.
PINNED = {
    "seed0": dict(seed=0),
    "seed7": dict(seed=7),
    "seed61": dict(seed=61),
    "hard": dict(target_train_size=256, signal_fidelity=0.75),
    "no_cues": dict(n_cues=0),
    "length1": dict(min_len=1, max_len=1),
    "signal_plus_cue_is_1": dict(signal_rate=0.6, cue_rate=0.4),
    "fidelity_extremes": dict(signal_fidelity=1.0, cue_fidelity=0.0),
    "long": dict(min_len=40, max_len=100, **FAST),
    "empty_shared_unreached": dict(n_shared=0, signal_rate=0.0, **FAST),
    "empty_background_unreached": dict(
        n_background=0, signal_rate=0.5, cue_rate=0.5, target_cue_rate=0.5, **FAST
    ),
}


def dataset_sha256(source, target) -> str:
    """sha256 of every example's (tokens, label, split), source then target."""
    rows = [[[e.tokens.tolist(), e.label, e.split] for e in ds.examples] for ds in (source, target)]
    return hashlib.sha256(json.dumps(rows, separators=(",", ":")).encode()).hexdigest()


def test_generation_deterministic_under_seed():
    a_s, a_t = generate_domain_pair(GeneratorConfig(seed=5, **FAST))
    b_s, b_t = generate_domain_pair(GeneratorConfig(seed=5, **FAST))
    assert a_s.examples == b_s.examples
    assert a_t.examples == b_t.examples


@pytest.mark.parametrize("name", sorted(PINNED))
def test_generated_datasets_match_byte_goldens(name):
    want = json.loads(GOLDENS.read_text())["datasets"][name]
    assert dataset_sha256(*generate_domain_pair(GeneratorConfig(**PINNED[name]))) == want


def test_positive_rates_match_declared():
    src, tgt = generate_domain_pair(GeneratorConfig(seed=2))
    assert abs(src.positive_rate("train") - 0.5) <= 0.02
    assert abs(tgt.positive_rate("train") - 0.18) <= 0.02
    assert abs(tgt.positive_rate("test") - 0.18) <= 0.02


def test_infeasible_positive_rate_rejected():
    with pytest.raises(ValueError):
        GeneratorConfig(target_positive_rate=1.5)


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"signal_rate": 1.5}, "signal_rate must lie in [0, 1]"),
        ({"cue_rate": -0.1}, "cue_rate must lie in [0, 1]"),
        ({"target_cue_rate": 2.0}, "target_cue_rate must lie in [0, 1]"),
        ({"signal_fidelity": 1.01}, "signal_fidelity must lie in [0, 1]"),
        ({"cue_fidelity": -0.5}, "cue_fidelity must lie in [0, 1]"),
        ({"signal_rate": 0.6, "cue_rate": 0.5}, "signal_rate + cue_rate must not exceed 1"),
        ({"signal_rate": 0.6, "cue_rate": 0.1, "target_cue_rate": 0.5}, "signal_rate + target_cue_rate"),
    ],
    ids=[
        "signal_rate",
        "cue_rate",
        "target_cue_rate",
        "signal_fidelity",
        "cue_fidelity",
        "signal_plus_cue",
        "signal_plus_target_cue",
    ],
)
def test_rates_outside_unit_interval_rejected(change, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        GeneratorConfig(**change)


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"n_shared": -1}, "n_shared must be >= 0"),
        ({"n_cues": -2}, "n_cues must be >= 0"),
        ({"n_background": -1}, "n_background must be >= 0"),
        ({"n_shared": 0}, "n_shared is 0 but signal_rate 0.25 draws shared tokens"),
        ({"n_shared": 0, "n_cues": 0}, "n_shared is 0 but signal_rate 0.25 draws shared tokens"),
        ({"n_background": 0}, "n_background is 0 but signal and cue tokens take only 0.31 of the positions"),
        ({"n_background": 0, "signal_rate": 0.5, "cue_rate": 0.5}, "cue tokens take only 0.7 of"),
        ({"n_background": 0, "n_cues": 0, "signal_rate": 0.5, "cue_rate": 0.5}, "cue tokens take only 0.5 of"),
    ],
    ids=["n_shared", "n_cues", "n_background", "shared", "shared_no_cues", "background", "target_cue", "no_cues"],
)
def test_empty_token_set_a_draw_can_reach_rejected(change, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        GeneratorConfig(**change)


def test_token_budget_must_fit_vocab():
    with pytest.raises(ValueError):
        GeneratorConfig(vocab_size=64, n_background=128)


def test_vocab_size_beyond_int32_rejected():
    GeneratorConfig(vocab_size=2**31 - 1)
    with pytest.raises(ValueError, match=re.escape("vocab_size must be at most 2**31 - 1, got 2147483648")):
        GeneratorConfig(vocab_size=2**31)


def test_empty_cues_equal_rates_domains_exchangeable():
    cfg = GeneratorConfig(n_cues=0, target_positive_rate=0.5, seed=11)
    src, tgt = generate_domain_pair(cfg)
    assert unigram_kl(src, tgt) < 0.01


def test_shared_signal_correlates_identically_across_domains():
    src, tgt = generate_domain_pair(GeneratorConfig(seed=3))
    sets = GeneratorConfig(seed=3).token_sets()

    def corr(ds, bucket):
        score = np.array([sum(t in sets[bucket] for t in e.tokens) / len(e.tokens) for e in ds.examples])
        label = np.array([e.label for e in ds.examples], dtype=float)
        return np.corrcoef(score, label)[0, 1]

    assert corr(src, "shared_pos") > 0.5 and corr(tgt, "shared_pos") > 0.5
    assert corr(src, "shared_neg") < -0.5 and corr(tgt, "shared_neg") < -0.5
    # domain cues flip their correlation between domains
    assert corr(src, "cue_a") > 0.3 and corr(tgt, "cue_a") < -0.3


def _logistic_probe(train_x, train_y, test_x, test_y, steps=400, lr=0.5):
    """Plain logistic regression by gradient descent; returns positive-class F."""
    w = np.zeros(train_x.shape[1])
    b = 0.0
    for _ in range(steps):
        p = 1.0 / (1.0 + np.exp(-(train_x @ w + b)))
        g = p - train_y
        w -= lr * (train_x.T @ g) / len(train_y)
        b -= lr * g.mean()
    preds = (test_x @ w + b > 0).astype(int)
    return f_score(preds, test_y)[0]


def _token_counts(ds, split, tokens):
    index = {t: i for i, t in enumerate(tokens)}
    exs = ds.split(split)
    x = np.zeros((len(exs), len(tokens)))
    y = np.zeros(len(exs))
    for i, e in enumerate(exs):
        y[i] = e.label
        for t in e.tokens:
            if t in index:
                x[i, index[t]] += 1.0
    return x, y


def test_probe_oracles_shared_strong_cues_do_not_transfer():
    cfg = GeneratorConfig(seed=4)
    src, tgt = prepare_transfer_pair(cfg)
    sets = cfg.token_sets()
    shared = sets["shared_pos"] + sets["shared_neg"]
    cues = sets["cue_a"] + sets["cue_b"]

    # shared-token probe reaches >= 0.9 dev F within each domain
    for ds in (src, tgt):
        x_tr, y_tr = _token_counts(ds, "train", shared)
        x_dev, y_dev = _token_counts(ds, "dev", shared)
        assert _logistic_probe(x_tr, y_tr, x_dev, y_dev) >= 0.9

    # cue probe trained on the source collapses on the target
    x_tr, y_tr = _token_counts(src, "train", cues)
    x_dev, y_dev = _token_counts(tgt, "dev", cues)
    assert _logistic_probe(x_tr, y_tr, x_dev, y_dev) <= 0.3


def test_dedup_and_trim_fixpoint_and_truncation():
    ds = DomainDataset(
        "d", 10, 0,
        [
            Example((1, 2, 3), 0, "train"),
            Example((1, 2, 3), 1, "train"),  # duplicate sequence, dropped
            Example(tuple(range(8)), 1, "train"),
        ],
    )
    out = dedup_and_trim(ds, max_len=5)
    assert len(out.examples) == 2
    assert out.examples[1].tokens.tolist() == [0, 1, 2, 3, 4]
    again = dedup_and_trim(out, max_len=5)
    assert again.examples == out.examples  # idempotent


def test_dedup_no_duplicates_short_sequences_unchanged():
    ds = DomainDataset("d", 10, 0, [Example((1, 2), 0, "train"), Example((3, 4), 1, "test")])
    out = dedup_and_trim(ds, max_len=100)
    assert out.examples == ds.examples


def test_cross_dataset_duplicates_removed_from_target():
    src = DomainDataset("s", 10, 0, [Example((1, 2), 0, "train")])
    tgt = DomainDataset("t", 10, 0, [Example((1, 2), 1, "train"), Example((3,), 1, "train")])
    src2, tgt2 = dedup_pair(src, tgt)
    assert len(src2.examples) == 1
    assert [e.tokens.tolist() for e in tgt2.examples] == [[3]]


def test_upsample_counts_and_rate():
    examples = [Example((i,), 0, "train") for i in range(90)]
    examples += [Example((100 + i,), 1, "train") for i in range(10)]
    ds = DomainDataset("d", 200, 0, examples)
    out = upsample(ds, 90, seed=1)
    train = out.split("train")
    assert len(train) == 180
    assert abs(out.positive_rate("train") - 0.5) <= 1.0 / (2 * 90)


def test_upsample_at_size_is_same_multiset():
    examples = [Example((i,), i % 2, "train") for i in range(10)]
    ds = DomainDataset("d", 50, 0, examples)
    out = upsample(ds, 5, seed=0)
    assert sorted(e.tokens.tolist() for e in out.split("train")) == sorted(e.tokens.tolist() for e in examples)


def test_upsample_only_touches_train():
    examples = [Example((1,), 0, "train"), Example((2,), 1, "train"), Example((3,), 1, "test")]
    ds = DomainDataset("d", 50, 0, examples)
    out = upsample(ds, 3, seed=0)
    assert out.split("test") == [Example((3,), 1, "test")]


def test_upsample_empty_class_rejected():
    ds = DomainDataset("d", 50, 0, [Example((1,), 1, "train")])
    with pytest.raises(ValueError):
        upsample(ds, 5, seed=0)


def test_split_dev_fraction():
    examples = [Example((i,), 0, "train") for i in range(100)]
    ds = DomainDataset("d", 200, 0, examples)
    out = split_dev(ds, seed=4)
    assert len(out.split("dev")) == 10
    assert len(out.split("train")) == 90


def test_unigram_counts_per_split():
    examples = [Example((1, 1, 2), 0, "train"), Example((3,), 1, "train"), Example((2, 4), 1, "test")]
    ds = DomainDataset("d", 10, 0, examples)
    assert unigram_counts(ds) == {1: 2, 2: 2, 3: 1, 4: 1}
    assert unigram_counts(ds, ("train",)) == {1: 2, 2: 1, 3: 1}
    assert unigram_counts(ds, ("dev",)) == {}


def test_kl_identical_corpora_zero():
    ds = DomainDataset("d", 10, 0, [Example((1, 2, 2, 3), 0, "train")])
    assert abs(unigram_kl(ds, ds)) < 1e-12


def test_kl_hand_computed_value_and_asymmetry():
    # P_t = (0.5, 0.5), P_s = (0.25, 0.75) over a 2-token overlap
    target = {0: 2, 1: 2}
    source = {0: 1, 1: 3}
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(kl_over_overlap(target, source) - expected) < 1e-12
    assert abs(expected - 0.14384) < 5e-6
    assert kl_over_overlap(target, source) != kl_over_overlap(source, target)


def test_kl_renormalizes_over_overlap():
    # out-of-overlap mass is discarded before comparison
    target = {0: 2, 1: 2, 99: 100}
    source = {0: 1, 1: 3, 42: 50}
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    assert abs(kl_over_overlap(target, source) - expected) < 1e-12


def test_kl_nonnegative_random_counts():
    rng = np.random.default_rng(0)
    for _ in range(50):
        t = {i: int(c) for i, c in enumerate(rng.integers(1, 50, size=8))}
        s = {i: int(c) for i, c in enumerate(rng.integers(1, 50, size=8))}
        assert kl_over_overlap(t, s) >= -1e-12


def test_kl_empty_overlap_rejected():
    with pytest.raises(ValueError):
        kl_over_overlap({0: 1}, {1: 1})


def test_kl_increases_with_cue_share():
    shares = (0.05, 0.10, 0.15, 0.20, 0.25)
    rhos = []
    for seed in range(5):
        kls = []
        for share in shares:
            cfg = GeneratorConfig(cue_rate=share, seed=100 + seed, **FAST)
            src, tgt = generate_domain_pair(cfg)
            kls.append(unigram_kl(src, tgt, ("train",)))
        rhos.append(spearman_rank_correlation(shares, kls))
    assert np.mean(rhos) > 0.9


def test_dataset_roundtrip(tmp_path):
    src, _ = generate_domain_pair(GeneratorConfig(seed=6, **FAST))
    path = tmp_path / "src.jsonl"
    save_dataset(src, path)
    loaded = load_dataset(path)
    assert loaded.domain == src.domain
    assert loaded.vocab_size == src.vocab_size
    assert loaded.examples == src.examples


def test_dataset_round_trip_gives_read_only_int32_views_and_the_same_bytes(tmp_path):
    src, _ = generate_domain_pair(GeneratorConfig(seed=6, **FAST))
    save_dataset(src, tmp_path / "a.jsonl")
    loaded = load_dataset(tmp_path / "a.jsonl")
    assert loaded.examples == src.examples
    for e in loaded.examples + src.examples:
        assert e.tokens.dtype == np.int32 and e.tokens.ndim == 1 and not e.tokens.flags.writeable
    # the loaded examples are views into one buffer of the file's tokens
    assert len({id(e.tokens.base) for e in loaded.examples}) == 1
    save_dataset(loaded, tmp_path / "b.jsonl")
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


@pytest.mark.parametrize(
    "tokens, reason",
    [
        ((True, False), "got bool values"),
        ([3, True], "got bool values"),
        (np.array([1, 0], dtype=bool), "got bool values"),
        ((1.5, 2.0), "got float64 values"),
        (np.array([1.0, 2.0]), "got float64 values"),
        (("a",), "got <U1 values"),
        ([[1, 2]], "must be a 1-D sequence, got shape (1, 2)"),
        (3, "must be a 1-D sequence, got shape ()"),
        ((1, 2**31), "got values in [1, 2147483648]"),
        (np.array([-(2**31) - 1]), "got values in [-2147483649, -2147483649]"),
        (np.array([2**32], dtype=np.uint64), "got values in [4294967296, 4294967296]"),
        ((2**70,), "got object values"),
    ],
    ids=["bool", "bool_among_ints", "bool_array", "float", "float_array", "str", "2d", "scalar", "above", "below", "uint64", "beyond_int64"],
)
def test_example_refuses_tokens_that_are_not_int32_integers(tokens, reason):
    with pytest.raises(ValueError, match=re.escape(reason)):
        Example(tokens, 0, "train")


def test_example_keeps_a_read_only_int32_array_and_copies_anything_else():
    frozen = np.array([4, 5], dtype=np.int32)
    frozen.flags.writeable = False
    assert Example(frozen, 0, "train").tokens is frozen
    for given in ([4, 5], (4, 5), np.array([4, 5]), np.array([4, 5], dtype=np.int32), frozen.astype(np.int64)):
        tokens = Example(given, 0, "train").tokens
        assert tokens is not given and tokens.dtype == np.int32 and not tokens.flags.writeable
        assert tokens.tolist() == [4, 5]
        if isinstance(given, np.ndarray):
            assert given.flags.writeable == (given is not frozen)  # the caller's array is left as it was
    empty = Example((), 1, "test").tokens
    assert empty.dtype == np.int32 and empty.shape == (0,)


def test_examples_compare_and_hash_by_token_values_label_and_split():
    a = Example((1, 2), 0, "train")
    assert a == Example(np.array([1, 2], dtype=np.int64), 0, "train")
    assert hash(a) == hash(Example([1, 2], 0, "train"))
    assert len({a, Example([1, 2], 0, "train"), Example((), 0, "train")}) == 2
    for other in (Example((1, 3), 0, "train"), Example((1,), 0, "train"), Example((1, 2), 1, "train"), Example((1, 2), 0, "dev")):
        assert a != other
    assert a != ((1, 2), 0, "train")


@pytest.mark.parametrize(
    "bad, reason",
    [([3, 2**31], "got values in [3, 2147483648]"), ([2**70], "got object values")],
    ids=["beyond_int32", "beyond_int64"],
)
def test_load_dataset_names_the_line_of_a_token_outside_int32(tmp_path, bad, reason):
    path = tmp_path / "d.jsonl"
    rows = [{"domain": "source", "vocab_size": 30, "seed": 0}, {"tokens": [1, 2], "label": 0, "split": "train"}]
    rows.append({"tokens": bad, "label": 1, "split": "train"})
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    with pytest.raises(DatasetError, match=re.escape(f"{path}: line 3: tokens must be integers within int32, {reason}")):
        load_dataset(path)


def test_unigram_counts_match_counting_token_by_token():
    src, _ = generate_domain_pair(GeneratorConfig(seed=8, **FAST))
    src.examples += [Example((-3, 2**31 - 1, -3), 1, "dev"), Example((), 0, "dev")]
    for splits in (None, ("train",), ("dev", "test"), ("none",)):
        want: dict = {}
        for e in src.examples:
            if splits is None or e.split in splits:
                for t in e.tokens.tolist():
                    want[t] = want.get(t, 0) + 1
        got = unigram_counts(src, splits)
        assert got == want and all(type(k) is int and type(v) is int for k, v in got.items())


# sha256 of the two files ``latopt gen --seed 0`` writes, taken from the
# writer that called json.dumps once per example
GEN_SEED0_SHA256 = {
    "source": "5941c9238b6e02e7b2614000ba892530012fe1a67933e627111ce2016510f057",
    "target": "d7c87a2acfb714755037cf8c8b3b8a2403436675b900e462f084aaac14c24030",
}


def test_the_default_pair_files_keep_their_bytes(tmp_path):
    for ds in prepare_transfer_pair(GeneratorConfig(seed=0)):
        save_dataset(ds, tmp_path / "d.jsonl")
        assert hashlib.sha256((tmp_path / "d.jsonl").read_bytes()).hexdigest() == GEN_SEED0_SHA256[ds.domain]


def save_dataset_per_line(dataset, path) -> None:
    """The reference writer: one json.dumps call and one write per example."""
    with open(path, "w") as fh:
        fh.write(
            json.dumps(
                {"domain": dataset.domain, "vocab_size": dataset.vocab_size, "seed": dataset.seed}
            )
            + "\n"
        )
        for e in dataset.examples:
            fh.write(json.dumps({"tokens": e.tokens.tolist(), "label": e.label, "split": e.split}) + "\n")


_ODD_SPLITS = ['say "dev"', "back\\slash", "caf\u00e9 \u6587 \U0001f600", "%s %d %%", ""]
_ROW = st.tuples(
    st.lists(st.one_of(st.sampled_from([INT32.min, INT32.max, 0, -1]), st.integers(INT32.min, INT32.max)), max_size=6),
    st.one_of(st.sampled_from([0, 1, True, False]), st.integers(), st.floats()),
    st.one_of(st.sampled_from(("train", "dev", "test", *_ODD_SPLITS)), st.text(max_size=4), st.none(), st.integers(), st.booleans()),
)
_EXTREMES = [((), 0, "train"), ((INT32.min, INT32.max), 1, 'say "dev"'), ((7,), True, "back\\slash")]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(rows=st.lists(_ROW, min_size=1, max_size=8), n=st.integers(0, 3 * CHUNK + 1), domain=st.text(max_size=3))
@example(rows=_EXTREMES, n=2 * CHUNK + 1, domain="source")
@example(rows=[((), 5, None), ((1, 2), -3, 4)], n=3, domain="caf\u00e9")
@example(rows=[((), 0, 1), ((), 0, True), ((2,), 1, ["dev"]), ((), 1, 1.0)], n=4, domain="target")  # 1 == True == 1.0
def test_save_dataset_writes_the_bytes_of_json_dumps_per_example(tmp_path_factory, rows, n, domain):
    dataset = DomainDataset(domain, 30, 0, [Example(*rows[i % len(rows)]) for i in range(n)])
    d = tmp_path_factory.mktemp("w")
    save_dataset(dataset, d / "chunked.jsonl")
    save_dataset_per_line(dataset, d / "per_line.jsonl")
    assert (d / "chunked.jsonl").read_bytes() == (d / "per_line.jsonl").read_bytes()


def test_a_numpy_int_label_raises_the_same_type_error_from_both_writers(tmp_path):
    examples = [Example((1, 2), 0, "train")] * (CHUNK + 3) + [Example((3,), np.int64(1), "dev")]
    messages = []
    for write in (save_dataset, save_dataset_per_line):
        with pytest.raises(TypeError) as e:
            write(DomainDataset("source", 30, 0, examples), tmp_path / "d.jsonl")
        messages.append(str(e.value))
    assert messages[0] == messages[1] == "Object of type int64 is not JSON serializable"


def test_a_save_that_raises_leaves_its_path_as_it_was(tmp_path):
    # every chunk is formatted before the file is opened, so a value JSON
    # cannot hold in the last chunk leaves no partial file that loads
    good = [Example((1, 2), 0, "train")] * (CHUNK + 1)
    bad = DomainDataset("source", 30, 0, good + [Example((3,), np.int64(1), "dev")])
    with pytest.raises(TypeError):
        save_dataset(bad, tmp_path / "new.jsonl")
    assert not (tmp_path / "new.jsonl").exists()
    save_dataset(DomainDataset("source", 30, 0, good), tmp_path / "old.jsonl")
    before = (tmp_path / "old.jsonl").read_bytes()
    with pytest.raises(TypeError):
        save_dataset(bad, tmp_path / "old.jsonl")
    assert (tmp_path / "old.jsonl").read_bytes() == before
