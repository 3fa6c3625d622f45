"""Harness contracts: metric arithmetic, the phased baselines (``seq``,
``tgt``), experiment orchestration, and report/summary outputs."""

import ctypes
import json
import math
import multiprocessing
import os
import re
import types
from dataclasses import asdict, replace

import numpy as np
import pytest
from helpers import spearman_rank_correlation

from latopt.data import DomainDataset, Example, GeneratorConfig, prepare_transfer_pair
from latopt.harness import (
    ExperimentSpec,
    MetricsReport,
    _splits,
    analyze,
    format_summary,
    run_experiment,
    summary_rows,
)
from latopt.metrics import f_score, paired_sign_test
from latopt.model import ModelConfig, ModelParams, init_params, predict
from latopt.training import TrainingConfig, batch_schedule, train_run

FAST_GEN = GeneratorConfig(source_train_size=320, target_train_size=160, test_size=96, seed=21)
FAST_MODEL = ModelConfig(vocab_size=4096, embed_dim=8, latent_dim=8)


@pytest.fixture(scope="module")
def fast_pair():
    return prepare_transfer_pair(FAST_GEN)


def test_f_score_all_correct():
    f, r, p = f_score([1, 0, 1, 0], [1, 0, 1, 0])
    assert (f, r, p) == (1.0, 1.0, 1.0)


def test_f_score_no_positive_predictions():
    f, r, p = f_score([0, 0, 0], [1, 0, 1])
    assert (f, r, p) == (0.0, 0.0, 0.0)


def test_f_score_hand_counted():
    # TP=3, FP=1, FN=2
    preds = [1, 1, 1, 1, 0, 0, 0]
    labels = [1, 1, 1, 0, 1, 1, 0]
    f, r, p = f_score(preds, labels)
    assert abs(p - 0.75) < 1e-12
    assert abs(r - 0.6) < 1e-12
    assert abs(f - 2 * 0.45 / 1.35) < 1e-12


def test_f_score_length_mismatch():
    with pytest.raises(ValueError):
        f_score([1, 0], [1])


def test_f_score_harmonic_identity_random():
    rng = np.random.default_rng(1)
    for _ in range(100):
        preds = rng.integers(0, 2, 20)
        labels = rng.integers(0, 2, 20)
        f, r, p = f_score(preds, labels)
        if p + r > 0:
            assert abs(f - 2 * p * r / (p + r)) < 1e-12


def test_sign_test_values():
    assert paired_sign_test([1, 1, 1], [0, 0, 0]) == pytest.approx(0.25)
    assert paired_sign_test([1, 1], [1, 1]) == 1.0
    # 9/10 wins: two-sided binomial
    a = [1.0] * 9 + [0.0]
    b = [0.0] * 9 + [1.0]
    expected = 2 * (math.comb(10, 0) + math.comb(10, 1)) / 2**10
    assert paired_sign_test(a, b) == pytest.approx(expected)


def test_spearman_perfect_and_reversed():
    assert spearman_rank_correlation([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)
    assert spearman_rank_correlation([1, 2, 3], [3, 1, 0]) == pytest.approx(-1.0)


def _seq_run(init, schedules, source_dev, target_dev, config):
    """``seq`` by hand: a source run, then a target run from its selection."""
    run1 = train_run("single:source", init.copy(), schedules[0], source_dev, config)
    return train_run("single:target", run1.selected, schedules[1], target_dev, config)


def test_sequential_finetune_phase_two_starts_from_phase_one_selection(fast_pair, monkeypatch):
    from latopt import harness

    src, tgt = fast_pair
    ss, ts = _splits(src), _splits(tgt)
    runs, walls = [], []

    def spy(*args, **kwargs):
        runs.append(train_run(*args, **kwargs))
        walls.append(runs[-1].wall_ms)
        return runs[-1]

    monkeypatch.setattr(harness, "train_run", spy)
    spec = ExperimentSpec(strategies=["seq"], seeds=[0], lr_grid=[2e-3], epochs=2, batch_size=32, model=FAST_MODEL)
    (report,) = harness._seed_jobs(spec, 0, ss, ts)
    schedules = [batch_schedule(ss["train"], None, 32, 2, 0), batch_schedule(ts["train"], None, 32, 2, 1)]
    direct = _seq_run(init_params(FAST_MODEL, 0), schedules, ss["dev"], ts["dev"], TrainingConfig(lr=2e-3, gamma=0.0))
    assert [r.strategy for r in runs] == ["single:source", "single:target"]
    run = runs[-1]
    assert len(run.dev_f) == 2
    assert run.dev_f == direct.dev_f  # phase 2 trains on the second schedule
    assert run.epoch == direct.epoch
    for name in run.selected.tensors:
        np.testing.assert_array_equal(run.selected.tensors[name], direct.selected.tensors[name])
    assert (report.selected_epoch, report.dev_f) == (direct.epoch, direct.dev_f[direct.epoch])
    assert report.wall_ms == walls[0] + walls[1]  # the report's wall time counts both phases


def test_sequential_finetune_warm_start_helps_on_identical_domains(fast_pair):
    # with source == target, phase 2 should start from a better model than
    # a fresh one: its selection's dev F beats init's, on most seeds
    src, _ = fast_pair
    spec = ExperimentSpec(
        strategies=["seq"], seeds=list(range(5)), lr_grid=[2e-3], epochs=2, batch_size=32, model=FAST_MODEL
    )
    reports, _ = run_experiment(spec, source=src, target=src)
    seqs, labels = _splits(src)["dev"]
    wins = 0
    for r in reports:
        f_fresh = f_score(predict(init_params(FAST_MODEL, r.seed), seqs, "target"), labels)[0]
        wins += r.dev_f >= f_fresh  # the report's dev F is its selection's target-head F on this dev split
    assert wins >= 4


def test_spec_validation():
    with pytest.raises(ValueError):
        ExperimentSpec(strategies=[])
    with pytest.raises(ValueError):
        ExperimentSpec(seeds=[])
    with pytest.raises(ValueError):
        ExperimentSpec(lr_grid=[])
    with pytest.raises(ValueError):
        ExperimentSpec(strategies=["adversary"])  # unknown name
    # values no JSON spec can hold are checked as the spec is built, before any training
    from latopt.harness import SpecError

    with pytest.raises(SpecError, match=r"^gamma must be finite, got nan$"):
        ExperimentSpec(gamma=float("nan"))
    with pytest.raises(SpecError, match=r"^lr must be finite, got inf$"):
        ExperimentSpec(lr_grid=[1e-3, float("inf")])


def _fitting_pair(vocab=30):
    """A tiny source/target pair every check accepts: ids below ``vocab``,
    labels in {0, 1}, 8/4/4 examples per split."""
    rng = np.random.default_rng(4)
    pair = []
    for domain in ("source", "target"):
        examples = [
            Example(tuple(int(t) for t in rng.integers(0, vocab, size=5)), i % 2, split)
            for split, n in (("train", 8), ("dev", 4), ("test", 4))
            for i in range(n)
        ]
        pair.append(DomainDataset(domain, vocab, 0, examples))
    return pair


def _break(pair, bad):
    src, tgt = pair
    first = tgt.examples[0]
    if bad == "token_id":
        tgt.examples[0] = replace(first, tokens=first.tokens.tolist() + [39])
    elif bad == "vocab_size":
        tgt.vocab_size = 40
    elif bad == "label":
        tgt.examples[0] = replace(first, label=2)
    elif bad == "empty_split":
        src.examples = [e for e in src.examples if e.split != "dev"]
    elif bad == "empty_sequence":
        tgt.examples[-1] = replace(tgt.examples[-1], tokens=())
    elif bad == "split":
        tgt.examples[0] = replace(first, split="val")
    return src, tgt


SPEC_PROBLEMS = {
    "token_id": "target: token ids span [0, 39], outside the model vocabulary of 30 tokens",
    "vocab_size": "target: vocab_size 40 exceeds the model vocabulary of 30 tokens",
    "label": "target: labels [2] are not in {0, 1}",
    "empty_split": "source: the dev split is empty",
    "empty_sequence": "target: pack: empty token sequence",
    "batch_size": "source: batch_size 16 exceeds the 8 train examples",
    "split": "target: split 'val' is not train, dev or test",
}


@pytest.mark.parametrize("bad", sorted(SPEC_PROBLEMS))
def test_run_experiment_checks_spec_against_data_before_training(bad, monkeypatch):
    from latopt import harness
    from latopt.harness import SpecError

    def never(*args, **kwargs):
        raise AssertionError("trained before the spec was checked")

    monkeypatch.setattr(harness, "train_run", never)
    src, tgt = _break(_fitting_pair(), bad)
    spec = ExperimentSpec(
        strategies=["mtl"],
        seeds=[0],
        lr_grid=[1e-3],
        epochs=1,
        batch_size=16 if bad == "batch_size" else 4,
        model=ModelConfig(vocab_size=30, embed_dim=2, latent_dim=2),
    )
    with pytest.raises(SpecError) as info:
        run_experiment(spec, source=src, target=tgt)
    assert str(info.value) == SPEC_PROBLEMS[bad]


@pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
def test_run_experiment_refuses_an_out_dir_that_cannot_be_a_directory_before_any_work(tmp_path, monkeypatch, nested):
    from latopt import harness
    from latopt.harness import SpecError

    runs, pairs = [], []
    monkeypatch.setattr(harness, "train_run", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(harness, "prepare_transfer_pair", lambda *a, **k: pairs.append(a))
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    out = blocker / "sub" if nested else blocker
    spec = ExperimentSpec(strategies=["mtl"], seeds=[0], lr_grid=[1e-3], epochs=1, batch_size=32, generator=FAST_GEN)
    with pytest.raises(SpecError, match=f"^{re.escape(f'out_dir {out}: {blocker} is not a directory')}$"):
        run_experiment(spec, out_dir=out)
    assert runs == [] and pairs == [] and blocker.read_text() == "kept"


def test_data_problem_accepts_a_fitting_pair():
    from latopt.harness import checked_splits

    src, tgt = _fitting_pair()
    packed = checked_splits(30, 8, {"source": src, "target": tgt})
    assert {name: list(splits) for name, splits in packed.items()} == {
        "source": ["train", "dev", "test"],
        "target": ["train", "dev", "test"],
    }


@pytest.mark.parametrize(
    "spec, message",
    [
        ({"selction": "dev_f"}, "unknown key 'selction' in the spec"),
        ({"generator": {"seed": 1, "cue_share": 0.1}}, "unknown key 'cue_share' in generator"),
        ({"model": {"vocab_size": 30, "grl_k": 10.0}}, "unknown key 'grl_k' in model"),
        ({"strategies": ["adv", "advlo"]}, "unknown strategy 'advlo'"),
        ({"strategies": ["single:source"]}, "unknown strategy 'single:source'"),
        ({"model": [30]}, "model must be a JSON object"),
        (["adv"], "the spec must be a JSON object"),
        ({"gamma": -1}, "gamma must be >= 0, got -1"),
        ({"epochs": 0}, "epochs must be >= 1, got 0"),
        ({"batch_size": 0}, "batch_size must be >= 1, got 0"),
        ({"lr_grid": [1e-3, 0.0]}, "lr must be > 0, got 0.0"),
        ({"epochs": "5"}, 'epochs must be an integer, got "5"'),
        ({"seeds": "0"}, 'seeds must be a list of integers, got "0"'),
        ({"seeds": [0, True]}, "seeds must be a list of integers, got [0, true]"),
        ({"lr_grid": [1e-3, "3e-3"]}, 'lr_grid must be a list of numbers, got [0.001, "3e-3"]'),
        ({"gamma": None}, "gamma must be a number, got null"),
        ({"source_path": 3, "target_path": "t.jsonl"}, "source_path must be a string or null, got 3"),
        ({"model": {"embed_dim": "16"}}, 'model: embed_dim must be an integer, got "16"'),
        ({"generator": {"min_len": "3"}}, 'generator: min_len must be an integer, got "3"'),
        ({"generator": {"cue_rate": [0.1]}}, "generator: cue_rate must be a number, got [0.1]"),
        ({"seeds": [0, -1]}, "spec seeds must be >= 0, got [0, -1]"),
        ({"seeds": [3, 1, 2, 1, 3]}, "spec repeats seed 1"),
        ({"strategies": ["adv", "adv+lo", "adv"]}, "spec repeats strategy 'adv'"),
        ({"lr_grid": [1e-3, 3e-3, 1e-3]}, "spec repeats rate 0.001"),
        ({"source_path": "s.jsonl"}, "spec needs both source_path and target_path, or neither"),
        ({"target_path": "t.jsonl"}, "spec needs both source_path and target_path, or neither"),
        (
            {"source_path": "s.jsonl", "target_path": "t.jsonl", "generator": {"seed": 1}},
            "spec gives dataset paths and a generator; give one or the other",
        ),
    ],
    ids=[
        "top_level_key",
        "generator_key",
        "model_key",
        "strategy",
        "internal_strategy",
        "model_type",
        "not_object",
        "gamma",
        "epochs",
        "batch_size",
        "lr_grid",
        "epochs_string",
        "seeds_string",
        "seed_bool",
        "rate_string",
        "gamma_null",
        "path_number",
        "model_value",
        "generator_value",
        "generator_list",
        "negative_seed",
        "repeated_seed",
        "repeated_strategy",
        "repeated_rate",
        "source_path_alone",
        "target_path_alone",
        "paths_and_generator",
    ],
)
def test_spec_from_json_rejects_what_it_cannot_run(tmp_path, spec, message):
    from latopt.harness import SpecError

    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    with pytest.raises(SpecError, match=re.escape(message)):
        ExperimentSpec.from_json(path)


@pytest.mark.parametrize("content", [None, "", "{\"seeds\": [0],", "\xff"], ids=["missing", "empty", "truncated", "not_utf8"])
def test_spec_from_json_names_an_unreadable_file(tmp_path, content):
    from latopt.harness import SpecError

    path = tmp_path / "spec.json"
    if content is not None:
        path.write_bytes(content.encode("latin-1"))
    with pytest.raises(SpecError, match=f"^{re.escape(str(path))}: "):
        ExperimentSpec.from_json(path)


def test_spec_json_roundtrip(tmp_path):
    spec = ExperimentSpec(strategies=["adv"], seeds=[0], lr_grid=[1e-3], generator=FAST_GEN)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(asdict(spec)))
    loaded = ExperimentSpec.from_json(path)
    assert loaded.strategies == ["adv"]
    assert loaded.generator == FAST_GEN
    assert loaded.model == spec.model


def test_run_experiment_counts_and_outputs(tmp_path, fast_pair):
    src, tgt = fast_pair
    spec = ExperimentSpec(
        strategies=["adv", "adv+lo"],
        seeds=[0, 1],
        lr_grid=[1e-3, 3e-3],
        gamma=0.1,
        epochs=2,
        batch_size=32,
        model=FAST_MODEL,
    )
    reports, analysis = run_experiment(spec, out_dir=tmp_path, source=src, target=tgt)
    assert len(reports) == 4  # 2 strategies x 2 seeds
    assert analysis["n_failed"] == 0
    assert "adv+lo vs adv" in analysis["comparisons"]
    assert 0 <= analysis["comparisons"]["adv+lo vs adv"]["sign_test_p"] <= 1

    lines = (tmp_path / "reports.jsonl").read_text().strip().splitlines()
    assert len(lines) == 4
    header, *body = (tmp_path / "summary.csv").read_text().splitlines()
    assert header == "strategy,seed,devF,testF,testR,testP,epoch,wall_ms,aux_state,rel_time,rel_state"
    assert body == [",".join(str(row[c]) for c in header.split(",")) for row in summary_rows(spec, reports)]

    # lookahead variant inherits the base strategy's selected rate
    by = {(r.strategy, r.seed): r for r in reports}
    for seed in (0, 1):
        assert by[("adv+lo", seed)].lr == by[("adv", seed)].lr


def test_run_experiment_grid_searches_seq_as_its_own_base(fast_pair):
    from latopt.harness import _test_metrics

    src, tgt = fast_pair
    spec = ExperimentSpec(
        strategies=["seq", "adv"],
        seeds=[0],
        lr_grid=[1e-3, 3e-3],
        epochs=1,
        batch_size=32,
        model=FAST_MODEL,
    )
    reports, analysis = run_experiment(spec, source=src, target=tgt)
    assert analysis["n_failed"] == 0
    seq = {r.strategy: r for r in reports}["seq"]
    source_splits, target_splits = _splits(src), _splits(tgt)
    init = init_params(FAST_MODEL, 0)
    # the two phases train on single-domain schedules from the seed and the next seed
    schedules = [batch_schedule(s["train"], None, 32, 1, i) for i, s in enumerate((source_splits, target_splits))]
    dev = source_splits["dev"], target_splits["dev"]
    runs = {lr: _seq_run(init, schedules, *dev, TrainingConfig(lr=lr, gamma=0.0)) for lr in spec.lr_grid}
    lr = max(sorted(runs), key=lambda lr: runs[lr].dev_f[runs[lr].epoch])  # the smaller rate on a tie
    run = runs[lr]
    test_f = _test_metrics(run.selected, target_splits)[0]
    assert (seq.lr, seq.dev_f, seq.test_f) == (lr, run.dev_f[run.epoch], test_f)


def test_run_experiment_grid_searches_tgt_as_its_own_base(fast_pair):
    from latopt.harness import _test_metrics

    src, tgt = fast_pair
    spec = ExperimentSpec(
        strategies=["tgt", "adv"], seeds=[1], lr_grid=[1e-3, 3e-3], epochs=2, batch_size=32, model=FAST_MODEL
    )
    reports, analysis = run_experiment(spec, source=src, target=tgt)
    assert analysis["n_failed"] == 0
    report = {r.strategy: r for r in reports}["tgt"]
    target_splits = _splits(tgt)
    init = init_params(FAST_MODEL, 1)
    # the target-only run trains on the single-domain schedule from the next seed
    schedule = batch_schedule(target_splits["train"], None, 32, 2, 2)
    runs = {
        lr: train_run("single:target", init.copy(), schedule, target_splits["dev"], TrainingConfig(lr=lr, gamma=0.0))
        for lr in spec.lr_grid
    }
    lr = max(sorted(runs), key=lambda lr: runs[lr].dev_f[runs[lr].epoch])  # the smaller rate on a tie
    run = runs[lr]
    f, r, p = _test_metrics(run.selected, target_splits)
    assert (report.lr, report.dev_f, report.selected_epoch) == (lr, run.dev_f[run.epoch], run.epoch)
    assert (report.test_f, report.test_r, report.test_p) == (f, r, p)


def test_tgt_without_seq_cuts_one_single_domain_schedule_per_seed(fast_pair, monkeypatch):
    from latopt import harness

    cut, cuts = harness.batch_schedule, []

    def spy(source, target, *args):
        cuts.append((target is None, args[-1]))
        return cut(source, target, *args)

    monkeypatch.setattr(harness, "batch_schedule", spy)
    # the spy appends to this process's list, so every seed runs here
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    spec = ExperimentSpec(
        strategies=["tgt", "mtl"], seeds=[0, 1], lr_grid=[1e-3, 3e-3], epochs=1, batch_size=32, model=FAST_MODEL
    )
    run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    # per seed, the two-domain schedule from the seed, then the target's from the next
    assert cuts == [(False, 0), (True, 1), (False, 1), (True, 2)]


def test_seq_and_tgt_train_on_one_target_schedule(fast_pair, monkeypatch):
    from latopt import harness

    seen = []

    def spy(strategy, params, schedule, *args, **kwargs):
        seen.append((strategy, schedule))
        return train_run(strategy, params, schedule, *args, **kwargs)

    monkeypatch.setattr(harness, "train_run", spy)
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    spec = ExperimentSpec(
        strategies=["seq", "tgt"], seeds=[0], lr_grid=[1e-3, 3e-3], epochs=1, batch_size=32, model=FAST_MODEL
    )
    run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    target = [schedule for strategy, schedule in seen if strategy == "single:target"]
    source = [schedule for strategy, schedule in seen if strategy == "single:source"]
    # seq's target phase and tgt, at both rates; seq's source phase at both rates
    assert len(target) == 4 and len(source) == 2
    assert all(s is target[0] for s in target) and all(s is source[0] for s in source)
    assert source[0] is not target[0]


def test_every_two_domain_run_of_a_seed_trains_on_one_schedule(fast_pair, monkeypatch):
    # the pairing the sign test relies on: a +lo run and its base, at every
    # grid rate, see the same batch objects; seq's two single-domain
    # schedules are cut apart from it, once per seed
    from latopt import harness

    train_run = harness.train_run
    seen = []

    def spy(strategy, params, schedule, *args, **kwargs):
        seen.append((strategy, schedule))
        return train_run(strategy, params, schedule, *args, **kwargs)

    monkeypatch.setattr(harness, "train_run", spy)
    spec = ExperimentSpec(
        strategies=["mtl", "mtl+lo", "adv", "adv+lo", "seq"],
        seeds=[0, 1],
        lr_grid=[1e-3, 3e-3],
        epochs=1,
        batch_size=32,
        model=FAST_MODEL,
    )
    # the spy appends to this process's list, so every seed runs here
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    paired = [schedule for strategy, schedule in seen if not strategy.startswith("single:")]
    single = [schedule for strategy, schedule in seen if strategy.startswith("single:")]
    # per seed (seeds run in order): 2 bases at 2 rates, then 2 variants
    assert len(paired) == 2 * 6 and len(single) == 2 * 2 * 2
    first, second = paired[:6], paired[6:]
    assert all(s is first[0] for s in first) and all(s is second[0] for s in second)
    assert first[0] is not second[0]
    assert first[0][0][0][0][0].ids.tolist() != second[0][0][0][0][0].ids.tolist()
    assert not any(s is first[0] or s is second[0] for s in single)


def test_seq_only_compare_cuts_no_two_domain_schedule(tmp_path, fast_pair, monkeypatch):
    from latopt import harness

    spec = ExperimentSpec(strategies=["seq"], seeds=[0], lr_grid=[1e-3], epochs=1, batch_size=32, model=FAST_MODEL)
    cut = harness.batch_schedule
    targets = []

    def spy(source, target, *args):
        targets.append(target)
        return cut(source, target, *args)

    monkeypatch.setattr(harness, "batch_schedule", spy)
    run_experiment(spec, out_dir=tmp_path / "seq", source=fast_pair[0], target=fast_pair[1])
    assert targets == [None, None]  # the two phases of the one seq run
    # the report is the one seq gets beside a two-domain strategy, which cuts a schedule
    both = replace(spec, strategies=["seq", "mtl"])
    run_experiment(both, out_dir=tmp_path / "both", source=fast_pair[0], target=fast_pair[1])
    assert any(t is not None for t in targets[2:])

    def seq_reports(out):
        rows = [json.loads(line) for line in (tmp_path / out / "reports.jsonl").read_text().splitlines()]
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in rows if r["strategy"] == "seq"]

    assert seq_reports("seq") == seq_reports("both")


def test_a_grid_tie_picks_the_smaller_rate(fast_pair, monkeypatch):
    from latopt import harness
    from latopt.training import RunResult

    def flat(strategy, params, *args, **kwargs):  # every run, at every rate, reads dev F 0.5
        return RunResult(strategy, params, 0, [], [0.5])

    monkeypatch.setattr(harness, "train_run", flat)
    spec = ExperimentSpec(
        strategies=["mtl", "mtl+lo", "seq"],
        seeds=[0],
        lr_grid=[3e-3, 1e-3, 2e-3],
        epochs=1,
        batch_size=32,
        model=FAST_MODEL,
    )
    reports, _ = run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    assert [(r.strategy, r.lr) for r in reports] == [("mtl", 1e-3), ("mtl+lo", 1e-3), ("seq", 1e-3)]


def test_seq_cuts_its_two_schedules_once_per_seed(fast_pair, monkeypatch):
    from latopt import harness

    cut, seeds = harness.batch_schedule, []

    def spy(source, target, *args):
        if target is None:
            seeds.append(args[-1])
        return cut(source, target, *args)

    monkeypatch.setattr(harness, "batch_schedule", spy)
    # the spy appends to this process's list, so every seed runs here
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 1)
    spec = ExperimentSpec(
        strategies=["seq"], seeds=[0, 1], lr_grid=[1e-3, 3e-3, 1e-2], epochs=1, batch_size=32, model=FAST_MODEL
    )
    reports, _ = run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    assert [(r.seed, r.failed) for r in reports] == [(0, False), (1, False)]
    # per seed, the source phase's schedule from the seed and the target phase's from the next
    assert seeds == [0, 1, 1, 2]


def test_experiment_reproducible(fast_pair):
    src, tgt = fast_pair
    spec = ExperimentSpec(
        strategies=["mtl"], seeds=[3], lr_grid=[2e-3], epochs=2, batch_size=32, model=FAST_MODEL
    )
    r1, _ = run_experiment(spec, source=src, target=tgt)
    r2, _ = run_experiment(spec, source=src, target=tgt)
    a, b = r1[0], r2[0]
    assert (a.dev_f, a.test_f, a.test_r, a.test_p, a.selected_epoch) == (
        b.dev_f,
        b.test_f,
        b.test_r,
        b.test_p,
        b.selected_epoch,
    )


def test_failed_runs_are_recorded(fast_pair, monkeypatch):
    src, tgt = fast_pair
    spec = ExperimentSpec(
        strategies=["mtl"], seeds=[0], lr_grid=[1e-3], epochs=1, batch_size=32, model=FAST_MODEL
    )
    from latopt import harness
    from latopt.training import TrainingAborted

    def boom(*args, **kwargs):
        raise TrainingAborted("mtl", 0, 0, "synthetic failure")

    monkeypatch.setattr(harness, "train_run", boom)
    reports, analysis = run_experiment(spec, source=src, target=tgt)
    assert len(reports) == 1
    assert reports[0].failed and "synthetic failure" in reports[0].error
    assert analysis["n_failed"] == 1


def test_failed_variant_reports_its_base_rate(fast_pair, monkeypatch):
    src, tgt = fast_pair
    spec = ExperimentSpec(
        strategies=["mtl", "mtl+lo"], seeds=[0], lr_grid=[3e-3], epochs=1, batch_size=32, model=FAST_MODEL
    )
    from latopt import harness
    from latopt.training import TrainingAborted

    train_run = harness.train_run

    def variant_fails(strategy, *args, **kwargs):
        if strategy == "mtl+lo":
            raise TrainingAborted(strategy, 0, 0, "synthetic failure")
        return train_run(strategy, *args, **kwargs)

    monkeypatch.setattr(harness, "train_run", variant_fails)
    reports, analysis = run_experiment(spec, source=src, target=tgt)
    by = {r.strategy: r for r in reports}
    assert not by["mtl"].failed and by["mtl+lo"].failed
    assert by["mtl+lo"].lr == by["mtl"].lr == 3e-3
    assert analysis["n_failed"] == 1


def test_a_base_that_fails_at_every_rate_fails_its_variants_and_no_other_base(fast_pair, monkeypatch):
    from latopt import harness
    from latopt.training import TrainingAborted

    train_run, trained = harness.train_run, []

    def adv_fails(strategy, *args, **kwargs):
        trained.append(strategy)
        if strategy == "adv":
            raise TrainingAborted(strategy, 0, 0, "synthetic failure")
        return train_run(strategy, *args, **kwargs)

    monkeypatch.setattr(harness, "train_run", adv_fails)
    mtl_only = ExperimentSpec(
        strategies=["mtl", "mtl+lo"], seeds=[0], lr_grid=[1e-3, 3e-3], epochs=1, batch_size=32, model=FAST_MODEL
    )
    spec = replace(mtl_only, strategies=["mtl", "mtl+lo", "adv", "adv+lo"])
    reports, analysis = run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    by = {r.strategy: r for r in reports}
    assert [(s, by[s].failed, by[s].lr) for s in ("adv", "adv+lo")] == [("adv", True, 0.0), ("adv+lo", True, 0.0)]
    assert "synthetic failure" in by["adv+lo"].error and "adv+lo" not in trained
    assert analysis["n_failed"] == 2 and list(analysis["comparisons"]) == ["mtl+lo vs mtl"]
    # the mtl family is reported as it is in a spec without adv, at mtl's rate
    expected, _ = run_experiment(mtl_only, source=fast_pair[0], target=fast_pair[1])
    assert [replace(by[r.strategy], wall_ms=r.wall_ms) for r in expected] == expected
    assert by["mtl+lo"].lr == by["mtl"].lr


POOL_SPEC = ExperimentSpec(
    strategies=["mtl", "mtl+lo", "adv", "adv+lo", "adv+maml", "seq"],
    seeds=[0, 1],
    lr_grid=[1e-3, 3e-3],
    epochs=2,
    batch_size=32,
    model=FAST_MODEL,
)


@pytest.fixture
def cpus(monkeypatch):
    """Sets the CPU count the harness sizes its pool by; forked workers
    inherit the patch."""
    from latopt import harness

    return lambda n: monkeypatch.setattr(harness, "_usable_cpus", lambda: n)


def test_a_pool_of_two_writes_the_serial_outputs(tmp_path, fast_pair, cpus):
    def outputs(n):
        cpus(n)
        out = tmp_path / f"cpus{n}"
        run_experiment(POOL_SPEC, out_dir=out, source=fast_pair[0], target=fast_pair[1])
        reports = re.sub(r'"wall_ms": [^,]+,', '"wall_ms": _,', (out / "reports.jsonl").read_text())
        summary = json.loads((out / "summary.json").read_text())
        del summary["wall_s"]
        for row in summary["strategies"].values():
            del row["mean_wall_ms"]
        return reports, summary

    serial, pooled = outputs(1), outputs(2)
    assert serial[0].count('"wall_ms": _,') == 12 and serial[1]["n_failed"] == 0
    assert pooled == serial
    assert multiprocessing.active_children() == []


def test_a_seed_that_fails_in_a_worker_fails_alone(fast_pair, monkeypatch, cpus):
    from latopt import harness
    from latopt.training import TrainingAborted

    init_params, train_run = harness.init_params, harness.train_run
    current = {}  # the seed this process is training; each worker has its own copy

    def init_spy(model, seed):
        current["seed"] = seed
        return init_params(model, seed)

    def seed_1_fails(strategy, *args, **kwargs):
        if current["seed"] == 1:
            raise TrainingAborted(strategy, 0, 0, "synthetic failure")
        return train_run(strategy, *args, **kwargs)

    monkeypatch.setattr(harness, "init_params", init_spy)
    monkeypatch.setattr(harness, "train_run", seed_1_fails)
    cpus(2)
    spec = replace(POOL_SPEC, strategies=["mtl", "mtl+lo"], epochs=1)
    reports, analysis = run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    assert [(r.strategy, r.seed, r.failed) for r in reports] == [
        ("mtl", 0, False), ("mtl", 1, True), ("mtl+lo", 0, False), ("mtl+lo", 1, True)
    ]
    assert analysis["n_failed"] == 2
    assert multiprocessing.active_children() == []


def test_an_error_in_a_worker_propagates_and_leaves_no_process(fast_pair, monkeypatch, cpus):
    from latopt import harness

    def boom(*args, **kwargs):
        raise RuntimeError(f"raised in process {os.getpid()}")

    monkeypatch.setattr(harness, "train_run", boom)
    cpus(2)
    with pytest.raises(RuntimeError, match="^raised in process ") as info:
        run_experiment(POOL_SPEC, source=fast_pair[0], target=fast_pair[1])
    assert str(info.value) != f"raised in process {os.getpid()}"
    assert multiprocessing.active_children() == []


def test_a_training_aborted_a_worker_does_not_catch_reaches_the_caller_whole(fast_pair, monkeypatch, cpus):
    # the exception crosses the process boundary by pickle, so it must rebuild
    from latopt import harness
    from latopt.training import TrainingAborted

    def seed_jobs(spec, seed, *args):
        if seed == 1:
            raise TrainingAborted("adv", 2, 7, "synthetic failure", lr=1e-3, lam=0.5)
        return []

    monkeypatch.setattr(harness, "_seed_jobs", seed_jobs)
    cpus(2)
    with pytest.raises(TrainingAborted) as info:
        run_experiment(POOL_SPEC, source=fast_pair[0], target=fast_pair[1])
    e = info.value
    assert (e.strategy, e.epoch, e.batch, e.cause, e.lr, e.lam) == ("adv", 2, 7, "synthetic failure", 1e-3, 0.5)
    assert str(e) == "non-finite loss: strategy=adv epoch=2 batch=7 lr=0.001 lambda=0.5: synthetic failure"
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_breaks_the_pool_and_leaves_no_process(fast_pair, monkeypatch, cpus):
    from concurrent.futures.process import BrokenProcessPool

    from latopt import harness

    def seed_jobs(spec, seed, *args):
        if seed == 1:
            os._exit(3)
        return []

    monkeypatch.setattr(harness, "_seed_jobs", seed_jobs)
    cpus(2)
    with pytest.raises(BrokenProcessPool):
        run_experiment(POOL_SPEC, source=fast_pair[0], target=fast_pair[1])
    assert multiprocessing.active_children() == []


def _no_pool(*args, **kwargs):
    raise AssertionError("started a pool")


@pytest.mark.parametrize("n_cpus, seeds", [(1, [0, 1]), (2, [0])], ids=["one_cpu", "one_seed"])
def test_one_cpu_or_one_seed_starts_no_process(fast_pair, monkeypatch, cpus, n_cpus, seeds):
    from latopt import harness

    monkeypatch.setattr(harness, "ProcessPoolExecutor", _no_pool)
    cpus(n_cpus)
    spec = ExperimentSpec(strategies=["mtl"], seeds=seeds, lr_grid=[1e-3], epochs=1, batch_size=32, model=FAST_MODEL)
    reports, _ = run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    assert [(r.seed, r.failed) for r in reports] == [(s, False) for s in seeds]


@pytest.fixture
def libc(monkeypatch):
    """A C library whose ``mallopt`` records its calls instead of tuning this
    process's allocator; every ``ctypes.CDLL`` opens it while the test runs."""
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    fake = types.SimpleNamespace(mallopt=mallopt, calls=calls)
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake)
    return fake


def test_a_worker_sets_glibcs_trim_and_mmap_thresholds(monkeypatch, libc):
    from latopt import harness

    monkeypatch.setattr(harness, "_worker_args", ())
    harness._init_worker("spec", "source", "target")
    assert harness._worker_args == ("spec", "source", "target")
    # M_TRIM_THRESHOLD is -1 and M_MMAP_THRESHOLD -3 in glibc's malloc.h
    assert sorted(param for param, _ in libc.calls) == [-3, -1]
    assert (libc.mallopt.argtypes, libc.mallopt.restype) == ((ctypes.c_int, ctypes.c_int), ctypes.c_int)
    # above one step's temporaries (0.3-0.5 MB), within glibc's 32 MiB cap
    assert all(1 << 20 <= value <= 32 << 20 for _, value in libc.calls)


@pytest.mark.parametrize(
    "opened", [OSError("no libc.so.6"), types.SimpleNamespace()], ids=["cannot_open", "no_mallopt"]
)
def test_a_worker_without_glibcs_mallopt_is_left_as_it_is(monkeypatch, opened):
    from latopt import harness

    def cdll(name):
        if isinstance(opened, Exception):
            raise opened
        return opened

    monkeypatch.setattr(ctypes, "CDLL", cdll)
    monkeypatch.setattr(harness, "_worker_args", ())
    harness._init_worker("spec", "source", "target")
    assert harness._worker_args == ("spec", "source", "target")


def test_a_compare_on_one_cpu_leaves_the_allocator_as_it_is(fast_pair, cpus, libc):
    cpus(1)
    spec = ExperimentSpec(strategies=["mtl"], seeds=[0, 1], lr_grid=[1e-3], epochs=1, batch_size=32, model=FAST_MODEL)
    run_experiment(spec, source=fast_pair[0], target=fast_pair[1])
    assert libc.calls == []


def test_summary_relative_columns(fast_pair):
    spec = ExperimentSpec(
        strategies=["adv", "adv+lo", "adv+maml", "mtl+lo"],
        seeds=[0],
        lr_grid=[1e-3],
        batch_size=32,
        model=FAST_MODEL,
    )
    wb = sum(init_params(FAST_MODEL, 0).tensors[k].size for k in ModelParams.GROUPS["w_b"])
    quantum = 2 * spec.batch_size * FAST_MODEL.latent_dim
    reports = [
        MetricsReport("adv", 0, 1e-3, 0.5, 0.5, 0.5, 0.5, 1, 100.0, 0),
        MetricsReport("adv+lo", 0, 1e-3, 0.5, 0.5, 0.5, 0.5, 1, 150.0, quantum),
        MetricsReport("adv+maml", 0, 1e-3, 0.5, 0.5, 0.5, 0.5, 1, 400.0, wb),
        MetricsReport("mtl+lo", 0, 1e-3, 0.5, 0.5, 0.5, 0.5, 1, 90.0, quantum),
    ]
    rows = {r["strategy"]: r for r in summary_rows(spec, reports)}
    assert rows["adv"]["rel_time"] == 1.0 and rows["adv"]["rel_state"] == 1.0
    assert rows["adv+lo"]["rel_time"] == 1.5
    assert rows["adv+lo"]["rel_state"] == 1.0  # latent lookahead stays in the quantum
    assert rows["adv+maml"]["rel_state"] == pytest.approx((wb + quantum) / quantum)
    assert rows["mtl+lo"]["rel_state"] == 1.0


def test_analyze_mean_and_std():
    spec = ExperimentSpec(strategies=["adv"], seeds=[0, 1], lr_grid=[1e-3])
    reports = [
        MetricsReport("adv", 0, 1e-3, 0.5, 0.6, 0.5, 0.5, 1, 10.0, 0),
        MetricsReport("adv", 1, 1e-3, 0.5, 0.8, 0.5, 0.5, 1, 10.0, 0),
    ]
    out = analyze(spec, reports)
    assert out["strategies"]["adv"]["mean_test_f"] == pytest.approx(0.7)
    assert out["strategies"]["adv"]["std_test_f"] == pytest.approx(0.1)


def _reports(test_fs: dict) -> list:
    """One report per strategy and seed, with the test F given for it."""
    return [
        MetricsReport(strategy, seed, 1e-3, 0.5, f, 0.5, 0.5, 1, 10.0, 0)
        for strategy, fs in test_fs.items()
        for seed, f in enumerate(fs)
    ]


def _comparison(test_fs, base_fs):
    spec = ExperimentSpec(strategies=["adv", "adv+lo"], seeds=list(range(len(test_fs))), lr_grid=[1e-3])
    return analyze(spec, _reports({"adv+lo": test_fs, "adv": base_fs}))["comparisons"]["adv+lo vs adv"]


def test_analyze_counts_ties_and_bounds_the_mean_difference():
    # differences 0.25, 0, 0.25, 0.5: mean 0.25, sd sqrt(0.125 / 3) = 0.2041, and
    # t(0.975, df 3) = 3.182446, so the interval is 0.25 -+ 3.182446 * 0.2041 / 2 = 0.25 -+ 0.3248
    cmp = _comparison([0.75, 0.5, 0.5, 1.0], [0.5, 0.5, 0.25, 0.5])
    sd = math.sqrt(0.125 / 3)
    half = 3.182446 * sd / 2.0
    assert (cmp["n_seeds"], cmp["n_ties"], cmp["mean_diff"]) == (4, 1, 0.25)
    assert cmp["sd_diff"] == pytest.approx(sd, abs=1e-15)
    assert cmp["ci95_diff"] == pytest.approx([0.25 - half, 0.25 + half], abs=1e-15)
    assert cmp["sign_test_p"] == 0.25  # 3 wins of 3 untied seeds, two-sided
    line = "adv+lo vs adv: mean diff +0.2500 over 4 seeds (1 ties), sd 0.2041, 95% t interval [-0.0748, +0.5748], sign-test p=0.2500"
    assert format_summary({"strategies": {}, "comparisons": {"adv+lo vs adv": cmp}}).splitlines()[-1] == line


def test_analyze_all_tied_and_one_seed_comparisons():
    tied = _comparison([0.75, 0.5, 0.625], [0.75, 0.5, 0.625])
    assert (tied["n_ties"], tied["mean_diff"], tied["sd_diff"], tied["ci95_diff"]) == (3, 0.0, 0.0, [0.0, 0.0])
    assert tied["sign_test_p"] == 1.0
    one = _comparison([0.75], [0.5])
    assert (one["n_seeds"], one["n_ties"], one["mean_diff"], one["sd_diff"], one["ci95_diff"]) == (1, 0, 0.25, None, None)
    line = "adv+lo vs adv: mean diff +0.2500 over 1 seeds (0 ties), sign-test p=1.0000"
    assert format_summary({"strategies": {}, "comparisons": {"adv+lo vs adv": one}}).splitlines()[-1] == line


def test_analyze_compares_every_variant_with_its_base_in_sorted_order():
    spec = ExperimentSpec(strategies=["mtl", "mtl+lo", "adv", "adv+lo", "adv+maml", "seq"], seeds=[0, 1, 2, 3])
    fs = {s: [0.5, 0.5, 0.5, 0.5] for s in spec.strategies}
    # adv+maml - adv: -0.25, 0, -0.25, -0.5 over 4 seeds, 1 tie, mean -0.25;
    # 0 wins of 3 untied seeds, two-sided: p = 2 * 0.5**3 = 0.25
    fs["adv"] = [0.75, 0.5, 0.75, 1.0]
    reports = _reports(fs) + [MetricsReport("adv+maml", 4, 1e-3, 0.5, 1.0, 0.5, 0.5, 1, 10.0, 0)]  # no adv at seed 4
    out = analyze(spec, reports)["comparisons"]
    assert list(out) == ["adv+lo vs adv", "adv+maml vs adv", "mtl+lo vs mtl"]
    cmp = out["adv+maml vs adv"]
    assert (cmp["n_seeds"], cmp["n_ties"], cmp["mean_diff"], cmp["sign_test_p"]) == (4, 1, -0.25, 0.25)
    default = ExperimentSpec()
    assert list(analyze(default, _reports({s: fs[s] for s in default.strategies}))["comparisons"]) == [
        "adv+lo vs adv", "mtl+lo vs mtl"
    ]


def test_analyze_pairs_every_strategy_with_the_target_only_row():
    spec = ExperimentSpec(strategies=["mtl", "adv", "adv+lo", "seq", "tgt"], seeds=[0, 1, 2, 3])
    fs = {s: [0.5, 0.5, 0.5, 0.5] for s in spec.strategies}
    # seq - tgt: -0.25, 0, -0.25, -0.5 over 4 seeds, 1 tie, mean -0.25, sd sqrt(0.125 / 3);
    # 0 wins of 3 untied seeds, two-sided: p = 2 * 0.5**3 = 0.25
    fs["tgt"] = [0.75, 0.5, 0.75, 1.0]
    reports = _reports(fs) + [
        MetricsReport("seq", 4, 1e-3, 0.5, 1.0, 0.5, 0.5, 1, 10.0, 0),  # no tgt at seed 4
        MetricsReport("tgt", 5, 1e-3, 0.0, 0.0, 0.0, 0.0, -1, 0.0, 0, failed=True),
        MetricsReport("mtl", 5, 1e-3, 0.5, 1.0, 0.5, 0.5, 1, 10.0, 0),  # tgt failed at seed 5
    ]
    analysis = analyze(spec, reports)
    out = analysis["comparisons"]
    assert list(out) == ["adv+lo vs adv", "adv vs tgt", "adv+lo vs tgt", "mtl vs tgt", "seq vs tgt"]
    cmp = out["seq vs tgt"]
    sd = math.sqrt(0.125 / 3)
    half = 3.182446 * sd / 2.0
    assert (cmp["n_seeds"], cmp["n_ties"], cmp["mean_diff"], cmp["sign_test_p"]) == (4, 1, -0.25, 0.25)
    assert cmp["sd_diff"] == pytest.approx(sd, abs=1e-15)
    assert cmp["ci95_diff"] == pytest.approx([-0.25 - half, -0.25 + half], abs=1e-15)
    assert out["mtl vs tgt"] == cmp  # the same differences over the same seeds
    line = "seq vs tgt: mean diff -0.2500 over 4 seeds (1 ties), sd 0.2041, 95% t interval [-0.5748, +0.0748], sign-test p=0.2500"
    assert format_summary(analysis).splitlines()[-2:] == [line, "FAILED RUNS: 1"]
    alone = _reports({"tgt": fs["tgt"], "seq": fs["seq"]})
    assert list(analyze(ExperimentSpec(strategies=["tgt"]), alone[:4])["comparisons"]) == []
    assert list(analyze(ExperimentSpec(strategies=["seq", "tgt"]), alone)["comparisons"]) == ["seq vs tgt"]
