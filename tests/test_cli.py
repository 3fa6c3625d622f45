"""CLI surface: every subcommand end to end on small inputs."""

import json
from dataclasses import replace

import pytest

from latopt.cli import main
from latopt.data import DomainDataset, Example, GeneratorConfig, load_dataset, prepare_transfer_pair, save_dataset


TINY_GENERATOR = {"source_train_size": 64, "target_train_size": 32, "test_size": 16}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = GeneratorConfig(source_train_size=320, target_train_size=160, test_size=96, seed=33)
    src, tgt = prepare_transfer_pair(cfg)
    save_dataset(src, out / "source.jsonl")
    save_dataset(tgt, out / "target.jsonl")
    return out


# What kl and stats printed on `gen --seed 11` when tokens were tuples of
# Python ints; the int32 arrays must give the same digits.
PINNED_KL = {(): "0.055299", ("--split", "train"): "0.056829"}
PINNED_STATS = {
    "source": """domain: source  vocab_size: 4096  seed: 11
train: 1844 examples, positive rate 0.5033, mean length 20.9
  dev: 204 examples, positive rate 0.4706, mean length 21.1
 test: 512 examples, positive rate 0.5000, mean length 20.7
distinct unigrams: 160
""",
    "target": """domain: target  vocab_size: 4096  seed: 11
train: 1856 examples, positive rate 0.5000, mean length 21.0
  dev: 102 examples, positive rate 0.1569, mean length 21.5
 test: 512 examples, positive rate 0.1797, mean length 20.5
distinct unigrams: 160
""",
}


def test_kl_and_stats_print_pinned_digits_on_a_generated_pair(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path), "--seed", "11"]) == 0
    capsys.readouterr()
    files = ["--source", str(tmp_path / "source.jsonl"), "--target", str(tmp_path / "target.jsonl")]
    for extra, digits in PINNED_KL.items():
        assert main(["kl", *files, *extra]) == 0
        assert capsys.readouterr().out == digits + "\n"
    for domain, text in PINNED_STATS.items():
        assert main(["stats", "--data", str(tmp_path / f"{domain}.jsonl")]) == 0
        assert capsys.readouterr().out == text


def test_gen_writes_pair(tmp_path, capsys):
    assert main(["gen", "--out", str(tmp_path), "--seed", "5"]) == 0
    assert (tmp_path / "source.jsonl").exists()
    assert (tmp_path / "target.jsonl").exists()
    head = (tmp_path / "source.jsonl").read_text().splitlines()[0]
    assert set(json.loads(head)) == {"domain", "vocab_size", "seed"}


def test_kl_prints_number(data_dir, capsys):
    assert main(["kl", "--source", str(data_dir / "source.jsonl"), "--target", str(data_dir / "target.jsonl")]) == 0
    value = float(capsys.readouterr().out.strip())
    assert value >= 0.0


def test_kl_rejects_an_unknown_split(data_dir, capsys):
    argv = ["kl", "--source", str(data_dir / "source.jsonl"), "--target", str(data_dir / "target.jsonl")]
    with pytest.raises(SystemExit) as info:
        main(argv + ["--split", "bogus"])
    assert info.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


@pytest.mark.parametrize("split", [None, "dev"], ids=["disjoint_tokens", "empty_split"])
def test_kl_without_shared_tokens_exits_2(tmp_path, capsys, split):
    # the two corpora share no token, or the chosen split is empty
    save_dataset(DomainDataset("source", 10, 0, [Example((1, 2), 0, "train")]), tmp_path / "s.jsonl")
    target_tokens = (3, 4) if split is None else (1, 2)
    save_dataset(DomainDataset("target", 10, 0, [Example(target_tokens, 1, "train")]), tmp_path / "t.jsonl")
    argv = ["kl", "--source", str(tmp_path / "s.jsonl"), "--target", str(tmp_path / "t.jsonl")]
    assert main(argv + (["--split", split] if split else [])) == 2
    captured = capsys.readouterr()
    assert captured.err == "latopt kl: kl_over_overlap: empty overlapped vocabulary\n"
    assert captured.out == ""


def test_stats_reports_splits(data_dir, capsys):
    assert main(["stats", "--data", str(data_dir / "target.jsonl")]) == 0
    out = capsys.readouterr().out
    assert "train" in out and "positive rate" in out


def test_quad_writes_svg_and_csv(tmp_path, capsys):
    svg = tmp_path / "t.svg"
    csv = tmp_path / "t.csv"
    code = main(
        [
            "quad",
            "--method",
            "gd,eg1,eg2",
            "--eta",
            "0.025",
            "--gamma",
            "0.01",
            "--steps",
            "50",
            "--start",
            "0,-0.15",
            "--out-svg",
            str(svg),
            "--out-csv",
            str(csv),
        ]
    )
    assert code == 0
    assert svg.read_text().startswith("<svg")
    rows = csv.read_text().strip().splitlines()
    assert rows[0] == "method,step,w1,w2,f,gradnorm"
    assert len(rows) == 1 + 3 * 51


def test_quad_rejects_unknown_method(tmp_path, capsys):
    assert main(["quad", "--method", "newton"]) == 2
    assert capsys.readouterr().err == "latopt quad: unknown method 'newton' (choose from gd, eg1, eg2)\n"


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--start", "1", "--start must be two finite numbers x,y, got '1'"),
        ("--start", "a,b", "--start must be two finite numbers x,y, got 'a,b'"),
        ("--start", "1e200,0", "--start '1e200,0' is too far out"),  # f overflows: no first point
        ("--start", "1e153,0", "--start '1e153,0' is too far out"),  # f finite, gradient norm overflows
        ("--method", "foo", "unknown method 'foo'"),
        ("--steps", "-1", "--steps must be >= 0, got -1"),
        ("--eta", "nan", "--eta must be finite, got nan"),
        ("--gamma", "inf", "--gamma must be finite, got inf"),
    ],
    ids=[
        "start_one_number", "start_not_numbers", "start_f_overflows", "start_gradnorm_overflows",
        "unknown_method", "negative_steps", "eta_nan", "gamma_inf",
    ],
)
def test_quad_bad_input_exits_2(tmp_path, capsys, flag, value, reason):
    svg = tmp_path / "t.svg"
    assert main(["quad", flag, value, "--out-svg", str(svg)]) == 2
    assert capsys.readouterr().err.startswith(f"latopt quad: {reason}")
    assert not svg.exists()


def test_quad_degenerate_bounding_box_exits_2_and_writes_nothing(tmp_path, capsys):
    # f and its gradient are finite at 1e17, but the margin around one point rounds away
    svg, csv = tmp_path / "t.svg", tmp_path / "t.csv"
    assert main(["quad", "--start", "1e17,0", "--steps", "0", "--out-svg", str(svg), "--out-csv", str(csv)]) == 2
    out = capsys.readouterr()
    assert out.err.startswith("latopt quad: render_trajectory: degenerate bounding box")
    assert out.out == ""
    assert not svg.exists() and not csv.exists()


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--cue-share", "2", "cue_rate must lie in [0, 1], got 2.0"),
        ("--cue-share", "0.8", "signal_rate + cue_rate must not exceed 1"),
        ("--max-len", "0", "max_len must be >= 1, got 0"),
        ("--max-len", "1", "upsample: class 0 is empty"),
        ("--seed", "-1", "seed must be >= 0, got -1"),
    ],
    ids=["cue_share_above_1", "cue_share_plus_signal_above_1", "max_len_0", "max_len_1", "seed_negative"],
)
def test_gen_bad_input_exits_2_before_writing(tmp_path, capsys, flag, value, reason):
    out = tmp_path / "pair"
    assert main(["gen", "--out", str(out), flag, value]) == 2
    assert capsys.readouterr().err.startswith(f"latopt gen: {reason}")
    assert not out.exists()


def test_train_single_run(tmp_path, data_dir, capsys, monkeypatch):
    from latopt import harness

    packed = []
    monkeypatch.setattr(harness, "_splits", lambda ds, pack=harness._splits: packed.append(ds.domain) or pack(ds))
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--source",
            str(data_dir / "source.jsonl"),
            "--target",
            str(data_dir / "target.jsonl"),
            "--strategy",
            "adv+lo",
            "--epochs",
            "1",
            "--batch-size",
            "32",
            "--lr",
            "0.002",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    metrics = json.loads((out / "metrics.json").read_text())
    assert metrics["strategy"] == "adv+lo"
    runlog = [json.loads(l) for l in (out / "runlog.jsonl").read_text().splitlines()]
    assert len(runlog) == 1
    assert set(runlog[0]["losses"]) == {"L_s", "L_t", "L_d", "joint"}
    assert (out / "model.json").exists()
    assert packed == ["source", "target"]  # each dataset packed once


@pytest.mark.parametrize("bad", ["vocab_size", "token_id"])
def test_train_rejects_target_outside_model_vocabulary(tmp_path, data_dir, capsys, bad):
    source = load_dataset(data_dir / "source.jsonl")
    target = load_dataset(data_dir / "target.jsonl")
    if bad == "vocab_size":
        target.vocab_size = source.vocab_size + 1
    else:
        first = target.examples[0]
        target.examples[0] = replace(first, tokens=first.tokens.tolist() + [source.vocab_size])
    save_dataset(target, tmp_path / "target.jsonl")
    out = tmp_path / "run"
    code = main(
        [
            "train",
            "--source",
            str(data_dir / "source.jsonl"),
            "--target",
            str(tmp_path / "target.jsonl"),
            "--epochs",
            "1",
            "--batch-size",
            "32",
            "--out",
            str(out),
        ]
    )
    assert code != 0
    err = capsys.readouterr().err
    assert "target.jsonl" in err and f"model vocabulary of {source.vocab_size} tokens" in err
    assert not out.exists()


@pytest.mark.parametrize("strategy", ["seq", "tgt", "advlo", "single:source"])
def test_train_accepts_only_trainable_strategies(tmp_path, data_dir, capsys, strategy):
    out = tmp_path / "run"
    argv = [
        "train",
        "--source",
        str(data_dir / "source.jsonl"),
        "--target",
        str(data_dir / "target.jsonl"),
        "--strategy",
        strategy,
        "--out",
        str(out),
    ]
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--epochs", "0", "epochs must be >= 1, got 0"),
        ("--lr", "0", "lr must be > 0, got 0.0"),
        ("--gamma", "-1", "gamma must be >= 0, got -1.0"),
        ("--batch-size", "0", "batch_size must be >= 1, got 0"),
        ("--lr", "nan", "lr must be finite, got nan"),
        ("--lr", "inf", "lr must be finite, got inf"),
        ("--gamma", "nan", "gamma must be finite, got nan"),
        ("--gamma", "inf", "gamma must be finite, got inf"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
    ],
    ids=[
        "--epochs-0-epochs must be >= 1",
        "--lr-0-lr must be > 0",
        "--gamma--1-gamma must be >= 0",
        "--batch-size-0-batch_size must be >= 1",
        "--lr-nan-lr must be finite, got nan",
        "--lr-inf-lr must be finite, got inf",
        "--gamma-nan-gamma must be finite, got nan",
        "--gamma-inf-gamma must be finite, got inf",
        "--seed--1---seed must be >= 0, got -1",
    ],
)
def test_train_rejects_bad_numeric_flags_before_writing(tmp_path, data_dir, capsys, flag, value, reason):
    out = tmp_path / "run"
    argv = ["train", "--source", str(data_dir / "source.jsonl"), "--target", str(data_dir / "target.jsonl")]
    code = main(argv + ["--epochs", "1", "--batch-size", "32", flag, value, "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err == f"latopt train: {reason}\n"
    assert not out.exists()


def test_compare_from_spec(tmp_path, data_dir, capsys):
    spec = {
        "strategies": ["mtl", "mtl+lo"],
        "seeds": [0],
        "lr_grid": [2e-3],
        "gamma": 0.1,
        "epochs": 1,
        "batch_size": 32,
        "source_path": str(data_dir / "source.jsonl"),
        "target_path": str(data_dir / "target.jsonl"),
        "model": {"vocab_size": 4096, "embed_dim": 8, "latent_dim": 8},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "results"
    assert main(["compare", "--spec", str(spec_path), "--out", str(out)]) == 0
    assert (out / "reports.jsonl").exists()
    assert (out / "summary.csv").exists()
    printed = capsys.readouterr().out
    assert "mtl+lo vs mtl" in printed


def test_compare_rejects_spec_that_does_not_fit_its_data(tmp_path, data_dir, capsys):
    spec = {
        "strategies": ["mtl"],
        "seeds": [0],
        "lr_grid": [2e-3],
        "epochs": 1,
        "batch_size": 32,
        "source_path": str(data_dir / "source.jsonl"),
        "target_path": str(data_dir / "target.jsonl"),
        "model": {"vocab_size": 30, "embed_dim": 8, "latent_dim": 8},
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "results"
    assert main(["compare", "--spec", str(spec_path), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("latopt compare: ") and "source.jsonl" in err
    assert "exceeds the model vocabulary of 30 tokens" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "change, reason",
    [
        ({"selction": "dev_f"}, "unknown key 'selction' in the spec"),
        ({"strategies": ["advlo"]}, "unknown strategy 'advlo'"),
        ({"model": {"embed_dim": 0}}, "model: embed_dim must be >= 1, got 0"),
        ({"model": {"vocab_size": -3}}, "model: vocab_size must be >= 1, got -3"),
        ({"generator": {"target_positive_rate": 1.5}}, "generator: positive rate 1.5 unreachable"),
        ({"generator": {"signal_fidelity": 1.2}}, "generator: signal_fidelity must lie in [0, 1], got 1.2"),
        (
            {"source_path": None, "target_path": None, "generator": {**TINY_GENERATOR, "target_positive_rate": 0.0}},
            "generator: upsample: class 1 is empty",
        ),
        ({"epochs": "5"}, 'epochs must be an integer, got "5"'),
        ({"seeds": "0"}, 'seeds must be a list of integers, got "0"'),
        ({"model": {"embed_dim": "16"}}, 'model: embed_dim must be an integer, got "16"'),
        ({"generator": {"min_len": "3"}}, 'generator: min_len must be an integer, got "3"'),
        ({"target_path": None}, "spec needs both source_path and target_path, or neither"),
        ({"generator": {"seed": 3}}, "spec gives dataset paths and a generator; give one or the other"),
        ({"seeds": [0, 0]}, "spec repeats seed 0"),
        ({"lr_grid": [1e-3, 1e-3]}, "spec repeats rate 0.001"),
    ],
    ids=[
        "misspelled_key",
        "unknown_strategy",
        "zero_embed_dim",
        "negative_vocab",
        "positive_rate",
        "fidelity",
        "no_positives",
        "epochs_string",
        "seeds_string",
        "model_value_string",
        "generator_value_string",
        "source_path_alone",
        "paths_and_generator",
        "repeated_seed",
        "repeated_rate",
    ],
)
def test_compare_rejects_malformed_spec(tmp_path, data_dir, capsys, change, reason):
    spec = {
        "strategies": ["mtl"],
        "seeds": [0],
        "source_path": str(data_dir / "source.jsonl"),
        "target_path": str(data_dir / "target.jsonl"),
        **change,
    }
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps(spec))
    out = tmp_path / "results"
    assert main(["compare", "--spec", str(spec_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"latopt compare: {reason}")
    assert not out.exists()



@pytest.mark.parametrize("content, reason", [(None, "No such file or directory"), ('{"seeds": [0],', "Expecting")], ids=["missing", "not_json"])
def test_compare_unreadable_spec_exits_2_before_writing(tmp_path, capsys, content, reason):
    spec = tmp_path / "spec.json"
    if content is not None:
        spec.write_text(content)
    out = tmp_path / "out"
    assert main(["compare", "--spec", str(spec), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"latopt compare: {spec}: ") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["compare", "train", "kl", "stats"])
@pytest.mark.parametrize(
    "content, reason",
    [
        (None, "No such file or directory"),
        ('{"domain": "source"', "line 1: "),
        ('{"domain": "source", "vocab_size": 30, "seed": 0}\n{"tokens": [1, 2.5], "label": 0, "split": "train"}\n', "line 2: tokens must be a list of integers"),
        ('{"domain": "source", "vocab_size": 30, "seed": 0}\n{"tokens": [1, 2], "split": "train"}\n', "line 2: missing key 'label'"),
        ('{"domain": "source", "vocab_size": 30, "seed": 0}\n{"tokens": [1, 2147483648], "label": 0, "split": "train"}\n', "line 2: tokens must be integers within int32"),
        ('{"domain": "source", "vocab_size": 30, "seed": 0}\n{"tokens": [1], "label": 0, "split": "train"}\n{"tokens": [2], "label": 0, "split": "tset"}\n', "line 3: split 'tset' is not train, dev or test"),
        ('{"domain": "source", "vocab_size": 30, "seed": 0}\n{"tokens": [1], "label": 0, "split": "val"}\n', "line 2: split 'val' is not train, dev or test"),
        ('{"domain": "source", "vocab_size": 30, "seed": 0}\n{"tokens": [1], "label": 0, "split": "train"}\n{"tokens": [2], "label": 2, "split": "train"}\n', "line 3: label 2 is not 0 or 1"),
        ('{"domain": "source", "vocab_size": 30, "seed": 0}\n{"tokens": [1], "label": -1, "split": "dev"}\n', "line 2: label -1 is not 0 or 1"),
    ],
    ids=["missing", "not_json", "float_token", "no_label", "token_beyond_int32", "split_tset", "split_val", "label_2", "label_negative"],
)
def test_unreadable_dataset_exits_2_before_writing(tmp_path, data_dir, capsys, command, content, reason):
    bad = tmp_path / "bad.jsonl"
    if content is not None:
        bad.write_text(content)
    out = tmp_path / "out"
    good = str(data_dir / "target.jsonl")
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"strategies": ["mtl"], "seeds": [0], "source_path": good, "target_path": str(bad)}))
    argv = {
        "compare": ["compare", "--spec", str(spec), "--out", str(out)],
        "train": ["train", "--source", good, "--target", str(bad), "--epochs", "1", "--out", str(out)],
        "kl": ["kl", "--source", str(bad), "--target", good],
        "stats": ["stats", "--data", str(bad)],
    }[command]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"latopt {command}: {bad}: ") and reason in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["gen", "train", "compare"])
@pytest.mark.parametrize("nested", [False, True], ids=["file", "under_file"])
def test_out_that_cannot_be_a_directory_exits_2_before_any_run(tmp_path, data_dir, capsys, monkeypatch, command, nested):
    from latopt import harness, training

    runs = []
    monkeypatch.setattr(harness, "train_run", lambda *a, **k: runs.append(a))
    monkeypatch.setattr(training, "train_run", lambda *a, **k: runs.append(a))
    blocker = tmp_path / "taken"
    blocker.write_text("kept")
    out = blocker / "sub" if nested else blocker
    spec = tmp_path / "spec.json"
    spec.write_text(
        json.dumps(
            {
                "strategies": ["mtl", "adv"],
                "seeds": [0],
                "epochs": 1,
                "batch_size": 32,
                "source_path": str(data_dir / "source.jsonl"),
                "target_path": str(data_dir / "target.jsonl"),
            }
        )
    )
    pair = ["--source", str(data_dir / "source.jsonl"), "--target", str(data_dir / "target.jsonl")]
    argv = {
        "gen": ["gen", "--seed", "5"],
        "train": ["train", *pair, "--epochs", "1", "--batch-size", "32"],
        "compare": ["compare", "--spec", str(spec)],
    }[command]
    assert main(argv + ["--out", str(out)]) == 2
    assert capsys.readouterr().err == f"latopt {command}: --out {out}: {blocker} is not a directory\n"
    assert runs == [] and blocker.read_text() == "kept"
