"""CLI surface: every subcommand end to end on small inputs."""

import json
from dataclasses import replace

import pytest

from latopt.cli import main
from latopt.data import GeneratorConfig, load_dataset, prepare_transfer_pair, save_dataset


TINY_GENERATOR = {"source_train_size": 64, "target_train_size": 32, "test_size": 16}


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    cfg = GeneratorConfig(source_train_size=320, target_train_size=160, test_size=96, seed=33)
    src, tgt = prepare_transfer_pair(cfg)
    save_dataset(src, out / "source.jsonl")
    save_dataset(tgt, out / "target.jsonl")
    return out


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


def test_quad_rejects_unknown_method(tmp_path):
    with pytest.raises(SystemExit):
        main(["quad", "--method", "newton"])


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--start", "1", "--start must be two finite numbers x,y, got '1'"),
        ("--start", "a,b", "--start must be two finite numbers x,y, got 'a,b'"),
        ("--method", "foo", "unknown method 'foo'"),
        ("--steps", "-1", "--steps must be >= 0, got -1"),
    ],
    ids=["start_one_number", "start_not_numbers", "unknown_method", "negative_steps"],
)
def test_quad_bad_input_exits_2(tmp_path, capsys, flag, value, reason):
    svg = tmp_path / "t.svg"
    with pytest.raises(SystemExit) as info:
        main(["quad", flag, value, "--out-svg", str(svg)])
    assert info.value.code == 2
    assert capsys.readouterr().err.startswith(f"latopt quad: {reason}")
    assert not svg.exists()


@pytest.mark.parametrize(
    "flag, value, reason",
    [
        ("--cue-share", "2", "cue_rate must lie in [0, 1], got 2.0"),
        ("--cue-share", "0.8", "signal_rate + cue_rate must not exceed 1"),
        ("--max-len", "0", "max_len must be >= 1, got 0"),
        ("--max-len", "1", "upsample: class 0 is empty"),
    ],
    ids=["cue_share_above_1", "cue_share_plus_signal_above_1", "max_len_0", "max_len_1"],
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
        target.examples[0] = replace(first, tokens=first.tokens + (source.vocab_size,))
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


@pytest.mark.parametrize("strategy", ["seq", "advlo", "single:source"])
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
        ("--epochs", "0", "epochs must be >= 1"),
        ("--lr", "0", "lr must be > 0"),
        ("--gamma", "-1", "gamma must be >= 0"),
        ("--batch-size", "0", "batch_size must be >= 1"),
        ("--lr", "nan", "lr must be finite, got nan"),
        ("--lr", "inf", "lr must be finite, got inf"),
        ("--gamma", "nan", "gamma must be finite, got nan"),
        ("--gamma", "inf", "gamma must be finite, got inf"),
        ("--seed", "-1", "--seed must be >= 0, got -1"),
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
    ],
    ids=["missing", "not_json", "float_token", "no_label"],
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
