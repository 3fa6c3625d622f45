"""Architecture contracts: encoder determinism, loss values against scalar
oracles, the gradient-reversal sign contract, and checkpoint round-trips."""

import hashlib
import json
import math
import re
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from helpers import domain_loss, encode, task_loss

from latopt.autodiff import backward
from latopt.model import ModelConfig, ModelParams, grl_weight, init_params, load_checkpoint, onehot, save_checkpoint
from latopt.training import strategy_forward

GOLDEN = Path(__file__).parent / "goldens" / "encode_seed7.json"

SMALL = ModelConfig(vocab_size=20, embed_dim=4, latent_dim=4)


def small_batch(rng, b=3, config=SMALL):
    seqs = tuple(tuple(rng.integers(0, config.vocab_size, size=rng.integers(2, 6))) for _ in range(b))
    labels = onehot(rng.integers(0, 2, size=b))
    return seqs, labels


def test_parameter_groups_partition_exactly():
    params = init_params(SMALL, 0)
    grouped = [n for names in ModelParams.GROUPS.values() for n in names]
    assert sorted(grouped) == sorted(params.tensors)
    assert len(grouped) == len(set(grouped))


def test_zero_encoder_gives_zero_latents():
    params = init_params(SMALL, 0)
    for name in ModelParams.GROUPS["w_b"]:
        params.tensors[name][:] = 0.0
    z = encode(params, [(1, 2), (3,)])
    np.testing.assert_array_equal(z, np.zeros((2, 4)))


def test_duplicate_sentences_encode_identically():
    params = init_params(SMALL, 1)
    z = encode(params, [(5, 6, 7), (5, 6, 7)])
    np.testing.assert_array_equal(z[0], z[1])


def test_encode_matches_golden_file():
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    params = init_params(ModelConfig(), golden["seed"])
    z = encode(params, [tuple(s) for s in golden["batch"]])
    np.testing.assert_allclose(z, np.array(golden["z"]), rtol=0, atol=0)


def test_encode_rejects_out_of_vocab():
    params = init_params(SMALL, 0)
    with pytest.raises(IndexError):
        encode(params, [(0, SMALL.vocab_size)])


def test_encode_rejects_empty_batch():
    params = init_params(SMALL, 0)
    with pytest.raises(ValueError):
        encode(params, [])


def test_unknown_domain_rejected_before_anything_is_recorded():
    from latopt.autodiff import Tape
    from latopt.model import classifier_logits, predict, put_params

    params = init_params(SMALL, 0)
    tape = Tape()
    p = put_params(tape, params)
    z = tape.leaf(np.zeros((2, SMALL.latent_dim)))
    with pytest.raises(ValueError, match="unknown domain 'bogus'"):
        classifier_logits(tape, p, z, "bogus")
    assert len(tape) == len(p) + 1
    with pytest.raises(ValueError, match="unknown domain 'bogus'"):
        predict(params, [(1, 2), (3,)], "bogus")


def test_grl_schedule_endpoints_and_monotonicity():
    assert grl_weight(0.0) == 0.0
    assert grl_weight(1.0) <= 1.0
    values = [grl_weight(p / 50) for p in range(51)]
    assert all(b >= a for a, b in zip(values, values[1:]))
    with pytest.raises(ValueError):
        grl_weight(1.5)


def test_task_loss_uniform_logits():
    logits = np.zeros((4, 2))
    labels = onehot([0, 1, 0, 1])
    assert abs(task_loss(logits, labels) - math.log(2)) < 1e-12


def test_task_loss_confident_correct():
    logits = np.array([[20.0, -20.0]])
    labels = onehot([0])
    assert task_loss(logits, labels) < 1e-8


def test_task_loss_two_sample_hand_value():
    # softplus oracle: -log softmax values computed by hand
    logits = np.array([[1.0, 0.0], [0.0, 1.0]])
    labels = onehot([0, 0])
    expected = (math.log(1 + math.exp(-1.0)) + math.log(1 + math.exp(1.0))) / 2.0
    assert abs(task_loss(logits, labels) - expected) < 1e-12


def test_task_loss_rejects_malformed_onehot():
    with pytest.raises(ValueError):
        task_loss(np.zeros((2, 2)), np.array([[1.0, 1.0], [0.0, 1.0]]))


def test_domain_loss_uniform_discriminator():
    params = init_params(SMALL, 0)
    for name in ModelParams.GROUPS["theta_d"]:
        params.tensors[name][:] = 0.0
    u = np.random.default_rng(0).normal(size=(5, 4))
    v = np.random.default_rng(1).normal(size=(5, 4))
    assert abs(domain_loss(params, u, v) - 2.0 * math.log(2)) < 1e-12


def test_domain_loss_perfect_discriminator():
    # separable features plus weights that exploit them: loss vanishes
    params = init_params(SMALL, 0)
    params.tensors["disc1_W"][:] = 40.0 * np.eye(4)
    params.tensors["disc1_b"][:] = 0.0
    params.tensors["disc2_W"][:] = np.column_stack([np.zeros(4), np.ones(4)])
    params.tensors["disc2_b"][:] = [30.0, -30.0]
    u_s = -np.ones((3, 4))  # relu kills these: logits (30, -30), class 0
    u_t = np.ones((3, 4))  # h = 40s: logits (30, 130), class 1
    assert domain_loss(params, u_s, u_t) < 1e-8


def test_domain_loss_random_theta_matches_bruteforce():
    rng = np.random.default_rng(5)
    params = init_params(SMALL, 5)
    u_s = rng.normal(size=(4, 4))
    u_t = rng.normal(size=(4, 4))

    def brute(u, label):
        h = np.maximum(u @ params.tensors["disc1_W"] + params.tensors["disc1_b"], 0.0)
        logits = h @ params.tensors["disc2_W"] + params.tensors["disc2_b"]
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        return -np.log(p[:, label]).mean()

    expected = brute(u_s, 0) + brute(u_t, 1)
    assert abs(domain_loss(params, u_s, u_t) - expected) < 1e-12


def test_domain_loss_rejects_mismatched_batches():
    params = init_params(SMALL, 0)
    with pytest.raises(ValueError):
        domain_loss(params, np.zeros((3, 4)), np.zeros((2, 4)))


def test_joint_loss_value_is_ls_plus_lt_minus_ld():
    rng = np.random.default_rng(2)
    params = init_params(SMALL, 2)
    bs, bt = small_batch(rng), small_batch(rng)
    fwd = strategy_forward(params, bs, bt, "adv")
    assert abs(fwd.joint - (fwd.loss_s + fwd.loss_t - fwd.loss_d)) < 1e-15


def test_joint_backward_keeps_discriminator_sign():
    # d(joint)/d(theta_d) equals +dL_d/d(theta_d): reversal only upstream
    rng = np.random.default_rng(3)
    params = init_params(SMALL, 3)
    bs, bt = small_batch(rng), small_batch(rng)
    fwd = strategy_forward(params, bs, bt, "adv", lam=1.0)
    grads = fwd.refs.param_grads(backward(fwd.refs.tape, fwd.refs.objective))

    direct = backward(fwd.refs.tape, fwd.refs.loss_d)
    direct_map = fwd.refs.param_grads(direct)
    for name in ModelParams.GROUPS["theta_d"]:
        np.testing.assert_allclose(grads[name], direct_map[name], atol=1e-12)


def test_sign_contract_for_shared_parameters():
    # joint gradient w.r.t. w_sh == dL_s + dL_t - dL_d composed by hand,
    # with dL_d taken from a reversal-free graph
    from latopt.training import domain_loss_graph

    rng = np.random.default_rng(4)
    params = init_params(SMALL, 4)
    bs, bt = small_batch(rng), small_batch(rng)
    fwd = strategy_forward(params, bs, bt, "adv", lam=1.0)
    grads = fwd.refs.param_grads(backward(fwd.refs.tape, fwd.refs.objective))

    tape = fwd.refs.tape
    hand = {name: 0.0 for name in ModelParams.GROUPS["w_sh"]}
    for loss_node in (fwd.refs.loss_s, fwd.refs.loss_t):
        g = fwd.refs.param_grads(backward(tape, loss_node))
        for name in hand:
            hand[name] += g[name]
    raw = domain_loss_graph(params, bs, bt)
    g_raw = raw.param_grads(backward(raw.tape, raw.loss_d))
    for name in hand:
        np.testing.assert_allclose(grads[name], hand[name] - g_raw[name], atol=1e-10)


def test_stubbed_joint_combination():
    # with stubbed constituents a, b, c the reported joint is a + b - c
    from latopt.training import ForwardResult

    fake = ForwardResult(refs=None, loss_s=0.7, loss_t=0.2, loss_d=1.5)
    assert abs(fake.joint - (0.7 + 0.2 - 1.5)) < 1e-15


def test_batch_permutation_invariance():
    rng = np.random.default_rng(6)
    params = init_params(SMALL, 6)
    seqs, labels = small_batch(rng, b=5)
    fwd = strategy_forward(params, (seqs, labels), (seqs, labels), "adv")
    perm = rng.permutation(5)
    seqs_p = tuple(seqs[i] for i in perm)
    labels_p = labels[perm]
    fwd_p = strategy_forward(params, (seqs_p, labels_p), (seqs_p, labels_p), "adv")

    np.testing.assert_allclose(
        fwd_p.refs.tape.value(fwd_p.refs.tape.nodes[fwd_p.refs.loss_s].inputs[0]),  # the source logits
        fwd.refs.tape.value(fwd.refs.tape.nodes[fwd.refs.loss_s].inputs[0])[perm],
        atol=1e-12,
    )
    for a, b in (
        (fwd.loss_s, fwd_p.loss_s),
        (fwd.loss_t, fwd_p.loss_t),
        (fwd.loss_d, fwd_p.loss_d),
    ):
        assert abs(a - b) < 1e-12


def test_shared_initialization_bit_identical():
    a = init_params(ModelConfig(), 9)
    b = init_params(ModelConfig(), 9)
    for name in a.tensors:
        np.testing.assert_array_equal(a.tensors[name], b.tensors[name])
    c = init_params(ModelConfig(), 10)
    assert any(not np.array_equal(a.tensors[n], c.tensors[n]) for n in a.tensors)


def test_checkpoint_roundtrip_exact(tmp_path):
    params = init_params(SMALL, 123)
    # make values irrational-ish so exactness is meaningful
    params.tensors["sh_W"] += np.pi * 1e-7
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert loaded.config == params.config
    for name in params.tensors:
        np.testing.assert_array_equal(loaded.tensors[name], params.tensors[name])


def test_checkpoint_bytes_match_golden(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(ModelConfig(), 7), path)
    want = json.loads((GOLDEN.parent / "datasets.json").read_text())["checkpoint_seed7"]
    assert hashlib.sha256(path.read_bytes()).hexdigest() == want


def test_checkpoint_save_holds_a_bounded_piece_in_memory(tmp_path):
    params = init_params(ModelConfig(), 7)
    tracemalloc.start()
    try:
        save_checkpoint(params, tmp_path / "ckpt.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000  # the whole file's text and value lists take about 7.7 MB


def test_checkpoint_save_that_fails_leaves_the_file_as_it_was(tmp_path):
    params = init_params(SMALL, 3)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    before = path.read_bytes()
    del params.tensors["cls_t1_W"]
    with pytest.raises(KeyError, match="cls_t1_W"):
        save_checkpoint(params, path)
    assert path.read_bytes() == before


def test_checkpoint_loads_version_1_file_with_grl_k(tmp_path):
    # older version-1 files carry the reversal ramp's k in their config
    params = init_params(SMALL, 5)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    assert "grl_k" not in payload["config"]
    payload["config"]["grl_k"] = 10.0
    path.write_text(json.dumps(payload))
    loaded = load_checkpoint(path)
    assert loaded.config == SMALL
    for name, arr in params.tensors.items():
        np.testing.assert_array_equal(loaded.tensors[name], arr)


def test_checkpoint_rejects_unknown_version(tmp_path):
    params = init_params(SMALL, 0)
    path = tmp_path / "ckpt.json"
    save_checkpoint(params, path)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "tamper, message",
    [
        ("move", "tensor 'sh_W' is not a member of group 'w_b'"),
        ("unknown", "tensor 'sh_X' is not a member of group 'w_sh'"),
        ("drop", "tensor 'sh_W' is missing"),
        ("shape", "tensor 'sh_W' has shape [4, 5]"),
        ("values", "tensor 'sh_W' has shape [4, 4] and 15 values"),
        ("config", "tensor 'embedding' has shape [20, 4] and 80 values, but the config needs shape [21, 4]"),
    ],
)
def test_checkpoint_rejects_tensors_that_do_not_fit(tmp_path, tamper, message):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(SMALL, 0), path)
    payload = json.loads(path.read_text())
    groups = payload["groups"]
    if tamper == "move":
        groups["w_b"]["sh_W"] = groups["w_sh"].pop("sh_W")
    elif tamper == "unknown":
        groups["w_sh"]["sh_X"] = groups["w_sh"].pop("sh_W")
    elif tamper == "drop":
        del groups["w_sh"]["sh_W"]
    elif tamper == "shape":
        groups["w_sh"]["sh_W"]["shape"] = [4, 5]
    elif tamper == "values":
        groups["w_sh"]["sh_W"]["data"].pop()
    elif tamper == "config":
        payload["config"]["vocab_size"] = 21
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(message)):
        load_checkpoint(path)


def _malformed(payload, how):
    config, groups = payload["config"], payload["groups"]
    if how == "list":
        return [payload]
    if how in ("no_config", "no_groups"):
        del payload[how[3:]]
    elif how == "bool_version":
        payload["version"] = True
    elif how == "float_version":
        payload["version"] = 1.0
    elif how == "unknown_config_key":
        config["depth"] = 2
    elif how == "missing_config_key":
        del config["latent_dim"]
    elif how == "string_vocab":
        config["vocab_size"] = "8"
    elif how == "bool_dim":
        config["embed_dim"] = True
    elif how == "group_list":
        groups["w_sh"] = list(groups["w_sh"].values())
    elif how == "tensor_list":
        groups["w_sh"]["sh_W"] = groups["w_sh"]["sh_W"]["data"]
    elif how == "float_shape":
        groups["w_b"]["embedding"]["shape"] = [20.0, 4.0]
    elif how == "bool_shape":
        groups["w_sh"]["sh_W"]["shape"] = [True, 4]
    elif how == "string_data":
        groups["w_sh"]["sh_W"]["data"][3] = "0.5"
    elif how == "ragged_data":
        groups["w_sh"]["sh_W"]["data"][3] = [0.5, 0.5]
    elif how == "bool_data":
        groups["w_sh"]["sh_W"]["data"][3] = True
    elif how == "huge_int_data":
        groups["w_sh"]["sh_W"]["data"][3] = 10**400
    elif how in ("nan", "inf"):
        groups["w_sh"]["sh_W"]["data"][3] = float(how)
    elif how == "unknown_key":
        payload["extra"] = 1
    elif how == "unknown_group":
        groups["extra"] = {}
    return payload


MALFORMED_CHECKPOINTS = [
    ("list", "checkpoint: not a JSON object"),
    ("bool_version", "checkpoint: 'version' must be the integer 1, got true"),
    ("float_version", "checkpoint: 'version' must be the integer 1, got 1.0"),
    ("no_config", "checkpoint: 'config' must be a JSON object"),
    ("no_groups", "checkpoint: 'groups' must be a JSON object"),
    ("unknown_config_key", "checkpoint: unknown config key 'depth'"),
    ("missing_config_key", "checkpoint: config key 'latent_dim' is missing"),
    ("string_vocab", "checkpoint: config 'vocab_size' must be an integer, got \"8\""),
    ("bool_dim", "checkpoint: config 'embed_dim' must be an integer, got true"),
    ("group_list", "checkpoint: group 'w_sh' must be a JSON object"),
    ("tensor_list", "checkpoint: tensor 'sh_W' needs a list 'shape' and a list 'data'"),
    ("float_shape", "checkpoint: tensor 'embedding' shape must be a list of integers, got [20.0, 4.0]"),
    ("bool_shape", "checkpoint: tensor 'sh_W' shape must be a list of integers, got [true, 4]"),
    ("string_data", "checkpoint: tensor 'sh_W' data must be a list of numbers"),
    ("ragged_data", "checkpoint: tensor 'sh_W' data must be a list of numbers"),
    ("bool_data", "checkpoint: tensor 'sh_W' data must be a list of numbers"),
    ("huge_int_data", "checkpoint: tensor 'sh_W' data must be a list of numbers"),
    ("nan", "checkpoint: tensor 'sh_W' holds a non-finite value"),
    ("inf", "checkpoint: tensor 'sh_W' holds a non-finite value"),
    ("unknown_key", "checkpoint: unknown key 'extra'"),
    ("unknown_group", "checkpoint: unknown group 'extra'"),
]


@pytest.mark.parametrize("how, message", MALFORMED_CHECKPOINTS, ids=[how for how, _ in MALFORMED_CHECKPOINTS])
def test_checkpoint_rejects_malformed_file(tmp_path, how, message):
    path = tmp_path / "ckpt.json"
    save_checkpoint(init_params(SMALL, 0), path)
    path.write_text(json.dumps(_malformed(json.loads(path.read_text()), how)))
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        load_checkpoint(path)
