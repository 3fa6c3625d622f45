"""Acceptance gate: one test per criterion, each printing a pass/fail line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).

Criteria and their tolerances are pinned here; nothing is deferred to
later calibration. The transfer-dynamics experiment (criterion 6) runs the
full default protocol once and its reports are shared with criterion 9.
"""

import math
import time
import zlib
from unittest import mock

import numpy as np
import pytest
from helpers import domain_loss, spearman_rank_correlation

from latopt import training
from latopt.data import GeneratorConfig, generate_domain_pair, prepare_transfer_pair, unigram_kl
from latopt.harness import ExperimentSpec, run_experiment, summary_rows, _splits
from latopt.metrics import f_score
from latopt.model import ModelConfig, ModelParams, init_params, onehot
from latopt.quadratic import (
    DEFAULT_START,
    default_quadratic,
    eg_first_order_trajectory,
    eg_full_hessian_trajectory,
    eg_mode_factor,
    gd_mode_factor,
    gd_trajectory,
    measure_mode_decay,
)
from latopt.training import (
    TrainingConfig,
    batch_schedule,
    domain_loss_graph,
    latent_step,
    pack_split,
    strategy_forward,
    train_run,
    trainable_tensors,
)


def check(criterion: str, ok: bool, detail: str = "") -> None:
    line = f"[{criterion}] {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" - {detail}"
    print(line, flush=True)
    assert ok, line


# --- criterion 1: quadratic lookahead contrast ---------------------------------


def test_criterion_1_quadratic_reproduction():
    t0 = time.perf_counter()
    q = default_quadratic()
    cond_err = abs(q.condition_number() - 40.0)

    gd = gd_trajectory(q, DEFAULT_START, 0.025, 2000)
    eg2 = eg_full_hessian_trajectory(q, DEFAULT_START, 0.1, 0.01, 2000)
    n_gd, n_eg2 = gd.steps_to(), eg2.steps_to()

    lam, vecs = q.eigen()
    steep = int(np.argmax(lam))
    w_star = q.minimizer()
    coords = np.array([vecs.T @ (p - w_star) for p in gd.points[:16]])[:, steep]
    zigzag = all(coords[i] * coords[i + 1] < 0 for i in range(len(coords) - 1))

    gd200 = gd_trajectory(q, DEFAULT_START, 0.025, 200)
    eg1 = eg_first_order_trajectory(q, DEFAULT_START, 0.025, 0.01, 200)
    eg1_below = all(eg1.f_values[n] < gd200.f_values[n] for n in range(10, 201))

    factor_err = 0.0
    for traj, predict in (
        (gd200, lambda l: gd_mode_factor(l, 0.025)),
        (eg1, lambda l: eg_mode_factor(l, 0.025, 0.01)),
        (eg2, lambda l: eg_mode_factor(l, 0.1, 0.01)),
    ):
        lam_m, ratios = measure_mode_decay(q, traj)
        for mode in range(2):
            for r in ratios[mode]:
                factor_err = max(factor_err, abs(r - predict(lam_m[mode])))

    elapsed = time.perf_counter() - t0
    ok = (
        cond_err < 1e-9
        and zigzag
        and n_gd is not None
        and n_eg2 is not None
        and n_gd > 3 * n_eg2
        and eg1_below
        and factor_err < 1e-9
        and elapsed < 1.0
    )
    check(
        "criterion 1",
        ok,
        f"cond err {cond_err:.1e}; steps {n_gd} vs {n_eg2}; factor err {factor_err:.1e}; {elapsed:.2f}s",
    )


# --- criterion 2: gradient correctness ------------------------------------------

FD_MODEL = ModelConfig(vocab_size=5, embed_dim=2, latent_dim=2)


def _fd_batch(rng, b=2):
    seqs = tuple(tuple(rng.integers(0, FD_MODEL.vocab_size, size=3)) for _ in range(b))
    return seqs, onehot(rng.integers(0, 2, size=b))


def test_criterion_2_finite_difference_gate():
    from test_autodiff import _build_for_op, _rand_inputs

    from latopt.autodiff import DIFFERENTIABLE_OPS, Tape, backward, finite_diff_check
    from latopt.model import (
        classifier_logits,
        domain_loss_on_tape,
        encode_on_tape,
        put_params,
        task_loss_on_tape,
    )

    t0 = time.perf_counter()
    worst_ops = 0.0
    for op in DIFFERENTIABLE_OPS:
        if op == "grl":
            continue  # backward is -lambda by definition, not the forward derivative
        rng = np.random.default_rng(zlib.crc32(op.encode()))
        for _ in range(100):
            build = _build_for_op(op, rng)
            xs = _rand_inputs(rng, op)
            worst_ops = max(worst_ops, finite_diff_check(build, xs, eps=1e-5))

    # full joint graph: L_s + L_t - L_d as one differentiable function of
    # every parameter tensor (the reversal path is covered by criterion 4)
    rng = np.random.default_rng(2024)
    worst_model = 0.0
    template = init_params(FD_MODEL, 0)
    names = list(template.tensors)
    for _ in range(100):
        batch_s, batch_t = _fd_batch(rng), _fd_batch(rng)
        point = init_params(FD_MODEL, int(rng.integers(0, 2**31)))
        for name in names:
            point.tensors[name] = rng.normal(scale=0.6, size=point.tensors[name].shape)

        def build(xs):
            t = Tape()
            p = {name: t.leaf(x) for name, x in zip(names, xs)}
            z_s = encode_on_tape(t, p, batch_s[0])
            z_t = encode_on_tape(t, p, batch_t[0])
            logit_s = classifier_logits(t, p, z_s, "source")
            logit_t = classifier_logits(t, p, z_t, "target")
            loss_s = task_loss_on_tape(t, logit_s, batch_s[1])
            loss_t = task_loss_on_tape(t, logit_t, batch_t[1])
            u_s = t.dense(z_s, p["sh_W"], p["sh_b"], "tanh")
            u_t = t.dense(z_t, p["sh_W"], p["sh_b"], "tanh")
            loss_d = domain_loss_on_tape(t, p, u_s, u_t)
            joint = t.add(t.add(loss_s, loss_t), t.negate(loss_d))
            return t, [p[n] for n in names], joint

        worst_model = max(worst_model, finite_diff_check(build, [point.tensors[n] for n in names], eps=1e-5))

    elapsed = time.perf_counter() - t0
    ok = worst_ops < 1e-5 and worst_model < 1e-5 and elapsed < 30.0
    check(
        "criterion 2",
        ok,
        f"op err {worst_ops:.2e}; model err {worst_model:.2e}; {elapsed:.1f}s",
    )


# --- criterion 3: reduction identities -------------------------------------------

TINY = ModelConfig(vocab_size=12, embed_dim=3, latent_dim=4)


def _tiny_splits(rng, n=16):
    splits = {
        "train": [(tuple(rng.integers(0, TINY.vocab_size, 4)), int(rng.integers(0, 2))) for _ in range(n)],
        "dev": [(tuple(rng.integers(0, TINY.vocab_size, 4)), int(rng.integers(0, 2))) for _ in range(6)],
    }
    return {name: pack_split(examples) for name, examples in splits.items()}


def test_criterion_3_reduction_identities():
    rng = np.random.default_rng(0)
    ss, ts = _tiny_splits(rng), _tiny_splits(rng)

    config = TrainingConfig(lr=1e-3, gamma=0.0)
    schedule = batch_schedule(ss["train"], ts["train"], 4, 1, 5)
    final = {}  # train_run leaves the final parameters in the params it trains
    for strategy in ("adv", "adv+lo"):
        final[strategy] = init_params(TINY, 1)
        train_run(strategy, final[strategy], schedule, ts["dev"], config)
    bitwise = all(
        np.array_equal(final["adv"].tensors[n], final["adv+lo"].tensors[n])
        for n in final["adv"].tensors
    )

    final_mtl, final_adv0 = init_params(TINY, 1), init_params(TINY, 1)
    train_run("mtl", final_mtl, schedule, ts["dev"], config)
    with mock.patch.object(training, "grl_weight", lambda progress: 0.0):  # the reversal weight held at 0
        train_run("adv", final_adv0, schedule, ts["dev"], config)
    mtl_close = all(
        np.allclose(final_mtl.tensors[n], final_adv0.tensors[n], atol=1e-12) for n in trainable_tensors("mtl")
    )

    q = default_quadratic()
    gd = gd_trajectory(q, DEFAULT_START, 0.05, 60)
    eg_bitwise = True
    for fn in (eg_first_order_trajectory, eg_full_hessian_trajectory):
        eg = fn(q, DEFAULT_START, 0.05, 0.0, 60)
        eg_bitwise &= all(np.array_equal(a, b) for a, b in zip(gd.points, eg.points))

    ok = bitwise and mtl_close and eg_bitwise
    check(
        "criterion 3",
        ok,
        f"lookahead@0 bitwise={bitwise}; mtl==adv@lambda0={mtl_close}; eg@0 bitwise={eg_bitwise}",
    )


# --- criterion 4: hand-composed pathway equivalence ------------------------------


def test_criterion_4_first_order_pathway_equivalence():
    from latopt.autodiff import Tape, backward
    from latopt.model import classifier_logits, encode_on_tape, put_params, task_loss_on_tape

    rng = np.random.default_rng(7)
    params = init_params(TINY, 7)  # latent dim 4
    bs = (tuple(tuple(rng.integers(0, 12, 4)) for _ in range(2)), onehot(rng.integers(0, 2, 2)))
    bt = (tuple(tuple(rng.integers(0, 12, 4)) for _ in range(2)), onehot(rng.integers(0, 2, 2)))
    gamma = 0.05

    fwd = strategy_forward(params, bs, bt, "adv+lo", 1.0, gamma)
    grads = fwd.refs.param_grads(backward(fwd.refs.tape, fwd.refs.objective))
    raw = domain_loss_graph(params, bs, bt)
    g_d = raw.param_grads(backward(raw.tape, raw.loss_d))

    def task_pathway(batch, domain, z_prime):
        t = Tape()
        p = put_params(t, params)
        z = encode_on_tape(t, p, batch[0])
        zp = t.add(z, t.leaf(z_prime - t.value(z)))
        logits = classifier_logits(t, p, zp, domain)
        g = backward(t, task_loss_on_tape(t, logits, batch[1]))
        return {name: g[nid] for name, nid in p.items()}

    gs = task_pathway(bs, "source", fwd.latents.z_s_prime)
    gt = task_pathway(bt, "target", fwd.latents.z_t_prime)

    worst = 0.0
    isolated = True
    G = ModelParams.GROUPS
    for name in G["phi_s"]:
        worst = max(worst, float(np.abs(grads[name] - gs[name]).max()))
        isolated &= not gt[name].any()
    for name in G["phi_t"]:
        worst = max(worst, float(np.abs(grads[name] - gt[name]).max()))
        isolated &= not gs[name].any()
    for group in ("w_sh", "w_b"):
        for name in G[group]:
            hand = gs[name] + gt[name] - g_d[name]
            worst = max(worst, float(np.abs(grads[name] - hand).max()))
    for name in G["theta_d"]:
        worst = max(worst, float(np.abs(grads[name] - g_d[name]).max()))

    ok = worst < 1e-10 and isolated
    check("criterion 4", ok, f"max pathway error {worst:.2e}; phi isolation {isolated}")


# --- criterion 5: ascent / descent properties ------------------------------------


def test_criterion_5_latent_ascent_and_descent():
    from latopt.autodiff import Tape
    from latopt.model import classifier_logits, put_params, task_loss_on_tape

    rng = np.random.default_rng(37)

    def batch(b=4):
        return (
            tuple(tuple(rng.integers(0, TINY.vocab_size, size=rng.integers(2, 5))) for _ in range(b)),
            onehot(rng.integers(0, 2, size=b)),
        )

    def shared(params, z):
        return np.tanh(z @ params.tensors["sh_W"] + params.tensors["sh_b"])

    gammas = (1e-4, 1e-3, 1e-2)
    ascent_wins = ascent_trials = 0
    descent_wins = descent_trials = 0
    for trial in range(200):
        params = init_params(TINY, 5000 + trial)
        bs, bt = batch(), batch()

        refs = domain_loss_graph(params, bs, bt)
        before = float(refs.tape.value(refs.loss_d))
        for gamma in gammas:
            pair = latent_step(refs.tape, refs.z_s, refs.z_t, refs.loss_d, gamma)
            after = domain_loss(params, shared(params, pair.z_s_prime), shared(params, pair.z_t_prime))
            ascent_trials += 1
            ascent_wins += after >= before

        fwd = strategy_forward(params, bs, bt, "mtl")
        for gamma in gammas:
            task_loss = fwd.refs.tape.add(fwd.refs.loss_s, fwd.refs.loss_t)
            pair = latent_step(fwd.refs.tape, fwd.refs.z_s, fwd.refs.z_t, task_loss, gamma, sign=-1.0)
            t = Tape()
            p = put_params(t, params)
            for z_prime, b_, domain, base_node in (
                (pair.z_s_prime, bs, "source", fwd.refs.loss_s),
                (pair.z_t_prime, bt, "target", fwd.refs.loss_t),
            ):
                logits = classifier_logits(t, p, t.leaf(z_prime), domain)
                loss = float(t.value(task_loss_on_tape(t, logits, b_[1])))
                descent_trials += 1
                descent_wins += loss <= float(fwd.refs.tape.value(base_node))

    ascent_rate = ascent_wins / ascent_trials
    descent_rate = descent_wins / descent_trials
    ok = ascent_rate >= 0.95 and descent_rate >= 0.95
    check("criterion 5", ok, f"ascent {ascent_rate:.3f}, descent {descent_rate:.3f} over 200 draws")


# --- criterion 6 + 9: transfer dynamics and report arithmetic --------------------


@pytest.fixture(scope="module")
def default_experiment(tmp_path_factory):
    out = tmp_path_factory.mktemp("experiment")
    spec = ExperimentSpec()  # the default synthetic protocol
    source, target = prepare_transfer_pair(spec.generator or GeneratorConfig())
    t0 = time.perf_counter()
    reports, analysis = run_experiment(spec, out_dir=out, source=source, target=target)
    elapsed = time.perf_counter() - t0
    return spec, reports, analysis, elapsed


def test_criterion_6_transfer_dynamics_direction(default_experiment):
    spec, reports, analysis, elapsed = default_experiment
    assert analysis["n_failed"] == 0
    n_seeds = len(spec.seeds)
    adv_lo = analysis["comparisons"]["adv+lo vs adv"]
    mtl_lo = analysis["comparisons"]["mtl+lo vs mtl"]
    ok = (
        n_seeds >= 10
        and adv_lo["n_seeds"] >= 10
        and mtl_lo["n_seeds"] >= 10
        and adv_lo["mean_diff"] >= 0.0
        and mtl_lo["mean_diff"] >= 0.0
        and elapsed < 600.0
    )
    check(
        "criterion 6",
        ok,
        f"adv+lo-adv {adv_lo['mean_diff']:+.4f} (p={adv_lo['sign_test_p']:.3f}), "
        f"mtl+lo-mtl {mtl_lo['mean_diff']:+.4f} (p={mtl_lo['sign_test_p']:.3f}), {elapsed:.0f}s",
    )


def test_criterion_9_metrics_arithmetic(default_experiment):
    spec, reports, _, _ = default_experiment
    f, r, p = f_score([1, 1, 1, 1, 0, 0, 0], [1, 1, 1, 0, 1, 1, 0])
    hand_ok = abs(p - 0.75) < 1e-12 and abs(r - 0.6) < 1e-12 and abs(f - 2 * 0.45 / 1.35) < 1e-12

    rows = summary_rows(spec, reports)
    harmonic_ok = True
    for row in rows:
        pr, rc, fv = row["testP"], row["testR"], row["testF"]
        expect = 2 * pr * rc / (pr + rc) if pr + rc > 0 else 0.0
        harmonic_ok &= abs(fv - expect) < 1e-12
    ok = hand_ok and harmonic_ok and len(rows) == len(spec.strategies) * len(spec.seeds)
    check("criterion 9", ok, f"hand case ok={hand_ok}; harmonic identity over {len(rows)} rows")


# --- criterion 7: resource accounting ---------------------------------------------


def test_criterion_7_resource_accounting():
    spec = ExperimentSpec()
    model_cfg = spec.model
    gen = GeneratorConfig()
    source, target = prepare_transfer_pair(gen)
    ss, ts = _splits(source), _splits(target)
    config = TrainingConfig(lr=1e-3, gamma=spec.gamma)
    schedule = batch_schedule(ss["train"], ts["train"], spec.batch_size, 1, 0)

    walls = {}
    aux = {}
    for strategy in ("adv+lo", "adv+maml"):
        best = math.inf
        for rep in range(2):
            params = init_params(model_cfg, 0)
            run = train_run(strategy, params, schedule, ts["dev"], config)
            best = min(best, run.epoch_reports[0].wall_ms)
            aux[strategy] = run.peak_aux
        walls[strategy] = best

    two_bd = 2 * spec.batch_size * model_cfg.latent_dim
    wb = sum(init_params(model_cfg, 0).tensors[k].size for k in ModelParams.GROUPS["w_b"])
    ok = (
        aux["adv+lo"] == two_bd
        and aux["adv+maml"] == wb
        and wb / two_bd > 5.0
        and walls["adv+maml"] > walls["adv+lo"]
    )
    check(
        "criterion 7",
        ok,
        f"aux lo={aux['adv+lo']} (2BD={two_bd}), maml={aux['adv+maml']} (|w_b|={wb}, "
        f"ratio {wb / two_bd:.2f}); wall maml {walls['adv+maml']:.0f}ms vs lo {walls['adv+lo']:.0f}ms",
    )


# --- criterion 8: KL diagnostic ----------------------------------------------------


def test_criterion_8_kl_diagnostic():
    from latopt.data import DomainDataset, Example, kl_over_overlap

    ds = DomainDataset("d", 10, 0, [Example((1, 2, 2, 3), 0, "train")])
    zero_ok = abs(unigram_kl(ds, ds)) < 1e-12

    target, source = {0: 2, 1: 2}, {0: 1, 1: 3}
    expected = 0.5 * math.log(2.0) + 0.5 * math.log(2.0 / 3.0)
    value = kl_over_overlap(target, source)
    hand_ok = abs(value - expected) < 1e-6 and round(value, 5) == 0.14384
    asym_ok = kl_over_overlap(target, source) != kl_over_overlap(source, target)

    shares = (0.05, 0.10, 0.15, 0.20, 0.25)
    rhos = []
    for seed in range(5):
        kls = []
        for share in shares:
            cfg = GeneratorConfig(
                cue_rate=share, seed=300 + seed, source_train_size=256, target_train_size=128, test_size=64
            )
            s, t = generate_domain_pair(cfg)
            kls.append(unigram_kl(s, t, ("train",)))
        rhos.append(spearman_rank_correlation(shares, kls))
    dial_ok = float(np.mean(rhos)) > 0.9

    ok = zero_ok and hand_ok and asym_ok and dial_ok
    check(
        "criterion 8",
        ok,
        f"zero={zero_ok}, hand value {value:.5f}, asym={asym_ok}, mean rank corr {np.mean(rhos):.3f}",
    )
