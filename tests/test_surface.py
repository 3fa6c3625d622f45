"""The settable surface: every config field and parameter a caller can set
on the training, optimizer, rendering and data paths. A value with one
setting in use is a module constant, not a knob; this pins that."""

import inspect
from dataclasses import fields

from latopt import data, harness, metrics, model, optim, quadratic, render, training


def _names(fn):
    return list(inspect.signature(fn).parameters)


def test_settable_surface_is_pinned():
    assert [f.name for f in fields(training.TrainingConfig)] == ["lr", "gamma", "batch_size", "epochs", "grl_lambda"]
    assert [f.name for f in fields(optim.AdamState) if f.init] == ["step", "m", "v", "live"]
    assert [f.name for f in fields(training.EpochReport)] == [
        "epoch", "strategy", "losses", "lr", "wall_ms", "aux_state_scalars", "lam"
    ]
    assert [f.name for f in fields(training.LatentPair)] == [
        "z_s", "z_t", "z_s_prime", "z_t_prime", "id_s_prime", "id_t_prime"
    ]
    signatures = {
        optim.adam_step: ["state", "params", "grads", "lr"],
        training.batch_schedule: ["source", "target", "batch_size", "epochs", "seed"],
        training.train_epoch: [
            "strategy", "params", "opt_state", "pairs", "config", "epoch", "total_steps", "step_offset"
        ],
        training.train_run: ["strategy", "params", "schedule", "dev", "config", "eval_domain", "run_log"],
        harness.sequential_finetune: ["params", "source_splits", "target_splits", "config", "seed"],
        render.render_trajectory: ["trajectories", "q"],
        render.write_outputs: ["trajectories", "q", "svg_path", "csv_path"],
        render._auto_bounds: ["trajectories"],
        model.predict: ["params", "sequences", "domain"],
        model.grl_weight: ["progress"],
        data.prepare_transfer_pair: ["config", "max_len"],
        data.unigram_counts: ["dataset", "splits"],
        metrics.f_score: ["predictions", "labels"],
        quadratic.measure_mode_decay: ["q", "traj", "min_amp"],
    }
    assert {fn.__name__: _names(fn) for fn in signatures} == {fn.__name__: names for fn, names in signatures.items()}
    gone = [(render, "ContourGrid"), (harness, "data_problem"), (data, "UnigramModel"), (data, "unigram_model")]
    assert [f"{m.__name__}.{name}" for m, name in gone if hasattr(m, name)] == []
