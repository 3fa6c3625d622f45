"""Command-line interface.

Subcommands: ``gen`` (synthetic dataset pair), ``kl`` (unigram divergence),
``stats`` (dataset summary), ``quad`` (quadratic trajectories + SVG/CSV),
``train`` (single run), ``compare`` (full experiment from a JSON spec).
Exit code is nonzero when any run fails, and 2 on bad input: a command
raises ``Refusal`` before it writes anything, and ``main`` prints it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np


class Refusal(Exception):
    """Bad input to a command; ``main`` prints ``latopt <command>: <reason>``
    to stderr and returns 2."""


def _check_out(path) -> None:
    """Refuses an ``--out path`` that cannot be a directory to write into
    (see ``harness.out_dir_problem``)."""
    from .harness import out_dir_problem

    if problem := out_dir_problem(path):
        raise Refusal(f"--out {path}: {problem}")


def _cmd_gen(args) -> int:
    from .data import GeneratorConfig, prepare_transfer_pair, save_dataset

    _check_out(args.out)
    # the pair is a function of the flags alone, so any ValueError is bad input
    try:
        source, target = prepare_transfer_pair(GeneratorConfig(seed=args.seed, cue_rate=args.cue_share), args.max_len)
    except ValueError as e:
        raise Refusal(str(e)) from e
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(source, out / "source.jsonl")
    save_dataset(target, out / "target.jsonl")
    print(f"wrote {out / 'source.jsonl'} ({len(source.examples)} examples)")
    print(f"wrote {out / 'target.jsonl'} ({len(target.examples)} examples)")
    return 0


def _load(*paths) -> list:
    """The datasets at ``paths``; ``Refusal`` says why one cannot be read."""
    from .data import DatasetError, load_dataset

    try:
        return [load_dataset(path) for path in paths]
    except DatasetError as e:
        raise Refusal(str(e)) from e


def _cmd_kl(args) -> int:
    from .data import unigram_kl

    source, target = _load(args.source, args.target)
    try:
        kl = unigram_kl(source, target, tuple(args.split) if args.split else None)
    except ValueError as e:  # no token the two corpora share
        raise Refusal(str(e)) from e
    print(f"{kl:.6f}")
    return 0


def _cmd_stats(args) -> int:
    from .data import SPLITS, unigram_counts

    (ds,) = _load(args.data)
    print(f"domain: {ds.domain}  vocab_size: {ds.vocab_size}  seed: {ds.seed}")
    for split in SPLITS:
        ex = ds.split(split)
        if not ex:
            continue
        lengths = [len(e.tokens) for e in ex]
        print(
            f"{split:>5}: {len(ex)} examples, positive rate {ds.positive_rate(split):.4f}, "
            f"mean length {np.mean(lengths):.1f}"
        )
    print(f"distinct unigrams: {len(unigram_counts(ds))}")
    return 0


def _quad_inputs(args, q):
    """(start, methods) from the quad flags; ``ValueError`` names a bad one."""
    from .quadratic import TRAJECTORY_FNS, gd_trajectory

    try:
        start = tuple(float(v) for v in args.start.split(","))
    except ValueError:
        start = ()
    if len(start) != 2 or not all(math.isfinite(v) for v in start):
        raise ValueError(f"--start must be two finite numbers x,y, got {args.start!r}")
    if not len(gd_trajectory(q, start, 0.0, 0)):  # the step-0 record every method starts from
        raise ValueError(f"--start {args.start!r} is too far out: f or its gradient is not finite there")
    for flag, value in (("--eta", args.eta), ("--gamma", args.gamma)):
        if not math.isfinite(value):
            raise ValueError(f"{flag} must be finite, got {value}")
    methods = args.method.split(",")
    for method in methods:
        if method not in TRAJECTORY_FNS:
            raise ValueError(f"unknown method '{method}' (choose from gd, eg1, eg2)")
    if args.steps < 0:
        raise ValueError(f"--steps must be >= 0, got {args.steps}")
    return start, methods


def _cmd_quad(args) -> int:
    from .quadratic import TRAJECTORY_FNS, default_quadratic
    from .render import write_outputs

    q = default_quadratic()
    try:
        start, methods = _quad_inputs(args, q)
        trajectories = [TRAJECTORY_FNS[method](q, start, args.eta, args.gamma, args.steps) for method in methods]
        # renders both documents before it opens a file, so a refusal writes nothing
        write_outputs(trajectories, q, svg_path=args.out_svg, csv_path=args.out_csv)
    except ValueError as e:
        raise Refusal(str(e)) from e
    for method, traj in zip(methods, trajectories):
        reached = traj.steps_to()
        status = f"converged at step {reached}" if reached is not None else "not converged"
        if traj.truncated:
            status += " (truncated on non-finite iterate)"
        print(
            f"{method}: eta={args.eta} gamma={args.gamma} steps={len(traj) - 1} "
            f"final f={traj.f_values[-1]:.6g} {status}"
        )
    print(f"condition number: {q.condition_number():.6f} (reconstructed problem)")
    if args.out_svg:
        print(f"wrote {args.out_svg}")
    if args.out_csv:
        print(f"wrote {args.out_csv}")
    return 0


def _cmd_train(args) -> int:
    from .harness import SpecError, _test_metrics, checked_splits
    from .model import ModelConfig, init_params, save_checkpoint
    from .training import TrainingAborted, TrainingConfig, batch_schedule, train_run

    try:
        config = TrainingConfig(lr=args.lr, gamma=args.gamma)
    except ValueError as e:
        raise Refusal(str(e)) from e
    for name in ("batch_size", "epochs"):
        if getattr(args, name) < 1:
            raise Refusal(f"{name} must be >= 1, got {getattr(args, name)}")
    if args.seed < 0:
        raise Refusal(f"--seed must be >= 0, got {args.seed}")
    _check_out(args.out)
    source, target = _load(args.source, args.target)
    # the model vocabulary is sized from the source
    try:
        splits = checked_splits(source.vocab_size, args.batch_size, {args.source: source, args.target: target})
    except SpecError as e:
        raise Refusal(str(e)) from e
    params = init_params(ModelConfig(vocab_size=source.vocab_size), args.seed)
    source_splits, target_splits = splits[args.source], splits[args.target]
    schedule = batch_schedule(source_splits["train"], target_splits["train"], args.batch_size, args.epochs, args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        with open(out / "runlog.jsonl", "w") as run_log:
            run = train_run(args.strategy, params, schedule, target_splits["dev"], config, run_log=run_log)
    except TrainingAborted as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    f, r, p = _test_metrics(run.selected, target_splits)
    save_checkpoint(run.selected, out / "model.json")
    metrics = {
        "strategy": args.strategy,
        "seed": args.seed,
        "lr": args.lr,
        "gamma": args.gamma,
        "selected_epoch": run.epoch,
        "dev_f": run.dev_f[run.epoch],
        "test_f": f,
        "test_recall": r,
        "test_precision": p,
        "wall_ms": run.wall_ms,
        "aux_state_scalars": run.peak_aux,
    }
    with open(out / "metrics.json", "w") as fh:
        json.dump(metrics, fh, indent=2)
    print(json.dumps(metrics, indent=2))
    return 0


def _cmd_compare(args) -> int:
    from .data import DatasetError
    from .harness import ExperimentSpec, SpecError, format_summary, run_experiment

    _check_out(args.out)
    try:
        reports, analysis = run_experiment(ExperimentSpec.from_json(args.spec), out_dir=args.out)
    except (SpecError, DatasetError) as e:
        raise Refusal(str(e)) from e
    print(format_summary(analysis))
    print(f"outputs in {args.out}")
    return 1 if analysis["n_failed"] else 0


def build_parser() -> argparse.ArgumentParser:
    from .data import SPLITS
    from .training import DEFAULT_GAMMA, STRATEGIES

    parser = argparse.ArgumentParser(prog="latopt")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic source/target dataset pair")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--cue-share", type=float, default=0.15)
    p.add_argument("--max-len", type=int, default=100)
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("kl", help="unigram KL divergence d(target || source)")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--split", action="append", choices=SPLITS, help="restrict to a split (repeatable)")
    p.set_defaults(fn=_cmd_kl)

    p = sub.add_parser("stats", help="dataset summary")
    p.add_argument("--data", required=True)
    p.set_defaults(fn=_cmd_stats)

    p = sub.add_parser("quad", help="quadratic playground trajectories")
    p.add_argument("--eta", type=float, default=0.025)
    p.add_argument("--gamma", type=float, default=0.01)
    p.add_argument("--method", default="gd", help="gd, eg1, or eg2 (comma-separated for several)")
    p.add_argument("--steps", type=int, default=200)
    p.add_argument("--start", default="0,-0.15")
    p.add_argument("--out-svg")
    p.add_argument("--out-csv")
    p.set_defaults(fn=_cmd_quad)

    p = sub.add_parser("train", help="train one strategy on a dataset pair")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--strategy", default="adv+lo", choices=STRATEGIES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--lr", type=float, default=1e-3)
    p.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    p.add_argument("--epochs", type=int, default=5)
    p.add_argument("--batch-size", type=int, default=128)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("compare", help="run a full experiment spec")
    p.add_argument("--spec", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except Refusal as e:
        print(f"latopt {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
