"""Command-line interface.

Subcommands: ``gen`` (synthetic dataset pair), ``kl`` (unigram divergence),
``stats`` (dataset summary), ``quad`` (quadratic trajectories + SVG/CSV),
``train`` (single run), ``compare`` (full experiment from a JSON spec).
Exit code is nonzero when any run fails, and 2 on bad input.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np


def _cmd_gen(args) -> int:
    from .data import GeneratorConfig, prepare_transfer_pair, save_dataset

    # the pair is a function of the flags alone, so any ValueError is bad input
    try:
        source, target = prepare_transfer_pair(GeneratorConfig(seed=args.seed, cue_rate=args.cue_share), args.max_len)
    except ValueError as e:
        print(f"latopt gen: {e}", file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_dataset(source, out / "source.jsonl")
    save_dataset(target, out / "target.jsonl")
    print(f"wrote {out / 'source.jsonl'} ({len(source.examples)} examples)")
    print(f"wrote {out / 'target.jsonl'} ({len(target.examples)} examples)")
    return 0


def _load(cmd: str, *paths):
    """The datasets at ``paths``; None after printing why one cannot be read."""
    from .data import DatasetError, load_dataset

    try:
        return [load_dataset(path) for path in paths]
    except DatasetError as e:
        print(f"latopt {cmd}: {e}", file=sys.stderr)
        return None


def _cmd_kl(args) -> int:
    from .data import unigram_kl

    loaded = _load("kl", args.source, args.target)
    if loaded is None:
        return 2
    source, target = loaded
    splits = tuple(args.split) if args.split else None
    print(f"{unigram_kl(source, target, splits):.6f}")
    return 0


def _cmd_stats(args) -> int:
    from .data import unigram_model

    loaded = _load("stats", args.data)
    if loaded is None:
        return 2
    (ds,) = loaded
    print(f"domain: {ds.domain}  vocab_size: {ds.vocab_size}  seed: {ds.seed}")
    for split in ("train", "dev", "test"):
        ex = ds.split(split)
        if not ex:
            continue
        lengths = [len(e.tokens) for e in ex]
        print(
            f"{split:>5}: {len(ex)} examples, positive rate {ds.positive_rate(split):.4f}, "
            f"mean length {np.mean(lengths):.1f}"
        )
    print(f"distinct unigrams: {len(unigram_model(ds).counts)}")
    return 0


def _quad_inputs(args):
    """(start, methods) from the quad flags; ``ValueError`` names a bad one."""
    from .quadratic import TRAJECTORY_FNS

    try:
        start = tuple(float(v) for v in args.start.split(","))
    except ValueError:
        start = ()
    if len(start) != 2 or not all(math.isfinite(v) for v in start):
        raise ValueError(f"--start must be two finite numbers x,y, got {args.start!r}")
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

    try:
        start, methods = _quad_inputs(args)
    except ValueError as e:
        print(f"latopt quad: {e}", file=sys.stderr)
        raise SystemExit(2) from None
    q = default_quadratic()
    trajectories = []
    for method in methods:
        traj = TRAJECTORY_FNS[method](q, start, args.eta, args.gamma, args.steps)
        trajectories.append(traj)
        reached = traj.steps_to()
        status = f"converged at step {reached}" if reached is not None else "not converged"
        if traj.truncated:
            status += " (truncated on non-finite iterate)"
        print(
            f"{method}: eta={args.eta} gamma={args.gamma} steps={len(traj) - 1} "
            f"final f={traj.f_values[-1]:.6g} {status}"
        )
    print(f"condition number: {q.condition_number():.6f} (reconstructed problem)")
    write_outputs(trajectories, q, svg_path=args.out_svg, csv_path=args.out_csv)
    if args.out_svg:
        print(f"wrote {args.out_svg}")
    if args.out_csv:
        print(f"wrote {args.out_csv}")
    return 0


def _cmd_train(args) -> int:
    from .harness import _test_metrics, checked_splits, select_model
    from .model import ModelConfig, init_params, save_checkpoint
    from .training import TrainingAborted, TrainingConfig, train_run

    try:
        config = TrainingConfig(lr=args.lr, gamma=args.gamma, batch_size=args.batch_size, epochs=args.epochs)
    except ValueError as e:
        print(f"latopt train: {e}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print(f"latopt train: --seed must be >= 0, got {args.seed}", file=sys.stderr)
        return 2
    loaded = _load("train", args.source, args.target)
    if loaded is None:
        return 2
    source, target = loaded
    # the model vocabulary is sized from the source
    problem, splits = checked_splits(source.vocab_size, args.batch_size, {args.source: source, args.target: target})
    if problem:
        print(f"latopt train: {problem}", file=sys.stderr)
        return 2
    params = init_params(ModelConfig(vocab_size=source.vocab_size), args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    try:
        with open(out / "runlog.jsonl", "w") as run_log:
            run = train_run(
                args.strategy,
                params,
                splits[args.source],
                splits[args.target],
                config,
                args.seed,
                run_log=run_log,
            )
    except TrainingAborted as e:
        print(f"run failed: {e}", file=sys.stderr)
        return 1
    epoch = select_model(run.checkpoints, run.dev_f)
    chosen = run.checkpoints[epoch]
    f, r, p = _test_metrics(chosen, splits[args.target], "target")
    save_checkpoint(chosen, out / "model.json")
    metrics = {
        "strategy": args.strategy,
        "seed": args.seed,
        "lr": args.lr,
        "gamma": args.gamma,
        "selected_epoch": epoch,
        "dev_f": run.dev_f[epoch],
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

    try:
        reports, analysis = run_experiment(ExperimentSpec.from_json(args.spec), out_dir=args.out)
    except (SpecError, DatasetError) as e:
        print(f"latopt compare: {e}", file=sys.stderr)
        return 2
    print(format_summary(analysis))
    print(f"outputs in {args.out}")
    return 1 if analysis["n_failed"] else 0


def build_parser() -> argparse.ArgumentParser:
    from .training import STRATEGIES

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
    p.add_argument("--split", action="append", help="restrict to a split (repeatable)")
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
    p.add_argument("--gamma", type=float, default=0.01)
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
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
