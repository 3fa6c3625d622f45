"""End-to-end experiment runner: strategy comparison over seeds with the
dev-set learning-rate protocol, model selection, positive-class F
reporting, and resource accounting.

Learning-rate protocol: the base strategies (``adv``, ``mtl``, ``seq``,
``tgt``) are grid-searched on the target dev split; their lookahead
variants inherit the winning rate unchanged. That asymmetry is deliberate
and is the default the comparison experiments rely on.
"""

from __future__ import annotations

import ctypes
import json
import math
import multiprocessing
import os
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, asdict, is_dataclass
from pathlib import Path

import numpy as np

from .autodiff import ShapeError
from .data import SPLITS, DomainDataset, GeneratorConfig, not_a_split, prepare_transfer_pair, load_dataset
from .metrics import f_score, paired_sign_test, t_interval_95
from .model import DOMAINS, ModelConfig, ModelParams, init_params, predict
from .training import (
    DEFAULT_GAMMA,
    TABLE,
    RunResult,
    TrainingAborted,
    TrainingConfig,
    batch_schedule,
    pack_split,
    train_run,
)

# the rows a spec may name: the two-domain strategies, or the rows that train in phases
SPEC_STRATEGIES = tuple(name for name, s in TABLE.items() if len(s.domains) > 1 or s.phases)


class SpecError(ValueError):
    """An experiment spec that is malformed or does not fit its datasets."""


def _json_kind(hint) -> tuple[str, typing.Callable]:
    """(description, test) of the JSON values a field annotated ``hint``
    takes: an int is not a bool, and a number is finite."""
    if typing.get_origin(hint) in (typing.Union, types.UnionType):
        (inner,) = [h for h in typing.get_args(hint) if h is not type(None)]
        what, ok = _json_kind(inner)
        return f"{what} or null", lambda v: v is None or ok(v)
    if typing.get_origin(hint) is list:
        (item,) = typing.get_args(hint)
        what, ok = _json_kind(item)
        return f"a list of {what.split(' ', 1)[1]}s", lambda v: type(v) is list and all(map(ok, v))
    if is_dataclass(hint):
        return "a JSON object", lambda v: type(v) is dict
    if hint is float:
        return "a number", lambda v: type(v) in (int, float) and math.isfinite(v)
    if hint is int:
        return "an integer", lambda v: type(v) is int
    return "a string", lambda v: type(v) is str


def _checked_object(obj, cls, key: str | None = None) -> dict:
    """``obj`` if it is a JSON object with only ``cls``'s fields as keys, each
    holding a value of the field's JSON type; ``key`` names a nested object."""
    where = key or "the spec"
    if not isinstance(obj, dict):
        raise SpecError(f"{where} must be a JSON object")
    unknown = sorted(set(obj) - {f.name for f in fields(cls)})
    if unknown:
        raise SpecError(f"unknown key {unknown[0]!r} in {where}")
    hints = typing.get_type_hints(cls)
    for name, value in obj.items():
        what, ok = _json_kind(hints[name])
        if not ok(value):
            raise SpecError(f"{key + ': ' if key else ''}{name} must be {what}, got {json.dumps(value)}")
    return obj


@dataclass
class ExperimentSpec:
    strategies: list[str] = field(default_factory=lambda: ["mtl", "mtl+lo", "adv", "adv+lo"])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    lr_grid: list[float] = field(default_factory=lambda: [3e-4, 1e-3, 3e-3])
    gamma: float = DEFAULT_GAMMA
    epochs: int = 5
    batch_size: int = 128
    source_path: str | None = None
    target_path: str | None = None
    generator: GeneratorConfig | None = None
    model: ModelConfig = field(default_factory=ModelConfig)

    def __post_init__(self):
        if not self.strategies:
            raise SpecError("spec needs at least one strategy")
        if not self.seeds:
            raise SpecError("spec needs at least one seed")
        if min(self.seeds) < 0:
            raise SpecError(f"spec seeds must be >= 0, got {self.seeds}")
        for name, one in (("strategies", "strategy"), ("seeds", "seed"), ("lr_grid", "rate")):
            values = getattr(self, name)
            repeated = [v for i, v in enumerate(values) if v in values[:i]]
            if repeated:
                raise SpecError(f"spec repeats {one} {repeated[0]!r}")
        if not self.lr_grid:
            raise SpecError("spec needs a nonempty lr grid")
        for lr in self.lr_grid:  # every run's config: TrainingConfig owns the bounds of lr and gamma
            try:
                TrainingConfig(lr=lr, gamma=self.gamma)
            except ValueError as e:
                raise SpecError(str(e)) from None
        for name in ("batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise SpecError(f"{name} must be >= 1, got {getattr(self, name)}")
        unknown = [s for s in self.strategies if s not in SPEC_STRATEGIES]
        if unknown:
            raise SpecError(f"unknown strategy {unknown[0]!r} (choose from {', '.join(SPEC_STRATEGIES)})")
        if (self.source_path is None) != (self.target_path is None):
            raise SpecError("spec needs both source_path and target_path, or neither")
        if self.source_path is not None and self.generator is not None:
            raise SpecError("spec gives dataset paths and a generator; give one or the other")

    @classmethod
    def from_json(cls, obj) -> "ExperimentSpec":
        """A spec from a JSON file path or a decoded object. A file that
        cannot be read or is not JSON, an unknown key or a value of the wrong
        JSON type, at the top level or in ``generator`` or ``model``, an
        unknown strategy or a ``generator`` or ``model`` value its config
        rejects raises ``SpecError`` naming it."""
        if isinstance(obj, (str, Path)):
            try:
                with open(obj) as fh:
                    obj = json.load(fh)
            except OSError as e:
                raise SpecError(f"{obj}: {e.strerror or e}") from None
            except ValueError as e:  # not JSON, or not UTF-8
                raise SpecError(f"{obj}: {e}") from None
        obj = dict(_checked_object(obj, cls))
        for key, config in (("generator", GeneratorConfig), ("model", ModelConfig)):
            if obj.get(key) is not None:
                values = _checked_object(obj[key], config, key)
                try:
                    obj[key] = config(**values)
                except ValueError as e:
                    raise SpecError(f"{key}: {e}") from None
        return cls(**obj)


@dataclass
class MetricsReport:
    strategy: str
    seed: int
    lr: float
    dev_f: float
    test_f: float
    test_r: float
    test_p: float
    selected_epoch: int
    wall_ms: float
    aux_state: int
    failed: bool = False
    error: str | None = None


def _splits(ds: DomainDataset) -> dict:
    """The dataset's nonempty train, dev and test splits, each packed once."""
    return {name: pack_split(pairs) for name in SPLITS if (pairs := ds.pairs(name))}


def _test_metrics(params: ModelParams, splits: dict):
    test = splits["test"]
    return f_score(predict(params, test.seqs, "target"), test.labels)


def _seed_jobs(spec, seed, source_splits, target_splits):
    """All reports for one seed, base by base: the base's rate grid at
    gamma=0, whose best run by target-dev F (the smaller rate on a tie) is
    the base's report, then each variant at that rate with the spec's gamma.
    Every run starts from the seed's one init and trains its row's phases
    in turn (see ``training.Strategy``), each from the previous phase's
    selection, on the dev split of the domain that phase is scored on.
    Every schedule of the seed is cut here, once, keyed by the ``domains``
    of the phases that train on it, and only when some phase of the spec
    trains those domains: each two-domain run, base or variant at any
    rate, trains on the one two-domain schedule from ``seed``, so a ``+lo``
    run and its base see the same batches in the same order; a
    ``single:source`` phase trains on one cut from ``seed``, a
    ``single:target`` phase on one cut from ``seed + 1``."""
    init = init_params(spec.model, seed)
    cuts = {
        DOMAINS: (source_splits["train"], target_splits["train"], seed),
        ("source",): (source_splits["train"], None, seed),
        ("target",): (target_splits["train"], None, seed + 1),
    }
    needed = {TABLE[p].domains for s in spec.strategies for p in TABLE[s].phases or (s,)}
    # cut in the order of ``cuts``, which no process's hash seed changes
    schedules = {
        d: batch_schedule(s, t, spec.batch_size, spec.epochs, at) for d, (s, t, at) in cuts.items() if d in needed
    }
    dev = {"source": source_splits["dev"], "target": target_splits["dev"]}

    def run(strategy, lr, gamma) -> RunResult:
        """One run from ``init``, which it leaves untouched; its ``wall_ms`` counts every phase."""
        config = TrainingConfig(lr=lr, gamma=gamma)
        params, wall_ms = init.copy(), 0.0
        for phase in TABLE[strategy].phases or (strategy,):
            domains = TABLE[phase].domains
            got = train_run(phase, params, schedules[domains], dev[domains[-1]], config)
            params, wall_ms = got.selected, wall_ms + got.wall_ms
        got.wall_ms = wall_ms
        return got

    reports = []
    for base in sorted({TABLE[s].base for s in spec.strategies}):
        family = [s for s in spec.strategies if TABLE[s].base == base]
        best = None
        try:
            for rate in sorted(spec.lr_grid):
                got = run(base, rate, 0.0)
                if best is None or got.dev_f[got.epoch] > best.dev_f[best.epoch]:
                    lr, best = rate, got
        except TrainingAborted as e:
            reports.extend(_failed_report(s, seed, 0.0, str(e)) for s in family)
            continue
        for strategy in family:
            try:
                got = best if strategy == base else run(strategy, lr, spec.gamma)
            except TrainingAborted as e:
                reports.append(_failed_report(strategy, seed, lr, str(e)))
                continue
            f, r, p = _test_metrics(got.selected, target_splits)
            reports.append(
                MetricsReport(strategy, seed, lr, got.dev_f[got.epoch], f, r, p, got.epoch, got.wall_ms, got.peak_aux)
            )
    return reports


def _failed_report(strategy, seed, lr, message) -> MetricsReport:
    return MetricsReport(strategy, seed, lr, 0.0, 0.0, 0.0, 0.0, -1, 0.0, 0, failed=True, error=message)


def checked_splits(vocab: int, batch_size: int, datasets: dict) -> dict:
    """Each dataset's splits packed once (name -> the ``_splits`` of that
    dataset). ``SpecError`` says why a model with ``vocab`` tokens cannot
    train on them in batches of ``batch_size``: every example must be in
    the train, dev or test split, every token id embeddable, every label in
    {0, 1}, no split or sequence empty, and each train split must hold at
    least one batch. The checks read the packed splits, so an empty split
    is never packed."""
    packed = {}
    for name, ds in datasets.items():
        if ds.vocab_size > vocab:
            raise SpecError(f"{name}: vocab_size {ds.vocab_size} exceeds the model vocabulary of {vocab} tokens")
        odd = next((e.split for e in ds.examples if e.split not in SPLITS), None)
        if odd is not None:
            raise SpecError(f"{name}: {not_a_split(odd)}")
        try:
            splits = packed[name] = _splits(ds)
        except ShapeError as e:
            raise SpecError(f"{name}: {e}") from e
        lo = min((s.seqs.ids.min() for s in splits.values()), default=0)
        hi = max((s.seqs.ids.max() for s in splits.values()), default=0)
        if lo < 0 or hi >= vocab:
            raise SpecError(f"{name}: token ids span [{lo}, {hi}], outside the model vocabulary of {vocab} tokens")
        # sorted in Python: np.unique would import numpy.ma, about a megabyte
        bad = {int(y) for s in splits.values() for y in s.labels[(s.labels != 0) & (s.labels != 1)]}
        if bad:
            raise SpecError(f"{name}: labels {sorted(bad)} are not in {{0, 1}}")
        empty = [split for split in SPLITS if split not in splits]
        if empty:
            raise SpecError(f"{name}: the {empty[0]} split is empty")
        if batch_size > len(splits["train"].seqs):
            raise SpecError(f"{name}: batch_size {batch_size} exceeds the {len(splits['train'].seqs)} train examples")
    return packed


def load_pair(spec: ExperimentSpec):
    """The spec's dataset files, or the pair its generator config builds. A
    file that cannot be read as a dataset raises ``DatasetError``, a config
    the pipeline cannot build both classes from ``SpecError``."""
    if spec.source_path is not None:
        return load_dataset(spec.source_path), load_dataset(spec.target_path)
    try:
        return prepare_transfer_pair(spec.generator or GeneratorConfig())
    except ValueError as e:
        raise SpecError(f"generator: {e}") from None


def out_dir_problem(path) -> str | None:
    """Why ``path`` cannot be, or be made, a directory to write into, or None
    when it can: the path, or else its nearest existing ancestor, must be a
    writable directory. Nothing is made here, so a refusal leaves no trace."""
    p = Path(path).absolute()
    here = next(q for q in (p, *p.parents) if q.exists())
    if here.is_dir() and os.access(here, os.W_OK | os.X_OK):
        return None
    return f"{here} is not writable" if here.is_dir() else f"{here} is not a directory"


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    reports one (Linux), else every CPU."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# what a pool worker reads: set in each worker by the pool's initializer from
# the arguments it inherits through fork, so nothing large is pickled
_worker_args: tuple = ()

# glibc's mallopt parameters (malloc.h) and the values each pool worker sets.
# A training step frees temporaries of 0.3-0.5 MB (the dense embedding
# gradient, the embedding row gather, the embedding backward's weights and
# bins); under glibc's defaults they go back to the kernel and fault in again
# at the next step. Setting either parameter turns off glibc's dynamic
# adjustment of both, so both are set; glibc caps the mmap threshold at 32 MiB.
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
WORKER_TRIM_THRESHOLD = 32 << 20
WORKER_MMAP_THRESHOLD = 8 << 20


def _init_worker(*args) -> None:
    """Run once in each forked worker: keep the inherited arguments, and raise
    glibc's trim and mmap thresholds so that a step's freed temporaries stay
    in this worker's heap. A C library that cannot be opened or has no
    ``mallopt`` leaves the allocator as it is. Only allocation changes, never
    a computed bit, and the process that forks the pool is never tuned."""
    global _worker_args
    _worker_args = args
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    mallopt(M_TRIM_THRESHOLD, WORKER_TRIM_THRESHOLD)
    mallopt(M_MMAP_THRESHOLD, WORKER_MMAP_THRESHOLD)


def _worker_seed_jobs(seed: int) -> list:
    spec, source_splits, target_splits = _worker_args
    return _seed_jobs(spec, seed, source_splits, target_splits)


def _all_seed_jobs(spec, source_splits, target_splits) -> list:
    """Every seed's reports, in seed order. With one usable CPU or one seed
    the seeds run here, in turn; otherwise in a pool of forked workers, one
    per CPU and at most one per seed, each seed a task. A seed's reports
    depend only on the spec, the seed and the splits, so both ways compute
    the same bits. Each worker sets glibc's trim and mmap thresholds (see
    ``_init_worker``), so a step's freed temporaries stay in its heap; on
    other C libraries this is a no-op, this process is never tuned, and the
    reports stay bitwise. A worker that dies raises ``BrokenProcessPool``; any
    exception a worker raises is raised here once the workers still running
    finish, and the seeds not yet started are dropped."""
    workers = min(_usable_cpus(), len(spec.seeds))
    if workers == 1:
        return [r for s in spec.seeds for r in _seed_jobs(spec, s, source_splits, target_splits)]
    with ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_init_worker,
        initargs=(spec, source_splits, target_splits),
    ) as pool:
        per_seed = list(pool.map(_worker_seed_jobs, spec.seeds))
    return [r for reports in per_seed for r in reports]


def run_experiment(spec: ExperimentSpec, out_dir=None, source=None, target=None):
    """Run every (strategy, seed) cell and aggregate.

    How the seeds are spread over worker processes, and the allocator
    settings of each worker, are ``_all_seed_jobs``'s; a report's
    ``wall_ms`` is measured in the process that trains the run.

    An ``out_dir`` that cannot be a directory (see ``out_dir_problem``)
    raises ``SpecError`` first, before any dataset is read or generated.
    The datasets are checked against the spec next (see ``checked_splits``);
    a spec that does not fit them raises ``SpecError`` before any training.
    Returns (reports, analysis). ``analysis`` holds ``strategies`` (the
    per-strategy test and dev F), ``comparisons`` (each variant against its
    base, and each strategy against ``tgt``; see ``analyze``), ``n_failed``
    and ``wall_s``. Failed runs are kept in the reports with
    ``failed=True``.
    """
    if out_dir is not None and (problem := out_dir_problem(out_dir)):
        raise SpecError(f"out_dir {out_dir}: {problem}")
    if source is None or target is None:
        source, target = load_pair(spec)
    names = (spec.source_path or "source", spec.target_path or "target")
    splits = checked_splits(spec.model.vocab_size, spec.batch_size, {names[0]: source, names[1]: target})
    source_splits, target_splits = splits[names[0]], splits[names[1]]

    t0 = time.perf_counter()
    reports = _all_seed_jobs(spec, source_splits, target_splits)
    wall_s = time.perf_counter() - t0

    reports.sort(key=lambda r: (r.strategy, r.seed))
    analysis = analyze(spec, reports)
    analysis["wall_s"] = wall_s
    if out_dir is not None:
        write_outputs(spec, reports, analysis, out_dir)
    return reports, analysis


def _rel_state(spec: ExperimentSpec, report: MetricsReport) -> float:
    """Lookahead-related state relative to the per-batch latent quantum.

    Every strategy materializes the 2*B*D latents; parameter-space
    lookahead adds its weight copy on top, so the baseline row is exactly
    1.00x and the encoder-space variant pays (|w_b| + 2BD) / (2BD).
    """
    quantum = 2 * spec.batch_size * spec.model.latent_dim
    extra = report.aux_state if TABLE[report.strategy].lookahead == "params" else 0
    return (quantum + extra) / quantum


def analyze(spec: ExperimentSpec, reports: list) -> dict:
    """Per-strategy test and dev F over the runs that did not fail, keyed
    once by (strategy, seed), and for each (base, variant) pair in sorted
    order, then each other strategy against the reference in sorted order,
    over the seeds where both ran. The reference is the one row a spec may
    name that trains a single domain, the target-only ``tgt``. A comparison
    holds the seeds whose test F ties exactly (the sign test drops them),
    the mean and sample sd of the paired differences, their 95% t interval
    (see ``metrics.t_interval_95``; None below two seeds) and the sign-test
    p."""
    cells = {(r.strategy, r.seed): r for r in reports if not r.failed}
    ran = sorted({s for s, _ in cells})
    strategies = {}
    for s in ran:
        rs = [r for (name, _), r in cells.items() if name == s]
        test_f = [r.test_f for r in rs]
        strategies[s] = {
            "n": len(rs),
            "mean_test_f": float(np.mean(test_f)),
            "std_test_f": float(np.std(test_f)),
            "mean_dev_f": float(np.mean([r.dev_f for r in rs])),
            "mean_wall_ms": float(np.mean([r.wall_ms for r in rs])),
            "aux_state": max(r.aux_state for r in rs),
        }

    reference = next(s for s in SPEC_STRATEGIES if len(TABLE[s].domains) == 1)
    pairs = sorted((TABLE[s].base, s) for s in ran if TABLE[s].base != s)
    pairs += [(reference, s) for s in ran if s != reference]
    comparisons = {}
    for base, variant in pairs:
        seeds = sorted(seed for s, seed in cells if s == variant and (base, seed) in cells)
        if seeds:
            a = [cells[variant, seed].test_f for seed in seeds]
            b = [cells[base, seed].test_f for seed in seeds]
            sd, interval = t_interval_95(np.subtract(a, b))
            comparisons[f"{variant} vs {base}"] = {
                "n_seeds": len(seeds),
                "n_ties": sum(x == y for x, y in zip(a, b)),
                "mean_diff": float(np.mean(a) - np.mean(b)),
                "sd_diff": sd,
                "ci95_diff": interval,
                "sign_test_p": paired_sign_test(a, b),
            }
    return {
        "strategies": strategies,
        "comparisons": comparisons,
        "n_failed": sum(1 for r in reports if r.failed),
    }


def summary_rows(spec: ExperimentSpec, reports: list) -> list:
    """summary.csv rows; rel_time is wall time against the same seed's
    adversarial baseline, the row that is its own base and trains a
    discriminator (1.00x when that baseline is absent)."""
    adv = next(name for name, s in TABLE.items() if s.base == name and s.disc)
    adv_wall = {r.seed: r.wall_ms for r in reports if r.strategy == adv and not r.failed}
    rows = []
    for r in reports:
        rel_time = r.wall_ms / adv_wall[r.seed] if adv_wall.get(r.seed) else 1.0
        rows.append(
            {
                "strategy": r.strategy,
                "seed": r.seed,
                "devF": r.dev_f,
                "testF": r.test_f,
                "testR": r.test_r,
                "testP": r.test_p,
                "epoch": r.selected_epoch,
                "wall_ms": r.wall_ms,
                "aux_state": r.aux_state,
                "rel_time": rel_time,
                "rel_state": _rel_state(spec, r),
            }
        )
    return rows


def write_outputs(spec: ExperimentSpec, reports, analysis, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "reports.jsonl", "w") as fh:
        for r in reports:
            fh.write(json.dumps(asdict(r)) + "\n")
    rows = summary_rows(spec, reports)
    with open(out / "summary.csv", "w") as fh:
        fh.write(",".join(rows[0]) + "\n")
        for row in rows:
            fh.write(",".join(map(str, row.values())) + "\n")
    with open(out / "summary.json", "w") as fh:
        json.dump(analysis, fh, indent=2)


def format_summary(analysis: dict) -> str:
    lines = ["strategy        n   mean testF   std      mean devF"]
    for s, row in analysis["strategies"].items():
        lines.append(
            f"{s:<14}{row['n']:>3}   {row['mean_test_f']:.4f}      {row['std_test_f']:.4f}   {row['mean_dev_f']:.4f}"
        )
    for name, cmp in analysis["comparisons"].items():
        spread = ""
        if cmp["ci95_diff"] is not None:
            lo, hi = cmp["ci95_diff"]
            spread = f", sd {cmp['sd_diff']:.4f}, 95% t interval [{lo:+.4f}, {hi:+.4f}]"
        lines.append(
            f"{name}: mean diff {cmp['mean_diff']:+.4f} over {cmp['n_seeds']} seeds ({cmp['n_ties']} ties)"
            f"{spread}, sign-test p={cmp['sign_test_p']:.4f}"
        )
    if analysis.get("n_failed"):
        lines.append(f"FAILED RUNS: {analysis['n_failed']}")
    return "\n".join(lines)
