"""Outside-in span tracer for the latopt benchmark.

The tracer replaces public functions of ``latopt`` with timing wrappers at
the module attribute the *caller* looks up (``training.backward`` as well as
``autodiff.backward``, because ``training`` imports the function by name).
Nothing under ``src/`` changes. Spans are kept in memory as
``(name, start, end, parent)`` tuples and written out when the benchmark
ends. A span's layer is the module that defines the wrapped function, so its
name starts with that module (``model.predict``), whoever calls it.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

LAYERS = (
    "autodiff",
    "model",
    "optim",
    "training",
    "harness",
    "data",
    "metrics",
    "cli",
    "quadratic",
    "render",
)


def _op_label(args, kwargs):
    return args[1] if len(args) > 1 else kwargs["op"]


def _strategy_label(args, kwargs):
    return args[0] if args else kwargs["strategy"]


# (owner path, attribute, span name, label fn). An owner path names a module
# under ``latopt`` or a class in one. Entries whose attribute is missing are
# skipped, so the tracer survives a refactor that removes a function.
WRAPS = (
    ("autodiff.Tape", "record", "autodiff.record", _op_label),
    ("autodiff.Tape", "leaf", "autodiff.leaf", None),
    ("autodiff.Tape", "embedding_mean", "autodiff.embedding_mean", None),
    ("autodiff", "backward", "autodiff.backward", None),
    ("training", "backward", "autodiff.backward", None),
    ("training", "training_step", "training.training_step", _strategy_label),
    ("training", "strategy_forward", "training.strategy_forward", None),
    ("training", "latent_step", "training.latent_step", None),
    ("training", "maml_lookahead_step", "training.maml_lookahead_step", None),
    ("training", "paired_batches", "training.paired_batches", None),
    ("harness", "train_run", "training.train_run", None),
    ("optim", "adam_step", "optim.adam_step", None),
    ("model", "predict", "model.predict", None),
    ("harness", "predict", "model.predict", None),
    ("model", "save_checkpoint", "model.save_checkpoint", None),
    ("model", "load_checkpoint", "model.load_checkpoint", None),
    ("harness", "run_experiment", "harness.run_experiment", None),
    ("harness", "write_outputs", "harness.write_outputs", None),
    ("cli", "main", "cli.main", None),
    ("metrics", "f_score", "metrics.f_score", None),
    ("harness", "f_score", "metrics.f_score", None),
    ("data", "prepare_transfer_pair", "data.prepare_transfer_pair", None),
    ("data", "generate_domain_pair", "data.generate_domain_pair", None),
    ("data", "save_dataset", "data.save_dataset", None),
    ("harness", "load_dataset", "data.load_dataset", None),
    ("quadratic", "gd_trajectory", "quadratic.trajectory.gd", None),
    ("quadratic", "eg_first_order_trajectory", "quadratic.trajectory.eg1", None),
    ("quadratic", "eg_full_hessian_trajectory", "quadratic.trajectory.eg2", None),
    ("quadratic", "measure_mode_decay", "quadratic.measure_mode_decay", None),
    ("render", "render_trajectory", "render.render_trajectory", None),
)


def _resolve(path: str):
    module, _, cls = path.partition(".")
    owner = importlib.import_module(f"latopt.{module}")
    return getattr(owner, cls) if cls else owner


class Tracer:
    """Records one span per call of every wrapped function while installed."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._patched: list = []

    def _wrap(self, fn, name, label):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span_name = f"{name}.{label(args, kwargs)}" if label else name
            idx = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (span_name, start, end, parent)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        for owner_path, attr, name, label in WRAPS:
            owner = _resolve(owner_path)
            fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            if fn is None:
                continue
            setattr(owner, attr, self._wrap(fn, name, label))
            self._patched.append((owner, attr, fn))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


class SpanStats:
    """Totals over a list of spans: inclusive and self time per span name,
    call counts, self time per layer, and helpers that look at parents."""

    def __init__(self, spans):
        self.spans = spans
        child_ms = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1000.0
        self.calls = defaultdict(int)
        self.incl_ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.layer_self_ms = defaultdict(float)
        self.root_ms = 0.0
        for i, (name, start, end, parent) in enumerate(spans):
            dur = (end - start) * 1000.0
            own = dur - child_ms[i]
            self.calls[name] += 1
            self.incl_ms[name] += dur
            self.self_ms[name] += own
            self.layer_self_ms[name.split(".", 1)[0]] += own
            if parent < 0:
                self.root_ms += dur

    def parent_name(self, i: int) -> str:
        parent = self.spans[i][3]
        return self.spans[parent][0] if parent >= 0 else ""

    def ancestor_label(self, i: int, prefix: str) -> str | None:
        """Suffix of the nearest ancestor whose name starts with ``prefix``."""
        parent = self.spans[i][3]
        while parent >= 0:
            name = self.spans[parent][0]
            if name.startswith(prefix):
                return name[len(prefix):]
            parent = self.spans[parent][3]
        return None

    def indices(self, name: str):
        return [i for i, s in enumerate(self.spans) if s[0] == name]

    def duration_ms(self, i: int) -> float:
        _, start, end, _ = self.spans[i]
        return (end - start) * 1000.0


# Ops the model records; the tape's other ops never run in these workloads.
MODEL_OPS = ("add", "matmul", "concat", "tanh", "relu", "grl", "embedding_mean", "softmax_cross_entropy")
STRATEGIES = ("mtl", "mtl+lo", "adv", "adv+lo", "adv+maml")
INNER_PARENTS = ("training.latent_step", "training.maml_lookahead_step")
STEP = "training.training_step."


def metric_key(strategy: str) -> str:
    """``adv+lo`` -> ``adv_lo``, as strategies appear in metric names."""
    return strategy.replace("+", "_")


def _totals(st: SpanStats) -> dict:
    """Per-layer times (ms) and counts summed over every span in ``st``."""
    m = {}
    for op in MODEL_OPS:
        m[f"autodiff.record_ms.{op}"] = st.incl_ms[f"autodiff.record.{op}"]
        m[f"autodiff.record_calls.{op}"] = st.calls[f"autodiff.record.{op}"]
    m["autodiff.embedding_pack_ms"] = st.self_ms["autodiff.embedding_mean"]
    m["autodiff.leaf_ms"] = st.incl_ms["autodiff.leaf"]
    m["autodiff.leaf_calls"] = st.calls["autodiff.leaf"]
    for kind in ("outer", "inner"):
        m[f"autodiff.backward_ms.{kind}"] = 0.0
        m[f"autodiff.backward_calls.{kind}"] = 0
    for i in st.indices("autodiff.backward"):
        kind = "inner" if st.parent_name(i) in INNER_PARENTS else "outer"
        m[f"autodiff.backward_ms.{kind}"] += st.duration_ms(i)
        m[f"autodiff.backward_calls.{kind}"] += 1
    for s in STRATEGIES:
        m[f"training.strategy_forward_ms.{metric_key(s)}"] = 0.0
    for i in st.indices("training.strategy_forward"):
        s = st.ancestor_label(i, STEP)
        if s is not None:
            m[f"training.strategy_forward_ms.{metric_key(s)}"] += st.duration_ms(i)
    m["training.training_step_self_ms"] = sum(v for k, v in st.self_ms.items() if k.startswith(STEP))
    m["training.latent_step_self_ms"] = st.self_ms["training.latent_step"]
    m["training.maml_lookahead_ms"] = st.incl_ms["training.maml_lookahead_step"]
    m["training.batching_ms"] = st.incl_ms["training.paired_batches"]
    m["optim.adam_step_ms"] = st.incl_ms["optim.adam_step"]
    for where in ("dev_eval", "test_eval", "score"):
        m[f"model.predict_ms.{where}"] = 0.0
    for i in st.indices("model.predict"):
        parent = st.parent_name(i)
        where = "score" if not parent else "dev_eval" if parent == "training.train_run" else "test_eval"
        m[f"model.predict_ms.{where}"] += st.duration_ms(i)
    m["model.predict_calls"] = st.calls["model.predict"]
    m["model.save_checkpoint_ms"] = st.incl_ms["model.save_checkpoint"]
    m["model.load_checkpoint_ms"] = st.incl_ms["model.load_checkpoint"]
    m["harness.train_runs"] = st.calls["training.train_run"]
    m["harness.run_experiment_self_ms"] = st.self_ms["harness.run_experiment"]
    m["harness.write_outputs_ms"] = st.incl_ms["harness.write_outputs"]
    m["cli.compare_self_ms"] = st.self_ms["cli.main"]
    m["metrics.f_score_calls"] = st.calls["metrics.f_score"]
    for fn in ("prepare_transfer_pair", "generate_domain_pair", "save_dataset", "load_dataset"):
        m[f"data.{fn}_ms"] = st.incl_ms[f"data.{fn}"]
    for method in ("gd", "eg1", "eg2"):
        m[f"quadratic.trajectory_ms.{method}"] = st.incl_ms[f"quadratic.trajectory.{method}"]
    m["quadratic.measure_mode_decay_ms"] = st.incl_ms["quadratic.measure_mode_decay"]
    m["render.render_trajectory_ms"] = st.incl_ms["render.render_trajectory"]
    for layer in LAYERS:
        m[f"self_ms.{layer}"] = st.layer_self_ms[layer]
    return m


def nodes_per_step(st: SpanStats) -> dict:
    """Tape nodes (recorded ops plus leaves) per ``training_step`` call, by
    strategy; 0 for a strategy the spans never ran."""
    nodes = defaultdict(int)
    for i, (name, _, _, _) in enumerate(st.spans):
        if name == "autodiff.leaf" or name.startswith("autodiff.record."):
            s = st.ancestor_label(i, STEP)
            if s is not None:
                nodes[s] += 1
    out = {}
    for s in STRATEGIES:
        steps = st.calls[STEP + s]
        out[f"autodiff.nodes_per_step.{metric_key(s)}"] = nodes[s] / steps if steps else 0
    return out


def layer_metrics(setup: SpanStats, run: SpanStats, n_passes: int) -> dict:
    """Per-layer metrics for one set-up plus one pass: set-up spans count
    once, pass spans are averaged over ``n_passes``."""
    a, b = _totals(setup), _totals(run)
    m = {k: a[k] + b[k] / n_passes for k in a}
    m.update(nodes_per_step(run))
    m["trace.spans_per_pass"] = len(run.spans) / n_passes
    return m
